"""Tests for dynamic communication triggering (Section V-C)."""

from hypothesis import given, settings, strategies as st

from repro.config import CommConfig, TriggerMode
from repro.bridge.triggering import CommTrigger


def make_trigger(mode=TriggerMode.DYNAMIC, g_xfer=256):
    return CommTrigger(CommConfig(g_xfer_bytes=g_xfer, trigger_mode=mode))


def should(trigger, now=1000, last=0, i_min=100, lens=(), idle=False,
           internal=False):
    return trigger.should_start_round(now, last, i_min, lens, idle, internal)


class TestDynamic:
    def test_no_traffic_no_round(self):
        t = make_trigger()
        assert not should(t, lens=[0, 0, 0])

    def test_full_mailbox_triggers_immediately(self):
        t = make_trigger()
        assert should(t, now=1, last=0, lens=[0, 256, 0])

    def test_partial_mailbox_waits_for_idle_child(self):
        t = make_trigger()
        # Some traffic but nobody idle and below G_xfer: wait.
        assert not should(t, lens=[100], idle=False)
        # An idle child exists and I_min has elapsed: go.
        assert should(t, now=200, last=0, i_min=100, lens=[100], idle=True)

    def test_idle_child_respects_i_min(self):
        t = make_trigger()
        assert not should(t, now=50, last=0, i_min=100, lens=[100], idle=True)

    def test_internal_pending_drains(self):
        t = make_trigger()
        assert should(t, now=200, last=0, i_min=100, lens=[0],
                      internal=True)
        assert not should(t, now=50, last=0, i_min=100, lens=[0],
                          internal=True)

    def test_does_not_gather_empty_children(self):
        t = make_trigger()
        assert not t.gathers_empty_children()


class TestFixed:
    def test_fixed_interval(self):
        t = make_trigger(TriggerMode.FIXED)
        assert should(t, now=100, last=0, i_min=100, lens=[0])
        assert not should(t, now=99, last=0, i_min=100, lens=[0])
        assert t.gathers_empty_children()

    def test_fixed_2x_interval(self):
        t = make_trigger(TriggerMode.FIXED_2X)
        assert not should(t, now=150, last=0, i_min=100, lens=[256])
        assert should(t, now=200, last=0, i_min=100, lens=[0])


def reference_should_start_round(config, now, last_round_end, i_min,
                                 mailbox_lens, any_idle_child,
                                 internal_pending):
    """The dynamic rule in two generator passes over the lengths: the
    reference that ``CommTrigger.should_start_round``'s one pass must
    equal."""
    elapsed = now - last_round_end
    mode = config.trigger_mode
    if mode is TriggerMode.FIXED:
        return elapsed >= i_min
    if mode is TriggerMode.FIXED_2X:
        return elapsed >= 2 * i_min
    g_xfer = config.g_xfer_bytes
    if any(n >= g_xfer for n in mailbox_lens):
        return True
    have_traffic = internal_pending or any(n > 0 for n in mailbox_lens)
    if not have_traffic:
        return False
    if internal_pending and elapsed >= i_min:
        return True
    return any_idle_child and elapsed >= i_min


G_XFER = 256


@settings(max_examples=500, deadline=None)
@given(
    mode=st.sampled_from(list(TriggerMode)),
    lens=st.lists(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=G_XFER - 1),
        st.integers(min_value=G_XFER, max_value=4 * G_XFER),
    ), max_size=12),
    now=st.integers(min_value=0, max_value=1000),
    last=st.integers(min_value=0, max_value=1000),
    i_min=st.integers(min_value=1, max_value=400),
    idle=st.booleans(),
    internal=st.booleans(),
)
def test_matches_the_two_pass_reference(mode, lens, now, last, i_min,
                                        idle, internal):
    trigger = make_trigger(mode, G_XFER)
    args = (now, last, i_min, lens, idle, internal)
    assert trigger.should_start_round(*args) is (
        reference_should_start_round(trigger.config, *args)
    )
