"""Open-loop workload + driver tests.

Four layers:

* statistical goodness-of-fit for the generators (chi-square against the
  exact Zipf / exponential models -- deterministic seeds, so the
  statistics are reproducible numbers, not flaky draws),
* determinism and stream-independence of request generation, and its
  equivalence with the old per-tenant generator and two-pass merge,
  kept here as the reference,
* exact nearest-rank percentile semantics (edge cases pinned bit-for-bit),
* the request driver end-to-end, including the composition oracle:
  paused-and-resumed vs run-through.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.latency import LatencyRecorder, exact_percentile
from repro.apps import make_app
from repro.config import ConfigError, Design, tiny_config
from repro.runtime.requests import OpenLoopApp, RequestDriver, run_openloop
from repro.sim import DeterministicRNG
from repro.workloads import (
    BurstyArrivals,
    OpenLoopSpec,
    PoissonArrivals,
    Request,
    SkewSchedule,
    TenantSpec,
    ZipfSampler,
    generate_requests,
)
from repro.workloads.zipf import ZipfGenerator, zipf_cdf


def chi_square(observed, expected):
    """Pearson's chi-square statistic over matched count lists."""
    assert len(observed) == len(expected)
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


# ----------------------------------------------------------------------
# goodness of fit: ZipfSampler
# ----------------------------------------------------------------------
class TestZipfSamplerFit:
    def test_chi_square_matches_zipf_pmf(self):
        # 30 ranks x 6000 draws: every expected bin count is >= ~40, the
        # classic chi-square validity regime.  df = 29; the 0.1% critical
        # value is 58.3 -- a deterministic seed makes this a regression
        # number, the statistical margin just keeps it meaningful.
        n, draws, skew = 30, 6000, 0.8
        sampler = ZipfSampler(n, DeterministicRNG(11, "gof"))
        counts = [0] * n
        for _ in range(draws):
            counts[sampler.sample(skew)] += 1
        expected = [draws * sampler.probability(k, skew) for k in range(n)]
        assert chi_square(counts, expected) < 58.3

    def test_matches_fixed_skew_generator_exactly(self):
        # At a constant skew the switchable sampler must draw the exact
        # sequence ZipfGenerator draws from the same stream (shared CDF).
        a = ZipfSampler(64, DeterministicRNG(3, "z"))
        b = ZipfGenerator(64, 1.1, DeterministicRNG(3, "z"))
        assert [a.sample(1.1) for _ in range(200)] == b.sample_many(200)

    def test_skew_switch_moves_mass(self):
        sampler = ZipfSampler(100, DeterministicRNG(5, "z"))
        flat = sum(1 for _ in range(2000) if sampler.sample(0.0) < 10)
        hot = sum(1 for _ in range(2000) if sampler.sample(1.2) < 10)
        assert flat < 300  # ~10% uniform
        assert hot > 900  # heavy head

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(40, DeterministicRNG(1, "z"))
        for skew in (0.0, 0.9, 1.3):
            total = sum(sampler.probability(k, skew) for k in range(40))
            assert total == pytest.approx(1.0)

    def test_cdf_validation(self):
        with pytest.raises(ValueError):
            zipf_cdf(0, 1.0)
        with pytest.raises(ValueError):
            zipf_cdf(10, -0.1)


# ----------------------------------------------------------------------
# goodness of fit: arrival processes
# ----------------------------------------------------------------------
class TestArrivalFit:
    def test_poisson_mean_gap(self):
        arr = PoissonArrivals(80.0, DeterministicRNG(7, "arr"))
        gaps = [arr.next_gap() for _ in range(4000)]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(80.0, rel=0.05)

    def test_poisson_chi_square_exponential_quartiles(self):
        # Bin the gaps at the exact exponential quartiles.  df = 3; the
        # 0.1% critical value is 16.3.  Integer rounding of the gaps
        # shifts a handful of edge samples -- far inside the margin.
        mean_gap, draws = 80.0, 4000
        arr = PoissonArrivals(mean_gap, DeterministicRNG(7, "gof"))
        edges = [-mean_gap * math.log(1 - q) for q in (0.25, 0.5, 0.75)]
        counts = [0] * 4
        for _ in range(draws):
            gap = arr.next_gap()
            bin_ = sum(1 for e in edges if gap > e)
            counts[bin_] += 1
        assert chi_square(counts, [draws / 4] * 4) < 16.3

    def test_gap_floor_is_one_cycle(self):
        arr = PoissonArrivals(0.01, DeterministicRNG(1, "arr"))
        assert all(arr.next_gap() == 1 for _ in range(100))

    def test_bursty_is_overdispersed(self):
        # MMPP-2 visits both states and its gap variance exceeds the
        # exponential's (squared CV > 1): that *is* burstiness.
        arr = BurstyArrivals(
            100.0, 10.0, DeterministicRNG(9, "arr"),
            calm_switch=0.1, burst_switch=0.3,
        )
        gaps, states = [], set()
        for _ in range(4000):
            gaps.append(arr.next_gap())
            states.add(arr.bursting)
        assert states == {True, False}
        mean = sum(gaps) / len(gaps)
        # Stationary mix: 25% bursting -> E[gap] ~ 0.75*100 + 0.25*10.
        assert mean == pytest.approx(77.5, rel=0.1)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert var / mean**2 > 1.2

    def test_validation(self):
        rng = DeterministicRNG(1, "a")
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, rng)
        with pytest.raises(ValueError):
            BurstyArrivals(10.0, 0.0, rng)
        with pytest.raises(ValueError):
            BurstyArrivals(10.0, 5.0, rng, calm_switch=1.5)


# ----------------------------------------------------------------------
# skew schedules
# ----------------------------------------------------------------------
class TestSkewSchedule:
    def test_piecewise_lookup(self):
        s = SkewSchedule([(0, 0.5), (100, 1.0), (200, 0.2)])
        assert s.skew_at(0) == 0.5
        assert s.skew_at(99) == 0.5
        assert s.skew_at(100) == 1.0
        assert s.skew_at(10_000) == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            SkewSchedule([])
        with pytest.raises(ValueError):
            SkewSchedule([(10, 0.5)])  # must start at 0
        with pytest.raises(ValueError):
            SkewSchedule([(0, 0.5), (0, 1.0)])  # strictly increasing

    def test_tenant_spec_validates_eagerly(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", n_requests=10, mean_gap=5.0,
                       skew=((5, 1.0),))
        with pytest.raises(ValueError):
            TenantSpec(name="t", n_requests=0, mean_gap=5.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", n_requests=10, mean_gap=5.0,
                       arrival="weird")
        with pytest.raises(ValueError):
            TenantSpec(name="t", n_requests=10, mean_gap=5.0,
                       arrival="bursty")  # burst_gap missing
        with pytest.raises(ValueError):
            OpenLoopSpec(tenants=())
        with pytest.raises(ValueError):
            OpenLoopSpec(
                tenants=(TenantSpec(name="t", n_requests=1, mean_gap=1.0),),
                warmup=-1,
            )


# ----------------------------------------------------------------------
# request generation: determinism and stream independence
# ----------------------------------------------------------------------
TENANTS = (
    TenantSpec(name="a", n_requests=200, mean_gap=30.0,
               skew=((0, 0.6), (2000, 1.2))),
    TenantSpec(name="b", n_requests=120, mean_gap=50.0, arrival="bursty",
               burst_gap=8.0, skew=((0, 1.0),)),
)


class TestGenerateRequests:
    def test_same_seed_identical_stream(self):
        assert generate_requests(TENANTS, 64, 5) == \
            generate_requests(TENANTS, 64, 5)

    def test_different_seed_different_stream(self):
        assert generate_requests(TENANTS, 64, 5) != \
            generate_requests(TENANTS, 64, 6)

    def test_req_ids_are_injection_order(self):
        reqs = generate_requests(TENANTS, 64, 5)
        assert [r.req_id for r in reqs] == list(range(len(reqs)))
        assert all(a.arrival <= b.arrival
                   for a, b in zip(reqs, reqs[1:]))

    def test_skew_schedule_never_perturbs_arrivals(self):
        # Arrival gaps and key draws use separate named substreams:
        # changing the skew schedule must leave arrival times untouched.
        shifted = generate_requests(TENANTS, 64, 5)
        flat_tenants = (
            dataclasses.replace(TENANTS[0], skew=((0, 0.0),)),
            TENANTS[1],
        )
        flat = generate_requests(flat_tenants, 64, 5)
        assert [r.arrival for r in shifted] == [r.arrival for r in flat]
        assert [r.rank for r in shifted if r.tenant == "a"] != \
            [r.rank for r in flat if r.tenant == "a"]

    def test_tenants_draw_independent_streams(self):
        # Substreams are keyed by tenant name, so dropping tenant "b"
        # must not move a single one of tenant "a"'s requests.
        both = generate_requests(TENANTS, 64, 5)
        alone = generate_requests(TENANTS[:1], 64, 5)
        a_both = [(r.arrival, r.rank) for r in both if r.tenant == "a"]
        a_alone = [(r.arrival, r.rank) for r in alone]
        assert a_both == a_alone

    def test_duplicate_tenant_names_rejected(self):
        dup = (TENANTS[0], dataclasses.replace(TENANTS[1], name="a"))
        with pytest.raises(ValueError, match="unique"):
            generate_requests(dup, 64, 5)
        with pytest.raises(ValueError):
            generate_requests((), 64, 5)

    def test_start_offset_shifts_first_arrival(self):
        spec = TenantSpec(name="t", n_requests=5, mean_gap=10.0, start=500)
        reqs = generate_requests((spec,), 16, 1)
        assert reqs[0].arrival > 500


# ----------------------------------------------------------------------
# request generation against the two-pass reference
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _RefRequest:
    req_id: int
    tenant: str
    tenant_index: int
    tenant_seq: int
    arrival: int
    rank: int


class _RefPoisson:
    def __init__(self, mean_gap, rng):
        self.mean_gap = mean_gap
        self.rng = rng

    def next_gap(self):
        return max(1, int(round(self.rng.expovariate(1.0 / self.mean_gap))))


class _RefBursty:
    def __init__(self, mean_gap, burst_gap, rng, calm_switch, burst_switch):
        self.mean_gap = mean_gap
        self.burst_gap = burst_gap
        self.calm_switch = calm_switch
        self.burst_switch = burst_switch
        self.rng = rng
        self.bursting = False

    def next_gap(self):
        gap_mean = self.burst_gap if self.bursting else self.mean_gap
        gap = max(1, int(round(self.rng.expovariate(1.0 / gap_mean))))
        flip = self.burst_switch if self.bursting else self.calm_switch
        if self.rng.random() < flip:
            self.bursting = not self.bursting
        return gap


def _ref_tenant_stream(spec, tenant_index, keyspace, root):
    if spec.arrival == "bursty":
        arrivals = _RefBursty(spec.mean_gap, spec.burst_gap,
                              root.substream(f"{spec.name}/arrivals"),
                              spec.calm_switch, spec.burst_switch)
    else:
        arrivals = _RefPoisson(spec.mean_gap,
                               root.substream(f"{spec.name}/arrivals"))
    sampler = ZipfSampler(keyspace, root.substream(f"{spec.name}/keys"))
    schedule = SkewSchedule(spec.skew)
    now = spec.start
    for seq in range(spec.n_requests):
        now += arrivals.next_gap()
        yield _RefRequest(req_id=-1, tenant=spec.name,
                          tenant_index=tenant_index, tenant_seq=seq,
                          arrival=now,
                          rank=sampler.sample(schedule.skew_at(now)))


def _reference_requests(tenants, keyspace, seed):
    """The generator as it was: one record per request from a per-tenant
    generator, a merge sorted on a key, and a second record per request
    to set its ``req_id``."""
    root = DeterministicRNG(seed, "openloop")
    merged = []
    for index, spec in enumerate(tenants):
        merged.extend(_ref_tenant_stream(spec, index, keyspace, root))
    merged.sort(key=lambda r: (r.arrival, r.tenant_index, r.tenant_seq))
    return [dataclasses.replace(r, req_id=i) for i, r in enumerate(merged)]


@st.composite
def tenant_lists(draw):
    """1-3 tenants with mean gaps near one cycle, so that tenants often
    arrive in the same cycle, and 1-3 skew segments, some starting in the
    first few cycles and some after a start offset."""
    tenants = []
    for i in range(draw(st.integers(1, 3))):
        starts = draw(st.lists(st.integers(1, 60), max_size=2, unique=True))
        skews = draw(st.lists(st.sampled_from([0.0, 0.4, 0.9, 1.3]),
                              min_size=len(starts) + 1,
                              max_size=len(starts) + 1))
        bursty = draw(st.booleans())
        tenants.append(TenantSpec(
            name=f"t{i}",
            n_requests=draw(st.integers(1, 40)),
            mean_gap=draw(st.floats(0.3, 3.0)),
            skew=tuple(zip([0] + sorted(starts), skews)),
            arrival="bursty" if bursty else "poisson",
            burst_gap=draw(st.floats(0.3, 2.0)) if bursty else 0.0,
            calm_switch=draw(st.floats(0.0, 1.0)),
            burst_switch=draw(st.floats(0.0, 1.0)),
            start=draw(st.integers(0, 30)),
        ))
    return tuple(tenants)


class TestGenerateRequestsMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(tenants=tenant_lists(), keyspace=st.integers(1, 50),
           seed=st.integers(0, 2**16))
    def test_same_requests_as_the_two_pass_merge(self, tenants, keyspace,
                                                 seed):
        got = generate_requests(tenants, keyspace, seed)
        want = _reference_requests(tenants, keyspace, seed)
        assert [tuple(r) for r in got] == [
            dataclasses.astuple(r) for r in want]

    def test_perfbench_stream_matches(self):
        # Two tenants over 3,020 requests: a skew shift, bursty arrivals.
        tenants = (
            TenantSpec(name="hot", n_requests=2000, mean_gap=200.0,
                       skew=((0, 0.6), (150_000, 1.2))),
            TenantSpec(name="burst", n_requests=1020, mean_gap=400.0,
                       arrival="bursty", burst_gap=80.0, skew=((0, 1.0),)),
        )
        got = generate_requests(tenants, 1432, 17)
        want = _reference_requests(tenants, 1432, 17)
        assert [tuple(r) for r in got] == [
            dataclasses.astuple(r) for r in want]


class TestRequestRecord:
    REQ = Request(req_id=3, tenant="hot", tenant_index=0, tenant_seq=2,
                  arrival=150, rank=7)

    def test_repr_pinned(self):
        assert repr(self.REQ) == (
            "Request(req_id=3, tenant='hot', tenant_index=0, tenant_seq=2, "
            "arrival=150, rank=7)")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.REQ.rank = 8

    def test_hashable_and_equal_by_fields(self):
        twin = Request(req_id=3, tenant="hot", tenant_index=0,
                       tenant_seq=2, arrival=150, rank=7)
        assert twin == self.REQ
        assert {self.REQ: "a"}[twin] == "a"
        assert Request(3, "hot", 0, 2, 151, 7) != self.REQ


# ----------------------------------------------------------------------
# exact percentiles: edge cases pinned bit-for-bit
# ----------------------------------------------------------------------
class TestExactPercentile:
    def test_empty_raises_like_geomean(self):
        with pytest.raises(ValueError, match="empty"):
            exact_percentile([], 500)

    def test_permille_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            exact_percentile([1], -1)
        with pytest.raises(ValueError, match="out of range"):
            exact_percentile([1], 1001)

    def test_single_sample_every_permille(self):
        for pm in (0, 1, 500, 990, 999, 1000):
            assert exact_percentile([42], pm) == 42

    def test_nearest_rank_semantics_pinned(self):
        # ceil(permille * n / 1000) over n=4 sorted samples: the exact
        # nearest-rank table, pinned value by value.
        s = [40, 10, 30, 20]  # unsorted on purpose
        assert exact_percentile(s, 0) == 10
        assert exact_percentile(s, 125) == 10  # ceil(0.5) = 1
        assert exact_percentile(s, 250) == 10
        assert exact_percentile(s, 251) == 20  # ceil(1.004) = 2
        assert exact_percentile(s, 500) == 20
        assert exact_percentile(s, 750) == 30
        assert exact_percentile(s, 751) == 40
        assert exact_percentile(s, 990) == 40
        assert exact_percentile(s, 999) == 40
        assert exact_percentile(s, 1000) == 40

    def test_ties_are_stable(self):
        assert exact_percentile([7, 7, 7, 7, 7], 500) == 7
        assert exact_percentile([1, 7, 7, 7, 9], 500) == 7
        assert exact_percentile([1, 7, 7, 7, 9], 990) == 9

    def test_p1000_is_max_p0_is_min(self):
        s = list(range(100, 0, -1))
        assert exact_percentile(s, 1000) == 100
        assert exact_percentile(s, 0) == 1


class TestLatencyRecorder:
    def test_negative_latency_rejected(self):
        r = LatencyRecorder()
        with pytest.raises(ValueError, match="negative"):
            r.record("t", -1)

    def test_unknown_tenant_raises(self):
        r = LatencyRecorder()
        with pytest.raises(ValueError, match="no samples"):
            r.percentile("ghost", 500)
        with pytest.raises(ValueError, match="no samples"):
            r.mean_latency("ghost")

    def test_summary_shape(self):
        r = LatencyRecorder()
        r.record("b", 5)
        r.record("a", 3)
        s = r.summary()
        assert set(s) == {
            f"lat/{t}/{k}"
            for t in ("a", "b")
            for k in ("count", "mean", "max", "p500", "p990", "p999")
        }
        assert s["lat/a/p500"] == 3.0
        assert all(isinstance(v, float) for v in s.values())


# ----------------------------------------------------------------------
# the driver end-to-end (tiny configs -- fast)
# ----------------------------------------------------------------------
def small_spec(warmup: int = 400) -> OpenLoopSpec:
    return OpenLoopSpec(
        tenants=(
            TenantSpec(name="a", n_requests=60, mean_gap=60.0,
                       skew=((0, 0.6), (1500, 1.2))),
            TenantSpec(name="b", n_requests=40, mean_gap=90.0,
                       arrival="bursty", burst_gap=15.0,
                       skew=((0, 1.0),)),
        ),
        warmup=warmup,
    )


class TestRequestDriver:
    def test_openloop_run_completes_stream(self):
        result = run_openloop(
            "ll", tiny_config(Design.O), small_spec(),
            scale=0.05, seed=7,
        )
        extra = result.metrics.extra
        assert extra["ol/completed"] == extra["ol/requests"] == 100.0
        assert result.metrics.makespan > extra["ol/last_arrival"]
        assert extra["lat/a/p500"] >= 1.0
        assert extra["lat/a/p500"] <= extra["lat/a/p990"] \
            <= extra["lat/a/p999"] <= extra["lat/a/max"]

    def test_warmup_excludes_early_arrivals(self):
        cold = run_openloop("ll", tiny_config(Design.O),
                            small_spec(warmup=0), scale=0.05, seed=7)
        warm = run_openloop("ll", tiny_config(Design.O),
                            small_spec(warmup=2000), scale=0.05, seed=7)
        n_cold = cold.metrics.extra["lat/a/count"] + \
            cold.metrics.extra["lat/b/count"]
        n_warm = warm.metrics.extra["lat/a/count"] + \
            warm.metrics.extra["lat/b/count"]
        assert n_cold == 100.0
        assert n_warm < n_cold  # early arrivals ran but went unrecorded
        assert warm.metrics.extra["ol/completed"] == 100.0

    def test_all_request_apps_drive(self):
        for name in ("ll", "ht", "tree"):
            result = run_openloop(
                name, tiny_config(Design.B), small_spec(),
                scale=0.05, seed=7,
            )
            assert result.metrics.extra["ol/completed"] == 100.0

    def test_non_request_app_rejected(self):
        with pytest.raises(ConfigError, match="request mode"):
            OpenLoopApp(make_app("spmv", scale=0.05, seed=7), small_spec())

    def test_design_h_rejected(self):
        with pytest.raises(ConfigError, match="design H"):
            run_openloop("ll", tiny_config(Design.H), small_spec(),
                         scale=0.05, seed=7)

    def test_shards_other_than_one_rejected(self):
        with pytest.raises(ConfigError, match="sharded engine was removed"):
            run_openloop("ll", tiny_config(Design.O), small_spec(),
                         scale=0.05, seed=7, shards=2)

    def test_split_advance_equals_straight_run(self):
        # Pausing mid-stream is observation only: a run advanced in two
        # halves must be bit-identical to one driven straight through.
        cfg = tiny_config(Design.O)
        straight = run_openloop("ll", cfg, small_spec(), scale=0.05,
                                seed=7)
        app = OpenLoopApp(make_app("ll", scale=0.05, seed=7), small_spec())
        split = RequestDriver(app, cfg).start().advance(until=2500) \
            .finish()
        assert dataclasses.asdict(split.metrics) == \
            dataclasses.asdict(straight.metrics)
