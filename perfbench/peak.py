"""One untraced repetition in a fresh process, for its peak memory.

    python3 -m perfbench.peak '<workload as JSON>' SEED WORKDIR

The benchmark starts this with ``src/`` and the checkout root on
``PYTHONPATH``, so nothing that ran before it in the benchmark's own
process (earlier repetitions, earlier workloads) shows in the figure.
Its last line of standard output is one JSON object: the repetition's
simulated digests, its attempted and failed counts, and the peak
resident memory of this process or of the largest of its pool workers.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from perfbench.harness import Workload, run_rep


def own_peak_kb() -> int:
    """High-water resident memory of this process's own address space.

    Linux's ``VmHWM`` starts afresh at ``exec``.  ``ru_maxrss`` does not:
    it keeps the resident size of the process that forked this one,
    taken at the moment of the fork, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped
    child (a pool worker, forked from this fresh process)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_peak_kb(), kids) / 1024.0


def main(argv) -> int:
    wl = Workload(**json.loads(argv[0]))
    rep = run_rep(wl, int(argv[1]), Path(argv[2]))
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "digests": rep.digests,
        "attempted": rep.attempted,
        "failed": rep.failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
