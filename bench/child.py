"""One repetition of a workload, in a fresh single-threaded process.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON REP_DIR TRACE

``bench/run.py`` starts it with PYTHONPATH at the checkout's ``src`` and the
BLAS thread pools pinned to one thread.  It records the CPU time it took to
become ready for its first timed call, the wall and CPU time of the pass,
its peak RSS, every operation's result and, when TRACE is 1, the tracer's
report.
"""

import json
import resource
import sys
import time

import afdof
import afdof.cli  # loaded before the tracer installs, so cli is wrapped too

import layers
import workloads
from tracer import Tracer


def main(spec_path: str, result_path: str, rep_dir: str, trace: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if trace == "1":
        tracer = Tracer(afdof, layers.LAYERS, hot=layers.HOT,
                        groups=layers.GROUPS, probes=layers.PROBES)
        tracer.install()
    # CPU time since the process started: interpreter start-up and imports,
    # mostly numpy.  Unlike wall time it does not count time the host took
    # the CPU away, which on a shared machine varies by tens of per cent.
    setup_s = time.process_time()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outcome = workloads.run_pass(spec, rep_dir)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **outcome,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
