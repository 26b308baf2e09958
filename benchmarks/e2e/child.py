"""One batch sample: a fresh process that sets up and runs one pass.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
program's sources, in a fresh empty working directory, and reads the
JSON report it writes::

    python child.py WORKLOAD SEED REPORT.json [--pass] [--smoke]
                    [--trace CHROME_TRACE.json]

Without ``--pass`` the process only sets up (imports the program and
builds the pass's inputs) and reports when it was ready, on the
system-wide monotonic clock, so the parent can time spawn-to-ready.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("report")
    parser.add_argument("--pass", dest="run_pass", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", metavar="CHROME_TRACE")
    args = parser.parse_args()

    from workloads import build

    plan = build(args.workload, args.seed, smoke=args.smoke)
    report: dict = {"ready": time.monotonic()}
    if args.run_pass:
        tracer = None
        if args.trace:
            import layers
            from tracer import Tracer, self_times

            tracer = Tracer()
            layers.install(tracer)
        start = time.perf_counter()
        ops = plan.run()
        wall = time.perf_counter() - start
        report.update(
            wall_s=wall,
            # ru_maxrss of this process alone: RUSAGE_CHILDREN would carry
            # a running maximum over every child the parent ever reaped
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            md_seed=plan.md_seed,
            ops=ops,
        )
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.spans
            report["layers"] = layers.layer_values(spans, tracer.counts)
            report["fired"] = sorted(layers.fired(tracer.counts))
            report["self_sum_s"] = sum(self_times(spans))
            tracer.chrome_trace(Path(args.trace), origin=start)
    Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
