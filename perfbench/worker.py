"""One benchmark pass in a fresh process: set up, run one womctl operation,
print one JSON object with the measurements on stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up ends when ``womctl`` is imported and every scenario the workload
names is loaded with its delay matrix. The worker reports the
``time.monotonic()`` reading at that point as ``ready``; the parent, which
read the same clock just before starting the process, turns it into the
set-up time. The operation runs in-process through ``womctl.cli.main`` with
stdout captured, so its output can be checked by the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import SETUP_SCENARIOS, cli_argv  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    import womctl.cli
    from womctl.scenario_io import load_scenario
    from womctl.topology import min_delay_matrix
    import tracer as tr

    tracer = tr.Tracer()
    if args.trace:
        tr.install(tracer)
    else:
        tr.install_routes(tracer)
    with tracer.root("setup"):
        for path in SETUP_SCENARIOS[args.workload]:
            topo, _s = load_scenario(path)
            min_delay_matrix(topo)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.root("op"), contextlib.redirect_stdout(out):
        code = womctl.cli.main(cli_argv(args.workload, args.seed))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {
        "ready": ready,
        "exit_code": code,
        "stdout": out.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "route_s": tr.route_seconds(tracer),
    }
    if args.trace:
        result["layers"] = tr.layer_metrics(tracer)
        result["nesting_errors"] = tracer.nesting_errors
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
