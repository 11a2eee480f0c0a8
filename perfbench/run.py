"""womctl benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload compare-a --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every operation is one womctl CLI
invocation in a fresh single-threaded worker process (``worker.py``), one at
a time, so the package's ``lru_cache``s start cold as they do for a CLI user.

A run first starts ``SETUP_PROBES`` workers that only set up and exit, then
runs operations back to back, starting another while less than
``--seconds`` have passed since the run began. With ``--trace 1`` it runs one untraced
operation and then at least ``TRACED_PASSES`` traced ones; every exact
counter must repeat between the traced processes.

Output: one line per metric (median, the highest percentile with at least
ten samples beyond it, sample count), then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) entries of
``BENCHMARK.json``. Spans of traced operations go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TRACED_PASSES = 2
DEADLINE_S = 170.0   # a run must end within 180 s


class PassFailed(Exception):
    pass


def spawn(workload: str, seed: int, flags: list[str], timeout: float) -> dict:
    """Run one worker process; its set-up time is measured from here."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise PassFailed(f"worker exit code {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready") - start
    result["process_s"] = time.monotonic() - start
    return result


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(values)[i]


def describe(name: str, values: list[float], unit: str) -> str:
    high = high_percentile(values)
    tail = "p-high n/a" if high is None else f"p{high[0]:.0f} {high[1]:.6g}"
    return (f"  {name:<48} {statistics.median(values):>12.6g} {unit:<6} "
            f"({tail}, n={len(values)})")


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, seed, seconds, trace)
        self.reference = oracle.load_reference()
        self.start = time.monotonic()
        self.setups: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # one line per reason
        self.longest = 0.0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def measuring(self) -> bool:
        """Whether the measuring time has time left for another operation."""
        return time.monotonic() - self.start < self.seconds

    def probe_setup(self) -> bool:
        for _ in range(SETUP_PROBES):
            try:
                res = spawn(self.workload, self.seed, ["--setup-only"],
                            self.remaining())
            except PassFailed as e:
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"{self.workload} set-up: {e}")
                return False
            self.setups.append(res["setup_s"])
        return True

    def operation(self, traced: bool) -> bool:
        """Run and check one operation; False when it failed."""
        self.attempted += 1
        label = f"{self.workload} operation {self.attempted}"
        flags = []
        if traced:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            flags = ["--trace", "--spans", str(
                out / f"spans-{self.workload}-seed{self.seed}-op{self.attempted}.json")]
        try:
            res = spawn(self.workload, self.seed, flags, self.remaining())
        except PassFailed as e:
            self.failed += 1
            self.failures.append(f"{label}: {e}")
            return False
        self.longest = max(self.longest, res["process_s"])
        wrong = oracle.problems(self.reference, self.workload, self.seed,
                                res["exit_code"], res["stdout"])
        if traced and res["nesting_errors"]:
            wrong.append(f"{res['nesting_errors']} traced calls inside a leaf")
        if wrong:
            self.failed += 1
            self.failures.extend(f"{label}: {w}" for w in wrong)
            return False
        self.setups.append(res["setup_s"])
        (self.traced if traced else self.untraced).append(res)
        return True

    def measure(self) -> None:
        if not self.probe_setup() or not self.operation(traced=False):
            return
        if self.trace:
            while (len(self.traced) < TRACED_PASSES or self.measuring()) and \
                    self.remaining() > self.longest:
                if not self.operation(traced=True):
                    return
        else:
            while self.measuring() and self.remaining() > self.longest and \
                    self.operation(traced=False):
                pass

    def end_to_end(self) -> dict[str, tuple[list[float], str]]:
        ops = self.untraced
        out = {
            "wall_s": ([r["wall_s"] for r in ops], "s"),
            "cpu_s": ([r["cpu_s"] for r in ops], "s"),
            "setup_s": (self.setups, "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in ops], "MB"),
        }
        for route in ops[0]["route_s"] if ops else ():
            times = [r["route_s"][route] for r in ops]
            if all(times):
                out[f"route_s.{route}"] = (times, "s")
        return out

    def per_layer(self) -> tuple[dict[str, tuple[list[float], str]], list[str]]:
        """Per-layer samples over the traced operations, and the exact
        counters that differ between them."""
        out: dict[str, tuple[list[float], str]] = {}
        for res in self.traced:
            for name, (value, unit) in res["layers"].items():
                out.setdefault(name, ([], unit))[0].append(value)
        drift = [name for name, (values, unit) in out.items()
                 if unit != "s" and len(set(values)) > 1]
        return out, drift


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "womctl" / "__init__.py").is_file():
        print(f"error: no womctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()

    samples = run.end_to_end() if run.untraced else {}
    drift: list[str] = []
    if args.trace and run.traced:
        layers, drift = run.per_layer()
        samples.update(sorted(layers.items()))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"operations={run.attempted} failed={run.failed} "
          f"failed_ratio={run.failed / max(run.attempted, 1):g}")
    for name, (values, unit) in samples.items():
        print(describe(name, values, unit))
    if args.trace and run.traced and run.untraced:
        overhead = (statistics.median([r["wall_s"] for r in run.traced])
                    - run.untraced[0]["wall_s"])
        print(f"  tracing overhead (traced wall_s - untraced wall_s): {overhead:.3f} s")
    for line in run.failures:
        print(f"FAILED {line}")
    for name in drift:
        print(f"DRIFT {name}: {samples[name][0]} differs between traced processes")

    metrics = {}
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        values, unit = samples.get(m["name"], ([], None))
        if values and unit == m["unit"]:
            # exact counters repeat (drift is reported above); the rest are medians
            exact = args.trace and unit != "s"
            metrics[m["name"]] = {
                "value": values[0] if exact else statistics.median(values),
                "unit": unit}
    print(json.dumps({
        "correct": not run.failed and not drift and len(metrics) == len(wanted),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
