"""Record the oracle's reference outputs into ``perfbench/reference.json``.

    python3 perfbench/record_reference.py

Runs each workload's operation once in a fresh worker process: stdout
digests for ``compare``/``solve``, per-check ``(name, instances, passed)``
for ``verify --scenario``, and, for ``verify --random``, the per-check
instance counts of every seed in ``0 .. RECORDED_SEEDS-1``. Run it only at a
commit whose outputs are known to be right; the benchmark then holds every
later commit to them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from run import spawn  # noqa: E402
from workloads import RECORDED_SEEDS  # noqa: E402


def operation(workload: str, seed: int) -> str:
    result = spawn(workload, seed, [], timeout=600)
    if result["exit_code"] != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {result['exit_code']}")
    return result["stdout"]


def main() -> int:
    ref: dict = {}
    for workload in ("compare-a", "ci-b"):
        ref[workload] = {"stdout_sha256": oracle.sha256(operation(workload, 0))}
    ref["verify-a"] = {"checks": oracle.verify_checks(operation("verify-a", 0))}
    names, instances = None, {}
    for seed in range(RECORDED_SEEDS):
        checks = oracle.verify_checks(operation("verify-random", seed))
        if not all(passed for _n, _i, passed in checks):
            raise SystemExit(f"verify-random seed {seed} has a failing check")
        if names is None:
            names = [name for name, _i, _p in checks]
        elif names != [name for name, _i, _p in checks]:
            raise SystemExit(f"verify-random seed {seed} lists other checks")
        instances[str(seed)] = [n for _name, n, _p in checks]
        print(f"verify-random seed {seed} recorded", file=sys.stderr)
    ref["verify-random"] = {"names": names, "instances": instances}
    text = json.dumps(ref, indent=1)
    # one line per innermost list
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    oracle.REFERENCE.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
