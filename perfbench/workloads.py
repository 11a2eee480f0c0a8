"""The benchmark's workloads: the womctl command each one runs, and the
scenario files its set-up loads.

Paths are relative to the root of the checkout, which is the working
directory of every benchmark process.
"""

from __future__ import annotations

INSTANCE_A = "src/womctl/data/instance_a.wom"
INSTANCE_B = "src/womctl/data/instance_b.wom"

# verify-random size: large enough that the per-seed solver and filter cases
# (a fixed handful of tiny random scenarios) stay a small share of a pass.
RANDOM_INSTANCES = 1000
# verify-random runs `--seed (seed % RECORDED_SEEDS)`, so that every benchmark
# seed maps onto a seed whose per-check instance counts are recorded.
RECORDED_SEEDS = 100

WORKLOADS = ("compare-a", "ci-b", "verify-a", "verify-random")

_ARGV = {
    "compare-a": ["compare", "--scenario", INSTANCE_A],
    "ci-b": ["solve", "--scenario", INSTANCE_B, "--method", "common-info"],
    "verify-a": ["verify", "--scenario", INSTANCE_A],
    "verify-random": ["verify", "--random", str(RANDOM_INSTANCES), "--seed"],
}

SETUP_SCENARIOS = {
    "compare-a": (INSTANCE_A,),
    "ci-b": (INSTANCE_B,),
    "verify-a": (INSTANCE_A,),
    "verify-random": (),
}


def verify_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


def cli_argv(workload: str, seed: int) -> list[str]:
    """The womctl command line of one operation of ``workload``."""
    argv = list(_ARGV[workload])
    if workload == "verify-random":
        argv.append(str(verify_seed(seed)))
    return argv
