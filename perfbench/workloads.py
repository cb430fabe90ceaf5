"""The benchmark's workloads: the `digitsquares` command lines each one runs.

A workload is a fixed list of CLI argument lists built from the benchmark
seed.  The program sees the seed only as its own `--seed` flag, and only in
commands that draw random instances.  The benchmark seed is folded into
`RECORDED_SEEDS` program seeds, so every command line a run may use has a
report digest recorded in `digests.json` (see `record_digests.py`).

Instance counts are scaled down from the full acceptance grid so that one
round (one fresh process running every command of the workload) takes a few
seconds and a run holds several rounds.  Random digit sets in the census use
a fixed size so the amount of enumeration does not depend on the seed.
"""

RECORDED_SEEDS = 32

WORKLOADS = ("cert_grid", "census_intervals", "census_random", "tableless")


def program_seed(seed: int) -> str:
    return str(seed % RECORDED_SEEDS)


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one round of `workload`, in the order they run."""
    s = program_seed(seed)
    if workload == "cert_grid":
        # fields with q <= 2197: counting is cheap, interval certification of
        # the bounds and lemma right-hand sides takes the time
        return [
            ["verify", "--suite", "identity,est1,thmA,thmB,thm1,thm2,corC-report",
             "--p", "3,5,7,11,13", "--r", "1,2,3",
             "--digits", "intervals+random:40", "--seed", s, "--jobs", "1"],
            ["verify", "--suite", "lemmaE,lemma1", "--p", "3,5,7,11,13",
             "--r", "2", "--trials", "40", "--seed", s, "--jobs", "1"],
        ]
    if workload == "census_intervals":
        # q = 1030301, just under the 2^20 table cap: enumeration of every
        # initial interval plus the dlog/quad table build; no randomness, so
        # the same command for every seed
        return [
            ["verify", "--suite", "identity", "--p", "101", "--r", "3",
             "--digits", "intervals", "--jobs", "1"],
        ]
    if workload == "census_random":
        # the same field and layers with no interval structure
        return [
            ["verify", "--suite", "identity,est1,thmA,thm1", "--p", "101",
             "--r", "3", "--digits", "random:12,70", "--seed", s, "--jobs", "1"],
        ]
    if workload == "tableless":
        # q above the table cap: the quadratic character comes from the
        # vectorised Euler criterion (vec_pow), in sampling and in counting
        return [
            ["estimate", "--p", "101", "--r", "20", "--digits", "0-46",
             "--n", "3000", "--seed", s],
            ["verify", "--suite", "identity,thmA", "--p", "37", "--r", "4",
             "--digits", "0-14+random:2,12", "--seed", s, "--jobs", "1"],
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
