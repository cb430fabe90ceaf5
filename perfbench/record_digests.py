"""Record the report digest of every command line the benchmark can run.

Usage, from the root of a checkout whose reports are the reference:

    python3 perfbench/record_digests.py

Runs one untraced round of every workload for each of the RECORDED_SEEDS
program seeds (a command line shared by several seeds runs once), requires
every command to exit 0 with no `fail` row, reruns seeds 0 and 1 to check
that reports are byte-identical across processes, and writes the sha256 of
each command's report bytes to perfbench/digests.json, keyed by the command
line.
"""

import json
import sys

from run import DIGESTS, check_round, run_round
from workloads import RECORDED_SEEDS, WORKLOADS, commands


def record(workload: str, seed: int, digests: dict[str, str]):
    result = run_round(workload, seed, False, timeout=150)
    for cmd in result["commands"]:
        key = " ".join(cmd["argv"])
        if cmd["exit"] != 0 or cmd["failed_rows"]:
            raise SystemExit(f"not a reference: exit {cmd['exit']}, "
                             f"{cmd['failed_rows']} fail rows: {key}\n{cmd['error']}")
        digests[key] = cmd["sha256"]


def main() -> int:
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        for seed in range(RECORDED_SEEDS):
            if all(" ".join(c) in digests for c in commands(workload, seed)):
                continue
            record(workload, seed, digests)
            print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    for workload in WORKLOADS:
        for seed in (0, 1):
            _, failed, problems = check_round(
                run_round(workload, seed, False, timeout=150), digests)
            if failed or problems:
                raise SystemExit(f"{workload} seed {seed} did not reproduce: {problems}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
