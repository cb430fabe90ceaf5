"""The repository benchmark: `digitsquares` CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats rounds of the workload for about S seconds.  A round is one
fresh child process (`child.py`) that imports the package and runs the
workload's commands one after another with `--jobs 1`, so every round pays
for field construction and table builds, as each CLI invocation does.  It is
a closed loop with one client: the next command starts when the previous one
has returned.  The child is the only other process; BLAS/OpenMP thread pools
are held to one thread.

Every command's report bytes are checked against the sha256 recorded in
`digests.json`; a mismatch, a non-zero exit or a `fail` row makes its rows
count as failed and the run incorrect.

--trace 0 prints the end-to-end metrics (medians over rounds).  Each round
is followed by `reference.py`, a fixed kernel in its own process; `wall_s`
and `cpu_s` are the round's wall and CPU time divided by the reference's and
multiplied by REFERENCE_S, i.e. seconds on a host where the reference takes
REFERENCE_S.  On a shared host whose speed drifts by tens of percent between
runs this cancels the drift; the measured seconds are printed beside them.
`setup_s`, `peak_rss_mb` and `ok_frac` are as measured.  --trace 1
alternates untraced and traced rounds, prints the per-layer metrics of the
traced rounds (medians) and writes their spans to perfbench/out/.  The last
line of stdout is the JSON result; the lines before it give quartiles,
round counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, metric_specs
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
ROUND_TIMEOUT_S = 150
# reference.py's time, wall and CPU, on the 2-core Xeon host uncontended
REFERENCE_S = 0.2
# (name, unit); see BENCHMARK.json for the bounds
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DIGITSQUARES_BUDGET")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one round in a fresh process and return its parsed result."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed),
         "1" if trace else "0", str(spawn_ns)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RoundFailed(f"round exited with {proc.returncode}: " + " | ".join(tail))
    result = json.loads(proc.stdout)
    result["traced"] = trace
    return result


def run_reference(timeout: float) -> tuple[float, float]:
    """(wall s, CPU s) of the reference kernel in a fresh process."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=timeout, check=True)
    wall, cpu = proc.stdout.split()
    return float(wall), float(cpu)


def check_round(result: dict, digests: dict[str, str]) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, problems) of one round.

    A command's rows all count as failed if it exited non-zero or its report
    digest differs from the recorded one.
    """
    attempted = failed = 0
    problems = []
    for cmd in result["commands"]:
        key = " ".join(cmd["argv"])
        rows = max(cmd["rows"], 1)
        bad = cmd["failed_rows"]
        if cmd["exit"] != 0:
            problems.append(f"exit {cmd['exit']}: {key} {cmd['error'][-300:]}")
            bad = rows
        elif digests.get(key) != cmd["sha256"]:
            problems.append(f"report digest {cmd['sha256'][:12]} != recorded "
                            f"{str(digests.get(key))[:12]}: {key}")
            bad = rows
        elif bad:
            problems.append(f"{bad} fail rows: {key}")
        attempted += rows
        failed += bad
    return attempted, failed, problems


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the next one would end after `seconds`.

    With tracing, rounds alternate untraced/traced and there is at least one
    of each.
    """
    start = time.monotonic()
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.monotonic()
        budget = ROUND_TIMEOUT_S - (began - start)
        if budget <= 0:
            raise RoundFailed("out of time before the rounds completed")
        rounds.append(run_round(workload, seed, traced, budget))
        if not trace:
            rounds[-1]["ref"] = run_reference(budget)
        now = time.monotonic()
        enough = len(rounds) >= (2 if trace else 1)
        if enough and now + (now - began) - start > seconds:
            return rounds


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def end_to_end(rounds: list[dict], attempted: int, failed: int,
               lines: list[str]) -> dict[str, float]:
    samples = {
        "setup_s": [r["setup_s"] for r in rounds],
        "wall_s": [r["wall_ns"] / 1e9 / r["ref"][0] * REFERENCE_S for r in rounds],
        "cpu_s": [r["cpu_s"] / r["ref"][1] * REFERENCE_S for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    values = {key: statistics.median(v) for key, v in samples.items()}
    values["ok_frac"] = 1.0 - failed / attempted
    for key, unit in END_TO_END:
        extra = spread(samples[key]) if key in samples else f"rows={attempted} failed={failed}"
        lines.append(f"{key:<14} {values[key]:.6g} {unit}  median, {extra}")
    for key, measured in (("wall", [r["wall_ns"] / 1e9 for r in rounds]),
                          ("cpu", [r["cpu_s"] for r in rounds]),
                          ("reference wall", [r["ref"][0] for r in rounds]),
                          ("reference cpu", [r["ref"][1] for r in rounds])):
        lines.append(f"measured {key}: {statistics.median(measured):.6g} s  "
                     f"median, {spread(measured)}")
    return values


def per_layer(workload: str, seed: int, rounds: list[dict],
              lines: list[str]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    per_round = [layer_metrics(r["trace"], r["wall_ns"]) for r in traced]
    values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    values["trace_overhead_s"] = (
        statistics.median(r["wall_ns"] for r in traced)
        - statistics.median(r["wall_ns"] for r in untraced)) / 1e9
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    with open(spans, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "runs": [{"run_id": i, "wall_ns": r["wall_ns"], **r["trace"]}
                            for i, r in enumerate(traced)]}, fh)
    lines.append(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
                 f"spans written to {spans.relative_to(ROOT)}")
    modules = {k: v for k, v in values.items() if k.startswith("layer.")}
    total = sum(modules.values())
    for key, v in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"{key:<24} {v:.4f} s  {100 * v / total:5.1f}% of traced self time")
    lines.append(f"dominant layer: {max(modules, key=modules.get).split('.')[1]}")
    return values


def environment(rounds: list[dict]) -> dict:
    env = dict(rounds[0]["env"])
    env["nproc"] = os.cpu_count()
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "digitsquares" / "__init__.py").is_file():
        print(f"error: no digitsquares sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RoundFailed, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"rounds={len(rounds)}",
             "env: " + json.dumps(environment(rounds), sort_keys=True)]
    problems = []
    for r in rounds:
        a, f, p = check_round(r, digests)
        attempted, failed = attempted + a, failed + f
        problems += p
    lines += [f"problem: {p}" for p in dict.fromkeys(problems)]

    if args.trace:
        values = per_layer(args.workload, args.seed, rounds, lines)
        units = {name: unit for name, unit, _ in metric_specs()}
    else:
        values = end_to_end(rounds, attempted, failed, lines)
        units = dict(END_TO_END)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
