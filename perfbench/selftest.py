"""Self-test of the benchmark at the shortest run length.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, runs `run.py --seconds 1` untraced (one round) and
traced (one untraced and one traced round), prints each workload's
end-to-end metrics, and checks that
- the last line of stdout is the result object, correct, with no failed row;
- it holds exactly the metrics BENCHMARK.json names for that mode, each a
  number with the unit BENCHMARK.json gives;
- the spans the traced run wrote nest, their self times are >= 0 and sum to
  at most the round's wall time.
Then runs the benchmark in a directory that holds only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT
from tracer import TraceError, self_times
from workloads import WORKLOADS

RUN_TIMEOUT_S = 180


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(result, expected: dict[str, str]) -> list[str]:
    if not isinstance(result, dict):
        return ["no result object on the last line"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name}: value {value!r} is not a number")
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
    return errors


def check_spans(workload: str) -> list[str]:
    with open(OUT / f"spans-{workload}-seed0.json", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    errors = []
    for run in runs:
        try:
            own = self_times(run["spans"], run["wall_ns"])
        except TraceError as exc:
            errors.append(f"run {run['run_id']}: {exc}")
            continue
        if not any(parent >= 0 for _, _, _, parent in run["spans"]):
            errors.append(f"run {run['run_id']}: no nested span")
        if sum(own) <= 0:
            errors.append(f"run {run['run_id']}: no traced time")
    return errors or ([] if runs else ["no traced run"])


def check_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("exit code 0 without the program's sources")
    if last_json(proc.stdout) is not None:
        errors.append("printed a result without the program's sources")
    return errors


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            result = last_json(proc.stdout)
            errors = check_result(result, expected[trace])
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            if trace and not errors:
                errors += check_spans(workload)
            failures += [f"{workload} trace={trace}: {e}" for e in errors]
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAILED'}")
            if trace == 0 and not errors:
                print("  " + "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                                       for k, v in result["metrics"].items()))
    errors = check_bare_directory()
    failures += [f"bare directory: {e}" for e in errors]
    print(f"bare directory: {'ok' if not errors else 'FAILED'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
