"""Smoke test of the benchmark itself; exits non-zero if a check fails.

    python3 bench/smoke.py

- every workload runs one op, untraced and traced, and its checks pass;
- every metric named in BENCHMARK.json is printed with its unit;
- tracing does not change outputs: one op per workload, run untraced and
  traced with the same seed, writes byte-identical result files;
- without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from tracing import Recorder  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(worker.WORKLOADS), "BENCHMARK.json lists exactly the worker's workloads")

    for workload in names:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                check(False, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload} trace={trace} checks pass")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{workload} trace={trace} reports every {group} metric with its unit")
            text = "\n".join(lines[:-1])
            printed = all(any(name in line and unit in line for line in text.splitlines()) for name, unit in wanted.items())
            check(printed, f"{workload} trace={trace} prints every {group} metric by name and unit")

    work = ROOT / ".bench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in names:
            w = worker.WORKLOADS[workload]
            (work / workload).mkdir(parents=True)
            w.setup(work / workload, 7)
            plain = worker.fresh(work / workload / "plain")
            w.run(0, plain)
            rec = Recorder()
            rec.install()
            try:
                spanned = worker.fresh(work / workload / "traced")
                w.run(0, spanned)
            finally:
                rec.uninstall()
            same = worker.snapshot(plain) == worker.snapshot(spanned)
            check(same and len(rec.spans) > 0, f"{workload}: traced and untraced op write byte-identical result files")

        bare = work / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, names[0], 0)
        check(proc.returncode != 0 and not proc.stdout.strip(), "without the program's sources: non-zero exit, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
