"""lrdnet benchmark: run one workload, or all of them, and print its metrics.

    python3 bench/run.py --workload mc12 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one after another

Each workload runs in a process of its own (``bench/worker.py``) with the
BLAS/OpenMP thread counts pinned to 1. Set-up time is measured from outside
that process, from its start to its first timed op, and is taken as the
median over several set-ups. With ``--trace 1`` the per-layer metrics of a
traced run are printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Human-readable lines come before
it. Results, with the environment they were measured in, are also written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc12", "wide72", "unlabeled24")
SETUP_SAMPLES = 3  # set-ups per run, the timed one included; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_BUDGET_S = 175  # every process of one workload run ends within this


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        **versions,
        "threads": dict.fromkeys(THREAD_VARS, "1"),
    }


def start_worker(args, workload: str, work: Path, result: Path, env: dict, deadline: float, extra=()) -> tuple[float, dict]:
    """Run the worker to completion, killing it at ``deadline``; returns
    (launch time, its result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work), "--result", str(result), *extra,
    ]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return launched, json.loads(result.read_text())


def run_workload(args, workload: str, env: dict) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                launched, res = start_worker(args, workload, work / f"setup{k}", work / f"setup{k}.json", env, deadline, ["--setup-only"])
                setups.append(res["ready_at"] - launched)
        extra = ["--trace-file", str(out_dir / f"{stem}.spans.jsonl")] if args.trace else []
        launched, res = start_worker(args, workload, work / "run", work / "result.json", env, deadline, extra)
        setups.append(res["ready_at"] - launched)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_info = environment(res["versions"])
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = dict(res["metrics"])
        metrics["setup_s"] = (statistics.median(setups) / res["info"]["machine_speed_factor"], "s")
    report = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_info, "setup_samples_s": setups, "problems": res["problems"], "info": res["info"],
        "missing_targets": res.get("missing_targets", []), **report,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    info = res["info"]
    print(f"== {workload} seed={args.seed} seconds={args.seconds} trace={args.trace} commit={env_info['commit'][:12]}")
    print(f"   env: nproc={env_info['nproc']} python={env_info['python']} numpy={env_info['numpy']} "
          f"scipy={env_info['scipy']} blas={env_info['blas']} threads=1")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{info['op_tail_percentile']:.1f} of {res['attempted']} ops)"
        print(f"   {name:<36} {value:>14.6g} {unit}{note}")
    for key in ("exact_match_rate", "mean_precision", "mean_recall", "failed_share"):
        if key in info:
            print(f"   {key:<36} {info[key]:>14.6g}")
    if "raw" in info and not args.trace:
        raw = " ".join(f"{k}={v:.6g}" for k, v in info["raw"].items())
        print(f"   unscaled: {raw} (machine speed factor {info['machine_speed_factor']:.4f})")
    print(f"   outcomes: {info['outcomes']}")
    for problem in res["problems"]:
        print(f"   CHECK FAILED: {problem}")
    if res.get("missing_targets"):
        print(f"   not traced (absent from the program): {', '.join(res['missing_targets'])}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=30, help="how long the ops are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    args = parser.parse_args()

    if not (ROOT / "src" / "lrdnet" / "cli.py").is_file():
        print(f"bench: no lrdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    env.pop("PYTHONPATH", None)
    try:
        reports = [run_workload(args, w, env) for w in ([args.workload] if args.workload else WORKLOADS)]
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
