"""Run the benchmark over several seeds and report each metric's median and
spread (interquartile range over median), optionally saving a trajectory point.

    python3 bench/spread.py --workload unlabeled24 --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --out bench/trajectory/BENCH_<commit>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import ROOT, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="repeatable; default: all")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the medians, quartiles and raw values here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    table = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(run)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
            print(f"{workload} seed={seed} correct={run['correct']} attempted={run['attempted']} failed={run['failed']} {values}", flush=True)
        table[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
                for name in runs[0]["metrics"]
            },
        }
        for name, stats in table[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or stats["spread"] <= bound / 3 else "  (> bound/3)"
            print(f"  {workload:<12} {name:<36} median {stats['median']:<12.6g} spread {stats['spread']:.4f} bound {bound}{flag}")
    if args.out:
        record = ROOT / ".bench_out" / f"{workload}-seed{args.seeds[-1]}-trace{args.trace}.json"
        env = json.loads(record.read_text())["env"]
        doc = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "env": env, "workloads": table}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
