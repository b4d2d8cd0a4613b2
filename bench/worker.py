"""One benchmark workload in one process: set up, run timed ops, check outputs.

Started by ``bench/run.py``, which pins the thread counts and measures set-up
time from outside. Every op goes in-process through ``lrdnet.cli.main(argv)``
with stdout and stderr captured; the program only sees the configs, seeds and
CSV files generated here from the workload seed. The result goes to the JSON
file named by ``--result``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the single-threaded baseline

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import lrdnet.cli  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Recorder, layer_metrics  # noqa: E402

# seed streams: one per kind of generated input
OP_STREAM, MODEL_STREAM, SIM_STREAM = 0, 1, 2


def derived_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def invoke(argv: list[str]) -> tuple[int | None, str | None, float, str]:
    """Run one CLI call; returns (exit code, uncaught exception type, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, exc = lrdnet.cli.main(argv), None
        except Exception as e:  # a crashing op is recorded as failed; the run goes on
            code, exc = None, type(e).__name__
        seconds = time.perf_counter() - start
    return code, exc, seconds, err.getvalue()


def snapshot(directory: Path) -> dict[str, bytes]:
    """Result files of an op; run_info.json holds wall-clock time and is skipped."""
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.is_file() and p.name != "run_info.json"
    }


class Op:
    """Outcome of one op: wall time, trials completed, and what went wrong."""

    def __init__(self, seconds: float, trials: int, failure: str | None = None, outcome: str = "ok"):
        self.seconds = seconds
        self.trials = trials
        self.failure = failure
        self.outcome = outcome
        self.exact = self.precision = self.recall = 0.0
        self.scored = 0
        self.speed = 1.0  # reference unit time near this op over REF_NOMINAL_S


class Experiment:
    """``run-experiment`` ops: one invocation per op, master seed from (seed, op)."""

    def __init__(self, name: str, overrides: dict | None):
        self.name = name
        self.overrides = overrides

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.config = []
        if self.overrides is not None:
            path = work / f"{self.name}.json"
            path.write_text(json.dumps(self.overrides, sort_keys=True, indent=2) + "\n")
            self.config = ["--config", str(path)]

    def run(self, index: int, out: Path) -> Op:
        argv = ["run-experiment", *self.config, "--seed", str(derived_seed(self.seed, OP_STREAM, index)), "--out-dir", str(out)]
        code, exc, seconds, err = invoke(argv)
        if code != 0:
            return Op(seconds, 0, exc or f"exit {code}: {err.strip()[:200]}")
        try:
            aggregate = json.loads((out / "aggregate.json").read_text())["aggregate"]
            with (out / "trials.csv").open(newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        except (OSError, ValueError, KeyError) as e:
            return Op(seconds, 0, f"unreadable results: {type(e).__name__}: {e}")
        done = [r for r in rows if not r["error"]]
        op = Op(seconds, len(done))
        if len(rows) != aggregate["trials"] or len(done) != aggregate["completed"]:
            op.failure = "trials.csv and aggregate.json disagree"
        elif len(done) < len(rows):
            op.failure = f"{len(rows) - len(done)} error rows: {next(r['error'] for r in rows if r['error'])}"
        op.scored = len(done)
        op.exact = sum(float(r["exact_match"]) for r in done)
        op.precision = sum(float(r["precision"]) for r in done)
        op.recall = sum(float(r["recall"]) for r in done)
        return op


class Unlabeled:
    """Blind estimation: ``generate`` a model, ``simulate`` it to CSV, then
    ``estimate`` from that CSV alone (partition selection, both fits, edge
    tests, graph). Every op draws a fresh model."""

    def __init__(self, name: str, overrides: dict):
        self.name = name
        self.overrides = overrides

    def setup(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.config = work / f"{self.name}.json"
        self.config.write_text(json.dumps(self.overrides, sort_keys=True, indent=2) + "\n")

    def run(self, index: int, out: Path) -> Op:
        config = ["--config", str(self.config), "--out-dir", str(out)]
        seconds = 0.0
        for step, argv in (
            ("generate", ["generate", "--seed", str(derived_seed(self.seed, MODEL_STREAM, index))]),
            ("simulate", ["simulate", "--model", str(out / "model.json"), "--seed", str(derived_seed(self.seed, SIM_STREAM, index))]),
            ("estimate", ["estimate", "--data", str(out / "data.csv")]),
        ):
            code, exc, t, err = invoke(argv + config)
            seconds += t
            if code == 2 and step == "estimate":
                # a documented refusal (e.g. AmbiguousRank): the op completed correctly
                kind = err.split(":")[1].strip() if err.startswith("numerical failure:") else "unknown"
                return Op(seconds, 1, outcome=kind)
            if code != 0:
                return Op(seconds, 0, exc or f"{step} exit {code}: {err.strip()[:200]}")
        try:
            part = json.loads((out / "partition.json").read_text())["partition"]
            graph = json.loads((out / "decided_graph.json").read_text())["graph"]
        except (OSError, ValueError, KeyError) as e:
            return Op(seconds, 0, f"unreadable results: {type(e).__name__}: {e}")
        n = self.overrides["generator"]["m"] + self.overrides["generator"]["l"]
        l_idx = part.get("l_indices")
        if not l_idx or not all(isinstance(i, int) and 1 <= i <= n for i in l_idx):
            return Op(seconds, 0, f"partition.json holds no valid l indices: {l_idx!r}")
        if not isinstance(graph, dict) or "edges" not in graph:
            return Op(seconds, 0, "decided_graph.json holds no graph")
        return Op(seconds, 1)


WORKLOADS = {
    # the paper benchmark: stock defaults, 8 + 4 channels, 25 edges, T=200, 20 trials
    "mc12": Experiment("mc12", None),
    "wide72": Experiment(
        "wide72",
        {
            "generator": {"m": 48, "l": 24, "support_ml": 108, "support_l": 36},
            "sim": {"num_samples": 4000},
            "fixed_model": True,
            "trials": 2,
        },
    ),
    "unlabeled24": Unlabeled(
        "unlabeled24",
        {
            "generator": {"m": 16, "l": 8, "support_ml": 36, "support_l": 12},
            "sim": {"num_samples": 1000},
            "partition": {"max_lag": 3},
        },
    ),
}
WARMUP_OP = 1_000_000  # an op index no timed run reaches

# The machine's speed drifts by up to ~20% over seconds to tens of seconds,
# and the drift hits the program and a fixed reference computation alike.
# Timed runs therefore interleave reference units (REF_SHARE of the op time)
# and scale each op's time to a machine on which one unit takes
# REF_NOMINAL_S, using the units run within REF_WINDOW_S of the op. run.py
# scales set-up time by the factor over the whole run.
REF_SHARE = 0.1
REF_NOMINAL_S = 0.004
REF_WINDOW_S = 2.5
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((1000, 32))
_REF_Y = _REF_RNG.standard_normal((1000, 16))


def reference_unit() -> float:
    """Seconds for four fixed least-squares fits, the kind of dense linear
    algebra every workload spends its time in."""
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.lstsq(_REF_X, _REF_Y, rcond=None)
    return time.perf_counter() - start


def fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest percentile of op time with at least ten ops beyond it,
    as (value, percentile); the maximum when there are ten ops or fewer."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed(workload, work: Path, seconds: float, problems: list[str]) -> tuple[list[Op], float]:
    """Start ops until ``seconds`` have passed, at least one, with reference
    units in between; returns the ops, each with its local speed factor, and
    the factor over the whole run."""
    ops: list[Op] = []
    ends: list[float] = []
    refs: list[tuple[float, float]] = []  # (when it ended, seconds)
    op_total = ref_total = 0.0
    out = work / "op"
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(workload.run(len(ops), fresh(out)))
        ends.append(time.perf_counter())
        op_total += ops[-1].seconds
        if len(ops) == 1:
            first = snapshot(out)
        while ref_total < REF_SHARE * op_total:
            unit = reference_unit()
            refs.append((time.perf_counter(), unit))
            ref_total += unit
    for op, end in zip(ops, ends):
        near = [unit for when, unit in refs if abs(when - end) <= REF_WINDOW_S]
        op.speed = statistics.median(near or [unit for _, unit in refs]) / REF_NOMINAL_S
    if workload.name == "mc12":
        workload.run(0, fresh(out))
        again = snapshot(out)
        for name in ("aggregate.json", "trials.csv"):
            if name not in first or first[name] != again.get(name):
                problems.append(f"rerun of op 0 with the same master seed changed {name}")
    return ops, statistics.median(unit for _, unit in refs) / REF_NOMINAL_S


def traced(workload, work: Path, seconds: float, problems: list[str], rec: Recorder) -> tuple[list[Op], list[Op]]:
    """Run each op twice, untraced and traced, in alternating order, until
    ``seconds`` have passed. Both runs of an op must write the same files."""
    plain: list[Op] = []
    spanned: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        i = len(plain)
        files = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            out = fresh(work / ("traced" if with_trace else "plain"))
            if with_trace:
                rec.op = i
                rec.install()
                try:
                    spanned.append(workload.run(i, out))
                finally:
                    rec.uninstall()
            else:
                plain.append(workload.run(i, out))
            files[with_trace] = snapshot(out)
        if files[True] != files[False]:
            problems.append(f"op {i}: result files differ between the traced and untraced run")
    for i, top in rec.top_level_seconds().items():
        if top > spanned[i].seconds:
            problems.append(f"op {i}: top-level spans ({top:.6f} s) exceed the op wall time ({spanned[i].seconds:.6f} s)")
    return plain, spanned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for configs and op outputs")
    parser.add_argument("--result", required=True, help="JSON file the result is written to")
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    workload.setup(work, args.seed)
    workload.run(WARMUP_OP, fresh(work / "warmup"))  # lazy imports and first-call costs
    result = {"ready_at": time.monotonic()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    problems: list[str] = []
    speed = 1.0  # reference unit time over its nominal: above 1 on a slow machine
    if args.trace:
        rec = Recorder()
        ops, spanned = traced(workload, work, args.seconds, problems, rec)
        layers = layer_metrics(rec, len(spanned))
        layers["trace_overhead"] = (sum(o.seconds for o in spanned) / sum(o.seconds for o in ops), "ratio")
        result["layers"] = layers
        result["missing_targets"] = rec.missing
        if args.trace_file:
            rec.dump(args.trace_file)
        ops += spanned
    else:
        ops, speed = timed(workload, work, args.seconds, problems)

    failures = [o.failure for o in ops if o.failure]
    problems += [f"op failed: {f}" for f in failures[:5]]
    scored = sum(o.scored for o in ops)
    info = {}
    if scored:
        info["exact_match_rate"] = sum(o.exact for o in ops) / scored
        info["mean_precision"] = sum(o.precision for o in ops) / scored
        info["mean_recall"] = sum(o.recall for o in ops) / scored
    if workload.name == "mc12":
        # acceptance criterion 7's bounds on the paper benchmark
        if info.get("exact_match_rate", 0.0) < 0.90:
            problems.append(f"exact-match rate {info.get('exact_match_rate', 0.0):.4f} < 0.90")
        for key in ("mean_precision", "mean_recall"):
            if info.get(key, 0.0) < 0.97:
                problems.append(f"{key} {info.get(key, 0.0):.4f} < 0.97")
    outcomes = ["failed" if o.failure else o.outcome for o in ops]
    info["outcomes"] = {k: outcomes.count(k) for k in sorted(set(outcomes))}
    info["failed_share"] = sum(1 for o in outcomes if o != "ok") / len(ops)

    times_ms = [o.seconds * 1e3 for o in ops]
    scaled_ms = [o.seconds * 1e3 / o.speed for o in ops]
    tail_ms, info["op_tail_percentile"] = tail(scaled_ms)
    trials = sum(o.trials for o in ops)
    info["machine_speed_factor"] = speed
    info["raw"] = {
        "trials_per_s": trials / sum(o.seconds for o in ops),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": tail(times_ms)[0],
    }
    info["op_ms"] = [round(t, 3) for t in times_ms]
    info["op_speed"] = [round(o.speed, 4) for o in ops]
    info["op_outcomes"] = outcomes
    result.update(
        attempted=len(ops),
        failed=len(failures),
        correct=not problems,
        problems=problems,
        info=info,
        metrics={
            "trials_per_s": (trials / sum(scaled_ms) * 1e3, "1/s"),
            "op_p50_ms": (statistics.median(scaled_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
