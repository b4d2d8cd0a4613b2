"""Command-line front end: generate, simulate, estimate, decide, compare, and
the end-to-end Monte-Carlo experiment.

Every run is driven by a JSON config merged over the benchmark defaults, and
every output file carries the config hash and seed, so identical invocations
produce identical trees (byte for byte, except run_info.json which records
wall-clock time).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import LrdnError
from .model import (
    GeneratorConfig,
    LrdnModel,
    model_hash,
    random_model,
    random_models,
    true_graph,
    validate,
)
from .model import DirectedGraph
from .sim import read_csv, simulate, simulate_accepted, write_csv
from .topology import (
    _pair_tests,
    apply_partition,
    compare_graphs,
    decide_graphs,
    graph_from_decisions,
    partition_select,
    support_graph,
    write_edge_tests_csv,
)
from .wiener import estimate_filters, exact_filters


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 1."""


def default_experiment_config() -> dict:
    """Benchmark defaults: 12 channels, 4 innovations, 25 edges, 200 samples."""
    return {
        "generator": {
            "m": 8,
            "l": 4,
            "degree_ml": 2,
            "degree_l": 2,
            "support_ml": 18,
            "support_l": 7,
            "coeff_min": 0.5,
            "coeff_max": 0.9,
            "max_rejections": 5000,
            "rng_seed": 0,
            "lag0_offdiag": False,
            "pure_noise": [4],
            "sigma_l": None,
        },
        "sim": {"num_samples": 200, "burn_in": 500},
        "estimation": {"order_p": 2, "ridge": 0.0},
        "decision": {"alpha": 0.01, "correction": "bonferroni", "zero_tol": 1e-9},
        "partition": {"max_lag": 8, "rank_tol": 1e-4},
        "trials": 20,
        "master_seed": 1,
        "fixed_model": False,
        "outputs": "out",
    }


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in a file; ConfigError naming the file otherwise."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def load_config(path: str | None) -> dict:
    cfg = default_experiment_config()
    if path is not None:
        cfg = _merge(cfg, _read_json_object(path, "config"))
    for section in ("generator", "sim", "estimation", "decision", "partition"):
        if not isinstance(cfg.get(section), dict):
            raise ConfigError(f"{section} must be a JSON object")
    _check_number(cfg, "trials", 1)
    _check_number(cfg, "master_seed", 0)
    _check_number(cfg, "sim.num_samples", 1)
    _check_number(cfg, "sim.burn_in", 0)
    _check_number(cfg, "estimation.order_p", 1)
    _check_number(cfg, "estimation.ridge", 0, integer=False)
    _check_number(cfg, "decision.alpha", fraction=True)
    _check_number(cfg, "decision.zero_tol", 0, integer=False)
    if cfg["decision"].get("correction") not in ("none", "bonferroni"):
        raise ConfigError("decision.correction must be 'none' or 'bonferroni'")
    _check_number(cfg, "partition.max_lag", 1)
    _check_number(cfg, "partition.rank_tol", fraction=True)
    flags = {"fixed_model": cfg.get("fixed_model"), "generator.lag0_offdiag": cfg["generator"].get("lag0_offdiag")}
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
    if not isinstance(cfg.get("outputs"), str):
        raise ConfigError(f"outputs must be a directory path, got {cfg.get('outputs')!r}")
    return cfg


def _check_number(cfg: dict, name: str, minimum: int = 0, integer: bool = True, fraction: bool = False) -> None:
    """Refuse a missing, non-numeric, non-finite or too small config value,
    or with ``fraction`` one outside (0, 1); ``name`` is a top-level key or
    "section.key"."""
    section, _, key = name.rpartition(".")
    value = (cfg[section] if section else cfg).get(key)
    if fraction:
        ok = isinstance(value, (int, float)) and 0 < value < 1
        need = "a number strictly between 0 and 1"
    else:
        kinds = int if integer else (int, float)
        ok = not isinstance(value, bool) and isinstance(value, kinds) and minimum <= value < float("inf")
        need = f"{'an integer' if integer else 'a finite number'} >= {minimum}"
    if not ok:
        raise ConfigError(f"{name} must be {need}, got {value!r}")


def config_hash(cfg: dict) -> str:
    """Hash of the semantic config; the output location does not affect results."""
    semantic = {k: v for k, v in cfg.items() if k != "outputs"}
    return hashlib.sha256(json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:12]


def derive_seed(master_seed: int, *indices: int) -> int:
    """Per-trial seed: first 64 bits of SeedSequence([master_seed, *indices]).

    A pure function of its arguments, so parallel and serial trial schedules
    see identical streams.
    """
    state = np.random.SeedSequence([int(master_seed), *map(int, indices)]).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


# -- output helpers ------------------------------------------------------


def _write_json(path: Path, payload: dict, cfg_hash: str, seed: int) -> None:
    doc = {"meta": {"config_hash": cfg_hash, "seed": seed}}
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_graph(out_dir: Path, stem: str, graph: DirectedGraph, cfg_hash: str, seed: int, formats) -> None:
    if "json" in formats:
        _write_json(out_dir / f"{stem}.json", {"graph": graph.to_dict()}, cfg_hash, seed)
    if "dot" in formats:
        dot = f"// config_hash={cfg_hash} seed={seed}\n" + graph.to_dot()
        (out_dir / f"{stem}.dot").write_text(dot)
    if "csv" in formats:
        with (out_dir / f"{stem}.csv").open("w", newline="") as fh:
            fh.write(f"# config_hash={cfg_hash} seed={seed}\n")
            writer = csv.writer(fh)
            writer.writerow(["target", "source"])
            writer.writerows(graph.sorted_edges())


def _formats(arg: str) -> set:
    return {"json", "dot", "csv"} if arg == "all" else {arg}


def _out_dir(args, cfg) -> Path:
    out = Path(args.out_dir if args.out_dir else cfg["outputs"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


# what a from_dict raises on a JSON document of the wrong shape
MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _load_model(path: str) -> LrdnModel:
    doc = _read_json_object(path, "model")
    try:
        return LrdnModel.from_dict(doc.get("model", doc))
    except MALFORMED as exc:
        raise ConfigError(f"model {path} is malformed: {type(exc).__name__}: {exc}") from exc


# -- subcommands ---------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["generator"]["rng_seed"] = args.seed
    out = _out_dir(args, cfg)
    chash = config_hash(cfg)
    try:
        gcfg = GeneratorConfig.from_dict(cfg["generator"])
        model = random_model(gcfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator config rejected: {exc}") from exc
    report = validate(model)
    print(report.summary())
    seed = gcfg.rng_seed
    _write_json(out / "model.json", {"model": model.to_dict(), "model_hash": model_hash(model)}, chash, seed)
    graph = true_graph(model, zero_tol=cfg["decision"]["zero_tol"])
    _write_graph(out, "true_graph", graph, chash, seed, _formats(args.format))
    print(f"wrote model with {len(graph.edges)} edges to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    chash = config_hash(cfg)
    model = _load_model(args.model)
    seed = args.seed if args.seed is not None else cfg["master_seed"]
    ts = simulate(model, num_samples=cfg["sim"]["num_samples"], burn_in=cfg["sim"]["burn_in"], seed=seed)
    write_csv(
        ts,
        out / "data.csv",
        metadata={
            "burn_in": cfg["sim"]["burn_in"],
            "model_hash": model_hash(model),
            "config_hash": chash,
        },
    )
    print(f"wrote {ts.num_samples} samples x {ts.m + ts.l} channels to {out / 'data.csv'}")
    return 0


# data read from a file can be finite yet overflow in the fits: stop at the
# first overflow or invalid value instead of computing on inf and nan
@np.errstate(over="raise", invalid="raise")
def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    chash = config_hash(cfg)
    try:
        raw, meta = read_csv(args.data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data {args.data}: {exc}") from exc
    try:
        seed = int(meta.get("seed", 0)) if meta else 0
    except MALFORMED as exc:
        raise ConfigError(f"sidecar {args.data}.meta.json holds no integer seed: {exc}") from exc

    part = partition_select(
        raw,
        max_lag=cfg["partition"]["max_lag"],
        rank_tol=cfg["partition"]["rank_tol"],
    )
    ts = apply_partition(raw, part)
    _write_json(out / "partition.json", {"partition": part.to_dict()}, chash, seed)

    p = cfg["estimation"]["order_p"]
    ridge = cfg["estimation"]["ridge"]
    h_est, s_est = estimate_filters(ts, order=p, ridge=ridge)
    _write_json(out / "filter_s.json", {"estimate": s_est.to_dict()}, chash, seed)
    if h_est is not None:
        _write_json(out / "filter_h.json", {"estimate": h_est.to_dict()}, chash, seed)

    alpha = cfg["decision"]["alpha"]
    correction = cfg["decision"]["correction"]
    ((columns, error),) = _pair_tests([(h_est, s_est)], alpha, correction)
    if error is not None:
        raise error
    sources, targets, *_, decision = columns
    graph = graph_from_decisions(ts.m, ts.l, targets, sources, decision)
    _write_graph(out, "decided_graph", graph, chash, seed, _formats(args.format))
    write_edge_tests_csv(columns, out / "edge_tests.csv", comment=f"config_hash={chash} seed={seed}")
    print(
        f"partition l_indices={list(part.l_indices)}; decided {len(graph.edges)} edges "
        f"(alpha={alpha}, correction={correction})"
    )
    return 0


def cmd_decide(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    chash = config_hash(cfg)
    model = _load_model(args.model)
    filters = exact_filters(model)
    graph = support_graph(filters, m=model.m, zero_tol=cfg["decision"]["zero_tol"])
    _write_json(
        out / "exact_filters.json",
        {
            "s": filters.s.to_dict(),
            "h": filters.h.to_dict(),
            "d": filters.d.tolist(),
        },
        chash,
        0,
    )
    _write_graph(out, "decided_graph", graph, chash, 0, _formats(args.format))
    print(f"support decision: {len(graph.edges)} edges")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    chash = config_hash(cfg)

    def load_graph(path):
        doc = _read_json_object(path, "graph")
        try:
            return DirectedGraph.from_dict(doc.get("graph", doc))
        except MALFORMED as exc:
            raise ConfigError(f"graph {path} is malformed: {type(exc).__name__}: {exc}") from exc

    try:
        metrics = compare_graphs(load_graph(args.estimated), load_graph(args.truth))
    except ValueError as exc:
        raise ConfigError(f"cannot compare {args.estimated} with {args.truth}: {exc}") from exc
    _write_json(out / "metrics.json", {"metrics": metrics.to_dict()}, chash, 0)
    print(json.dumps(metrics.to_dict(), sort_keys=True, indent=2))
    return 0


# trials.csv columns between "trial, seed" and "error"; empty on a failed trial
METRIC_FIELDS = ("exact_match", "precision", "recall", "true_positives", "false_positives", "false_negatives")
# run-experiment stages, in order; run_info.json records each one's wall time
RUN_STAGES = ("generate", "simulate", "fit", "decide", "score")


def _live(outcome: dict) -> list:
    """Trials whose outcome is a stage result, not the exception that ended them."""
    return [trial for trial, result in outcome.items() if not isinstance(result, Exception)]


def run_experiment(cfg: dict, out_dir: Path) -> dict:
    """Monte-Carlo loop behind the run-experiment subcommand.

    Per-trial seeds derive from (master_seed, trial, stream), so the result
    tree is a pure function of the config. The loop runs in five stages:
    draw every trial's model from its own seed in one lock-step call,
    simulate all accepted models in one lock-step call, fit each trial's two
    filters, decide every fitted trial's edges in one batched call, and score
    each decided graph. One outcome map holds each trial's latest stage
    result, or the exception that ended the trial, and each stage runs on
    the trials still live. A trial that fails a stage, including a numpy
    failure in its fit, gets an error row and the run continues.
    """
    chash = config_hash(cfg)
    master = cfg["master_seed"]
    p = cfg["estimation"]["order_p"]
    ridge = cfg["estimation"]["ridge"]
    alpha = cfg["decision"]["alpha"]
    correction = cfg["decision"]["correction"]
    trials = range(cfg["trials"])
    clock = [time.perf_counter()]

    draws = []
    try:
        gcfg = GeneratorConfig.from_dict({**cfg["generator"], "rng_seed": derive_seed(master, 0, 0)})
        if cfg.get("fixed_model"):
            models = random_models([gcfg], draws=draws) * len(trials)
        else:
            models = random_models([replace(gcfg, rng_seed=derive_seed(master, trial, 0)) for trial in trials], draws=draws)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator config rejected: {exc}") from exc
    outcome = dict(zip(trials, models))
    clock.append(time.perf_counter())

    seeds = [derive_seed(master, trial, 1) for trial in trials]
    live = _live(outcome)
    series = simulate_accepted(
        [outcome[trial] for trial in live],
        num_samples=cfg["sim"]["num_samples"],
        burn_in=cfg["sim"]["burn_in"],
        seeds=[seeds[trial] for trial in live],
    )
    outcome.update(zip(live, series))
    clock.append(time.perf_counter())

    for trial in _live(outcome):
        try:
            outcome[trial] = estimate_filters(outcome[trial], order=p, ridge=ridge)
        except (LrdnError, np.linalg.LinAlgError, FloatingPointError) as exc:
            outcome[trial] = exc
    clock.append(time.perf_counter())

    live = _live(outcome)
    outcome.update(zip(live, decide_graphs([outcome[trial] for trial in live], alpha=alpha, correction=correction)))
    clock.append(time.perf_counter())

    rows = []
    for trial, result in outcome.items():
        if isinstance(result, Exception):
            scores = {**dict.fromkeys(METRIC_FIELDS, ""), "error": f"{type(result).__name__}: {result}"}
        else:
            metrics = compare_graphs(result, true_graph(models[trial], zero_tol=cfg["decision"]["zero_tol"]))
            scores = {field: getattr(metrics, field) for field in METRIC_FIELDS}
            scores.update(exact_match=int(metrics.exact_match), error="")
        rows.append({"trial": trial, "seed": seeds[trial], **scores})
    clock.append(time.perf_counter())

    with (out_dir / "trials.csv").open("w", newline="") as fh:
        fh.write(f"# config_hash={chash} master_seed={master}\n")
        writer = csv.DictWriter(fh, fieldnames=["trial", "seed", *METRIC_FIELDS, "error"])
        writer.writeheader()
        writer.writerows(rows)

    completed = [r for r in rows if not r["error"]]
    aggregate = {
        "trials": cfg["trials"],
        "completed": len(completed),
        "failures": cfg["trials"] - len(completed),
        "exact_match_rate": float(np.mean([r["exact_match"] for r in completed])) if completed else 0.0,
        "mean_precision": float(np.mean([r["precision"] for r in completed])) if completed else 0.0,
        "mean_recall": float(np.mean([r["recall"] for r in completed])) if completed else 0.0,
    }
    _write_json(out_dir / "aggregate.json", {"aggregate": aggregate}, chash, master)
    # wall-clock time lives apart so the result tree stays reproducible
    run_info = {
        "generator_draws": sum(draws),
        "runtime_seconds": clock[-1] - clock[0],
        "stage_seconds": {stage: end - start for stage, start, end in zip(RUN_STAGES, clock, clock[1:])},
    }
    (out_dir / "run_info.json").write_text(json.dumps(run_info, sort_keys=True, indent=2) + "\n")
    return aggregate


def cmd_run_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("trials must be a positive integer")
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    out = _out_dir(args, cfg)
    aggregate = run_experiment(cfg, out)
    print(json.dumps(aggregate, sort_keys=True, indent=2))
    return 0


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def nonnegative_seed(text: str) -> int:
    """argparse type of --seed: numpy seeds must be nonnegative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lrdnet argument parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call reuses it."""
    parser = _Parser(prog="lrdnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        p.add_argument("--config", help="JSON config merged over the defaults")
        if "seed" in flags:
            p.add_argument("--seed", type=nonnegative_seed, help="override the config seed")
        p.add_argument("--out-dir", help="output directory (default from config)")
        if "format" in flags:
            p.add_argument(
                "--format",
                choices=["json", "csv", "dot", "all"],
                default="all",
                help="graph export format(s)",
            )

    p = sub.add_parser("generate", help="draw a model and write it with its true graph")
    common(p, "seed", "format")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="simulate a trajectory from a model file")
    common(p, "seed")
    p.add_argument("--model", required=True, help="model JSON from 'generate'")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate filters and decide a graph from CSV data")
    common(p, "format")
    p.add_argument("--data", required=True, help="sample CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decide", help="population support decision from a model file")
    common(p, "format")
    p.add_argument("--model", required=True, help="model JSON")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("compare", help="edge accuracy of an estimated graph against a truth graph")
    common(p)
    p.add_argument("--estimated", required=True, help="estimated graph JSON")
    p.add_argument("--truth", required=True, help="true graph JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run-experiment", help="Monte-Carlo generate/simulate/estimate/decide loop")
    common(p, "seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LrdnError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
