"""Command-line pipeline: file round trips, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdnet
import lrdnet.cli

from lrdnet.cli import (
    config_hash,
    default_experiment_config,
    derive_seed,
    load_config,
    main,
)
from lrdnet.errors import GenerationFailed
from lrdnet.model import DirectedGraph, GeneratorConfig, random_model, true_graph
from lrdnet.sim import simulate, simulate_accepted
from lrdnet.topology import compare_graphs, decide_graph
from lrdnet.wiener import estimate_h, estimate_s


def write_config(tmp_path, **overrides):
    cfg = overrides
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text())


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(lrdnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "lrdnet.cli", *args], capture_output=True, text=True, env=env, timeout=300
    )


class TestConfig:
    def test_defaults_are_self_consistent(self):
        cfg = load_config(None)
        assert cfg["generator"]["m"] == 8
        assert cfg["generator"]["l"] == 4
        assert cfg["sim"]["num_samples"] == 200
        assert cfg["trials"] >= 1

    def test_merge_is_partial_and_nested(self, tmp_path):
        path = write_config(tmp_path, sim={"num_samples": 64}, trials=2)
        cfg = load_config(path)
        assert cfg["sim"]["num_samples"] == 64
        assert cfg["sim"]["burn_in"] == 500
        assert cfg["trials"] == 2

    def test_bad_trials_rejected(self, tmp_path):
        path = write_config(tmp_path, trials=0)
        assert main(["run-experiment", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"sim": {"num_samples": 0}}, "sim.num_samples"),
            ({"sim": {"burn_in": -1}}, "sim.burn_in"),
            ({"sim": {"num_samples": "x"}}, "sim.num_samples"),
            ({"estimation": {"order_p": 0}}, "estimation.order_p"),
            ({"estimation": {"order_p": -1}}, "estimation.order_p"),
            ({"estimation": {"ridge": -1}}, "estimation.ridge"),
            ({"master_seed": -1}, "master_seed"),
            ({"generator": {"m": 0}}, "dimensions must be positive"),
            ({"generator": {"bogus": 1}}, "bogus"),
            ({"generator": {"support_l": 99}}, "requested 99 edges"),
        ],
    )
    def test_malformed_config_is_one_line_error(self, tmp_path, override, message):
        path = write_config(tmp_path, **override)
        proc = run_cli("run-experiment", "--trials", "2", "--config", path, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("config error:") and message in line

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        assert main(["run-experiment", "--seed", "-1", "--out-dir", str(tmp_path / "o")]) == 1

    def test_config_hash_is_stable(self):
        cfg = default_experiment_config()
        assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))

    def test_derive_seed_is_pure(self):
        assert derive_seed(7, 3, 1) == derive_seed(7, 3, 1)
        assert derive_seed(7, 3, 1) != derive_seed(7, 4, 1)


class TestPipeline:
    def test_generate_simulate_estimate_compare(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            sim={"num_samples": 2000},
            outputs=str(tmp_path / "out"),
        )
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg_path, "--seed", "11", "--out-dir", out]) == 0
        model_doc = read_json(Path(out) / "model.json")
        assert "meta" in model_doc and "model" in model_doc
        true_doc = read_json(Path(out) / "true_graph.json")
        assert len(true_doc["graph"]["edges"]) == 25

        assert main(["simulate", "--config", cfg_path, "--model", f"{out}/model.json",
                     "--seed", "21", "--out-dir", out]) == 0
        meta = read_json(Path(out) / "data.csv.meta.json")
        assert meta["T"] == 2000 and meta["m"] == 8 and meta["l"] == 4

        assert main(["estimate", "--config", cfg_path, "--data", f"{out}/data.csv",
                     "--out-dir", out]) == 0
        part = read_json(Path(out) / "partition.json")["partition"]
        assert len(part["l_indices"]) == 4
        assert (Path(out) / "edge_tests.csv").exists()
        assert (Path(out) / "filter_s.json").exists()
        assert (Path(out) / "filter_h.json").exists()

        # serialization fidelity: the CLI path reproduces the in-memory pipeline
        from lrdnet.sim import read_csv
        from lrdnet.topology import apply_partition, decide_graph, partition_select
        from lrdnet.wiener import estimate_h, estimate_s

        raw, _ = read_csv(Path(out) / "data.csv")
        ts = apply_partition(raw, partition_select(raw, max_lag=8, rank_tol=1e-4))
        in_memory = decide_graph(
            estimate_h(ts, order=2), estimate_s(ts, order=2),
            alpha=0.01, correction="bonferroni",
        )
        decided = DirectedGraph.from_dict(read_json(Path(out) / "decided_graph.json")["graph"])
        assert decided == in_memory

        assert main(["compare", "--config", cfg_path,
                     "--estimated", f"{out}/decided_graph.json",
                     "--truth", f"{out}/true_graph.json",
                     "--out-dir", out]) == 0
        metrics = read_json(Path(out) / "metrics.json")["metrics"]
        assert set(metrics) >= {"precision", "recall", "exact_match"}
        assert 0.0 <= metrics["precision"] <= 1.0 and 0.0 <= metrics["recall"] <= 1.0

    def test_decide_subcommand_population_route(self, tmp_path):
        cfg_path = write_config(tmp_path, outputs=str(tmp_path / "out"))
        out = str(tmp_path / "out")
        assert main(["generate", "--config", cfg_path, "--seed", "3", "--out-dir", out]) == 0
        assert main(["decide", "--config", cfg_path, "--model", f"{out}/model.json",
                     "--out-dir", out]) == 0
        decided = DirectedGraph.from_dict(read_json(Path(out) / "decided_graph.json")["graph"])
        truth = DirectedGraph.from_dict(read_json(Path(out) / "true_graph.json")["graph"])
        assert decided == truth
        assert (Path(out) / "exact_filters.json").exists()

    def test_generate_failure_exit_code(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            generator={
                "m": 1,
                "l": 3,
                "coeff_min": 2.0,
                "coeff_max": 3.0,
                "support_ml": 2,
                "support_l": 6,
                "degree_l": 2,
                "max_rejections": 10,
                "pure_noise": [],
            },
        )
        assert main(["generate", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2

    def test_impossible_support_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, generator={"m": 1, "l": 1, "support_ml": 5})
        assert main(["generate", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 1

    def test_truncated_csv_is_clean_numerical_error(self, tmp_path):
        data = tmp_path / "tiny.csv"
        rows = ["t,y1,y2,y3"] + [f"{t},0.1,0.2,0.3" for t in range(1, 31)]
        data.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--data", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "cell, bad",
        [("nan", "non-finite value"), (None, "4 cells, header has 5"), ("abc", "could not convert")],
    )
    def test_malformed_csv_is_one_line_error(self, tmp_path, cell, bad):
        y = np.random.default_rng(3).standard_normal((2000, 4))
        rows = ["t,y1,y2,y3,y4"] + [f"{t + 1}," + ",".join(repr(float(v)) for v in y[t]) for t in range(2000)]
        rows[1201] = "1201,0.5,0.25,0.125" if cell is None else f"1201,0.5,{cell},0.25,0.125"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg_path = write_config(tmp_path, partition={"max_lag": 2})
        proc = run_cli("estimate", "--config", cfg_path, "--data", str(data), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode in (1, 2)
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert str(data) in line and "line 1202" in line and bad in line

    def test_unknown_argument_is_config_error(self, tmp_path):
        assert main(["generate", "--nonsense"]) == 1

    def test_white_noise_csv_treats_all_channels_as_full_rank(self, tmp_path):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((3000, 3))
        data = tmp_path / "white.csv"
        rows = ["t,y1,y2,y3"] + [
            f"{t + 1}," + ",".join(repr(float(v)) for v in y[t]) for t in range(3000)
        ]
        data.write_text("\n".join(rows) + "\n")
        cfg_path = write_config(tmp_path, partition={"max_lag": 4})
        out = tmp_path / "o"
        assert main(["estimate", "--config", cfg_path, "--data", str(data),
                     "--out-dir", str(out)]) == 0
        part = read_json(out / "partition.json")["partition"]
        assert part["l_indices"] == [1, 2, 3]
        decided = read_json(out / "decided_graph.json")["graph"]
        assert len(decided["edges"]) <= 1  # null edges at Bonferroni-corrected alpha


class TestRunExperiment:
    def test_small_run_writes_aggregate_and_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, trials=3, outputs=str(tmp_path / "exp"))
        assert main(["run-experiment", "--config", cfg_path]) == 0
        out = tmp_path / "exp"
        agg = read_json(out / "aggregate.json")["aggregate"]
        assert agg["trials"] == 3 and agg["completed"] == 3
        assert 0.0 <= agg["exact_match_rate"] <= 1.0
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert len(lines) == 2 + 3
        assert (out / "run_info.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, trials=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run-experiment", "--config", cfg_path, "--seed", "5",
                     "--out-dir", str(out_a)]) == 0
        assert main(["run-experiment", "--config", cfg_path, "--seed", "5",
                     "--out-dir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            if name == "run_info.json":  # wall-clock time, documented volatile
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_default_config_result_digests_are_pinned(self, tmp_path):
        # performance work must leave the scientific output bit for bit
        # unchanged; a change that moves these digests has to say why
        import hashlib

        out = tmp_path / "o"
        assert main(["run-experiment", "--seed", "1", "--out-dir", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("aggregate.json", "trials.csv")
        }
        assert digests == {
            "aggregate.json": "319e89b21fd036d9f55c3dffaf45858f5af5de1829a5b2f983ac9b6ac19d15c7",
            "trials.csv": "b425d0f6039efdf0626d4bdceb304b243bf9458449e6b3db18bc4de5b6f446b3",
        }

    def test_fixed_model_result_digests_are_pinned(self, tmp_path):
        # the pin above covers fresh models only; this one covers one model
        # reused across trials (digests taken before the trial loop was staged)
        import hashlib

        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, trials=3, fixed_model=True)
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1", "--out-dir", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("aggregate.json", "trials.csv")
        }
        assert digests == {
            "aggregate.json": "ff02472bc78d9724ae5798865242521c5e1bc3a316fbdf003892bdc04ed16fcf",
            "trials.csv": "a8536e0e76afd2d004406e0c387fa711d79dcf629e2b646f62f25f15d5534575",
        }

    def test_rows_match_trial_by_trial_reference(self, tmp_path, monkeypatch):
        # with no rejections allowed, some trials fail generation; the staged
        # loop must give every other trial the samples and the row that a
        # one-trial-at-a-time pipeline gives it, and fail the rest alike
        simulated = []

        def recording(*args, **kwargs):
            simulated.extend(simulate_accepted(*args, **kwargs))
            return simulated

        monkeypatch.setattr(lrdnet.cli, "simulate_accepted", recording)
        cfg_path = write_config(tmp_path, trials=6, generator={"max_rejections": 0})
        out = tmp_path / "o"
        assert main(["run-experiment", "--config", cfg_path, "--seed", "2", "--out-dir", str(out)]) == 0
        with (out / "trials.csv").open(newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        cfg = load_config(cfg_path)
        accepted = iter(simulated)
        for trial, row in enumerate(rows):
            seed = derive_seed(2, trial, 1)
            assert (row["trial"], row["seed"]) == (str(trial), str(seed))
            gcfg = GeneratorConfig.from_dict({**cfg["generator"], "rng_seed": derive_seed(2, trial, 0)})
            try:
                model = random_model(gcfg)
            except GenerationFailed as exc:
                assert row["error"] == f"GenerationFailed: {exc}"
                assert not row["precision"]
                continue
            ts = simulate(model, num_samples=200, burn_in=500, seed=seed)
            assert np.array_equal(next(accepted).data, ts.data)
            decided = decide_graph(estimate_h(ts, order=2), estimate_s(ts, order=2), alpha=0.01, correction="bonferroni")
            metrics = compare_graphs(decided, true_graph(model))
            expected = {
                "exact_match": int(metrics.exact_match),
                "precision": metrics.precision,
                "recall": metrics.recall,
                "true_positives": metrics.true_positives,
                "false_positives": metrics.false_positives,
                "false_negatives": metrics.false_negatives,
                "error": "",
            }
            assert {key: row[key] for key in expected} == {key: str(value) for key, value in expected.items()}
        assert 0 < len(simulated) < len(rows)
        assert next(accepted, None) is None

    def test_fixed_model_mode_runs_and_differs_from_fresh(self, tmp_path):
        out_a, out_b = tmp_path / "fixed", tmp_path / "fresh"
        cfg_a = write_config(tmp_path, trials=2, fixed_model=True)
        assert main(["run-experiment", "--config", cfg_a, "--seed", "9",
                     "--out-dir", str(out_a)]) == 0
        cfg_b = write_config(tmp_path, trials=2, fixed_model=False)
        assert main(["run-experiment", "--config", cfg_b, "--seed", "9",
                     "--out-dir", str(out_b)]) == 0
        agg = read_json(out_a / "aggregate.json")["aggregate"]
        assert agg["completed"] == 2
        assert (out_a / "trials.csv").read_text() != (out_b / "trials.csv").read_text()

    def test_format_flag_restricts_graph_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["generate", "--seed", "4", "--out-dir", str(out),
                     "--format", "dot"]) == 0
        assert (out / "true_graph.dot").exists()
        assert not (out / "true_graph.json").exists()
        assert (out / "model.json").exists()  # the model itself is not a graph artifact

    def test_trial_override_and_seed_change_results(self, tmp_path):
        cfg_path = write_config(tmp_path, trials=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1",
                     "--trials", "1", "--out-dir", str(out_a)]) == 0
        assert main(["run-experiment", "--config", cfg_path, "--seed", "2",
                     "--trials", "1", "--out-dir", str(out_b)]) == 0
        rows_a = (out_a / "trials.csv").read_text()
        rows_b = (out_b / "trials.csv").read_text()
        assert rows_a != rows_b
