"""Command-line pipeline: file round trips, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdnet
import lrdnet.cli

from lrdnet.cli import (
    config_hash,
    default_experiment_config,
    derive_seed,
    load_config,
    main,
)
from lrdnet.errors import GenerationFailed, InsufficientData
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


def write_data_csv(path, y):
    rows = ["t," + ",".join(f"y{j + 1}" for j in range(y.shape[1]))]
    rows += [f"{t + 1}," + ",".join(repr(float(v)) for v in y[t]) for t in range(y.shape[0])]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
            ({"decision": {"alpha": "x"}}, "decision.alpha"),
            ({"decision": {"alpha": 2}}, "decision.alpha"),
            ({"decision": {"alpha": 0}}, "decision.alpha"),
            ({"decision": {"zero_tol": "x"}}, "decision.zero_tol"),
            ({"decision": {"zero_tol": -1}}, "decision.zero_tol"),
            ({"decision": {"zero_tol": float("nan")}}, "decision.zero_tol"),
            ({"partition": {"rank_tol": "x"}}, "partition.rank_tol"),
            ({"partition": {"rank_tol": 1}}, "partition.rank_tol"),
            ({"partition": {"max_lag": "x"}}, "partition.max_lag"),
            ({"partition": {"max_lag": -1}}, "partition.max_lag"),
            ({"partition": {"max_lag": 2.5}}, "partition.max_lag"),
            ({"outputs": 5}, "outputs"),
            ({"outputs": ["a"]}, "outputs"),
            ({"outputs": None}, "outputs"),
            ({"generator": {"sigma_l": [0, 1, 1, 1]}}, "sigma_l"),
            ({"generator": {"sigma_l": [1, -1, 1, 1]}}, "sigma_l"),
            ({"generator": {"sigma_l": [1, 1, float("inf"), 1]}}, "sigma_l"),
            ({"generator": {"sigma_l": [1, 1, 1, float("nan")]}}, "sigma_l"),
            ({"generator": {"sigma_l": [1, 1]}}, "sigma_l must have length 4"),
            ({"fixed_model": "false"}, "fixed_model"),
            ({"fixed_model": 1}, "fixed_model"),
            ({"generator": {"lag0_offdiag": "false"}}, "generator.lag0_offdiag"),
            ({"generator": {"lag0_offdiag": None}}, "generator.lag0_offdiag"),
            # sizes numpy refuses at once (PiB); a size in the GB range may be
            # allocated lazily and then fill memory, so none is tested
            ({"sim": {"num_samples": 10**15}}, "Unable to allocate"),
            ({"generator": {"degree_l": 10**14}}, "Unable to allocate"),
        ],
    )
    @pytest.mark.one_thread
    def test_malformed_config_is_one_line_error(self, tmp_path, override, message):
        path = write_config(tmp_path, **override)
        proc = run_cli("run-experiment", "--trials", "2", "--config", path, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("config error:") and message in line

    def test_output_directory_under_a_file_is_config_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        assert main(["run-experiment", "--trials", "1", "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith(f"config error: cannot create output directory {out}:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--data", "d.csv", "--seed", "1"],
            ["decide", "--model", "m.json", "--seed", "1"],
            ["compare", "--estimated", "e.json", "--truth", "t.json", "--seed", "1"],
            ["simulate", "--model", "m.json", "--format", "json"],
            ["compare", "--estimated", "e.json", "--truth", "t.json", "--format", "json"],
            ["run-experiment", "--format", "json"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out-dir", str(out)]) == 1
        line = capsys.readouterr().err.strip().splitlines()[-1]
        assert line == f"config error: unrecognized arguments: {' '.join(argv[-2:])}"
        assert not out.exists()

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

    @pytest.mark.one_thread
    def test_truncated_csv_is_clean_numerical_error(self, tmp_path):
        data = tmp_path / "tiny.csv"
        rows = ["t,y1,y2,y3"] + [f"{t},0.1,0.2,0.3" for t in range(1, 31)]
        data.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--data", str(data), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "cell, bad",
        [
            ("nan", "non-finite value"),
            (None, "4 cells, header has 5"),
            ("abc", "could not convert"),
            pytest.param("1" * 131073, "field larger than field limit", id="1x131073-field limit"),
        ],
    )
    @pytest.mark.one_thread
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

    @pytest.mark.one_thread
    def test_overflowing_csv_is_clean_numerical_error(self, tmp_path):
        # finite values whose products overflow must stop the fits with one
        # line, not reach LAPACK as inf and nan
        y = np.random.default_rng(0).standard_normal((1000, 6)) * 1e300
        data = write_data_csv(tmp_path / "huge.csv", y)
        proc = run_cli("estimate", "--data", data, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("numerical failure:")

    @pytest.mark.parametrize(
        "command, name, content, code",
        [
            ("estimate", "data.csv.meta.json", "{bad", 1),
            ("estimate", "data.csv.meta.json", '{"seed": "x"}', 1),
            ("estimate", "data.csv.meta.json", "[1, 2]", 1),
            ("simulate", "model.json", '{"m": 1}', 1),
            ("decide", "model.json", '{"m": 1}', 1),
            ("compare", "graph.json", '{"graph": {"num_nodes": 3}}', 1),
            ("compare", "graph.json", '{"num_nodes": 1e400, "m": 1, "edges": []}', 1),
            ("compare", "graph.json", '{"num_nodes": 2, "m": 1, "edges": []}', 1),
            ("estimate", "data.csv", "t\n1\n2\n", 2),
            ("estimate", "o", "", 1),  # a file where the output directory goes
        ],
    )
    @pytest.mark.one_thread
    def test_malformed_input_file_is_one_line_error(self, tmp_path, command, name, content, code):
        write_data_csv(tmp_path / "data.csv", np.ones((3, 2)))
        (tmp_path / "truth.json").write_text(json.dumps({"graph": {"num_nodes": 3, "m": 1, "edges": []}}))
        (tmp_path / name).write_text(content)
        inputs = {
            "estimate": ["--data", "data.csv"],
            "simulate": ["--model", "model.json"],
            "decide": ["--model", "model.json"],
            "compare": ["--estimated", "graph.json", "--truth", "truth.json"],
        }[command]
        args = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in inputs]
        proc = run_cli(command, *args, "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("config error:" if code == 1 else "numerical failure:")
        assert str(tmp_path / name) in line

    def test_order_too_high_for_both_fits_reports_the_larger_budget(self, tmp_path, capsys):
        # both filters come from one design, so the sample budget is checked
        # once, for the deterministic-block fit's l*(p+1) = 2*701 regressors
        rng = np.random.default_rng(11)
        e = rng.standard_normal((2001, 2))
        y = np.column_stack([e[1:, 0], e[1:, 1], e[:-1, 0] + 0.5 * e[1:, 1]])
        data = write_data_csv(tmp_path / "data.csv", y)
        cfg_path = write_config(tmp_path, partition={"max_lag": 2}, estimation={"order_p": 700})
        assert main(["estimate", "--config", cfg_path, "--data", data, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: InsufficientData: 2000 samples cannot support order 700 with 1402 regressors\n"
        )

    def test_import_leaves_scipy_stats_unloaded(self):
        # the F tail comes from scipy.special, so no process pays for
        # importing scipy.stats
        src = str(Path(lrdnet.__file__).resolve().parents[1])
        code = "import sys, lrdnet, lrdnet.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_unknown_argument_is_config_error(self, tmp_path):
        assert main(["generate", "--nonsense"]) == 1

    @pytest.mark.one_thread
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


# a cell far longer than any sample: below, at and above csv.reader's
# 131072-character field limit, as a number float reads or as junk
long_cells = st.builds(
    lambda form, size: form(size),
    st.sampled_from([
        lambda n: "0" * (n - 3) + "1.5",
        lambda n: " " * (n - 5) + "0.5  ",
        lambda n: "1" * n,
        lambda n: "x" * n,
    ]),
    st.sampled_from([1000, 131072, 131073, 200000]),
)


@st.composite
def estimate_inputs(draw):
    """CSV text of white noise with one very long cell and a few faults
    (junk, missing or extra cells, comment or blank lines), with LF or CRLF
    line ends."""
    rows, width = draw(st.integers(0, 60)), draw(st.integers(1, 4))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, width))
    table = [["t", *(f"y{j}" for j in range(1, width + 1))]]
    table += [[str(t + 1), *map(repr, y[t].tolist())] for t in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(table) - 1))
        fault = draw(st.sampled_from(["junk", "drop", "extra", "comment", "blank"]))
        if fault == "junk":
            cell = draw(st.integers(0, len(table[row]) - 1))
            table[row][cell] = draw(st.sampled_from(["abc", "", "nan", '"1,5"', " 2 ", "1e999"]))
        elif fault == "drop":
            table[row] = table[row][:-1] or [""]
        elif fault == "extra":
            table[row].append("0.5")
        else:
            table.insert(row, ["#" if fault == "comment" else ""])
    row = draw(st.integers(0, len(table) - 1))
    table[row][draw(st.integers(0, len(table[row]) - 1))] = draw(long_cells)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(",".join(cells) for cells in table) + end


class TestFuzz:
    @pytest.mark.one_thread
    @settings(max_examples=60, deadline=None)
    @given(text=estimate_inputs())
    def test_estimate_on_generated_csv_ends_in_an_exit_code(self, text):
        with tempfile.TemporaryDirectory() as folder:
            data = Path(folder) / "data.csv"
            data.write_text(text, newline="")
            cfg_path = write_config(Path(folder), partition={"max_lag": 2})
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["estimate", "--config", cfg_path, "--data", str(data), "--out-dir", str(Path(folder) / "o")])
        assert code in (0, 1, 2)
        # a warning would reach stderr in a real process
        assert not caught, [str(w.message) for w in caught]
        assert len(err.getvalue().splitlines()) == (code != 0)
        if "field larger than field limit" in err.getvalue():
            assert code == 2 and str(data) in err.getvalue()

    def test_parser_error_then_valid_call_behave_as_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process; an error must leave nothing
        # behind that a later call in the same process would see
        out = tmp_path / "o"
        calls = [["estimate", "--format", "xml"], ["generate", "--seed", "2", "--format", "dot", "--out-dir", str(out)]]
        in_process = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        shutil.rmtree(out)
        fresh = [(proc.returncode, proc.stdout, proc.stderr) for proc in (run_cli(*argv) for argv in calls)]
        assert in_process == fresh
        assert in_process[0][0] == 1 and in_process[1][0] == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == files


UNLABELED24 = {
    "generator": {"m": 16, "l": 8, "support_ml": 36, "support_l": 12},
    "sim": {"num_samples": 1000},
    "partition": {"max_lag": 3},
}


@pytest.mark.one_thread
class TestPinnedOutputs:
    # digests taken before both filters were read off one lagged design and
    # one SVD; only roundoff-robust outputs (decisions, partitions, counts)
    # are pinned, so another BLAS build gives the same bytes

    def blind_data(self, tmp_path, seed):
        """generate --seed seed, then simulate --seed seed + 100; the config
        and the sample CSV's path."""
        cfg_path = write_config(tmp_path, **UNLABELED24)
        out = str(tmp_path / "o")
        assert main(["generate", "--config", cfg_path, "--seed", str(seed), "--out-dir", out]) == 0
        assert main(["simulate", "--config", cfg_path, "--model", f"{out}/model.json",
                     "--seed", str(seed + 100), "--out-dir", out]) == 0
        return cfg_path, f"{out}/data.csv"

    def blind_pipeline(self, tmp_path, seed):
        cfg_path, data = self.blind_data(tmp_path, seed)
        return main(["estimate", "--config", cfg_path, "--data", data, "--out-dir", str(tmp_path / "o")])

    def test_blind_sample_csv_is_pinned(self, tmp_path):
        # digest taken when csv.writer still wrote the sample file
        _, data = self.blind_data(tmp_path, 3)
        assert sha256(data) == "44a26e9649e513fd4d62a592f1b36c831b91517a153562bf07ae10120d31f1a1"

    def test_blind_estimate_is_pinned(self, tmp_path):
        # pick and digests taken when the partition pick became one pivoted
        # pass over the innovations
        assert self.blind_pipeline(tmp_path, 3) == 0
        out = tmp_path / "o"
        assert read_json(out / "partition.json")["partition"]["l_indices"] == [9, 17, 19, 20, 21, 22, 23, 24]
        assert {name: sha256(out / name) for name in ("decided_graph.json", "decided_graph.dot", "decided_graph.csv")} == {
            "decided_graph.json": "a1aa0b0cf3d200099cb757d3d0343e5971fc605f432231cdd38ec15d34407bed",
            "decided_graph.dot": "e7dec0fb0e50bf8f08596d278c2ff8d65824fedc5302ed66ff8e59caa9de69e5",
            "decided_graph.csv": "9f44ce49f3c1f81469fc4bf2fc664032eda2a8195f7fbcffbd892bac4f7626cf",
        }

    def test_blind_estimate_refusal_is_pinned(self, tmp_path, capsys):
        # seed 14 is the lowest generator seed of this shape that still refuses
        assert self.blind_pipeline(tmp_path, 14) == 2
        assert capsys.readouterr().err == (
            "numerical failure: AmbiguousRank: lags 0..3 of the 8 pivoted channels do not "
            "explain the rest (worst ratio 2.977e-02 >= 1.0e-04)\n"
        )

    def test_wide_run_experiment_is_pinned(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            generator={"m": 48, "l": 24, "support_ml": 108, "support_l": 36},
            sim={"num_samples": 4000},
            fixed_model=True,
            trials=2,
        )
        out = tmp_path / "o"
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1", "--out-dir", str(out)]) == 0
        assert {name: sha256(out / name) for name in ("aggregate.json", "trials.csv")} == {
            "aggregate.json": "aa95d9573a51070ea7b7ce1034625a5107bb8153399c91da9f3a30a00e2851ea",
            "trials.csv": "6abedb1548a3fcc48cd9b8397d467d34d755e89402aa700a848684ae93205b37",
        }


# result digests of run-experiment with the default config and --seed 1
DEFAULT_CONFIG_DIGESTS = {
    "aggregate.json": "633aa7836747496fbffe2a9f6198af09f0eb458842111cb423c49459a00762e2",
    "trials.csv": "e0a4661fb171e8efdb9a57afd023362ba7a9c5a1ac0b61f1548462d877cc1204",
}
# the same with the former default draw budget, max_rejections 500, set in
# the config: the digests pinned while it was the default
BUDGET_500_DIGESTS = {
    "aggregate.json": "319e89b21fd036d9f55c3dffaf45858f5af5de1829a5b2f983ac9b6ac19d15c7",
    "trials.csv": "b425d0f6039efdf0626d4bdceb304b243bf9458449e6b3db18bc4de5b6f446b3",
}


def read_rows(path):
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


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

    @pytest.mark.one_thread
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
        assert digests == DEFAULT_CONFIG_DIGESTS

    @pytest.mark.one_thread
    def test_former_default_budget_keeps_its_digests(self, tmp_path):
        # raising the default budget changes config_hash and nothing else
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, generator={"max_rejections": 500})
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1", "--out-dir", str(out)]) == 0
        assert {name: sha256(out / name) for name in BUDGET_500_DIGESTS} == BUDGET_500_DIGESTS

    @pytest.mark.one_thread
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
            "aggregate.json": "1cfbcda8f3c4c68ac156644e233265c35c215324372f888cd15f829a139f14e2",
            "trials.csv": "4e674740ec51e5b57d2a218148f3e9d00bcc7792ad958d3a4f99c17fee5877fe",
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

    def test_run_info_records_stage_seconds(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run-experiment", "--seed", "1", "--out-dir", str(out)]) == 0
        info = read_json(out / "run_info.json")
        assert set(info) == {"generator_draws", "runtime_seconds", "stage_seconds"}
        assert info["generator_draws"] >= 20
        stages = info["stage_seconds"]
        assert set(stages) == {"generate", "simulate", "fit", "decide", "score"}
        assert all(seconds >= 0 for seconds in stages.values())
        assert sum(stages.values()) == pytest.approx(info["runtime_seconds"], rel=1e-9)
        # the wall-clock record stays out of the result tree
        assert {name: sha256(out / name) for name in DEFAULT_CONFIG_DIGESTS} == DEFAULT_CONFIG_DIGESTS

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_fixed_model_generation_failure_gives_error_rows(self, tmp_path, seed):
        cfg_path = write_config(tmp_path, generator={"max_rejections": 0}, fixed_model=True, trials=3)
        out = tmp_path / "o"
        assert main(["run-experiment", "--config", cfg_path, "--seed", str(seed), "--out-dir", str(out)]) == 0
        gcfg = GeneratorConfig.from_dict({**load_config(cfg_path)["generator"], "rng_seed": derive_seed(seed, 0, 0)})
        with pytest.raises(GenerationFailed) as failed:
            random_model(gcfg)
        rows = read_rows(out / "trials.csv")
        assert [(row["trial"], row["seed"]) for row in rows] == [(str(t), str(derive_seed(seed, t, 1))) for t in range(3)]
        assert all(row["error"] == f"GenerationFailed: {failed.value}" and not row["precision"] for row in rows)
        agg = read_json(out / "aggregate.json")["aggregate"]
        assert (agg["completed"], agg["failures"]) == (0, 3)

    def test_fit_and_decide_failures_stay_in_their_trial(self, tmp_path, monkeypatch):
        # trial 1's fit fails and trial 3's estimate cannot be tested; every
        # other row is the row of an undisturbed run
        cfg_path = write_config(tmp_path, trials=5)
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1", "--out-dir", str(tmp_path / "a")]) == 0
        fit = lrdnet.cli.estimate_filters
        calls = []

        def disturbed(ts, **kwargs):
            calls.append(ts)
            if len(calls) == 2:
                raise InsufficientData("forced")
            h_est, s_est = fit(ts, **kwargs)
            if len(calls) == 4:
                s_est.gram_blocks[0, 1] = 0.0
            return h_est, s_est

        monkeypatch.setattr(lrdnet.cli, "estimate_filters", disturbed)
        assert main(["run-experiment", "--config", cfg_path, "--seed", "1", "--out-dir", str(tmp_path / "b")]) == 0
        undisturbed, rows = read_rows(tmp_path / "a" / "trials.csv"), read_rows(tmp_path / "b" / "trials.csv")
        assert rows[1]["error"] == "InsufficientData: forced"
        assert rows[3]["error"].startswith("DegenerateRestriction: group (9, 10) Gram-inverse block is singular")
        assert not rows[1]["precision"] and not rows[3]["precision"]
        assert [rows[t] for t in (0, 2, 4)] == [undisturbed[t] for t in (0, 2, 4)]
        assert all(not undisturbed[t]["error"] for t in range(5))

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_numpy_fit_failure_stays_in_its_trial(self, tmp_path, monkeypatch, error):
        # a numpy failure in trial 2's fit is that trial's error row, not exit 2
        cfg_path = write_config(tmp_path, trials=4)
        assert main(["run-experiment", "--config", cfg_path, "--seed", "2", "--out-dir", str(tmp_path / "a")]) == 0
        fit = lrdnet.cli.estimate_filters
        calls = []

        def disturbed(ts, **kwargs):
            calls.append(ts)
            if len(calls) == 3:
                raise error("forced")
            return fit(ts, **kwargs)

        monkeypatch.setattr(lrdnet.cli, "estimate_filters", disturbed)
        assert main(["run-experiment", "--config", cfg_path, "--seed", "2", "--out-dir", str(tmp_path / "b")]) == 0
        undisturbed, rows = read_rows(tmp_path / "a" / "trials.csv"), read_rows(tmp_path / "b" / "trials.csv")
        assert rows[2]["error"] == f"{error.__name__}: forced" and not rows[2]["precision"]
        assert [rows[t] for t in (0, 1, 3)] == [undisturbed[t] for t in (0, 1, 3)]
        assert read_json(tmp_path / "b" / "aggregate.json")["aggregate"]["failures"] == 1

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
