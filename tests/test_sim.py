"""Trajectory generation: distributional checks, determinism, CSV round trip."""

import csv
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_config
from lrdnet.errors import InsufficientData
from lrdnet.model import LrdnModel, random_model, reduced_form
from lrdnet.polymat import PolynomialMatrix, companion, vstack
from lrdnet.sim import (
    TimeSeries,
    _apply_fir,
    read_csv,
    simulate,
    simulate_accepted,
    simulate_from_factor,
    timeseries_from_csv,
    write_csv,
)
from test_model import ar1_model


def white_model(m=2, l=2):
    return LrdnModel(
        m=m,
        l=l,
        g_ml=PolynomialMatrix.zeros(m, l),
        g_l=PolynomialMatrix.zeros(l, l),
        sigma_l=np.ones(l),
    )


def per_step_recursion(model, num_samples, burn_in, seed):
    """Reference: the defining recursion one lag at a time,
    y_l(t) = (I - G_0)^-1 [w(t) + sum_{k=1..min(d, t)} G_k y_l(t-k)]."""
    rng = np.random.default_rng(seed)
    total = burn_in + num_samples
    w = rng.standard_normal((total, model.l)) * np.sqrt(model.sigma_l)
    g = model.g_l.coeffs
    lead_inv = np.linalg.inv(np.eye(model.l) - g[0])
    y_l = np.zeros((total, model.l))
    for t in range(total):
        acc = w[t].copy()
        for k in range(1, min(model.g_l.degree, t) + 1):
            acc += g[k] @ y_l[t - k]
        y_l[t] = lead_inv @ acc
    return np.hstack([_apply_fir(model.g_ml, y_l), y_l])[burn_in:]


def stable_model(m, l, degree, scale, lag0_offdiag, seed):
    """Random model whose rows of sum_k |G_k| sum to at most scale < 1, so
    the recursion is stable; G_0 has a zero diagonal and, unless
    ``lag0_offdiag``, is zero."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, (degree + 1, l, l)) * scale / (l * (degree + 1))
    if not lag0_offdiag:
        g[0] = 0.0
    np.fill_diagonal(g[0], 0.0)
    return LrdnModel(
        m=m,
        l=l,
        g_ml=PolynomialMatrix(rng.standard_normal((3, m, l))),
        g_l=PolynomialMatrix(g),
        sigma_l=rng.uniform(0.5, 2.0, l),
    )


def companion_loop(model, num_samples, burn_in, seed):
    """Reference: the companion-form recursion of one model on its own, one
    (l, d l) @ (d l,) mat-vec per step. The batched recursion must match it
    bit for bit, so run-experiment results do not depend on the batching."""
    rng = np.random.default_rng(seed)
    total = burn_in + num_samples
    w = rng.standard_normal((total, model.l)) * np.sqrt(model.sigma_l)
    l = model.l
    lead_inv, comp = companion(PolynomialMatrix.identity(l) - model.g_l)
    deg = comp.shape[0] // l
    ypad = np.zeros((deg + total, l))
    ypad[deg:] = w @ lead_inv.T
    if deg:
        top = comp[:l].reshape(l, deg, l)[:, ::-1].reshape(l, deg * l)
        for t in range(total):
            ypad[t + deg] += top @ ypad[t : t + deg].ravel()
    y_l = ypad[deg:]
    return np.hstack([_apply_fir(model.g_ml, y_l), y_l])[burn_in:]


MODEL_SPEC = st.tuples(
    st.integers(1, 3),  # m
    st.integers(1, 4),  # l
    st.integers(0, 3),  # degree of g_l
    st.floats(0.1, 0.95),  # scale
    st.booleans(),  # lag0_offdiag
    st.integers(0, 2**32 - 1),  # seed of the model; its noise uses seed + 1
)


class TestCompanionRecursion:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 3),
        l=st.integers(1, 4),
        degree=st.integers(0, 3),
        scale=st.floats(0.1, 0.95),
        lag0_offdiag=st.booleans(),
        num_samples=st.integers(1, 150),
        burn_in=st.one_of(st.just(0), st.integers(1, 80)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_recursion(self, m, l, degree, scale, lag0_offdiag, num_samples, burn_in, seed):
        model = stable_model(m, l, degree, scale, lag0_offdiag, seed)
        ts = simulate(model, num_samples=num_samples, burn_in=burn_in, seed=seed)
        ref = per_step_recursion(model, num_samples, burn_in, seed)
        assert np.abs(ts.data - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.one_thread
class TestSimulateAccepted:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(MODEL_SPEC, min_size=1, max_size=8),
        num_samples=st.integers(1, 120),
        burn_in=st.one_of(st.just(0), st.integers(1, 60)),
    )
    @example(
        # every l and degree, two degree groups holding two models each, burn_in = 0
        specs=[(1, 1, 0, 0.5, False, 1), (2, 2, 1, 0.9, True, 2), (3, 3, 2, 0.7, True, 3),
               (1, 4, 3, 0.95, False, 4), (2, 2, 1, 0.3, False, 5), (1, 4, 3, 0.6, True, 6)],
        num_samples=50,
        burn_in=0,
    )
    def test_batch_matches_separate_calls(self, specs, num_samples, burn_in):
        # a model's samples do not depend on the other models in the call
        models = [stable_model(*spec) for spec in specs]
        seeds = [spec[-1] + 1 for spec in specs]
        batch = simulate_accepted(models, num_samples, burn_in, seeds)
        assert len(batch) == len(models)
        for model, seed, ts in zip(models, seeds, batch):
            alone = simulate(model, num_samples=num_samples, burn_in=burn_in, seed=seed)
            assert np.array_equal(ts.data, alone.data)
            assert np.array_equal(ts.data, companion_loop(model, num_samples, burn_in, seed))
            assert (ts.m, ts.l, ts.seed) == (model.m, model.l, seed)

    def test_rejects_bad_arguments(self):
        model = white_model()
        with pytest.raises(ValueError):
            simulate_accepted([model], 0, 10, [1])
        with pytest.raises(ValueError):
            simulate_accepted([model], 10, -1, [1])
        with pytest.raises(ValueError):
            simulate_accepted([model, model], 10, 10, [1])

    def test_empty_batch(self):
        assert simulate_accepted([], 10, 10, []) == []


class TestSimulate:
    def test_white_noise_case(self):
        T = 4000
        ts = simulate(white_model(), num_samples=T, seed=1)
        assert not ts.y_m.any()
        cov = ts.y_l.T @ ts.y_l / T
        assert np.abs(cov - np.eye(2)).max() < 4 / np.sqrt(T)

    def test_ar1_stationary_variance(self):
        # AR(1) with a = 0.5 and unit noise has variance 1 / (1 - 0.25)
        ts = simulate(ar1_model(a=0.5), num_samples=10_000, seed=2)
        var = ts.y_l.var()
        assert abs(var - 4.0 / 3.0) < 0.05 * 4.0 / 3.0

    def test_bit_identical_replay(self):
        model = random_model(small_config(seed=4))
        a = simulate(model, num_samples=256, burn_in=100, seed=9)
        b = simulate(model, num_samples=256, burn_in=100, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_deterministic_block_is_exact_fir_of_full_rank_block(self):
        # the defining relation holds samplewise, not just in law
        model = random_model(small_config(seed=5))
        ts = simulate(model, num_samples=3000, burn_in=600, seed=3)
        g = model.g_ml
        p = g.degree
        T = ts.num_samples
        X = np.hstack([
            np.vstack([np.zeros((k, model.l)), ts.y_l[: T - k]]) for k in range(p + 1)
        ])
        beta, *_ = np.linalg.lstsq(X[p:], ts.y_m[p:], rcond=None)
        resid = ts.y_m[p:] - X[p:] @ beta
        assert np.sqrt(np.mean(resid**2)) < 1e-8

    def test_stationarity_proxy_split_means(self):
        model = random_model(small_config(seed=6))
        ts = simulate(model, num_samples=20_000, seed=11)
        half = ts.num_samples // 2
        for j in range(model.m + model.l):
            a = ts.data[:half, j]
            b = ts.data[half:, j]
            se = np.sqrt(a.var() / half + b.var() / half)
            assert abs(a.mean() - b.mean()) < 5 * 3 * se  # 5 SEs with IID-SE inflation margin

    def test_invalid_model_rejected(self):
        from lrdnet.errors import InvalidModel

        with pytest.raises(InvalidModel):
            simulate(ar1_model(a=1.2), num_samples=10)


class TestSimulateFromFactor:
    def test_trivial_stack(self):
        tf = vstack(PolynomialMatrix.zeros(2, 2), PolynomialMatrix.identity(2))
        ts = simulate_from_factor(tf, np.ones(2), num_samples=500, burn_in=0, seed=5)
        assert not ts.y_m.any()
        rng = np.random.default_rng(5)
        expected = rng.standard_normal((500, 2))
        assert np.allclose(ts.y_l, expected)

    def test_ma1_lag_one_autocovariance(self):
        # y(t) = e(t) + e(t-1): lag-1 autocovariance equals 1
        tf = vstack(
            PolynomialMatrix.zeros(1, 1),
            PolynomialMatrix(np.array([[[1.0]], [[1.0]]])),
        )
        ts = simulate_from_factor(tf, np.ones(1), num_samples=10_000, seed=6)
        y = ts.y_l[:, 0]
        acov1 = np.mean(y[1:] * y[:-1])
        assert abs(acov1 - 1.0) < 0.05

    def test_matches_recursion_route(self):
        model = random_model(small_config(seed=8))
        rf = reduced_form(model, horizon=256)
        T, burn = 600, 400
        a = simulate(model, num_samples=T, burn_in=burn, seed=13)
        b = simulate_from_factor(rf.full_transfer, model.sigma_l, num_samples=T, burn_in=burn, seed=13)
        assert np.abs(a.data - b.data).max() < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate_from_factor(PolynomialMatrix.identity(2), np.ones(3), num_samples=10)


def reference_write_csv(ts, path):
    """The sample file as ``csv.writer`` writes it: the reference for the
    bytes of :func:`write_csv` (without the sidecar)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y{j}" for j in range(1, ts.m + ts.l + 1)])
        for t in range(ts.num_samples):
            writer.writerow([t + 1] + [repr(float(v)) for v in ts.data[t]])


def reference_read_csv(path):
    """The sample matrix as ``csv.reader`` and one float list per row read
    it: the reference for the arrays and messages of :func:`read_csv`
    (without the sidecar). A ``csv.Error`` escapes it."""
    path = Path(path)
    line = 0

    def data_lines(fh):
        nonlocal line
        for line, text in enumerate(fh, 1):
            if not text.startswith("#"):
                yield text

    with path.open(newline="") as fh:
        reader = csv.reader(data_lines(fh))
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise InsufficientData(f"{path} is not a sample CSV (missing 't' header)")
        if len(header) < 2:
            raise InsufficientData(f"{path} has no sample columns, only 't'")
        rows, numbers = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise InsufficientData(f"{path}, line {line}: {len(row)} cells, header has {len(header)}")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise InsufficientData(f"{path}, line {line}: {exc}") from None
            numbers.append(line)
    if not rows:
        raise InsufficientData(f"{path} contains no samples")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise InsufficientData(f"{path}, line {numbers[r]}: non-finite value in column {header[c + 1]!r}")
    return data


def read_array(path):
    return read_csv(path)[0]


def read_outcome(read, path):
    """What a reader makes of a file: the array's shape and bits, or the
    refusal's message."""
    try:
        data = read(path)
    except InsufficientData as exc:
        return "refused", str(exc)
    return "read", data.shape, data.tobytes()


# values at the edges of float repr: signed zero, the smallest subnormal,
# both sides of the switches to exponent form at 1e-5 and 1e16, integral
# floats, the largest float and the non-finite ones
REPR_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-06, 1e-4, 1e16, 9999999999999998.0, 1e15,
    3.0, -7.0, 2.0**53, 1e22, 1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
]
sample_values = st.one_of(st.floats(), st.sampled_from(REPR_EDGES), st.integers(-(2**60), 2**60).map(float))


@st.composite
def sample_series(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    values = draw(st.lists(sample_values, min_size=rows * cols, max_size=rows * cols))
    m = draw(st.integers(0, cols))
    return TimeSeries(data=np.array(values, dtype=float).reshape(rows, cols), m=m, l=cols - m)


# CSV text: cells that float reads, with surrounding space or quoted, and
# cells it refuses; lines joined by LF, CRLF or CR, with comments and blanks
csv_cells = st.one_of(
    sample_values.map(repr),
    st.sampled_from(["", " ", "abc", " 0.5 ", "\t-2", '"0.5"', '"1,5"', '"0.5\n"', "1_0", "nan", "-0.0", '"', "\x00"]),
)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = ["t," + ",".join(f"y{j}" for j in range(1, width + 1))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "short", "comment", "blank"]))
        if kind == "comment":
            lines.append("# " + draw(csv_cells))
        elif kind == "blank":
            lines.append("")
        else:
            n = width - (kind == "short")
            lines.append(",".join([str(len(lines)), *draw(st.lists(csv_cells, min_size=n, max_size=n))]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@pytest.mark.one_thread
class TestCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        model = random_model(small_config(seed=10))
        ts = simulate(model, num_samples=64, burn_in=50, seed=21)
        path = tmp_path / "data.csv"
        write_csv(ts, path, metadata={"burn_in": 50, "model_hash": "abc"})
        data, meta = read_csv(path)
        assert np.array_equal(data, ts.data)
        assert meta["m"] == model.m and meta["l"] == model.l
        assert meta["burn_in"] == 50
        assert meta["rng"] == "numpy-default-pcg64"
        back = timeseries_from_csv(path)
        assert np.array_equal(back.data, ts.data)
        assert back.seed == 21

    def test_header_text(self, tmp_path):
        ts = TimeSeries(data=np.zeros((2, 3)), m=1, l=2)
        path = tmp_path / "d.csv"
        write_csv(ts, path)
        assert path.read_text().splitlines()[0] == "t,y1,y2,y3"

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("3,0.5", "2 cells"),
            ("3,0.5,abc", "abc"),
            ("3,nan,0.5", "non-finite"),
            ("3,0.5,inf", "non-finite"),
            pytest.param("3,0.5," + "1" * 131073, "field larger than field limit", id="3,0.5,1x131073-field limit"),
        ],
    )
    def test_bad_rows_rejected_with_line(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text("# comment\nt,y1,y2\n1,0.1,0.2\n\n" + row + "\n")
        with pytest.raises(InsufficientData) as info:
            read_csv(path)
        message = str(info.value)
        assert "\n" not in message
        assert str(path) in message and "line 5" in message and reason in message

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y1\n")
        with pytest.raises(InsufficientData):
            read_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(ts=sample_series())
    @example(ts=TimeSeries(data=np.array([REPR_EDGES[:8], REPR_EDGES[8:16]]), m=3, l=5))
    @example(ts=TimeSeries(data=np.zeros((2, 0)), m=0, l=0))
    def test_file_and_array_match_the_csv_module(self, ts):
        with tempfile.TemporaryDirectory() as folder:
            new, ref = Path(folder) / "new.csv", Path(folder) / "ref.csv"
            write_csv(ts, new)
            reference_write_csv(ts, ref)
            assert new.read_bytes() == ref.read_bytes()
            outcome = read_outcome(read_array, new)
            assert outcome == read_outcome(reference_read_csv, new)
        if ts.data.shape[1] and np.isfinite(ts.data).all():
            assert outcome == ("read", ts.data.shape, ts.data.tobytes())

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("# a\nt,y1,y2\n# b, c\n1,0.5,0.25\n#\n2,1,2\n", id="comments"),
            pytest.param("t,y1,y2\n\n1,0.5,0.25\n\n\n2,1,2\n\n", id="blank lines"),
            pytest.param("\nt,y1\n1,0.5\n", id="blank line before the header"),
            pytest.param("t,y1,y2\n1,0.5,0.25\n2,-0.0,3\n", id="LF"),
            pytest.param("t,y1,y2\r\n1,0.5,0.25\r\n2,-0.0,3\r\n", id="CRLF"),
            pytest.param("t,y1,y2\r1,0.5,0.25\r2,-0.0,3\r", id="CR"),
            pytest.param(" t ,y1,y2\n1, 0.5 ,\t-2 \n", id="spaces around a number"),
            pytest.param('t,y1,y2\n1,"0.5",0.25\n', id="quoted cell"),
            pytest.param('t,y1\n1,"0.5\n"\n2,3\n', id="quoted cell over two lines"),
            pytest.param('t,y1\n1,"1,5"\n', id="quoted comma"),
            pytest.param("t,y1,y2\n1,0.5,0.25\n2,1e-5,1e16", id="no trailing newline"),
            pytest.param("t,y1\nx,1_000\n", id="underscore and a free t cell"),
            pytest.param(
                "t,y1\n1,0.5\x00\n",
                id="NUL",
                marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv.reader refuses NUL before Python 3.11"),
            ),
            pytest.param("t,y1,y2\n1,0.1,nan\n2,0.1\n", id="nan before short row"),
            pytest.param("t,y1,y2\n1,0.1,inf\n2,x,0.2\n", id="inf before bad float"),
            pytest.param("t,y1\n1,0.5,\n", id="long row"),
            pytest.param("t\n1\n", id="no channel"),
            pytest.param("t,y1\n", id="no samples"),
            pytest.param("", id="empty file"),
        ],
    )
    def test_reader_matches_the_csv_module_on_crafted_files(self, tmp_path, text):
        path = tmp_path / "crafted.csv"
        path.write_bytes(text.encode())
        assert read_outcome(read_array, path) == read_outcome(reference_read_csv, path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # a bad float on line 5, then a short row on line 9
        path = tmp_path / "two_faults.csv"
        path.write_text("# c\nt,y1,y2\n1,0.1,0.2\n\n2,abc,0.3\n3,0.1,0.2\n#\n4,0.1,0.2\n5,0.1\n")
        expected = ("refused", f"{path}, line 5: could not convert string to float: 'abc'")
        assert read_outcome(read_array, path) == read_outcome(reference_read_csv, path) == expected

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    def test_reader_matches_the_csv_module_on_generated_files(self, text):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "generated.csv"
            path.write_bytes(text.encode())
            assert read_outcome(read_array, path) == read_outcome(reference_read_csv, path)
