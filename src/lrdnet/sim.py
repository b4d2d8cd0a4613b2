"""Sampled trajectories of a network's output process.

Generation is deterministic in the seed: innovations are drawn in one block
from ``numpy.random.default_rng(seed)`` (PCG64), so the recursion route and
the stacked-transfer route consume identical noise streams for the same seed.

The recursion route has one implementation, :func:`simulate_accepted`, which
runs the recursions of many already validated models in lock-step (the
Monte-Carlo loop of ``run-experiment`` hands it every trial at once). A
model's samples are the same bits whether it runs alone or in a batch;
:func:`simulate` validates one model and runs it as a batch of one.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InsufficientData
from .model import LrdnModel, require_valid
from .polymat import PolynomialMatrix, companion

RNG_ALGORITHM = "numpy-default-pcg64"
DEFAULT_BURN_IN = 500


@dataclass(frozen=True)
class TimeSeries:
    """T x (m + l) sample matrix; columns 1..m are the deterministic block,
    columns m+1..m+l the full-rank block. ``seed`` is 0 for external data."""

    data: np.ndarray
    m: int
    l: int
    seed: int = 0

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("data must be a nonempty 2-d array")
        if arr.shape[1] != self.m + self.l:
            raise ValueError(f"data has {arr.shape[1]} columns, expected m + l = {self.m + self.l}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def num_samples(self) -> int:
        return self.data.shape[0]

    @property
    def y_m(self) -> np.ndarray:
        return self.data[:, : self.m]

    @property
    def y_l(self) -> np.ndarray:
        return self.data[:, self.m :]


def _noise(rng, total: int, sigma: np.ndarray) -> np.ndarray:
    return rng.standard_normal((total, sigma.size)) * np.sqrt(sigma)


def _apply_fir(tf: PolynomialMatrix, inputs: np.ndarray) -> np.ndarray:
    """out[t] = sum_k C_k inputs[t-k], zero-padded before t = 0."""
    total = inputs.shape[0]
    out = np.zeros((total, tf.rows))
    for k in range(tf.degree + 1):
        ck = tf.coeffs[k]
        if not ck.any():
            continue
        if k == 0:
            out += inputs @ ck.T
        else:
            out[k:] += inputs[:-k] @ ck.T
    return out


def simulate(
    model: LrdnModel,
    num_samples: int,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> TimeSeries:
    """Run the defining recursion with zero pre-history and drop the burn-in.

    The full-rank block evolves as
    y_l(t) = (I - G_0)^-1 [w(t) + sum_{k>=1} G_k y_l(t-k)], and the
    deterministic block is the FIR readout of y_l, computed with the
    pre-burn-in history available so the retained window has no edge effects.

    The model is validated first (:func:`model.require_valid`); the recursion
    itself is :func:`simulate_accepted` on a batch of one.
    """
    require_valid(model)
    return simulate_accepted([model], num_samples, burn_in, [seed])[0]


def simulate_accepted(
    models: Sequence[LrdnModel],
    num_samples: int,
    burn_in: int,
    seeds: Sequence[int],
) -> list[TimeSeries]:
    """Simulate every model with its own seed; one TimeSeries per model, in order.

    Precondition: every model has passed :func:`model.validate` with the
    default arguments, as every model that :func:`model.random_models` draws
    has. The models are not validated again.

    Each model draws its noise w from ``default_rng(seed)`` and forms
    u = w (I - G_0)^-T once. The recursion runs in companion form: each step
    adds one mat-vec of the top block row of :func:`polymat.companion` (lags
    reordered oldest first) with the zero-padded history window
    y_l(t-d), ..., y_l(t-1). Models with the same l and companion degree d
    run in lock-step, one stacked ``np.matmul`` per step over the group. The
    stack performs each model's mat-vec as a batch of one would, so a
    model's samples do not depend on the other models in the call. A
    degree-0 g_l needs no loop. The FIR readout and the burn-in cut are per
    model.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if len(seeds) != len(models):
        raise ValueError(f"{len(models)} models but {len(seeds)} seeds")
    total = burn_in + num_samples

    groups: dict[tuple[int, int], list[int]] = {}
    lead_invs, top_rows = [], []
    for i, model in enumerate(models):
        lead_inv, comp = companion(PolynomialMatrix.identity(model.l) - model.g_l)
        lead_invs.append(lead_inv)
        top_rows.append(comp[: model.l])  # (I - G_0)^-1 [G_1 ... G_d]
        groups.setdefault((model.l, comp.shape[0] // model.l), []).append(i)

    out = [None] * len(models)
    for (l, deg), members in groups.items():
        n = len(members)
        ypad = np.zeros((n, deg + total, l))
        for k, i in enumerate(members):
            w = _noise(np.random.default_rng(seeds[i]), total, models[i].sigma_l)
            ypad[k, deg:] = w @ lead_invs[i].T
        if deg:
            # regrouped as [G_d ... G_1]. Regrouping the stack keeps each
            # model's memory layout as regrouping it alone would: at l = 1 a
            # reversed view, which numpy multiplies without BLAS. The layout
            # picks the summation order, so it keeps the samples' bits.
            stacked = np.stack([top_rows[i] for i in members])
            top = stacked.reshape(n, l, deg, l)[:, :, ::-1].reshape(n, l, deg * l)
            # window[t]: every model's history y_l(t-d), ..., y_l(t-1) as a
            # (d l, 1) column, read in place; nxt[t]: every model's y_l(t)
            s_model, s_time, s_item = ypad.strides
            window = as_strided(ypad, (total, n, deg * l, 1), (s_time, s_model, s_item, s_item), writeable=False)
            nxt = ypad[:, deg:].transpose(1, 0, 2)[..., None]
            for t in range(total):
                nxt[t] += top @ window[t]
        for k, i in enumerate(members):
            y_l = ypad[k, deg:]
            y_m = _apply_fir(models[i].g_ml, y_l)
            data = np.hstack([y_m[burn_in:], y_l[burn_in:]])
            out[i] = TimeSeries(data=data, m=models[i].m, l=l, seed=seeds[i])
    return out


def simulate_from_factor(
    full_transfer: PolynomialMatrix,
    sigma: np.ndarray,
    num_samples: int,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> TimeSeries:
    """Generate directly through the stacked innovation-to-output transfer.

    The last len(sigma) rows of the transfer are taken as the full-rank block.
    """
    sigma = np.asarray(sigma, dtype=float)
    l = sigma.size
    if full_transfer.cols != l:
        raise ValueError(
            f"transfer has {full_transfer.cols} inputs but sigma has length {l}"
        )
    if full_transfer.rows < l:
        raise ValueError("transfer must include the full-rank block rows")
    if (sigma <= 0).any():
        raise ValueError("sigma entries must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = np.random.default_rng(seed)
    total = burn_in + num_samples
    e = _noise(rng, total, sigma)
    y = _apply_fir(full_transfer, e)
    return TimeSeries(data=y[burn_in:], m=full_transfer.rows - l, l=l, seed=seed)


# -- CSV round trip -----------------------------------------------------


def write_csv(ts: TimeSeries, path, metadata: dict | None = None) -> Path:
    """Write samples as CSV plus a metadata sidecar <path>.meta.json.

    The header is ``t,y1,...,yn`` and each row is the 1-based sample index
    followed by ``repr`` of every sample, so the file reads back to the same
    bits. Lines end in CRLF. The bytes are those that ``csv.writer`` writes
    for the same cells: no cell holds a delimiter, quote or line break, so
    none is quoted.
    """
    path = Path(path)
    n = ts.m + ts.l
    lines = [",".join(["t", *(f"y{j}" for j in range(1, n + 1))])]
    lines += [",".join(map(repr, [t, *row])) for t, row in enumerate(ts.data.tolist(), 1)]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    meta = {
        "m": ts.m,
        "l": ts.l,
        "T": ts.num_samples,
        "seed": ts.seed,
        "rng": RNG_ALGORITHM,
    }
    if metadata:
        meta.update(metadata)
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return sidecar


def read_csv(path) -> tuple[np.ndarray, dict | None]:
    """Load a sample matrix; returns (array, sidecar metadata or None).

    The header must hold 't' and at least one channel, every data row as
    many cells as the header, and every sample cell a finite number;
    otherwise :class:`InsufficientData` names the file and line. Lines
    starting with '#' and blank lines are skipped. Cells are split by
    ``csv.reader`` (so quoted cells are read) and converted with ``float``,
    which allows surrounding whitespace. Of several faults the first in file
    order is reported, except that non-finite values are looked for only
    once every row has been read. A sidecar that is not a JSON object raises
    ValueError naming the sidecar.
    """
    path = Path(path)
    line = 0  # file line of the last line handed to the CSV reader, for messages

    def data_lines(fh):
        nonlocal line
        for line, text in enumerate(fh, 1):
            if not text.startswith("#"):
                yield text

    # one structural pass up to the first fault in the file's structure;
    # the sample cells read before it are converted in one call below
    cells, numbers, fault = [], [], None
    with path.open(newline="") as fh:
        reader = csv.reader(data_lines(fh))
        try:
            header = next(reader, None)
            if not header or header[0].strip() != "t":
                raise InsufficientData(f"{path} is not a sample CSV (missing 't' header)")
            if len(header) < 2:
                raise InsufficientData(f"{path} has no sample columns, only 't'")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    fault = f"{len(row)} cells, header has {len(header)}"
                    break
                cells += row[1:]
                numbers.append(line)
        except csv.Error as exc:  # a cell over the reader's size limit; before Python 3.11, a NUL
            fault = str(exc)
    try:
        data = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError as exc:
                raise InsufficientData(f"{path}, line {numbers[i // (len(header) - 1)]}: {exc}") from None
    if fault is not None:
        raise InsufficientData(f"{path}, line {line}: {fault}")
    if not numbers:
        raise InsufficientData(f"{path} contains no samples")
    data = data.reshape(len(numbers), len(header) - 1)
    finite = np.isfinite(data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise InsufficientData(f"{path}, line {numbers[r]}: non-finite value in column {header[c + 1]!r}")
    sidecar = path.with_name(path.name + ".meta.json")
    if not sidecar.exists():
        return data, None
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise ValueError(f"cannot read sidecar {sidecar}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar} must hold a JSON object")
    return data, meta
