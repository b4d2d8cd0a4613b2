"""Low-rank dynamical network models, their graphs, and random generation.

An :class:`LrdnModel` is the triple (g_ml, g_l, sigma_l) driving

    y_m(t) = g_ml(z) y_l(t)
    y_l(t) = w_l(t) + g_l(z) y_l(t)

with w_l white Gaussian noise of diagonal covariance diag(sigma_l). The
diagonal of the lag-0 coefficient of g_l is identically zero, so no channel
feeds back on its own present value.

:func:`validate` checks a model's standing assumptions. :func:`random_models`
draws test models by rejection sampling, many seeds in lock-step: each round
every pending seed draws one candidate with scalar RNG calls, and the round
is certified by one stacked check (:func:`polymat.stability_certificates`).
``validate`` is that check for one model and :func:`random_model` that draw
for one seed, so each seed gets the model it gets alone, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, InvalidModel
from .polymat import (
    DEFAULT_COND_BOUND,
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    DEFAULT_ZERO_TOL,
    PolynomialMatrix,
    stability_certificates,
    truncated_inverse,
    vstack,
)


@dataclass(frozen=True)
class LrdnModel:
    m: int
    l: int
    g_ml: PolynomialMatrix
    g_l: PolynomialMatrix
    sigma_l: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.l < 1:
            raise ValueError("dimensions m and l must be positive")
        if self.g_ml.shape != (self.m, self.l):
            raise ValueError(f"g_ml shape {self.g_ml.shape} does not match (m, l) = ({self.m}, {self.l})")
        if self.g_l.shape != (self.l, self.l):
            raise ValueError(f"g_l shape {self.g_l.shape} does not match l = {self.l}")
        sigma = np.array(self.sigma_l, dtype=float)
        if sigma.shape != (self.l,):
            raise ValueError(f"sigma_l must have length {self.l}")
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma_l", sigma)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "g_ml": self.g_ml.to_dict(),
            "g_l": self.g_l.to_dict(),
            "sigma_l": self.sigma_l.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LrdnModel":
        return cls(
            m=int(d["m"]),
            l=int(d["l"]),
            g_ml=PolynomialMatrix.from_dict(d["g_ml"]),
            g_l=PolynomialMatrix.from_dict(d["g_l"]),
            sigma_l=np.asarray(d["sigma_l"], dtype=float),
        )


def model_hash(model: LrdnModel) -> str:
    """Short content hash of a model's canonical JSON form."""
    payload = json.dumps(model.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    value: float
    limit: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: value={c.value:.6e} limit={c.limit:.6e}")
        return "\n".join(lines)


# names of the standing-assumption checks, in report order
CHECK_NAMES = (
    "strictly_causal_diagonal",
    "leading_coefficient_condition",
    "inverse_decay_tail",
    "positive_noise_variance",
)


def _check_table(g_ls, sigmas, horizon, decay_tol, cond_bound) -> tuple[np.ndarray, np.ndarray]:
    """Values and pass flags of :func:`validate`'s checks, one row per model.

    Models are given by their g_l coefficient arrays and noise variances.
    I - g_l is formed as ``PolynomialMatrix`` subtraction forms it, and every
    lead and decay tail comes from one :func:`polymat.stability_certificates`
    call, so a model's row does not depend on the other models.
    """
    diag0 = np.empty(len(g_ls))
    min_sigma = np.empty(len(g_ls))
    filters = [None] * len(g_ls)
    by_shape: dict[tuple, list[int]] = {}
    for i, g in enumerate(g_ls):
        by_shape.setdefault(g.shape, []).append(i)
    for shape, members in by_shape.items():
        g = np.stack([g_ls[i] for i in members])
        ident = np.zeros(shape)
        ident[0] = np.eye(shape[1])
        diag0[members] = np.abs(np.diagonal(g[:, 0], axis1=1, axis2=2)).max(axis=1)
        min_sigma[members] = np.stack([sigmas[i] for i in members]).min(axis=1)
        for i, a in zip(members, ident - g):
            filters[i] = a
    conds, tails = stability_certificates(filters, horizon, cond_bound)
    values = np.stack([diag0, conds, tails, min_sigma], axis=1)
    passed = np.stack(
        [diag0 == 0.0, np.isfinite(conds) & (conds <= cond_bound), tails <= decay_tol, min_sigma > 0.0], axis=1
    )
    return values, passed


def validate(
    model: LrdnModel,
    horizon: int = DEFAULT_HORIZON,
    decay_tol: float = DEFAULT_DECAY_TOL,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> ValidationReport:
    """Check the standing assumptions of a model, with numeric margins.

    The report covers the strictly causal diagonal of g_l, invertibility of
    I - g_l at lag 0, decay of the causal inverse of (I - g_l) at the
    working horizon, and positivity of the noise variances. Failures are
    carried in the report rather than raised.

    The decay check ``inverse_decay_tail`` is ||Q_horizon||_F, the last
    coefficient of ``truncated_inverse(I - g_l, horizon)``, against
    ``decay_tol``. It is computed by repeated squaring of the block companion
    matrix of the inverse recursion (:func:`polymat.stability_certificates`),
    so it costs about log2(horizon) small matrix products; a divergent
    candidate fails it with a non-finite value. It is skipped (value inf)
    when the lead fails its condition check. This is the stacked check that
    :func:`random_models` runs on each round of candidates, for one model.
    """
    values, passed = _check_table([model.g_l.coeffs], [model.sigma_l], horizon, decay_tol, cond_bound)
    limits = (0.0, cond_bound, decay_tol, 0.0)
    return ValidationReport(
        tuple(
            ValidationCheck(name, bool(ok), float(value), float(limit))
            for name, ok, value, limit in zip(CHECK_NAMES, passed[0], values[0], limits)
        )
    )


def require_valid(model: LrdnModel, **kwargs) -> ValidationReport:
    report = validate(model, **kwargs)
    if not report.ok:
        raise InvalidModel("model failed validation:\n" + report.summary())
    return report


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 1..num_nodes whose edge targets come from the
    full-rank block V_l = {m+1, ..., num_nodes}.

    An edge (i, j) means channel j influences channel i.
    """

    num_nodes: int
    m: int
    edges: frozenset

    def __post_init__(self):
        if not 0 <= self.m < self.num_nodes:
            raise ValueError(f"partition boundary m={self.m} out of range for {self.num_nodes} nodes")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for i, j in self.edges:
            if not 1 <= i <= self.num_nodes:
                raise ValueError(f"edge target {i} outside node range")
            if not self.m + 1 <= j <= self.num_nodes:
                raise ValueError(f"edge source {j} outside the full-rank block")

    @property
    def l(self) -> int:
        return self.num_nodes - self.m

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "m": self.m,
            "edge_convention": "[target, source]; source lies in the full-rank block",
            "edges": [list(e) for e in self.sorted_edges()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DirectedGraph":
        return cls(
            num_nodes=int(d["num_nodes"]),
            m=int(d["m"]),
            edges=frozenset((int(i), int(j)) for i, j in d["edges"]),
        )

    def to_dot(self, name: str = "lrdn") -> str:
        """GraphViz export; nodes of the full-rank block get a darker fill."""
        lines = [f"digraph {name} {{", "  node [shape=circle style=filled fillcolor=lightblue];"]
        for v in range(self.m + 1, self.num_nodes + 1):
            lines.append(f"  n{v} [fillcolor=steelblue];")
        for i, j in self.sorted_edges():
            lines.append(f"  n{j} -> n{i};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_from_supports(sup_ml: np.ndarray, sup_l: np.ndarray, m: int) -> DirectedGraph:
    """Graph with an edge (target, source) for each True cell of the (m, l)
    mask onto the deterministic block and of the (l, l) mask onto the
    full-rank block; sources are full-rank channels m+1..m+l."""
    edges = [(i + 1, m + j + 1) for i, j in np.argwhere(sup_ml).tolist()]
    edges += [(m + i + 1, m + j + 1) for i, j in np.argwhere(sup_l).tolist()]
    return DirectedGraph(num_nodes=m + sup_l.shape[0], m=m, edges=frozenset(edges))


def true_graph(model: LrdnModel, zero_tol: float = DEFAULT_ZERO_TOL) -> DirectedGraph:
    """Graph read off the coefficient supports of g_ml and g_l."""
    return graph_from_supports(model.g_ml.support(zero_tol), model.g_l.support(zero_tol), model.m)


@dataclass
class GeneratorConfig:
    """Recipe for random test models with a prescribed sparsity pattern.

    ``support_ml`` / ``support_l`` accept either a boolean mask or a target
    edge count drawn uniformly over the admissible cells. Channels listed in
    ``pure_noise`` (1-based indices into the full-rank block) get an all-zero
    row in g_l, so they carry innovation only. Nonzero coefficients sit at a
    single random lag per entry, with magnitude in [coeff_min, coeff_max] and
    random sign, which keeps supports exact and detectable.
    """

    m: int
    l: int
    degree_ml: int
    degree_l: int
    support_ml: object
    support_l: object
    coeff_min: float = 0.3
    coeff_max: float = 0.8
    max_rejections: int = 200
    rng_seed: int = 0
    lag0_offdiag: bool = False
    pure_noise: tuple = ()
    sigma_l: object = None

    def __post_init__(self):
        if self.m < 1 or self.l < 1:
            raise ValueError("dimensions must be positive")
        if self.coeff_min <= 0:
            raise ValueError("coeff_min must be positive so edges stay detectable")
        if self.coeff_max < self.coeff_min:
            raise ValueError("coeff_max must be at least coeff_min")
        if not np.isfinite([self.coeff_min, self.coeff_max]).all():
            raise ValueError("coeff_min and coeff_max must be finite")
        if self.degree_ml < 0 or self.degree_l < 0:
            raise ValueError("degrees must be nonnegative")
        for ch in self.pure_noise:
            if not 1 <= ch <= self.l:
                raise ValueError(f"pure-noise channel {ch} out of range [1, {self.l}]")

    def to_dict(self) -> dict:
        d = {
            "m": self.m,
            "l": self.l,
            "degree_ml": self.degree_ml,
            "degree_l": self.degree_l,
            "coeff_min": self.coeff_min,
            "coeff_max": self.coeff_max,
            "max_rejections": self.max_rejections,
            "rng_seed": self.rng_seed,
            "lag0_offdiag": self.lag0_offdiag,
            "pure_noise": list(self.pure_noise),
        }
        for key, sup in (("support_ml", self.support_ml), ("support_l", self.support_l)):
            d[key] = sup.tolist() if isinstance(sup, np.ndarray) else sup
        d["sigma_l"] = None if self.sigma_l is None else list(self.sigma_l)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        d = dict(d)
        for key in ("support_ml", "support_l"):
            if isinstance(d.get(key), list):
                d[key] = np.asarray(d[key], dtype=bool)
        d["pure_noise"] = tuple(d.get("pure_noise", ()))
        return cls(**d)


def _resolve_support(spec, shape, allowed, rng):
    """Turn a mask or an edge count into a boolean mask over allowed cells."""
    if isinstance(spec, (int, np.integer)):
        cells = np.flatnonzero(allowed.ravel())
        if spec > cells.size:
            raise ValueError(f"requested {spec} edges but only {cells.size} admissible cells")
        mask = np.zeros(shape, dtype=bool)
        chosen = rng.choice(cells, size=int(spec), replace=False)
        mask.ravel()[chosen] = True
        return mask
    mask = np.asarray(spec, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"support mask shape {mask.shape} does not match {shape}")
    if (mask & ~allowed).any():
        raise ValueError("support mask places edges on disallowed cells")
    return mask


def _supported_cells(mask, lag_floor, degree) -> list[tuple[int, int, int]]:
    """(row, col, lowest allowed lag) of each True cell of ``mask``, row-major."""
    rows, cols = np.nonzero(mask)
    floors = lag_floor[rows, cols]
    for i, j, lo in zip(rows, cols, floors):
        if lo > degree:
            raise ValueError(f"entry ({i + 1}, {j + 1}) needs a lag >= {lo} but degree is {degree}")
    return list(zip(rows.tolist(), cols.tolist(), floors.tolist()))


def _fill_entries(cells, shape, degree, rng, coeff_min, coeff_max):
    """One nonzero coefficient per supported cell, at a random allowed lag,
    with magnitude uniform on [coeff_min, coeff_max] and a fair sign."""
    coeffs = np.zeros((degree + 1, *shape))
    low = float(coeff_min)
    span = float(coeff_max) - low
    integers, random = rng.integers, rng.random
    for i, j, lo in cells:
        lag = integers(lo, degree + 1)
        # numpy's definition of rng.uniform(low, high), in one cheaper call
        mag = low + span * random()
        coeffs[lag, i, j] = mag if random() < 0.5 else -mag
    return coeffs


class _CandidateStream:
    """One config's generator state: its RNG after the support draws, its
    supported cells with their lag floors, and its draw budget."""

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.rng = rng = np.random.default_rng(config.rng_seed)
        m, l = config.m, config.l

        allowed_ml = np.ones((m, l), dtype=bool)
        allowed_l = np.ones((l, l), dtype=bool)
        for ch in config.pure_noise:
            allowed_l[ch - 1, :] = False
        if config.degree_l == 0:
            np.fill_diagonal(allowed_l, False)
            if not config.lag0_offdiag:
                allowed_l[:] = False

        mask_ml = _resolve_support(config.support_ml, (m, l), allowed_ml, rng)
        mask_l = _resolve_support(config.support_l, (l, l), allowed_l, rng)

        # diagonal entries are strictly causal; off-diagonal ones may sit at
        # lag 0 only when explicitly enabled
        lag_floor_l = np.full((l, l), 0 if config.lag0_offdiag else 1, dtype=int)
        np.fill_diagonal(lag_floor_l, 1)
        self.cells_ml = _supported_cells(mask_ml, np.zeros((m, l), dtype=int), config.degree_ml)
        self.cells_l = _supported_cells(mask_l, lag_floor_l, config.degree_l)

        self.sigma = np.ones(l) if config.sigma_l is None else np.asarray(config.sigma_l, dtype=float)
        if self.sigma.shape != (l,):
            raise ValueError(f"sigma_l must have length {l}")
        # range() refuses a non-integer budget, as the draw loop always did
        self.budget = len(range(config.max_rejections + 1))
        self.draws = 0

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """Next candidate's g_ml and g_l coefficients."""
        c = self.config
        self.draws += 1
        g_ml = _fill_entries(self.cells_ml, (c.m, c.l), c.degree_ml, self.rng, c.coeff_min, c.coeff_max)
        g_l = _fill_entries(self.cells_l, (c.l, c.l), c.degree_l, self.rng, c.coeff_min, c.coeff_max)
        return g_ml, g_l

    def failure(self) -> GenerationFailed:
        return GenerationFailed(
            f"no stable model found in {self.config.max_rejections + 1} draws; "
            "the support/magnitude combination rarely yields stable dynamics"
        )


def random_models(configs: Sequence[GeneratorConfig], draws: list | None = None) -> list[LrdnModel | GenerationFailed]:
    """Draw one model per config in lock-step; deterministic in each seed.

    Slot k holds the model of ``configs[k]``, or the :class:`GenerationFailed`
    of a config whose ``max_rejections + 1`` candidates all failed. For each
    config the support is drawn once; coefficient values (and their lags)
    are then redrawn until a candidate passes :func:`validate`'s checks.

    Trials advance in rounds: every pending config draws its next candidate
    from its own RNG stream, then the whole round is certified by one
    stacked check (:func:`polymat.stability_certificates`). A config's draws
    and accepted model are those it gets when drawn alone. A config the
    generator cannot serve raises ``ValueError``. If ``draws`` is given, the
    number of candidates drawn for each slot is appended to it.
    """
    streams = [_CandidateStream(config) for config in configs]
    out = [None if stream.budget else stream.failure() for stream in streams]
    pending = [k for k, stream in enumerate(streams) if stream.budget]
    while pending:
        drawn = [streams[k].draw() for k in pending]
        _, passed = _check_table(
            [g_l for _, g_l in drawn],
            [streams[k].sigma for k in pending],
            DEFAULT_HORIZON, DEFAULT_DECAY_TOL, DEFAULT_COND_BOUND,
        )
        still = []
        for k, (g_ml, g_l), ok in zip(pending, drawn, passed.all(axis=1)):
            stream = streams[k]
            if ok:
                c = stream.config
                out[k] = LrdnModel(
                    m=c.m, l=c.l, g_ml=PolynomialMatrix(g_ml), g_l=PolynomialMatrix(g_l), sigma_l=stream.sigma
                )
            elif stream.draws == stream.budget:
                out[k] = stream.failure()
            else:
                still.append(k)
        pending = still
    if draws is not None:
        draws.extend(stream.draws for stream in streams)
    return out


def random_model(config: GeneratorConfig) -> LrdnModel:
    """:func:`random_models` of one config; raises its ``GenerationFailed``."""
    (result,) = random_models([config])
    if isinstance(result, GenerationFailed):
        raise result
    return result


@dataclass(frozen=True)
class ReducedForm:
    """Causal factor w_factor = (I - g_l)^-1 truncated at the horizon, and the
    stacked transfer [g_ml * w_factor; w_factor] from innovation to output."""

    w_factor: PolynomialMatrix
    full_transfer: PolynomialMatrix


def reduced_form(
    model: LrdnModel,
    horizon: int = DEFAULT_HORIZON,
    decay_tol: float = DEFAULT_DECAY_TOL,
) -> ReducedForm:
    require_valid(model, horizon=horizon, decay_tol=decay_tol)
    i_minus_gl = PolynomialMatrix.identity(model.l) - model.g_l
    w = truncated_inverse(i_minus_gl, horizon=horizon, decay_tol=decay_tol)
    top = model.g_ml @ w
    return ReducedForm(w_factor=w, full_transfer=vstack(top, w))
