"""Low-rank dynamical network models, their graphs, and random generation.

An :class:`LrdnModel` is the triple (g_ml, g_l, sigma_l) driving

    y_m(t) = g_ml(z) y_l(t)
    y_l(t) = w_l(t) + g_l(z) y_l(t)

with w_l white Gaussian noise of diagonal covariance diag(sigma_l). The
diagonal of the lag-0 coefficient of g_l is identically zero, so no channel
feeds back on its own present value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, InvalidModel
from .polymat import (
    DEFAULT_COND_BOUND,
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    DEFAULT_ZERO_TOL,
    PolynomialMatrix,
    inverse_tail_norm,
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
    matrix of the inverse recursion (:func:`polymat.inverse_tail_norm`), so
    it costs about log2(horizon) small matrix products; a divergent candidate
    fails it with a non-finite value.
    """
    checks = []

    diag0 = np.abs(np.diag(model.g_l.coeff(0))).max() if model.l else 0.0
    checks.append(ValidationCheck("strictly_causal_diagonal", diag0 == 0.0, diag0, 0.0))

    lead = np.eye(model.l) - model.g_l.coeff(0)
    cond = float(np.linalg.cond(lead))
    checks.append(ValidationCheck("leading_coefficient_condition", np.isfinite(cond) and cond <= cond_bound, cond, cond_bound))

    if checks[-1].passed:
        tail = inverse_tail_norm(PolynomialMatrix.identity(model.l) - model.g_l, horizon)
    else:
        tail = np.inf
    checks.append(ValidationCheck("inverse_decay_tail", tail <= decay_tol, tail, decay_tol))

    min_sigma = float(model.sigma_l.min())
    checks.append(ValidationCheck("positive_noise_variance", min_sigma > 0.0, min_sigma, 0.0))

    return ValidationReport(tuple(checks))


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


def _fill_entries(mask, degree, lag_floor, rng, coeff_min, coeff_max):
    """One nonzero coefficient per supported entry, at a random allowed lag."""
    rows, cols = mask.shape
    coeffs = np.zeros((degree + 1, rows, cols))
    for i in range(rows):
        for j in range(cols):
            if not mask[i, j]:
                continue
            lo = lag_floor[i, j]
            if lo > degree:
                raise ValueError(f"entry ({i + 1}, {j + 1}) needs a lag >= {lo} but degree is {degree}")
            lag = int(rng.integers(lo, degree + 1))
            mag = rng.uniform(coeff_min, coeff_max)
            coeffs[lag, i, j] = mag if rng.random() < 0.5 else -mag
    return coeffs


def random_model(
    config: GeneratorConfig,
    horizon: int = DEFAULT_HORIZON,
    decay_tol: float = DEFAULT_DECAY_TOL,
) -> LrdnModel:
    """Draw a model matching the requested support; deterministic in the seed.

    The support is drawn once; coefficient values (and their lags) are
    resampled up to ``max_rejections`` times until the stability checks pass.
    """
    rng = np.random.default_rng(config.rng_seed)
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

    # diagonal entries are strictly causal; off-diagonal ones may sit at lag 0
    # only when explicitly enabled
    lag_floor_l = np.full((l, l), 0 if config.lag0_offdiag else 1, dtype=int)
    np.fill_diagonal(lag_floor_l, 1)
    lag_floor_ml = np.zeros((m, l), dtype=int)

    sigma = np.ones(l) if config.sigma_l is None else np.asarray(config.sigma_l, dtype=float)

    for _ in range(config.max_rejections + 1):
        g_ml = PolynomialMatrix(
            _fill_entries(mask_ml, config.degree_ml, lag_floor_ml, rng, config.coeff_min, config.coeff_max)
        )
        g_l = PolynomialMatrix(
            _fill_entries(mask_l, config.degree_l, lag_floor_l, rng, config.coeff_min, config.coeff_max)
        )
        model = LrdnModel(m=m, l=l, g_ml=g_ml, g_l=g_l, sigma_l=sigma)
        if validate(model, horizon=horizon, decay_tol=decay_tol).ok:
            return model
    raise GenerationFailed(
        f"no stable model found in {config.max_rejections + 1} draws; "
        "the support/magnitude combination rarely yields stable dynamics"
    )


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
