"""Directed topology decisions: group tests on filter estimates, partition
selection for unlabeled data, and graph accuracy metrics.

Edges are decided per the two-branch rule: a deterministic-block target uses
the causal filter onto the full-rank block, a full-rank target uses the
strict-past projection filter. Decisions are directional by construction and
no symmetrization is ever applied.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .errors import AmbiguousRank, DegenerateRestriction, InsufficientData
from .model import DirectedGraph, LrdnModel, graph_from_supports, reduced_form
from .polymat import DEFAULT_COND_BOUND, DEFAULT_HORIZON, DEFAULT_ZERO_TOL, truncated_inverse
from .sim import TimeSeries
from .wiener import L_BLOCK, M_BLOCK, ExactFilters, FilterEstimate, exact_filters

DEFAULT_ALPHA = 0.01
NO_CORRECTION = "none"
BONFERRONI = "bonferroni"

# on a noiseless deterministic relation the F statistic degenerates, so
# deterministic-block rows fall back to a coefficient-norm rule
DETERMINISTIC_RESID_TOL = 1e-6
NORM_THRESHOLD = 1e-6

AMBIGUITY_GAP = 10.0


@dataclass(frozen=True)
class EdgeTestResult:
    source: int
    target: int
    statistic: float
    p_value: float
    coeff_norm: float
    decision: bool

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def _group_tests(
    est: FilterEstimate,
    rows: np.ndarray,
    chans: np.ndarray,
    alpha: float,
    norm_threshold: float,
    resid_tol: float,
):
    """Group tests for the pairs (rows[k], chans[k]) of one estimate (0-based
    row and source channel), as batched array operations per group size.

    Returns the EdgeTestResult fields as arrays, in field order, and the
    first pair (in the given order) that cannot be tested as
    (source, target, exception), or None.
    """
    T_eff = est.num_used_samples
    offset = est.m if est.target_block == L_BLOCK else 0
    sources = est.m + chans + 1
    targets = offset + rows + 1
    k_row = est.n_regressors[rows]
    dof = T_eff - k_row
    rss = est.rss_full[rows]
    insufficient = dof < 1
    noiseless = ~insufficient & (est.target_block == M_BLOCK) & (np.sqrt(rss / T_eff) <= resid_tol)
    tested = ~insufficient & ~noiseless
    first = (rows == chans) & (est.target_block == L_BLOCK)  # own group starts at lag 1

    n = rows.size
    coeff_norm = np.empty(n)
    group_size = np.empty(n, dtype=int)
    cond = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    rss_increase = np.zeros(n)
    for lag0 in (0, 1):
        sel = np.flatnonzero(first == lag0)
        if sel.size == 0:
            continue
        beta = est.coeffs.coeffs[lag0:, rows[sel], chans[sel]].T
        coeff_norm[sel] = np.linalg.norm(beta, axis=1)
        group_size[sel] = beta.shape[1]
        pick = tested[sel]
        sel, beta = sel[pick], beta[pick]
        blocks = est.gram_blocks[rows[sel], chans[sel], lag0:, lag0:]
        cond[sel] = np.linalg.cond(blocks)
        ok = np.isfinite(cond[sel]) & (cond[sel] <= DEFAULT_COND_BOUND)
        degenerate[sel] = ~ok
        solved = np.linalg.solve(blocks[ok], beta[ok, :, np.newaxis])[..., 0]
        rss_increase[sel[ok]] = np.einsum("kg,kg->k", beta[ok], solved)

    good = tested & ~degenerate
    statistic = np.zeros(n)
    p_value = np.ones(n)
    statistic[good] = (rss_increase[good] / group_size[good]) / (rss[good] / dof[good])
    p_value[good] = stats.f.sf(statistic[good], group_size[good], dof[good])
    # on a noiseless deterministic row the F law is meaningless: decide by
    # the group coefficient norm and report the degenerate (inf, 0) or (0, 1)
    decision = np.where(noiseless, coeff_norm > norm_threshold, p_value < alpha)
    statistic[noiseless & decision] = np.inf
    p_value[noiseless & decision] = 0.0

    failure = None
    bad = np.flatnonzero(insufficient | degenerate)
    if bad.size:
        k = bad[0]
        if insufficient[k]:
            exc = InsufficientData(f"no residual degrees of freedom (T'={T_eff}, k={k_row[k]})")
        else:
            exc = DegenerateRestriction(
                f"group ({targets[k]}, {sources[k]}) Gram-inverse block is singular "
                f"(cond {cond[k]:.3e})"
            )
        failure = (sources[k], targets[k], exc)
    return (sources, targets, statistic, p_value, coeff_norm, decision), failure


def edge_test(
    est: FilterEstimate,
    target: int,
    source: int,
    alpha: float,
    norm_threshold: float = NORM_THRESHOLD,
    resid_tol: float = DETERMINISTIC_RESID_TOL,
) -> EdgeTestResult:
    """Group test for the directed edge source -> target (1-based node ids).

    The statistic is the standard nested-regression F for dropping the
    source's whole lag group from the target row, computed through the
    stored Gram-inverse block (algebraically identical to refitting the
    restricted design). When the target row sits on a noiseless
    deterministic relation the residual scale is ~0 and the F law is
    meaningless, so the decision falls back to thresholding the group
    coefficient norm; the reported (statistic, p_value) are then the
    degenerate (inf, 0) or (0, 1) consistent with the decision. This is a
    one-pair call into the batched kernel behind :func:`edge_test_table`.
    """
    m, l = est.m, est.l
    if not m + 1 <= source <= m + l:
        raise ValueError(f"source {source} outside the full-rank block")
    if est.target_block == M_BLOCK:
        if not 1 <= target <= m:
            raise ValueError(f"target {target} outside the deterministic block")
        row = target - 1
    else:
        if not m + 1 <= target <= m + l:
            raise ValueError(f"target {target} outside the full-rank block")
        row = target - m - 1
    columns, failure = _group_tests(
        est, np.array([row]), np.array([source - m - 1]), alpha, norm_threshold, resid_tol
    )
    if failure is not None:
        raise failure[-1]
    return EdgeTestResult(*(c.item() for c in columns))


def edge_test_table(
    h_est: FilterEstimate | None,
    s_est: FilterEstimate,
    alpha: float = DEFAULT_ALPHA,
    correction: str = NO_CORRECTION,
    norm_threshold: float = NORM_THRESHOLD,
    resid_tol: float = DETERMINISTIC_RESID_TOL,
) -> list[EdgeTestResult]:
    """Run the edge test over every (target, source) pair with a full-rank
    source, ordered by (source, target). Bonferroni divides alpha by the
    total number of tests. h_est may be None when the data has no
    deterministic block. Each estimate's pairs are tested in one batch; a
    pair that cannot be tested raises for the first such pair in that order.
    """
    if s_est.target_block != L_BLOCK:
        raise ValueError("s_est must be the full-rank-block estimate")
    if h_est is None:
        if s_est.m != 0:
            raise ValueError("h_est is required when the data has a deterministic block")
    else:
        if h_est.target_block != M_BLOCK:
            raise ValueError("h_est must be the deterministic-block estimate")
        if (h_est.m, h_est.l) != (s_est.m, s_est.l):
            raise ValueError("estimates disagree on the partition")
    if correction not in (NO_CORRECTION, BONFERRONI):
        raise ValueError(f"unknown correction {correction!r}")
    m, l = s_est.m, s_est.l
    n_tests = (m + l) * l
    alpha_eff = alpha / n_tests if correction == BONFERRONI else alpha

    batches, failures = [], []
    for est in (h_est, s_est):
        if est is None:
            continue
        chans, rows = np.divmod(np.arange(est.num_rows * l), est.num_rows)
        columns, failure = _group_tests(est, rows, chans, alpha_eff, norm_threshold, resid_tol)
        batches.append(columns)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[:2])[-1]
    columns = [np.concatenate(c) for c in zip(*batches)]
    order = np.lexsort((columns[1], columns[0]))
    return [EdgeTestResult(*row) for row in zip(*(c[order].tolist() for c in columns))]


def decide_graph(
    h_est: FilterEstimate,
    s_est: FilterEstimate,
    alpha: float = DEFAULT_ALPHA,
    correction: str = NO_CORRECTION,
    norm_threshold: float = NORM_THRESHOLD,
    resid_tol: float = DETERMINISTIC_RESID_TOL,
) -> DirectedGraph:
    """Decided directed graph over nodes 1..m+l from the two estimates."""
    results = edge_test_table(h_est, s_est, alpha, correction, norm_threshold, resid_tol)
    edges = frozenset((r.target, r.source) for r in results if r.decision)
    return DirectedGraph(num_nodes=s_est.m + s_est.l, m=s_est.m, edges=edges)


def support_graph(
    filters: ExactFilters,
    m: int,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> DirectedGraph:
    """Population decision: edges read off the exact filters' supports."""
    return graph_from_supports(filters.h.support(zero_tol), filters.s.support(zero_tol), m)


@dataclass(frozen=True)
class GraphMetrics:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    exact_match: bool
    precision_by_convention: bool = False
    recall_by_convention: bool = False

    def to_dict(self) -> dict:
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "precision": self.precision,
            "recall": self.recall,
            "exact_match": self.exact_match,
            "precision_by_convention": self.precision_by_convention,
            "recall_by_convention": self.recall_by_convention,
        }


def compare_graphs(estimated: DirectedGraph, truth: DirectedGraph) -> GraphMetrics:
    """Edge-set accuracy. An empty denominator reports 1.0 with a flag."""
    if estimated.num_nodes != truth.num_nodes:
        raise ValueError(
            f"node counts differ: {estimated.num_nodes} vs {truth.num_nodes}"
        )
    tp = len(estimated.edges & truth.edges)
    fp = len(estimated.edges - truth.edges)
    fn = len(truth.edges - estimated.edges)
    precision_defined = tp + fp > 0
    recall_defined = tp + fn > 0
    precision = tp / (tp + fp) if precision_defined else 1.0
    recall = tp / (tp + fn) if recall_defined else 1.0
    return GraphMetrics(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        exact_match=estimated.edges == truth.edges,
        precision_by_convention=not precision_defined,
        recall_by_convention=not recall_defined,
    )


def inverse_factor_support_check(
    model: LrdnModel,
    horizon: int = DEFAULT_HORIZON,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> bool:
    """Off-diagonal support of the inverted causal factor must coincide with
    the off-diagonal support of the strict-past projection filter."""
    rf = reduced_form(model, horizon=horizon)
    w_inv = truncated_inverse(rf.w_factor, horizon=horizon)
    s = exact_filters(model).s
    off = ~np.eye(model.l, dtype=bool)
    return bool(np.array_equal(w_inv.support(zero_tol) & off, s.support(zero_tol) & off))


# -- partition selection -------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Channel split: l_indices span the full-rank block, m_indices are the
    causally determined remainder. Indices are 1-based column numbers."""

    l_indices: tuple
    m_indices: tuple
    rank_gap: float

    def __post_init__(self):
        if set(self.l_indices) & set(self.m_indices):
            raise ValueError("partition blocks overlap")

    def to_dict(self) -> dict:
        return {
            "l_indices": list(self.l_indices),
            "m_indices": list(self.m_indices),
            "rank_gap": self.rank_gap,
        }


def _window_design(y: np.ndarray, channels, q: int) -> np.ndarray:
    """Lags 0..q of the given channels plus an intercept column, so constant
    offsets never masquerade as unexplained structure."""
    T = y.shape[0]
    X = np.empty((T - q, len(channels) * (q + 1) + 1))
    for a, j in enumerate(channels):
        for k in range(q + 1):
            X[:, a * (q + 1) + k] = y[q - k : T - k, j]
    X[:, -1] = 1.0
    return X


def _residual_ratios(y: np.ndarray, selected, candidates, q: int):
    """Residual variance of each candidate's time-t value regressed on lags
    0..q of the selected channels, as (ratio to own variance, residual var)."""
    targets = y[q:, candidates]
    own_var = targets.var(axis=0)
    if selected:
        X = _window_design(y, selected, q)
        beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
        resid = targets - X @ beta
        resid_var = np.mean(resid**2, axis=0)
    else:
        resid_var = own_var.copy()
    safe = np.where(own_var > 0, own_var, 1.0)
    ratios = np.where(own_var > 0, resid_var / safe, 0.0)
    return ratios, resid_var


def _one_step_residual_rank(y: np.ndarray, q: int, rank_tol: float):
    """Innovation count from one-step prediction on everyone's strict past.

    Predicting y(t) from lags 1..q of all channels leaves a residual matrix
    whose sample covariance has rank equal to the number of independent
    innovations: determined channels' residuals are exact lag-0 mixtures of
    the full-rank block's. Returns (rank, relative eigenvalues, descending).
    """
    T, n = y.shape
    X = np.empty((T - q, n * q + 1))
    for j in range(n):
        for k in range(1, q + 1):
            X[:, j * q + k - 1] = y[q - k : T - k, j]
    X[:, -1] = 1.0
    targets = y[q:]
    beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
    resid = targets - X @ beta
    lam = np.linalg.eigvalsh(resid.T @ resid / resid.shape[0])[::-1]
    rel = lam / max(lam[0], 1e-300)
    rank = int((rel > rank_tol).sum())
    return rank, rel


def partition_select(data, max_lag: int = 8, rank_tol: float = 1e-4) -> Partition:
    """Split channels into a full-rank block and a causally determined rest.

    The block size is the numerical rank of the one-step-prediction residual
    covariance over the lag window. Channels are then chosen greedily:
    repeatedly add the one with the largest relative regression residual on
    lags 0..max_lag of those already selected (ties break by larger residual
    variance, then lower index). If the chosen set fails to explain every
    remaining channel, single-channel swaps repair it; greedy can grab a
    high-variance determined channel early, and a swap replaces it with the
    innovation carrier it was standing in for. Raises AmbiguousRank unless
    both the eigenvalue spectrum and the final residual ratios are separated
    by at least a factor of 10 around rank_tol.
    """
    y = data.data if isinstance(data, TimeSeries) else np.asarray(data, dtype=float)
    if y.ndim != 2:
        raise ValueError("data must be a (T, channels) array")
    T, n = y.shape
    q = max_lag
    if T <= 10 * q * n:
        raise InsufficientData(
            f"{T} samples are too few for channel selection over {n} channels at lag {q}"
        )

    l, rel = _one_step_residual_rank(y, q, rank_tol)
    if l < 1:
        raise AmbiguousRank("no channel carries innovation above the rank tolerance")
    if l < n and rel[l - 1] / max(rel[l], 1e-300) < AMBIGUITY_GAP:
        raise AmbiguousRank(
            f"innovation eigenvalues show no {AMBIGUITY_GAP:.0f}x gap around "
            f"rank_tol={rank_tol:.1e}: {rel[l - 1]:.3e} vs {rel[l]:.3e}"
        )

    def rest_explained(subset):
        rest = [c for c in range(n) if c not in subset]
        if not rest:
            return True, 0.0
        ratios, _ = _residual_ratios(y, list(subset), rest, q)
        worst = float(ratios.max())
        return worst < rank_tol, worst

    selected: list[int] = []
    while len(selected) < l:
        candidates = [c for c in range(n) if c not in selected]
        ratios, resid_vars = _residual_ratios(y, selected, candidates, q)
        order = sorted(
            range(len(candidates)),
            key=lambda a: (-ratios[a], -resid_vars[a], candidates[a]),
        )
        selected.append(candidates[order[0]])

    ok, worst = rest_explained(selected)
    for _ in range(l):
        if ok:
            break
        # swap repair: replace one pick by an unexplained channel, keeping the
        # exchange that most reduces the worst remaining residual
        rest = [c for c in range(n) if c not in selected]
        ratios, _ = _residual_ratios(y, selected, rest, q)
        incoming_order = [rest[a] for a in np.argsort(-ratios) if ratios[a] >= rank_tol]
        best_swap, best_worst = None, worst
        for incoming in incoming_order:
            for outgoing in selected:
                candidate = sorted([c for c in selected if c != outgoing] + [incoming])
                cand_ok, cand_worst = rest_explained(candidate)
                if cand_ok:
                    best_swap, best_worst = candidate, cand_worst
                    break
                if cand_worst < best_worst:
                    best_swap, best_worst = candidate, cand_worst
            if best_swap is not None and best_worst < rank_tol:
                break
        if best_swap is None:
            break
        selected = best_swap
        ok, worst = rest_explained(selected)
    if not ok:
        raise AmbiguousRank(
            f"no size-{l} channel subset found whose lag window explains the rest "
            f"(best attempt leaves ratio {worst:.3e} >= {rank_tol:.1e})"
        )

    sel_ratios = []
    for s in selected:
        others = [x for x in selected if x != s]
        r, _ = _residual_ratios(y, others, [s], q)
        sel_ratios.append(float(r[0]))
    rest = [c for c in range(n) if c not in selected]
    if rest:
        rest_ratios, _ = _residual_ratios(y, selected, rest, q)
        max_rest = float(rest_ratios.max())
    else:
        max_rest = 0.0

    min_sel = min(sel_ratios)
    gap = min_sel / max(max_rest, 1e-300)
    if min_sel < rank_tol or gap < AMBIGUITY_GAP:
        raise AmbiguousRank(
            f"no {AMBIGUITY_GAP:.0f}x separation around rank_tol={rank_tol:.1e}: "
            f"selected ratios >= {min_sel:.3e}, discarded ratios <= {max_rest:.3e}"
        )
    return Partition(
        l_indices=tuple(sorted(c + 1 for c in selected)),
        m_indices=tuple(sorted(c + 1 for c in range(n) if c not in selected)),
        rank_gap=float(gap),
    )


def apply_partition(data, partition: Partition) -> TimeSeries:
    """Reorder raw columns into [determined block | full-rank block]."""
    y = data.data if isinstance(data, TimeSeries) else np.asarray(data, dtype=float)
    cols = [i - 1 for i in partition.m_indices] + [i - 1 for i in partition.l_indices]
    return TimeSeries(
        data=y[:, cols],
        m=len(partition.m_indices),
        l=len(partition.l_indices),
        seed=getattr(data, "seed", 0),
    )


def write_edge_tests_csv(results, path, comment: str | None = None) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "F", "p", "norm", "decision"])
        for r in sorted(results, key=lambda r: (r.source, r.target)):
            writer.writerow(
                [r.source, r.target, repr(float(r.statistic)), repr(float(r.p_value)),
                 repr(float(r.coeff_norm)), int(r.decision)]
            )
