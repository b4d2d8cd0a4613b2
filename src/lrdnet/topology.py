"""Directed topology decisions: group tests on filter estimates, partition
selection for unlabeled data, and graph accuracy metrics.

Edges are decided per the two-branch rule: a deterministic-block target uses
the causal filter onto the full-rank block, a full-rank target uses the
strict-past projection filter. Decisions are directional by construction and
no symmetrization is ever applied.

Every group test goes through one batched kernel. It takes units, the
estimates of one data set in row order: (h_est, s_est), or one estimate. It
tests every (row, full-rank source) pair of each unit source-major over the
unit's rows, so an (h_est, s_est) unit comes out in (source, target) order,
the order of ``edge_tests.csv``, and no caller reorders it. Per (h_est,
s_est), :func:`_pair_tests` gives the result columns: the ``estimate``
subcommand and :func:`edge_test_table` ask for one, :func:`decide_graphs`
for many, as the Monte-Carlo loop of ``run-experiment`` does.
:func:`edge_test` sends one estimate and returns one of its pairs. Per pair
the kernel's arithmetic is that of a batch of one, so batching changes no
statistic, p-value or decision. The noiseless-row rule's levels,
NORM_THRESHOLD and DETERMINISTIC_RESID_TOL, are module constants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import fdtrc

from .errors import AmbiguousRank, DegenerateRestriction, InsufficientData, LrdnError
from .model import DirectedGraph, LrdnModel, graph_from_supports, reduced_form
from .polymat import DEFAULT_COND_BOUND, DEFAULT_HORIZON, DEFAULT_ZERO_TOL, truncated_inverse
from .sim import TimeSeries
from .wiener import L_BLOCK, M_BLOCK, ExactFilters, FilterEstimate, exact_filters, lagged_design

DEFAULT_ALPHA = 0.01
NO_CORRECTION = "none"
BONFERRONI = "bonferroni"

# on a noiseless deterministic relation the F statistic degenerates, so
# deterministic-block rows fall back to a coefficient-norm rule
DETERMINISTIC_RESID_TOL = 1e-6
NORM_THRESHOLD = 1e-6

AMBIGUITY_GAP = 10.0
# relative squared-norm tie band of the partition pivots; ties go to the lower index
PIVOT_TIE_TOL = 1e-8
# floor of the denominators of the partition's eigenvalue and residual ratios
RATIO_FLOOR = 1e-300


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


def _group_tests(units, alphas):
    """Group tests of every (row, source channel) pair of one or more units
    in one batch, each unit's pairs at its own level.

    A unit is the estimates of one data set in row order: (h_est, s_est),
    or one estimate. Its pairs are taken source-major over all of its rows:
    its k-th pair is row k % num_rows and source channel k // num_rows, so
    for (h_est, s_est) they are in (source, target) order. Units of one
    array shape are stacked, each group size gets one condition number,
    solve and quadratic form over the stack, and one F tail call covers
    every pair; per pair the arithmetic is that of a batch of one.

    Returns the EdgeTestResult fields of all pairs as arrays in field
    order, the offsets ``starts`` (unit u's pairs are
    starts[u]:starts[u + 1]), and the exception of each pair that cannot be
    tested, by pair index.
    """
    ests = [est for unit in units for est in unit]
    num_rows = [sum(est.num_rows for est in unit) for unit in units]
    counts = [rows * unit[0].l for rows, unit in zip(num_rows, units)]
    starts = np.cumsum([0, *counts])  # each unit's first pair
    row_starts = np.cumsum([0, *num_rows])  # its first row
    n = starts[-1]
    offsets = np.arange(n) - np.repeat(starts[:-1], counts)
    chans, rows = np.divmod(offsets, np.repeat(num_rows, counts))
    batch_rows = np.repeat(row_starts[:-1], counts) + rows
    alpha = np.repeat(alphas, counts)
    m = np.repeat([unit[0].m for unit in units], counts)
    sources = m + chans + 1
    first_target = [unit[0].m if unit[0].target_block == L_BLOCK else 0 for unit in units]
    targets = np.repeat(first_target, counts) + rows + 1
    full_rank = targets > m
    T_eff = np.repeat([est.num_used_samples for est in ests], [est.num_rows for est in ests])[batch_rows]
    k_row = np.concatenate([est.n_regressors for est in ests])[batch_rows]
    rss = np.concatenate([est.rss_full for est in ests])[batch_rows]
    dof = T_eff - k_row
    insufficient = dof < 1
    noiseless = ~insufficient & ~full_rank & (np.sqrt(rss / T_eff) <= DETERMINISTIC_RESID_TOL)
    tested = ~insufficient & ~noiseless
    first = targets == sources  # own group starts at lag 1

    # each unit's coefficients (one row per pair) and Gram-inverse blocks
    # come out source-major by joining its estimates' rows; units of one
    # shape are stacked, so the rows of the stack are their pairs in batch
    # order; pairs are then grouped by group size: indices, coefficients
    # and the blocks of the tested ones among them
    shapes: dict[tuple, list] = {}
    for u, unit in enumerate(units):
        coeffs = np.concatenate([est.coeffs.coeffs.T for est in unit], axis=1)
        gram = np.concatenate([est.gram_blocks.swapaxes(0, 1) for est in unit], axis=1)
        shapes.setdefault(coeffs.shape, []).append((u, coeffs, gram))
    groups: dict[int, tuple[list, list, list]] = {}
    for (*_, size), members in shapes.items():
        idx = np.concatenate([np.arange(starts[u], starts[u + 1]) for u, _, _ in members])
        coeffs = np.stack([c for _, c, _ in members]).reshape(idx.size, size)
        gram = np.stack([g for _, _, g in members]).reshape(idx.size, size, size)
        for lag0 in (0, 1):
            sel = first[idx] == lag0
            if not sel.any():
                continue
            pair_idx, betas, blocks = groups.setdefault(size - lag0, ([], [], []))
            pair_idx.append(idx[sel])
            betas.append(coeffs[sel, lag0:])
            blocks.append(gram[sel & tested[idx], lag0:, lag0:])

    coeff_norm = np.empty(n)
    group_size = np.empty(n, dtype=int)
    cond = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    rss_increase = np.zeros(n)
    for size, (idx, betas, blocks) in groups.items():
        idx, beta = np.concatenate(idx), np.concatenate(betas)
        coeff_norm[idx] = np.linalg.norm(beta, axis=1)
        group_size[idx] = size
        pick = tested[idx]
        if not pick.any():
            continue
        idx, beta, blocks = idx[pick], beta[pick], np.concatenate(blocks)
        cond[idx] = np.linalg.cond(blocks)
        ok = np.isfinite(cond[idx]) & (cond[idx] <= DEFAULT_COND_BOUND)
        degenerate[idx] = ~ok
        solved = np.linalg.solve(blocks[ok], beta[ok, :, np.newaxis])[..., 0]
        rss_increase[idx[ok]] = np.einsum("kg,kg->k", beta[ok], solved)

    good = tested & ~degenerate
    statistic = np.zeros(n)
    p_value = np.ones(n)
    statistic[good] = (rss_increase[good] / group_size[good]) / (rss[good] / dof[good])
    # the F(group_size, dof) upper tail; a statistic <= 0 (a roundoff-negative
    # quadratic form) has tail 1, as scipy.stats.f.sf gives, where fdtrc is nan
    p_value[good] = fdtrc(group_size[good], dof[good], np.maximum(statistic[good], 0.0))
    # on a noiseless deterministic row the F law is meaningless: decide by
    # the group coefficient norm and report the degenerate (inf, 0) or (0, 1)
    decision = np.where(noiseless, coeff_norm > NORM_THRESHOLD, p_value < alpha)
    statistic[noiseless & decision] = np.inf
    p_value[noiseless & decision] = 0.0

    failures = {}
    for k in np.flatnonzero(insufficient | degenerate).tolist():
        if insufficient[k]:
            failures[k] = InsufficientData(f"no residual degrees of freedom (T'={T_eff[k]}, k={k_row[k]})")
        else:
            failures[k] = DegenerateRestriction(
                f"group ({targets[k]}, {sources[k]}) Gram-inverse block is singular "
                f"(cond {cond[k]:.3e})"
            )
    return (sources, targets, statistic, p_value, coeff_norm, decision), starts, failures


def edge_test(est: FilterEstimate, target: int, source: int, alpha: float) -> EdgeTestResult:
    """Group test for the directed edge source -> target (1-based node ids).

    The statistic is the standard nested-regression F for dropping the
    source's whole lag group from the target row, computed through the
    stored Gram-inverse block (algebraically identical to refitting the
    restricted design). When the target row sits on a noiseless
    deterministic relation the residual scale is ~0 and the F law is
    meaningless, so the decision falls back to thresholding the group
    coefficient norm against NORM_THRESHOLD; the reported (statistic,
    p_value) are then the degenerate (inf, 0) or (0, 1) consistent with the
    decision. The batched kernel behind :func:`edge_test_table` tests all of
    the estimate's pairs, and this returns the one asked for; only that
    pair's own failure raises.
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
    columns, _, failures = _group_tests([(est,)], [alpha])
    k = (source - m - 1) * est.num_rows + row
    if k in failures:
        raise failures[k]
    return EdgeTestResult(*(c[k].item() for c in columns))


def _pair_tests(pairs, alpha, correction):
    """Test every (target, full-rank source) pair of each (h_est, s_est) in
    one kernel call. Bonferroni divides alpha by each pair's own number of
    tests. Returns, per (h_est, s_est), the result columns in (source,
    target) order and the error of its first untestable pair in that order,
    or None.
    """
    if correction not in (NO_CORRECTION, BONFERRONI):
        raise ValueError(f"unknown correction {correction!r}")
    units, alphas = [], []
    for h_est, s_est in pairs:
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
        m, l = s_est.m, s_est.l
        units.append((s_est,) if h_est is None else (h_est, s_est))
        alphas.append(alpha / ((m + l) * l) if correction == BONFERRONI else alpha)

    if not units:
        return []
    columns, starts, failures = _group_tests(units, alphas)
    # failures are keyed in ascending pair order
    return [
        ([c[lo:hi] for c in columns], next((exc for k, exc in failures.items() if lo <= k < hi), None))
        for lo, hi in zip(starts[:-1], starts[1:])
    ]


def edge_test_table(
    h_est: FilterEstimate | None,
    s_est: FilterEstimate,
    alpha: float = DEFAULT_ALPHA,
    correction: str = NO_CORRECTION,
) -> list[EdgeTestResult]:
    """Run the edge test over every (target, source) pair with a full-rank
    source, ordered by (source, target). Bonferroni divides alpha by the
    total number of tests. h_est may be None when the data has no
    deterministic block. All pairs are tested in one batch; a pair that
    cannot be tested raises for the first such pair in that order.
    """
    ((columns, error),) = _pair_tests([(h_est, s_est)], alpha, correction)
    if error is not None:
        raise error
    return [EdgeTestResult(*row) for row in zip(*(c.tolist() for c in columns))]


def decide_graphs(
    pairs,
    alpha: float = DEFAULT_ALPHA,
    correction: str = NO_CORRECTION,
) -> list[DirectedGraph | LrdnError]:
    """Decided graphs of many (h_est, s_est) pairs, with every pair's edges
    tested in one batch. Each slot holds the graph :func:`decide_graph` gives
    for that pair alone, or the LrdnError it would raise, so one untestable
    pair leaves the others alone.
    """
    return [
        error if error is not None else graph_from_decisions(s_est.m, s_est.l, columns[1], columns[0], columns[5])
        for (_, s_est), (columns, error) in zip(pairs, _pair_tests(pairs, alpha, correction))
    ]


def graph_from_decisions(m: int, l: int, targets, sources, decision) -> DirectedGraph:
    """Decided graph over nodes 1..m+l: an edge source -> target for every
    tested pair (targets[k], sources[k]) whose decision[k] is true."""
    decision = np.asarray(decision, dtype=bool)
    edges = zip(np.asarray(targets)[decision].tolist(), np.asarray(sources)[decision].tolist())
    return DirectedGraph(num_nodes=m + l, m=m, edges=frozenset(edges))


def decide_graph(
    h_est: FilterEstimate | None,
    s_est: FilterEstimate,
    alpha: float = DEFAULT_ALPHA,
    correction: str = NO_CORRECTION,
) -> DirectedGraph:
    """Decided directed graph over nodes 1..m+l from the two estimates."""
    (graph,) = decide_graphs([(h_est, s_est)], alpha, correction)
    if isinstance(graph, LrdnError):
        raise graph
    return graph


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


def _residual_ratios(y: np.ndarray, selected, candidates, q: int) -> np.ndarray:
    """Residual variance of each candidate's time-t value regressed on lags
    0..q of the selected channels and an intercept (so constant offsets never
    pass for structure), as a ratio to its own variance."""
    targets = y[q:, candidates]
    own_var = targets.var(axis=0)
    if selected:
        X = lagged_design(y[:, selected], range(q + 1), intercept=True)
        beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
        resid = targets - X @ beta
        resid_var = np.mean(resid**2, axis=0)
    else:
        resid_var = own_var
    safe = np.where(own_var > 0, own_var, 1.0)
    return np.where(own_var > 0, resid_var / safe, 0.0)


def _one_step_residual_rank(y: np.ndarray, q: int, rank_tol: float):
    """Innovation count from one-step prediction on everyone's strict past.

    Predicting y(t) from lags 1..q of all channels leaves a residual matrix
    whose sample covariance has rank equal to the number of independent
    innovations: determined channels' residuals are exact lag-0 mixtures of
    the full-rank block's. Returns (rank, relative eigenvalues, descending,
    residual matrix).
    """
    X = lagged_design(y, range(1, q + 1), intercept=True)
    targets = y[q:]
    beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
    resid = targets - X @ beta
    lam = np.linalg.eigvalsh(resid.T @ resid / resid.shape[0])[::-1]
    rel = lam / max(lam[0], RATIO_FLOOR)
    rank = int((rel > rank_tol).sum())
    return rank, rel, resid


def partition_select(data, max_lag: int = 8, rank_tol: float = 1e-4) -> Partition:
    """Split channels into a full-rank block and a causally determined rest.

    The block size l is the numerical rank of the one-step-prediction
    residual covariance over the lag window. The block is the first l pivots
    of a column-pivoted Gram-Schmidt pass over those residuals (the
    innovations), each channel's column scaled by its RMS: the pivots are
    channels whose innovations span all of them. Among columns whose
    squared norm is within a relative PIVOT_TIE_TOL of the largest, the
    lowest index is pivoted, so exact ties (a determined channel that is a
    lag-0 multiple of a full-rank one) do not follow roundoff. An all-zero
    channel is never pivoted.

    Raises AmbiguousRank when the eigenvalue spectrum shows no factor-10 gap
    around rank_tol, when lags 0..max_lag of the pick leave a rest channel
    with a relative residual of rank_tol or more, or when the pick's and the
    rest's residual ratios are not 10x apart. A refusal says that this pick
    is not a split; another size-l subset may still be one.
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

    l, rel, innov = _one_step_residual_rank(y, q, rank_tol)
    if l < 1:
        raise AmbiguousRank("no channel carries innovation above the rank tolerance")
    if l < n and rel[l - 1] / max(rel[l], RATIO_FLOOR) < AMBIGUITY_GAP:
        raise AmbiguousRank(
            f"innovation eigenvalues show no {AMBIGUITY_GAP:.0f}x gap around "
            f"rank_tol={rank_tol:.1e}: {rel[l - 1]:.3e} vs {rel[l]:.3e}"
        )

    rms = np.sqrt(np.mean(y[q:] ** 2, axis=0))
    innov = innov / np.where(rms > 0, rms, 1.0)
    selected = []
    for _ in range(l):
        norms = np.einsum("tc,tc->c", innov, innov)
        norms[selected] = -np.inf
        pivot = int(np.flatnonzero(norms >= (1 - PIVOT_TIE_TOL) * norms.max())[0])
        selected.append(pivot)
        unit = innov[:, pivot] / np.sqrt(norms[pivot])
        innov = innov - np.outer(unit, unit @ innov)
    selected.sort()

    rest = [c for c in range(n) if c not in selected]
    max_rest = float(_residual_ratios(y, selected, rest, q).max()) if rest else 0.0
    if max_rest >= rank_tol:
        raise AmbiguousRank(
            f"lags 0..{q} of the {l} pivoted channels do not explain the rest "
            f"(worst ratio {max_rest:.3e} >= {rank_tol:.1e})"
        )
    min_sel = min(float(_residual_ratios(y, [x for x in selected if x != s], [s], q)[0]) for s in selected)
    gap = min_sel / max(max_rest, RATIO_FLOOR)
    if min_sel < rank_tol or gap < AMBIGUITY_GAP:
        raise AmbiguousRank(
            f"no {AMBIGUITY_GAP:.0f}x separation around rank_tol={rank_tol:.1e}: "
            f"selected ratios >= {min_sel:.3e}, discarded ratios <= {max_rest:.3e}"
        )
    return Partition(
        l_indices=tuple(c + 1 for c in selected),
        m_indices=tuple(c + 1 for c in rest),
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


def write_edge_tests_csv(columns, path, comment: str | None = None) -> None:
    """One line per tested pair, in the order of the result columns that
    :func:`_pair_tests` gives: (source, target)."""
    with Path(path).open("w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "F", "p", "norm", "decision"])
        for source, target, statistic, p_value, norm, decision in zip(*(c.tolist() for c in columns)):
            writer.writerow([source, target, repr(statistic), repr(p_value), repr(norm), int(decision)])
