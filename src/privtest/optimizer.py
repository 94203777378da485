"""Constrained policy search: minimize the privacy exponent under a utility floor.

A kernel is admissible when its induced utility Chernoff rate clears the
configured threshold (:class:`GuaranteeConfig`); among admissible kernels the
optimizer minimizes the privacy Chernoff rate

    (1/k) * min over (ub, ut) of C(p_{Y^k|ub,1} || p_{Y^k|ut,0}).

Search strategy: the kernel family's free parameters (one simplex per
multi-output row) are enumerated on a per-axis grid when the total dimension
is at most :data:`GRID_DIM_LIMIT`, and the grid winner is refined by a local
pattern search; higher-dimensional families refine seeded random starts
instead.  All starts of one search are refined in lockstep: each
pattern-search step stacks the probes of every start still moving into one
rate batch, and each start then moves or shrinks its step by itself,
exactly as it would if refined alone.  Results are deterministic given the
search seed.

The search works in law space.  The induced laws are affine in the
parameters (:attr:`PolicySpace.law_map`), so a probe's laws are its start's
laws plus a rank-one update per moved parameter, its feasibility follows
from the slack of the simplex slices it touches, and Newton starts each of
its six pairs at the tilt mu* its start was scored with.  Only the starts
and the moves build kernel matrices; the reported point is built and
scored again from scratch.

One selection rule decides every comparison, in :func:`_best`: feasible
candidates first, then the smallest privacy rate (or, when none is feasible,
the smallest guarantee violation), where values within :data:`_TIE_TOL` of
the best are tied and the lexicographically smallest parameter vector among
the tied wins.  It picks the grid winner, each pattern-search move (among
the probes that beat the incumbent by more than the tolerance) and the final
result among the refined starts.

Grid rates are batched end to end: :meth:`PolicySpace.batch_laws` pushes
a candidate batch through the model as one stack of kernel matrices, at most
:data:`_LAW_CHUNK_ROWS` candidates at a time so that the grid's memory stays
bounded, and :func:`_batch_both_rates` gathers the six unordered
cross-group law pairs of every candidate straight into the symbol-major
``(m, 6g)`` layout of the Newton kernel
:func:`privtest.probkit.chernoff_symbol_major` (the core of
:func:`~privtest.probkit.chernoff_batch`) and scores them in one call, chunk
by chunk; the kernel skips its common-support masks and row selections on the
chunks that need none (most grid chunks), bit for bit as if it did not.
Both targets take the minimum over their four pairs; a pair with disjoint
supports is +inf and so only decides the rate when all four are disjoint.
The grid is screened: a kernel is admissible only if every utility pair
clears the threshold, so :func:`grid_evaluation` scores one utility pair,
law (0, 1) against law (1, 0), on every row first, and the other five only
on the rows where that pair clears the smallest threshold the grid is
ranked at (and, when no row clears it, only the rows that can still have
the largest utility).  The kernel scores each pair by itself, so a row
scored in full gets the same bits either way.

The per-block optimum at any finite k is only an upper bound on the
asymptotic minimum privacy exponent (the true quantity is an infimum over
all block lengths); :func:`asymptotic_guarantee` reports the best bound over
k = 1..k_max and labels it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, ValidationError
from .model import (
    UP_PAIRS,
    OutputLaws,
    PolicyKernel,
    PolicySpace,
    Prior,
    SourceModel,
    blockwise_extend,
    induced_output_laws,
    policy_space,
    require_block_length,
)
from .bayes import TestTarget, grouped_pairs
from .probkit import DEFAULT_ENUM_CAP, chernoff_symbol_major

#: Largest free dimension searched by exhaustive grid.
GRID_DIM_LIMIT = 4

#: Margin slack accepted by the public guarantee check (the search itself
#: requires margin >= 0, so re-verification can never flip a result).
MARGIN_SLACK = 1e-9

#: Step size below which the pattern search of :func:`optimize_policy` stops.
_LOCAL_STEP_TOL = 1e-9

#: How far the rate at block length n = k*l may exceed the rate at k before
#: :class:`MonotonicityReport` counts a failure.
MONOTONICITY_SLACK = 1e-3

#: Privacy rates (or guarantee violations) closer than this are ties, broken
#: by the lexicographically smallest parameter vector.  Rates on a flat face
#: of the optimum differ only in their last bits, so an exact-equality rule
#: would let rounding pick the kernel.
_TIE_TOL = 1e-15

_UP_INDEX = {up: i for i, up in enumerate(UP_PAIRS)}


@dataclass(frozen=True)
class GuaranteeConfig:
    """Utility-test guarantee: threshold lambda, optional finite-k correction.

    With the correction on, the effective threshold is
    lambda + log(8 p_max) / k; with it off, just lambda.
    """

    lam: float
    k: int = 1
    s: float = 1.0
    include_correction: bool = False

    def __post_init__(self):
        if not self.lam >= 0.0:  # also refuses NaN
            raise ValidationError(f"lambda must be >= 0, got {self.lam!r}")
        if self.lam == math.inf:  # no kernel reaches it
            raise ValidationError("lambda must be finite, got inf")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not self.s >= 0.0:
            raise ValidationError(f"s must be >= 0, got {self.s!r}")

    def effective_threshold(self, prior: Prior) -> float:
        extra = math.log(8.0 * prior.p_max) / self.k if self.include_correction else 0.0
        return self.lam + extra


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible search settings; recorded in every result.

    ``restarts`` and ``seed`` draw the random starts, so they act only on
    families with more than :data:`GRID_DIM_LIMIT` free parameters; smaller
    families are searched from their grid winner.  Every search refines
    until its step falls below :data:`_LOCAL_STEP_TOL`.
    """

    grid_points_per_parameter: int = 101
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.grid_points_per_parameter < 2:
            raise ValidationError("need at least 2 grid points per parameter")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")


@dataclass(frozen=True)
class GuaranteeResult:
    passed: bool
    margin: float
    utility_rate: float
    threshold: float


@dataclass(frozen=True, eq=False)
class TradeoffPoint:
    """One optimized point of the privacy-utility trade-off curve."""

    lam: float
    s: float
    k: int
    privacy_rate: float
    utility_rate: float
    kernel: PolicyKernel
    feasible: bool
    params: tuple[float, ...]
    seed: int


# ---------------------------------------------------------------------------
# Rate evaluation (scalar and batched)
# ---------------------------------------------------------------------------


def _unordered_pairs() -> tuple[np.ndarray, np.ndarray, dict[TestTarget, list[int]]]:
    """The six unordered cross-group law pairs of both targets.

    Returns the law indices of each pair's two sides and, per target, the
    positions of its four pairs in that list.  Chernoff information is
    symmetric, so the two pairs the targets share are scored once.
    """
    pairs: list[tuple[int, int]] = []
    columns: dict[TestTarget, list[int]] = {}
    for target in (TestTarget.UTILITY, TestTarget.PRIVACY):
        cols = []
        for a, b in grouped_pairs(target):
            pair = tuple(sorted((_UP_INDEX[a], _UP_INDEX[b])))
            if pair not in pairs:
                pairs.append(pair)
            cols.append(pairs.index(pair))
        columns[target] = cols
    first, second = np.array(pairs).T
    return first, second, columns


_FIRST, _SECOND, _COLUMNS = _unordered_pairs()

#: The pair a screened batch scores first: law (0, 1) against law (1, 0), a
#: utility pair that the privacy target shares.  On its own it rules out most
#: grid rows below a utility floor.
_SCREEN = next(
    i for i, pair in enumerate(zip(_FIRST, _SECOND))
    if pair == (_UP_INDEX[(0, 1)], _UP_INDEX[(1, 0)])
)
_REST = np.array([i for i in range(len(_FIRST)) if i != _SCREEN])
_ALL = np.arange(len(_FIRST))

#: Probabilities per stacked array in one Chernoff kernel call; larger
#: candidate batches are scored in chunks of this size, so memory stays flat.
_CHUNK_ELEMENTS = 8192

#: Candidates pushed through the model at once by :func:`_evaluate`; a larger
#: batch (the optimizer grid) is scored in chunks of this many rows, so its
#: kernel matrices and laws never exist all at once.
_LAW_CHUNK_ROWS = 4096


def _pair_rates(
    by_symbol: np.ndarray, pairs: np.ndarray, tilts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff informations of the given unordered pairs of every row and
    their tilts mu*, two ``(G, len(pairs))`` arrays; ``by_symbol`` is the
    ``(m, G, 4)`` law view and ``tilts``, if given, Newton's starting tilts
    in the same layout.

    The pairs of a chunk of rows are gathered straight into two
    symbol-major ``(m, len(pairs) g)`` arrays, one index per side, and
    scored by one call of the Newton kernel.
    """
    m, G, _ = by_symbol.shape
    first, second = _FIRST[pairs], _SECOND[pairs]
    rates = np.empty((G, len(pairs)))
    mus = np.empty((G, len(pairs)))
    size = max(1, _CHUNK_ELEMENTS // (len(pairs) * m))
    for start in range(0, G, size):
        rows = slice(start, start + size)
        chunk = by_symbol[:, rows]
        rate, mu = chernoff_symbol_major(
            chunk[:, :, first].reshape(m, -1),
            chunk[:, :, second].reshape(m, -1),
            None if tilts is None else tilts[rows].ravel(),
            return_tilt=True,
        )
        rates[rows] = rate.reshape(-1, len(pairs))
        mus[rows] = mu.reshape(-1, len(pairs))
    return rates, mus


def _target_rates(rates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Utility and privacy rates from all six pair rates of each row."""
    utility = rates[:, _COLUMNS[TestTarget.UTILITY]].min(axis=1)
    privacy = rates[:, _COLUMNS[TestTarget.PRIVACY]].min(axis=1)
    return utility / k, privacy / k


def _batch_both_rates(
    laws: np.ndarray, k: int, floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Utility and privacy Chernoff rates per batch row; laws is (G, 4, m).

    Each target's rate is the minimum over its four pairs, divided by k; a
    pair with disjoint supports is perfectly distinguishable (+inf), so the
    rate is +inf only when all four are.  Without a ``floor`` above 0 all
    six unordered pairs are scored together.  With one, the :data:`_SCREEN`
    pair is scored first, and the other five only on the rows whose
    screening rate / k is at least ``floor - _TIE_TOL``; every other row
    keeps that rate as its utility, which is below the floor, and gets
    privacy +inf.  The kernel scores each pair by itself, so a scored row
    gets the same bits either way.
    """
    by_symbol = laws.transpose(2, 0, 1)  # (m, G, 4) view
    if floor > 0.0:
        screen = _pair_rates(by_symbol, np.array([_SCREEN]))[0][:, 0]
        utility = screen / k
        privacy = np.full(len(screen), np.inf)
        kept = np.flatnonzero(utility >= floor - _TIE_TOL)
        rates = np.empty((len(kept), len(_FIRST)))
        rates[:, _SCREEN] = screen[kept]
        rates[:, _REST] = _pair_rates(by_symbol[:, kept], _REST)[0]
        utility[kept], privacy[kept] = _target_rates(rates, k)
        return utility, privacy
    return _target_rates(_pair_rates(by_symbol, _ALL)[0], k)


def utility_rate(laws: OutputLaws) -> float:
    """(1/k) * min cross-group utility Chernoff information of block laws."""
    utility, _ = _batch_both_rates(laws.arrays()[None, :, :], laws.k)
    return float(utility[0])


def privacy_objective(laws: OutputLaws) -> float:
    """(1/k) * min cross-group privacy Chernoff information of block laws.

    Laws with partially overlapping supports are evaluated on the common
    support.  A pair with disjoint supports is perfectly distinguishable and
    never attains the minimum, so the objective is +inf only when all four
    required pairs have disjoint supports.  Identical laws give 0.
    """
    _, privacy = _batch_both_rates(laws.arrays()[None, :, :], laws.k)
    return float(privacy[0])


def guarantee_check(laws: OutputLaws, cfg: GuaranteeConfig, prior: Prior) -> GuaranteeResult:
    """Compare the utility rate of block laws against the effective threshold."""
    if laws.k != cfg.k:
        raise ValidationError(f"laws have k={laws.k} but the config says k={cfg.k}")
    rate = utility_rate(laws)
    threshold = cfg.effective_threshold(prior)
    margin = rate - threshold
    return GuaranteeResult(
        passed=bool(margin >= -MARGIN_SLACK),
        margin=margin,
        utility_rate=rate,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Policy optimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _FamilyEval:
    """Cached rate evaluation of a candidate batch within one policy family."""

    space: PolicySpace
    params: np.ndarray  # (G, dim)
    utility: np.ndarray  # (G,)
    privacy: np.ndarray  # (G,)


def _evaluate(space: PolicySpace, params: np.ndarray, floor: float = 0.0) -> _FamilyEval:
    """Rates of a candidate batch, pushed through the model
    :data:`_LAW_CHUNK_ROWS` rows at a time and screened against ``floor``
    by :func:`_batch_both_rates`; ``params`` is kept whole."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    utility = np.empty(len(params))
    privacy = np.empty(len(params))
    for start in range(0, len(params), _LAW_CHUNK_ROWS):
        rows = slice(start, start + _LAW_CHUNK_ROWS)
        utility[rows], privacy[rows] = _batch_both_rates(
            space.batch_laws(params[rows]), space.k, floor
        )
    return _FamilyEval(space=space, params=params, utility=utility, privacy=privacy)


def _tied(utility: np.ndarray, privacy: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of the candidates tied for best: the feasible ones within
    :data:`_TIE_TOL` of the smallest privacy rate or, when none is
    feasible, those within it of the smallest guarantee violation."""
    feasible = utility >= threshold
    if feasible.any():
        pool = np.flatnonzero(feasible)
        vals = privacy[pool]
    else:
        pool = np.arange(len(feasible))
        vals = threshold - utility
    return pool[vals <= vals.min() + _TIE_TOL]


def _best(ev: _FamilyEval, threshold: float) -> int:
    """Index of the best candidate in a batch: among the :func:`_tied` ones,
    the lexicographically smallest parameter vector.  This is the
    optimizer's only ranking of candidates."""
    tied = _tied(ev.utility, ev.privacy, threshold)
    if len(tied) == 1:
        return int(tied[0])
    # columns on which all tied rows agree do not order them; the row index
    # is the least significant key, so there is a key when all agree
    params = ev.params[tied]
    keys = params[:, (params != params[0]).any(axis=0)]
    return int(tied[np.lexsort((tied, *keys.T[::-1]))[0]])


def _probes(
    space: PolicySpace,
    x: np.ndarray,
    slack: np.ndarray,
    steps: np.ndarray,
    exact: np.ndarray,
    columns: np.ndarray,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probes of each row of ``x`` along each direction of
    :func:`_pattern_directions`, scaled by the row's step and clipped to
    [0, 1]: their moved values and moves, ``(G, D, t)`` arrays, and whether
    each is in the simplex, a ``(G, D)`` mask.

    ``slack`` holds each row's :meth:`PolicySpace.slice_slack`.  A probe's
    moves lower the slack of the slices they touch, and the probe is in the
    simplex when every new slack is at least -1e-12, as
    :meth:`PolicySpace.params_feasible` decides from its own sums.  The two
    differ only by rounding, at most one unit of 2.2e-16 per addition, so a
    probe whose slack lies that close to the bound, and every probe of a
    row that ``exact`` marks (a start outside the simplex), is decided by
    :meth:`PolicySpace.params_feasible` itself.  A column of -1 is no move.
    """
    value = np.clip(x[:, columns] + steps[:, None, None] * signs, 0.0, 1.0)
    move = value - x[:, columns]
    slices = space.param_slices[columns]
    margin = slack[:, slices] - move  # (G, D, t)
    if columns.shape[1] > 1:  # diagonals
        second = columns[:, 1] >= 0
        shared = second & (slices[:, 0] == slices[:, 1])
        margin[:, shared, 0] -= move[:, shared, 1]
        margin = np.where(second & ~shared, margin.min(axis=2), margin[..., 0])
    else:
        margin = margin[..., 0]
    margin += 1e-12
    kept = margin >= 0.0
    longest = len(space.slice_groups[-1][0])
    unsure = (np.abs(margin) <= (2 * longest + 4) * np.finfo(float).eps) | exact[:, None]
    if unsure.any():
        a, d = np.nonzero(unsure)
        kept[a, d] = space.params_feasible(_probe_params(x[a], columns[d], value[a, d]))
    return value, move, kept


def _probe_params(base: np.ndarray, columns: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Parameter vectors of probes: ``base`` (one row per probe, or one for
    all) with each probe's ``columns`` set to its ``value``, both (n, t)."""
    params = np.array(np.broadcast_to(base, (len(columns), base.shape[-1])))
    for t in range(columns.shape[1]):
        rows = np.flatnonzero(columns[:, t] >= 0)
        params[rows, columns[rows, t]] = value[rows, t]
    return params


def _probe_laws(
    space: PolicySpace, laws: np.ndarray, columns: np.ndarray, move: np.ndarray
) -> np.ndarray:
    """Laws of probes in law space: each probe's incumbent laws, a row of
    ``laws`` (n, 4, m), plus ``move * law_map[column]`` for each of its
    (column, move) pairs (n, t), clipped at 0; a column of -1 is no move.
    Only elementwise updates, so a probe's laws depend on its row alone."""
    out = laws + move[:, 0, None, None] * space.law_map[columns[:, 0]]
    if columns.shape[1] > 1 and (two := np.flatnonzero(columns[:, 1] >= 0)).size:
        out[two] += move[two, 1, None, None] * space.law_map[columns[two, 1]]
    return np.maximum(out, 0.0, out=out)


def _local_refine(
    space: PolicySpace,
    threshold: float,
    starts: np.ndarray,
    step: float,
    tol: float,
    directions: tuple[np.ndarray, np.ndarray],
    max_moves: int = 2000,
) -> _FamilyEval:
    """Pattern search from every row of ``starts`` in lockstep: probe scaled
    directions, shrink on failure; returns the refined starts, row for row.

    Each start keeps its own incumbent x, step and move count, and retires
    once its step falls below ``tol`` or it has made ``max_moves`` moves.
    Probes are built and scored in law space (:func:`_probes`): each start
    keeps its incumbent's laws, the slack of each free slice and the tilt
    mu* of each of its six Chernoff pairs.  A probe that moves parameter j
    by t has laws ``laws(x) + t * law_map[j]`` (plus the second term of a
    diagonal), clipped at 0, and its slack decides whether it is in the
    simplex.  Newton starts each of its pairs at the incumbent's tilt.  Only
    a start that moved has its laws and slack rebuilt, from its new
    parameters by :meth:`PolicySpace.batch_laws`.

    On every step the probes of all active starts are stacked and scored
    by one rate batch, and the results are split back per start.  A probe
    must beat its start's incumbent by more than :data:`_TIE_TOL` (a
    feasible probe beats an infeasible incumbent); the best such probe by
    :func:`_best` becomes the new incumbent, with the rates and tilts it
    was scored with.  Each probe's laws and rates depend on its own start
    alone, whatever the batch, so every start follows the path it would
    follow if refined by itself.  The laws a probe was scored on equal
    those :meth:`PolicySpace.kernel_from_params` builds from its parameters
    only to rounding, so the caller re-verifies the point it reports from
    scratch.  Without directions (a family with no parameters) the starts
    are returned as evaluated.
    """
    columns, signs = directions
    if not (columns[:, 1:] >= 0).any():  # no diagonals: one move per probe
        columns, signs = columns[:, :1], signs[:, :1]
    x = np.array(starts, dtype=float)  # the starts stay untouched
    laws = space.batch_laws(x)
    slack = space.slice_slack(x)
    rates, tilts = _pair_rates(laws.transpose(2, 0, 1), _ALL)
    utility, privacy = _target_rates(rates, space.k)
    exact = ~space.params_feasible(x)
    steps = np.full(len(x), float(step))
    moves = np.zeros(len(x), dtype=int)
    active = np.arange(len(x) if len(columns) else 0)
    while (active := active[(steps[active] >= tol) & (moves[active] < max_moves)]).size:
        value, move, kept = _probes(
            space, x[active], slack[active], steps[active], exact[active], columns, signs
        )
        a, d = np.nonzero(kept)
        owner = active[a]
        probe_laws = _probe_laws(space, laws[owner], columns[d], move[a, d])
        probe_rates, probe_tilts = _pair_rates(probe_laws.transpose(2, 0, 1), _ALL, tilts[owner])
        probe_utility, probe_privacy = _target_rates(probe_rates, space.k)
        wins = np.where(
            utility[owner] >= threshold,
            (probe_utility >= threshold) & (probe_privacy < privacy[owner] - _TIE_TOL),
            (probe_utility >= threshold)
            | ((threshold - probe_utility) < (threshold - utility[owner]) - _TIE_TOL),
        )
        # each active start's winning probes are one run of ``won``
        won = np.flatnonzero(wins)
        bounds = np.searchsorted(a[won], np.arange(len(active) + 1))
        steps[active[bounds[1:] == bounds[:-1]]] *= 0.5
        movers = np.flatnonzero(bounds[1:] > bounds[:-1])
        for pos in movers:
            i = active[pos]
            mine = won[bounds[pos] : bounds[pos + 1]]
            # only the tied probes need their parameter vectors
            mine = mine[_tied(probe_utility[mine], probe_privacy[mine], threshold)]
            params = _probe_params(x[i], columns[d[mine]], value[a[mine], d[mine]])
            pick = _best(
                _FamilyEval(space, params, probe_utility[mine], probe_privacy[mine]), threshold
            )
            choice = mine[pick]
            x[i] = params[pick]
            utility[i], privacy[i] = probe_utility[choice], probe_privacy[choice]
            tilts[i] = probe_tilts[choice]
        if movers.size:
            moved = active[movers]
            moves[moved] += 1
            laws[moved] = space.batch_laws(x[moved])
            slack[moved] = space.slice_slack(x[moved])
            exact[moved] = False
    return _FamilyEval(space, x, utility, privacy)


def _pattern_directions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """+-1 coordinate moves, plus all two-coordinate diagonals for small dims.

    Each direction is two (column, sign) pairs, as a ``(D, 2)`` array of
    columns and one of signs; a coordinate move has column -1 and sign 0 in
    its second pair.
    """
    columns = [(j, -1) for j in range(dim) for _ in (1.0, -1.0)]
    signs = [(sgn, 0.0) for _ in range(dim) for sgn in (1.0, -1.0)]
    if dim <= GRID_DIM_LIMIT:
        for j in range(dim):
            for jj in range(j + 1, dim):
                for s1 in (1.0, -1.0):
                    for s2 in (1.0, -1.0):
                        columns.append((j, jj))
                        signs.append((s1, s2))
    return (
        np.array(columns, dtype=int).reshape(-1, 2),
        np.array(signs, dtype=float).reshape(-1, 2),
    )


def _reverify(
    model: SourceModel, cfg: GuaranteeConfig, kernel: PolicyKernel
) -> tuple[float, GuaranteeResult]:
    """Privacy rate and guarantee check of ``kernel``, from laws rebuilt by
    :func:`induced_output_laws` (which validates the kernel first)."""
    laws = induced_output_laws(model, kernel)
    return privacy_objective(laws), guarantee_check(laws, cfg, model.prior)


def optimize_policy(
    model: SourceModel,
    cfg: GuaranteeConfig,
    search: SearchConfig = SearchConfig(),
    warm_starts: Sequence[PolicyKernel] = (),
    _grid_eval: "_FamilyEval | None" = None,
) -> TradeoffPoint:
    """Find the kernel minimizing the privacy rate within the guarantee set.

    Families with at most :data:`GRID_DIM_LIMIT` free parameters refine the
    winner of an exhaustive per-axis grid, starting at the grid step; larger
    families refine seeded random starts, starting at step 0.25.
    ``warm_starts`` adds deterministic starts: kernels of this family (block
    length ``cfg.k``, slack ``cfg.s``), such as the block extension of a
    smaller-k optimum, which the family turns into its parameters.  All
    starts are refined together by :func:`_local_refine` and :func:`_best`
    ranks the results.  When no candidate passes the guarantee the
    least-violating kernel is returned with ``feasible=False``.

    The returned kernel is re-validated and its rates recomputed from
    scratch by :func:`_reverify`, independently of the search bookkeeping.
    """
    space = _grid_eval.space if _grid_eval is not None else policy_space(model, cfg.s, cfg.k)
    threshold = cfg.effective_threshold(model.prior)
    starts = [space.params_from_kernel(kernel) for kernel in warm_starts]
    if space.dim <= GRID_DIM_LIMIT:
        grid = _grid_eval if _grid_eval is not None else grid_evaluation(space, search, threshold)
        starts.insert(0, grid.params[_best(grid, threshold)])
        step = 1.0 / (search.grid_points_per_parameter - 1)
    else:
        starts.extend(space.random_params(np.random.default_rng(search.seed), search.restarts))
        step = 0.25
    refined = _local_refine(
        space, threshold, np.stack(starts), step, _LOCAL_STEP_TOL,
        _pattern_directions(space.dim),
    )
    choice = _best(refined, threshold)
    kernel = space.kernel_from_params(refined.params[choice])
    privacy, check = _reverify(model, cfg, kernel)
    return TradeoffPoint(
        lam=cfg.lam,
        s=cfg.s,
        k=cfg.k,
        privacy_rate=privacy,
        utility_rate=check.utility_rate,
        kernel=kernel,
        feasible=bool(refined.utility[choice] >= threshold) and check.passed,
        params=tuple(float(v) for v in refined.params[choice]),
        seed=search.seed,
    )


def grid_evaluation(space: PolicySpace, search: SearchConfig, floor: float = 0.0) -> _FamilyEval:
    """Rates of every feasible point of the per-axis grid over ``space``, for
    reuse across many lambda values; at dim 0 the grid is one empty vector.

    The parameter grid is built in one piece, ``points**dim`` rows, so
    callers keep ``space.dim`` within :data:`GRID_DIM_LIMIT`, and a grid of
    more than :data:`~privtest.probkit.DEFAULT_ENUM_CAP` rows is refused
    before it is built.  Its feasible rows are scored :data:`_LAW_CHUNK_ROWS`
    at a time, so the laws add a fixed amount of memory, not one per row.

    ``floor`` is the smallest effective threshold the grid will be ranked
    at.  Above 0, a row whose screening utility pair already falls below it
    (see :func:`_batch_both_rates`) keeps that pair's rate as its utility
    and gets privacy +inf.  :func:`_best` at any threshold at or above the
    floor then picks what it picks on the unscreened grid: a dropped row is
    infeasible there, and its violation exceeds that of a row clearing the
    floor by more than :data:`_TIE_TOL`.  If no row clears the floor, the
    winner is the row of largest utility, which its screening rate bounds
    from above, so two passes find it: the row of the largest screening
    rate is scored in full, then every row whose screening rate reaches
    that row's utility.  A third pass would find nothing, as the bound only
    rises; every row left keeps its screening rate, below the winner's
    utility by more than the tolerance.
    """
    points = search.grid_points_per_parameter
    rows = points**space.dim
    if rows > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{points}^{space.dim} = {rows} grid points exceed the cap "
            f"{DEFAULT_ENUM_CAP}; use fewer grid points per parameter (--grid-points)"
        )
    axis = np.linspace(0.0, 1.0, points)
    grid = axis[np.indices((points,) * space.dim).reshape(space.dim, rows)].T
    grid = grid[space.params_feasible(grid)]
    ev = _evaluate(space, grid, floor)
    if floor > 0.0 and not (ev.utility >= floor).any():
        # every threshold now ranks by the largest utility; twice the
        # tolerance covers the rounding of threshold - utility
        top = np.argmax(ev.utility)
        full = _evaluate(space, grid[[top]])
        ev.utility[top], ev.privacy[top] = full.utility[0], full.privacy[0]
        rest = np.flatnonzero(ev.utility >= ev.utility[top] - 2 * _TIE_TOL)
        rest = rest[rest != top]
        if rest.size:
            full = _evaluate(space, grid[rest])
            ev.utility[rest], ev.privacy[rest] = full.utility, full.privacy
    return ev


def tradeoff_sweep(
    model: SourceModel,
    lambdas: Sequence[float],
    s_values: Sequence[float],
    cfg_template: GuaranteeConfig = GuaranteeConfig(lam=0.0),
    search: SearchConfig = SearchConfig(),
) -> list[TradeoffPoint]:
    """One optimized point per (s, lambda) pair, in (s outer, lambda inner) order.

    Infeasible points are emitted with ``feasible=False`` rather than
    dropped.  Per-point seeds derive deterministically from the base seed and
    the pair's indices, so sweeps can be partitioned without changing
    results.  The family's grid rates are computed once per s and shared by
    every lambda, screened against the threshold of the smallest lambda.
    """
    points = []
    for s_idx, s in enumerate(s_values):
        cfg_s = replace(cfg_template, s=float(s))
        cfgs = [replace(cfg_s, lam=float(lam)) for lam in lambdas]
        space = policy_space(model, cfg_s.s, cfg_s.k)
        cache = None
        if space.dim <= GRID_DIM_LIMIT:
            floor = min((cfg.effective_threshold(model.prior) for cfg in cfgs), default=0.0)
            cache = grid_evaluation(space, search, floor)
        for lam_idx, cfg in enumerate(cfgs):
            point_seed = int(search.seed) * 1_000_003 + lam_idx * 1009 + s_idx
            point = optimize_policy(
                model, cfg, replace(search, seed=point_seed), _grid_eval=cache
            )
            points.append(point)
    return points


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Comparison of optimized rates at block lengths k and n = k*l."""

    point_k: TradeoffPoint
    point_n: TradeoffPoint
    extended_rate: float
    extended_feasible: bool

    @property
    def holds(self) -> bool:
        return self.point_k.privacy_rate >= self.point_n.privacy_rate - MONOTONICITY_SLACK


def monotonicity_check(
    model: SourceModel,
    cfg: GuaranteeConfig,
    l: int,
    search: SearchConfig = SearchConfig(),
) -> MonotonicityReport:
    """Verify that the optimized rate cannot increase with the block length.

    Optimizes at block length k and at n = k*l (same lambda; the correction
    term, when enabled, shrinks with n).  The block-wise extension of the
    k-optimum is both a warm start for the n-level search and an explicit
    feasibility witness, re-verified by :func:`_reverify` as every reported
    point is, so the check can only fail by more than float noise if the
    n-level search is broken.  The n-level search is heuristic, hence
    :data:`MONOTONICITY_SLACK`.  An ``l`` below 1, or an n above
    :data:`DEFAULT_BLOCK_CAP`, is refused before any search.
    """
    if l < 1:
        raise ValidationError("l must be >= 1")
    require_block_length(cfg.k * l)
    cfg_n = replace(cfg, k=cfg.k * l)
    point_k = optimize_policy(model, cfg, search)
    extended = blockwise_extend(point_k.kernel, l)
    extended_rate, extended_check = _reverify(model, cfg_n, extended)
    return MonotonicityReport(
        point_k=point_k,
        point_n=optimize_policy(model, cfg_n, search, [extended]),
        extended_rate=extended_rate,
        extended_feasible=extended_check.passed,
    )


def asymptotic_guarantee(
    model: SourceModel,
    cfg_template: GuaranteeConfig,
    k_max: int,
    search: SearchConfig = SearchConfig(),
) -> TradeoffPoint:
    """Best optimized point over block lengths 1..k_max.

    This is an UPPER BOUND on the asymptotic minimum privacy error exponent
    (the true value is an infimum over all block lengths, which no finite
    sweep can certify).  Each block length is warm-started with the block
    extensions of the feasible optima found at its divisors, so the report
    is nonincreasing in ``k_max`` by construction.  The first feasible
    point of smallest privacy rate wins (the first of smallest rate when
    none is feasible).  A ``k_max`` outside 1..:data:`DEFAULT_BLOCK_CAP` is
    refused before any search.
    """
    require_block_length(k_max)
    found: list[TradeoffPoint] = []
    for k in range(1, k_max + 1):
        warm = [blockwise_extend(p.kernel, k // p.k) for p in found if p.feasible and k % p.k == 0]
        found.append(optimize_policy(model, replace(cfg_template, k=k), search, warm))
    return min(found, key=lambda p: (not p.feasible, p.privacy_rate))
