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

The search works in law space (:func:`_local_refine`): the induced laws
are affine in the parameters (:attr:`PolicySpace.law_map`), so a probe's
laws are its start's plus a rank-one update.  Only the starts and the moves
build kernel matrices; the reported point is built and scored again.

One selection rule decides every comparison, in :func:`_best`: feasible
candidates first, then the smallest privacy rate (or, when none is feasible,
the smallest guarantee violation), where values within :data:`_TIE_TOL` of
the best are tied and the lexicographically smallest parameter vector among
the tied wins.  It picks the grid winner, each pattern-search move (among
the probes that beat the incumbent by more than the tolerance) and the final
result among the refined starts.

Grid rates are batched end to end: :meth:`PolicySpace.batch_laws` pushes
a candidate batch through the model :data:`_LAW_CHUNK_ROWS` rows at a time,
and :func:`privtest.bayes._law_set_rates` scores the laws of every row, the
scorer behind :func:`~privtest.bayes.exponent_chernoff`, so the search, the
guarantee check and the exponent route agree bit for bit.  This module keeps
no rate code of its own.  A grid ranked only at thresholds above 0 is
screened by one utility pair first (:func:`grid_evaluation`); a row scored in
full gets the same bits either way.

The drivers (:func:`tradeoff_sweep`, :func:`monotonicity_check` and
:func:`asymptotic_guarantee`) only order their searches.
:func:`_search_in_order` runs them: it shares one grid per family (s, k)
and warm-starts each search with the block extension of the best earlier
point it admits for free (feasible, at a divisor of k, an s no larger and
a lambda no smaller), so its points are monotone up to the tie band.

The per-block optimum at any finite k is only an upper bound on the
asymptotic minimum privacy exponent (the true quantity is an infimum over
all block lengths); :func:`asymptotic_guarantee` reports the best bound over
k = 1..k_max and labels it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, ValidationError
from .model import (
    SIMPLEX_TOL,
    OutputLaws,
    PolicyKernel,
    PolicySpace,
    Prior,
    SourceModel,
    _table_sums,
    blockwise_extend,
    induced_output_laws,
    policy_space,
    require_block_length,
    require_supply_slack,
    validate_policy,
)
from .bayes import _law_set_rates
from .probkit import DEFAULT_ENUM_CAP

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
        require_block_length(self.k)
        require_supply_slack(self.s)

    def effective_threshold(self, prior: Prior) -> float:
        extra = math.log(8.0 * prior.p_max) / self.k if self.include_correction else 0.0
        return self.lam + extra


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible search settings; recorded in every result.

    ``restarts`` and ``seed`` draw the random starts, so they act only on
    families with more than :data:`GRID_DIM_LIMIT` free parameters; smaller
    families are searched from their grid winner.  A negative seed is
    refused for every family, whether or not it draws.  Every search refines
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


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
# The guarantee check
# ---------------------------------------------------------------------------


def _guarantee(rate: float, cfg: GuaranteeConfig, prior: Prior) -> GuaranteeResult:
    """Compare a utility rate against the effective threshold of ``cfg``."""
    threshold = cfg.effective_threshold(prior)
    margin = rate - threshold
    return GuaranteeResult(
        passed=bool(margin >= -MARGIN_SLACK),
        margin=margin,
        utility_rate=rate,
        threshold=threshold,
    )


def guarantee_check(laws: OutputLaws, cfg: GuaranteeConfig, prior: Prior) -> GuaranteeResult:
    """Compare the utility rate of block laws, scored by
    :func:`privtest.bayes._law_set_rates` (the rate of
    :func:`~privtest.bayes.exponent_chernoff`), against the effective threshold."""
    if laws.k != cfg.k:
        raise ValidationError(f"laws have k={laws.k} but the config says k={cfg.k}")
    utility = _law_set_rates(laws.arrays()[None], laws.k)[0]
    return _guarantee(float(utility[0]), cfg, prior)


# ---------------------------------------------------------------------------
# Policy optimization
# ---------------------------------------------------------------------------


#: Candidates pushed through the model at once by :func:`_evaluate`; a larger
#: batch (the optimizer grid) is scored in chunks of this many rows, so its
#: kernel matrices and laws never exist all at once.
_LAW_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class _FamilyEval:
    """Cached rate evaluation of a candidate batch within one policy family."""

    params: np.ndarray  # (G, dim)
    utility: np.ndarray  # (G,)
    privacy: np.ndarray  # (G,)


def _evaluate(space: PolicySpace, params: np.ndarray, floor: float = 0.0) -> _FamilyEval:
    """Rates of a candidate batch, pushed through the model
    :data:`_LAW_CHUNK_ROWS` rows at a time and scored by
    :func:`privtest.bayes._law_set_rates`, screened against ``floor`` less
    :data:`_TIE_TOL` (so unscreened at ``floor`` 0); ``params`` is kept whole."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    utility = np.empty(len(params))
    privacy = np.empty(len(params))
    for start in range(0, len(params), _LAW_CHUNK_ROWS):
        rows = slice(start, start + _LAW_CHUNK_ROWS)
        utility[rows], privacy[rows], _, _ = _law_set_rates(
            space.batch_laws(params[rows]), space.k, floor - _TIE_TOL
        )
    return _FamilyEval(params=params, utility=utility, privacy=privacy)


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


def _probe_sources(space: PolicySpace, columns: np.ndarray) -> np.ndarray:
    """For the ``(D, t)`` direction columns of a search, the slices each
    direction's moves touch, as an ``(L, D, t)`` index into a probe's row
    ``[x, value.ravel(), 0]`` of :func:`_probes`: slot (d, j) lays out the
    slice of move j as :attr:`PolicySpace.slice_columns` does (padding
    alone if there is no move), with each entry that a move writes read
    from that move's value (the last such, as :func:`_probe_params` writes).
    """
    count, moves = columns.shape
    table = np.where(columns >= 0, space.slice_columns[:, space.param_slices[columns]], -1)
    for j in reversed(range(moves)):
        mine = (table == columns[:, j, None]) & (columns[:, j, None] >= 0)
        table = np.where(mine, space.dim + np.arange(count)[:, None] * moves + j, table)
    return table


def _probes(
    x: np.ndarray,
    steps: np.ndarray,
    columns: np.ndarray,
    signs: np.ndarray,
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probes of each row of ``x`` along each direction of
    :func:`_pattern_directions`, scaled by the row's step and clipped to
    [0, 1]: their moved values and moves, ``(G, D, t)`` arrays, and whether
    each is in the simplex, a ``(G, D)`` mask.

    Every row of ``x`` must lie in the simplex.  A probe differs from its
    row only in [0, 1] values of the slices its moves touch, so it is in
    the simplex when each of those slices, summed first to last by
    :func:`~privtest.model._table_sums` with the moved values in place
    (``sources``, from :func:`_probe_sources`), is at most
    1 + :data:`~privtest.model.SIMPLEX_TOL`: the mask of
    :meth:`PolicySpace.params_feasible`, as both run the same lines.  A
    column of -1 is no move.
    """
    value = np.clip(x[:, columns] + steps[:, None, None] * signs, 0.0, 1.0)
    move = value - x[:, columns]
    source = np.concatenate([x, value.reshape(len(x), -1), np.zeros((len(x), 1))], axis=1)
    return value, move, np.all(_table_sums(source, sources) <= 1.0 + SIMPLEX_TOL, axis=2)


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

    Every start must lie in the simplex (:meth:`PolicySpace.params_feasible`),
    and so does every probe it accepts.  Each start keeps its own incumbent
    x, step and move count, and retires once its step falls below ``tol``
    or it has made ``max_moves`` moves.  Probes are built and scored in law
    space (:func:`_probes`): each start keeps its incumbent's laws and the
    tilt mu* of each of its six Chernoff pairs.  A probe that moves
    parameter j by t has laws ``laws(x) + t * law_map[j]`` (plus the second
    term of a diagonal), clipped at 0, and the sums of the slices it
    touches decide whether it is in the simplex.  Newton starts each of its
    pairs at the incumbent's tilt.  Only a start that moved has its laws
    rebuilt, from its new parameters by :meth:`PolicySpace.batch_laws`.

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
    sources = _probe_sources(space, columns)
    x = np.array(starts, dtype=float)  # the starts stay untouched
    laws = space.batch_laws(x)
    utility, privacy, _, tilts = _law_set_rates(laws, space.k)
    steps = np.full(len(x), float(step))
    moves = np.zeros(len(x), dtype=int)
    active = np.arange(len(x) if len(columns) else 0)
    while (active := active[(steps[active] >= tol) & (moves[active] < max_moves)]).size:
        value, move, kept = _probes(x[active], steps[active], columns, signs, sources)
        a, d = np.nonzero(kept)
        owner = active[a]
        probe_laws = _probe_laws(space, laws[owner], columns[d], move[a, d])
        probe_utility, probe_privacy, _, probe_tilts = _law_set_rates(
            probe_laws, space.k, tilts=tilts[owner]
        )
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
            pick = _best(_FamilyEval(params, probe_utility[mine], probe_privacy[mine]), threshold)
            choice = mine[pick]
            x[i] = params[pick]
            utility[i], privacy[i] = probe_utility[choice], probe_privacy[choice]
            tilts[i] = probe_tilts[choice]
        if movers.size:
            moved = active[movers]
            moves[moved] += 1
            laws[moved] = space.batch_laws(x[moved])
    return _FamilyEval(x, utility, privacy)


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
    """Privacy rate and guarantee check of ``kernel``, from one scoring of
    the laws rebuilt by :func:`induced_output_laws` (which validates the
    kernel first)."""
    laws = induced_output_laws(model, kernel)
    utility, privacy, _, _ = _law_set_rates(laws.arrays()[None], laws.k)
    return float(privacy[0]), _guarantee(float(utility[0]), cfg, model.prior)


def optimize_policy(
    model: SourceModel,
    cfg: GuaranteeConfig,
    search: SearchConfig = SearchConfig(),
    warm_starts: Sequence[PolicyKernel] = (),
    _family: "tuple[PolicySpace, _FamilyEval | None] | None" = None,
) -> TradeoffPoint:
    """Find the kernel minimizing the privacy rate within the guarantee set.

    Families with at most :data:`GRID_DIM_LIMIT` free parameters refine the
    winner of an exhaustive per-axis grid, starting at the grid step; larger
    families refine seeded random starts, starting at step 0.25.
    ``warm_starts`` adds deterministic starts: kernels at block length
    ``cfg.k`` that put mass only where this family may (any slack up to
    ``cfg.s``) and that :func:`validate_policy` accepts.  Such a row may sum
    to 1 + 1e-9, past the simplex, so a slice of a start outside it that
    sums past 1 is scaled back to sum 1; other starts are used bit for bit.
    All starts are refined together by :func:`_local_refine`
    and :func:`_best` ranks the results.  When no candidate passes the
    guarantee the least-violating kernel is returned with ``feasible=False``.

    The returned kernel is re-validated and its rates recomputed from
    scratch by :func:`_reverify`, independently of the search bookkeeping.
    """
    space, grid = _family or (policy_space(model, cfg.s, cfg.k), None)
    threshold = cfg.effective_threshold(model.prior)
    starts = []
    for kernel in warm_starts:
        if not (report := validate_policy(kernel)).ok:
            raise ValidationError("warm start violates its invariants: " + report.violations[0])
        starts.append(params := space.params_from_kernel(kernel))
        if not space.params_feasible(params)[0]:  # a row summing to 1 + 1e-9 is valid
            sums = space._slice_sums(np.append(params, 0.0)[None])[0]
            params /= np.maximum(sums, 1.0)[space.param_slices]
    if space.dim <= GRID_DIM_LIMIT:
        grid = grid if grid is not None else grid_evaluation(space, search, threshold)
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
    by more than :data:`_TIE_TOL` (see :func:`privtest.bayes._law_set_rates`)
    keeps that pair's rate as its utility and gets privacy +inf.
    :func:`_best` at any threshold at or above the floor then picks what it
    picks on the unscreened grid: a dropped row is infeasible there, and its violation exceeds that of a row clearing the
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
    # the simplex check copies what it checks, so it takes the grid in chunks
    feasible = [space.params_feasible(grid[i : i + _LAW_CHUNK_ROWS])
                for i in range(0, rows, _LAW_CHUNK_ROWS)]
    grid = grid[np.concatenate(feasible)]
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


def _extend(point: TradeoffPoint, k: int) -> PolicyKernel:
    """The block extension of ``point``'s kernel to block length k."""
    return blockwise_extend(point.kernel, k // point.k)


def _search_in_order(
    model: SourceModel, jobs: Sequence[tuple[GuaranteeConfig, SearchConfig]]
) -> list[TradeoffPoint]:
    """One point per (config, search) job, searched in the order given.

    Each search gets at most one warm start: the block extension of the
    first earlier point of smallest privacy rate among the feasible ones at
    a block length dividing its k, an s no larger and a lambda no smaller.
    Such a kernel is feasible for free (an extension keeps both rates, the
    supply masks are nested in s, and the threshold grows with lambda and
    shrinks with k), so no point lies above one it admits, beyond the
    :data:`_TIE_TOL` band and re-verification rounding.  Jobs of one family
    (s, k) share its space and one grid, screened at their smallest
    threshold; callers list them together, as one grid is held at a time.
    """
    points: list[TradeoffPoint] = []
    key = family = None
    for cfg, search in jobs:
        if (cfg.s, cfg.k) != key:
            key, family = (cfg.s, cfg.k), None  # release the last grid before the next
            space = policy_space(model, cfg.s, cfg.k)
            floor = min(c.effective_threshold(model.prior) for c, _ in jobs if (c.s, c.k) == key)
            family = (space, grid_evaluation(space, search, floor)
                      if space.dim <= GRID_DIM_LIMIT else None)
        admitted = [p for p in points if p.feasible and cfg.k % p.k == 0
                    and p.s <= cfg.s and p.lam >= cfg.lam]
        warm = [_extend(min(admitted, key=lambda p: p.privacy_rate), cfg.k)] if admitted else []
        points.append(optimize_policy(model, cfg, search, warm, _family=family))
    return points


def tradeoff_sweep(
    model: SourceModel,
    lambdas: Sequence[float],
    s_values: Sequence[float],
    cfg_template: GuaranteeConfig = GuaranteeConfig(lam=0.0),
    search: SearchConfig = SearchConfig(),
) -> list[TradeoffPoint]:
    """One optimized point per (s, lambda) pair, in (s outer, lambda inner) order.

    Infeasible points are emitted with ``feasible=False`` rather than
    dropped.  :func:`_search_in_order` searches every block length dividing
    k first (only k is returned), then s ascending, then lambda descending.
    So each curve is nondecreasing in lambda, and no point lies above one at
    a smaller s or a divisor of k, beyond the tie band; a point depends on
    the rest of the sweep.  Per-point seeds derive from the base seed and
    the pair's indices.  A k above the block cap is refused before any
    search, by the :class:`GuaranteeConfig` that carries it.
    """
    k = cfg_template.k
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    jobs = list(product(divisors, range(len(s_values)), range(len(lambdas))))
    order = sorted(jobs, key=lambda j: (j[0], float(s_values[j[1]]), -float(lambdas[j[2]])))
    points = _search_in_order(model, [
        (replace(cfg_template, k=d, s=float(s_values[s_idx]), lam=float(lambdas[lam_idx])),
         replace(search, seed=int(search.seed) * 1_000_003 + lam_idx * 1009 + s_idx))
        for d, s_idx, lam_idx in order
    ])
    found = dict(zip(order, points))
    return [found[job] for job in jobs if job[0] == k]


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

    Optimizes at block length k, then at n = k*l (same lambda; the
    correction term, when enabled, shrinks with n), by
    :func:`_search_in_order`, so a feasible k-optimum's block extension
    warm-starts the n-level search.  That extension, feasible or not, is
    re-verified by :func:`_reverify` as an explicit witness, so the check
    can only fail by more than float noise if the n-level search is broken.
    The n-level search is heuristic, hence :data:`MONOTONICITY_SLACK`.  An
    ``l`` below 1, or an n above :data:`DEFAULT_BLOCK_CAP` (by the config
    at n), is refused before any search.
    """
    if l < 1:
        raise ValidationError("l must be >= 1")
    cfg_n = replace(cfg, k=cfg.k * l)
    point_k, point_n = _search_in_order(model, [(cfg, search), (cfg_n, search)])
    extended_rate, extended_check = _reverify(model, cfg_n, _extend(point_k, cfg_n.k))
    return MonotonicityReport(point_k, point_n, extended_rate, extended_check.passed)


def asymptotic_guarantee(
    model: SourceModel,
    cfg_template: GuaranteeConfig,
    k_max: int,
    search: SearchConfig = SearchConfig(),
) -> TradeoffPoint:
    """Best optimized point over block lengths 1..k_max.

    This is an UPPER BOUND on the asymptotic minimum privacy error exponent
    (the true value is an infimum over all block lengths, which no finite
    sweep can certify).  :func:`_search_in_order` searches k = 1..k_max in
    turn, each warm-started by the best feasible optimum at its divisors,
    so the report is nonincreasing in ``k_max`` by construction.  The first
    feasible point of smallest privacy rate wins (the first of smallest
    rate when none is feasible).  A ``k_max`` outside
    1..:data:`DEFAULT_BLOCK_CAP` is refused before any search.
    """
    require_block_length(k_max)
    jobs = [(replace(cfg_template, k=k), search) for k in range(1, k_max + 1)]
    return min(_search_in_order(model, jobs), key=lambda p: (not p.feasible, p.privacy_rate))
