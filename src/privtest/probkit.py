"""Probability-simplex primitives and divergence kernels.

Everything in this module works on finite pmfs over a shared label set and
uses natural logarithms throughout, so all divergence values are in nats.

The four computational kernels are

* ``kl_divergence`` -- the Kullback-Leibler divergence with the usual
  ``0 * log 0 = 0`` convention,
* ``chernoff_information`` -- ``max_{0<=mu<=1} -log sum q1^mu q2^(1-mu)``,
  found by the scalar safeguarded Newton on the derivative of the convex
  log-moment function that the composite search also uses on its segment
  nu = 0; the tests hold it to an independent value-only bracketing search,
* ``chernoff_symbol_major`` -- the one batch kernel: the same quantity for
  every column of two symbol-major ``(m, B)`` arrays at once, in
  common-support mode, at the closed-form optimum for two-symbol columns
  and otherwise by safeguarded Newton iteration on the derivative of the
  log-moment function; ``bayes._law_set_rates``, the one stack scorer of
  grouped-pair rates, fills that layout directly, the output bits depend on
  neither the batch nor its memory layout, and the kernel can start Newton
  at given tilts and returns each column's rate and tilt mu*,
* ``composite_chernoff`` -- the two-parameter generalization
  ``max -log sum q1^(mu+nu) q2^(1-mu) q3^(-nu)`` over the compact triangle
  ``{mu >= 0, nu >= 0, (1-mu) * D(q1||q2) / D(q1||q3) >= nu}``, which by
  duality equals ``min D(t||q2)`` over
  ``{t : D(t||q1) <= D(t||q2), D(t||q1) <= D(t||q3)}``.  The same
  safeguarded Newton iteration finds the optimum on each edge of the
  triangle; a damped two-dimensional Newton looks inside it only when the
  best edge point is not optimal for the whole triangle.

``composite_chernoff_primal_oracle`` evaluates that primal minimum by brute force over a
simplex grid; it is deliberately independent of the dual maximization so the
two can cross-check each other.

``composition_lattice`` is the one enumerator of integer compositions: it
yields them in lexicographic order as int64 arrays of bounded size, and the
primal oracle's simplex grid here as well as the type classes and Sanov grid
of :mod:`privtest.bayes` are built on it.  ``kl_rows`` scores such a chunk of
grid pmfs against a few laws in one numpy pass.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    AlphabetError,
    EnumerationCapError,
    NumericalError,
    SizeCapError,
    SupportError,
    ValidationError,
)

#: Sums more negative than this raise NumericalError instead of being clamped.
CLAMP_TOL = 1e-12

#: KL values below this are treated as an exact match (degenerate triangle).
_DEGENERATE_KL = 1e-14

#: Newton step (in mu) below which a column of :func:`chernoff_symbol_major`
#: has converged.
_NEWTON_TOL = 1e-10

#: Iteration cap of every Newton search here, a safety net only: they
#: converge in a handful of steps.
_NEWTON_MAX_ITER = 100

#: Newton step below which the scalar searches stop.  The tilted-mean
#: gradient has a rounding floor near 1e-10, so a much smaller test stalls.
_COMPOSITE_TOL = 1e-9

#: Below this ``det / (h_aa h_bb)`` the tilted covariance counts as rank 1.
_RANK_TOL = 1e-10

#: Edges of the unit dual triangle: origin, direction and inward normal in
#: the coordinates (mu, nu / R) of :func:`_composite_maximize`.
_TRIANGLE_EDGES = (
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),  # nu = 0
    ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)),  # mu = 0
    ((0.0, 1.0), (1.0, -1.0), (-1.0, -1.0)),  # nu = (1 - mu) R
)

#: Edges of the unit square that stands for the strip mu in [0, 1], nu >= 0
#: when q3 nearly equals q1, in the coordinates (mu, nu / Y) of
#: :func:`_composite_maximize`.
_STRIP_EDGES = _TRIANGLE_EDGES[:2] + (
    ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),  # mu = 1
    ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0)),  # nu = Y
)


@dataclass(frozen=True)
class Pmf:
    """A finite probability mass function on an ordered, labeled alphabet.

    Invariants enforced at construction: labels are distinct, every weight is
    nonnegative, and the weights sum to 1 within 1e-12.  Weights are stored as
    plain floats so equal inputs always produce bit-identical objects.
    """

    labels: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        if len(labels) != len(probs):
            raise ValidationError(
                f"{len(labels)} labels but {len(probs)} weights"
            )
        if not labels:
            raise ValidationError("a pmf needs at least one symbol")
        if len(set(labels)) != len(labels):
            raise ValidationError("pmf labels must be distinct")
        for lab, p in zip(labels, probs):
            if not math.isfinite(p) or p < 0.0:
                raise ValidationError(f"weight of {lab!r} is {p!r}, expected >= 0")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {total!r}, expected 1 within 1e-12")

    @property
    def full_support(self) -> bool:
        """True when every symbol carries strictly positive mass."""
        return all(p > 0.0 for p in self.probs)

    @property
    def size(self) -> int:
        return len(self.labels)

    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def prob(self, label) -> float:
        try:
            return self.probs[self.labels.index(label)]
        except ValueError:
            raise AlphabetError(f"symbol {label!r} not in alphabet") from None

    @classmethod
    def bernoulli(cls, theta: float) -> "Pmf":
        """Binary pmf on labels (0, 1) with mass ``theta`` at symbol 0."""
        theta = float(theta)
        if not 0.0 <= theta <= 1.0:
            raise ValidationError(f"bernoulli parameter {theta} outside [0, 1]")
        return cls(labels=(0, 1), probs=(theta, 1.0 - theta))

    @classmethod
    def uniform(cls, labels: Sequence) -> "Pmf":
        labels = tuple(labels)
        return cls(labels=labels, probs=(1.0 / len(labels),) * len(labels))

    @classmethod
    def from_weights(cls, labels: Sequence, weights: Sequence[float]) -> "Pmf":
        """Normalize nonnegative weights into a pmf."""
        w = [float(x) for x in weights]
        total = math.fsum(w)
        if total <= 0.0:
            raise ValidationError("weights must have positive total mass")
        return cls(labels=tuple(labels), probs=tuple(x / total for x in w))


@dataclass(frozen=True)
class DualPoint:
    """A point (mu, nu) in the dual plane of the composite maximization."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise ValidationError(f"dual point ({self.mu}, {self.nu}) must be finite")


def _common_alphabet(*pmfs: Pmf) -> None:
    first = pmfs[0].labels
    for other in pmfs[1:]:
        if other.labels != first:
            raise AlphabetError(f"alphabets differ: {first!r} vs {other.labels!r}")


def _require_full_support(p: Pmf, role: str) -> None:
    if not p.full_support:
        raise SupportError(f"{role} has zero-mass symbols; full support required")


def _require_triple(q1: Pmf, q2: Pmf, q3: Pmf) -> None:
    """The composite divergence's inputs: one alphabet, full support each."""
    _common_alphabet(q1, q2, q3)
    for role, q in (("q1", q1), ("q2", q2), ("q3", q3)):
        _require_full_support(q, role)


def _clamp_nonnegative(value: float) -> float:
    """Round tiny negative results, and -0.0, up to +0.0; reject anything
    more negative."""
    if value > 0.0:
        return value
    if value >= -CLAMP_TOL:
        return 0.0
    raise NumericalError(f"value {value!r} negative beyond clamping tolerance")


# ---------------------------------------------------------------------------
# Kullback-Leibler divergence
# ---------------------------------------------------------------------------


def kl_from_probs(p: Sequence[float], q: Sequence[float], *, allow_zeros: bool = False) -> float:
    """KL divergence of raw probability sequences (no alphabet checks).

    ``allow_zeros`` permits zero masses in ``p`` only (0 log 0 = 0).  A zero
    in ``q`` facing positive ``p`` mass always raises instead of silently
    returning infinity.
    """
    total = 0.0
    for pa, qa in zip(p, q):
        if pa == 0.0:
            if not allow_zeros:
                raise SupportError("first argument has zero-mass symbols; "
                                   "pass allow_zeros=True to permit them")
            continue
        if qa <= 0.0:
            raise SupportError("second argument has a zero where the first has mass")
        total += pa * math.log(pa / qa)
    return _clamp_nonnegative(total)


def kl_divergence(p: Pmf, q: Pmf, *, allow_zeros: bool = False) -> float:
    """D(p || q) in nats.

    Both pmfs must live on the same alphabet; ``q`` must have full support.
    By default ``p`` must as well; ``allow_zeros=True`` relaxes that for the
    first argument only.
    """
    _common_alphabet(p, q)
    _require_full_support(q, "second argument")
    return kl_from_probs(p.probs, q.probs, allow_zeros=allow_zeros)


# ---------------------------------------------------------------------------
# Chernoff information
# ---------------------------------------------------------------------------


def chernoff_from_probs(
    p: Sequence[float], q: Sequence[float], *, allow_zeros: bool = False
) -> tuple[float, float]:
    """Chernoff information of raw probability sequences.

    Returns ``(value, mu_star)``.  With ``allow_zeros`` the sum runs over the
    common support; if the supports are disjoint the value is ``inf``.  An
    optimum at an endpoint gives mu* exactly 0.0 or 1.0, and equal pmfs
    give exactly (+0.0, 0.0).
    """
    p, q = [float(x) for x in p], [float(x) for x in q]
    if not allow_zeros and any(x <= 0.0 for x in p + q):
        raise SupportError("chernoff_information requires full support "
                           "(pass allow_zeros=True for common-support mode)")
    logs = [(math.log(a), math.log(b)) for a, b in zip(p, q) if a > 0.0 and b > 0.0]
    if not logs:
        return math.inf, 0.5
    if p == q:
        return 0.0, 0.0
    value, mu = _chernoff_segment([l2 for _, l2 in logs], [l1 - l2 for l1, l2 in logs])
    return _clamp_nonnegative(value), mu


def chernoff_information(q1: Pmf, q2: Pmf, *, allow_zeros: bool = False) -> float:
    """C(q1 || q2) in nats: the Bayesian error exponent of the simple test.

    Symmetric in its arguments and zero iff they coincide.  Newton finds the
    maximizing mu to a last step of at most :data:`_COMPOSITE_TOL`, which it
    takes; the objective is flat there, so the value is exact to rounding.
    """
    _common_alphabet(q1, q2)
    value, _ = chernoff_from_probs(q1.probs, q2.probs, allow_zeros=allow_zeros)
    return value


def chernoff_information_with_argmax(q1: Pmf, q2: Pmf) -> tuple[float, float]:
    """Like :func:`chernoff_information` but also returns the optimal mu."""
    _common_alphabet(q1, q2)
    return chernoff_from_probs(q1.probs, q2.probs)


def chernoff_symbol_major(
    p: np.ndarray, q: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff information per column of two symbol-major ``(m, B)``
    probability arrays, one column per pair, and each column's tilt mu*.

    Works on the log-moment function ``L(mu) = log sum p^mu q^(1-mu)``,
    which is convex: ``L'(mu)`` is the mean of ``d = log p/q`` under the
    tilted law proportional to ``p^mu q^(1-mu)`` and ``L''(mu)`` is its
    variance (Cover & Thomas, section 11.9).  A column's rate is ``-min L``
    over [0, 1], clamped at 0; per-column sums are m - 1 vector additions.

    Zero masses are handled in common-support mode, as with
    ``chernoff_from_probs(..., allow_zeros=True)``: the sum runs over the
    symbols where both columns have mass, and columns with disjoint supports
    give +inf.  Equal columns give exactly 0.  Columns whose slope does not
    change sign on [0, 1] -- every column with a constant log-ratio among
    them -- take the better endpoint at once.  Two-symbol columns are scored
    at the closed-form root of ``L'`` (:func:`_chernoff_two_symbol`), and
    only the near-equal ones, whose Newton step there is above
    :data:`_NEWTON_TOL`, go on to :func:`_chernoff_newton`, started at that
    root; longer columns go to :func:`_chernoff_newton` at the secant root.
    The symbol sums are taken from one C-ordered buffer, so they add the
    symbols first to last whatever the layout of ``p`` and ``q``: each
    column's result depends on that column alone, and neither splitting a
    batch nor storing it in the other order changes a bit of the output.

    ``start`` optionally gives each column's starting tilt in [0, 1] for
    Newton (a nearby column's mu*, say), in place of the secant root; at
    m = 2 the closed-form root is used regardless.  A column's value then
    differs from its cold value only by rounding, since ``L`` is flat at its
    minimum.  The result is ``(rates, tilts)``, where a column's tilt is the
    mu* at which its rate was evaluated: Newton's last iterate for an inner
    column and the better endpoint, 0 or 1, for any other (an equal or
    disjoint column takes 0 or 1 as well, though every mu is optimal
    there).  The tilted law ``p^mu* q^(1-mu*) / Z`` gives the envelope
    gradient of the rate (Cover & Thomas, section 11.9).

    Selections that would select every column are skipped, which changes no
    bit: a batch without zero masses needs no common-support masks, a
    two-symbol batch is scored at its roots whole and selects only the
    columns Newton still has to move, every longer batch with a column that
    has ``L'(0) < 0 < L'(1)`` goes to Newton whole (each column's result
    depends on that column alone), and only the other columns are searched
    for equal columns (equal columns have zero slopes, so they are never
    inner).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 2 or p.shape != q.shape:
        raise ValidationError(f"expected two equal (m, B) arrays, got {p.shape} and {q.shape}")
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != p.shape[1:]:
            raise ValidationError(f"expected {p.shape[1]} starting tilts, got {start.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.size and p.min() > 0.0 and q.min() > 0.0:
            pc, qc = p, q
            lq = np.log(q)
            d = np.log(p) - lq
        else:
            common = (p > 0.0) & (q > 0.0)
            pc = np.where(common, p, 0.0)
            qc = np.where(common, q, 0.0)
            lq = np.log(qc)  # -inf off the common support
            d = np.where(common, np.log(pc) - lq, 0.0)
        # the four symbol sums come from one C-ordered (m, 4, B) buffer, so
        # summing over its outer axis adds whole rows, first symbol to last,
        # whatever the layout of p and q and even for one column (B = 1)
        sums = np.empty((len(p), 4, p.shape[1]))
        sums[:, 0] = pc
        sums[:, 1] = qc
        np.multiply(qc, d, out=sums[:, 2])
        np.multiply(pc, d, out=sums[:, 3])
        sp, sq, qd, pd = sums.sum(axis=0)
        slope0 = qd / sq  # L'(0); nan for disjoint columns
        slope1 = pd / sp  # L'(1)
        # the better endpoint; log 0 = -inf makes disjoint columns +inf
        out = -np.minimum(np.log(sq), np.log(sp))
    tilt = (sp < sq).astype(float)  # L(1) = log sp, L(0) = log sq
    inner = (slope0 < 0.0) & (slope1 > 0.0)
    every = inner.all()
    outer = None if every else np.flatnonzero(~inner)
    if len(p) == 2:
        if inner.any():
            rate, mu = _chernoff_two_symbol(lq, d, slope0, slope1, inner)
            np.maximum(out, rate, out=out, where=inner)
            np.copyto(tilt, mu, where=inner)
    elif every:
        rate, tilt = _chernoff_newton(lq, d, slope0, slope1, start)
        np.maximum(out, rate, out=out)
    elif inner.any():
        # Newton takes the whole batch, with the other columns copied from
        # the first inner one (an equal column would give a 0/0 step) and
        # their results dropped
        fill = np.argmax(inner)
        for a in (lq, d) if start is None else (lq, d, start):
            a[..., outer] = a[..., fill, None]
        slope0[outer], slope1[outer] = slope0[fill], slope1[fill]
        rate, mu = _chernoff_newton(lq, d, slope0, slope1, start)
        np.maximum(out, rate, out=out, where=inner)
        np.copyto(tilt, mu, where=inner)
    if not every:
        out[outer[np.all(p[:, outer] == q[:, outer], axis=0)]] = 0.0
    np.maximum(out, 0.0, out=out)
    return out, tilt


def _chernoff_two_symbol(
    lq: np.ndarray, d: np.ndarray, slope0: np.ndarray, slope1: np.ndarray, inner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``-min L`` and its argmin for the ``inner`` columns of two-symbol
    arrays ``lq`` and ``d`` (other columns give values to be dropped).

    The root of ``L'`` is known in closed form, ``mu* = (log q_1 - log q_0
    + log(-d_1/d_0)) / (d_0 - d_1)`` clipped to [0, 1]: ``L'(0) < 0 <
    L'(1)`` makes ``d_0`` and ``d_1`` nonzero with opposite signs, so it is
    defined.  One moment pass there gives the rate ``-log(w_0 + w_1)`` and
    the Newton step, exactly as :func:`_chernoff_newton`'s first pass would.
    A column whose step meets :data:`_NEWTON_TOL` is done; the others, where
    ``p`` is within about 1e-6 of ``q`` and rounding moves the root, go on to
    :func:`_chernoff_newton` as one compacted batch started at the root, so
    they take the same iterates as if Newton had started there.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # L'(mu) = 0 is q0 d0 exp(mu d0) = -q1 d1 exp(mu d1), solved for mu
        mu = np.clip((lq[1] - lq[0] + np.log(-d[1] / d[0])) / (d[0] - d[1]), 0.0, 1.0)
        w = np.exp(lq + mu * d)
        wd = w * d
        total = w[0] + w[1]
        grad = (wd[0] + wd[1]) / total
        step = grad / ((wd[0] * d[0] + wd[1] * d[1]) / total - grad * grad)
        rate = -np.log(total)
    redo = np.flatnonzero(inner & ~(np.abs(step) <= _NEWTON_TOL))
    if len(redo):
        rate[redo], mu[redo] = _chernoff_newton(
            lq[:, redo], d[:, redo], slope0[redo], slope1[redo], mu[redo]
        )
    return rate, mu


def _chernoff_newton(
    lq: np.ndarray,
    d: np.ndarray,
    slope0: np.ndarray,
    slope1: np.ndarray,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``-min L`` and its argmin for columns with ``L'(0) < 0 < L'(1)``, by
    safeguarded Newton.

    ``L(mu) = log sum exp(lq + mu * d)`` with ``lq`` and ``d`` of shape
    (m, B).  Each column keeps a bracket around the root of ``L'`` and is done
    as soon as its raw Newton step is below :data:`_NEWTON_TOL`.  Columns
    start from ``start`` when given, else from the secant root of the
    endpoint slopes.  It serves columns of three or more symbols, and the
    few two-symbol columns that :func:`_chernoff_two_symbol` passes on,
    started at their closed-form root.  The tolerance test comes before the
    safeguard, which replaces a step leaving the bracket by bisection, so a
    converged column is never sent back to bisection.  ``L`` is flat at its
    minimum, so its value at the last iterate is exact to rounding.

    The batch keeps its shape: a column that is done keeps its iterate, so
    every later pass recomputes its moments at the same point, bit for bit,
    and the values of the last pass are every column's result.
    """
    m, n = lq.shape
    lo = np.zeros(n)
    hi = np.ones(n)
    terms = np.empty((m, 3, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        if start is not None:
            mu = np.clip(start, 0.0, 1.0)
        else:
            mu = slope0 / (slope0 - slope1)
        for it in range(_NEWTON_MAX_ITER):
            # moments of d under the tilted weights w, summed in one pass; the
            # (m, 3, B) layout keeps the symbol order when one column is left
            w = np.exp(lq + mu * d, out=terms[:, 0])
            wd = np.multiply(w, d, out=terms[:, 1])
            np.multiply(wd, d, out=terms[:, 2])
            total, first, second = terms.sum(axis=0)
            grad = first / total
            step = grad / (second / total - grad * grad)
            done = (np.abs(step) <= _NEWTON_TOL) | (hi - lo <= _NEWTON_TOL)
            if done.all() or it == _NEWTON_MAX_ITER - 1:
                break
            right = grad > 0.0
            hi = np.where(right, mu, hi)
            lo = np.where(right, lo, mu)
            nxt = mu - step
            nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
            mu = np.where(done, mu, nxt)
    return -np.log(total), mu


# ---------------------------------------------------------------------------
# The two-parameter divergence T
# ---------------------------------------------------------------------------


def _composite_value(l2, a, b, mu: float, nu: float) -> float:
    # the solver's form -G, G = log sum exp(l2 + mu a + nu b): its rounding
    # stays near 1e-16 nu |b|, where (mu+nu) l1 + (1-mu) l2 - nu l3 adds
    # 1e-16 nu |log q| and misranks points where nu is large
    return _neg_log_sum_exp([x2 + mu * ai + nu * bi for x2, ai, bi in zip(l2, a, b)])


def _log_ratio_13(q1: Pmf, q3: Pmf, l1, l3) -> tuple[float, list[float]]:
    """D(q1||q3) and ``b = log(q1/q3)``.

    Below :data:`_DEGENERATE_KL`, ``l1 - l3`` is mostly rounding, so b is
    taken from ``log1p`` of the exact differences ``q3 - q1`` instead.
    """
    d13 = kl_from_probs(q1.probs, q3.probs)
    if d13 < _DEGENERATE_KL:
        return d13, [-math.log1p((x3 - x1) / x1) for x1, x3 in zip(q1.probs, q3.probs)]
    return d13, [x1 - x3 for x1, x3 in zip(l1, l3)]


def _neg_log_sum_exp(ws) -> float:
    """-log sum exp(ws), shifted by the largest w; +inf when every w is -inf."""
    m = max(ws)
    if m == -math.inf:
        return math.inf
    return -(m + math.log(math.fsum(math.exp(w - m) for w in ws)))


def composite_chernoff_dual(q1: Pmf, q2: Pmf, q3: Pmf, point: DualPoint) -> float:
    """Evaluate ``-log sum q1^(mu+nu) q2^(1-mu) q3^(-nu)`` exactly."""
    _require_triple(q1, q2, q3)
    l1 = [math.log(x) for x in q1.probs]
    l2 = [math.log(x) for x in q2.probs]
    l3 = [math.log(x) for x in q3.probs]
    a = [x1 - x2 for x1, x2 in zip(l1, l2)]
    return _composite_value(l2, a, _log_ratio_13(q1, q3, l1, l3)[1], point.mu, point.nu)


def _tilted_moments(c, d, t: float) -> tuple[float, float]:
    """Slope and curvature of ``h(t) = log sum exp(c + t d)``: the mean and
    the variance of ``d`` under the tilted weights ``exp(c + t d)``."""
    es = [ci + t * di for ci, di in zip(c, d)]
    top = max(es)  # shift: t * d can be large on the edges that reach D12/D13
    s = s1 = s2 = 0.0
    for e, di in zip(es, d):
        w = math.exp(e - top)
        s += w
        s1 += w * di
        s2 += w * di * di
    mean = s1 / s
    return mean, s2 / s - mean * mean


def _edge_minimize(c, d) -> float:
    """The t in [0, 1] minimizing the convex ``h(t) = log sum exp(c + t d)``.

    The answer is 0 if h' >= 0 there and 1 if h' <= 0 there.  Otherwise
    safeguarded Newton runs as in :func:`_chernoff_newton`: secant start from
    the endpoint slopes, a bracket around the root of h', bisection for a
    step that would leave it.  On convergence the last Newton step is taken
    too, so the point is good to about the square of the stopping step.

    The one scalar line search: :func:`_chernoff_segment` (the Chernoff
    information and the composite segment nu = 0), each edge of
    :func:`_composite_maximize` and each step of :func:`_interior_minimize`.
    """
    slope0, _ = _tilted_moments(c, d, 0.0)
    if slope0 >= 0.0:
        return 0.0
    slope1, _ = _tilted_moments(c, d, 1.0)
    if slope1 <= 0.0:
        return 1.0
    t = slope0 / (slope0 - slope1)
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_MAX_ITER):
        grad, curv = _tilted_moments(c, d, t)
        step = grad / curv if curv > 0.0 else math.inf
        if abs(step) <= _COMPOSITE_TOL:
            return min(max(t - step, 0.0), 1.0)
        if grad > 0.0:
            hi = t
        else:
            lo = t
        if hi - lo <= _COMPOSITE_TOL:
            break
        nxt = t - step
        t = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return t


def _chernoff_segment(c, d) -> tuple[float, float]:
    """``-min log sum exp(c + mu d)`` over mu in [0, 1], and its argmin: for
    ``c = log q``, ``d = log p/q`` the Chernoff information of (p, q) and its
    tilt, which is also the composite objective on its segment nu = 0."""
    mu = _edge_minimize(c, d)
    return _neg_log_sum_exp([ci + mu * di for ci, di in zip(c, d)]), mu


def _tilted_covariance(c, a, b, x: float, y: float) -> tuple[float, ...]:
    """Gradient and Hessian of ``G(x, y) = log sum exp(c + x a + y b)``: the
    means of (a, b) under the tilted weights ``exp(c + x a + y b)`` and their
    covariance, as ``(ga, gb, haa, hab, hbb)``."""
    es = [ci + x * ai + y * bi for ci, ai, bi in zip(c, a, b)]
    top = max(es)
    s = sa = sb = saa = sab = sbb = 0.0
    for e, ai, bi in zip(es, a, b):
        w = math.exp(e - top)
        s += w
        sa += w * ai
        sb += w * bi
        saa += w * ai * ai
        sab += w * ai * bi
        sbb += w * bi * bi
    ga, gb = sa / s, sb / s
    return ga, gb, saa / s - ga * ga, sab / s - ga * gb, sbb / s - gb * gb


def _interior_minimize(c, a, b, x: float, y: float) -> tuple[float, float] | None:
    """Damped Newton on the convex ``G(x, y) = log sum exp(c + x a + y b)``.

    Starts at (x, y) and returns the stationary point, or None when the
    Hessian is numerically rank-deficient or the iteration does not settle.
    Each Newton step is scaled by the exact line search of
    :func:`_edge_minimize` over [0, 1] of its length, which reads slopes
    rather than values of G and so still works where a decrease in G is
    below its rounding; a step of at most :data:`_COMPOSITE_TOL` in both
    coordinates ends the run and is taken.
    """
    for _ in range(_NEWTON_MAX_ITER):
        ga, gb, haa, hab, hbb = _tilted_covariance(c, a, b, x, y)
        det = haa * hbb - hab * hab
        if not det > _RANK_TOL * haa * hbb:
            return None
        dx = (hab * gb - hbb * ga) / det
        dy = (hab * ga - haa * gb) / det
        if max(abs(dx), abs(dy)) <= _COMPOSITE_TOL:
            return x + dx, y + dy
        here = [ci + x * ai + y * bi for ci, ai, bi in zip(c, a, b)]
        t = _edge_minimize(here, [dx * ai + dy * bi for ai, bi in zip(a, b)])
        if t == 0.0:  # no descent along the Newton step: stationary to rounding
            return x, y
        x, y = x + t * dx, y + t * dy
    return None


def _composite_maximize(q1: Pmf, q2: Pmf, q3: Pmf) -> tuple[float, DualPoint]:
    """Maximize the dual objective over the compact triangle in the module docs.

    The objective is ``-G`` for the convex log-partition function ``G(mu,
    nu) = log sum exp(l2 + mu a + nu b)``, ``a = l1 - l2``, ``b = l1 - l3``
    (``l`` the log-pmfs): its gradient is the mean of (a, b) under the
    tilted law proportional to ``exp(l2 + mu a + nu b)`` and its Hessian
    their covariance (Cover & Thomas, section 11.9).  The work is done in
    the coordinates ``(mu, nu / R)``, ``R = D12/D13``, which map the
    triangle with corners (0, 0), (1, 0), (0, R) onto the unit one, so the
    tolerances do not depend on R, which is enormous for nearly coinciding
    q1 and q3.

    The maximum over the boundary is the best of the three edge optima, each
    a one-dimensional convex problem (:func:`_edge_minimize`).  The concave
    objective's maximum over the whole triangle is that boundary point
    unless the point lies inside an edge and the objective rises across it
    into the triangle; only then does a damped two-dimensional Newton
    (:func:`_interior_minimize`) start from it, and its stationary point is
    counted only when it lies strictly inside.  A rank-deficient covariance
    -- every binary alphabet has one -- makes G affine along a line, so the
    boundary is then exact and the interior search is skipped.  Every
    candidate is a feasible point and the value returned is the objective
    evaluated there, so it never exceeds the true maximum.

    When D(q1||q3) falls below :data:`_DEGENERATE_KL` but q3 differs from
    q1, R is past any maximizer and D(q1||q3) itself is mostly rounding, so
    the triangle gives way to its R -> infinity limit, the strip mu in
    [0, 1], nu >= 0, with ``b = log(q1/q3)`` taken from ``log1p`` of the
    exact differences ``q3 - q1`` (:func:`_log_ratio_13`, which
    :func:`composite_chernoff_dual` shares, so the value returned is the
    public objective at the point returned).  On the line nu = Y, Y = 2
    max(-l1, -l2) / b at the symbol of the largest b, the objective is
    negative, as it is above that line, so the strip is searched as the
    square ``[0, 1] x [0, Y]`` in the coordinates ``(mu, nu / Y)``.

    When no b is positive -- q3 equals q1, or exceeds it on every symbol,
    which only weights summing to 1 within rounding allow -- or D(q1||q2)
    vanishes, the maximization falls back to the segment nu = 0, where the
    objective is the Chernoff curve of (q1, q2), solved by the same
    :func:`_chernoff_segment` as :func:`chernoff_information`, so the two
    agree bit for bit there.  Equal q1 and q2 give exactly 0 at (0, 0): the
    objective is then -log sum q2 along that whole segment, and evaluating
    it would only add rounding.
    """
    if q1.probs == q2.probs:
        return 0.0, DualPoint(0.0, 0.0)
    l1 = [math.log(x) for x in q1.probs]
    l2 = [math.log(x) for x in q2.probs]
    l3 = [math.log(x) for x in q3.probs]
    a = [x1 - x2 for x1, x2 in zip(l1, l2)]
    d12 = kl_from_probs(q1.probs, q2.probs)
    d13, b = _log_ratio_13(q1, q3, l1, l3)
    top = b.index(max(b))

    if d12 < _DEGENERATE_KL or not b[top] > 0.0:
        value, mu = _chernoff_segment(l2, a)
        return value, DualPoint(mu, 0.0)
    if d13 < _DEGENERATE_KL:
        scale, edges = 2.0 * max(-l1[top], -l2[top]) / b[top], _STRIP_EDGES  # Y
    else:
        scale, edges = d12 / d13, _TRIANGLE_EDGES  # R
    b_unit = [scale * bi for bi in b]  # nu / scale is the coordinate

    def objective(x: float, y: float) -> float:
        return _composite_value(l2, a, b, x, y * scale)

    best = None
    for (x0, y0), (dx, dy), normal in edges:
        c = [x2 + x0 * ai + y0 * bi for x2, ai, bi in zip(l2, a, b_unit)]
        t = _edge_minimize(c, [dx * ai + dy * bi for ai, bi in zip(a, b_unit)])
        x, y = x0 + t * dx, y0 + t * dy
        value = objective(x, y)
        if best is None or value > best[0]:
            best = value, x, y, 0.0 < t < 1.0, normal
    value, x, y, inside_edge, normal = best

    if inside_edge:
        ga, gb, *_ = _tilted_covariance(l2, a, b_unit, x, y)
        if ga * normal[0] + gb * normal[1] < 0.0:  # -G rises into the region
            found = _interior_minimize(l2, a, b_unit, x, y)
            if found is not None and all(
                (found[0] - x0) * nx + (found[1] - y0) * ny > 0.0
                for (x0, y0), _, (nx, ny) in edges
            ):
                interior = objective(*found)
                if interior > value:
                    value, x, y = interior, *found
    return value, DualPoint(x, y * scale)


def composite_chernoff(q1: Pmf, q2: Pmf, q3: Pmf) -> float:
    """The composite Chernoff divergence of q1 toward q2 beside q3, in nats.

    Equals, by convex duality, the minimum of D(t || q2) over distributions
    t that are at least as close (in KL) to q1 as to both q2 and q3.
    Asymmetric in (q2, q3); clamped to be nonnegative.
    """
    return composite_chernoff_with_argmax(q1, q2, q3)[0]


def composite_chernoff_with_argmax(q1: Pmf, q2: Pmf, q3: Pmf) -> tuple[float, DualPoint]:
    """Like :func:`composite_chernoff` but also returns the maximizing (mu, nu)."""
    _require_triple(q1, q2, q3)
    value, point = _composite_maximize(q1, q2, q3)
    return _clamp_nonnegative(value), point


# ---------------------------------------------------------------------------
# Brute-force primal oracle
# ---------------------------------------------------------------------------

#: Largest alphabet whose simplex grid the Sanov exponent and the primal oracle enumerate.
MAX_GRID_ALPHABET = 4

#: Default cap on the number of enumerated output sequences, type classes
#: and simplex grid points (here and in :mod:`privtest.bayes`).
DEFAULT_ENUM_CAP = 1 << 22

#: Rows per chunk of :func:`composition_lattice`; bounds the memory of every
#: lattice enumeration regardless of its size.
LATTICE_CHUNK = 8192


def composition_lattice(n: int, parts: int) -> Iterator[np.ndarray]:
    """All ways to write ``n`` as an ordered sum of ``parts`` nonnegative integers.

    Yields ``(rows, parts)`` int64 arrays of at most :data:`LATTICE_CHUNK`
    rows each, in lexicographic order of the rows, so the C(n+parts-1,
    parts-1) compositions are never held in memory at once.  Each chunk is
    built by unranking its row indices: among the compositions of t into p
    parts, N(t, p) - N(t - v, p) have a first part below v, where N(t, p)
    = C(t+p-1, p-1), so the first part of the composition of rank r is read
    off a sorted table of N(., p).
    """
    if n < 0 or parts < 1:
        raise ValidationError(f"no compositions of n={n} into {parts} parts")
    # tables[p][t] = N(t, p) for the parts p >= 3 that need a lookup:
    # N(t, 2) = t + 1, and N(., p) is the running sum of N(., p - 1)
    tables = {}
    column = np.arange(1, n + 2, dtype=np.int64)
    for p in range(3, parts + 1):
        column = tables[p] = np.cumsum(column)
    total = math.comb(n + parts - 1, parts - 1)
    for lo in range(0, total, LATTICE_CHUNK):
        rank = np.arange(lo, min(lo + LATTICE_CHUNK, total), dtype=np.int64)
        rest = np.full_like(rank, n)
        out = np.empty((rank.size, parts), dtype=np.int64)
        for i in range(parts - 2):
            table = tables[parts - i]
            above = table[rest] - rank  # N(t - v, p) >= this for the first part v
            tail = np.searchsorted(table, above)
            out[:, i] = rest - tail
            rank -= table[rest] - table[tail]
            rest = tail
        # two parts left: the rank is the first of them
        out[:, parts - 1] = rest - rank
        if parts > 1:
            out[:, parts - 2] = rank
        yield out


def _grid_steps(size: int, grid_step: float) -> int:
    """Validate a simplex grid request; return N, the grid's denominator.

    Grids of more than :data:`DEFAULT_ENUM_CAP` points are refused before
    any is enumerated.
    """
    if size < 1:
        raise ValidationError("simplex grid needs at least 1 symbol")
    if size > MAX_GRID_ALPHABET:
        raise SizeCapError(f"alphabet size {size} exceeds grid cap {MAX_GRID_ALPHABET}")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step {grid_step} outside (0, 1]")
    n = max(1, round(1.0 / grid_step))
    points = math.comb(n + size - 1, size - 1)
    if points > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{points} grid points ({size} symbols, step {grid_step}) exceed the cap "
            f"{DEFAULT_ENUM_CAP}; use a coarser grid step"
        )
    return n


def kl_rows(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(t_i || q_j) for every row of ``t`` (T, m) and of ``q`` (L, m): a (T, L) array.

    Zero masses in ``t`` contribute 0 (0 log 0 = 0); ``q`` must be positive.
    Terms are added symbol by symbol as in :func:`kl_from_probs`, and the
    result is clamped the same way.
    """
    total = np.zeros((len(t), len(q)))
    for a in range(t.shape[1]):
        ta = t[:, a, None]
        positive = ta > 0.0
        total += np.where(positive, ta * np.log(np.where(positive, ta, 1.0) / q[:, a]), 0.0)
    if total.size and total.min() < -CLAMP_TOL:
        raise NumericalError(f"divergence {total.min()!r} negative beyond clamping tolerance")
    return np.maximum(total, 0.0)


def composite_chernoff_primal_oracle(q1: Pmf, q2: Pmf, q3: Pmf, grid_step: float) -> float:
    """Brute-force the primal composite-divergence form on a simplex grid.

    Minimizes D(t || q2) over grid pmfs t satisfying D(t||q1) <= D(t||q2)
    and D(t||q1) <= D(t||q3).  Returns ``inf`` when no grid point is
    feasible.  Only intended as an independent cross-check of
    :func:`composite_chernoff`; alphabets larger than 4, and grids of more
    than :data:`DEFAULT_ENUM_CAP` points, are refused.
    """
    _require_triple(q1, q2, q3)
    n = _grid_steps(q1.size, grid_step)
    laws = np.array([q1.probs, q2.probs, q3.probs])
    best = math.inf
    for counts in composition_lattice(n, q1.size):
        d1, d2, d3 = kl_rows(counts / n, laws).T
        feasible = d2[(d1 <= d2) & (d1 <= d3)]
        best = min(best, float(feasible.min(initial=math.inf)))
    return best
