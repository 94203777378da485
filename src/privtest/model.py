"""System model: hypotheses, sources, noise, and randomized management policies.

A :class:`SourceModel` holds the joint prior on the binary hypothesis pair
(u, p), the four conditional observation pmfs on a shared alphabet, and the
independent noise pmf.  A :class:`PolicyKernel` is a randomized map from
(input block, noise block) to output blocks of the same length k, constrained
so that every output block y with positive probability satisfies the per-slot
average supply constraint

    0 <= (1/k) * sum_i (y_i + z_i - x_i) <= s.

A kernel is one dense matrix Q: a row per (x-block, z-block) pair, x-blocks
outer, and a column per output block, all in lexicographic order.  It grows
like (|X||Z||X|)^k, which is why the block length is capped.  Three array
primitives carry the module: a row-wise k-fold outer product (source and
product laws, the row weights W and, with addition, the block sums of the
supply constraint), the supply mask of (alphabets, s, k), and the
push-forward W^T Q behind both :func:`induced_output_laws` and
:meth:`PolicySpace.batch_laws`.  A :class:`PolicySpace` describes every
feasible kernel by flat indices into Q taken from the supply mask; kernels
are built from parameters, and parameters read back from kernels, by
gathers and scatters through them.  Dicts keyed by blocks appear only in
the JSON policy files, which are read against a model.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AlphabetError,
    FeasibilityError,
    SizeCapError,
    SupportError,
    ValidationError,
)
from .probkit import Pmf

#: Canonical ordering of the hypothesis pairs (u, p) used everywhere.
UP_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Default cap on the block length k; dense storage grows like (|X||Z||X|)^k.
DEFAULT_BLOCK_CAP = 3

#: Slack used when testing the supply constraint on float-valued alphabets.
CONSTRAINT_TOL = 1e-9

#: Slack of the family simplex: each parameter in [0, 1] and each slice sum
#: at most 1, both up to this.
SIMPLEX_TOL = 1e-12

Block = tuple[float, ...]


def require_block_length(k: int) -> None:
    """Refuse a block length below 1 or above :data:`DEFAULT_BLOCK_CAP`,
    read at call time."""
    if k < 1:
        raise ValidationError(f"block length {k} must be >= 1")
    if k > DEFAULT_BLOCK_CAP:
        raise SizeCapError(f"block length {k} exceeds cap {DEFAULT_BLOCK_CAP}")


def require_supply_slack(s: float) -> None:
    """Refuse a supply slack below 0 or NaN."""
    if not s >= 0.0:
        raise ValidationError(f"supply slack s must be >= 0, got {s!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of real-valued symbols (e.g. units per slot)."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValidationError("alphabet must be nonempty")
        for v in values:
            if not math.isfinite(v):
                raise ValidationError(f"alphabet value {v!r} is not finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("alphabet values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self, k: int) -> tuple[Block, ...]:
        """All length-k blocks in lexicographic order."""
        return tuple(itertools.product(self.values, repeat=k))


@dataclass(frozen=True)
class Prior:
    """Joint prior p_{U,P} as a flat tuple in :data:`UP_PAIRS` order, checked
    as a :class:`~privtest.probkit.Pmf` on those pairs."""

    joint: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "joint", Pmf(labels=UP_PAIRS, probs=self.joint).probs)

    @classmethod
    def uniform(cls) -> "Prior":
        return cls((0.25, 0.25, 0.25, 0.25))

    def prob(self, u: int, p: int) -> float:
        return self.joint[UP_PAIRS.index((u, p))]

    @property
    def p_max(self) -> float:
        return max(self.joint)


@dataclass(frozen=True)
class SourceModel:
    """Sources p_{X|u,p}, noise p_Z, and the prior, on shared alphabets."""

    x_alphabet: Alphabet
    z_alphabet: Alphabet
    prior: Prior
    cond: Mapping[tuple[int, int], Pmf]
    noise: Pmf

    def __post_init__(self):
        cond = dict(self.cond)
        object.__setattr__(self, "cond", cond)
        if set(cond) != set(UP_PAIRS):
            raise ValidationError(f"cond must be keyed by {UP_PAIRS}")
        for up in UP_PAIRS:
            pmf = cond[up]
            if pmf.labels != self.x_alphabet.values:
                raise AlphabetError(f"cond{up} labels differ from the X alphabet")
            if not pmf.full_support:
                raise SupportError(f"cond{up} must have full support")
        if self.noise.labels != self.z_alphabet.values:
            raise AlphabetError("noise labels differ from the Z alphabet")


@dataclass(frozen=True, eq=False)
class PolicyKernel:
    """Randomized k-slot management map q(y^k | x^k, z^k) as a dense matrix.

    ``matrix`` has one row per input pair (x-block, z-block), x-blocks outer
    and both in lexicographic order, and one column per output block of
    ``x_alphabet.blocks(k)``.  Its entries are stored raw so that
    :func:`validate_policy` can report invariant violations instead of
    refusing to represent them; the matrix is a read-only copy.
    """

    x_alphabet: Alphabet
    z_alphabet: Alphabet
    k: int
    s: float
    matrix: np.ndarray

    def __post_init__(self):
        require_block_length(self.k)
        require_supply_slack(self.s)
        matrix = np.array(self.matrix, dtype=float)
        shape = _kernel_shape(self, self.k)
        if matrix.shape != shape:
            raise ValidationError(f"kernel matrix has shape {matrix.shape}, expected {shape}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class OutputLaws:
    """The four induced output pmfs over k-blocks, keyed by (u, p)."""

    k: int
    laws: Mapping[tuple[int, int], Pmf]

    def __post_init__(self):
        laws = dict(self.laws)
        object.__setattr__(self, "laws", laws)
        if set(laws) != set(UP_PAIRS):
            raise ValidationError(f"laws must be keyed by {UP_PAIRS}")
        labels = laws[UP_PAIRS[0]].labels
        for up in UP_PAIRS:
            if laws[up].labels != labels:
                raise AlphabetError("all four laws must share the block alphabet")

    @property
    def block_labels(self) -> tuple:
        return self.laws[UP_PAIRS[0]].labels

    def arrays(self) -> np.ndarray:
        """Shape (4, num_blocks) array in UP_PAIRS order."""
        return np.stack([self.laws[up].array() for up in UP_PAIRS])


@dataclass(frozen=True)
class PolicyReport:
    """Outcome of :func:`validate_policy`: empty ``violations`` means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Array primitives.  ``alphabets`` is anything with ``x_alphabet`` and
# ``z_alphabet``: a SourceModel or a PolicyKernel.
# ---------------------------------------------------------------------------


def _row_outer(factors: Sequence[np.ndarray], op: np.ufunc = np.multiply) -> np.ndarray:
    """Row-wise outer product of (..., n_i) arrays: shape (..., n_1 * ... * n_f).

    The first factor's index is outermost, so ``[a] * k`` gives a's k-fold
    product over blocks in :meth:`Alphabet.blocks` order.  Entries are
    folded from the left; ``op=np.add`` gives block sums instead.
    """
    out = factors[0]
    for factor in factors[1:]:
        out = op(out[..., :, None], factor[..., None, :])
        out = out.reshape(out.shape[:-2] + (-1,))
    return out


def _kernel_shape(alphabets, k: int) -> tuple[int, int]:
    outputs = len(alphabets.x_alphabet) ** k
    return outputs * len(alphabets.z_alphabet) ** k, outputs


def _input_pair(alphabets, k: int, row: int) -> tuple[Block, Block]:
    """The (x-block, z-block) labels of a kernel row."""
    x_index, z_index = divmod(int(row), len(alphabets.z_alphabet) ** k)
    return alphabets.x_alphabet.blocks(k)[x_index], alphabets.z_alphabet.blocks(k)[z_index]


def _table_sums(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``values[:, table[0]] + values[:, table[1]] + ...``, added first row
    of ``table`` to last, so each row of ``values`` is summed by itself."""
    total = values[:, table[0]]
    for columns in table[1:]:
        total += values[:, columns]
    return total


def _supply_net(alphabets, k: int) -> np.ndarray:
    """(1/k) * sum_i (y_i + z_i - x_i) for every kernel entry, shape (rows, outputs)."""
    x_sums, z_sums = (
        _row_outer([np.array(a.values)] * k, np.add)
        for a in (alphabets.x_alphabet, alphabets.z_alphabet)
    )
    # y - x first, so that y = x gives the noise average exactly
    net = (x_sums[None, None, :] - x_sums[:, None, None]) + z_sums[None, :, None]
    return net.reshape(-1, len(x_sums)) / k


def _within_supply(net: np.ndarray, s: float) -> np.ndarray:
    """The supply-feasibility mask: average net flow in [0, s] up to the slack."""
    return (net >= -CONSTRAINT_TOL) & (net <= s + CONSTRAINT_TOL)


def _row_weights(model: SourceModel, k: int) -> np.ndarray:
    """W[(x, z), (u, p)] = P(x-block | u, p) * P(z-block), shape (rows, 4)."""
    cond = np.array([model.cond[up].probs for up in UP_PAIRS])
    noise = np.array([model.noise.probs])
    return _row_outer([cond] * k + [noise] * k).T


def _push_forward(weights: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Induced laws W^T Q = (Q^T W)^T (faster for stacks) of one (rows, outputs)
    kernel or a (G, rows, outputs) stack: sum_{x,z} w(x,z|u,p) q(y|x,z)."""
    return (kernels.swapaxes(-1, -2) @ weights).swapaxes(-1, -2)


def _output_laws(k: int, labels: tuple, arrays: np.ndarray) -> OutputLaws:
    return OutputLaws(
        k=k, laws={up: Pmf(labels=labels, probs=tuple(row)) for up, row in zip(UP_PAIRS, arrays)}
    )


def validate_policy(policy: PolicyKernel) -> PolicyReport:
    """Check every row for nonnegative mass, supply-constraint support and
    normalization; each violation names the row's x- and z-block."""
    q = policy.matrix
    net = _supply_net(policy, policy.k)
    bad_entries = (q < 0.0) | ((q > 0.0) & ~_within_supply(net, policy.s))
    totals = q.sum(axis=1)
    bad_totals = ~(np.abs(totals - 1.0) <= 1e-9)
    y_blocks = policy.x_alphabet.blocks(policy.k)
    violations = []
    for r in np.flatnonzero(bad_entries.any(axis=1) | bad_totals):
        where = "row x={} z={}".format(*_input_pair(policy, policy.k, r))
        for c in np.flatnonzero(bad_entries[r]):
            if q[r, c] < 0.0:
                violations.append(f"{where}: negative mass on {y_blocks[c]}")
            else:
                violations.append(
                    f"{where}: output {y_blocks[c]} has mass {float(q[r, c])} but "
                    f"average net {net[r, c]:.6g} violates [0, {policy.s}]"
                )
        if bad_totals[r]:
            violations.append(f"{where}: probabilities sum to {float(totals[r])!r}, not 1")
    return PolicyReport(violations=tuple(violations))


def _deterministic_policy(model: SourceModel, s: float, k: int, columns, name: str):
    """The kernel sending row r to output column ``columns[r]``, if that is
    feasible; a block length above the cap is refused before the matrix is
    allocated."""
    require_block_length(k)
    matrix = np.zeros(_kernel_shape(model, k))
    matrix[np.arange(len(matrix)), columns] = 1.0
    kernel = PolicyKernel(model.x_alphabet, model.z_alphabet, k, s, matrix)
    report = validate_policy(kernel)
    if not report.ok:
        raise FeasibilityError(f"{name} infeasible at s={s}: {report.violations[0]}")
    return kernel


def identity_policy(model: SourceModel, s: float, k: int = 1) -> PolicyKernel:
    """The deterministic kernel y = x.

    Feasible iff every noise value lies in [0, s] (then the average net flow
    equals the average noise).
    """
    columns = np.repeat(np.arange(len(model.x_alphabet) ** k), len(model.z_alphabet) ** k)
    return _deterministic_policy(model, s, k, columns, "identity")


def constant_policy(model: SourceModel, s: float, y_value: float, k: int = 1) -> PolicyKernel:
    """The deterministic kernel mapping every input pair to a fixed block."""
    y_block = (float(y_value),) * k
    if y_block[0] not in model.x_alphabet.values:
        raise ValidationError(f"constant output {y_value!r} not in the X alphabet")
    column = model.x_alphabet.blocks(k).index(y_block)
    return _deterministic_policy(model, s, k, column, f"constant output {y_block}")


def induced_output_laws(model: SourceModel, policy: PolicyKernel) -> OutputLaws:
    """Push the model through the kernel: laws(u,p)(y) = sum_{x,z} w(x,z|u,p) q(y|x,z).

    The kernel must be defined over the model's alphabets and valid per
    :func:`validate_policy`.  Each induced law is then divided by its total,
    which valid rows keep within 1e-9 of 1.
    """
    if (policy.x_alphabet, policy.z_alphabet) != (model.x_alphabet, model.z_alphabet):
        raise AlphabetError("policy alphabets differ from the model alphabets")
    report = validate_policy(policy)
    if not report.ok:
        raise ValidationError(
            "policy violates its invariants: " + "; ".join(report.violations[:5])
        )
    laws = _push_forward(_row_weights(model, policy.k), policy.matrix)
    totals = laws.sum(axis=1)
    return _output_laws(policy.k, model.x_alphabet.blocks(policy.k), laws / totals[:, None])


def source_laws(model: SourceModel, k: int = 1) -> OutputLaws:
    """Laws of the unmanaged source: k-fold products of the conditionals."""
    cond = np.array([model.cond[up].probs for up in UP_PAIRS])
    return _output_laws(k, model.x_alphabet.blocks(k), _row_outer([cond] * k))


def blockwise_extend(policy: PolicyKernel, l: int) -> PolicyKernel:
    """The (k*l)-slot kernel applying ``policy`` independently per sub-block.

    Each sub-block satisfies the supply constraint, hence so does their
    average; the induced (k*l)-laws are l-fold products of the k-laws.  A
    block length above :data:`DEFAULT_BLOCK_CAP` is refused.
    """
    if l < 1:
        raise ValidationError("l must be >= 1")
    if l == 1:
        return policy
    k_new = policy.k * l
    require_block_length(k_new)
    matrix = policy.matrix
    for _ in range(l - 1):
        matrix = np.kron(matrix, policy.matrix)
    # np.kron orders the rows (x_1, z_1, ..., x_l, z_l); kernels put every
    # x-block before every z-block
    pair = (len(policy.x_alphabet) ** policy.k, len(policy.z_alphabet) ** policy.k)
    order = np.arange(len(matrix)).reshape(pair * l)
    order = order.transpose(list(range(0, 2 * l, 2)) + list(range(1, 2 * l, 2))).ravel()
    return PolicyKernel(policy.x_alphabet, policy.z_alphabet, k_new, policy.s, matrix[order])


def product_laws(laws: OutputLaws, l: int) -> OutputLaws:
    """l-fold product of output laws (labels become concatenated blocks)."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    labels = tuple(
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(laws.block_labels, repeat=l)
    )
    return _output_laws(laws.k * l, labels, _row_outer([laws.arrays()] * l))


# ---------------------------------------------------------------------------
# Parameterized policy families (consumed by the optimizer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolicySpace:
    """The family of all feasible k-slot kernels for (model, s, k).

    ``feasible`` is the supply mask over the kernel matrix.  Rows with one
    feasible output are forced; a row with f >= 2 feasible outputs
    contributes f-1 free parameters (the probabilities of all but its last
    output, which takes 1 minus their sum).  A parameter vector is feasible
    when each row's slice is nonnegative with sum <= 1, both up to
    :data:`SIMPLEX_TOL`; the slice sums are :func:`_table_sums` over
    ``slice_columns``.

    The family is held as flat indices into the kernel matrix: each
    parameter's head entry, each row's last feasible entry and one slice
    table.  ``slice_columns`` is (longest, slices): column i holds free
    slice i's parameter columns, first to last, padded with -1, and
    ``slice_lasts[i]`` is the last entry of its row.  ``head_params``
    inverts ``heads``: it names the parameter at each entry, or ``dim``
    where there is none.  A kernel is built from these indices alone, and
    its parameters are a gather of its heads.  ``param_slices`` names each
    parameter's slice, an index into ``free_slices``.

    The induced laws are affine in the parameters: parameter j moves mass
    from its row's last entry to its head, so raising it by t adds
    ``t * law_map[j]`` to the laws, with ``law_map[j] = W[row_j] ⊗ (e_head_j
    - e_last_j)`` of shape (4, outputs) and W the row weights.  The policy
    search scores its probes this way; :meth:`batch_laws` builds the
    kernels and stays the reference.
    """

    model: SourceModel
    s: float
    k: int
    feasible: np.ndarray = field(repr=False)  # (rows, outputs)
    weights: np.ndarray = field(init=False, repr=False)  # (rows, 4)
    free_slices: tuple[tuple[int, int, int], ...] = field(init=False)  # (row_idx, start, stop)
    heads: np.ndarray = field(init=False, repr=False)  # (dim,)
    head_params: np.ndarray = field(init=False, repr=False)  # (rows * outputs,)
    lasts: np.ndarray = field(init=False, repr=False)  # (rows,)
    slice_columns: np.ndarray = field(init=False, repr=False)  # (longest, slices)
    slice_lasts: np.ndarray = field(init=False, repr=False)  # (slices,)
    param_slices: np.ndarray = field(init=False, repr=False)  # (dim,)
    law_map: np.ndarray = field(init=False, repr=False)  # (dim, 4, outputs)

    def __post_init__(self):
        counts = self.feasible.sum(axis=1)
        is_last = self.feasible & (np.cumsum(self.feasible, axis=1) == counts[:, None])
        lasts = np.flatnonzero(is_last)
        heads = np.flatnonzero(self.feasible & ~is_last)
        head_params = np.full(self.feasible.size, len(heads))
        head_params[heads] = np.arange(len(heads))
        free = np.flatnonzero(counts >= 2)
        lengths = counts[free] - 1
        stops = np.cumsum(lengths)
        starts = stops - lengths
        slices = zip(free.tolist(), starts.tolist(), stops.tolist())
        rank = np.arange(lengths.max(initial=1))[:, None]
        columns = np.where(rank < lengths, starts + rank, -1)
        weights = _row_weights(self.model, self.k)
        outputs = self.feasible.shape[1]
        rows, head_cols = np.divmod(heads, outputs)
        law_map = np.zeros((len(heads), 4, outputs))
        law_map[np.arange(len(heads)), :, head_cols] = weights[rows]
        law_map[np.arange(len(heads)), :, lasts[rows] % outputs] = -weights[rows]
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "param_slices", np.repeat(np.arange(len(free)), lengths))
        object.__setattr__(self, "law_map", law_map)
        object.__setattr__(self, "free_slices", tuple(slices))
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "head_params", head_params)
        object.__setattr__(self, "lasts", lasts)
        object.__setattr__(self, "slice_columns", columns)
        object.__setattr__(self, "slice_lasts", lasts[free])

    @property
    def dim(self) -> int:
        return len(self.heads)

    def _slice_sums(self, padded: np.ndarray) -> np.ndarray:
        """Each free slice's sum over a (G, dim + 1) batch whose last column
        is 0, shape (G, slices): :func:`_table_sums` over
        :attr:`slice_columns`, so a row's sums depend on that row alone.
        Padding (-1) reads the 0, which changes no sum."""
        return _table_sums(padded, self.slice_columns)

    def params_feasible(self, params: np.ndarray) -> np.ndarray:
        """Boolean mask over a (G, dim) batch: in [0,1] with slice sums
        (:meth:`_slice_sums`) <= 1, each up to :data:`SIMPLEX_TOL`."""
        params = np.atleast_2d(params)
        padded = np.zeros((len(params), self.dim + 1))
        padded[:, :-1] = params
        ok = np.all((params >= -SIMPLEX_TOL) & (params <= 1.0 + SIMPLEX_TOL), axis=1)
        return ok & np.all(self._slice_sums(padded) <= 1.0 + SIMPLEX_TOL, axis=1)

    def random_params(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` parameter vectors, each row's output simplex drawn uniformly."""
        out = np.zeros((count, self.dim))
        for _, start, stop in self.free_slices:
            out[:, start:stop] = rng.dirichlet(np.ones(stop - start + 1), size=count)[:, :-1]
        return out

    def _matrices(self, params: np.ndarray) -> np.ndarray:
        """Kernel matrices of a (G, dim) parameter batch, shape (G, rows, outputs):
        each parameter at its head and 0 elsewhere, then 1 at each row's last
        entry, or 1 minus the slice sum for a free row, clipped at 0."""
        padded = np.zeros((len(params), self.dim + 1))
        padded[:, :-1] = params
        # numpy lays a column gather out entry-major, so it and the column
        # writes below move whole runs of G values (a scatter of the
        # parameters would not)
        entries = padded[:, self.head_params]
        entries[:, self.lasts] = 1.0
        entries[:, self.slice_lasts] = 1.0 - self._slice_sums(padded)
        np.maximum(entries, 0.0, out=entries)
        return entries.reshape((-1,) + self.feasible.shape)

    def kernel_from_params(self, params: Sequence[float]) -> PolicyKernel:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.dim,):
            raise ValidationError(f"expected {self.dim} parameters, got {params.shape}")
        if not bool(self.params_feasible(params)[0]):
            raise ValidationError("parameter vector outside the policy simplex")
        matrix = self._matrices(params[None, :])[0]
        return PolicyKernel(self.model.x_alphabet, self.model.z_alphabet, self.k, self.s, matrix)

    def params_from_kernel(self, kernel: PolicyKernel) -> np.ndarray:
        """Inverse of :meth:`kernel_from_params` for kernels in this family."""
        if kernel.k != self.k:
            raise ValidationError(f"kernel has k={kernel.k}, space has k={self.k}")
        model = self.model
        if (kernel.x_alphabet, kernel.z_alphabet) != (model.x_alphabet, model.z_alphabet):
            raise AlphabetError("kernel alphabets differ from the model alphabets")
        outside = np.flatnonzero(((kernel.matrix != 0.0) & ~self.feasible).any(axis=1))
        if outside.size:
            raise ValidationError(
                "kernel row {}/{} puts mass outside the feasible output set".format(
                    *_input_pair(kernel, self.k, outside[0])
                )
            )
        return kernel.matrix.ravel()[self.heads]

    def batch_laws(self, params: np.ndarray) -> np.ndarray:
        """Induced laws for a (G, dim) parameter batch; shape (G, 4, |Y|)."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return _push_forward(self.weights, self._matrices(params))


def policy_space(model: SourceModel, s: float, k: int = 1) -> PolicySpace:
    """Build the kernel family for (model, s, k).

    Raises :class:`FeasibilityError` naming the first input pair whose
    feasible output set is empty (the combination then admits no policy).
    A block length outside 1..cap and a negative or NaN ``s`` are refused
    first.
    """
    require_block_length(k)
    require_supply_slack(s)
    feasible = _within_supply(_supply_net(model, k), s)
    empty = np.flatnonzero(~feasible.any(axis=1))
    if empty.size:
        raise FeasibilityError(
            "no feasible output for input pair x={} z={} at s={}".format(
                *_input_pair(model, k, empty[0]), s
            )
        )
    return PolicySpace(model=model, s=s, k=k, feasible=feasible)


# ---------------------------------------------------------------------------
# JSON model and policy files
# ---------------------------------------------------------------------------


def model_from_dict(doc: dict) -> SourceModel:
    """Parse the JSON model schema.

    Fields: ``x_alphabet``, ``z_alphabet``, ``prior`` (flat 2x2 row-major in
    (u,p) = (0,0),(0,1),(1,0),(1,1) order), ``cond`` (four weight arrays over
    the X alphabet in the same order), ``noise`` (weights over Z).
    """
    try:
        x_alpha = Alphabet(tuple(doc["x_alphabet"]))
        z_alpha = Alphabet(tuple(doc["z_alphabet"]))
        prior = Prior(tuple(doc["prior"]))
        cond_rows = [tuple(float(v) for v in row) for row in doc["cond"]]
        noise_row = tuple(float(v) for v in doc["noise"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model document: {exc!r}") from exc
    if len(cond_rows) != 4:
        raise ValidationError("cond must contain exactly 4 arrays")
    cond = {up: Pmf(labels=x_alpha.values, probs=row) for up, row in zip(UP_PAIRS, cond_rows)}
    noise = Pmf(labels=z_alpha.values, probs=noise_row)
    return SourceModel(
        x_alphabet=x_alpha, z_alphabet=z_alpha, prior=prior, cond=cond, noise=noise
    )


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file is not valid JSON: {exc}") from exc


def load_model(path) -> SourceModel:
    return model_from_dict(_read_json(path, "model"))


def _block_key(block: Block) -> str:
    # repr round-trips every float exactly, so reloaded keys match the alphabet
    return ",".join(repr(v) for v in block)


def _parse_block_key(key: str) -> Block:
    return tuple(float(part) for part in key.split(","))


def policy_to_dict(policy: PolicyKernel) -> dict:
    """The JSON policy schema: one entry per kernel row, with its nonzero outputs."""
    y_blocks = policy.x_alphabet.blocks(policy.k)
    rows = []
    for r, row in enumerate(policy.matrix):
        x_block, z_block = _input_pair(policy, policy.k, r)
        rows.append(
            {
                "input": [list(x_block), list(z_block)],
                "output_probs": {
                    _block_key(y_blocks[c]): float(row[c]) for c in np.flatnonzero(row)
                },
            }
        )
    return {"k": policy.k, "s": policy.s, "rows": rows}


def policy_from_dict(doc: dict, model: SourceModel) -> PolicyKernel:
    """Parse the JSON policy schema into a kernel over the model's alphabets.

    The rows must be the model's input pairs at the file's k, each listed
    once, and every output key a block of k symbols from the X alphabet,
    named by one key per row.
    """
    try:
        k = int(doc["k"])
        s = float(doc["s"])
        entries = [
            (
                (tuple(map(float, entry["input"][0])), tuple(map(float, entry["input"][1]))),
                [(_parse_block_key(key), float(p)) for key, p in entry["output_probs"].items()],
            )
            for entry in doc["rows"]
        ]
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ValidationError(f"malformed policy document: {exc!r}") from exc
    rows: dict[tuple[Block, Block], dict[Block, float]] = {}
    for (x_block, z_block), outputs in entries:
        if (x_block, z_block) in rows:
            raise AlphabetError(f"policy lists input pair x={x_block} z={z_block} twice")
        rows[x_block, z_block] = probs = {}
        for y_block, prob in outputs:
            if y_block in probs:
                raise AlphabetError(
                    f"row x={x_block} z={z_block}: two keys name output block {y_block}"
                )
            probs[y_block] = prob
    require_block_length(k)
    pairs = list(itertools.product(model.x_alphabet.blocks(k), model.z_alphabet.blocks(k)))
    if set(rows) != set(pairs):
        missing = sorted(set(pairs) - set(rows))[:3]
        extra = sorted(set(rows) - set(pairs))[:3]
        raise AlphabetError(
            f"policy rows do not match the model alphabets at k={k} "
            f"(missing e.g. {missing}, unexpected e.g. {extra})"
        )
    y_index = {y: c for c, y in enumerate(model.x_alphabet.blocks(k))}
    matrix = np.zeros(_kernel_shape(model, k))
    for r, (x_block, z_block) in enumerate(pairs):
        for y_block, prob in rows[(x_block, z_block)].items():
            if y_block not in y_index:
                raise AlphabetError(
                    f"row x={x_block} z={z_block}: output {y_block} is not a block "
                    f"of {k} symbols from the X alphabet"
                )
            matrix[r, y_index[y_block]] = prob
    return PolicyKernel(model.x_alphabet, model.z_alphabet, k, s, matrix)


def load_policy(path, model: SourceModel) -> PolicyKernel:
    return policy_from_dict(_read_json(path, "policy"), model)


def demo_model() -> SourceModel:
    """The bundled binary example model used throughout the docs and tests."""
    from importlib.resources import files

    doc = json.loads(files("privtest.data").joinpath("model_demo.json").read_text())
    return model_from_dict(doc)
