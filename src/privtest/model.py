"""System model: hypotheses, sources, noise, and randomized management policies.

A :class:`SourceModel` holds the joint prior on the binary hypothesis pair
(u, p), the four conditional observation pmfs on a shared alphabet, and the
independent noise pmf.  A :class:`PolicyKernel` is a randomized map from
(input block, noise block) to output blocks of the same length k, constrained
so that every output block y with positive probability satisfies the per-slot
average supply constraint

    0 <= (1/k) * sum_i (y_i + z_i - x_i) <= s.

Pushing a model through a kernel yields the four induced output laws over
k-blocks (:func:`induced_output_laws`).  Kernels are stored densely, one row
per (x-block, z-block) pair, which is why the block length is capped.
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
from .probkit import Pmf, product_pmf

#: Canonical ordering of the hypothesis pairs (u, p) used everywhere.
UP_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Default cap on the block length k; dense storage grows like (|X||Z||X|)^k.
DEFAULT_BLOCK_CAP = 3

#: Slack used when testing the supply constraint on float-valued alphabets.
CONSTRAINT_TOL = 1e-9

Block = tuple[float, ...]


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
    """Joint prior p_{U,P} as a flat tuple in :data:`UP_PAIRS` order."""

    joint: tuple[float, float, float, float]

    def __post_init__(self):
        joint = tuple(float(x) for x in self.joint)
        object.__setattr__(self, "joint", joint)
        if len(joint) != 4:
            raise ValidationError("prior needs exactly 4 entries (2x2 row-major)")
        if any(x < 0.0 or not math.isfinite(x) for x in joint):
            raise ValidationError("prior entries must be finite and >= 0")
        total = math.fsum(joint)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"prior sums to {total!r}, expected 1")
        # four nonnegative entries summing to 1 always have max >= 1/4
        if max(joint) < 0.25 - 1e-12:
            raise ValidationError("prior max below 1/4; entries cannot sum to 1")

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

    def cond_block_pmf(self, u: int, p: int, k: int) -> Pmf:
        """k-fold product extension of p_{X|u,p} (labels are k-blocks)."""
        return product_pmf(self.cond[(u, p)], k)


@dataclass(frozen=True, eq=False)
class PolicyKernel:
    """Randomized k-slot management map q(y^k | x^k, z^k).

    ``rows`` maps each input pair (x-block, z-block) to a dict from output
    block to probability.  The mapping is stored raw (not as Pmf) so that
    :func:`validate_policy` can report invariant violations instead of
    refusing to represent them.  Treat instances as immutable.
    """

    k: int
    s: float
    rows: Mapping[tuple[Block, Block], Mapping[Block, float]]

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("block length k must be >= 1")
        if self.s < 0.0:
            raise ValidationError("supply slack s must be >= 0")
        object.__setattr__(
            self,
            "rows",
            {key: dict(row) for key, row in self.rows.items()},
        )


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

    def law(self, u: int, p: int) -> Pmf:
        return self.laws[(u, p)]

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


def block_average_net(x_block: Block, z_block: Block, y_block: Block) -> float:
    """(1/k) * sum_i (y_i + z_i - x_i) for equal-length blocks."""
    k = len(x_block)
    return math.fsum(y + z - x for x, z, y in zip(x_block, z_block, y_block)) / k


def feasible_outputs(
    x_alphabet: Alphabet, x_block: Sequence[float], z_block: Sequence[float], s: float
) -> tuple[Block, ...]:
    """All output blocks satisfying the supply constraint for this input pair.

    May be empty.  Blocks are returned in lexicographic order.
    """
    x_block = tuple(float(v) for v in x_block)
    z_block = tuple(float(v) for v in z_block)
    if len(x_block) != len(z_block):
        raise ValidationError(
            f"input block length {len(x_block)} != noise block length {len(z_block)}"
        )
    out = []
    for y_block in x_alphabet.blocks(len(x_block)):
        avg = block_average_net(x_block, z_block, y_block)
        if -CONSTRAINT_TOL <= avg <= s + CONSTRAINT_TOL:
            out.append(y_block)
    return tuple(out)


def validate_policy(policy: PolicyKernel, x_alphabet: Alphabet | None = None) -> PolicyReport:
    """Check every row for constraint-(supply) support and normalization.

    Every output block must have length k; with ``x_alphabet`` given, its
    symbols must also come from that alphabet (outputs live in X^k).
    """
    symbols = None if x_alphabet is None else set(x_alphabet.values)
    violations = []
    for (x_block, z_block), row in policy.rows.items():
        if len(x_block) != policy.k or len(z_block) != policy.k:
            violations.append(f"row {x_block}/{z_block}: block length != k={policy.k}")
            continue
        total = 0.0
        for y_block, prob in row.items():
            if prob < 0.0:
                violations.append(f"row {x_block}/{z_block}: negative mass on {y_block}")
            total += prob
            outside = symbols is not None and not symbols.issuperset(y_block)
            if len(y_block) != policy.k or outside:
                violations.append(
                    f"row x={x_block} z={z_block}: output {y_block} is not a block "
                    f"of {policy.k} symbols from the X alphabet"
                )
            elif prob > 0.0:
                avg = block_average_net(x_block, z_block, y_block)
                if not (-CONSTRAINT_TOL <= avg <= policy.s + CONSTRAINT_TOL):
                    violations.append(
                        f"row x={x_block} z={z_block}: output {y_block} has mass "
                        f"{prob} but average net {avg:.6g} violates [0, {policy.s}]"
                    )
        if abs(total - 1.0) > 1e-9:
            violations.append(
                f"row x={x_block} z={z_block}: probabilities sum to {total!r}, not 1"
            )
    return PolicyReport(violations=tuple(violations))


def _dense_row_keys(model: SourceModel, k: int) -> tuple[tuple[Block, Block], ...]:
    return tuple(
        itertools.product(model.x_alphabet.blocks(k), model.z_alphabet.blocks(k))
    )


def identity_policy(model: SourceModel, s: float, k: int = 1) -> PolicyKernel:
    """The deterministic kernel y = x.

    Feasible iff every noise value lies in [0, s] (then the average net flow
    equals the average noise).
    """
    rows = {}
    for x_block, z_block in _dense_row_keys(model, k):
        avg = block_average_net(x_block, z_block, x_block)
        if not (-CONSTRAINT_TOL <= avg <= s + CONSTRAINT_TOL):
            raise FeasibilityError(
                f"identity infeasible at s={s}: input pair x={x_block} z={z_block} "
                f"has average net {avg:.6g}"
            )
        rows[(x_block, z_block)] = {x_block: 1.0}
    return PolicyKernel(k=k, s=s, rows=rows)


def constant_policy(model: SourceModel, s: float, y_value: float, k: int = 1) -> PolicyKernel:
    """The deterministic kernel mapping every input pair to a fixed block."""
    y_block = (float(y_value),) * k
    if y_block not in model.x_alphabet.blocks(k):
        raise ValidationError(f"constant output {y_value!r} not in the X alphabet")
    rows = {}
    for x_block, z_block in _dense_row_keys(model, k):
        avg = block_average_net(x_block, z_block, y_block)
        if not (-CONSTRAINT_TOL <= avg <= s + CONSTRAINT_TOL):
            raise FeasibilityError(
                f"constant output {y_block} infeasible at s={s} for input pair "
                f"x={x_block} z={z_block} (average net {avg:.6g})"
            )
        rows[(x_block, z_block)] = {y_block: 1.0}
    return PolicyKernel(k=k, s=s, rows=rows)


def _block_log_prob(pmf: Pmf, block: Block) -> float:
    total = 0.0
    for sym in block:
        p = pmf.prob(sym)
        if p == 0.0:
            return -math.inf
        total += math.log(p)
    return total


def induced_output_laws(model: SourceModel, policy: PolicyKernel) -> OutputLaws:
    """Push the model through the kernel: laws(u,p)(y) = sum_{x,z} w(x,z|u,p) q(y|x,z).

    The kernel must be dense (one row per input pair), valid per
    :func:`validate_policy`, and defined over the model's alphabets.  Each
    induced law is checked to sum to 1 within 1e-10 and then renormalized.
    """
    k = policy.k
    expected = set(_dense_row_keys(model, k))
    got = set(policy.rows)
    if got != expected:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        raise AlphabetError(
            f"policy rows do not match the model alphabets at k={k} "
            f"(missing e.g. {missing}, unexpected e.g. {extra})"
        )
    report = validate_policy(policy, model.x_alphabet)
    if not report.ok:
        raise ValidationError(
            "policy violates its invariants: " + "; ".join(report.violations[:5])
        )

    y_blocks = model.x_alphabet.blocks(k)
    y_index = {blk: i for i, blk in enumerate(y_blocks)}
    acc = {up: np.zeros(len(y_blocks)) for up in UP_PAIRS}
    for (x_block, z_block), row in policy.rows.items():
        z_logp = _block_log_prob(model.noise, z_block)
        if z_logp == -math.inf:
            continue
        for up in UP_PAIRS:
            x_logp = _block_log_prob(model.cond[up], x_block)
            weight = math.exp(x_logp + z_logp)
            if weight == 0.0:
                continue
            for y_block, prob in row.items():
                if prob > 0.0:
                    acc[up][y_index[y_block]] += weight * prob

    laws = {}
    for up in UP_PAIRS:
        total = float(acc[up].sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(
                f"induced law for (u,p)={up} sums to {total!r}; policy rows are "
                "not properly normalized"
            )
        laws[up] = Pmf(labels=y_blocks, probs=tuple(acc[up] / total))
    return OutputLaws(k=k, laws=laws)


def source_laws(model: SourceModel, k: int = 1) -> OutputLaws:
    """Laws of the unmanaged source: k-fold products of the conditionals."""
    return OutputLaws(
        k=k, laws={up: model.cond_block_pmf(*up, k) for up in UP_PAIRS}
    )


def blockwise_extend(policy: PolicyKernel, l: int, cap: int = DEFAULT_BLOCK_CAP) -> PolicyKernel:
    """The (k*l)-slot kernel applying ``policy`` independently per sub-block.

    Each sub-block satisfies the supply constraint, hence so does their
    average; the induced (k*l)-laws are l-fold products of the k-laws.
    """
    if l < 1:
        raise ValidationError("l must be >= 1")
    if l == 1:
        return policy
    k_new = policy.k * l
    if k_new > cap:
        raise SizeCapError(f"extended block length {k_new} exceeds cap {cap}")
    rows = {}
    keys = tuple(policy.rows)
    for combo in itertools.product(keys, repeat=l):
        x_cat = tuple(itertools.chain.from_iterable(key[0] for key in combo))
        z_cat = tuple(itertools.chain.from_iterable(key[1] for key in combo))
        out: dict[Block, float] = {}
        for parts in itertools.product(*(policy.rows[key].items() for key in combo)):
            y_cat = tuple(itertools.chain.from_iterable(y for y, _ in parts))
            prob = math.prod(p for _, p in parts)
            if prob > 0.0:
                out[y_cat] = out.get(y_cat, 0.0) + prob
        rows[(x_cat, z_cat)] = out
    return PolicyKernel(k=k_new, s=policy.s, rows=rows)


def product_laws(laws: OutputLaws, l: int) -> OutputLaws:
    """l-fold product of output laws (labels become concatenated blocks)."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    new = {}
    for up in UP_PAIRS:
        base = laws.laws[up]
        labels = []
        probs = []
        for combo in itertools.product(range(base.size), repeat=l):
            labels.append(tuple(itertools.chain.from_iterable(base.labels[i] for i in combo)))
            probs.append(math.prod(base.probs[i] for i in combo))
        new[up] = Pmf(labels=tuple(labels), probs=tuple(probs))
    return OutputLaws(k=laws.k * l, laws=new)


# ---------------------------------------------------------------------------
# Parameterized policy families (consumed by the optimizer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    """One dense kernel row: its input pair, feasible outputs, input weights."""

    x_block: Block
    z_block: Block
    outputs: tuple[Block, ...]
    weights: tuple[float, float, float, float]  # P(x-block|u,p) * P(z-block), UP_PAIRS order


@dataclass(frozen=True, eq=False)
class PolicySpace:
    """The family of all feasible k-slot kernels for (model, s, k).

    Rows with one feasible output are forced; a row with f >= 2 feasible
    outputs contributes f-1 free parameters (the probabilities of all but
    its last output).  A parameter vector is feasible when each row's slice
    is nonnegative with sum <= 1.

    The kernel entries (one per row and feasible output) are the affine map
    ``params @ entry_map + entry_offset``, clipped at 0, and the induced
    laws are ``entries @ law_map``; both maps are built once per space.
    """

    model: SourceModel
    s: float
    k: int
    rows: tuple[RowSpec, ...]
    y_blocks: tuple[Block, ...]
    free_slices: tuple[tuple[int, int, int], ...] = field(init=False)  # (row_idx, start, stop)
    entry_map: np.ndarray = field(init=False, repr=False)  # (dim, entries)
    entry_offset: np.ndarray = field(init=False, repr=False)  # (entries,)
    law_map: np.ndarray = field(init=False, repr=False)  # (entries, 4 * |Y|)

    def __post_init__(self):
        slices = []
        cursor = 0
        for idx, row in enumerate(self.rows):
            f = len(row.outputs)
            if f >= 2:
                slices.append((idx, cursor, cursor + f - 1))
                cursor += f - 1
        object.__setattr__(self, "free_slices", tuple(slices))

        num_y = len(self.y_blocks)
        y_index = {blk: i for i, blk in enumerate(self.y_blocks)}
        num_entries = sum(len(row.outputs) for row in self.rows)
        entry_map = np.zeros((cursor, num_entries))
        entry_offset = np.zeros(num_entries)
        law_map = np.zeros((num_entries, 4 * num_y))
        free = {idx: start for idx, start, _ in slices}
        entry = 0
        for idx, row in enumerate(self.rows):
            f = len(row.outputs)
            last = entry + f - 1
            entry_offset[last] = 1.0
            if idx in free:
                # the head entries are the row's parameters, the last one is
                # 1 minus their sum
                cols = np.arange(free[idx], free[idx] + f - 1)
                entry_map[cols, np.arange(entry, last)] = 1.0
                entry_map[cols, last] = -1.0
            for j, y in enumerate(row.outputs):
                law_map[entry + j, np.arange(4) * num_y + y_index[y]] = row.weights
            entry += f
        object.__setattr__(self, "entry_map", entry_map)
        object.__setattr__(self, "entry_offset", entry_offset)
        object.__setattr__(self, "law_map", law_map)

    @property
    def dim(self) -> int:
        return self.free_slices[-1][2] if self.free_slices else 0

    def params_feasible(self, params: np.ndarray) -> np.ndarray:
        """Boolean mask over a (G, dim) batch: in [0,1] with row sums <= 1."""
        params = np.atleast_2d(params)
        ok = np.all((params >= -1e-12) & (params <= 1.0 + 1e-12), axis=1)
        for _, start, stop in self.free_slices:
            ok &= params[:, start:stop].sum(axis=1) <= 1.0 + 1e-12
        return ok

    def kernel_from_params(self, params: Sequence[float]) -> PolicyKernel:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.dim,):
            raise ValidationError(f"expected {self.dim} parameters, got {params.shape}")
        if not bool(self.params_feasible(params)[0]):
            raise ValidationError("parameter vector outside the policy simplex")
        rows = {}
        free = {idx: (start, stop) for idx, start, stop in self.free_slices}
        for idx, row in enumerate(self.rows):
            if idx in free:
                start, stop = free[idx]
                head = [max(float(v), 0.0) for v in params[start:stop]]
                last = max(1.0 - math.fsum(head), 0.0)
                probs = head + [last]
            else:
                probs = [1.0]
            rows[(row.x_block, row.z_block)] = {
                y: p for y, p in zip(row.outputs, probs) if p > 0.0
            }
        return PolicyKernel(k=self.k, s=self.s, rows=rows)

    def params_from_kernel(self, kernel: PolicyKernel) -> np.ndarray:
        """Inverse of :meth:`kernel_from_params` for kernels in this family."""
        if kernel.k != self.k:
            raise ValidationError(f"kernel has k={kernel.k}, space has k={self.k}")
        params = np.zeros(self.dim)
        for idx, start, stop in self.free_slices:
            row = self.rows[idx]
            krow = kernel.rows.get((row.x_block, row.z_block))
            if krow is None:
                raise ValidationError(f"kernel misses row {row.x_block}/{row.z_block}")
            if any(y not in row.outputs for y in krow):
                raise ValidationError(
                    f"kernel row {row.x_block}/{row.z_block} puts mass outside "
                    "the feasible output set"
                )
            params[start:stop] = [krow.get(y, 0.0) for y in row.outputs[:-1]]
        return params

    def batch_laws(self, params: np.ndarray) -> np.ndarray:
        """Induced laws for a (G, dim) parameter batch; shape (G, 4, |Y|)."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        entries = params @ self.entry_map
        entries += self.entry_offset
        np.clip(entries, 0.0, None, out=entries)
        return (entries @ self.law_map).reshape(params.shape[0], 4, len(self.y_blocks))


def policy_space(
    model: SourceModel, s: float, k: int = 1, cap: int = DEFAULT_BLOCK_CAP
) -> PolicySpace:
    """Build the dense kernel family for (model, s, k).

    Raises :class:`FeasibilityError` naming the first input pair whose
    feasible output set is empty (the combination then admits no policy).
    """
    if k > cap:
        raise SizeCapError(f"block length {k} exceeds cap {cap}")
    rows = []
    for x_block, z_block in _dense_row_keys(model, k):
        outputs = feasible_outputs(model.x_alphabet, x_block, z_block, s)
        if not outputs:
            raise FeasibilityError(
                f"no feasible output for input pair x={x_block} z={z_block} at s={s}"
            )
        z_logp = _block_log_prob(model.noise, z_block)
        weights = []
        for up in UP_PAIRS:
            x_logp = _block_log_prob(model.cond[up], x_block)
            weights.append(math.exp(x_logp + z_logp) if z_logp > -math.inf else 0.0)
        rows.append(
            RowSpec(
                x_block=x_block,
                z_block=z_block,
                outputs=outputs,
                weights=tuple(weights),
            )
        )
    return PolicySpace(
        model=model, s=s, k=k, rows=tuple(rows), y_blocks=model.x_alphabet.blocks(k)
    )


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
        cond_rows = list(doc["cond"])
        noise_row = list(doc["noise"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model document: {exc!r}") from exc
    if len(cond_rows) != 4:
        raise ValidationError("cond must contain exactly 4 arrays")
    cond = {
        up: Pmf(labels=x_alpha.values, probs=tuple(float(v) for v in row))
        for up, row in zip(UP_PAIRS, cond_rows)
    }
    noise = Pmf(labels=z_alpha.values, probs=tuple(float(v) for v in noise_row))
    return SourceModel(
        x_alphabet=x_alpha, z_alphabet=z_alpha, prior=prior, cond=cond, noise=noise
    )


def load_model(path) -> SourceModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def _block_key(block: Block) -> str:
    # repr round-trips every float exactly, so reloaded keys match the alphabet
    return ",".join(repr(v) for v in block)


def _parse_block_key(key: str) -> Block:
    return tuple(float(part) for part in key.split(","))


def policy_to_dict(policy: PolicyKernel) -> dict:
    rows = []
    for (x_block, z_block), row in sorted(policy.rows.items()):
        rows.append(
            {
                "input": [list(x_block), list(z_block)],
                "output_probs": {_block_key(y): p for y, p in sorted(row.items())},
            }
        )
    return {"k": policy.k, "s": policy.s, "rows": rows}


def policy_from_dict(doc: dict) -> PolicyKernel:
    try:
        k = int(doc["k"])
        s = float(doc["s"])
        raw_rows = list(doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed policy document: {exc!r}") from exc
    rows = {}
    for entry in raw_rows:
        try:
            x_block = tuple(float(v) for v in entry["input"][0])
            z_block = tuple(float(v) for v in entry["input"][1])
            out = {
                _parse_block_key(key): float(prob)
                for key, prob in entry["output_probs"].items()
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValidationError(f"malformed policy row: {exc!r}") from exc
        rows[(x_block, z_block)] = out
    return PolicyKernel(k=k, s=s, rows=rows)


def load_policy(path) -> PolicyKernel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"policy file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"policy file is not valid JSON: {exc}") from exc
    return policy_from_dict(doc)


def demo_model() -> SourceModel:
    """The bundled binary example model used throughout the docs and tests."""
    from importlib.resources import files

    doc = json.loads(files("privtest.data").joinpath("model_demo.json").read_text())
    return model_from_dict(doc)
