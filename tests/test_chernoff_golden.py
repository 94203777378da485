"""The Chernoff kernel's output bits, pinned.

``data/chernoff_batch_golden.json`` holds ``float.hex`` of the rates of
:func:`chernoff_symbol_major` on seeded batches of row pairs at m = 2, 3, 4
and 8, scored as the columns of the transposed arrays (mixed batches of
full-support, partial-support, disjoint, equal, near-equal and
endpoint-optimum rows, plus all-full-support batches with and without equal
rows), of :func:`_law_set_rates` on a k = 2 random batch, and the sha256
of the float64 bytes of the demo model's s = 2 grid rates at 41 points per
parameter (68,921 rows, too many to list).  Every comparison is bit for
bit, so a faster kernel that moves any last digit fails here.

The file was written by the kernel that gathered the pairs candidate-major
and masked every batch.  Rewrite it only for a deliberate change of values::

    PYTHONPATH=src python tests/test_chernoff_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from privtest import demo_model, policy_space
from privtest.bayes import _law_set_rates
from privtest.optimizer import SearchConfig, grid_evaluation
from privtest.probkit import chernoff_symbol_major

GOLDEN = Path(__file__).parent / "data" / "chernoff_batch_golden.json"

_KINDS = 6  # full, partial, disjoint, equal, near-equal, endpoint optimum


def _mixed_rows(rng: np.random.Generator, m: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (rows, m) pmf arrays cycling through the six kinds of row."""
    p = rng.dirichlet(np.full(m, 0.5), size=rows)
    q = rng.dirichlet(np.full(m, 0.5), size=rows)
    for i in range(rows):
        kind = i % _KINDS
        if kind == 1:  # partial support (at m = 2 one common symbol)
            p[i, 0] = 0.0
            if m > 2:
                q[i, m - 1] = 0.0
        elif kind == 2:  # disjoint supports
            p[i, m // 2 :] = 0.0
            q[i, : m // 2] = 0.0
        elif kind == 3:
            q[i] = p[i]
        elif kind == 4:
            q[i] = p[i] * (1.0 + 1e-9 * rng.standard_normal(m))
        elif kind == 5:  # constant log-ratio on the common support
            p[i, m - 1] = 0.0
            q[i, : m - 1] = 0.5 * p[i, : m - 1] / p[i, : m - 1].sum()
            q[i, m - 1] = 0.5
    return p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


def _full_rows(
    rng: np.random.Generator, m: int, rows: int, with_equal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Two (rows, m) full-support pmf arrays; with ``with_equal``, one equal
    and one near-equal row among them."""
    p = rng.dirichlet(np.full(m, 2.0), size=rows)
    q = rng.dirichlet(np.full(m, 2.0), size=rows)
    if with_equal:
        q[1] = p[1]
        q[2] = p[2] * (1.0 + 1e-9 * rng.standard_normal(m))
        q[2] /= q[2].sum()
    return p, q


def kernel_batches() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(20240610)
    batches = {}
    for m in (2, 3, 4, 8):
        batches[f"mixed_m{m}"] = _mixed_rows(rng, m, 48)
        batches[f"full_m{m}"] = _full_rows(rng, m, 32, with_equal=False)
        batches[f"full_equal_m{m}"] = _full_rows(rng, m, 32, with_equal=True)
    return batches


def k2_laws() -> np.ndarray:
    """Laws of 64 random k = 2 demo kernels, a fifth of their parameters 0."""
    rng = np.random.default_rng(7)
    space = policy_space(demo_model(), s=1.0, k=2)
    params = space.random_params(rng, 64)
    params[rng.random(params.shape) < 0.2] = 0.0
    return space.batch_laws(params)


def grid_digest() -> str:
    grid = grid_evaluation(
        policy_space(demo_model(), s=2.0, k=1), SearchConfig(grid_points_per_parameter=41)
    )
    rates = np.concatenate([grid.utility, grid.privacy]).astype("<f8")
    return hashlib.sha256(rates.tobytes()).hexdigest()


def _hex(values: np.ndarray) -> list[str]:
    return [float(v).hex() for v in values]


def _row_rates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The kernel's rates of the row pairs of two ``(B, m)`` arrays."""
    return chernoff_symbol_major(p.T.copy(), q.T.copy())[0]


def compute() -> dict:
    utility, privacy = _law_set_rates(k2_laws(), 2)[:2]
    return {
        "chernoff_batch": {
            name: _hex(_row_rates(p, q)) for name, (p, q) in kernel_batches().items()
        },
        "k2_rates": {"utility": _hex(utility), "privacy": _hex(privacy)},
        "grid_s2_41_sha256": grid_digest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(kernel_batches()))
def test_chernoff_batch_bits(golden, name):
    p, q = kernel_batches()[name]
    assert _hex(_row_rates(p, q)) == golden["chernoff_batch"][name]


def test_k2_batch_rates_bits(golden):
    utility, privacy = _law_set_rates(k2_laws(), 2)[:2]
    assert _hex(utility) == golden["k2_rates"]["utility"]
    assert _hex(privacy) == golden["k2_rates"]["privacy"]


def test_grid_rates_bits(golden):
    assert grid_digest() == golden["grid_s2_41_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
