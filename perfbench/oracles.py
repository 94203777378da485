"""Oracles that decide whether a workload's outputs are right.

The numpy routines here are written independently of privtest: a Chernoff
information by bisection on the derivative of the log-partition function,
kernel enumeration on a parameter lattice, and exact type-class errors.
The ``check_*`` functions take a workload's raw outputs and return one
``(op_name, errors)`` pair per operation; an empty error list means the
operation passed.  They run after the timed region.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

# Law order used throughout: (u, p) = (0,0), (0,1), (1,0), (1,1).
UP_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

RATE_TOL = 1e-6  # scalar recomputation of a reported rate
MONOTONE_TOL = 1e-4  # privacy rate nondecreasing in lambda
GRID_TOL = 1e-8  # reported optimum vs the best point of a sub-lattice
SAME_POINT_TOL = 1e-9  # one optimum reached by two routes
LOG_ALPHA_RTOL = 1e-9  # CLI type-class error vs the numpy type-class oracle
ENUM_RTOL = 1e-12  # type-class vs full enumeration at a short horizon


def side(target: str, h: int) -> list[int]:
    """Indices of the laws under which the tested hypothesis (u or p) equals h."""
    return [i for i, (u, p) in enumerate(UP_PAIRS) if (u if target == "utility" else p) == h]


def grouped_pairs(target: str) -> list[tuple[int, int]]:
    """Cross-group law index pairs whose minimal Chernoff information is the rate."""
    return [(a, b) for a in side(target, 1) for b in side(target, 0)]


def chernoff(p, q, iterations: int = 64) -> np.ndarray:
    """Chernoff information over the last axis, on the common support.

    L(mu) = log sum p^mu q^(1-mu) is convex, so its minimizer on [0, 1] is
    found by bisection on the sign of L'(mu) = E_{p_mu}[log p - log q].
    Disjoint supports give +inf.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    common = (p > 0) & (q > 0)
    lp = np.log(np.where(common, p, 1.0))
    lq = np.log(np.where(common, q, 1.0))

    def weights(mu):
        return np.where(common, np.exp(mu[..., None] * lp + (1.0 - mu[..., None]) * lq), 0.0)

    lo = np.zeros(p.shape[:-1])
    hi = np.ones(p.shape[:-1])
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        slope = (weights(mid) * (lp - lq)).sum(axis=-1)
        lo = np.where(slope < 0, mid, lo)
        hi = np.where(slope < 0, hi, mid)
    total = weights(0.5 * (lo + hi)).sum(axis=-1)
    with np.errstate(divide="ignore"):
        return np.where(common.any(axis=-1), np.maximum(-np.log(total), 0.0), np.inf)


def rates(laws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(utility, privacy) rates of a (..., 4, m) stack of per-slot laws."""
    out = []
    for target in ("utility", "privacy"):
        out.append(np.min([chernoff(laws[..., a, :], laws[..., b, :])
                           for a, b in grouped_pairs(target)], axis=0))
    return out[0], out[1]


def kernel_lattice_laws(doc: dict, s: float, points: int) -> np.ndarray:
    """Induced laws of every k=1 kernel whose probabilities are multiples of
    1/(points-1); shape (G, 4, |X|).

    A row (x, z) may emit any y with 0 <= y + z - x <= s; each row draws its
    output distribution from the lattice independently.
    """
    xs = [float(v) for v in doc["x_alphabet"]]
    zs = [float(v) for v in doc["z_alphabet"]]
    cond = np.asarray(doc["cond"], dtype=float)  # (4, |X|)
    noise = np.asarray(doc["noise"], dtype=float)
    steps = points - 1
    row_weights = []
    row_choices = []
    for (i, x), (j, z) in itertools.product(enumerate(xs), enumerate(zs)):
        outs = [t for t, y in enumerate(xs) if -1e-9 <= y + z - x <= s + 1e-9]
        choices = []
        for bars in itertools.combinations(range(steps + len(outs) - 1), len(outs) - 1):
            counts = np.diff([-1, *bars, steps + len(outs) - 1]) - 1
            row = np.zeros(len(xs))
            row[outs] = counts / steps
            choices.append(row)
        row_weights.append(cond[:, i] * noise[j])  # (4,)
        row_choices.append(np.array(choices))  # (c, |X|)
    laws = np.zeros((1, 4, len(xs)))
    for w, choices in zip(row_weights, row_choices):
        contrib = w[None, :, None] * choices[:, None, :]  # (c, 4, |X|)
        laws = (laws[:, None] + contrib[None, :]).reshape(-1, 4, len(xs))
    return laws


def lattice_best_privacy(doc: dict, s: float, points: int, lambdas) -> dict[float, float]:
    """Least privacy rate over the lattice kernels meeting each utility guarantee."""
    utility, privacy = rates(kernel_lattice_laws(doc, s, points))
    return {lam: float(np.min(privacy[utility >= lam + GRID_TOL], initial=np.inf))
            for lam in lambdas}


def log_alpha_types(doc: dict, target: str, n: int) -> float:
    """log of the exact Bayes error over n i.i.d. unmanaged slots.

    Sums, over all type classes, the class size times the smaller of the two
    grouped hypothesis masses, in log space.
    """
    laws = np.log(np.asarray(doc["cond"], dtype=float))  # (4, m)
    log_prior = np.log(np.asarray(doc["prior"], dtype=float))
    m = laws.shape[1]
    bars = np.array(list(itertools.combinations(range(n + m - 1), m - 1)))
    edges = np.concatenate([np.full((len(bars), 1), -1), bars,
                            np.full((len(bars), 1), n + m - 1)], axis=1)
    counts = np.diff(edges, axis=1) - 1  # (T, m)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_coef = log_fact[n] - log_fact[counts].sum(axis=1)
    joint = log_coef[:, None] + counts @ laws.T + log_prior[None, :]  # (T, 4)
    grouped = [np.logaddexp(*joint[:, side(target, h)].T) for h in (0, 1)]
    loser = np.minimum(*grouped)
    top = loser.max()
    return float(top + np.log(np.exp(loser - top).sum()))


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def _cli_errors(out: dict) -> list[str]:
    errors = []
    if out.get("error"):
        errors.append(f"raised {out['error']}")
    elif out.get("exit") != 0:
        errors.append(f"exit code {out.get('exit')}")
    return errors


def parse_tradeoff_csv(text: str) -> dict[tuple[float, float], dict]:
    points = {}
    for row in csv.DictReader(io.StringIO(text)):
        points[(float(row["lambda"]), float(row["s"]))] = {
            "privacy": float(row["privacy_rate"]),
            "utility": float(row["utility_rate"]),
            "feasible": row["feasible"] == "true",
            "params": [float(v) for v in row["kernel_params"].split(";") if v],
        }
    return points


def scalar_rates(doc: dict, s: float, params) -> tuple[float, float]:
    """(utility, privacy) of a k=1 kernel through privtest's scalar path."""
    import privtest
    from privtest.bayes import grouped_pairs as pt_pairs
    from privtest.probkit import chernoff_from_probs

    model = privtest.model.model_from_dict(doc)
    kernel = privtest.policy_space(model, s, 1).kernel_from_params(params)
    laws = privtest.induced_output_laws(model, kernel)
    out = []
    for target in (privtest.TestTarget.UTILITY, privtest.TestTarget.PRIVACY):
        if all(law.full_support for law in laws.laws.values()):
            out.append(privtest.exponent_chernoff(laws, target).value)
        else:
            out.append(min(
                chernoff_from_probs(laws.laws[a].probs, laws.laws[b].probs, allow_zeros=True)[0]
                for a, b in pt_pairs(target)))
    return out[0], out[1]


def check_tradeoff(doc: dict, lambdas, s_values, oracle_points: int, out: dict):
    """One op per (lambda, s) point of ``privtest tradeoff``; both lists ascend."""
    grid = [(s_idx, s, lam_idx, lam) for s_idx, s in enumerate(s_values)
            for lam_idx, lam in enumerate(lambdas)]
    names = [f"point(lam={lam:g},s={s:g})" for _, s, _, lam in grid]
    cli = _cli_errors(out)
    if cli:
        return [(name, cli) for name in names]
    points = parse_tradeoff_csv(out["csv"])
    best = {s: lattice_best_privacy(doc, s, oracle_points, lambdas) for s in s_values}
    ops = []
    for name, (s_idx, s, lam_idx, lam) in zip(names, grid):
        pt = points.get((lam, s))
        if pt is None:
            ops.append((name, ["missing from the CSV"]))
            continue
        errors = []
        if not pt["feasible"]:
            errors.append("reported infeasible")
        util, priv = scalar_rates(doc, s, pt["params"])
        if abs(util - pt["utility"]) > RATE_TOL or abs(priv - pt["privacy"]) > RATE_TOL:
            errors.append(f"rates ({pt['utility']!r}, {pt['privacy']!r}) but the "
                          f"kernel gives ({util!r}, {priv!r})")
        if pt["privacy"] > best[s][lam] + GRID_TOL:
            errors.append(f"privacy {pt['privacy']!r} worse than lattice point {best[s][lam]!r}")
        smaller_lam = points.get((lambdas[lam_idx - 1], s)) if lam_idx else None
        if smaller_lam and pt["privacy"] < smaller_lam["privacy"] - MONOTONE_TOL:
            errors.append("privacy rate decreases in lambda")
        smaller_s = points.get((lam, s_values[s_idx - 1])) if s_idx else None
        if smaller_s and pt["privacy"] > smaller_s["privacy"] + GRID_TOL:
            errors.append(f"privacy {pt['privacy']!r} above the smaller-s optimum "
                          f"{smaller_s['privacy']!r}")
        ops.append((name, errors))
    return ops


def check_blocklength(doc: dict, lam: float, s: float, reference_privacy: float,
                      oracle_points: int, out: dict):
    """Ops: the k-level and the n-level optimization of ``monotonicity_check``."""
    if out.get("error"):
        return [("optimize(k=1)", [out["error"]]), ("optimize(k=2)", [out["error"]])]
    pk, pn = out["point_k"], out["point_n"]
    k_errors, n_errors = [], []
    if not pk["feasible"]:
        k_errors.append("k=1 optimum infeasible")
    if abs(pk["privacy"] - reference_privacy) > SAME_POINT_TOL:
        k_errors.append(f"k=1 optimum {pk['privacy']!r} differs from the trade-off "
                        f"sweep point {reference_privacy!r}")
    best = lattice_best_privacy(doc, s, oracle_points, [lam])[lam]
    if pk["privacy"] > best + GRID_TOL:
        k_errors.append(f"k=1 optimum {pk['privacy']!r} worse than lattice point {best!r}")
    if not pn["feasible"]:
        n_errors.append("k=2 optimum infeasible")
    if not out["holds"]:
        n_errors.append("monotonicity report does not hold")
    if not out["extended_feasible"]:
        n_errors.append("block extension of the k=1 optimum is infeasible")
    if pn["privacy"] > out["extended_rate"] + SAME_POINT_TOL:
        n_errors.append(f"k=2 optimum {pn['privacy']!r} worse than its warm start "
                        f"{out['extended_rate']!r}")
    return [("optimize(k=1)", k_errors), ("optimize(k=2)", n_errors)]


def check_suites(outs: dict[str, dict]):
    """One op per ``privtest verify --suite NAME`` call."""
    ops = []
    for name, out in outs.items():
        errors = _cli_errors(out)
        if not errors and not out["stdout"].startswith("[PASS]"):
            errors.append(f"suite reported: {out['stdout'].strip()}")
        ops.append((f"verify:{name}", errors))
    return ops


_EXPONENT = re.compile(r"^\(1/n\) log\(1/alpha\): (\S+)$", re.M)
_BOUND = re.compile(r"^exponent lower bound: \S+\s+\[(PASS|FAIL)\]$", re.M)


def check_exact(calls: list[dict]):
    """One op per ``privtest exact-error`` call.

    Each call dict holds ``doc``, ``target``, ``n``, the CLI ``out`` and, when
    the short-horizon comparison ran, ``short`` = (types, enumerate) errors.
    """
    ops = []
    for call in calls:
        name = f"exact-error(m={len(call['doc']['x_alphabet'])},{call['target']},n={call['n']})"
        errors = _cli_errors(call["out"])
        if not errors:
            stdout = call["out"]["stdout"]
            bound = _BOUND.search(stdout)
            if not bound or bound.group(1) != "PASS":
                errors.append("lower bound not reported as PASS")
            found = _EXPONENT.search(stdout)
            expect = -log_alpha_types(call["doc"], call["target"], call["n"]) / call["n"]
            if not found:
                errors.append("no exponent line in the output")
            elif abs(float(found.group(1)) - expect) > LOG_ALPHA_RTOL * abs(expect):
                errors.append(f"exponent {found.group(1)} but the type-class oracle "
                              f"gives {expect!r}")
        if "short" in call:
            types, enum = call["short"]
            if abs(types - enum) > ENUM_RTOL * abs(enum):
                errors.append(f"types {types!r} != enumerate {enum!r} at the short horizon")
        ops.append((name, errors))
    return ops
