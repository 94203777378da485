"""The benchmark workloads: inputs, the timed calls into privtest, and checks.

Each workload was chosen so that one privtest layer does most of its work
while another is nearly idle; the ``why`` next to each definition says which.
The sizes below are smaller than the CLI defaults so that one repetition
takes a few seconds; each keeps the named layer dominant.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from inputs import binary_model, four_symbol_model, write_model


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path], dict]  # (seed, work dir) -> inputs; part of set-up
    run: Callable[[dict], dict]  # the timed calls into privtest; JSON-able outputs
    check: Callable[[dict, dict], dict]  # -> {"ops": [(name, errors)], "search_privacy_rate"}
    # adds what the run wrote to files to its outputs, after the timed region
    collect: Callable[[dict, dict], dict] = lambda inp, out: out


def run_cli(argv: list[str]) -> dict:
    """Run ``privtest ARGV`` in this process; capture stdout and the exit code."""
    import privtest.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = privtest.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return {"exit": None, "stdout": buf.getvalue(), "error": f"{type(exc).__name__}: {exc}"}
    return {"exit": code, "stdout": buf.getvalue(), "error": None}


# ---------------------------------------------------------------------------
# tradeoff-grid
# ---------------------------------------------------------------------------

# One guarantee per s keeps a repetition short; each further lambda would add
# refinement work only, since the grid rates are shared across lambda.
TRADEOFF_LAMBDAS = (0.1,)
TRADEOFF_S = (1.0, 2.0)
TRADEOFF_GRID_POINTS = 41
# Sub-lattice of the 41-point grid (every other point) for the optimality oracle.
TRADEOFF_ORACLE_POINTS = 21


def _tradeoff_prepare(seed: int, work: Path) -> dict:
    doc = binary_model(seed)
    return {"doc": doc, "model": str(write_model(doc, work / "model.json")),
            "csv": str(work / "curve.csv"), "svg": str(work / "curve.svg")}


def _tradeoff_run(inp: dict) -> dict:
    return run_cli([
        "tradeoff", "--model", inp["model"], "--s", ",".join(map(repr, TRADEOFF_S)),
        "--lambda-grid", ",".join(map(repr, TRADEOFF_LAMBDAS)),
        "--grid-points", str(TRADEOFF_GRID_POINTS),
        "--out-csv", inp["csv"], "--out-svg", inp["svg"],
    ])


def _tradeoff_collect(inp: dict, out: dict) -> dict:
    files = {}
    for key in ("csv", "svg"):
        path = Path(inp[key])
        files[key] = path.read_text() if path.exists() else ""
    return dict(out, **files)


def _tradeoff_check(inp: dict, out: dict) -> dict:
    ops = oracles.check_tradeoff(inp["doc"], TRADEOFF_LAMBDAS, TRADEOFF_S,
                                 TRADEOFF_ORACLE_POINTS, out)
    points = oracles.parse_tradeoff_csv(out["csv"]) if out["csv"] else {}
    rate = (math.fsum(p["privacy"] for p in points.values()) / len(points)) if points else None
    return {"ops": ops, "search_privacy_rate": rate}


# ---------------------------------------------------------------------------
# blocklength-k2
# ---------------------------------------------------------------------------

BLOCK_LAMBDA = 0.1
BLOCK_S = 1.0
# The search keeps privtest's default seed: with seeded restarts the cost of
# the pattern search varies more between seeds than a perf change would move it.
BLOCK_RESTARTS = 1
BLOCK_ORACLE_POINTS = 51  # every other point of the default 101-point grid


def _block_prepare(seed: int, work: Path) -> dict:
    doc = binary_model(seed)
    return {"doc": doc, "model": str(write_model(doc, work / "model.json"))}


def _block_run(inp: dict) -> dict:
    import privtest

    try:
        model = privtest.load_model(inp["model"])
        cfg = privtest.GuaranteeConfig(lam=BLOCK_LAMBDA, k=1, s=BLOCK_S)
        search = privtest.SearchConfig(restarts=BLOCK_RESTARTS)
        report = privtest.monotonicity_check(model, cfg, 2, search)
    except Exception as exc:  # both optimizations count as failed
        return {"error": f"{type(exc).__name__}: {exc}"}

    def point(p):
        return {"privacy": p.privacy_rate, "utility": p.utility_rate, "feasible": p.feasible}

    return {"point_k": point(report.point_k), "point_n": point(report.point_n),
            "extended_rate": report.extended_rate,
            "extended_feasible": report.extended_feasible, "holds": report.holds}


def _block_check(inp: dict, out: dict) -> dict:
    import privtest

    model = privtest.model.model_from_dict(inp["doc"])
    reference = privtest.tradeoff_sweep(
        model, [BLOCK_LAMBDA], [BLOCK_S], privtest.GuaranteeConfig(lam=0.0, k=1, s=BLOCK_S)
    )[0].privacy_rate
    ops = oracles.check_blocklength(inp["doc"], BLOCK_LAMBDA, BLOCK_S, reference,
                                    BLOCK_ORACLE_POINTS, out)
    rate = None if out.get("error") else out["point_n"]["privacy"]
    return {"ops": ops, "search_privacy_rate": rate}


# ---------------------------------------------------------------------------
# oracle-suites
# ---------------------------------------------------------------------------

# Trials per suite, chosen so each suite takes a similar share of the run;
# None keeps the suite's fixed size.  ``monotonic`` is left out: it repeats
# the blocklength-k2 workload.
SUITE_TRIALS = {
    "identity": 40,
    "primal-dual": 20,
    "exponents": 4,
    "lower-bound": 15,
    "convergence": None,
    "tensorize": 5,
}


def _suites_prepare(seed: int, work: Path) -> dict:
    return {"seed": seed}


def _suites_run(inp: dict) -> dict:
    outs = {}
    for name, trials in SUITE_TRIALS.items():
        argv = ["verify", "--suite", name, "--seed", str(inp["seed"])]
        if trials is not None:
            argv += ["--trials", str(trials)]
        outs[name] = run_cli(argv)
    return outs


def _suites_check(inp: dict, out: dict) -> dict:
    return {"ops": oracles.check_suites(out), "search_privacy_rate": None}


# ---------------------------------------------------------------------------
# exact-types-m4
# ---------------------------------------------------------------------------

EXACT_M4_N = 70
EXACT_BINARY_N = 4000
EXACT_SHORT_N = 8  # 4**8 = 65,536 sequences for the enumeration cross-check


def _exact_prepare(seed: int, work: Path) -> dict:
    m4, binary = four_symbol_model(seed), binary_model(seed)
    calls = []
    for doc, name, n in ((m4, "m4.json", EXACT_M4_N), (binary, "binary.json", EXACT_BINARY_N)):
        path = str(write_model(doc, work / name))
        for target in ("utility", "privacy"):
            calls.append({"doc": doc, "model": path, "target": target, "n": n})
    return {"calls": calls}


def _exact_run(inp: dict) -> dict:
    return {"outs": [
        run_cli(["exact-error", "--model", c["model"], "--policy", "identity",
                 "--target", c["target"], "--n", str(c["n"]), "--method", "types"])
        for c in inp["calls"]
    ]}


def _exact_check(inp: dict, out: dict) -> dict:
    import privtest

    calls = []
    for call, cli_out in zip(inp["calls"], out["outs"]):
        call = dict(call, out=cli_out)
        if len(call["doc"]["x_alphabet"]) == 4:
            model = privtest.model.model_from_dict(call["doc"])
            laws = privtest.induced_output_laws(model, privtest.identity_policy(model, s=1.0))
            target = privtest.TestTarget(call["target"])
            types = math.exp(privtest.exact_min_error_iid_log(laws, model.prior, target,
                                                              EXACT_SHORT_N))
            enum = privtest.exact_min_error(laws, model.prior, target, EXACT_SHORT_N)
            call["short"] = (types, enum)
        calls.append(call)
    return {"ops": oracles.check_exact(calls), "search_privacy_rate": None}


WORKLOADS = {w.name: w for w in (
    Workload(
        "tradeoff-grid",
        "privtest tradeoff at lambda 0.1, s in {1,2}, 41 grid points per parameter: "
        "the batched grid scan dominates, the scalar kernels idle",
        _tradeoff_prepare, _tradeoff_run, _tradeoff_check, _tradeoff_collect,
    ),
    Workload(
        "blocklength-k2",
        "monotonicity_check k=1 to 2 at lambda 0.1, dim 34, 1 restart + warm start: "
        "Python-bound pattern search over many tiny batches, grid idle",
        _block_prepare, _block_run, _block_check,
    ),
    Workload(
        "oracle-suites",
        "privtest verify for six suites: scalar probkit kernels, composite nesting, "
        "Sanov/primal grids and enumeration, with the optimizer nearly idle",
        _suites_prepare, _suites_run, _suites_check,
    ),
    Workload(
        "exact-types-m4",
        "privtest exact-error --method types on a 4-symbol model at n=70 and a binary "
        "one at n=4000: type-class enumeration in bayes dominates",
        _exact_prepare, _exact_run, _exact_check,
    ),
)}
