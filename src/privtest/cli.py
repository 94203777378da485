"""Command-line front end.

Subcommands: ``divergence``, ``exponent``, ``exact-error``, ``tradeoff``,
``verify``.  File-emitting commands write a JSON run manifest next to their
outputs.  Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 support violation, 4 cross-check divergence, 5 size cap, 6 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import __version__
from .bayes import (
    TestTarget,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_composite,
    exponent_lower_bound,
    exponent_sanov,
    exponent_chernoff,
)
from .errors import (
    CrossCheckError,
    EnumerationCapError,
    PrivtestError,
    SizeCapError,
    SupportError,
    ValidationError,
)
from .model import (
    SourceModel,
    constant_policy,
    demo_model,
    identity_policy,
    induced_output_laws,
    load_model,
    load_policy,
)
from .optimizer import GuaranteeConfig, SearchConfig, TradeoffPoint, tradeoff_sweep
from .probkit import (
    Pmf,
    chernoff_information_with_argmax,
    kl_divergence,
    composite_chernoff_with_argmax,
)
from .verify import SUITES, run_suites

CROSS_CHECK_TOL = 2e-3

#: Most points a ``start:stop:step`` lambda grid may hold; each point is a
#: full policy optimization.
MAX_LAMBDA_POINTS = 1001


# ---------------------------------------------------------------------------
# Input parsing helpers
# ---------------------------------------------------------------------------


def _parse_pmf(spec: str) -> Pmf:
    """Parse a pmf argument: ``bern:theta`` or a JSON file path.

    A pmf file is either a plain probability array (labels become 0..m-1) or
    an object with ``labels`` and ``probs`` fields.
    """
    if spec.startswith("bern:"):
        return Pmf.bernoulli(float(spec.split(":", 1)[1]))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"pmf file not found: {spec}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"pmf file {spec} is not valid JSON: {exc}") from exc
    try:
        if isinstance(doc, list):
            return Pmf(labels=tuple(range(len(doc))), probs=tuple(float(v) for v in doc))
        if isinstance(doc, dict) and "labels" in doc and "probs" in doc:
            return Pmf(labels=tuple(doc["labels"]), probs=tuple(float(v) for v in doc["probs"]))
    except TypeError as exc:  # e.g. unhashable labels, or a nested weight
        raise ValidationError(f"malformed pmf file {spec}: {exc}") from exc
    raise ValidationError(f"pmf file {spec} must be an array or a labels/probs object")


def _load_model_arg(spec: str) -> SourceModel:
    if spec == "demo":
        return demo_model()
    return load_model(spec)


def _load_policy_arg(spec: str, model: SourceModel, s: float, k: int):
    if spec == "identity":
        return identity_policy(model, s=s, k=k)
    if spec.startswith("constant:"):
        return constant_policy(model, s=s, y_value=float(spec.split(":", 1)[1]), k=k)
    return load_policy(spec, model)


def _parse_target(name: str) -> TestTarget:
    try:
        return TestTarget(name)
    except ValueError:
        raise ValidationError(f"target must be 'utility' or 'privacy', got {name!r}") from None


def _parse_list(spec: str, what: str) -> list[float]:
    """A comma list of at least one number."""
    values = [float(p) for p in spec.split(",") if p.strip()]
    if not values:
        raise ValidationError(f"{what} names no values: {spec!r}")
    return values


def _parse_lambda_grid(spec: str) -> list[float]:
    """``start:stop:step`` (inclusive, within half a step) or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError("lambda grid must be start:stop:step or a comma list")
        start, stop, step = (float(p) for p in parts)
        if not (step > 0 and start <= stop and math.isfinite(stop - start)):
            raise ValidationError(f"bad lambda grid {spec!r}")
        steps = (stop - start) / step  # +inf for a subnormal step
        if not steps < MAX_LAMBDA_POINTS - 0.5:
            raise SizeCapError(
                f"lambda grid {spec!r} holds more than {MAX_LAMBDA_POINTS} points; "
                "use a larger step"
            )
        return [round(start + i * step, 12) for i in range(round(steps) + 1)]
    return _parse_list(spec, "--lambda-grid")


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """Reproducibility record written next to every output artifact."""

    command: str
    parameters: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    version: str = __version__
    started: str = ""
    finished: str = ""

    @staticmethod
    def _digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def add_input_bytes(self, name: str, data: bytes) -> None:
        self.inputs[name] = self._digest(data)

    def add_input_file(self, name: str, path: str) -> None:
        with open(path, "rb") as fh:
            self.add_input_bytes(name, fh.read())

    def add_output_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            self.outputs[path] = self._digest(fh.read())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_divergence(args) -> int:
    pmfs = [_parse_pmf(spec) for spec in args.pmfs]
    wants_comp = args.composite or (not args.kl and not args.chernoff and len(pmfs) == 3)
    wants_kl = args.kl or (not args.chernoff and not args.composite)
    wants_chernoff = args.chernoff or (not args.kl and not args.composite)
    if len(pmfs) < 2:
        raise ValidationError("divergence needs at least two pmfs")
    if wants_comp and len(pmfs) != 3:
        raise ValidationError("the composite divergence needs exactly three pmfs")
    p, q = pmfs[0], pmfs[1]
    if wants_kl:
        print(f"kl: {kl_divergence(p, q)!r}")
    if wants_chernoff:
        value, mu = chernoff_information_with_argmax(p, q)
        print(f"chernoff: {value!r}  (mu* = {mu:.10f})")
    if wants_comp:
        value, point = composite_chernoff_with_argmax(pmfs[0], pmfs[1], pmfs[2])
        print(f"composite: {value!r}  (mu* = {point.mu:.10f}, nu* = {point.nu:.10f})")
    return 0


def cmd_exponent(args) -> int:
    model = _load_model_arg(args.model)
    policy = _load_policy_arg(args.policy, model, s=args.s, k=args.k)
    laws = induced_output_laws(model, policy)
    target = _parse_target(args.target)
    report = exponent_chernoff(laws, target)
    print(f"exponent ({target.value}, chernoff form): {report.value!r}")
    print(f"  argmin pair: law{report.argmin_pair[0]} vs law{report.argmin_pair[1]}")
    if args.cross_check:
        if laws.k != 1:
            raise ValidationError("--cross-check needs a k=1 policy")
        comp_report = exponent_composite(laws, target)
        s_report = exponent_sanov(laws, target, args.grid_step)
        print(f"exponent ({target.value}, composite form): {comp_report.value!r}")
        print(f"exponent ({target.value}, sanov form):   {s_report.value!r}")
        values = [report.value, comp_report.value, s_report.value]
        delta = max(values) - min(values)
        print(f"cross-check delta: {delta!r}")
        if delta > CROSS_CHECK_TOL:
            raise CrossCheckError(
                f"exponent forms disagree by {delta!r} > {CROSS_CHECK_TOL}"
            )
    return 0


def cmd_exact_error(args) -> int:
    model = _load_model_arg(args.model)
    policy = _load_policy_arg(args.policy, model, s=args.s, k=args.k)
    laws = induced_output_laws(model, policy)
    target = _parse_target(args.target)
    n = args.n
    if n % laws.k != 0:
        raise ValidationError(f"n={n} is not a multiple of the block length k={laws.k}")
    n_blocks = n // laws.k
    if args.method == "enumerate":
        alpha = exact_min_error(laws, model.prior, target, n_blocks)
        log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
    else:
        if laws.k != 1:
            raise ValidationError("method 'types' needs a k=1 policy")
        log_alpha = exact_min_error_iid_log(laws, model.prior, target, n)
        alpha = math.exp(log_alpha)
    exponent = -log_alpha / n
    bound = exponent_lower_bound(laws, model.prior, target, n_blocks=n_blocks)
    ok = exponent >= bound
    print(f"alpha ({target.value}, n={n}): {alpha!r}")
    print(f"(1/n) log(1/alpha): {exponent!r}")
    print(f"exponent lower bound: {bound!r}  [{'PASS' if ok else 'FAIL'}]")
    return 0 if ok else 1


def _format_point(point: TradeoffPoint) -> list[str]:
    return [
        repr(point.lam),
        repr(point.s),
        repr(point.k),
        repr(point.privacy_rate),
        repr(point.utility_rate),
        "true" if point.feasible else "false",
        ";".join(repr(v) for v in point.params),
    ]


def _write_csv(path: str, points: list[TradeoffPoint]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["lambda", "s", "k", "privacy_rate", "utility_rate", "feasible", "kernel_params"]
        )
        for point in points:
            writer.writerow(_format_point(point))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _write_svg(path: str, points: list[TradeoffPoint], s_values: list[float]) -> None:
    """Static line plot: privacy rate vs lambda, one polyline per s value."""
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 20, 50
    feasible = [p for p in points if p.feasible]
    xs = [p.lam for p in points]
    ys = [p.privacy_rate for p in feasible] or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.08 or 1.0
    if x_hi <= x_lo:
        # one distinct lambda (never negative): a unit span, or from 0 to a
        # larger lambda, whose size would absorb the unit
        x_lo, x_hi = (x_lo, x_lo + 1.0) if x_lo < 1.0 else (0.0, x_lo)

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{sy(yv) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle">utility guarantee (nats/slot)</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">'
        "privacy rate (nats/slot)</text>"
    )
    for idx, s in enumerate(s_values):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        run: list[str] = []
        segments: list[list[str]] = []
        for point in points:
            if point.s != s:
                continue
            if point.feasible:
                run.append(f"{sx(point.lam):.2f},{sy(point.privacy_rate):.2f}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"/>'
                )
        parts.append(
            f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * idx}" font-size="12" '
            f'text-anchor="end" fill="{color}">s = {s:g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def cmd_tradeoff(args) -> int:
    manifest = RunManifest(
        command="tradeoff",
        parameters={
            "model": args.model,
            "s": args.s,
            "lambda_grid": args.lambda_grid,
            "k": args.k,
            "correction": args.correction,
            "seed": args.seed,
            "grid_points": args.grid_points,
            "restarts": args.restarts,
        },
        started=_utcnow(),
    )
    model = _load_model_arg(args.model)
    if args.model == "demo":
        from importlib.resources import files

        manifest.add_input_bytes(
            "model:demo", files("privtest.data").joinpath("model_demo.json").read_bytes()
        )
    else:
        manifest.add_input_file(f"model:{args.model}", args.model)
    lambdas = _parse_lambda_grid(args.lambda_grid)
    s_values = _parse_list(args.s, "--s")
    cfg = GuaranteeConfig(
        lam=0.0, k=args.k, s=s_values[0], include_correction=args.correction == "on"
    )
    search = SearchConfig(
        grid_points_per_parameter=args.grid_points, restarts=args.restarts, seed=args.seed
    )
    points = tradeoff_sweep(model, lambdas, s_values, cfg, search)
    _write_csv(args.out_csv, points)
    manifest.add_output_file(args.out_csv)
    if args.out_svg:
        _write_svg(args.out_svg, points, s_values)
        manifest.add_output_file(args.out_svg)
    manifest.finished = _utcnow()
    manifest.write(args.out_csv + ".manifest.json")
    infeasible = sum(not p.feasible for p in points)
    print(f"wrote {len(points)} points to {args.out_csv} ({infeasible} infeasible)")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, trials=args.trials)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privtest",
        description="Privacy-utility trade-off analysis for composite hypothesis tests",
    )
    parser.add_argument("--version", action="version", version=f"privtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="KL / Chernoff / composite divergences of pmfs")
    p.add_argument("pmfs", nargs="+", help="two or three pmfs (bern:theta or JSON file)")
    p.add_argument("--kl", action="store_true")
    p.add_argument("--chernoff", action="store_true")
    p.add_argument("--composite", "--t", action="store_true",
                   help="composite divergence of three pmfs")
    p.set_defaults(func=cmd_divergence)

    def add_model_policy(p):
        p.add_argument("--model", default="demo", help="model JSON file or 'demo'")
        p.add_argument(
            "--policy",
            default="identity",
            help="policy JSON file, 'identity', or 'constant:VALUE'",
        )
        p.add_argument("--s", type=float, default=1.0, help="supply slack for builtin policies")
        p.add_argument("--k", type=int, default=1, help="block length for builtin policies")
        p.add_argument("--target", default="utility", choices=["utility", "privacy"])

    p = sub.add_parser("exponent", help="asymptotic error exponent of the composite test")
    add_model_policy(p)
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the composite-form and Sanov-form exponents")
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("exact-error", help="exact Bayes error at a finite horizon")
    add_model_policy(p)
    p.add_argument("--n", type=int, required=True, help="horizon in slots")
    p.add_argument("--method", default="types", choices=["enumerate", "types"])
    p.set_defaults(func=cmd_exact_error)

    p = sub.add_parser("tradeoff", help="optimize the privacy-utility trade-off curve")
    p.add_argument("--model", default="demo")
    p.add_argument("--s", default="1,2", help="comma list of supply slacks")
    p.add_argument("--lambda-grid", default="0:0.16:0.01",
                   help="start:stop:step or comma list of utility guarantees")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--correction", default="off", choices=["on", "off"],
                   help="include the log(8 p_max)/k term in the threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=101)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="random instances per suite, at least 1 (default: each suite's "
                        "own count); convergence and monotonic have fixed sizes and "
                        "ignore it")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SupportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SizeCapError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (PrivtestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
