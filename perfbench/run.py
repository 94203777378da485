"""privtest benchmark: seeded workloads timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory; it works on the checkout that contains it, importing
privtest from its ``src``.  Each repetition runs in a fresh child process
(child.py), one at a time, and repetitions continue until about ``--seconds``
have passed (at least MIN_REPS).  The host's cores change speed by tens of
percent from second to second and minute to minute, so the timed region is
reported as ``wall_norm_s``: its time at a nominal core speed, measured by
small probes that run on its thread while it runs (calib.py).  ``--trace 0``
reports the medians of the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics (medians
over the traced ones) plus the tracing overhead.  The oracles check the first
repetition's outputs; every later repetition must produce byte-identical
outputs.  The last line of stdout is one JSON object, and the exit code is
non-zero when any check failed.
Scratch files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from child import now  # noqa: E402

WORKLOAD_NAMES = ("tradeoff-grid", "blocklength-k2", "oracle-suites", "exact-types-m4")

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

MIN_REPS = 3  # untraced repetitions per --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run
STOP_STARTING_S = 120.0  # no repetition starts after this, whatever --seconds says
CHILD_TIMEOUT_S = 150.0


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("share"):
        return "share"
    return "count"


def run_rep(workload: str, seed: int, traced: bool, index: int) -> dict:
    # the same path on every repetition, since the outputs must be identical
    work = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = [workload, str(seed), str(int(traced)), str(int(index == 0)), str(work)]
    spawned = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    ended = now()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} repetition {index} exited with {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep.update(traced=traced, setup_s=rep["start"] - spawned, total_s=ended - spawned)
    if traced:
        shutil.copyfile(work / "spans.json", OUT / f"{workload}-seed{seed}.spans.json")
    shutil.rmtree(work)
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = []
    began = now()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, seed, traced, len(reps))
        reps.append(rep)
        print(f"  rep {len(reps)}{' traced' if traced else ''}: wall_s={rep['wall_s']:.4f} "
              f"probes={rep['probes']}x{rep['probe_mean_s'] * 1e3:.3f}ms "
              f"wall_norm_s={rep['wall_norm_s']:.4f} setup_s={rep['setup_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f}", flush=True)
        elapsed = now() - began
        if trace and len(reps) % 2:
            continue  # a traced repetition always follows its untraced partner
        enough = len(reps) >= (2 * MIN_PAIRS if trace else MIN_REPS)
        if enough and (elapsed + rep["total_s"] > seconds or elapsed > STOP_STARTING_S):
            break

    first = reps[0]
    for rep in reps[1:]:
        same = rep["digest"] == first["digest"]
        rep["ops"] = [(op, [] if same else ["outputs differ from the checked first repetition"])
                      for op, _ in first["ops"]]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["ops"]) for r in reps)
    failures = [(i, op, errs) for i, r in enumerate(reps, 1) for op, errs in r["ops"] if errs]
    for i, op, errs in failures:
        print(f"  FAILED rep {i} {op}: {'; '.join(errs)}")
    wall = statistics.median(r["wall_norm_s"] for r in plain)
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = \
            statistics.median(r["wall_norm_s"] for r in traced) / wall - 1
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": statistics.median(r[k] for r in plain), "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(f"  {workload}: {len(plain)} untraced + {len(traced)} traced repetitions, "
          f"failed_frac={len(failures) / attempted:.4g} ({len(failures)}/{attempted} ops)")
    print(f"  wall_s (raw, not normalized) = {statistics.median(r['wall_s'] for r in plain)!r} s")
    if first["search_privacy_rate"] is not None:
        print(f"  search_privacy_rate = {first['search_privacy_rate']!r} nats")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "privtest" / "__init__.py").is_file():
        print(f"no privtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"{name} (seed {args.seed}, trace {args.trace})", flush=True)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
