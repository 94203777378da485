"""One benchmark repetition, in the fresh process that run.py starts for it.

    python3 perfbench/child.py WORKLOAD SEED TRACE CHECK WORKDIR

Set-up (interpreter start, ``import privtest`` from the checkout's ``src``,
input generation and, when TRACE is 1, installing the span wrappers) runs
before the timed region, during which calib's speed probes run.  After it,
the outputs are digested and, when CHECK is 1, checked by the oracles.
Prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def now() -> float:
    """System-wide monotonic clock, comparable between run.py and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    name, seed, trace, check, work = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1", \
        Path(argv[4])
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import privtest

    if not Path(privtest.__file__).resolve().is_relative_to(src):
        print(f"privtest was imported from {privtest.__file__}, not from {src}", file=sys.stderr)
        return 2
    import calib
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, work)
    recorder = spans.Recorder()
    if trace:
        spans.install(recorder, privtest)
        recorder.enabled = True
    with calib.SpeedSampler() as sampler:
        start = now()
        outputs = workload.run(inputs)
        wall = now() - start
    recorder.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = workload.collect(inputs, outputs)
    record = {
        "start": start,
        "wall_s": wall,
        "wall_norm_s": calib.normalized(wall, sampler.probes),
        "probes": len(sampler.probes),
        "probe_mean_s": sum(sampler.probes) / len(sampler.probes),
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest(),
    }
    if check:
        record.update(workload.check(inputs, outputs))
    if trace:
        record["layers"] = spans.layer_metrics(recorder.spans, wall)
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in recorder.spans], fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
