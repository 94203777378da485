import math
import signal
import time

import pytest

import calib


def test_normalized_removes_probes_and_rescales():
    # 100 probes at twice the nominal time: the region ran at half speed
    probes = [2 * calib.PROBE_NOMINAL_S] * 100
    wall = 10.0
    expected = (wall - math.fsum(probes)) / 2
    assert calib.normalized(wall, probes) == pytest.approx(expected)
    # at nominal speed only the probes' own time is taken out
    assert calib.normalized(1.0, [calib.PROBE_NOMINAL_S] * 10) == \
        pytest.approx(1.0 - 10 * calib.PROBE_NOMINAL_S)


def test_normalized_needs_a_probe():
    with pytest.raises(ValueError):
        calib.normalized(1.0, [])


def test_sampler_probes_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calib.SpeedSampler() as sampler:
        end = time.perf_counter() + 6 * calib.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.probes) >= 3
    assert all(p > 0 for p in sampler.probes)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
