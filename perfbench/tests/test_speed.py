"""Rescaling timings to the reference machine speed."""

import pytest

import speed


def test_times_scale_by_the_local_probe_median():
    ref = speed.REFERENCE_S
    # the machine runs at half speed for the last three jobs; one probe spikes
    probes = [ref, ref, ref * 9, ref, 2 * ref, 2 * ref, 2 * ref]
    times = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    out = speed.at_reference_speed(times, probes)
    assert out[:3] == pytest.approx([1.0, 1.0, 1.0])
    assert out[-1] == pytest.approx(1.0)


def test_probe_takes_a_positive_time():
    assert 0.0 < speed.probe() < 1.0
