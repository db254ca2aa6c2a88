"""Speed correction of measured intervals."""

import pytest

import speed

REF = speed.REFERENCE_PROBE_S


def test_reference_speed_leaves_an_interval_unchanged():
    samples = [(0.0, REF), (1.0, REF)]
    assert speed.scaled(samples, 0.5, 3.0) == pytest.approx(2.5)


def test_each_piece_is_scaled_by_its_own_probe():
    # reference speed until t=1, then half of it (probe twice as long)
    samples = [(0.0, REF), (1.0, 2 * REF)]
    assert speed.scaled(samples, 0.0, 3.0) == pytest.approx(1.0 + 1.0)


def test_the_first_probe_covers_time_before_it():
    samples = [(1.0, 2 * REF)]
    assert speed.scaled(samples, 0.0, 2.0) == pytest.approx(1.0)


def test_the_running_speedometer_probes_in_the_background():
    meter = speed.Speedometer()
    with meter.running():
        end = speed.time.perf_counter() + 0.5
        while speed.time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 3
    assert meter.scaled(*[t for t, _ in meter.samples[::len(meter.samples) - 1]]) > 0
