"""RefClock's map from perf_counter readings to reference seconds.

The samples are set by hand, so the expected values are exact::

    python3 -m pytest perfbench/tests/test_refclock.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from refclock import RefClock  # noqa: E402


def clock(samples, end):
    """A closed clock with (start, end, slowness) samples."""
    c = RefClock()
    for start, stop, slow in samples:
        c.starts.append(start)
        c.ends.append(stop)
        c.slowness.append(slow)
    c.close(end)
    return c


def test_work_is_divided_by_the_slowness_around_it():
    # a stretch between samples of slowness 1 and 3 runs at slowness 2
    c = clock([(0.0, 0.5, 1.0), (2.5, 3.0, 3.0)], 5.0)
    assert c.at(0.5) == 0.0
    assert c.at(1.5) == pytest.approx(0.5)
    assert c.at(2.5) == pytest.approx(1.0)
    assert c.seconds(0.5, 2.5) == pytest.approx(1.0)
    # after the last sample its own slowness holds
    assert c.seconds(3.0, 5.0) == pytest.approx(2.0 / 3.0)


def test_sample_time_is_left_out():
    c = clock([(0.0, 0.5, 1.0), (1.5, 2.0, 1.0)], 3.0)
    assert c.at(1.5) == c.at(2.0) == pytest.approx(1.0)
    assert c.seconds(0.5, 3.0) == pytest.approx(2.0)


def test_twice_the_work_is_twice_the_reference_seconds():
    c = clock([(0.0, 0.1, 2.0), (1.1, 1.2, 2.0), (3.2, 3.3, 2.0)], 4.0)
    assert c.seconds(1.2, 3.2) == pytest.approx(2 * c.seconds(0.1, 1.1))


def test_a_live_clock_samples_on_its_own_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    c = RefClock()
    c.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.1:
        pass
    t1 = time.perf_counter()
    c.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(c.slowness) >= 3
    assert 0 < c.seconds(t0, t1)
    assert c.at(t0) <= c.at((t0 + t1) / 2) <= c.at(t1)
