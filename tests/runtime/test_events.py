"""Tests for the FIFO link resource behind the event-driven engine's
contention model."""

import pytest

from repro.runtime import LinkResource


class TestLinkResource:
    def test_serializes_overlapping_transfers(self):
        link = LinkResource()
        first = link.occupy(start=0.0, duration=2.0)
        second = link.occupy(start=1.0, duration=1.0)
        assert first == 2.0
        assert second == 3.0  # waits for the first to finish

    def test_idle_gap_allowed(self):
        link = LinkResource()
        link.occupy(0.0, 1.0)
        assert link.occupy(5.0, 1.0) == 6.0

    def test_busy_time_accumulates(self):
        link = LinkResource()
        link.occupy(0.0, 2.0)
        link.occupy(0.0, 3.0)
        assert link.busy_time == 5.0

    def test_reset(self):
        link = LinkResource()
        link.occupy(0.0, 2.0)
        link.reset()
        assert link.free_at == 0.0 and link.busy_time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkResource().occupy(-1.0, 1.0)
