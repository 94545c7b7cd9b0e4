"""Unit tests for the interconnect model."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.pool.link import Link, LinkConfig, LinkDirection
from repro.units import PAGE_SIZE


class TestServiceTime:
    def test_zero_pages_is_free(self, link):
        assert link.service_time(0) == 0.0

    def test_negative_rejected(self, link):
        with pytest.raises(ValueError):
            link.service_time(-1)

    def test_components_add_up(self):
        config = LinkConfig(
            bandwidth_bytes_per_s=1e9, per_page_overhead_s=1e-6, base_latency_s=1e-5
        )
        link = Link(config)
        pages = 100
        expected = 1e-5 + 100 * 1e-6 + 100 * PAGE_SIZE / 1e9
        assert link.service_time(pages) == pytest.approx(expected)

    @given(st.integers(min_value=1, max_value=10**7))
    def test_monotone_in_pages(self, pages):
        link = Link()
        assert link.service_time(pages + 1) > link.service_time(pages)


class TestTransferQueueing:
    def test_transfer_reserves_pipe(self, link):
        start1, end1 = link.transfer(0.0, 1000, LinkDirection.OUT)
        start2, end2 = link.transfer(0.0, 1000, LinkDirection.OUT)
        assert start1 == 0.0
        assert start2 == end1  # FCFS queueing
        assert end2 > end1

    def test_directions_are_independent(self, link):
        _, end_out = link.transfer(0.0, 10000, LinkDirection.OUT)
        start_in, _ = link.transfer(0.0, 10000, LinkDirection.IN)
        assert start_in == 0.0  # full duplex

    def test_queue_delay(self, link):
        _, end = link.transfer(0.0, 100000, LinkDirection.OUT)
        assert link.queue_delay(0.0, LinkDirection.OUT) == pytest.approx(end)
        assert link.queue_delay(end + 1.0, LinkDirection.OUT) == 0.0

    def test_idle_pipe_starts_immediately(self, link):
        start, _ = link.transfer(42.0, 10, LinkDirection.OUT)
        assert start == 42.0


class TestAccounting:
    def test_bytes_moved_window(self, link):
        link.transfer(0.0, 100, LinkDirection.OUT)
        _, end = link.transfer(0.0, 200, LinkDirection.OUT)
        assert link.bytes_moved(LinkDirection.OUT) == 300 * PAGE_SIZE
        # Window excluding the second completion:
        assert link.bytes_moved(LinkDirection.OUT, until=end / 2) == 100 * PAGE_SIZE

    def test_average_bandwidth(self, link):
        link.transfer(0.0, 256, LinkDirection.OUT)  # 1 MiB
        bw = link.average_bandwidth(LinkDirection.OUT, 0.0, 1.0)
        assert bw == pytest.approx(256 * PAGE_SIZE)

    def test_average_bandwidth_invalid_window(self, link):
        with pytest.raises(ValueError):
            link.average_bandwidth(LinkDirection.OUT, 1.0, 1.0)

    def test_zero_page_transfer_not_recorded(self, link):
        link.transfer(0.0, 0, LinkDirection.OUT)
        assert link.bytes_moved(LinkDirection.OUT) == 0


class TestDirectionHashing:
    def test_hash_is_identity(self):
        for direction in LinkDirection:
            assert hash(direction) == object.__hash__(direction)

    def test_keyed_dict_survives_pickle(self, link):
        link.transfer(0.0, 100, LinkDirection.OUT)
        link.transfer(0.0, 30, LinkDirection.IN)
        for keyed in ({LinkDirection.OUT: 1, LinkDirection.IN: 2}, link._busy_until):
            restored = pickle.loads(pickle.dumps(keyed))
            assert restored == keyed
            for direction in LinkDirection:
                assert restored[direction] == keyed[direction]
        clone = pickle.loads(pickle.dumps(link))
        assert clone.bytes_moved(LinkDirection.OUT) == 100 * PAGE_SIZE
        assert clone.queue_delay(0.0, LinkDirection.IN) == link.queue_delay(
            0.0, LinkDirection.IN
        )
