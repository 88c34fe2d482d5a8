"""Tests for communication accounting."""

import pytest

from repro.distributed import CommStats


class TestCommStats:
    def test_alltoall_bytes(self):
        s = CommStats()
        s.record_alltoall(num_groups=1, group_size=4, shard_bytes=1024)
        # each of 4 ranks ships 3/4 of its shard
        assert s.bytes_on_network == 4 * (1024 * 3 // 4)
        assert s.alltoall_steps == 1
        assert s.group_alltoall_calls == 1

    def test_group_local_swap_counts_one_step(self):
        """2**(g-q) group-local all-to-alls proceed in parallel: 1 step."""
        s = CommStats()
        s.record_alltoall(num_groups=4, group_size=2, shard_bytes=512)
        assert s.alltoall_steps == 1
        assert s.group_alltoall_calls == 4
        assert s.bytes_on_network == 4 * 2 * (512 // 2)

    def test_renumbering_free(self):
        s = CommStats()
        s.record_rank_renumbering()
        assert s.bytes_on_network == 0
        assert s.rank_renumberings == 1

    def test_local_swaps(self):
        s = CommStats()
        s.record_local_swap()
        s.record_local_swap()
        assert s.local_swap_kernels == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            CommStats().record_alltoall(num_groups=0, group_size=2, shard_bytes=8)

    def test_events_log(self):
        s = CommStats()
        s.record_alltoall(num_groups=2, group_size=2, shard_bytes=32)
        event = s.events[0]
        assert event.kind == "alltoall"
        assert event.bytes == s.bytes_on_network
        assert event.num_groups == 2 and event.group_size == 2


class TestCommEvent:
    def test_attribute_access_only(self):
        s = CommStats()
        s.record_alltoall(num_groups=2, group_size=2, shard_bytes=32)
        event = s.events[0]
        assert not hasattr(event, "__getitem__") and not hasattr(event, "get")
        with pytest.raises(TypeError):
            event["kind"]

    def test_to_dict(self):
        s = CommStats()
        s.record_rank_renumbering()
        d = s.events[0].to_dict()
        assert d["kind"] == "renumber"
        assert isinstance(d, dict)

    def test_bind_metrics_streams_counters(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        s = CommStats().bind_metrics(registry)
        s.record_alltoall(num_groups=1, group_size=4, shard_bytes=1024)
        s.record_local_swap()
        snap = registry.snapshot()
        assert snap["comm.bytes_on_network"] == s.bytes_on_network
        assert snap["comm.alltoall_steps"] == 1
        assert snap["comm.local_swap_kernels"] == 1
