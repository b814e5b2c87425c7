"""Tests for the counter registry (repro.counters)."""

import sys
import threading

import pytest

from repro import counters
from repro.counters import PROCESS_COUNTS, Counters


class TestCountersClass:
    def test_snapshot_lists_declared_zeros_in_order(self):
        assert Counters(("b", "a")).snapshot() == {"b": 0, "a": 0}

    def test_prefix_selects_and_strips_a_namespace(self):
        mixed = Counters(("engine.analyses", "engine.other",
                          "power.platform", "enginex.other"))
        mixed.add("engine.analyses", 3)
        assert mixed.snapshot("engine") == {"analyses": 3, "other": 0}
        assert mixed.snapshot("power") == {"platform": 0}

    def test_undeclared_name_raises(self):
        with pytest.raises(KeyError, match="undeclared counter"):
            Counters(("submitted",)).add("submited")

    def test_counts_only_grow(self):
        with pytest.raises(ValueError, match="only grow"):
            Counters(("computed",)).add("computed", -1)

    def test_concurrent_adds_lose_no_update(self):
        shared = Counters(("hits",))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [shared.add("hits") for _ in range(2000)]
                )
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert shared.snapshot() == {"hits": 8 * 2000}


class TestProcessCounts:
    def test_process_counts_are_declared(self):
        assert tuple(counters.PROCESS.snapshot()) == PROCESS_COUNTS

    def test_count_records_process_wide_and_in_scopes(self):
        before = counters.PROCESS.snapshot()
        with counters.collect() as scope:
            counters.count("engine.analyses", 2)
            counters.count("power.application")
        after = counters.PROCESS.snapshot()
        assert after["engine.analyses"] == before["engine.analyses"] + 2
        assert after["power.application"] == \
            before["power.application"] + 1
        assert scope.snapshot() == {
            "engine.analyses": 2, "power.platform": 0,
            "power.application": 1, "sim.instants": 0,
            "sim.run_instants": 0, "sim.channel_firings": 0,
        }

    def test_scopes_stay_in_their_context(self):
        with counters.collect() as scope:
            other = threading.Thread(
                target=counters.count, args=("power.platform",)
            )
            other.start()
            other.join(timeout=10)
            counters.count("engine.analyses")
        assert not other.is_alive()
        assert scope.snapshot() == {
            "engine.analyses": 1, "power.platform": 0,
            "power.application": 0, "sim.instants": 0,
            "sim.run_instants": 0, "sim.channel_firings": 0,
        }
