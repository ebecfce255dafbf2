"""Property tests for the checkpoint plane's state round-trips.

The invariant every snapshot/restore pair must satisfy: capturing state
at *any* point and restoring it into a fresh (or the same) object
leaves all future behaviour identical to the uninterrupted original.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulationClock
from repro.faults.quarantine import NameserverQuarantine
from repro.net.ipaddr import IPv4Address
from repro.rng import SeededRng

_ADDRESSES = st.integers(min_value=1, max_value=40).map(
    lambda low: IPv4Address(f"10.0.0.{low}")
)


class TestQuarantineRoundTrip:
    @given(
        events=st.lists(
            st.tuples(st.sampled_from(["quarantine", "release"]), _ADDRESSES),
            max_size=25,
        ),
        split=st.integers(min_value=0, max_value=25),
        advances=st.lists(
            st.integers(min_value=0, max_value=90_000), min_size=1, max_size=6
        ),
        probe=st.lists(_ADDRESSES, min_size=1, max_size=8),
    )
    @settings(max_examples=50)
    def test_restore_preserves_future_partitions(
        self, events, split, advances, probe
    ):
        split = min(split, len(events))
        clock = SimulationClock()
        original = NameserverQuarantine(clock)
        for action, address in events[:split]:
            getattr(original, action)(address)

        # Restore into a *fresh* instance sharing the clock, then replay
        # the identical remaining history against both.
        clone = NameserverQuarantine(clock)
        clone.restore(original.snapshot())
        for action, address in events[split:]:
            getattr(original, action)(address)
            getattr(clone, action)(address)

        for seconds in advances:
            clock.advance(seconds)
            assert clone.partition(probe) == original.partition(probe)
            assert [
                clone.reprobe_due(address) for address in probe
            ] == [original.reprobe_due(address) for address in probe]
        assert clone.snapshot() == original.snapshot()

    @given(events=st.lists(_ADDRESSES, max_size=15))
    def test_snapshot_restore_is_exact(self, events):
        clock = SimulationClock()
        quarantine = NameserverQuarantine(clock)
        for address in events:
            quarantine.quarantine(address)
            clock.advance(3600)
        snapshot = quarantine.snapshot()
        quarantine.restore(snapshot)
        assert quarantine.snapshot() == snapshot


class TestSeededRngStateRoundTrip:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        warm_draws=st.integers(min_value=0, max_value=40),
        compare_draws=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=50)
    def test_setstate_resumes_exact_stream(self, seed, warm_draws, compare_draws):
        rng = SeededRng(seed)
        for _ in range(warm_draws):
            rng.random()
        state = rng.getstate()
        expected = [rng.random() for _ in range(compare_draws)]

        fresh = SeededRng(seed)
        fresh.setstate(state)
        assert [fresh.random() for _ in range(compare_draws)] == expected

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_state_is_json_compatible(self, seed):
        import json

        rng = SeededRng(seed)
        rng.random()
        state = json.loads(json.dumps(rng.getstate()))
        clone = SeededRng(seed)
        clone.setstate(state)
        assert clone.random() == rng.random()
