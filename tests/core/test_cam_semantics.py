"""Differential tests: the SortedCam against a brute-force reference
implementation of the Figure 5 hardware semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import CountMinSketch
from repro.core.topk import SortedCam
from tests.topk_helpers import count_of, tracks


class ReferenceCam:
    """Direct transcription of the paper's CAM rules, kept naive."""

    def __init__(self, k):
        self.k = k
        self.entries = {}  # addr -> count

    def offer(self, addr, est):
        if addr in self.entries:
            self.entries[addr] = est
            return
        if len(self.entries) < self.k:
            self.entries[addr] = est
            return
        min_addr = min(self.entries, key=lambda a: self.entries[a])
        if est > self.entries[min_addr]:
            del self.entries[min_addr]
            self.entries[addr] = est


offers = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 60)),
    min_size=1, max_size=150,
)


def _running_estimates(steps):
    """(addr, increment) steps → (addr, estimate) offers whose
    estimates never decrease per address, as a CM-Sketch emits them."""
    totals = {}
    stream = []
    for addr, inc in steps:
        totals[addr] = totals.get(addr, 0) + inc
        stream.append((addr, totals[addr]))
    return stream


sketch_offers = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 5)),
    min_size=1, max_size=150,
).map(_running_estimates)


class TestDifferential:
    @settings(max_examples=50)
    @given(offers, st.integers(1, 6))
    def test_matches_reference(self, stream, k):
        cam = SortedCam(k)
        ref = ReferenceCam(k)
        for addr, est in stream:
            cam.offer(addr, est)
            ref.offer(addr, est)
        # Same membership and counts.  (Tie-breaking on equal minima
        # may admit different victims; both implementations use the
        # same min() choice on insertion order, so they agree.)
        assert dict(cam.entries()) == ref.entries

    @settings(max_examples=50)
    @given(sketch_offers)
    def test_tracked_set_contains_running_maximum(self, stream):
        """With per-address non-decreasing estimates, an address holding
        the largest estimate is tracked at the end, at that estimate.

        Once the maximum is offered for the last time, no later offer
        can beat an entry holding it.  Addresses that tie on the maximum
        are not all tracked: a tie never evicts.
        """
        cam = SortedCam(3)
        latest = {}
        for addr, est in stream:
            cam.offer(addr, est)
            latest[addr] = est
        best = max(latest.values())
        assert any(
            tracks(cam, addr) and count_of(cam, addr) == best
            for addr, est in latest.items() if est == best
        )


class TestHardwarePipeline:
    """Sketch → CAM wiring as one pipeline (Figure 5 end to end)."""

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 40), min_size=5, max_size=400))
    def test_pipeline_tracks_true_heavy_hitter(self, keys):
        # Force one overwhelming heavy hitter.
        keys = keys + [7] * (len(keys) * 2)
        sketch = CountMinSketch(width=512, depth=4)
        cam = SortedCam(3)
        for key in keys:
            cam.offer(key, sketch.update_one(key))
        assert tracks(cam, 7)
        # Its tracked count is a CM-Sketch overestimate of the truth.
        assert count_of(cam, 7) >= keys.count(7)
