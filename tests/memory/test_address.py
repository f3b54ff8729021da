"""Tests for physical-address arithmetic."""

import numpy as np
import pytest

from repro.memory import address as addr


class TestConstants:
    def test_words_per_page(self):
        assert addr.WORDS_PER_PAGE == 64

    def test_shifts_consistent(self):
        assert 1 << addr.WORD_SHIFT == addr.WORD_SIZE
        assert 1 << addr.PAGE_SHIFT == addr.PAGE_SIZE
        assert addr.WORDS_PER_PAGE_SHIFT == addr.PAGE_SHIFT - addr.WORD_SHIFT


class TestConversions:
    def test_vectorised_matches_scalar(self):
        pas = [0, 63, 64, 4095, 4096, (1 << 40) + 127]
        lines = addr.as_line_array(np.array(pas, dtype=np.uint64))
        assert lines.dtype == np.uint64
        assert list(lines) == [pa >> addr.WORD_SHIFT for pa in pas]
        assert list(addr.as_line_array(pas)) == list(lines)


class TestValidation:
    """The 48-bit PA-space check every region constructor applies."""

    def test_validate_ok(self):
        r = addr.AddressRegion(0, addr.PA_SPACE)
        assert r.end == addr.PA_SPACE

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError, match="outside 48-bit space"):
            addr.AddressRegion(-addr.PAGE_SIZE, 2 * addr.PAGE_SIZE)

    def test_validate_rejects_beyond_48bit(self):
        with pytest.raises(ValueError, match="outside 48-bit space"):
            addr.AddressRegion(addr.PA_SPACE, addr.PAGE_SIZE)

    def test_pages_for_bytes(self):
        # A partial trailing page still counts as a page.
        for size, pages in ((1, 1), (4096, 1), (4097, 2)):
            assert addr.AddressRegion(0, size).num_pages == pages


class TestAddressRegion:
    def test_basic_properties(self):
        r = addr.AddressRegion(0x10000, 8 * addr.PAGE_SIZE)
        assert r.end == 0x10000 + 8 * 4096
        assert r.num_pages == 8
        assert r.num_word_lines == 8 * 64
        assert r.first_page == 0x10

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            addr.AddressRegion(0, 0)

    def test_rejects_out_of_space(self):
        with pytest.raises(ValueError):
            addr.AddressRegion(addr.PA_SPACE - 4096, 2 * 4096)

    def test_contains_scalar_and_vector(self):
        r = addr.AddressRegion(4096, 4096)
        assert r.contains(4096)
        assert r.contains(8191)
        assert not r.contains(8192)
        mask = r.contains(np.array([0, 4096, 8191, 8192], dtype=np.uint64))
        assert list(mask) == [False, True, True, False]

    def test_contains_page(self):
        r = addr.AddressRegion(2 * 4096, 3 * 4096)
        assert not r.contains_page(1)
        assert r.contains_page(2)
        assert r.contains_page(4)
        assert not r.contains_page(5)
        # A partial last page still belongs to the region.
        r = addr.AddressRegion(2 * 4096, 3 * 4096 - 1)
        pfns = np.array([1, 2, 4, 5], dtype=np.uint64)
        assert list(r.contains_page(pfns)) == [False, True, True, False]

    def test_offset_of(self):
        r = addr.AddressRegion(4096, 4096)
        assert r.offset_of(4100) == 4

    def test_equality_and_hash(self):
        a = addr.AddressRegion(0, 4096)
        b = addr.AddressRegion(0, 4096)
        c = addr.AddressRegion(4096, 4096)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_repr_mentions_bounds(self):
        r = addr.AddressRegion(0x1000, 0x2000)
        assert "0x1000" in repr(r)
