"""Tests for link-state message formats and size accounting."""

import pytest

from repro.routing.messages import (
    LinkStateAnnouncement,
    LSA_HEADER_BITS,
    LSA_PER_NEIGHBOR_BITS,
    announcement_size_bits,
)
from repro.util.validation import ValidationError


class TestLinkStateAnnouncement:
    def test_from_dict_and_back(self):
        ann = LinkStateAnnouncement.from_dict(3, 7, {1: 5.0, 2: 9.0}, timestamp=12.0)
        assert ann.origin == 3
        assert ann.sequence == 7
        assert dict(ann.links) == {1: 5.0, 2: 9.0}
        assert ann.timestamp == 12.0

    def test_size_formula(self):
        ann = LinkStateAnnouncement.from_dict(0, 1, {1: 1.0, 2: 2.0, 3: 3.0})
        assert ann.size_bits == LSA_HEADER_BITS + 3 * LSA_PER_NEIGHBOR_BITS

    def test_paper_example_k5(self):
        # The paper's expression (192 + 32k) with k = 5 gives 352 bits.
        assert announcement_size_bits(5) == 352

    def test_empty_announcement(self):
        ann = LinkStateAnnouncement.from_dict(0, 1, {})
        assert ann.size_bits == LSA_HEADER_BITS

    def test_negative_origin_rejected(self):
        with pytest.raises(ValidationError):
            LinkStateAnnouncement.from_dict(-1, 0, {})

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValidationError):
            LinkStateAnnouncement.from_dict(0, -1, {})

    def test_links_sorted_and_hashable(self):
        ann = LinkStateAnnouncement.from_dict(0, 1, {5: 1.0, 2: 2.0})
        assert ann.links == ((2, 2.0), (5, 1.0))
        hash(ann)  # frozen dataclass must be hashable


class TestRates:
    def test_negative_neighbors_rejected(self):
        with pytest.raises(ValidationError):
            announcement_size_bits(-1)
