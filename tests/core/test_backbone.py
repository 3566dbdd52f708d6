"""Tests for the donated-cycle connectivity backbone."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backbone import backbone_links, backbone_offsets, is_backbone_connected
from repro.core.hybrid import HybridBRPolicy
from repro.util.validation import ValidationError


class TestOffsets:
    def test_k2_two_single_cycle(self):
        assert backbone_offsets(10, 2) == [1]

    def test_k2_four_two_cycles(self):
        offsets = backbone_offsets(20, 4)
        assert len(offsets) == 2
        assert offsets[0] == 1
        assert all(1 <= o < 20 for o in offsets)

    def test_odd_k2_rejected(self):
        with pytest.raises(ValidationError):
            backbone_offsets(10, 3)

    def test_zero_k2(self):
        assert backbone_offsets(10, 0) == []

    def test_tiny_membership(self):
        assert backbone_offsets(1, 2) == []


class TestBackboneLinks:
    def test_k2_two_forms_bidirectional_ring(self):
        links = backbone_links(range(6), 2)
        for node in range(6):
            assert links[node] == {(node + 1) % 6, (node - 1) % 6}

    def test_budget_respected(self):
        for k2 in (2, 4, 6):
            links = backbone_links(range(30), k2)
            assert all(len(v) <= k2 for v in links.values())

    def test_connectivity(self):
        for k2 in (2, 4):
            links = backbone_links(range(25), k2)
            assert is_backbone_connected(links)

    def test_non_contiguous_ids(self):
        members = [3, 7, 12, 20, 41]
        links = backbone_links(members, 2)
        assert set(links) == set(members)
        assert is_backbone_connected(links)

    def test_two_members(self):
        links = backbone_links([0, 1], 2)
        assert links[0] == {1}
        assert links[1] == {0}

    def test_empty_when_k2_zero(self):
        links = backbone_links(range(5), 0)
        assert all(len(v) == 0 for v in links.values())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.sampled_from([2, 4, 6]))
    def test_backbone_always_connected(self, n, k2):
        links = backbone_links(range(n), k2)
        assert is_backbone_connected(links)


def _donated(members, k2=2):
    """Every member's donated links under HybridBR for ``members``."""
    policy = HybridBRPolicy(k2=k2)
    return {node: policy.donated_links_for(node, members) for node in members}


class TestMembershipChanges:
    def test_splice_newcomer_included(self):
        updated = _donated(range(6))  # node 5 joined a 5-node ring
        assert any(5 in targets for targets in updated.values())
        assert is_backbone_connected(updated)

    def test_heal_departure_removes_node(self):
        updated = _donated([0, 1, 2, 4, 5])  # node 3 left a 6-node ring
        assert 3 not in updated
        assert is_backbone_connected(updated)
        assert all(3 not in targets for targets in updated.values())

    def test_is_backbone_connected_detects_partition(self):
        links = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        assert not is_backbone_connected(links)
