"""Tests for Link, LinkSet and length classes."""

import numpy as np
import pytest

from repro.backend.blocks import gap_block, srdist_block
from repro.conflict.graph import g1_graph
from repro.errors import LinkError
from repro.geometry.point import PointSet
from repro.links.classes import length_class_index, length_classes
from repro.links.link import Link
from repro.links.linkset import LinkSet


class TestLink:
    def test_length(self):
        link = Link((0.0, 0.0), (3.0, 4.0))
        assert link.length == pytest.approx(5.0)

    def test_rejects_zero_length(self):
        with pytest.raises(LinkError):
            Link((1.0, 1.0), (1.0, 1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(LinkError):
            Link((0.0,), (1.0, 1.0))

    def test_reversed(self):
        link = Link((0.0, 0.0), (1.0, 0.0), sender_id=3, receiver_id=7)
        rev = link.reversed()
        assert rev.sender == (1.0, 0.0)
        assert rev.sender_id == 7 and rev.receiver_id == 3
        assert rev.length == link.length

    def test_from_arrays(self):
        link = Link.from_arrays(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert link.length == pytest.approx(1.0)


class TestLinkSet:
    def test_lengths(self, two_parallel_links):
        assert np.allclose(two_parallel_links.lengths, [1.0, 1.0])

    def test_rejects_zero_length_link(self):
        with pytest.raises(LinkError):
            LinkSet(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(LinkError):
            LinkSet(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_sender_receiver_distances_diagonal_is_length(self, two_parallel_links):
        every = np.arange(len(two_parallel_links))
        dist = srdist_block(two_parallel_links, every, every)
        assert np.allclose(np.diag(dist), two_parallel_links.lengths)

    def test_sender_receiver_distance_cross(self):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [10.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [11.0, 0.0]]),
        )
        dist = srdist_block(links, np.arange(2), np.arange(2))
        # d(s_1, r_0) = |10 - 1| = 9; d(s_0, r_1) = 11.
        assert dist[1, 0] == pytest.approx(9.0)
        assert dist[0, 1] == pytest.approx(11.0)

    def test_link_distances_min_over_endpoints(self):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [5.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [6.0, 0.0]]),
        )
        every = np.arange(2)
        gap = gap_block(links, every, every)
        assert gap[0, 1] == pytest.approx(4.0)  # r_0=(1,0) to s_1=(5,0)
        assert gap[1, 0] == gap[0, 1]
        assert gap[0, 0] == 0.0

    def test_link_distances_zero_when_sharing_node(self):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        every = np.arange(2)
        assert gap_block(links, every, every)[0, 1] == 0.0

    def test_from_links_roundtrip(self):
        original = [Link((0.0, 0.0), (1.0, 0.0)), Link((2.0, 2.0), (2.0, 4.0))]
        ls = LinkSet.from_links(original)
        assert len(ls) == 2
        assert ls.link(1).length == pytest.approx(2.0)

    def test_from_pointset_edges(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        ls = LinkSet.from_pointset_edges(ps, [(0, 1), (2, 1)])
        assert len(ls) == 2
        assert ls.sender_ids.tolist() == [0, 2]
        assert ls.receiver_ids.tolist() == [1, 1]

    def test_subset(self, square_links):
        sub = square_links.subset([0, 2, 4])
        assert len(sub) == 3
        assert sub.lengths[1] == square_links.lengths[2]

    def test_subset_rejects_empty(self, square_links):
        with pytest.raises(LinkError):
            square_links.subset([])

    def test_longer_shorter_partition(self, square_links):
        i = 5
        longer = set(square_links.longer_than(i).tolist())
        shorter = set(square_links.shorter_than(i, strict=True).tolist())
        li = square_links.lengths[i]
        ties_or_longer = {
            j
            for j in range(len(square_links))
            if j != i and square_links.lengths[j] >= li
        }
        assert longer == ties_or_longer
        assert longer.isdisjoint(shorter)
        assert len(longer) + len(shorter) == len(square_links) - 1

    def test_reversed(self, two_parallel_links):
        rev = two_parallel_links.reversed()
        assert np.allclose(rev.senders, two_parallel_links.receivers)
        assert np.allclose(rev.lengths, two_parallel_links.lengths)

    def test_diversity(self):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [10.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [14.0, 0.0]]),
        )
        assert links.diversity == pytest.approx(4.0)


class TestLinkSetIndices:
    """Every link index a ``LinkSet`` method takes is an integer in
    ``[0, n)``: none is truncated (``1.7`` or ``True`` answering for
    link 1), wraps around (``-1`` answering for the last link) or
    surfaces as a bare numpy ``IndexError``."""

    CALLS = {
        "subset": lambda links, bad: links.subset([bad]),
        "longer_than": lambda links, bad: links.longer_than(bad),
        "shorter_than": lambda links, bad: links.shorter_than(bad, strict=True),
        "link": lambda links, bad: links.link(bad),
        "subgraph": lambda links, bad: g1_graph(links).subgraph([bad, 0]),
    }

    @pytest.mark.parametrize(
        "bad, message",
        [(-1, "out of range"), ("n", "out of range"),
         (1.7, "not an integer"), (True, "not an integer")],
        ids=["negative", "past-the-end", "fraction", "bool"],
    )
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_bad_index_is_a_link_error(self, square_links, call, bad, message):
        bad = len(square_links) if bad == "n" else bad
        with pytest.raises(LinkError, match=rf"link index {bad!r} is {message}"):
            self.CALLS[call](square_links, bad)

    def test_one_index_only(self, square_links):
        with pytest.raises(LinkError, match="not an integer"):
            square_links.link([3])

    def test_in_range_indices_are_unchanged(self, square_links):
        last = len(square_links) - 1
        sub = square_links.subset([0.0, np.int32(last)])
        assert sub.senders.tobytes() == square_links.senders[[0, last]].tobytes()
        assert square_links.link(np.int64(last)) == list(square_links)[last]
        assert square_links.longer_than(2.0).tolist() == square_links.longer_than(2).tolist()
        assert g1_graph(square_links).subgraph([last, 0]).n == 2


class TestLengthClasses:
    def test_index_doubling(self):
        lengths = np.array([1.0, 1.5, 2.0, 3.9, 4.0, 8.1])
        idx = length_class_index(lengths)
        assert idx.tolist() == [1, 1, 2, 2, 3, 4]

    def test_classes_partition(self, square_links):
        classes = length_classes(square_links)
        members = sorted(i for cls in classes.values() for i in cls)
        assert members == list(range(len(square_links)))

    def test_class_count_bounded_by_log_diversity(self, square_links):
        classes = length_classes(square_links)
        assert len(classes) <= int(np.ceil(np.log2(square_links.diversity))) + 1

    def test_explicit_lmin(self):
        lengths = np.array([4.0, 8.0])
        idx = length_class_index(lengths, lmin=1.0)
        assert idx.tolist() == [3, 4]

    def test_rejects_bad_lmin(self):
        from repro.errors import LinkError

        with pytest.raises(LinkError):
            length_class_index(np.array([1.0]), lmin=0.0)
