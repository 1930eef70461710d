"""Oracle tests: frozen reference vectors plus cross-oracle coherence.

The reference scenario (ten nodes, 2/5/6 down) is worked out by hand below
and pinned; the property tests then tie the oracles to each other and to
independent brute-force recomputations over every small availability vector.
The brute-force scans below are the reference definitions of the O(m) sweeps
that the oracle module runs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfoverlay.cli import main
from rfoverlay.oracle import (
    RingError,
    RingModel,
    basic_tst,
    brf_tst,
    mybox_fixpoint,
    mybox_table,
    sbrf_tst,
)


def every_vector(size):
    """All availability vectors for a ring of `size` nodes."""
    for bits in itertools.product((True, False), repeat=size):
        yield RingModel(tuple(range(size)), bits)


# -- brute-force reference definitions ---------------------------------------------
#
# Direct scans over the raw node and availability tuples, O(m) per node: they
# share no code with the oracle module's sweeps, nor with RingModel.position.


def reference_mybox_fixpoint(ring, node):
    """The first Available node scanning ring-forward from the node itself
    (self included), or None when nothing is Available."""
    size = len(ring.nodes)
    start = ring.nodes.index(node)
    for step in range(size):
        index = (start + step) % size
        if ring.avail[index]:
            return ring.nodes[index]
    return None


def reference_basic_tst(ring):
    """The receiver while it is Available; otherwise the first Available
    node strictly past it (the scan may wrap all the way back to the node
    itself); None when nothing is Available."""
    size = len(ring.nodes)
    assignment = {}
    for position, node in enumerate(ring.nodes):
        successor = (position + 1) % size
        if ring.avail[successor]:
            assignment[node] = ring.nodes[successor]
            continue
        found = None
        for step in range(1, size):
            index = (successor + step) % size
            if ring.avail[index]:
                found = ring.nodes[index]
                break
        assignment[node] = found
    return assignment


@settings(max_examples=300, deadline=None)
@given(
    rings=st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True).flatmap(
        lambda nodes: st.tuples(
            st.just(tuple(nodes)),
            st.lists(
                st.sampled_from((True, False)),
                min_size=len(nodes),
                max_size=len(nodes),
            ).map(tuple),
        )
    )
)
def test_sweeps_equal_the_brute_force_scans(rings):
    """Rings of 1-12 distinct arbitrary ids in any order, any availability."""
    ring = RingModel(*rings)
    assert basic_tst(ring) == reference_basic_tst(ring)
    mybox = {n: reference_mybox_fixpoint(ring, n) for n in ring.nodes}
    assert mybox_table(ring, basic_tst(ring)) == mybox
    assert all(mybox_fixpoint(ring, n) == reference_mybox_fixpoint(ring, n) for n in ring.nodes)
    assert [ring.position(n) for n in ring.nodes] == list(range(ring.size))


# -- ring model ----------------------------------------------------------------


def test_ring_positions_wrap():
    ring = RingModel.of(4)
    assert ring.successor(3) == 0


def test_ring_rejects_bad_shapes():
    with pytest.raises(RingError):
        RingModel.of(0)
    with pytest.raises(RingError):
        RingModel((0, 0), (True, True))
    with pytest.raises(RingError):
        RingModel((0, 1), (True,))
    with pytest.raises(RingError):
        RingModel.of(3).position(9)
    with pytest.raises(RingError):
        mybox_fixpoint(RingModel.of(3), 9)


def test_rings_compare_by_nodes_and_states_only():
    """A ring is its nodes and states: it keeps no position index."""
    ring = RingModel.of(4, down={1})
    twin = RingModel.from_states(ring.nodes, dict(zip(ring.nodes, ring.avail)))
    assert ring == twin and hash(ring) == hash(twin)
    assert ring != RingModel.of(4, down={2})
    assert "_positions" not in repr(ring)


def test_down_set_builds_the_right_states():
    ring = RingModel.of(4, down={1, 3})
    assert ring.avail == (True, False, True, False)


# -- frozen reference scenario: ten nodes, 2, 5 and 6 down ----------------------

REFERENCE = RingModel.of(10, down={2, 5, 6})


def test_reference_next_available():
    expected = {n: (n + 1) % 10 for n in range(10)}  # trust the receiver
    expected[1] = 3   # 2 is down, 3 is the first live node past it
    expected[4] = 7   # 5 and 6 are down
    expected[5] = 7
    assert basic_tst(REFERENCE) == expected


def test_reference_settled_status_values():
    expected = {0: 0, 1: 1, 2: 3, 3: 3, 4: 4, 5: 7, 6: 7, 7: 7, 8: 8, 9: 9}
    assert {n: mybox_fixpoint(REFERENCE, n) for n in range(10)} == expected


def test_reference_directional_pairs():
    expected = {
        0: (1, 9), 1: (3, 0), 2: (3, 1), 3: (4, 1), 4: (7, 3),
        5: (7, 4), 6: (7, 4), 7: (8, 4), 8: (9, 7), 9: (0, 8),
    }
    assert brf_tst(REFERENCE) == expected


def test_reference_shortest_candidates():
    result = sbrf_tst(REFERENCE)
    assert result[2] == 3   # one hop clockwise
    assert result[5] == 4   # one hop counter-clockwise beats two clockwise
    assert result[6] == 7
    for node in (0, 1, 3, 4, 7, 8, 9):
        assert result[node] == brf_tst(REFERENCE)[node]


# -- edges -----------------------------------------------------------------------


def test_ring_of_one():
    up = RingModel.of(1)
    assert basic_tst(up) == {0: 0}
    assert mybox_fixpoint(up, 0) == 0
    assert brf_tst(up) == {0: (0, 0)}
    down = RingModel.of(1, down={0})
    assert basic_tst(down) == {0: None}
    assert mybox_fixpoint(down, 0) is None
    assert brf_tst(down) == {0: (None, None)}
    assert sbrf_tst(down) == {0: None}


def test_nothing_available():
    ring = RingModel.of(5, down=set(range(5)))
    assert set(basic_tst(ring).values()) == {None}
    assert {mybox_fixpoint(ring, n) for n in range(5)} == {None}
    assert set(brf_tst(ring).values()) == {(None, None)}
    assert set(sbrf_tst(ring).values()) == {None}


def test_single_survivor_collapses_every_pair():
    ring = RingModel.of(6, down=set(range(6)) - {4})
    assert set(brf_tst(ring).values()) == {(4, 4)}
    tst = basic_tst(ring)
    assert tst[3] == 4                  # 4 is its receiver: trust it
    assert tst[4] == 4                  # full wrap back to itself
    assert tst[5] == 4
    result = sbrf_tst(ring)
    assert result[4] == (4, 4)
    assert all(result[n] == 4 for n in range(6) if n != 4)


def test_hint_may_wrap_to_the_node_itself():
    # successor of 0 is down and so is everyone else: the scan wraps home
    ring = RingModel.of(3, down={1, 2})
    assert basic_tst(ring)[0] == 0


# -- coherence between the oracles ------------------------------------------------


def test_next_available_matches_the_status_fixpoint_exhaustively():
    """One scan defines both oracles; check the correspondence everywhere.

    For every ring up to eight nodes and every availability vector: a node
    trusts its receiver exactly when the receiver's settled status names the
    receiver itself, hints at whatever other node it names, and reports the
    empty system exactly when the settled status is None.
    """
    for size in range(1, 9):
        for ring in every_vector(size):
            tst = basic_tst(ring)
            for node in ring.nodes:
                successor = ring.successor(node)
                settled = mybox_fixpoint(ring, successor)
                if settled is None:
                    assert tst[node] is None
                elif settled == successor:
                    assert tst[node] == successor
                else:
                    assert tst[node] == settled


def test_clockwise_entry_matches_the_successor_fixpoint():
    for size in range(1, 8):
        for ring in every_vector(size):
            pairs = brf_tst(ring)
            for node in ring.nodes:
                settled = mybox_fixpoint(ring, ring.successor(node))
                assert pairs[node][0] == settled


def test_counter_clockwise_is_clockwise_on_the_reversed_ring():
    for size in range(1, 8):
        for ring in every_vector(size):
            reversed_ring = RingModel(tuple(reversed(ring.nodes)), tuple(reversed(ring.avail)))
            pairs = brf_tst(ring)
            mirrored = brf_tst(reversed_ring)
            for node in ring.nodes:
                assert pairs[node][1] == mirrored[node][0]


def test_shortest_candidate_is_brute_force_optimal():
    """Re-derive the candidate from raw hop distances, ties clockwise."""
    for size in range(1, 8):
        for ring in every_vector(size):
            result = sbrf_tst(ring)
            nodes, avail = ring.nodes, ring.avail
            live = [n for n, up in zip(nodes, avail) if up]
            for position, node in enumerate(nodes):
                if avail[position]:
                    assert result[node] == brf_tst(ring)[node]
                    continue
                if not live:
                    assert result[node] is None
                    continue

                def hops(target):
                    gap = (nodes.index(target) - position) % size
                    return min(gap, size - gap)

                best = min(hops(x) for x in live)
                candidates = [x for x in live if hops(x) == best]
                choice = result[node]
                assert choice in candidates
                if len(candidates) > 1:
                    assert (nodes.index(choice) - position) % size == best


def test_whole_ring_oracles_make_no_position_calls(monkeypatch, capsys):
    """sbrf_tst and `rfoverlay oracle --topology basic` build one table per
    call, not one O(m) position lookup per node, and print what the
    brute-force definitions give."""
    size = 64
    down = {n for n in range(size) if n * 37 % size < size // 2}  # half, uneven gaps
    ring = RingModel.of(size, down)
    live = [n for n in ring.nodes if n not in down]

    def nearest(node):
        """Minimal hops over both directions, clockwise winning ties."""

        def key(target):
            ahead, behind = (target - node) % size, (node - target) % size
            return min(ahead, behind), ahead > behind

        return min(live, key=key)

    pairs = brf_tst(ring)
    expected = {n: nearest(n) if n in down else pairs[n] for n in ring.nodes}
    lines = [
        f"n{node}: " + ("trust-ore" if entry == (node + 1) % size else f"hint n{entry}")
        for node, entry in sorted(reference_basic_tst(ring).items())
    ]
    calls = []
    position = RingModel.position
    monkeypatch.setattr(
        RingModel, "position", lambda self, node: calls.append(node) or position(self, node)
    )
    assert sbrf_tst(ring) == expected
    down_list = ",".join(map(str, sorted(down)))
    assert main(["oracle", "--count", str(size), "--down", down_list, "--topology", "basic"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert calls == []


# -- symmetry ----------------------------------------------------------------------

down_sets = st.sets(st.integers(0, 9), max_size=10)


@settings(max_examples=120, deadline=None)
@given(size=st.integers(1, 10), down=down_sets, turns=st.integers(0, 9))
def test_results_ignore_the_ring_starting_point(size, down, turns):
    down = {d for d in down if d < size}
    ring = RingModel.of(size, down)
    rotated_nodes = ring.nodes[turns % size:] + ring.nodes[: turns % size]
    rotated = RingModel.from_states(rotated_nodes, dict(zip(ring.nodes, ring.avail)))
    assert basic_tst(rotated) == basic_tst(ring)
    assert brf_tst(rotated) == brf_tst(ring)
    assert sbrf_tst(rotated) == sbrf_tst(ring)


@settings(max_examples=120, deadline=None)
@given(size=st.integers(1, 10), down=down_sets, offset=st.integers(1, 50))
def test_results_follow_a_relabeling(size, down, offset):
    down = {d for d in down if d < size}
    ring = RingModel.of(size, down)
    shifted = RingModel(
        tuple(n + offset for n in ring.nodes), ring.avail
    )

    def shift(entry):
        return None if entry is None else entry + offset

    base = basic_tst(ring)
    assert basic_tst(shifted) == {n + offset: shift(e) for n, e in base.items()}
