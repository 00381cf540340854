"""Braid presentations: closures, writhes, Markov moves, planar diagrams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import colored_braids

from braidrt.braid import (
    ColoredBraidWord,
    ColorMismatch,
    LinkDiagram,
    braid_to_diagram,
    cabling,
    closure_components,
    conjugate,
    destabilise,
    markov_moves,
    reduce_closure,
    writhe_per_component,
)
from braidrt.laurent import LaurentScalar
from braidrt.rt_engine import evaluate_rt
from braidrt.shadow_engine import evaluate_shadow
from braidrt.uqsl2 import SPIN_HALF, SPIN_ONE, Spin, qdim, ribbon_scalar

H = SPIN_HALF


def test_construction_validation():
    with pytest.raises(ValueError):
        ColoredBraidWord(0, (), ())
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (H,), ())
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (H, H), (2,))
    with pytest.raises(ValueError):
        ColoredBraidWord(2, (H, H), (0,))


def test_permutation():
    b = ColoredBraidWord(3, (H, H, H), (1, 2))
    # strand 0 -> 1 -> stays; strand 1 -> 0; strand 2 ... track: sigma_1 swaps
    # positions 1,2; sigma_2 swaps positions 2,3.
    assert b.permutation() == (2, 0, 1)
    assert ColoredBraidWord(2, (H, H), (1, 1)).permutation() == (0, 1)
    assert ColoredBraidWord(2, (H, H), (1,)).permutation() == (1, 0)


def test_closure_components_trefoil():
    b = ColoredBraidWord(2, (H, H), (1, 1, 1))
    comps = closure_components(b)
    assert len(comps) == 1
    assert comps[0] == (frozenset({0, 1}), H)


def test_closure_components_hopf_two_colors():
    b = ColoredBraidWord(2, (H, SPIN_ONE), (1, 1))
    comps = closure_components(b)
    assert len(comps) == 2
    assert comps[0] == (frozenset({0}), H)
    assert comps[1] == (frozenset({1}), SPIN_ONE)


def test_closure_color_mismatch():
    b = ColoredBraidWord(2, (H, SPIN_ONE), (1,))
    with pytest.raises(ColorMismatch):
        closure_components(b)


def test_writhe_per_component():
    trefoil = ColoredBraidWord(2, (H, H), (1, 1, 1))
    assert writhe_per_component(trefoil) == (3,)
    hopf = ColoredBraidWord(2, (H, SPIN_ONE), (1, 1))
    assert writhe_per_component(hopf) == (0, 0)
    assert writhe_per_component(ColoredBraidWord(1, (H,), ())) == (0,)
    # mixed: one kinked component linked with another
    b = ColoredBraidWord(3, (H, H, H), (1, 2, 2, 1))
    comps = closure_components(b)
    total_self = sum(writhe_per_component(b))
    assert total_self <= b.sign_sum()


def test_markov_moves_braid_relation():
    b = ColoredBraidWord(3, (H, H, H), (1, 2, 1))
    words = {m.word for m in markov_moves(b) if m.strands == 3}
    assert (2, 1, 2) in words


def test_markov_moves_stabilisation():
    b = ColoredBraidWord(2, (H, H), (1,))
    stabs = [m for m in markov_moves(b) if m.strands == 3]
    assert {m.word for m in stabs} >= {(1, 2), (1, -2)}
    for m in stabs:
        closure_components(m)  # color assignment must stay consistent


def test_markov_moves_conjugation_of_empty():
    b = ColoredBraidWord(1, (H,), ())
    assert all(m.word == () for m in markov_moves(b) if m.strands == 1)


def test_markov_moves_destabilisation():
    b = ColoredBraidWord(3, (H, H, H), (1, 1, 2))
    destabs = [m for m in markov_moves(b) if m.strands == 2]
    assert any(m.word == (1, 1) for m in destabs)


def test_markov_moves_mixed_colors_stay_consistent():
    b = ColoredBraidWord(3, (H, H, SPIN_ONE), (1,))
    for m in markov_moves(b):
        closure_components(m)


def test_braid_to_diagram_trefoil():
    b = ColoredBraidWord(2, (H, H), (1, 1, 1))
    d = braid_to_diagram(b)
    assert len(d.crossings) == 3
    assert all(c.sign == 1 for c in d.crossings)
    assert d.writhe() == 3
    assert sum(writhe_per_component(b)) == 3
    assert len(d.components) == 1 and not d.free_loops
    d.validate()


def test_braid_to_diagram_unknot_and_free_loops():
    d = braid_to_diagram(ColoredBraidWord(1, (H,), ()))
    assert d.crossings == () and d.components == () and d.free_loops == (H,)
    d2 = braid_to_diagram(ColoredBraidWord(3, (H, H, SPIN_ONE), (1,)))
    assert len(d2.crossings) == 1
    assert d2.free_loops == (SPIN_ONE,)


def test_braid_to_diagram_signs_and_rii_pair():
    d = braid_to_diagram(ColoredBraidWord(2, (H, H), (1, -1)))
    assert sorted(c.sign for c in d.crossings) == [-1, 1]
    assert d.writhe() == 0


def test_braid_to_diagram_edge_count():
    b = ColoredBraidWord(2, (H, H), (1, 1, 1))
    d = braid_to_diagram(b)
    edges = {e for c in d.crossings for e in c.slots}
    # closure identifies 2 of the 2 + 2*len(word) arcs pairwise
    assert len(edges) == 2 * len(b.word)


@given(colored_braids(max_strands=6, max_length=12, max_twice_j=3))
def test_diagram_matches_closure_components(b):
    # a strand is a free loop exactly when no letter touches its position
    d = braid_to_diagram(b)
    d.validate()
    touched = {abs(g) - 1 for g in b.word} | {abs(g) for g in b.word}
    closed = closure_components(b)
    assert [color for _, color in d.components] == [
        color for strands, color in closed if strands & touched]
    assert list(d.free_loops) == [color for strands, color in closed if not strands & touched]
    assert sum(len(edges) for edges, _ in d.components) == 2 * len(b.word)
    # the crossings whose two strands lie on one diagram component carry the
    # self-writhe of the braid's closure components
    component_of = {e: idx for idx, (edges, _) in enumerate(d.components) for e in edges}
    self_signs = [c.sign for c in d.crossings if component_of[c.slots[0]] == component_of[c.slots[1]]]
    assert sum(self_signs) == sum(writhe_per_component(b))


def test_diagram_validation_rejects_bad_multiplicity():
    from braidrt.braid import Crossing
    bad = LinkDiagram(
        (Crossing((0, 1, 2, 3), 1),),
        ((frozenset({0, 1, 2, 3}), H),),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_mixed_crossing_writhe_vs_sign_sum():
    # hopf-with-kink: total sign sum splits into self-writhe + linking part
    b = ColoredBraidWord(2, (H, H), (1, 1, 1, 1))  # (2,4) torus link, 2 comps
    assert len(closure_components(b)) == 2
    assert sum(writhe_per_component(b)) == 0
    assert b.sign_sum() == 4


def test_knot_self_writhe_equals_sign_sum():
    import random
    rng = random.Random(61)
    knots = 0
    while knots < 20:
        n = rng.randint(1, 3)
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))) if n > 1 else ()
        b = ColoredBraidWord(n, (H,) * n, word)
        if len(closure_components(b)) != 1:
            continue
        knots += 1
        assert sum(writhe_per_component(b)) == b.sign_sum()


def test_closure_components_stable_under_moves():
    import random
    rng = random.Random(62)
    spins = [Spin(0), H, Spin(2)]
    for _ in range(20):
        while True:
            n = rng.randint(1, 3)
            gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 5))) if n > 1 else ()
            b = ColoredBraidWord(n, tuple(rng.choice(spins) for _ in range(n)), word)
            try:
                closure_components(b)
                break
            except ColorMismatch:
                continue
        # the multiset of (component size, color) is a closure invariant of
        # every non-stabilising Markov move
        signature = sorted((len(s), c.twice_j) for s, c in closure_components(b))
        for m in markov_moves(b):
            if m.strands != b.strands:
                continue
            assert sorted((len(s), c.twice_j)
                          for s, c in closure_components(m)) == signature


@given(colored_braids(max_strands=3, max_length=6, max_twice_j=3), st.data())
def test_width_one_cabling_recolors_the_component(b, data):
    components = closure_components(b)
    index = data.draw(st.integers(0, len(components) - 1))
    color = Spin(data.draw(st.integers(0, 3)))
    strands, _ = components[index]
    recolored = tuple(color if k in strands else c for k, c in enumerate(b.colors))
    assert cabling(b, index, (color,)) == ColoredBraidWord(b.strands, recolored, b.word)
    if len(components) == 1:
        assert cabling(b, None, (color,)) == ColoredBraidWord(b.strands, recolored, b.word)


# ---------------------------------------------------------------------------
# destabilise and reduce_closure
# ---------------------------------------------------------------------------

ONE = LaurentScalar.one()


def reduced_value(b, evaluate):
    """factor * prod evaluate(piece) over reduce_closure(b)."""
    factor, pieces = reduce_closure(b)
    for piece in pieces:
        factor = factor * evaluate(piece)
    return factor


def test_destabilise_drops_the_last_or_the_first_strand():
    b = ColoredBraidWord(4, (H, SPIN_ONE, Spin(3), Spin(3)), (1, -1, 2, -2, -3))
    assert destabilise(b) == ColoredBraidWord(3, (H, SPIN_ONE, Spin(3)), (1, -1, 2, -2))
    b = ColoredBraidWord(4, (H, H, SPIN_ONE, Spin(3)), (1, 2, -2, 3, 3))
    assert destabilise(b, first=True) == ColoredBraidWord(3, (H, SPIN_ONE, Spin(3)),
                                                          (1, -1, 2, 2))
    with pytest.raises(ValueError):
        destabilise(ColoredBraidWord(3, (H,) * 3, (1, 2, 2)))
    with pytest.raises(ValueError):
        destabilise(ColoredBraidWord(3, (H,) * 3, (2, 1, 1)), first=True)


def test_reduce_closure_cancels_across_commuting_letters():
    b = ColoredBraidWord(4, (H,) * 4, (1, 3, -1, 1, 2, 1, 2, 3))
    assert reduce_closure(b) == (ONE, [ColoredBraidWord(4, (H,) * 4, (3, 1, 2, 1, 2, 3))])


def test_reduce_closure_cancels_around_the_closure_and_swaps_the_colors():
    # the letters of -1 and +1 around the word do not cancel in the word,
    # only in the closure: the word is conjugate(b, -1), and the slot swap
    # of its colors is undone
    b = ColoredBraidWord(3, (H, SPIN_ONE, Spin(0)), (1, 1, 2, 2))
    conjugated = conjugate(b, -1)
    assert conjugated.word == (1, 1, 1, 2, 2, -1)
    assert conjugated.colors == (SPIN_ONE, H, Spin(0))
    assert reduce_closure(conjugated) == (ONE, [b])
    assert evaluate_rt(conjugated) == evaluate_rt(b)


def test_reduce_closure_splits_where_a_generator_is_missing():
    b = ColoredBraidWord(4, (H, H, SPIN_ONE, Spin(0)), (1, 3, 1, 3))
    assert reduce_closure(b) == (ONE, [ColoredBraidWord(2, (H, H), (1, 1)),
                                       ColoredBraidWord(2, (SPIN_ONE, Spin(0)), (1, 1))])


def test_reduce_closure_destabilises_the_last_strand():
    b = ColoredBraidWord(4, (Spin(0), H, SPIN_ONE, SPIN_ONE), (1, 1, 2, 2, -3))
    assert reduce_closure(b) == (ribbon_scalar(SPIN_ONE),
                                 [ColoredBraidWord(3, (Spin(0), H, SPIN_ONE), (1, 1, 2, 2))])


def test_reduce_closure_destabilises_the_first_strand():
    b = ColoredBraidWord(4, (H, H, SPIN_ONE, Spin(3)), (1, 2, 2, 3, 3))
    assert reduce_closure(b) == (ribbon_scalar(H) ** -1,
                                 [ColoredBraidWord(3, (H, SPIN_ONE, Spin(3)), (1, 1, 2, 2))])


def test_reduce_closure_of_a_wide_kink_is_a_product_of_unknots():
    b = ColoredBraidWord(40, (H,) * 40, (1, -1, 39))
    factor, pieces = reduce_closure(b)
    assert factor == ribbon_scalar(H) ** -1
    assert pieces == [ColoredBraidWord(1, (H,))] * 39
    assert reduced_value(b, evaluate_rt) == factor * qdim(H) ** 39


@settings(max_examples=200, deadline=None)
@given(colored_braids(max_strands=5, max_length=8, max_twice_j=2))
def test_reduce_closure_keeps_the_rt_value(b):
    assert reduced_value(b, evaluate_rt) == evaluate_rt(b)


@settings(max_examples=200, deadline=None)
@given(colored_braids(max_strands=3, max_length=8, max_twice_j=2))
def test_reduce_closure_keeps_the_shadow_value(b):
    assert reduced_value(b, evaluate_shadow) == evaluate_shadow(b)


@settings(max_examples=300)
@given(colored_braids(max_strands=6, max_length=14, max_twice_j=3))
def test_reduce_closure_shrinks_and_its_pieces_are_reduced(b):
    _, pieces = reduce_closure(b)
    assert sum(len(piece.word) for piece in pieces) <= len(b.word)
    assert sum(piece.strands for piece in pieces) <= b.strands
    for piece in pieces:
        closure_components(piece)  # every piece is consistently colored
        assert reduce_closure(piece) == (ONE, [piece])
