"""The bracket/Jones oracle: its own invariance suite and frozen values.

The bracket itself is checked against `state_sum_bracket`, the plain
2^(#crossings) state sum, on every diagram small enough for it."""

import dataclasses
import random
import time

import pytest
from hypothesis import given, strategies as st

from braidrt.braid import ColoredBraidWord, LinkDiagram, braid_to_diagram
from braidrt.laurent import LaurentScalar, divide_exact, q_power
from braidrt.skein_oracle import (
    A_EXPONENT,
    jones_unnormalized,
    kauffman_bracket,
    skein_triple,
)
from braidrt.uqsl2 import SPIN_HALF, SPIN_ONE, Spin

from strategies import colored_braids

H = SPIN_HALF
B = ColoredBraidWord
A = LaurentScalar.monomial(1, A_EXPONENT)
DELTA = -(A ** 2) - (A ** -2)


def rand_braid(rng, max_strands=4, max_length=7, min_length=0, min_strands=1):
    n = rng.randint(max(min_strands, 2 if min_length else 1), max_strands)
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    length = rng.randint(min_length, max_length) if n > 1 else 0
    return B(n, (H,) * n, tuple(rng.choice(gens) for _ in range(length)))


def state_sum_bracket(d: LinkDiagram) -> LaurentScalar:
    """The bracket as the full sum over all 2^m smoothings, each counted by
    union-find; the reference the sweep in kauffman_bracket is tested against."""
    crossings = d.crossings
    if not crossings:
        return DELTA ** (len(d.free_loops))
    edge_ids = sorted({e for c in crossings for e in c.slots})
    index = {e: i for i, e in enumerate(edge_ids)}
    n_edges = len(edge_ids)

    # Precompute the two merge plans per crossing: the A-smoothing joins
    # slots (0-1) and (2-3), the B-smoothing slots (0-3) and (1-2).
    plans = []
    for c in crossings:
        s = [index[e] for e in c.slots]
        plans.append((((s[0], s[1]), (s[2], s[3])), ((s[0], s[3]), (s[1], s[2]))))

    m = len(crossings)
    parent = list(range(n_edges))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # states per (A-count, loop count); each contributes A^(#A - #B) delta^loops
    counts: dict[tuple[int, int], int] = {}
    for state in range(1 << m):
        parent[:] = range(n_edges)
        a_count = 0
        loops = n_edges + len(d.free_loops)
        for k in range(m):
            use_a = not (state >> k) & 1
            a_count += use_a
            for x, y in plans[k][0 if use_a else 1]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    loops -= 1
        counts[a_count, loops] = counts.get((a_count, loops), 0) + 1
    total = LaurentScalar.zero()
    for (a_count, loops), count in counts.items():
        weight = LaurentScalar.monomial(count, A_EXPONENT * (2 * a_count - m))
        total = total + weight * DELTA ** loops
    return total


def test_bracket_unknot_is_loop_value():
    d = braid_to_diagram(B(1, (H,), ()))
    assert kauffman_bracket(d) == DELTA
    assert DELTA == -q_power(1) - q_power(-1)


def test_bracket_unlink_is_delta_squared():
    d = braid_to_diagram(B(2, (H, H), ()))
    assert kauffman_bracket(d) == DELTA * DELTA


def test_bracket_trefoil_eight_states():
    # the frozen value of the braid trefoil, read by the sweep and by the
    # 8-state sum alike; against the classical delta^(loops - 1) convention
    # it carries one extra loop factor
    d = braid_to_diagram(B(2, (H, H), (1, 1, 1)))
    # under this module's smoothing assignment the all-positive braid trefoil
    # carries the bracket A^7 - A^3 - A^-5 (the mirror of the textbook
    # normalisation, absorbed by the A embedding)
    frozen = (A ** 7) - (A ** 3) - (A ** -5)
    for bracket in (kauffman_bracket(d), state_sum_bracket(d)):
        assert divide_exact(bracket, DELTA) == frozen


@given(colored_braids(max_strands=6, max_length=10, min_twice_j=1, max_twice_j=1),
       st.randoms(use_true_random=False))
def test_bracket_sweep_matches_state_sum(b, rng):
    d = braid_to_diagram(b)
    expected = state_sum_bracket(d)
    assert kauffman_bracket(d) == expected
    # the crossing order sets only the cost of the sweep, never its value
    shuffled = list(d.crossings)
    rng.shuffle(shuffled)
    assert kauffman_bracket(dataclasses.replace(d, crossings=tuple(shuffled))) == expected


@pytest.mark.parametrize("strands, word, budget_s", [
    (6, (1, -2, 3, -4, 5, 2, -1, 3, 4, -5, 1, 2, -3, 4, 5, -2), 0.25),
    (3, (1, -2) * 14, 1.0),
])
def test_bracket_time_is_linear_in_crossings(strands, word, budget_s):
    # 2^16 and 2^28 smoothings; the sweep keeps at most the pairings of
    # 2 * strands open edges
    d = braid_to_diagram(B(strands, (H,) * strands, word))
    started = time.perf_counter()
    kauffman_bracket(d)
    assert time.perf_counter() - started < budget_s


def test_bracket_rejects_non_fundamental():
    with pytest.raises(ValueError):
        kauffman_bracket(braid_to_diagram(B(1, (SPIN_ONE,), ())))
    with pytest.raises(ValueError):
        jones_unnormalized(braid_to_diagram(B(2, (SPIN_ONE, SPIN_ONE), (1,))))


def test_jones_unknot_normalisation():
    assert jones_unnormalized(braid_to_diagram(B(1, (H,), ()))) == \
        q_power(1) + q_power(-1)
    # kinked presentations give the same value (Reidemeister I corrected)
    for word in ((1,), (-1,), (1, 1, -1)):
        assert jones_unnormalized(braid_to_diagram(B(2, (H, H), word))) == \
            q_power(1) + q_power(-1)


def test_jones_split_unlink_multiplicativity():
    two = jones_unnormalized(braid_to_diagram(B(2, (H, H), ())))
    one = jones_unnormalized(braid_to_diagram(B(1, (H,), ())))
    assert two == one * one


def test_jones_trefoil_frozen_value():
    value = jones_unnormalized(braid_to_diagram(B(2, (H, H), (1, 1, 1))))
    assert value == q_power(-1) + q_power(-3) + q_power(-5) - q_power(-9)
    mirror = jones_unnormalized(braid_to_diagram(B(2, (H, H), (-1, -1, -1))))
    assert mirror == value.mirror()
    assert mirror != value


def test_oracle_skein_identity():
    rng = random.Random(101)
    q2, qm2 = q_power(2), q_power(-2)
    rhs_factor = q_power(1) - q_power(-1)
    jones = lambda b: jones_unnormalized(braid_to_diagram(b))
    for _ in range(60):
        b = rand_braid(rng, min_length=1)
        pos = rng.randrange(len(b.word))
        lp, lm, l0 = skein_triple(b, pos)
        assert q2 * jones(lp) - qm2 * jones(lm) == rhs_factor * jones(l0), \
            (b.to_spec_string(), pos)


def test_bracket_reidemeister_ii_and_iii():
    rng = random.Random(55)
    for _ in range(40):
        b = rand_braid(rng, max_strands=4, max_length=5, min_strands=2)
        n = b.strands
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        k = rng.randint(0, len(b.word))
        g = rng.choice(gens)
        b2 = B(n, b.colors, b.word[:k] + (g, -g) + b.word[k:])
        assert kauffman_bracket(braid_to_diagram(b)) == \
            kauffman_bracket(braid_to_diagram(b2))
        if n >= 3:
            i = rng.randint(1, n - 2)
            s = rng.choice((1, -1))
            w1 = b.word[:k] + (s * i, s * (i + 1), s * i) + b.word[k:]
            w2 = b.word[:k] + (s * (i + 1), s * i, s * (i + 1)) + b.word[k:]
            assert kauffman_bracket(braid_to_diagram(B(n, b.colors, w1))) == \
                kauffman_bracket(braid_to_diagram(B(n, b.colors, w2)))


def test_jones_all_three_reidemeister_moves():
    rng = random.Random(56)
    jones = lambda b: jones_unnormalized(braid_to_diagram(b))
    for _ in range(25):
        b = rand_braid(rng, max_strands=3, max_length=5)
        base = jones(b)
        n = b.strands
        # R1 via Markov stabilisation
        for s in (n, -n):
            stab = B(n + 1, b.colors + (H,), b.word + (s,))
            assert jones(stab) == base
        # R2 via inverse-pair insertion
        if n >= 2:
            g = rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
            assert jones(B(n, b.colors, (g, -g) + b.word)) == base


def test_mirror_symmetry():
    rng = random.Random(57)
    for _ in range(30):
        b = rand_braid(rng)
        mirrored = B(b.strands, b.colors, tuple(-g for g in b.word))
        lhs = jones_unnormalized(braid_to_diagram(mirrored))
        assert lhs == jones_unnormalized(braid_to_diagram(b)).mirror()


def test_skein_triple_forms():
    b = B(2, (H, H), (1, 1, 1))
    lp, lm, l0 = skein_triple(b, 0)
    assert lp.word == (1, 1, 1) and lm.word == (-1, 1, 1) and l0.word == (1, 1)
    empty = B(2, (H, H), ())
    with pytest.raises(ValueError):
        skein_triple(empty, 0)
    with pytest.raises(ValueError):
        skein_triple(b, 7)
