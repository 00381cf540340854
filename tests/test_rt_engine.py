"""Quantum-trace pipeline: strip operators, closures, framing, cabling."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import colored_braids

from braidrt import rt_engine, uqsl2
from braidrt.braid import (ColoredBraidWord, ColorMismatch, cabling, closure_components,
                           framing_correction, split_union)
from braidrt.laurent import ONE, LaurentScalar, q_power
from braidrt.rt_engine import evaluate_rt, framed_invariant, strip_operator, two_cabling
from braidrt.skein_oracle import skein_triple
from braidrt.uqsl2 import (
    SPIN_HALF,
    SPIN_ONE,
    SPIN_ZERO,
    Spin,
    TensorOperator,
    braiding,
    fusion_range,
    qdim,
    quantum_trace,
    ribbon_scalar,
)

H = SPIN_HALF
B = ColoredBraidWord
HH = (H, H)

#: brute-force 4x4 trace values, frozen from the explicit fundamental braiding
KINK_PLUS = q_power(5, 2) + q_power(1, 2)                     # v^-1 [2]
TREFOIL = q_power(7, 2) + q_power(3, 2) + q_power(-1, 2) - q_power(-9, 2)
HOPF = q_power(3) + q_power(1) + q_power(-1) + q_power(-3)


def rand_fundamental(rng, max_strands=3, max_length=6):
    n = rng.randint(1, max_strands)
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    length = rng.randint(0, max_length) if n > 1 else 0
    return B(n, (H,) * n, tuple(rng.choice(gens) for _ in range(length)))


def _colors_before(b: ColoredBraidWord, position: int) -> list[Spin]:
    """Colors at each strand position just before word[position] acts."""
    colors = list(b.colors)
    for g in b.word[:position]:
        i = abs(g) - 1
        colors[i], colors[i + 1] = colors[i + 1], colors[i]
    return colors


def _full_strip(b: ColoredBraidWord, position: int) -> TensorOperator:
    """The strip of word[position] as a Kronecker product over every weight
    key: identity (x) braiding (x) identity."""
    g = b.word[position]
    i = abs(g) - 1
    colors = _colors_before(b, position)
    op = braiding(colors[i], colors[i + 1], 1 if g > 0 else -1)
    if i > 0:
        op = TensorOperator.identity(tuple(colors[:i])).tensor(op)
    if i + 2 < b.strands:
        op = op.tensor(TensorOperator.identity(tuple(colors[i + 2:])))
    return op


def braid_operator(b: ColoredBraidWord) -> TensorOperator:
    """The unsplit product of all full strips, first letter applied first."""
    op = TensorOperator.identity(b.colors)
    for position in range(len(b.word)):
        op = _full_strip(b, position).compose(op)
    return op


def unsplit_rt(b: ColoredBraidWord) -> LaurentScalar:
    """The oracle for evaluate_rt: the quantum trace of the unsplit product
    over every weight sector."""
    return quantum_trace(braid_operator(b))


def test_strip_operator_placement():
    b = B(3, (H, H, H), (2,))
    op = strip_operator(b, 0)
    expected = TensorOperator.identity((H,)).tensor(braiding(H, H, 1))
    assert op == expected
    single = B(2, HH, (1,))
    assert strip_operator(single, 0) == braiding(H, H, 1)
    mixed = B(4, (SPIN_ONE, H, Spin(3), H), (-2,))
    assert strip_operator(mixed, 0) == _full_strip(mixed, 0)
    with pytest.raises(ValueError):
        strip_operator(single, 1)
    with pytest.raises(ValueError):
        strip_operator(B(1, (H,), ()), 0)


def test_strip_operator_tracks_colors():
    b = B(2, (H, SPIN_ONE), (1, 1))
    first = strip_operator(b, 0)
    assert first.col_spins == (H, SPIN_ONE)
    assert first.row_spins == (SPIN_ONE, H)
    second = strip_operator(b, 1)
    assert second.col_spins == (SPIN_ONE, H)
    assert second.row_spins == (H, SPIN_ONE)
    assert braid_operator(b).is_square()
    # the colors read off the word are those a walk through it passes
    c = B(4, (H, SPIN_ONE, Spin(3), SPIN_ZERO), (1, 3, -2, 1, 3, 2))
    for position in range(len(c.word)):
        assert strip_operator(c, position) == _full_strip(c, position)


@given(colored_braids(max_strands=4, max_length=8, max_twice_j=3))
def test_evaluate_rt_equals_the_unsplit_full_sector_product(b):
    assert evaluate_rt(b) == unsplit_rt(b), b.to_spec_string()


#: deterministic oracle cases where the rest has up to 5 terms and the -1 sign
#: reads h on the input weights: spins 2 and 5/2, both signs, mixed colors
ORACLE_BRAIDS = [
    B(3, (Spin(4),) * 3, (1, -2, 1, 2, -1)),
    B(3, (Spin(4),) * 3, (-1, -2, -1, 2)),
    B(3, (Spin(5),) * 3, (1, 2, -1, -2)),
    B(3, (Spin(5),) * 3, (-2, -1, -2, 1, 2)),
    B(3, (H, Spin(4), Spin(5)), (1, 1, -2, -2)),
    B(3, (H, Spin(4), Spin(5)), (-1, 2, 2, -1)),
    B(3, (Spin(4), Spin(5), Spin(4)), (1, -2, 1, 2, 2)),
    B(3, (Spin(5), H, Spin(5)), (-1, 2, -1, -2, -2)),
]


@pytest.mark.parametrize("b", ORACLE_BRAIDS, ids=lambda b: b.to_spec_string())
def test_evaluate_rt_equals_the_unsplit_product_at_high_spin(b):
    assert evaluate_rt(b) == unsplit_rt(b)


def test_letter_table_is_a_swap_a_unit_monomial_and_the_rest():
    # the n = 0 entry of every braiding row sits in the swapped column and
    # is t^d with d = 2 sign r[0] r[1]; the rest is the row over t^d
    for ta in range(6):
        for tb in range(6):
            for sign in (1, -1):
                rhat = braiding(Spin(ta), Spin(tb), sign)
                table = rt_engine._letter(Spin(ta), Spin(tb), sign)
                assert len(table) == len(rhat.rows)
                for c0, (r, d, rest) in table.items():
                    row = rhat.rows[r]
                    assert c0 == (r[1], r[0]) and d == 2 * sign * r[0] * r[1]
                    assert row[c0] == LaurentScalar.monomial(1, d)
                    assert dict(rest) == {c: v.shift(-d) for c, v in row.items() if c != c0}


def test_warm_evaluate_rt_folds_nonnegative_rows_without_operators(monkeypatch):
    # a letter is a swap, a unit-monomial row factor and the unipotent rest:
    # a warm evaluation builds no strip and no operator product, its folds
    # hold only rows of total twice-weight >= 0 (each row's columns in its
    # own sector), and the rows the rest leaves alone cost no product
    braids = [B(3, (Spin(t),) * 3, (1, -2, -1, 2, 1)) for t in (1, 2, 3)]
    braids.append(B(3, (H, SPIN_ONE, SPIN_ONE), (2, 2, -1, -1, 2)))
    wide = B(6, (H,) * 6, (1, -2, 3, -4, 5, 1, 2, -3, 4, -5))
    braids.append(wide)
    values = [evaluate_rt(b) for b in braids]
    calls, folds = [], []

    def recording(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(TensorOperator, "compose", recording("compose", TensorOperator.compose))
    monkeypatch.setattr(TensorOperator, "tensor", recording("tensor", TensorOperator.tensor))
    monkeypatch.setattr(rt_engine, "strip_operator",
                        recording("strip_operator", rt_engine.strip_operator))
    half_fold = rt_engine._half_fold

    def recording_fold(*args):
        folds.append(half_fold(*args))
        return folds[-1]

    monkeypatch.setattr(rt_engine, "_half_fold", recording_fold)
    assert [evaluate_rt(b) for b in braids] == values
    assert calls == []
    assert len(folds) == 2 * len(braids)
    for rows in folds:
        assert rows
        for x, (_, row) in rows.items():
            assert sum(x) >= 0 and all(sum(y) == sum(x) for y in row), x
    products = []
    mul = LaurentScalar.__mul__

    def counting_mul(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(LaurentScalar, "__mul__", counting_mul)
    assert evaluate_rt(wide) == values[-1]
    # multiplying out whole strips made 826 products here
    assert len(products) <= 826 // 2, len(products)


@given(colored_braids(min_strands=2, max_strands=4, max_length=6, max_twice_j=3), st.data())
def test_evaluate_rt_conjugation_invariance(b, data):
    g = data.draw(st.sampled_from([s * i for i in range(1, b.strands) for s in (1, -1)]))
    i = abs(g) - 1
    colors = list(b.colors)
    colors[i], colors[i + 1] = colors[i + 1], colors[i]
    conj = B(b.strands, colors, (-g,) + b.word + (g,))
    assert evaluate_rt(conj) == evaluate_rt(b), conj.to_spec_string()


@given(colored_braids(max_strands=4, max_length=6, max_twice_j=3), st.sampled_from((1, -1)))
def test_evaluate_rt_stabilisation_factor(b, sign):
    # the new strand joins the component closing through the last position
    color = _colors_before(b, len(b.word))[-1]
    stab = B(b.strands + 1, b.colors + (color,), b.word + (sign * b.strands,))
    assert evaluate_rt(stab) == ribbon_scalar(color) ** (-sign) * evaluate_rt(b), \
        stab.to_spec_string()


@given(colored_braids(max_strands=4, max_length=6, max_twice_j=3))
def test_evaluate_rt_mirror(b):
    mirror = B(b.strands, b.colors, tuple(-g for g in b.word))
    assert evaluate_rt(mirror) == evaluate_rt(b).mirror(), b.to_spec_string()


def test_evaluate_rt_empty_word_is_qdim_product():
    assert evaluate_rt(B(1, (H,), ())) == qdim(H)
    assert evaluate_rt(B(2, (H, SPIN_ONE), ())) == qdim(H) * qdim(SPIN_ONE)
    assert evaluate_rt(B(1, (Spin(8),), ())) == qdim(Spin(8))


def test_evaluate_rt_kink_values():
    # A positive kink closes to the unknot with one positive self-crossing:
    # brute-force 4x4 trace gives ribbon_scalar^-1 * [2].
    assert evaluate_rt(B(2, HH, (1,))) == KINK_PLUS
    assert evaluate_rt(B(2, HH, (1,))) == ribbon_scalar(H) ** -1 * qdim(H)
    assert evaluate_rt(B(2, HH, (-1,))) == ribbon_scalar(H) * qdim(H)
    assert quantum_trace(braiding(H, H, 1)) == KINK_PLUS


def test_evaluate_rt_trefoil_and_hopf():
    assert evaluate_rt(B(2, HH, (1, 1, 1))) == TREFOIL
    assert evaluate_rt(B(2, HH, (-1, -1, -1))) == TREFOIL.mirror()
    assert evaluate_rt(B(2, HH, (1, 1))) == HOPF


def test_evaluate_rt_builds_no_fractions(monkeypatch):
    # Both braiding signs are closed-form Laurent series, so a cold rt
    # evaluation with inverse crossings above spin 1/2 never makes a fraction.
    calls = []
    original = uqsl2.FractionScalar.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(uqsl2.FractionScalar, "__init__", counting_init)
    uqsl2.braiding.cache_clear()
    for twice_j in range(1, 5):
        evaluate_rt(B(3, (Spin(twice_j),) * 3, (1, -2, -1, 2)))
    assert calls == []


def test_evaluate_rt_color_mismatch():
    with pytest.raises(ColorMismatch):
        evaluate_rt(B(2, (H, SPIN_ONE), (1,)))


def test_framed_invariant_removes_kinks():
    assert framed_invariant(B(2, HH, (1,))) == qdim(H)
    assert framed_invariant(B(2, HH, (-1,))) == qdim(H)
    assert framing_correction(B(2, HH, (1,))) == ribbon_scalar(H)


def test_evaluate_rt_invariant_under_braid_relations():
    rng = random.Random(67)
    for _ in range(20):
        b = rand_fundamental(rng, max_strands=3, max_length=3)
        n = b.strands
        if n < 3:
            continue
        i = rng.randint(1, n - 2)
        s = rng.choice((1, -1))
        k = rng.randint(0, len(b.word))
        w1 = b.word[:k] + (s * i, s * (i + 1), s * i) + b.word[k:]
        w2 = b.word[:k] + (s * (i + 1), s * i, s * (i + 1)) + b.word[k:]
        assert evaluate_rt(B(n, b.colors, w1)) == evaluate_rt(B(n, b.colors, w2))


def test_framed_invariant_conjugation_invariance():
    rng = random.Random(23)
    for _ in range(25):
        b = rand_fundamental(rng)
        if b.strands < 2:
            continue
        g = rng.choice([i for i in range(1, b.strands)] + [-i for i in range(1, b.strands)])
        conj = B(b.strands, b.colors, (-g,) + b.word + (g,))
        assert framed_invariant(conj) == framed_invariant(b)
        assert evaluate_rt(conj) == evaluate_rt(b)


def test_stabilisation_factor():
    rng = random.Random(31)
    for _ in range(25):
        b = rand_fundamental(rng)
        w = evaluate_rt(b)
        stab_colors = b.colors + (H,)
        for s in (1, -1):
            stab = B(b.strands + 1, stab_colors, b.word + (s * b.strands,))
            assert evaluate_rt(stab) == ribbon_scalar(H) ** (-s) * w
            assert framed_invariant(stab) == framed_invariant(b)


def test_color_zero_strand_is_transparent():
    rng = random.Random(5)
    for _ in range(15):
        b = rand_fundamental(rng, max_strands=2, max_length=5)
        # append a 0-colored strand and braid it through the last slot twice
        # (keeping it a separate closure component)
        n = b.strands + 1
        for extra in ((n - 1, -(n - 1)), (n - 1, n - 1)):
            padded = B(n, b.colors + (SPIN_ZERO,), b.word + extra)
            assert evaluate_rt(padded) == evaluate_rt(b)


def test_split_union_multiplicativity():
    rng = random.Random(11)
    for _ in range(15):
        b1, b2 = rand_fundamental(rng), rand_fundamental(rng)
        u = split_union(b1, b2)
        assert evaluate_rt(u) == evaluate_rt(b1) * evaluate_rt(b2)


def test_skein_relation_for_rt():
    rng = random.Random(43)
    q_half, q_mhalf = q_power(1, 2), q_power(-1, 2)
    rhs_factor = q_power(1) - q_power(-1)
    for _ in range(30):
        b = rand_fundamental(rng)
        if not b.word:
            continue
        pos = rng.randrange(len(b.word))
        lp, lm, l0 = skein_triple(b, pos)
        lhs = q_half * evaluate_rt(lp) - q_mhalf * evaluate_rt(lm)
        assert lhs == rhs_factor * evaluate_rt(l0)


def test_two_strand_torus_closed_form():
    # closing sigma_1^m on two j-colored strands diagonalises over the fusion
    # channels: w = sum_c (channel eigenvalue)^m [2c+1], with eigenvalue
    # (-1)^(2j - c) (v_j v_j / v_c)^(1/2)
    for j in (H, SPIN_ONE, Spin(3)):
        channels = []
        for c in [Spin(t) for t in range(0, 2 * j.twice_j + 1, 2)]:
            n = (2 * j.twice_j - c.twice_j) // 2
            texp = -2 * j.twice_j * (j.twice_j + 2) + c.twice_j * (c.twice_j + 2)
            eigen = LaurentScalar.monomial(-1 if n % 2 else 1, texp)
            channels.append((eigen, qdim(c)))
        for m in range(0, 7):
            closed_form = LaurentScalar.zero()
            for eigen, dim in channels:
                closed_form = closed_form + eigen ** m * dim
            assert evaluate_rt(B(2, (j, j), (1,) * m)) == closed_form, (j, m)


def test_pipeline_equality_spin_three_halves():
    from braidrt.shadow_engine import evaluate_shadow
    j = Spin(3)
    for word in ((), (1,), (1, 1), (1, -1), (1, 1, 1)):
        b = B(2, (j, j), word)
        assert evaluate_rt(b) == evaluate_shadow(b), word


def test_two_cabling_unknot():
    cab = two_cabling(B(1, (H,), ()), None, H, H)
    assert cab.strands == 2 and cab.word == () and cab.colors == HH
    value = evaluate_rt(cab)
    assert value == qdim(H) * qdim(H)
    assert value == ONE + qdim(SPIN_ONE)  # (q+q^-1)^2 = 1 + [3]


def test_two_cabling_fusion_for_trefoil():
    trefoil = B(2, HH, (1, 1, 1))
    cable = two_cabling(trefoil, None, H, H)
    lhs = evaluate_rt(cable)
    rhs = evaluate_rt(B(2, (SPIN_ZERO, SPIN_ZERO), (1, 1, 1))) + \
        evaluate_rt(B(2, (SPIN_ONE, SPIN_ONE), (1, 1, 1)))
    assert lhs == rhs


def test_two_cabling_single_component_of_link():
    hopf = B(2, HH, (1, 1))
    cable = two_cabling(hopf, component=0, color_a=H, color_b=H)
    assert cable.strands == 3
    lhs = evaluate_rt(cable)
    rhs = evaluate_rt(B(2, (SPIN_ZERO, H), (1, 1))) + \
        evaluate_rt(B(2, (SPIN_ONE, H), (1, 1)))
    assert lhs == rhs


@given(colored_braids(max_strands=3, max_length=6, max_twice_j=2), st.data())
def test_cabling_fuses_into_the_channel_sum(link, data):
    # a component cabled (a, b) carries V_a (x) V_b, the sum of V_c over the
    # fusion channels c: gate criterion 5 at every a, b <= 1 and on links
    components = closure_components(link)
    index = data.draw(st.integers(0, len(components) - 1))
    a, b = (Spin(data.draw(st.integers(0, 2))) for _ in range(2))
    strands, _ = components[index]
    cable = cabling(link, index, (a, b))
    channels = LaurentScalar.zero()
    for c in fusion_range(a, b):
        colors = [c if k in strands else color for k, color in enumerate(link.colors)]
        channels = channels + evaluate_rt(B(link.strands, colors, link.word))
    assert evaluate_rt(cable) == channels, cable.to_spec_string()


def test_two_cabling_rejects_bad_selection():
    hopf = B(2, HH, (1, 1))
    with pytest.raises(ValueError):
        two_cabling(hopf, None, H, H)  # two components, no selection
    with pytest.raises(ValueError):
        two_cabling(hopf, 5, H, H)
