"""Fusion-path pipeline: coefficients, states, and agreement with the traces."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from strategies import colored_braids

from braidrt import laurent, shadow_engine, uqsl2
from braidrt.braid import ColoredBraidWord
from braidrt.laurent import ONE, ZERO, LaurentScalar, q_power
from braidrt.rt_engine import evaluate_rt
from braidrt.shadow_engine import (
    ShadowState,
    admissible_paths,
    apply_crossing,
    evaluate_shadow,
    initial_state,
    shadow_coefficient,
)
from braidrt.uqsl2 import (
    SPIN_HALF,
    SPIN_ONE,
    SPIN_ZERO,
    FractionScalar,
    Spin,
    TensorOperator,
    braiding,
    cg_integral,
    cg_pair,
    fusion_range,
    qdim,
    ribbon_scalar,
)

H = SPIN_HALF
B = ColoredBraidWord
SPINS = [Spin(0), Spin(1), Spin(2)]


def rand_braid(rng, max_strands=3, max_length=6, spins=(H,)):
    from braidrt.braid import ColorMismatch, closure_components
    while True:
        n = rng.randint(1, max_strands)
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        length = rng.randint(0, max_length) if n > 1 else 0
        b = B(n, tuple(rng.choice(list(spins)) for _ in range(n)),
              tuple(rng.choice(gens) for _ in range(length)))
        try:
            closure_components(b)
            return b
        except ColorMismatch:
            continue


def test_initial_state_path_counts():
    s1 = initial_state((H,), SPIN_ZERO)
    assert len(s1.amplitudes) == 1
    ((out_path, in_path),) = s1.amplitudes
    assert out_path == (SPIN_ZERO, H)

    s2 = initial_state((H, H), SPIN_ZERO)
    tops = sorted(p.top.twice_j for (p, _) in s2.amplitudes)
    assert tops == [0, 2]  # gamma_2 in {0, 1} through gamma_1 = 1/2
    assert all(out == inn for (out, inn) in s2.amplitudes)

    # inadmissible start for the color budget: no paths at all
    s3 = initial_state((H,), Spin(10))
    assert s3.amplitudes == {}


def test_shadow_coefficient_transparency():
    for qc, c in itertools.product(SPINS, repeat=2):
        for bp in fusion_range(c, qc):
            coeff = shadow_coefficient(SPIN_ZERO, qc, c, c, bp, bp, 1)
            assert coeff == ONE
            off = shadow_coefficient(SPIN_ZERO, qc, c, c, bp, bp, -1)
            assert off == ONE


def test_shadow_coefficient_inadmissible_is_zero():
    assert shadow_coefficient(H, H, SPIN_ZERO, SPIN_ONE, H, H, 1).is_zero()
    with pytest.raises(ValueError):
        shadow_coefficient(H, H, SPIN_ZERO, H, SPIN_ONE, H, 2)


def test_shadow_coefficient_fundamental_channel_eigenvalues():
    # with c = 0 the sandwich collapses to the channel decomposition of Rhat
    for sign in (1, -1):
        for a, expected in ((SPIN_ZERO, -q_power(-3, 2)), (SPIN_ONE, q_power(1, 2))):
            coeff = shadow_coefficient(H, H, SPIN_ZERO, H, a, H, sign)
            want = expected if sign == 1 else _inverse_monomial_like(expected)
            assert coeff == want


def _sandwich(p, q_color, c, b, a, b_prime, sign):
    """The five-operator composite whose Schur scalar is the coefficient."""
    identity = TensorOperator.identity
    op = cg_pair(b, q_color, a)[0]                                           # V_a -> V_b V_q
    op = cg_pair(c, p, b)[0].tensor(identity((q_color,))).compose(op)        # -> V_c V_p V_q
    op = identity((c,)).tensor(braiding(p, q_color, sign)).compose(op)       # -> V_c V_q V_p
    op = cg_pair(c, q_color, b_prime)[1].tensor(identity((p,))).compose(op)  # -> V_b' V_p
    return cg_pair(b_prime, p, a)[1].compose(op)                             # -> V_a


def test_shadow_coefficient_is_the_schur_scalar_of_the_sandwich():
    # the oracle: the explicit contraction must be a multiple of id_(V_a)
    # (proportionality_scalar raises otherwise) equal to the one-entry sum;
    # every triple (p, q, c) up to spin 1, and a fixed sample of those that
    # hold a spin 3/2 (all 37 of them take several seconds)
    three_halves = Spin(3)
    with_three_halves = [t for t in itertools.product(SPINS + [three_halves], repeat=3)
                         if three_halves in t]
    triples = list(itertools.product(SPINS, repeat=3)) + random.Random(2).sample(
        with_three_halves, 8)
    count = 0
    for p, qc, c in triples:
        for b, b_prime in itertools.product(fusion_range(c, p), fusion_range(c, qc)):
            for a in set(fusion_range(b, qc)) & set(fusion_range(b_prime, p)):
                for sign in (1, -1):
                    want = _sandwich(p, qc, c, b, a, b_prime, sign).proportionality_scalar()
                    assert shadow_coefficient(p, qc, c, b, a, b_prime, sign) == want
                    count += 1
    assert count == 348


def test_evaluate_shadow_builds_no_tensor_operators(monkeypatch):
    # coefficients come from entries of cached cg_integral/braiding operators;
    # no operator is composed or tensored, even with every cache cold
    b = B(3, (Spin(2),) * 3, (1, -2, -1, 2))
    reference = evaluate_rt(b)
    for cached in (shadow_coefficient, cg_integral, cg_pair, braiding):
        cached.cache_clear()
    calls = []

    def counted(name):
        original = getattr(TensorOperator, name)

        def wrapped(*args):
            calls.append(name)
            return original(*args)
        return wrapped

    for name in ("compose", "tensor"):
        monkeypatch.setattr(TensorOperator, name, counted(name))
    assert evaluate_shadow(b) == reference
    assert calls == []


def test_cold_evaluate_shadow_makes_one_fraction_per_coefficient(monkeypatch):
    # each coefficient is one Laurent contraction of cg_integral's data over
    # its two psi norms: with every cache cold, no fraction is added or
    # multiplied, cg_pair's normalised psi is never built, and each
    # coefficient miss makes at most one FractionScalar
    braids = [B(3, (Spin(t),) * 3, (1, -2, -1, 2, 1)) for t in (1, 2, 3)]
    braids.append(B(3, (H, SPIN_ONE, SPIN_ONE), (2, 2, -1, -1, 2)))
    values = [evaluate_rt(b) for b in braids]
    for cached in (shadow_coefficient, cg_integral, cg_pair, braiding,
                   shadow_engine._common_denominator):
        cached.cache_clear()
    calls = Counter()

    def counted(name, original):
        def wrapped(*args):
            calls[name] += 1
            return original(*args)
        return wrapped

    for name in ("__init__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(FractionScalar, name, counted(name, getattr(FractionScalar, name)))
    for module in (uqsl2, shadow_engine):
        monkeypatch.setattr(module, "cg_pair", counted("cg_pair", cg_pair))
    assert [evaluate_shadow(b) for b in braids] == values
    misses = shadow_coefficient.cache_info().misses
    assert misses > 0 and 0 < calls.pop("__init__") <= misses
    assert calls == {}


def _inverse_monomial_like(value):
    # the two channel eigenvalues are unit monomials; invert exactly
    ((exp, coeff),) = value.terms().items()
    return LaurentScalar.monomial(coeff, -exp)


def test_apply_crossing_transparency_of_zero_strand():
    state = initial_state((SPIN_ZERO, SPIN_ONE), SPIN_ZERO)
    after = apply_crossing(state, 1, 1)
    assert after.colors_out == (SPIN_ONE, SPIN_ZERO)
    # one target path per source path, amplitude exactly 1
    assert len(after.amplitudes) == len(state.amplitudes)
    for (out_path, in_path), amp in after.amplitudes.items():
        assert amp == ONE
        assert out_path[0] == in_path[0]
        assert out_path.top == in_path.top


def test_apply_crossing_then_inverse_is_identity():
    rng = random.Random(3)
    for _ in range(10):
        colors = tuple(rng.choice(SPINS) for _ in range(3))
        state = initial_state(colors, SPIN_ZERO)
        slot = rng.randint(1, 2)
        roundtrip = apply_crossing(apply_crossing(state, slot, 1), slot, -1)
        assert roundtrip.colors_out == colors
        assert _states_equal(roundtrip, state)
    with pytest.raises(ValueError):
        apply_crossing(initial_state((H, H)), 5, 1)


def _states_equal(s1: ShadowState, s2: ShadowState) -> bool:
    keys = set(s1.amplitudes) | set(s2.amplitudes)
    zero = FractionScalar(ZERO)
    return all(
        s1.amplitudes.get(k, zero) == s2.amplitudes.get(k, zero) for k in keys)


def test_one_crossing_amplitudes_are_channel_eigenvalues():
    state = apply_crossing(initial_state((H, H), SPIN_ZERO), 1, 1)
    for (out_path, in_path), amp in state.amplitudes.items():
        assert out_path.top == in_path.top
        expected = (q_power(1, 2) if out_path.top == SPIN_ONE
                    else -q_power(-3, 2))
        assert amp == expected


def test_evaluate_shadow_examples():
    assert evaluate_shadow(B(1, (H,), ())) == qdim(H)
    kink = B(2, (H, H), (1,))
    assert evaluate_shadow(kink) == ribbon_scalar(H) ** -1 * qdim(H)
    assert evaluate_shadow(kink) == evaluate_rt(kink)
    hopf = B(2, (H, H), (1, 1))
    assert evaluate_shadow(hopf) == evaluate_rt(hopf)


@given(colored_braids(max_strands=3, max_length=6, max_twice_j=2))
def test_pipeline_equality_random_mixed_spins(b):
    assert evaluate_shadow(b) == evaluate_rt(b), b.to_spec_string()


def unsplit_shadow(b: ColoredBraidWord) -> LaurentScalar:
    """The oracle for evaluate_shadow: one fold over the whole word, closed
    by the [d_top]-weighted diagonal over the state denominator."""
    state = initial_state(b.colors)
    for g in b.word:
        state = apply_crossing(state, abs(g), 1 if g > 0 else -1)
    total = ZERO
    for (out_path, in_path), amp in state.numerators.items():
        if out_path == in_path:
            total = total + amp * qdim(out_path.top)
    return laurent.divide_exact(total, state.denominator)


@given(colored_braids(max_strands=4, max_length=8, max_twice_j=3))
def test_evaluate_shadow_equals_the_unsplit_fold(b):
    assert evaluate_shadow(b) == unsplit_shadow(b), b.to_spec_string()


@settings(max_examples=40)
@given(colored_braids(max_strands=3, max_length=8, max_twice_j=2))
def test_every_rotation_of_the_word_gives_the_same_w(b):
    # rotating the word conjugates the braid, and each rotation moves the
    # split point of both closings to another place in the original word
    reference = evaluate_rt(b)
    colors, word = list(b.colors), b.word
    for _ in range(len(word)):
        i = abs(word[0]) - 1
        colors[i], colors[i + 1] = colors[i + 1], colors[i]
        word = word[1:] + word[:1]
        rotated = B(b.strands, colors, word)
        assert evaluate_rt(rotated) == evaluate_shadow(rotated) == reference, \
            rotated.to_spec_string()
    assert word == b.word and tuple(colors) == b.colors


@settings(max_examples=8)
@given(colored_braids(min_strands=3, max_strands=3, min_length=20, max_length=40,
                      min_twice_j=1, max_twice_j=2))
def test_pipeline_equality_on_long_words(b):
    # the state denominator is a product over every crossing of the word
    assert evaluate_shadow(b) == evaluate_rt(b), b.to_spec_string()


def _count_fractions_and_gcds(monkeypatch) -> list[str]:
    calls = []
    init = uqsl2.FractionScalar.__init__

    def counting_init(self, *args):
        calls.append("FractionScalar")
        init(self, *args)

    def counting_gcd(a, b):
        calls.append("gcd")
        return laurent.gcd(a, b)

    monkeypatch.setattr(uqsl2.FractionScalar, "__init__", counting_init)
    monkeypatch.setattr(uqsl2, "gcd", counting_gcd)  # FractionScalar reduces by this one
    monkeypatch.setattr(shadow_engine, "gcd", counting_gcd, raising=False)  # the lcm's
    return calls


def test_warm_evaluate_shadow_builds_no_fractions_and_calls_no_gcd(monkeypatch):
    # amplitudes are Laurent numerators over one state denominator, and each
    # crossing's lcm is cached: once the caches are filled, a pass only
    # multiplies and adds Laurent polynomials
    braids = [B(3, (Spin(t),) * 3, (1, -2, -1, 2, 1)) for t in (1, 2, 3)]
    braids.append(B(3, (H, SPIN_ONE, SPIN_ONE), (2, 2, -1, -1, 2)))
    values = [evaluate_shadow(b) for b in braids]
    calls = _count_fractions_and_gcds(monkeypatch)
    assert [evaluate_shadow(b) for b in braids] == values
    assert calls == []


def test_amplitudes_view_builds_fractions_only_when_read(monkeypatch):
    state = initial_state((SPIN_ONE,) * 3)
    for slot, sign in ((1, 1), (2, -1), (1, 1)):
        state = apply_crossing(state, slot, sign)
    assert not state.denominator.is_one()
    assert all(isinstance(v, LaurentScalar) for v in state.numerators.values())
    calls = _count_fractions_and_gcds(monkeypatch)
    view = state.amplitudes
    assert len(view) == len(state.numerators) and list(view) == list(state.numerators)
    assert calls == []
    key = next(iter(state.numerators))
    value = view[key]
    assert calls.count("FractionScalar") == 1
    assert value.num * state.denominator == state.numerators[key] * value.den


def _admissible(chain, colors):
    return len(chain) == len(colors) + 1 and chain[0] == SPIN_ZERO and all(
        nxt in fusion_range(prev, color) for prev, nxt, color in zip(chain, chain[1:], colors))


@given(colored_braids(max_strands=3, max_length=5, max_twice_j=2))
def test_support_bound(b):
    # apply_crossing builds only admissible chains, and none above the budget
    budget = sum(c.twice_j for c in b.colors)
    state = initial_state(b.colors, SPIN_ZERO)
    for g in b.word:
        state = apply_crossing(state, abs(g), 1 if g > 0 else -1)
        for (out_path, in_path) in state.amplitudes:
            assert _admissible(out_path, state.colors_out)
            assert _admissible(in_path, b.colors)
            assert all(s.twice_j <= budget for s in out_path + in_path)


def test_apply_crossing_looks_up_each_coefficient_once(monkeypatch):
    # many paths share the chain colors (below, mid, above) at a slot; each
    # crossing asks for one coefficient per distinct triple and target
    b = B(4, (H,) * 4, (1, 2, 3, -1, 2, -3, 1, 2))
    reference = evaluate_shadow(b)  # fills the caches
    apply, coefficient = shadow_engine.apply_crossing, shadow_engine.shadow_coefficient
    crossing = [-1]
    calls = []

    def counted_apply(state, slot, sign):
        crossing[0] += 1
        return apply(state, slot, sign)

    def counted_coefficient(p, q_color, c, b_, a, b_prime, sign):
        calls.append((crossing[0], c, b_, a, b_prime))
        return coefficient(p, q_color, c, b_, a, b_prime, sign)

    monkeypatch.setattr(shadow_engine, "apply_crossing", counted_apply)
    monkeypatch.setattr(shadow_engine, "shadow_coefficient", counted_coefficient)
    assert evaluate_shadow(b) == reference
    assert crossing[0] == len(b.word) - 1
    assert calls and max(Counter(calls).values()) == 1


def test_any_fixed_gamma0_gives_the_same_invariant():
    # the completeness relation holds for every starting color: summing
    # [d_top] amplitudes over diagonal paths from gamma_0 gives [d_gamma0]
    # times the invariant
    rng = random.Random(29)
    for _ in range(6):
        b = rand_braid(rng, max_strands=2, max_length=4)
        reference = evaluate_rt(b)
        budget = sum(c.twice_j for c in b.colors)
        for gamma0 in (SPIN_ZERO, H, SPIN_ONE):
            if gamma0.twice_j > budget:
                continue
            state = initial_state(b.colors, gamma0)
            for g in b.word:
                state = apply_crossing(state, abs(g), 1 if g > 0 else -1)
            total = FractionScalar(ZERO)
            for (out_path, in_path), amp in state.amplitudes.items():
                if out_path == in_path:
                    total = total + amp * qdim(out_path.top)
            assert total == reference * qdim(gamma0), (b.to_spec_string(), gamma0)
