"""Torus knots against the Rosso-Jones closed form: an oracle for rt and
shadow at every spin that uses no braiding and no Clebsch-Gordan data."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from rosso_jones import adams_multiplicities, torus_knot_invariant

from braidrt.braid import ColoredBraidWord
from braidrt.laurent import q_power
from braidrt.rt_engine import evaluate_rt, framed_invariant
from braidrt.shadow_engine import evaluate_shadow
from braidrt.uqsl2 import Spin, ribbon_scalar

#: (m, p, twice_j): m in {2, 3} with |p| <= 7 coprime to m and 2j <= 3, and
#: m = 4 at j = 1/2
CASES = [(m, p, twice_j)
         for m, twice_js in ((2, range(4)), (3, range(4)), (4, (1,)))
         for p in range(-7, 8) if gcd(m, p) == 1
         for twice_j in twice_js]


def torus_braid(m: int, p: int, twice_j: int) -> ColoredBraidWord:
    """(sigma_1 ... sigma_(m-1))^p on m strands of color j."""
    sign = 1 if p > 0 else -1
    return ColoredBraidWord(m, (Spin(twice_j),) * m, tuple(sign * i for i in range(1, m)) * abs(p))


def test_adams_multiplicities_of_small_spins():
    assert adams_multiplicities(0, 3) == {0: 1}
    assert adams_multiplicities(1, 2) == {2: 1, 0: -1}           # V_1 - V_0
    assert adams_multiplicities(1, 3) == {3: 1, 1: -1}           # V_3/2 - V_1/2
    assert adams_multiplicities(2, 2) == {4: 1, 2: -1, 0: 1}     # V_2 - V_1 + V_0


def test_trefoil_is_the_readme_value():
    # T(2,3) at j = 1/2: the README's trefoil, w_L = q^{7/2} + q^{3/2} + q^{-1/2} - q^{-9/2}
    trefoil = q_power(7, 2) + q_power(3, 2) + q_power(-1, 2) - q_power(-9, 2)
    assert torus_knot_invariant(2, 3, 1) == trefoil
    assert torus_knot_invariant(2, -3, 1) == trefoil.mirror()


def test_rt_and_shadow_equal_the_closed_form():
    assert len(CASES) == 80
    for m, p, twice_j in CASES:
        b = torus_braid(m, p, twice_j)
        assert evaluate_rt(b) == evaluate_shadow(b) == torus_knot_invariant(m, p, twice_j), \
            b.to_spec_string()


@settings(max_examples=60)
@given(st.sampled_from(CASES), st.sampled_from((1, -1)))
def test_stabilisations_scale_the_closed_form_by_the_ribbon(case, s):
    # sigma_m^(+-1) on m + 1 strands: the same knot with one more kink, so w
    # gains ribbon_scalar(j)^(-+1) and framed_invariant stays
    m, p, twice_j = case
    b = torus_braid(m, p, twice_j)
    j = Spin(twice_j)
    stab = ColoredBraidWord(m + 1, (j,) * (m + 1), b.word + (s * m,))
    want = ribbon_scalar(j) ** (-s) * torus_knot_invariant(m, p, twice_j)
    assert evaluate_rt(stab) == evaluate_shadow(stab) == want, stab.to_spec_string()
    assert framed_invariant(stab) == framed_invariant(b), stab.to_spec_string()


@st.composite
def conjugated_torus_braids(draw):
    m, p, twice_j = draw(st.sampled_from(CASES))
    b = torus_braid(m, p, twice_j)
    gens = [s * i for i in range(1, m) for s in (1, -1)]
    u = tuple(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)))
    inverse = tuple(-g for g in reversed(u))
    return m, p, twice_j, ColoredBraidWord(m, b.colors, inverse + b.word + u)


@given(conjugated_torus_braids())
def test_conjugates_equal_the_closed_form(case):
    # every strand has one color, so conjugation leaves the colors as they are
    m, p, twice_j, b = case
    assert evaluate_rt(b) == evaluate_shadow(b) == torus_knot_invariant(m, p, twice_j), \
        b.to_spec_string()
