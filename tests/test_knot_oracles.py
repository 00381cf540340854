"""rt and shadow against knot oracles beyond the torus family: the
figure-eight knot at every spin in closed form, the connected-sum law, and
every knot at every spin by the Chebyshev-cabled skein oracle.

The closed form uses nothing from the engines beyond the scalar ring and
the q-integers; the cabled skein oracle uses braid-word cabling and the
spin-1/2 Jones oracle, and no braiding.
"""

from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import knot_words

from braidrt.braid import ColoredBraidWord, braid_to_diagram, cabling, closure_components
from braidrt.laurent import LaurentScalar, quantum_integer
from braidrt.rt_engine import evaluate_rt
from braidrt.shadow_engine import evaluate_shadow
from braidrt.skein_oracle import jones_unnormalized
from braidrt.uqsl2 import SPIN_HALF, Spin

FIGURE_EIGHT = (1, -2, 1, -2)


def _brace(m: int) -> LaurentScalar:
    """{m} = q^m - q^(-m), in t = q^(1/4)."""
    return LaurentScalar.monomial(1, 4 * m) - LaurentScalar.monomial(1, -4 * m)


def figure_eight_invariant(twice_j: int) -> LaurentScalar:
    """w of the closure of (sigma_1 sigma_2^(-1))^2 with every strand of
    color j.  With N = 2j + 1, Habiro's cyclotomic expansion (Invent. Math.
    171, 2008; Masbaum, Algebr. Geom. Topol. 3, 2003) gives

        w  =  [N] sum_(k=0)^(N-1) prod_(i=1)^k {N+i} {N-i}.

    The word has writhe 0, so no framing factor enters."""
    n = twice_j + 1
    total, product = LaurentScalar.zero(), LaurentScalar.one()
    for k in range(n):
        if k:
            product = product * _brace(n + k) * _brace(n - k)
        total = total + product
    return quantum_integer(n) * total


def test_figure_eight_at_spin_one_half_is_the_jones_polynomial():
    # q^4 - q^2 + 1 - q^-2 + q^-4 times the unknot's [2]
    jones = LaurentScalar({16: 1, 8: -1, 0: 1, -8: -1, -16: 1})
    assert figure_eight_invariant(1) == quantum_integer(2) * jones


def test_rt_and_shadow_equal_the_figure_eight_closed_form():
    # rt up to spin 5/2, shadow up to 3/2; 4_1 is amphichiral
    for twice_j in range(6):
        b = ColoredBraidWord(3, (Spin(twice_j),) * 3, FIGURE_EIGHT)
        want = figure_eight_invariant(twice_j)
        assert want.mirror() == want
        assert evaluate_rt(b) == want, b.to_spec_string()
        if twice_j <= 3:
            assert evaluate_shadow(b) == want, b.to_spec_string()


@settings(max_examples=30)
@given(st.integers(0, 5), st.lists(st.sampled_from((1, 2, -1, -2)), min_size=1, max_size=3))
def test_figure_eight_conjugates_equal_the_closed_form(twice_j, u):
    # every strand has one color, so conjugation leaves the colors as they are
    inverse = tuple(-g for g in reversed(u))
    b = ColoredBraidWord(3, (Spin(twice_j),) * 3, inverse + FIGURE_EIGHT + tuple(u))
    want = figure_eight_invariant(twice_j)
    assert evaluate_rt(b) == want, b.to_spec_string()
    if twice_j <= 3:
        assert evaluate_shadow(b) == want, b.to_spec_string()


def check_connected_sum(evaluate, twice_j: int, first, second) -> None:
    """Run the second knot's word shifted by n1 - 1 after the first one, on
    n1 + n2 - 1 strands: the closure is K1 # K2, and
    qdim(j) w(K1 # K2) = w(K1) w(K2)."""
    (n1, w1), (n2, w2) = first, second
    n, color = n1 + n2 - 1, Spin(twice_j)
    shifted = tuple(g + n1 - 1 if g > 0 else g - n1 + 1 for g in w2)
    composite = ColoredBraidWord(n, (color,) * n, w1 + shifted)
    w_first = evaluate(ColoredBraidWord(n1, (color,) * n1, w1))
    w_second = evaluate(ColoredBraidWord(n2, (color,) * n2, w2))
    assert quantum_integer(twice_j + 1) * evaluate(composite) == w_first * w_second, \
        composite.to_spec_string()


@settings(max_examples=40)
@given(st.integers(1, 2), knot_words(3, 5), knot_words(3, 5))
def test_connected_sum_is_multiplicative_under_rt(twice_j, first, second):
    check_connected_sum(evaluate_rt, twice_j, first, second)


@settings(max_examples=20)
@given(st.integers(1, 2), knot_words(2, 5), knot_words(2, 5))
def test_connected_sum_is_multiplicative_under_shadow(twice_j, first, second):
    check_connected_sum(evaluate_shadow, twice_j, first, second)


def cabled_skein(knot: ColoredBraidWord) -> LaurentScalar:
    """w of a knot at its color j from spin-1/2 values of its parallels.

    In the representation ring V_j is the Chebyshev polynomial S_(2j) of
    V_(1/2): V_j = sum_(k=0)^(floor j) (-1)^k C(2j-k, k) V_(1/2)^(x)(2j-2k)
    (Kirby-Melvin, Invent. Math. 105, 1991).  w is linear in the color of
    the component, and the knot colored V_(1/2)^(x)m is its blackboard
    m-parallel K^(m) at spin 1/2, where w = t^(6 s) P with s the sign sum
    of K^(m) and P its Jones value; the m = 0 term is the empty link, 1."""
    (_, color), = closure_components(knot)
    n = color.twice_j
    total = LaurentScalar.zero()
    for k in range(n // 2 + 1):
        m = n - 2 * k
        term = LaurentScalar.one()
        if m:
            parallel = cabling(knot, None, (SPIN_HALF,) * m)
            term = LaurentScalar.monomial(1, 6 * parallel.sign_sum()) * \
                jones_unnormalized(braid_to_diagram(parallel))
        total = total + LaurentScalar.from_int((-1) ** k * comb(n - k, k)) * term
    return total


#: 3_1, 4_1, 5_1 and 5_2 as braid closures
SMALL_KNOTS = {
    "3_1": (2, (1, 1, 1)),
    "4_1": (3, FIGURE_EIGHT),
    "5_1": (2, (1, 1, 1, 1, 1)),
    "5_2": (3, (1, 1, 1, 2, -1, 2)),
}


def test_cabled_skein_equals_rt_and_shadow_on_small_knots():
    for name, (n, word) in SMALL_KNOTS.items():
        for twice_j in range(4):
            b = ColoredBraidWord(n, (Spin(twice_j),) * n, word)
            assert evaluate_rt(b) == evaluate_shadow(b) == cabled_skein(b), (name, twice_j)


@settings(max_examples=50)
@given(knot_words(3, 6))
def test_cabled_skein_equals_rt_and_shadow_at_spin_one(knot):
    n, word = knot
    b = ColoredBraidWord(n, (Spin(2),) * n, word)
    assert evaluate_rt(b) == evaluate_shadow(b) == cabled_skein(b), b.to_spec_string()
