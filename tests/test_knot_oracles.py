"""rt and shadow against knot oracles beyond the torus family: the
figure-eight knot at every spin in closed form, and the connected-sum law.

The closed form uses nothing from the engines beyond the scalar ring and
the q-integers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from braidrt.braid import ColoredBraidWord, closure_components
from braidrt.laurent import LaurentScalar, quantum_integer
from braidrt.rt_engine import evaluate_rt
from braidrt.shadow_engine import evaluate_shadow
from braidrt.uqsl2 import Spin

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


@st.composite
def knot_words(draw, max_strands: int, max_length: int):
    """(n, word) on 2..max_strands strands whose closure is a knot."""
    n = draw(st.integers(2, max_strands))
    gens = [s * i for i in range(1, n) for s in (1, -1)]
    word = draw(st.lists(st.sampled_from(gens), max_size=max_length).filter(
        lambda w: len(closure_components(ColoredBraidWord(n, (Spin(1),) * n, w))) == 1))
    return n, tuple(word)


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
