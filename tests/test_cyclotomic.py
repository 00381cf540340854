"""Cyclotomic integrality: an oracle for rt and shadow on every knot at
every spin.

Habiro (Invent. Math. 171, 2008): for a 0-framed knot K and N = 2j + 1,

    I_K(N) / [N]  =  sum_(k=0)^(N-1) H_k(K) prod_(i=1)^k {N+i} {N-i},

{m} = q^m - q^(-m), where each H_k is a Laurent polynomial that does not
depend on N.  The product is zero for k >= N, so I(N) adds the one new term
H_(N-1), and H_0 ... H_(N-1) follow from I(1) ... I(N) by a triangular
recursion, one exact division a step.  A remainder at any step is a fault
of the pipeline or of the framing factor: I_K is the closed-braid value w
times framing_correction, which makes it the 0-framed value.

Unlike a closed form, this needs nothing but the values themselves, so it
checks rt and shadow above spin 1/2 on any knot.  It uses nothing of the
program beyond the two pipelines, the framing factor, LaurentScalar,
divide_exact and quantum_integer.
"""

from hypothesis import given, settings
from strategies import knot_words

from braidrt.braid import ColoredBraidWord, closure_record, framing_correction
from braidrt.laurent import LaurentScalar, divide_exact, quantum_integer
from braidrt.rt_engine import evaluate_rt
from braidrt.shadow_engine import evaluate_shadow
from braidrt.uqsl2 import Spin

#: 3_1, 4_1 and 5_2 as braid closures
KNOTS = {
    "3_1": (2, (1, 1, 1)),
    "4_1": (3, (1, -2, 1, -2)),
    "5_2": (3, (1, 1, 1, 2, -1, 2)),
}


def q(m: int) -> LaurentScalar:
    """q^m, in t = q^(1/4)."""
    return LaurentScalar.monomial(1, 4 * m)


def brace(m: int) -> LaurentScalar:
    """{m} = q^m - q^(-m)."""
    return q(m) - q(-m)


def framed_value(evaluate, strands: int, word: tuple[int, ...], n: int) -> LaurentScalar:
    """I_K(N), N = n: the knot's w at spin (n - 1)/2 times its framing factor."""
    b = ColoredBraidWord(strands, (Spin(n - 1),) * strands, word)
    return framing_correction(closure_record(b)) * evaluate(b)


def habiro_coefficients(evaluate, strands: int, word: tuple[int, ...],
                        top: int) -> list[LaurentScalar]:
    """H_0 ... H_(top-1) from I(1) ... I(top).  At N, the terms of the known
    H_k are taken off [N]^-1 I(N), and what is left must be H_(N-1) times
    [N] prod_(i<N) {N+i}{N-i}; divide_exact raises ValueError if it is not."""
    coefficients: list[LaurentScalar] = []
    for n in range(1, top + 1):
        rest = framed_value(evaluate, strands, word, n)
        product = quantum_integer(n)
        for k in range(n):
            if k:
                product = product * brace(n + k) * brace(n - k)
            if k < n - 1:
                rest = rest - coefficients[k] * product
        coefficients.append(divide_exact(rest, product))
    return coefficients


def test_the_figure_eight_has_every_coefficient_one():
    # the closed form of tests/test_knot_oracles.py is the case H_k = 1
    strands, word = KNOTS["4_1"]
    assert habiro_coefficients(evaluate_rt, strands, word, 4) == [LaurentScalar.one()] * 4


def test_the_trefoil_coefficients():
    strands, word = KNOTS["3_1"]
    h = habiro_coefficients(evaluate_rt, strands, word, 3)
    assert h == [LaurentScalar.one(), -q(-4), q(-10)]


def test_named_knots_expand_under_rt_and_shadow_to_spin_three_halves():
    for name, (strands, word) in KNOTS.items():
        h = habiro_coefficients(evaluate_rt, strands, word, 4)
        assert h[0] == LaurentScalar.one(), name
        assert habiro_coefficients(evaluate_shadow, strands, word, 4) == h, name


@settings(max_examples=30)
@given(knot_words(3, 7))
def test_random_knots_expand_under_rt_to_spin_three_halves(knot):
    strands, word = knot
    assert habiro_coefficients(evaluate_rt, strands, word, 4)[0] == LaurentScalar.one()
