"""The colored invariant of a torus knot in closed form (Rosso-Jones).

For coprime m and p, the torus knot T(m, p) is the closure of
(sigma_1 ... sigma_(m-1))^p on m strands.  Rosso and Jones (J. Knot Theory
Ramifications 2, 1993) and Morton (Math. Proc. Cambridge Philos. Soc. 117,
1995) give its U_q(sl2) invariant without any R-matrix: the Adams operation
psi^m splits V_j into irreducibles V_c with integer multiplicities a_c, and
in the blackboard framing of the braid closure

    w  =  v_j^p * sum_c a_c * v_c^(-p/m) * [2c + 1],

with v the ribbon monomial q^(-2c(c+1)).  In t = q^(1/4) and c2 = 2c,
v_c^(-p/m) is t^(2p c2 (c2 + 2) / m), an integer power.

This module is a test oracle.  It shares nothing with the engines beyond
the scalar ring and the q-integers.
"""

from collections import Counter

from braidrt.laurent import LaurentScalar, quantum_integer


def adams_multiplicities(twice_j: int, m: int) -> dict[int, int]:
    """The multiplicities a_c of psi^m(V_j), keyed by twice_c: multiply every
    twice-weight of V_j by m, then peel irreducible characters off the top."""
    character = Counter({m * w: 1 for w in range(-twice_j, twice_j + 1, 2)})
    out: dict[int, int] = {}
    while character:
        top = max(character)
        a = character[top]
        out[top] = a
        for w in range(-top, top + 1, 2):
            character[w] -= a
            if not character[w]:
                del character[w]
    return out


def torus_knot_invariant(m: int, p: int, twice_j: int) -> LaurentScalar:
    """w of the closure of (sigma_1 ... sigma_(m-1))^p with every strand of
    color j, for m >= 2 and p coprime to m (so the closure is a knot)."""
    total = LaurentScalar()
    for c2, a in adams_multiplicities(twice_j, m).items():
        exponent, rest = divmod(2 * p * c2 * (c2 + 2), m)
        assert rest == 0, (m, p, twice_j, c2)
        total = total + LaurentScalar.monomial(a, exponent) * quantum_integer(c2 + 1)
    return LaurentScalar.monomial(1, -2 * p * twice_j * (twice_j + 2)) * total
