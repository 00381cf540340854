"""Independent Jones-polynomial oracle by Kauffman bracket state expansion.

This module shares no evaluation machinery with the braiding pipelines: it
only touches LinkDiagram combinatorics and the Laurent ring.  The bracket is
the state sum

    <D>  =  sum over smoothings  A^(#A - #B) * delta^(#loops),
    delta = -A^2 - A^(-2),

with the empty diagram worth 1 and a crossing-free circle worth delta.  It is
computed by one sweep over the crossings (the Temperley-Lieb pairing sweep of
Kauffman-Lins, 1994, ch. 2): each crossing's A- and B-smoothings rewrite the
pairing of the open edges, and each closed loop contributes delta at once.
The cost is linear in the crossing count and exponential only in the number
of open edges; for a braid closure swept in word order that is at most
2 * strands.  The bracket variable is embedded into the t = q^(1/4) lattice
as a fixed monomial A = q^(A_EXPONENT/4).

The oracle's Jones value is pinned, not assumed: the embedding and overall
normalisation are fixed by requiring (i) the unknot value q + q^(-1) and
(ii) the skein identity q^2 P(L+) - q^(-2) P(L-) = (q - q^(-1)) P(L0) with
L+/L- named by braid generator signs.  Identity (ii) forces the correction
to use the full diagram writhe (switching a crossing between two different
components changes the linking number but not any self-writhe, and the
relation must still shift by q^(+-2)); the anchors then force A = q^(-1/2)
and an overall (-1)^(#components):

    P(D)  =  (-1)^(#components) * (-A^3)^(writhe) * <D>.

(Under this module's A/B smoothing assignment a positive kink contributes
-A^(-3) to the bracket, hence the positive correction exponent.)  P is the
standard unnormalised Jones polynomial of the oriented link; against the
braid engines it satisfies  w = q^((3/2) * signsum) * P,  where the exponent
counts all crossings; on knots signsum equals the per-component writhe sum.
"""

from __future__ import annotations

from .braid import ColoredBraidWord, LinkDiagram
from .laurent import LaurentScalar
from .uqsl2 import SPIN_HALF

#: t-units exponent of the bracket variable: A = q^(-1/2).  The unique
#: alternative A = q^(+1/2) fails the chirality anchor (it mirrors every
#: value and breaks the trefoil cross-check against the braiding engines).
A_EXPONENT = -2

_A = LaurentScalar.monomial(1, A_EXPONENT)
_A_INV = LaurentScalar.monomial(1, -A_EXPONENT)
_LOOP = LaurentScalar.monomial(-1, 2 * A_EXPONENT) + LaurentScalar.monomial(-1, -2 * A_EXPONENT)


def _require_fundamental(d: LinkDiagram) -> None:
    colors = [c for _, c in d.components] + list(d.free_loops)
    if any(c != SPIN_HALF for c in colors):
        raise ValueError("the skein oracle only evaluates fundamental (spin-1/2) colorings")


def kauffman_bracket(d: LinkDiagram) -> LaurentScalar:
    """The bracket by one sweep over d.crossings in the given order; exact
    in Z[t, t^-1].  A state maps the pairing of the open edges (met at one
    swept crossing; each is paired with the open edge at the other end of
    its arc through the smoothed part) to its coefficient."""
    _require_fundamental(d)
    states: dict[tuple[tuple[int, int], ...], LaurentScalar] = {(): LaurentScalar.one()}
    for c in d.crossings:
        s0, s1, s2, s3 = c.slots
        smoothings = ((_A, ((s0, s1), (s2, s3))), (_A_INV, ((s0, s3), (s1, s2))))
        swept: dict[tuple[tuple[int, int], ...], LaurentScalar] = {}
        for pairing, coeff in states.items():
            for weight, joins in smoothings:
                partner = dict(pairing)
                value = coeff * weight
                for x, y in joins:
                    ex, ey = partner.pop(x, x), partner.pop(y, y)
                    if ex == y:  # the join closes a loop
                        value = value * _LOOP
                    else:
                        partner[ex], partner[ey] = ey, ex
                key = tuple(sorted(partner.items()))
                swept[key] = swept[key] + value if key in swept else value
        states = swept
    # every edge meets two crossings, so only the empty pairing is left
    return states[()] * _LOOP ** len(d.free_loops)


def jones_unnormalized(d: LinkDiagram) -> LaurentScalar:
    """The link's Jones value in the engine's variable: unknot -> q + q^(-1),
    and q^2 P(L+) - q^(-2) P(L-) = (q - q^(-1)) P(L0) for braid-sign triples."""
    bracket = kauffman_bracket(d)
    w = d.writhe()
    components = len(d.components) + len(d.free_loops)
    sign = -1 if (components + w) % 2 else 1
    correction = LaurentScalar.monomial(sign, 3 * A_EXPONENT * w)
    return correction * bracket


def skein_triple(
    b: ColoredBraidWord, position: int
) -> tuple[ColoredBraidWord, ColoredBraidWord, ColoredBraidWord]:
    """The braids (L+, L-, L0) differing at one crossing site: the letter at
    position is replaced by its positive form, its negative form, and
    deleted."""
    w = b.word
    if not 0 <= position < len(w):
        raise ValueError(f"position {position} addresses no generator occurrence")
    i = abs(w[position])
    plus = w[:position] + (i,) + w[position + 1:]
    minus = w[:position] + (-i,) + w[position + 1:]
    zero = w[:position] + w[position + 1:]
    make = lambda word: ColoredBraidWord(b.strands, b.colors, word)
    return make(plus), make(minus), make(zero)
