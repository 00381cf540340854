"""Independent Jones-polynomial oracle by Kauffman bracket state expansion.

This module shares no evaluation machinery with the braiding pipelines: it
only touches LinkDiagram combinatorics and the Laurent ring.  The bracket is
the naive 2^(#crossings) state sum

    <D>  =  sum over smoothings  A^(#A - #B) * delta^(#loops),
    delta = -A^2 - A^(-2),

with the empty diagram worth 1 and a crossing-free circle worth delta.  The
bracket variable is embedded into the t = q^(1/4) lattice as a fixed monomial
A = q^(A_EXPONENT/4).

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

_A2 = LaurentScalar.monomial(1, 2 * A_EXPONENT)
_LOOP = LaurentScalar.monomial(-1, 2 * A_EXPONENT) + LaurentScalar.monomial(-1, -2 * A_EXPONENT)


def _require_fundamental(d: LinkDiagram) -> None:
    colors = [c for _, c in d.components] + list(d.free_loops)
    if any(c != SPIN_HALF for c in colors):
        raise ValueError("the skein oracle only evaluates fundamental (spin-1/2) colorings")


def kauffman_bracket(d: LinkDiagram) -> LaurentScalar:
    """Full state expansion of the bracket; exact in Z[t, t^-1]."""
    _require_fundamental(d)
    crossings = d.crossings
    if not crossings:
        return _LOOP ** (len(d.free_loops))
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
        total = total + weight * _LOOP ** loops
    return total


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
    b: ColoredBraidWord, position: int, insert_index: int | None = None
) -> tuple[ColoredBraidWord, ColoredBraidWord, ColoredBraidWord]:
    """The braids (L+, L-, L0) differing at one crossing site.

    With insert_index=None, position addresses an existing letter, which is
    replaced by its positive form, its negative form, and deleted.  With
    insert_index=i, a new sigma_i^(+1) / sigma_i^(-1) / nothing is inserted
    at position (valid for 0 <= position <= len(word)).
    """
    w = b.word
    if insert_index is None:
        if not 0 <= position < len(w):
            raise ValueError(f"position {position} addresses no generator occurrence")
        i = abs(w[position])
        plus = w[:position] + (i,) + w[position + 1:]
        minus = w[:position] + (-i,) + w[position + 1:]
        zero = w[:position] + w[position + 1:]
    else:
        if not 0 <= position <= len(w):
            raise ValueError(f"insertion position {position} out of range")
        if not 1 <= insert_index < b.strands:
            raise ValueError(f"generator index {insert_index} out of range")
        plus = w[:position] + (insert_index,) + w[position:]
        minus = w[:position] + (-insert_index,) + w[position:]
        zero = w
    make = lambda word: ColoredBraidWord(b.strands, b.colors, word)
    return make(plus), make(minus), make(zero)
