"""Pipeline A: braid evaluation by quantum traces of braiding operators.

The closed-up invariant of a colored braid word g_r ... g_1 is

    w  =  qtr( S(g_r) o ... o S(g_1) ),

where S(g) places the braiding (or its inverse) at the generator's slot with
the colors currently occupying it, and qtr is the mu-weighted trace.

Every S(g) preserves the total twice-weight M of a weight key, so with chi_M
the plain trace of the braid operator B on the sector M, qtr(B) is
sum_M chi_M t^(4M).  B commutes with U_q(sl2), so each sector M carries the
multiplicity spaces of the channels c >= |M|/2 alike and chi_M = chi_(-M)
(the weight-space reading of the quantum trace, Kirby-Melvin, Invent. Math.
105, 1991).  Hence

    w  =  chi_0 + sum_(M > 0) chi_M (t^(4M) + t^(-4M)),

and only the rows of total twice-weight M >= 0 are ever built.  The trace is
also bilinear: with k = r // 2 and the half-word folds L = S(g_k) ... S(g_1)
and R = S(g_r) ... S(g_(k+1)), each started from the identity,

    chi_M  =  sum over keys x with sum(x) = M of  sum_y R[x][y] L[y][x],

one join of two dicts in place of a product of the two halves.  A fold stays
sparse for its first letters, so the two half-depth folds hold fewer entries
than one full fold.

Framing enters through the per-component self-writhe n_i: each positive
self-crossing contributes ribbon_scalar^(-1), so

    framed_invariant  =  prod_i ribbon_scalar(color_i)^(n_i) * w

is invariant under all Markov moves (conjugation changes nothing, a
stabilisation multiplies w by ribbon_scalar^(-+1) and shifts n_i by +-1).
"""

from __future__ import annotations

from typing import Sequence

from .braid import ColoredBraidWord, closure_components, writhe_per_component
from .laurent import ONE, ZERO, LaurentScalar
# evaluate_rt does not call quantum_trace; the name stays importable here
# because bench/tracer.py patches rt_engine.quantum_trace
from .uqsl2 import (  # noqa: F401
    Spin,
    TensorOperator,
    braiding,
    quantum_trace,
    ribbon_scalar,
    weight_keys,
)


def strip_operator(
    b: ColoredBraidWord,
    position: int,
    colors: Sequence[Spin] | None = None,
    nonnegative: bool = False,
) -> TensorOperator:
    """The operator of the single generator word[position]: identity on all
    slots except the braiding of the two colors currently at the generator's
    slot.  Columns are indexed by the incoming color tuple, rows by the
    outgoing (swapped) tuple.

    The entries are the cached braiding's own scalars, placed into
    id (x) Rhat (x) id with no product.  colors are the colors at each
    position just before word[position] acts; a fold that walks the word
    passes them, and otherwise they are read off the word.  With
    nonnegative=True only the rows of total twice-weight >= 0 are built;
    the strip preserves total weight, so they map those sectors to
    themselves.
    """
    if not 0 <= position < len(b.word):
        raise ValueError(f"position {position} out of range for word of length {len(b.word)}")
    if colors is None:
        colors = list(b.colors)
        for g in b.word[:position]:
            i = abs(g) - 1
            colors[i], colors[i + 1] = colors[i + 1], colors[i]
    g = b.word[position]
    i = abs(g) - 1
    left, right = tuple(colors[:i]), tuple(colors[i + 2:])
    rhat = braiding(colors[i], colors[i + 1], 1 if g > 0 else -1)
    middle = [(r, sum(r), row) for r, row in rhat.rows.items()]
    op = TensorOperator(left + rhat.row_spins + right, left + rhat.col_spins + right)
    for lk in weight_keys(left):
        for rk in weight_keys(right):
            outer = sum(lk) + sum(rk)
            for r, weight, row in middle:
                if not nonnegative or outer + weight >= 0:
                    op.rows[lk + r + rk] = {lk + c + rk: v for c, v in row.items()}
    return op


def _half_fold(b: ColoredBraidWord, start: int, stop: int, colors: list[Spin]) -> TensorOperator:
    """S(word[stop-1]) o ... o S(word[start]) on the sectors of total
    twice-weight >= 0; the identity there when start == stop.  colors, those
    before word[start], are walked in place to those after word[stop-1]."""
    op = None
    for position in range(start, stop):
        strip = strip_operator(b, position, colors, nonnegative=True)
        op = strip if op is None else strip.compose(op)
        i = abs(b.word[position]) - 1
        colors[i], colors[i + 1] = colors[i + 1], colors[i]
    if op is None:
        op = TensorOperator(colors, colors)
        for key in weight_keys(colors):
            if sum(key) >= 0:
                op.rows[key] = {key: ONE}
    return op


def evaluate_rt(b: ColoredBraidWord) -> LaurentScalar:
    """The closed-braid invariant w as a Laurent polynomial: the sector
    traces chi_M, M >= 0, joined from the two half-word folds and closed by
    chi_M = chi_(-M).

    The empty word on colors (j_1 ... j_n) gives prod qdim(j_k).
    """
    closure_components(b)  # raises ColorMismatch for inconsistent colorings
    colors = list(b.colors)
    k = len(b.word) // 2
    left = _half_fold(b, 0, k, colors).rows
    right = _half_fold(b, k, len(b.word), colors).rows
    chi: dict[int, LaurentScalar] = {}
    for x, row in right.items():
        for y, v in row.items():
            u = left[y].get(x)
            if u is not None:
                weight = sum(x)
                cur = chi.get(weight)
                chi[weight] = v * u if cur is None else cur + v * u
    w = ZERO
    for weight, trace in chi.items():
        if weight:
            trace = trace * LaurentScalar({4 * weight: 1, -4 * weight: 1})
        w = w + trace
    return w


def framing_correction(b: ColoredBraidWord) -> LaurentScalar:
    """The unit monomial prod_i ribbon_scalar(color_i)^(n_i) over the closure
    components; multiplying w by it removes the framing dependence."""
    out = LaurentScalar.one()
    for (_, color), n_i in zip(closure_components(b), writhe_per_component(b)):
        out = out * ribbon_scalar(color) ** n_i
    return out


def framed_invariant(b: ColoredBraidWord) -> LaurentScalar:
    """The Markov-invariant value: self-writhe correction applied to w."""
    return framing_correction(b) * evaluate_rt(b)


def two_cabling(
    b: ColoredBraidWord,
    component: int | None = None,
    color_a: Spin | None = None,
    color_b: Spin | None = None,
) -> ColoredBraidWord:
    """Replace the chosen knot component by two blackboard-framed parallel
    strands colored (color_a, color_b); other components are untouched.

    component=None requires the closure to be a knot and cables it.  Each
    original crossing becomes the block of elementary crossings moving one
    strand group past the other; no twist factors are inserted (the framing
    stays the blackboard framing carried by the writhe).
    """
    components = closure_components(b)
    if component is None:
        if len(components) != 1:
            raise ValueError(
                f"closure has {len(components)} components; select a single knot component")
        component = 0
    if not 0 <= component < len(components):
        raise ValueError(f"no component {component}")
    selected = components[component][0]
    if color_a is None or color_b is None:
        raise ValueError("both cable colors are required")

    widths = [2 if k in selected else 1 for k in range(b.strands)]
    colors: list[Spin] = []
    for k in range(b.strands):
        colors.extend((color_a, color_b) if k in selected else (b.colors[k],))

    word: list[int] = []
    cur = list(widths)
    for g in b.word:
        i = abs(g) - 1
        base = 1 + sum(cur[:i])  # leftmost cabled position of the left group
        u, v = cur[i], cur[i + 1]
        block = [base + u + s - 2 - t for s in range(1, v + 1) for t in range(u)]
        if g > 0:
            word.extend(block)
        else:
            word.extend(-x for x in reversed(block))
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    return ColoredBraidWord(sum(widths), colors, word)


def split_union(left: ColoredBraidWord, right: ColoredBraidWord) -> ColoredBraidWord:
    """Block-diagonal juxtaposition: a distant split union of the closures."""
    shift = left.strands
    word = left.word + tuple(g + shift if g > 0 else g - shift for g in right.word)
    return ColoredBraidWord(shift + right.strands, left.colors + right.colors, word)
