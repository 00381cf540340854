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

A letter is never multiplied out.  The positive braiding is
Rhat = P o q^(H(x)H/2) o Theta with Theta = sum_n c_n E^n (x) F^n, and the
negative one Theta^-1 o q^(-H(x)H/2) o P: a permutation, a unit monomial on
each weight key and a unipotent rest (the terms n >= 1).  So the n = 0
source of output row r is the swap (r[1], r[0]), with the entry t^d.  A fold
row is stored as (shift, entries), meaning t^shift * entries, and a letter
moves it to its swapped key with shift + d.  A row the rest does not reach
keeps its source's entries dict, shared and not copied; only the rows the
rest reaches build a new dict, and the closing join applies the shifts once
per weight and total shift.
"""

from __future__ import annotations

from functools import lru_cache

from .braid import ColoredBraidWord, cabling, closure_components, framing_correction
from .braid import split_union  # noqa: F401  (importable here for tests/test_acceptance.py)
from .laurent import ONE, ZERO, LaurentScalar
# evaluate_rt does not call quantum_trace; the name stays importable here
# because bench/tracer.py patches rt_engine.quantum_trace
from .uqsl2 import (  # noqa: F401
    Spin,
    TensorOperator,
    WeightKey,
    braiding,
    quantum_trace,
    weight_keys,
)


def strip_operator(b: ColoredBraidWord, position: int) -> TensorOperator:
    """The operator of the single generator word[position]: identity on all
    slots except the braiding of the two colors currently at the generator's
    slot.  Columns are indexed by the incoming color tuple, rows by the
    outgoing (swapped) tuple.

    It is the Kronecker product id (x) Rhat (x) id of the cached braiding
    with the identities on the slots to its left and right; the colors are
    read off the word.  This is the reference strip for the tests and the
    acceptance gate; evaluate_rt does not build it, since its folds apply
    each letter as a swap, a row factor and the unipotent rest.
    """
    if not 0 <= position < len(b.word):
        raise ValueError(f"position {position} out of range for word of length {len(b.word)}")
    colors = list(b.colors)
    for g in b.word[:position]:
        i = abs(g) - 1
        colors[i], colors[i + 1] = colors[i + 1], colors[i]
    g = b.word[position]
    i = abs(g) - 1
    rhat = braiding(colors[i], colors[i + 1], 1 if g > 0 else -1)
    return (TensorOperator.identity(colors[:i]).tensor(rhat)
            .tensor(TensorOperator.identity(colors[i + 2:])))


@lru_cache(maxsize=None)
def _letter(a: Spin, b: Spin, sign: int) -> dict[WeightKey, tuple[WeightKey, int, tuple]]:
    """The braiding Rhat^(sign): V_a (x) V_b -> V_b (x) V_a read as a swap,
    a unit monomial and the unipotent rest, keyed by the n = 0 source.

    Output row r of braiding(a, b, sign) takes its n = 0 term from the
    swapped column c0 = (r[1], r[0]), and that entry is the unit monomial
    t^d, d = 2 sign r[0] r[1], for both signs (h is read on the output
    weights for +1 and on the input weights for -1; at n = 0 they agree).
    The table maps c0 to (r, d, rest), where rest holds the other columns c
    of row r with their entries divided by t^d.
    """
    table = {}
    for r, row in braiding(a, b, sign).rows.items():
        c0 = (r[1], r[0])
        d = row[c0].min_exponent()
        table[c0] = (r, d, tuple((c, v.shift(-d)) for c, v in row.items() if c != c0))
    return table


Row = tuple[int, dict[WeightKey, LaurentScalar]]


def _half_fold(
    b: ColoredBraidWord, start: int, stop: int, colors: list[Spin]
) -> dict[WeightKey, Row]:
    """The rows of S(word[stop-1]) o ... o S(word[start]) of total
    twice-weight >= 0 as (shift, entries), meaning t^shift * entries; the
    identity there when start == stop.  colors, those before word[start],
    are walked in place to those after word[stop-1].

    A letter moves each row to its swapped key and adds d to its shift.  A
    row whose letter has no rest keeps its source's entries dict, shared;
    only the rows the rest reaches build a new one.
    """
    rows: dict[WeightKey, Row] = {
        key: (0, {key: ONE}) for key in weight_keys(colors) if sum(key) >= 0}
    for g in b.word[start:stop]:
        i = abs(g) - 1
        j = i + 2
        table = _letter(colors[i], colors[i + 1], 1 if g > 0 else -1)
        folded: dict[WeightKey, Row] = {}
        for y, (s0, entries) in rows.items():
            r, d, rest = table[y[i:j]]
            if rest:
                acc = dict(entries)
                for c, ratio in rest:
                    sx, source = rows[y[:i] + c + y[j:]]
                    factor = ratio.shift(sx - s0)
                    for col, v in source.items():
                        # many entries are still the identity's shared ONE: no product
                        p = factor if v is ONE else factor * v
                        cur = acc.get(col)
                        acc[col] = p if cur is None else cur + p
                entries = {col: v for col, v in acc.items() if v}
            folded[y[:i] + r + y[j:]] = (s0 + d, entries)
        rows = folded
        colors[i], colors[i + 1] = colors[i + 1], colors[i]
    return rows


def evaluate_rt(b: ColoredBraidWord) -> LaurentScalar:
    """The closed-braid invariant w as a Laurent polynomial: the sector
    traces chi_M, M >= 0, joined from the two half-word folds and closed by
    chi_M = chi_(-M).

    The empty word on colors (j_1 ... j_n) gives prod qdim(j_k).
    """
    closure_components(b)  # raises ColorMismatch for inconsistent colorings
    colors = list(b.colors)
    k = len(b.word) // 2
    left = _half_fold(b, 0, k, colors)
    right = _half_fold(b, k, len(b.word), colors)
    # the products of one weight M and one total shift share that shift
    groups: dict[tuple[int, int], LaurentScalar] = {}
    for x, (shift, row) in right.items():
        weight = sum(x)
        for y, v in row.items():
            left_shift, left_row = left[y]
            u = left_row.get(x)
            if u is not None:
                key = (weight, shift + left_shift)
                cur = groups.get(key)
                groups[key] = v * u if cur is None else cur + v * u
    w = ZERO
    for (weight, shift), trace in groups.items():
        if weight:
            w = w + trace.shift(shift + 4 * weight) + trace.shift(shift - 4 * weight)
        else:
            w = w + trace.shift(shift)
    return w


def framed_invariant(b: ColoredBraidWord) -> LaurentScalar:
    """The Markov-invariant value: self-writhe correction applied to w."""
    return framing_correction(b) * evaluate_rt(b)


def two_cabling(
    b: ColoredBraidWord, component: int | None, color_a: Spin, color_b: Spin
) -> ColoredBraidWord:
    """cabling(b, component, (color_a, color_b)), under the name the
    acceptance gate uses."""
    return cabling(b, component, (color_a, color_b))
