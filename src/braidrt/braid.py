"""Colored braid words, their closures, and planar-diagram conversion.

A braid on n strands is a word in the signed Artin generators +-1 ... +-(n-1).
The positive generator sigma_i crosses the strand at position i+1 OVER the
strand at position i (one global convention, validated downstream by the
skein and Jones cross-checks: flipping it mirrors every invariant).

Links are presented as trace closures: the strand ending at top position k is
joined to bottom position k.  closure_record walks the closure once for its
components with their colors and self-writhes (crossings between distinct
components are linking, not framing); the framing correction reads it.  The
braid-word rewrites that every pipeline and oracle may use (cabling, the split
union, and the Markov moves conjugate, stabilise and destabilise) live here
too, with reduce_closure, which shortens a word before the command line evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

from .laurent import ONE, LaurentScalar
from .uqsl2 import Spin, qdim, ribbon_scalar


class ColorMismatch(ValueError):
    """The braid closure forces two different colors onto one component."""


@dataclass(frozen=True)
class ColoredBraidWord:
    strands: int
    colors: tuple[Spin, ...]
    word: tuple[int, ...]

    def __init__(self, strands: int, colors: Iterable[Spin], word: Iterable[int] = ()):
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "colors", tuple(colors))
        object.__setattr__(self, "word", tuple(word))
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        if len(self.colors) != strands:
            raise ValueError(f"expected {strands} colors, got {len(self.colors)}")
        for g in self.word:
            if g == 0 or abs(g) >= strands:
                raise ValueError(f"generator {g} out of range for {strands} strands")

    def permutation(self) -> tuple[int, ...]:
        """perm[k] = top position reached by the strand starting at bottom
        position k (0-based)."""
        pos = list(range(self.strands))  # pos[p] = strand currently at position p
        for g in self.word:
            i = abs(g) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        perm = [0] * self.strands
        for p, strand in enumerate(pos):
            perm[strand] = p
        return tuple(perm)

    def sign_sum(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.word)

    def to_spec_string(self) -> str:
        colors = ",".join(str(c) for c in self.colors)
        word = " ".join(f"{g:+d}" for g in self.word)
        return f"n={self.strands}; colors={colors}; word={word}"


def closure_components(b: ColoredBraidWord) -> tuple[tuple[frozenset[int], Spin], ...]:
    """closure_record(b) without the writhes: the cycles of the closure permutation
    with their (consistent) colors, by smallest strand; raises ColorMismatch otherwise."""
    perm = b.permutation()
    seen = [False] * b.strands
    components = []
    for start in range(b.strands):
        if seen[start]:
            continue
        cycle, k, color = [], start, b.colors[start]
        while not seen[k]:
            if b.colors[k] != color:
                raise ColorMismatch(
                    f"strands {start} and {k} lie on one component but carry "
                    f"colors {color} and {b.colors[k]}")
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        components.append((frozenset(cycle), color))
    return tuple(components)


def closure_record(b: ColoredBraidWord) -> tuple[tuple[frozenset[int], Spin, int], ...]:
    """The closure as one record: each component of closure_components(b) as
    (strands, color, n_i), n_i the sign sum of its self-crossings."""
    components = closure_components(b)
    at = [0] * b.strands  # at[p] = index of the component at position p
    for idx, (strands, _) in enumerate(components):
        for k in strands:
            at[k] = idx
    writhes = [0] * len(components)
    for g in b.word:
        i = abs(g) - 1
        if at[i] == at[i + 1]:
            writhes[at[i]] += 1 if g > 0 else -1
        at[i], at[i + 1] = at[i + 1], at[i]
    return tuple((strands, color, n_i) for (strands, color), n_i in zip(components, writhes))


def writhe_per_component(b: ColoredBraidWord) -> tuple[int, ...]:
    """Self-crossing sign sums n_i, in the order of closure_components."""
    return tuple(n_i for _, _, n_i in closure_record(b))


def framing_correction(record: Iterable[tuple[frozenset[int], Spin, int]]) -> LaurentScalar:
    """The unit monomial prod_i ribbon_scalar(color_i)^(n_i) over the components
    of a closure record, n_i their self-writhes.  Each positive self-crossing
    gives the closed-braid value w a factor ribbon_scalar^(-1), so the product
    with w is invariant under all Markov moves: conjugation changes nothing, and
    a stabilisation multiplies w by ribbon_scalar^(-+1) and shifts n_i by +-1."""
    return prod((ribbon_scalar(color) ** n_i for _, color, n_i in record), start=ONE)


def cabling(
    b: ColoredBraidWord, component: int | None, colors: Sequence[Spin]
) -> ColoredBraidWord:
    """Replace the chosen closure component by len(colors) blackboard-framed
    parallel strands colored colors, left to right; other components are
    untouched.

    component=None requires the closure to be a knot and cables it.  Each
    original crossing becomes the block of elementary crossings moving one
    strand group past the other; a negative crossing takes the inverse of the
    positive block that moves the groups back, so groups of unequal widths
    keep their strands.  No twist factors are inserted (the framing stays
    the blackboard framing carried by the writhe).
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

    widths = [len(colors) if k in selected else 1 for k in range(b.strands)]
    cabled: list[Spin] = []
    for k in range(b.strands):
        cabled.extend(colors if k in selected else (b.colors[k],))

    word: list[int] = []
    cur = list(widths)
    for g in b.word:
        i = abs(g) - 1
        base = 1 + sum(cur[:i])  # leftmost cabled position of the left group
        u, v = cur[i], cur[i + 1]
        if g > 0:
            word.extend(base + u + s - 2 - t for s in range(1, v + 1) for t in range(u))
        else:  # invert the positive block that moves the v-group back past the u-group
            back = [base + v + s - 2 - t for s in range(1, u + 1) for t in range(v)]
            word.extend(-x for x in reversed(back))
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    return ColoredBraidWord(sum(widths), cabled, word)


def split_union(left: ColoredBraidWord, right: ColoredBraidWord) -> ColoredBraidWord:
    """Block-diagonal juxtaposition: a distant split union of the closures."""
    shift = left.strands
    word = left.word + tuple(g + shift if g > 0 else g - shift for g in right.word)
    return ColoredBraidWord(shift + right.strands, left.colors + right.colors, word)


# ---------------------------------------------------------------------------
# Markov moves
# ---------------------------------------------------------------------------


def conjugate(b: ColoredBraidWord, g: int) -> ColoredBraidWord:
    """Markov I: the word g^-1 b g.  Strand labels pass through the new bottom
    crossing, so the color tuple is conjugated by the same transposition."""
    colors = list(b.colors)
    i = abs(g) - 1
    colors[i], colors[i + 1] = colors[i + 1], colors[i]
    return ColoredBraidWord(b.strands, colors, (-g,) + b.word + (g,))


def stabilise(b: ColoredBraidWord, sign: int) -> ColoredBraidWord:
    """Markov II: append sigma_n^sign on n+1 strands; the new strand joins the
    component passing through top position n, and takes its color."""
    n = b.strands
    color = b.colors[b.permutation().index(n - 1)]
    return ColoredBraidWord(n + 1, b.colors + (color,), b.word + (sign * n,))


def destabilise(b: ColoredBraidWord, first: bool = False) -> ColoredBraidWord:
    """Markov II undone: sigma_(n-1) occurs exactly once; drop it and the
    last strand.  With first=True, sigma_1 occurs exactly once; drop it and
    strand 0, and every other letter moves down by one.

    No rotation is needed: A sigma B is conjugate to B A sigma, the
    stabilisation of B A, which is conjugate to A B.  The dropped letter
    was a kink of the dropped strand's color j, so with its sign s
    w(b) = ribbon_scalar(j)^(-s) w(destabilise(b)); for first=True the same
    holds mirrored by the half twist, which sends sigma_i to sigma_(n-i).
    """
    n = b.strands
    slot = 1 if first else n - 1
    if n < 2 or sum(abs(g) == slot for g in b.word) != 1:
        raise ValueError(f"sigma_{slot} does not occur exactly once")
    if first:
        return ColoredBraidWord(n - 1, b.colors[1:],
                                [g - 1 if g > 0 else g + 1 for g in b.word if abs(g) != 1])
    return ColoredBraidWord(n - 1, b.colors[:-1], [g for g in b.word if abs(g) != n - 1])


def markov_moves(b: ColoredBraidWord) -> list[ColoredBraidWord]:
    """Neighbours of b under braid relations, far commutation, free
    cancellation, conjugation, stabilisation and (single-occurrence)
    destabilisation.  All returned braids have isotopic framed closures up to
    the framing change of the stabilisation moves."""
    out: list[ColoredBraidWord] = []
    w, n = b.word, b.strands

    def with_word(word: Sequence[int]) -> ColoredBraidWord:
        return ColoredBraidWord(n, b.colors, word)

    # braid relation sigma_i sigma_(i+1) sigma_i = sigma_(i+1) sigma_i sigma_(i+1)
    for k in range(len(w) - 2):
        x, y, z = w[k], w[k + 1], w[k + 2]
        if x == z and (x > 0) == (y > 0) and abs(abs(x) - abs(y)) == 1:
            out.append(with_word(w[:k] + (y, x, y) + w[k + 3:]))
    # far commutation
    for k in range(len(w) - 1):
        if abs(abs(w[k]) - abs(w[k + 1])) >= 2:
            out.append(with_word(w[:k] + (w[k + 1], w[k]) + w[k + 2:]))
    # free cancellation
    for k in range(len(w) - 1):
        if w[k] == -w[k + 1]:
            out.append(with_word(w[:k] + w[k + 2:]))
    out.extend(conjugate(b, s) for i in range(1, n) for s in (i, -i))
    out.extend(stabilise(b, sign) for sign in (1, -1))
    if n >= 2 and sum(abs(g) == n - 1 for g in w) == 1:
        out.append(destabilise(b))
    return out


# ---------------------------------------------------------------------------
# Closure reduction
# ---------------------------------------------------------------------------


def _cancel(b: ColoredBraidWord) -> ColoredBraidWord:
    """b with every inverse pair cancelled, across commuting letters and
    around the closure; the closure's colors stay as they are.

    One pass cancels each letter g against a later -g whenever every letter
    between them commutes with g, nested pairs included.  live[i] holds the
    indices of the uncancelled letters of generator i, so a letter's
    partner is the last one of its own generator, and the last ones of the
    two neighbouring generators say whether a letter between them blocks
    it.  A letter that blocks another is never cancelled later, so the
    first letter of generator i commutes with every letter before it when
    the neighbours' first letters come after it, and likewise at the back.
    Such an x in front and -x at the back make the word x W x^-1, conjugate
    to W with the colors at slot i swapped, as in conjugate; then another
    pass runs.
    """
    n, word, colors = b.strands, b.word, list(b.colors)
    while True:
        out: list[int] = []
        live: list[list[int]] = [[] for _ in range(n + 1)]
        for g in word:
            a = abs(g)
            mine, below, above = live[a], live[a - 1], live[a + 1]
            if (mine and out[mine[-1]] == -g and not (below and below[-1] > mine[-1])
                    and not (above and above[-1] > mine[-1])):
                out[mine.pop()] = 0
            else:
                mine.append(len(out))
                out.append(g)
        cyclic = False
        for a in range(1, n):
            mine, below, above = live[a], live[a - 1], live[a + 1]
            if mine and out[mine[0]] == -out[mine[-1]]:
                first, last = mine[0], mine[-1]
                if (not (below and (below[0] < first or below[-1] > last))
                        and not (above and (above[0] < first or above[-1] > last))):
                    out[first] = out[last] = 0
                    colors[a - 1], colors[a] = colors[a], colors[a - 1]
                    cyclic = True
        word = [g for g in out if g]
        if not cyclic:
            break
    return b if len(word) == len(b.word) else ColoredBraidWord(n, colors, word)


def reduce_closure(b: ColoredBraidWord) -> tuple[LaurentScalar, list[ColoredBraidWord]]:
    """(factor, pieces) with w(b) = factor * prod w(piece), by four exact
    moves repeated until none applies:

    - cancel inverse pairs across commuting letters and around the closure
      (_cancel), which leaves the colors of the closure as they are;
    - split where a generator i never occurs: the closure is the split
      union of strands 1..i and i+1..n;
    - destabilise a single sigma_(n-1) or sigma_1 with its strand, for a
      ribbon monomial in the factor;
    - fold a one-strand braid, an unknot of color j, into the factor as qdim(j).

    No move adds a letter or a strand, or changes a per-component writhe of
    the closure.  Every piece has letters and reduces to itself with the factor one.
    """
    factor = LaurentScalar.one()
    pieces: list[ColoredBraidWord] = []
    # Each braid on the stack is cancelled: the blocks of a split are
    # already, as no letter of one block blocks a letter of another.
    todo = [_cancel(b)]
    while todo:
        b = todo.pop()
        n, word = b.strands, b.word
        count = [0] * (n + 1)
        for g in word:
            count[abs(g)] += 1
        cuts = [i for i in range(1, n) if not count[i]]
        if n == 1:
            factor = factor * qdim(b.colors[0])
        elif cuts:
            bounds = [0, *cuts, n]
            for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
                todo.append(ColoredBraidWord(
                    hi - lo, b.colors[lo:hi],
                    [g - lo if g > 0 else g + lo for g in word if lo < abs(g) < hi]))
        elif count[n - 1] == 1:
            factor = factor * ribbon_scalar(b.colors[-1]) ** (-1 if n - 1 in word else 1)
            todo.append(_cancel(destabilise(b)))
        elif count[1] == 1:
            factor = factor * ribbon_scalar(b.colors[0]) ** (-1 if 1 in word else 1)
            todo.append(_cancel(destabilise(b, first=True)))
        else:
            pieces.append(b)
    return factor, pieces


# ---------------------------------------------------------------------------
# Planar diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """Four edge identifiers counterclockwise from the incoming under-edge,
    plus the crossing sign."""

    slots: tuple[int, int, int, int]
    sign: int


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    #: per component: (frozenset of edge ids, color); crossing-free components
    #: have an empty edge set and count as standalone circles
    components: tuple[tuple[frozenset[int], Spin], ...]
    free_loops: tuple[Spin, ...] = field(default=())

    def validate(self) -> None:
        counts: dict[int, int] = {}
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise ValueError("crossing sign must be +-1")
            for e in c.slots:
                counts[e] = counts.get(e, 0) + 1
        for e, k in counts.items():
            if k != 2:
                raise ValueError(f"edge {e} appears {k} times in crossings, expected 2")
        edge_union = set()
        for edges, _ in self.components:
            edge_union |= edges
        if edge_union != set(counts):
            raise ValueError("component edge partition does not match crossing edges")

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


def braid_to_diagram(b: ColoredBraidWord) -> LinkDiagram:
    """Planar diagram of the trace closure.  Edge ids are assigned to maximal
    arcs between crossings while walking the word: bottom arc k has id k and
    each crossing gives its two outgoing arcs fresh ids.  The closure joins
    the top arc at position k to bottom arc k, so that top arc takes id k.
    Each arc inherits the closure component of its strand, so components
    and crossing-free strands (free loops) come from closure_components.

    For a positive generator the strand at position i+1 passes over, so the
    incoming under-edge is the bottom-left one; rotating counterclockwise
    from it reads bottom-left, bottom-right, top-right, top-left.  For a
    negative generator the under-edge enters bottom-right.
    """
    components = closure_components(b)  # raises ColorMismatch early
    n = b.strands
    current = list(range(n))
    component_of = [0] * n  # edge id -> index of its closure component
    for idx, (strands, _) in enumerate(components):
        for k in strands:
            component_of[k] = idx
    raw: list[tuple[tuple[int, int, int, int], int]] = []
    for g in b.word:
        i = abs(g) - 1
        e_left, e_right = current[i], current[i + 1]
        o_left, o_right = len(component_of), len(component_of) + 1
        component_of += (component_of[e_right], component_of[e_left])
        if g > 0:
            slots = (e_left, e_right, o_right, o_left)
        else:
            slots = (e_right, o_right, o_left, e_left)
        raw.append((slots, 1 if g > 0 else -1))
        current[i], current[i + 1] = o_left, o_right

    # trace closure: the top arc at position k (id k or a fresh id) is bottom arc k
    closed = {current[k]: k for k in range(n)}
    crossings = tuple(
        Crossing(tuple([closed.get(e, e) for e in slots]), sign) for slots, sign in raw)
    edges: list[set[int]] = [set() for _ in components]
    for c in crossings:
        for e in c.slots:
            edges[component_of[e]].add(e)
    return LinkDiagram(
        crossings,
        tuple((frozenset(es), color) for es, (_, color) in zip(edges, components) if es),
        tuple(color for es, (_, color) in zip(edges, components) if not es))
