"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from braidrt.braid import ColoredBraidWord, closure_components
from braidrt.uqsl2 import SPIN_HALF, Spin


@st.composite
def colored_braids(draw, max_strands: int, max_length: int, max_twice_j: int,
                   min_twice_j: int = 0, min_strands: int = 1, min_length: int = 0):
    """A braid word on min_strands..max_strands strands with one spin (twice_j
    in min_twice_j..max_twice_j) drawn per closure component, so its coloring
    is always consistent.  min_length applies when there are two strands or
    more."""
    n = draw(st.integers(min_strands, max_strands))
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    word = draw(st.lists(st.sampled_from(gens), min_size=min_length,
                         max_size=max_length)) if gens else []
    colors = [SPIN_HALF] * n
    for strands, _ in closure_components(ColoredBraidWord(n, colors, word)):
        spin = Spin(draw(st.integers(min_twice_j, max_twice_j)))
        for k in strands:
            colors[k] = spin
    return ColoredBraidWord(n, colors, word)


@st.composite
def knot_words(draw, max_strands: int, max_length: int):
    """(n, word) on 2..max_strands strands whose closure is a knot."""
    n = draw(st.integers(2, max_strands))
    gens = [s * i for i in range(1, n) for s in (1, -1)]
    word = draw(st.lists(st.sampled_from(gens), max_size=max_length).filter(
        lambda w: len(closure_components(ColoredBraidWord(n, (Spin(1),) * n, w))) == 1))
    return n, tuple(word)
