"""Seeded braid workloads for the benchmark.

The generator is pure standard library and emits spec strings only, so the
program under test sees nothing but generated ``braidrt invariant`` inputs,
and no change to the program can change them.
Colors are assigned per closure component (the cycles of the closure
permutation), so every coloring is valid without rejection sampling.

The shape of the i-th braid (strand count, word length and, on ``colored``,
the spin of each closure component) is fixed by i; only its letters depend
on the seed.  Every run therefore holds the same mix of braids, and so does
its set-up prefix, so run-to-run spread measures the program more than the
seed.

``colored`` stops at spin 3/2.  A spin-2 knot costs from 20 ms to 3.7 s of
warm shadow time depending on its word (coefficient of variation 0.78 over
72 knots of 6-8 letters), and about 7 s of cache fill; with them, per-run
throughput and latency moved by 30-60 % from seed to seed at every pool size
a run can afford.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

PIPELINES = ("rt", "shadow", "skein")

#: Warm braids per run, so that ten latencies lie beyond the 90th percentile.
MIN_WARM_BRAIDS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    #: Braids generated per run, whole periods of the shape cycle.  A run
    #: cold-passes all of them once, then replays them warm.
    pool: int
    #: Leading braids of the timed set-up pass (setup_s).
    setup: int
    make: Callable[[random.Random, int], Iterator[str]]


def closure_cycles(strands: int, word: list[int]) -> list[list[int]]:
    """Strand positions grouped by closure component, smallest first.

    Mirrors ``ColoredBraidWord.permutation`` and ``closure_components``:
    the strand leaving top position k re-enters at bottom position k.
    """
    pos = list(range(strands))
    for g in word:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    perm = [0] * strands
    for p, strand in enumerate(pos):
        perm[strand] = p
    seen = [False] * strands
    cycles = []
    for start in range(strands):
        if seen[start]:
            continue
        cycle, k = [], start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        cycles.append(cycle)
    return cycles


def spec_string(strands: int, colors: list[str], word: list[int]) -> str:
    """The ``n=..; colors=..; word=..`` grammar of ``braidrt invariant``."""
    return (f"n={strands}; colors={','.join(colors)}; "
            f"word={' '.join(f'{g:+d}' for g in word)}")


def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A freely reduced word: no letter is followed by its inverse, so every
    letter is a crossing that stays."""
    generators = [g for i in range(1, strands) for g in (i, -i)]
    word: list[int] = []
    while len(word) < length:
        g = rng.choice(generators)
        if not word or g != -word[-1]:
            word.append(g)
    return word


def _fundamental(strands_lo: int, strands_n: int, length_lo: int, length_n: int):
    """All strands spin 1/2; (strands, length) walks the whole grid once per
    strands_n * length_n braids (the two periods are coprime)."""

    def make(rng: random.Random, count: int) -> Iterator[str]:
        for i in range(count):
            strands = strands_lo + i % strands_n
            length = length_lo + i % length_n
            yield spec_string(strands, ["1/2"] * strands, random_word(rng, strands, length))

    return make


#: One period of colored: word length and the spin of each closure
#: component, the larger component first.  Each spin colors a knot of 6 and
#: a knot of 8 letters, and the larger and the smaller component of a link;
#: the first three braids (the set-up braids) are knots of every spin.
_COLORED_CYCLE = (
    (6, ("3/2",)), (8, ("1",)), (6, ("1/2",)),
    (7, ("1", "3/2")), (8, ("3/2",)), (6, ("1",)),
    (7, ("3/2", "1/2")), (8, ("1/2",)), (7, ("1/2", "1")),
)
_LETTERS = {1, -1, 2, -2}


def _colored(rng: random.Random, count: int) -> Iterator[str]:
    """3 strands, 6-8 letters, shapes and spins from _COLORED_CYCLE.  Words
    are redrawn until they close to the cycle's number of components and
    hold every crossing (each generator with each sign).  Cache fill follows
    the crossings a word holds, so with every crossing in every word the cold
    cost of a braid is set by its colors more than by its letters: 1.39-1.56 s
    for six 6-letter spin-3/2 knots, against 0.75-1.56 s without the rule."""
    for i in range(count):
        length, spins = _COLORED_CYCLE[i % len(_COLORED_CYCLE)]
        word = random_word(rng, 3, length)
        cycles = closure_cycles(3, word)
        while len(cycles) != len(spins) or set(word) != _LETTERS:
            word = random_word(rng, 3, length)
            cycles = closure_cycles(3, word)
        colors = [""] * 3
        for cycle, spin in zip(sorted(cycles, key=len, reverse=True), spins):
            for k in cycle:
                colors[k] = spin
        yield spec_string(3, colors, word)


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Pools are whole periods of the shape cycles (20 and 9 braids).
        Workload("fund", 160, 20, _fundamental(3, 4, 8, 5)),
        Workload("colored", 243, 3, _colored),
    )
}


def generate(workload: Workload, seed: int) -> list[str]:
    """The workload's braid specs for this seed; the same seed always gives
    the same list."""
    return list(workload.make(random.Random(f"{workload.name}:{seed}"), workload.pool))


def pipelines_for(spec: str) -> tuple[str, ...]:
    """Every pipeline that applies to a spec: skein evaluates spin 1/2 only."""
    colors = spec.split("colors=", 1)[1].split(";", 1)[0].split(",")
    return PIPELINES if all(c.strip() == "1/2" for c in colors) else PIPELINES[:2]
