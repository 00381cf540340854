"""Pipeline B: braid evaluation in the coupled (fusion-path) basis.

Instead of multiplying tensor operators, the braid is evaluated through
scalar recoupling coefficients.  A coupling path for external colors
(c_1 ... c_n) is an admissible chain

    gamma_0 --c_1--> gamma_1 --c_2--> ... --c_n--> gamma_n,

i.e. gamma_k in fusion_range(gamma_(k-1), c_k), kept as the bare chain tuple.
Expanding identity (x) A in the path bases and using that the mu-weighted
trace of phi_g psi_h is delta_(g,h) [d_(gamma_n)] gives the closed formula

    w  =  sum over paths g from gamma_0 = 0 of [d_(gamma_n(g))] * M[g, g],

where M is the matrix of the braid in the coupled basis.  Each elementary
crossing acts locally on one chain entry, so its matrix elements depend only
on the chain triple around it; they are the shadow coefficients below, each
read as one entry <e_2a| ... |e_2a> of the Clebsch-Gordan maps contracted
with the braiding, and cached.

Shadow coefficients are exact fractions (the cg2 normalisation psi o phi = id
forces quantum-integer denominators), but the state holds none: in the
fraction-free manner of Bareiss (Math. Comp. 22, 1968) every amplitude is a
Laurent numerator over one denominator D shared by the whole state.  A
crossing scales its coefficients to the lcm L of their denominators and sets
D <- D L, so amplitudes only multiply and add Laurent polynomials, and the
closed-trace total, a Laurent polynomial, is one exact division by D.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .braid import ColoredBraidWord, closure_components
from .laurent import ONE, ZERO, LaurentScalar, divide_exact, gcd
from .uqsl2 import (
    SPIN_ZERO,
    FractionScalar,
    Spin,
    braiding,
    cg_pair,
    fusion_range,
    qdim,
)

_ZERO_FRACTION = FractionScalar(ZERO)


class CouplingPath(tuple):
    """The chain (gamma_0, ..., gamma_n) of a coupling path.  It is not
    checked: admissible_paths and apply_crossing build only admissible
    chains."""

    __slots__ = ()

    @property
    def top(self) -> Spin:
        return self[-1]


def admissible_paths(
    colors: Iterable[Spin], gamma0: Spin = SPIN_ZERO
) -> Iterator[CouplingPath]:
    """All coupling paths over the colors starting at gamma0 (top end free)."""
    colors = tuple(colors)

    def extend(chain: tuple[Spin, ...], k: int) -> Iterator[tuple[Spin, ...]]:
        if k == len(colors):
            yield chain
            return
        for nxt in fusion_range(chain[-1], colors[k]):
            yield from extend(chain + (nxt,), k + 1)

    for chain in extend((gamma0,), 0):
        yield CouplingPath(chain)


@lru_cache(maxsize=None)
def shadow_coefficient(
    p: Spin, q_color: Spin, c: Spin, b: Spin, a: Spin, b_prime: Spin, sign: int = 1
) -> FractionScalar:
    """Matrix element of the braiding in the coupled basis.

    With p, q_color the two strand colors read left to right before the
    crossing, c the chain color below, a the chain color above, b / b_prime
    the intermediate chain colors before / after, this is the Schur scalar of

        psi(b',p -> a) (psi(c,q -> b') (x) 1) (1 (x) Rhat_pq^sign)
            (phi(b -> c,p) (x) 1) phi(a -> b,q),

    read as its one entry <e_2a| ... |e_2a>, summed over the operators' cached
    entries; fractions touch only the two psi factors.

    Inadmissible inputs give 0.  A trivial strand (p = 0) is transparent:
    the coefficient is 1 exactly when b = c and a = b_prime.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if (b not in fusion_range(c, p) or a not in fusion_range(b, q_color)
            or b_prime not in fusion_range(c, q_color)
            or a not in fusion_range(b_prime, p)):
        return _ZERO_FRACTION
    phi_bq = cg_pair(b, q_color, a)[0].rows        # V_a -> V_b V_q
    phi_cp = cg_pair(c, p, b)[0].rows              # V_b -> V_c V_p
    rhat = braiding(p, q_color, sign).rows         # V_p V_q -> V_q V_p
    psi_cq = cg_pair(c, q_color, b_prime)[1].rows  # V_c V_q -> V_b'
    psi_bp = cg_pair(b_prime, p, a)[1].rows        # V_b' V_p -> V_a
    top = (a.twice_j,)
    total = _ZERO_FRACTION
    for (m_bp, m_p), x in psi_bp[top].items():
        acc = _ZERO_FRACTION
        for (m_c, m_q), y in psi_cq[(m_bp,)].items():
            # the Laurent entry ((1 x Rhat)(phi_cp x 1) phi_bq)[(m_c, m_q, m_p), top]
            inner = ZERO
            for (m_p0, m_q0), r in rhat[(m_q, m_p)].items():
                for (m_b,), w in phi_cp.get((m_c, m_p0), {}).items():
                    inner = inner + r * w * phi_bq[(m_b, m_q0)][top]
            if not inner.is_zero():
                acc = acc + y * inner
        total = total + x * acc
    return total


@dataclass(frozen=True)
class ShadowState:
    """Amplitudes of the partially evaluated braid in the coupled basis:
    a map (outgoing path, incoming path) -> numerator, over one denominator
    shared by every amplitude.  Outgoing paths live on colors_out (tracking
    the strand permutation so far), incoming paths on the colors the state
    started from.  Only admissible pairs with equal endpoints carry
    amplitude; support is finite."""

    colors_out: tuple[Spin, ...]
    numerators: dict[tuple[CouplingPath, CouplingPath], LaurentScalar]
    denominator: LaurentScalar = ONE

    @property
    def amplitudes(self) -> Mapping[tuple[CouplingPath, CouplingPath], FractionScalar]:
        """The true amplitudes, as a read-only view that makes the fraction
        numerator / denominator only when a value is read."""
        return _Amplitudes(self.numerators, self.denominator)


class _Amplitudes(Mapping):
    __slots__ = ("_numerators", "_denominator")

    def __init__(self, numerators: dict, denominator: LaurentScalar):
        self._numerators, self._denominator = numerators, denominator

    def __getitem__(self, key) -> FractionScalar:
        return FractionScalar(self._numerators[key], self._denominator)

    def __iter__(self):
        return iter(self._numerators)

    def __len__(self) -> int:
        return len(self._numerators)


def initial_state(colors: Iterable[Spin], gamma0: Spin = SPIN_ZERO) -> ShadowState:
    """The identity state: amplitude 1 on (p, p) for every admissible path
    with chain[0] = gamma0.

    A closed-trace evaluation can never involve chain colors above the total
    color budget sum(colors); a gamma0 beyond it yields the empty state."""
    colors = tuple(colors)
    if gamma0.twice_j > sum(c.twice_j for c in colors):
        return ShadowState(colors, {})
    return ShadowState(colors, {(path, path): ONE for path in admissible_paths(colors, gamma0)})


@lru_cache(maxsize=None)
def _common_denominator(dens: frozenset[LaurentScalar]) -> tuple[LaurentScalar, dict]:
    """The lcm L of a set of canonical denominators, and L / den for each."""
    lcm = ONE
    for den in dens:
        lcm = lcm * divide_exact(den, gcd(lcm, den))
    return lcm, {den: divide_exact(lcm, den) for den in dens}


def apply_crossing(state: ShadowState, slot: int, sign: int) -> ShadowState:
    """Compose the state with one crossing of the strands at positions
    (slot, slot+1), 1-based, of the current outgoing colors.

    The nonzero (new_mid, coefficient) targets of each chain triple
    (below, mid, above) at the slot are looked up once per triple.  With L
    the lcm of the denominators of all those coefficients (cached on that
    set, so a warm crossing computes no gcd), each coefficient becomes the
    Laurent polynomial coefficient * L, the amplitude numerators are
    multiplied and summed with them, and the state denominator becomes D L."""
    n = len(state.colors_out)
    if not 1 <= slot <= n - 1:
        raise ValueError(f"slot {slot} out of range for {n} strands")
    colors = state.colors_out
    p, q_color = colors[slot - 1], colors[slot]
    new_colors = colors[:slot - 1] + (q_color, p) + colors[slot + 1:]
    targets: dict[tuple[Spin, ...], list[tuple[Spin, FractionScalar]]] = {}
    for out_path, _ in state.numerators:
        triple = out_path[slot - 1:slot + 2]
        if triple not in targets:
            below, mid, above = triple
            coeffs = ((new_mid, shadow_coefficient(p, q_color, below, mid, above, new_mid, sign))
                      for new_mid in fusion_range(below, q_color))
            targets[triple] = [(m, c) for m, c in coeffs if not c.is_zero()]
    lcm, scale = _common_denominator(
        frozenset(c.den for row in targets.values() for _, c in row))
    rows = {triple: [(m, c.num * scale[c.den]) for m, c in row]
            for triple, row in targets.items()}
    numerators: dict[tuple[CouplingPath, CouplingPath], LaurentScalar] = {}
    for (out_path, in_path), amp in state.numerators.items():
        for new_mid, coeff in rows[out_path[slot - 1:slot + 2]]:
            key = (CouplingPath(out_path[:slot] + (new_mid,) + out_path[slot + 1:]), in_path)
            cur = numerators.get(key)
            term = coeff * amp
            total = term if cur is None else cur + term
            if total.is_zero():
                numerators.pop(key, None)
            else:
                numerators[key] = total
    return ShadowState(new_colors, numerators, state.denominator * lcm)


def evaluate_shadow(b: ColoredBraidWord) -> LaurentScalar:
    """The closed-braid invariant w via the path state sum: fold the word
    through apply_crossing and close with the [d_(gamma_n)]-weighted diagonal
    of the numerators, divided once, exactly, by the state denominator.

    Agrees exactly with the tensor-trace pipeline on every braid.
    """
    closure_components(b)  # raises ColorMismatch for inconsistent colorings
    state = initial_state(b.colors, SPIN_ZERO)
    for g in b.word:
        state = apply_crossing(state, abs(g), 1 if g > 0 else -1)
    total = ZERO
    for (out_path, in_path), amp in state.numerators.items():
        if out_path == in_path:
            total = total + amp * qdim(out_path.top)
    return divide_exact(total, state.denominator)
