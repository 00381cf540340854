"""braidrt: exact colored quantum link invariants of braid closures.

Three independent evaluations of the same invariant:

* :mod:`braidrt.rt_engine` multiplies braiding operators and takes the
  mu-weighted trace,
* :mod:`braidrt.shadow_engine` sums scalar recoupling coefficients over
  fusion paths,
* :mod:`braidrt.skein_oracle` expands the Kauffman bracket (fundamental
  color only) as a fully independent cross-check.

All arithmetic is exact, over Z[t, t^-1] with t = q^(1/4).
"""

from .braid import ColoredBraidWord, ColorMismatch, LinkDiagram, braid_to_diagram
from .laurent import LaurentScalar, quantum_integer
from .rt_engine import evaluate_rt, framed_invariant, two_cabling
from .shadow_engine import evaluate_shadow
from .skein_oracle import jones_unnormalized, kauffman_bracket
from .uqsl2 import Spin, braiding, cg_pair, fusion_range, qdim, quantum_trace, ribbon_scalar

__all__ = [
    "ColoredBraidWord",
    "ColorMismatch",
    "LaurentScalar",
    "LinkDiagram",
    "Spin",
    "braid_to_diagram",
    "braiding",
    "cg_pair",
    "evaluate_rt",
    "evaluate_shadow",
    "framed_invariant",
    "fusion_range",
    "jones_unnormalized",
    "kauffman_bracket",
    "qdim",
    "quantum_integer",
    "quantum_trace",
    "ribbon_scalar",
    "two_cabling",
]

__version__ = "0.1.0"
