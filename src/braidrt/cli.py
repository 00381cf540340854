"""Command-line front end: parse braid specs, run a pipeline, cross-validate.

Usage:
    braidrt invariant --spec "n=2; colors=1/2,1/2; word=+1 +1 +1" --pipeline rt
    braidrt invariant --spec braids.txt --pipeline shadow --format json
    braidrt crosscheck --max-strands 3 --max-length 6 --max-spin 1 --seed 7

--spec accepts either a literal braid spec or a path to a batch file with one
spec per line (blank lines and '#' comments skipped).  Output is fully
deterministic: identical spec + pipeline + seed give byte-identical output.

Exit codes: 0 success (and --help), 1 parse/semantic/coloring error, an
option argparse rejects or an out-of-range crosscheck size, 2 internal
invariant violation (crosscheck failures).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Iterable, Sequence

from .braid import (ColoredBraidWord, ColorMismatch, braid_to_diagram, closure_components,
                    conjugate, framing_correction, reduce_closure, split_union, stabilise,
                    writhe_per_component)
from .laurent import LaurentScalar
from .rt_engine import evaluate_rt
from .shadow_engine import evaluate_shadow
from .skein_oracle import jones_unnormalized, skein_triple
from .uqsl2 import SPIN_HALF, Spin, ribbon_scalar


class ParseError(ValueError):
    """Malformed braid spec text; carries the character position."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"at position {position}: {reason}")
        self.position = position
        self.reason = reason


class SemanticError(ValueError):
    """Well-formed text describing an impossible braid."""


def parse_braid_spec(text: str) -> ColoredBraidWord:
    """Parse "n=<strands>; colors=<j1,...,jn>; word=<+-i ...>".

    Whitespace-tolerant; spins as integers or halves ("1/2"); generators as
    signed integers.  ParseError reports where the text went wrong;
    SemanticError reports out-of-range generator indices.
    """
    fields: dict[str, tuple[int, str]] = {}
    cursor = 0
    for segment in text.split(";"):
        stripped = segment.strip()
        if stripped:
            if "=" not in stripped:
                raise ParseError(cursor, f"expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in fields:
                raise ParseError(cursor, f"duplicate field {key!r}")
            fields[key] = (cursor, value.strip())
        cursor += len(segment) + 1
    for required in ("n", "colors", "word"):
        if required not in fields:
            raise ParseError(len(text), f"missing field {required!r}")
    unknown = set(fields) - {"n", "colors", "word"}
    if unknown:
        raise ParseError(fields[sorted(unknown)[0]][0], f"unknown field {sorted(unknown)[0]!r}")

    pos_n, n_text = fields["n"]
    try:
        strands = int(n_text)
    except ValueError:
        raise ParseError(pos_n, f"strand count {n_text!r} is not an integer") from None
    if strands < 1:
        raise SemanticError(f"strand count must be positive, got {strands}")

    pos_c, colors_text = fields["colors"]
    colors = []
    for chunk in colors_text.split(","):
        chunk = chunk.strip()
        try:
            colors.append(Spin.from_string(chunk))
        except ValueError:
            raise ParseError(pos_c, f"bad spin {chunk!r}") from None
    if len(colors) != strands:
        raise ParseError(pos_c, f"expected {strands} colors, got {len(colors)}")

    pos_w, word_text = fields["word"]
    word = []
    for chunk in word_text.split():
        try:
            g = int(chunk)
        except ValueError:
            raise ParseError(pos_w, f"bad generator {chunk!r}") from None
        if g == 0 or abs(g) >= strands:
            raise SemanticError(
                f"generator {g:+d} out of range for {strands} strands")
        word.append(g)
    return ColoredBraidWord(strands, colors, word)


# ---------------------------------------------------------------------------
# invariant subcommand
# ---------------------------------------------------------------------------

PIPELINES = ("rt", "shadow", "skein")


def _evaluate(b: ColoredBraidWord, pipeline: str) -> LaurentScalar:
    if pipeline == "rt":
        return evaluate_rt(b)
    if pipeline == "shadow":
        return evaluate_shadow(b)
    if pipeline == "skein":
        jones = jones_unnormalized(braid_to_diagram(b))
        return LaurentScalar.monomial(1, 6 * b.sign_sum()) * jones
    raise ValueError(f"unknown pipeline {pipeline!r}")


def run_invariant(b: ColoredBraidWord, pipeline: str, output_format: str = "text") -> str:
    """Evaluate one braid and render w_L, I_L, writhes and component count.

    The coloring is checked on b as given.  w_L is then evaluated on the
    pieces of reduce_closure(b), while the writhes, the component count
    and the framing correction come from b itself.
    """
    if pipeline == "skein" and any(c != SPIN_HALF for c in b.colors):
        raise ColorMismatch("the skein pipeline requires all-fundamental colors")
    closure_components(b)  # raises ColorMismatch before any move hides a strand
    w, pieces = reduce_closure(b)
    for piece in pieces:
        w = w * _evaluate(piece, pipeline)
    invariant = framing_correction(b) * w
    writhes = writhe_per_component(b)
    components = len(closure_components(b))
    if output_format == "json":
        return json.dumps({
            "w_L": w.to_json_terms(),
            "I_L": invariant.to_json_terms(),
            "writhe": list(writhes),
            "components": components,
            "pipeline": pipeline,
        }, separators=(", ", ": "))
    return "\n".join([
        f"w_L = {w}",
        f"I_L = {invariant}",
        f"writhe = [{', '.join(str(x) for x in writhes)}]",
        f"components = {components}",
        f"pipeline = {pipeline}",
    ])


# ---------------------------------------------------------------------------
# crosscheck subcommand
# ---------------------------------------------------------------------------


def sample_braid(
    rng: random.Random,
    max_strands: int,
    max_length: int,
    max_spin: Spin,
    fundamental: bool = False,
    min_strands: int = 1,
) -> ColoredBraidWord:
    """One random braid with closure-consistent colors (rejection sampling)."""
    spins = [Spin(t) for t in range(0, max_spin.twice_j + 1)]
    while True:
        n = rng.randint(min_strands, max(min_strands, max_strands))
        length = rng.randint(0, max_length) if n > 1 else 0
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        word = tuple(rng.choice(gens) for _ in range(length))
        colors = (SPIN_HALF,) * n if fundamental else tuple(rng.choice(spins) for _ in range(n))
        b = ColoredBraidWord(n, colors, word)
        try:
            closure_components(b)
            return b
        except ColorMismatch:
            continue


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failure: str | None = None

    def record(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = detail

    def report_line(self) -> str:
        if self.failure is None:
            return f"PASS {self.name}: {self.cases} cases"
        return f"FAIL {self.name}: {self.cases} cases; first counterexample: {self.failure}"


def run_crosscheck(
    max_strands: int = 3,
    max_length: int = 6,
    max_spin: Spin = Spin(2),
    seed: int = 0,
    samples: int = 50,
) -> tuple[str, bool]:
    """Run the identity suite on sampled braids; returns (report, all_pass)."""
    rng = random.Random(seed)
    q_half = LaurentScalar.monomial(1, 2)
    q_minus_half = LaurentScalar.monomial(1, -2)
    skein_rhs = LaurentScalar.monomial(1, 4) + LaurentScalar.monomial(-1, -4)

    pipeline_eq = _Check("pipeline_equality (rt == shadow)")
    for _ in range(samples):
        b = sample_braid(rng, max_strands, max_length, max_spin)
        ok = evaluate_rt(b) == evaluate_shadow(b)
        pipeline_eq.record(ok, b.to_spec_string())

    jones_check = _Check("jones_oracle (w == q^(3s/2) P)")
    for _ in range(samples):
        b = sample_braid(rng, max_strands, max_length, max_spin, fundamental=True)
        ok = evaluate_rt(b) == _evaluate(b, "skein")
        jones_check.record(ok, b.to_spec_string())

    skein_check = _Check("skein_relation")
    for _ in range(samples):
        b = sample_braid(rng, max_strands, max(1, max_length), max_spin,
                         fundamental=True, min_strands=2)
        if not b.word:
            b = ColoredBraidWord(b.strands, b.colors, (1,))
        pos = rng.randrange(len(b.word))
        lp, lm, l0 = skein_triple(b, pos)
        lhs = q_half * evaluate_rt(lp) - q_minus_half * evaluate_rt(lm)
        ok = lhs == skein_rhs * evaluate_rt(l0)
        skein_check.record(ok, f"{b.to_spec_string()} @ {pos}")

    markov_check = _Check("markov_framing (stabilisation and conjugation)")
    for _ in range(samples):
        b = sample_braid(rng, max_strands, max_length, max_spin)
        w = evaluate_rt(b)
        ok = True
        for s in (1, -1):
            stab = stabilise(b, s)  # its new strand carries the color of the kink
            ok = ok and evaluate_rt(stab) == ribbon_scalar(stab.colors[-1]) ** (-s) * w
        if b.strands > 1:
            g = rng.choice([i for i in range(1, b.strands)] + [-i for i in range(1, b.strands)])
            ok = ok and evaluate_rt(conjugate(b, g)) == w
        markov_check.record(ok, b.to_spec_string())

    split_check = _Check("split_multiplicativity")
    for _ in range(min(samples, max(1, samples // 3))):
        b1 = sample_braid(rng, max_strands, max_length, max_spin)
        b2 = sample_braid(rng, max_strands, max_length, max_spin)
        u = split_union(b1, b2)
        ok = evaluate_rt(u) == evaluate_rt(b1) * evaluate_rt(b2)
        split_check.record(ok, f"{b1.to_spec_string()} | {b2.to_spec_string()}")

    checks = [pipeline_eq, jones_check, skein_check, markov_check, split_check]
    all_pass = all(c.failure is None for c in checks)
    lines = [c.report_line() for c in checks]
    lines.append(f"{'ALL CHECKS PASSED' if all_pass else 'CHECKS FAILED'} "
                 f"(max_strands={max_strands}, max_length={max_length}, "
                 f"max_spin={max_spin}, seed={seed})")
    return "\n".join(lines), all_pass


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _iter_specs(spec: str) -> Iterable[str]:
    if os.path.isfile(spec):
        # utf-8-sig drops the byte-order mark some editors put before the first spec
        with open(spec, "r", encoding="utf-8-sig") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    yield line
    else:
        yield spec


def _spin_option(text: str) -> Spin:
    try:
        return Spin.from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"a spin is a nonnegative integer or half-integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with option errors on exit code 1, like every other usage
    error; 2 stays the code of a cross-check failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="braidrt",
        description="Exact quantum link invariants of colored braid closures.")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="evaluate one braid spec or a batch file")
    inv.add_argument("--spec", required=True,
                     help="braid spec string, or path to a file of specs (one per line)")
    inv.add_argument("--pipeline", choices=PIPELINES, default="rt")
    inv.add_argument("--format", choices=("text", "json"), default="text")

    cross = sub.add_parser("crosscheck", help="run the identity cross-check suite")
    cross.add_argument("--max-strands", type=int, default=3)
    cross.add_argument("--max-length", type=int, default=6)
    cross.add_argument("--max-spin", type=_spin_option, default=Spin(2),
                       metavar="J", help="largest color, e.g. 1/2 or 1 (default %(default)s)")
    cross.add_argument("--seed", type=int, default=0)
    cross.add_argument("--samples", type=int, default=50)

    args = parser.parse_args(argv)

    if args.command == "invariant":
        printed = False
        for spec_text in _iter_specs(args.spec):
            try:
                braid = parse_braid_spec(spec_text)
                output = run_invariant(braid, args.pipeline, args.format)
            except (ParseError, SemanticError, ColorMismatch, ValueError) as exc:
                kind = ("parse" if isinstance(exc, ParseError)
                        else "semantic" if isinstance(exc, SemanticError)
                        else "coloring")
                if args.format == "json":
                    print(json.dumps({"error": kind, "message": str(exc),
                                      "spec": spec_text}))
                else:
                    print(f"error ({kind}): {exc}  [spec: {spec_text}]", file=sys.stderr)
                return 1
            # text results are separated by one blank line, json results by none
            if printed and args.format == "text":
                print()
            print(output, flush=True)
            printed = True
        if not printed:
            print()
        return 0

    for flag, value, least in (("--max-strands", args.max_strands, 1),
                               ("--max-length", args.max_length, 0),
                               ("--samples", args.samples, 0)):
        if value < least:
            print(f"error (usage): {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 1
    report, all_pass = run_crosscheck(
        max_strands=args.max_strands,
        max_length=args.max_length,
        max_spin=args.max_spin,
        seed=args.seed,
        samples=args.samples,
    )
    print(report)
    return 0 if all_pass else 2


if __name__ == "__main__":
    sys.exit(main())
