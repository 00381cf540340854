"""The command line's exact output on a fixed set of runs.

tests/data/cli_golden.txt holds, for each run below, its argument list,
exit code, standard output and standard error, byte for byte.  The test
replays every run through cli.main and compares.  A change that alters
no output leaves the file as it is; one that alters output on purpose
regenerates it with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the file shows what changed.
"""

from __future__ import annotations

import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from braidrt.cli import PIPELINES, main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.txt"

H5 = ",".join(["1/2"] * 5)

SPECS = [
    # unknots and unlinks, spins 0 to 5/2
    "n=1; colors=0; word=",
    "n=1; colors=1/2; word=",
    "n=1; colors=5/2; word=",
    "n=3; colors=0,1/2,1; word=",
    "n=2; colors=1/2,1/2; word=+1 -1",
    # 2 strands: trefoils, Hopf links and torus links
    "n=2; colors=1/2,1/2; word=+1 +1 +1",
    "n=2; colors=1/2,1/2; word=-1 -1 -1",
    "n=2; colors=1,1; word=+1 +1 +1",
    "n=2; colors=3/2,3/2; word=+1 +1 +1",
    "n=2; colors=2,2; word=-1 -1 -1",
    "n=2; colors=5/2,5/2; word=+1 +1 +1",
    "n=2; colors=1/2,1/2; word=+1 +1",
    "n=2; colors=1/2,1; word=+1 +1",
    "n=2; colors=0,3/2; word=-1 -1 -1 -1",
    "n=2; colors=1/2,1/2; word=" + " ".join(["+1"] * 40),
    "n=2; colors=2,2; word=+1 -1 +1 -1 +1 +1",
    # 3 strands
    "n=3; colors=1/2,1/2,1/2; word=+1 -2 +1 -2",
    "n=3; colors=1,1,1; word=+1 -2 +1 -2",
    "n=3; colors=3/2,3/2,3/2; word=+1 -2 +1 -2",
    "n=3; colors=1/2,1/2,1/2; word=+1 +1 +1 +2 -1 +2",
    "n=3; colors=1,1,1; word=+1 +1 +1 +2 -1 +2",
    "n=3; colors=1/2,1/2,1/2; word=" + " ".join(["+1 -2"] * 20),
    "n=3; colors=1,1,1; word=" + " ".join(["+1 -2"] * 10),
    "n=3; colors=1/2,1,3/2; word=+1 +1 +2 +2",
    "n=3; colors=1,1/2,0; word=+1 +1 +1 +2 +2 -1",
    # 4 and 5 strands
    "n=4; colors=1/2,1/2,1/2,1/2; word=+1 +2 +3 +1 +2 +3 +1 +2 +3",
    "n=4; colors=1,1,1,1; word=+1 -2 +3 +1 -2 +3 +1 -2 +3 +1 -2 -2",
    "n=4; colors=1/2,1/2,1/2,1/2; word=+1 -3 +2 +2 -1 +3 -2 +1",
    f"n=5; colors={H5}; word=+1 +2 +3 +4 +1 +2 +3 +4",
    f"n=5; colors={H5}; word=+1 -2 +3 -4 +1 -2 +3 -4 +2 +4 -3 +1",
    "n=5; colors=1,1/2,1/2,1/2,0; word=+2 -3 +2 -3 +1 -1 +4 +4",
    # the reducer: a wide kink, a split and a destabilisation
    "n=40; colors=" + ",".join(["1/2"] * 40) + "; word=+1 -1 +39",
    "n=4; colors=1/2,1/2,1,1; word=+1 +3 +1 +3 +1",
    "n=3; colors=1/2,1/2,1/2; word=+1 +1 +1 +2",
    # errors: parse, semantic and coloring, two each
    "n=x; colors=1/2; word=",
    "n=2; colors=1/2,bad; word=+1",
    "n=2; colors=1/2,1/2; word=+5",
    "n=0; colors=; word=",
    "n=3; colors=1/2,1/2,1; word=+1 +2",
    "n=3; colors=1,1/2,1; word=+2 +2 +2",
]

RUNS = [["invariant", "--spec", spec, "--pipeline", pipeline, "--format", output_format]
        for spec in SPECS for pipeline in PIPELINES for output_format in ("text", "json")]
RUNS.append(["crosscheck", "--seed", "7"])


def transcript_entry(argv: list[str]) -> str:
    """One run: the command, its exit code, then each stream after its line
    count, so the file parses back without ambiguity."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    entry = [f"$ braidrt {shlex.join(argv)}", f"exit {code}"]
    for name, stream in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        assert stream == "" or stream.endswith("\n"), (argv, name)
        lines = stream.count("\n")
        entry.append(f"{name} {lines}")
        if lines:
            entry.append(stream[:-1])
    return "\n".join(entry) + "\n"


def transcript() -> str:
    return "".join(transcript_entry(argv) for argv in RUNS)


def test_cli_output_matches_the_golden_transcript():
    golden = GOLDEN.read_text(encoding="utf-8")
    entries = golden.split("$ braidrt ")[1:]
    assert [shlex.split(e.partition("\n")[0]) for e in entries] == RUNS
    for argv, expected in zip(RUNS, entries):
        assert "$ braidrt " + expected == transcript_entry(argv), shlex.join(argv)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
    print(f"wrote {len(RUNS)} runs to {GOLDEN}", file=sys.stderr)
