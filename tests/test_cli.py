"""CLI surface: the braid grammar, output contracts, determinism, exit codes."""

import io
import json
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import colored_braids

from braidrt import cli
from braidrt.braid import (ColoredBraidWord, closure_components, closure_record, framing_correction,
                           writhe_per_component)
from braidrt.cli import (
    PIPELINES,
    ParseError,
    SemanticError,
    main,
    parse_braid_spec,
    run_crosscheck,
    run_invariant,
)
from braidrt.laurent import LaurentScalar
from braidrt.rt_engine import evaluate_rt
from braidrt.uqsl2 import SPIN_HALF, SPIN_ONE, Spin, qdim, ribbon_scalar

TREFOIL = "n=2; colors=1/2,1/2; word=+1 +1 +1"


def test_parse_trefoil():
    b = parse_braid_spec(TREFOIL)
    assert b.strands == 2
    assert b.colors == (SPIN_HALF, SPIN_HALF)
    assert b.word == (1, 1, 1)


def test_parse_empty_word_and_integer_spin():
    b = parse_braid_spec("n=1; colors=1; word=")
    assert b.strands == 1 and b.colors == (SPIN_ONE,) and b.word == ()


def test_parse_whitespace_tolerance():
    b = parse_braid_spec("  n = 2 ;  colors = 1/2 , 1/2 ; word =  +1   -1 ")
    assert b.word == (1, -1)


def test_parse_semantic_error_for_out_of_range_generator():
    with pytest.raises(SemanticError):
        parse_braid_spec("n=2; colors=1/2,1/2; word=+5")
    with pytest.raises(SemanticError):
        parse_braid_spec("n=0; colors=; word=")


def test_parse_errors_carry_position_and_reason():
    with pytest.raises(ParseError) as err:
        parse_braid_spec("n=2; colors=1/2; word=+1")
    assert "colors" in str(err.value) or "expected 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_braid_spec("n=x; colors=1/2,1/2; word=")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_braid_spec("n=2; colors=1/2,1/2")
    with pytest.raises(ParseError):
        parse_braid_spec("n=2; colors=1/2,1/2; word=; extra=1")
    with pytest.raises(ParseError):
        parse_braid_spec("n=2; colors=1/2,bad; word=")
    with pytest.raises(ParseError):
        parse_braid_spec("n=2; colors=1/2,1/2; word=x")


def test_run_invariant_text_contract():
    b = parse_braid_spec(TREFOIL)
    out = run_invariant(b, "rt", "text")
    lines = out.splitlines()
    assert lines[0].startswith("w_L = ")
    assert lines[1].startswith("I_L = ")
    assert lines[2] == "writhe = [3]"
    assert lines[3] == "components = 1"
    assert lines[4] == "pipeline = rt"


def test_rt_and_shadow_emit_identical_w_strings():
    b = parse_braid_spec(TREFOIL)
    rt_lines = run_invariant(b, "rt", "text").splitlines()
    shadow_lines = run_invariant(b, "shadow", "text").splitlines()
    skein_lines = run_invariant(b, "skein", "text").splitlines()
    assert rt_lines[0] == shadow_lines[0] == skein_lines[0]
    assert rt_lines[1] == shadow_lines[1] == skein_lines[1]


def test_json_output_and_roundtrip():
    b = parse_braid_spec("n=1; colors=1/2; word=")
    data = json.loads(run_invariant(b, "rt", "json"))
    assert data["w_L"] == [[-4, "1"], [4, "1"]]
    assert data["components"] == 1 and data["writhe"] == [0]
    assert data["pipeline"] == "rt"
    assert LaurentScalar.from_json_terms(data["w_L"]) == evaluate_rt(b)


@given(colored_braids(max_strands=3, max_length=6, max_twice_j=2))
def test_json_output_round_trips(b):
    data = json.loads(run_invariant(b, "rt", "json"))
    w = evaluate_rt(b)
    assert LaurentScalar.from_json_terms(data["w_L"]) == w
    assert LaurentScalar.from_json_terms(data["I_L"]) == framing_correction(closure_record(b)) * w
    assert data["writhe"] == list(writhe_per_component(b))
    assert data["components"] == len(closure_components(b))


def test_determinism():
    b = parse_braid_spec(TREFOIL)
    assert run_invariant(b, "rt", "json") == run_invariant(b, "rt", "json")
    r1, _ = run_crosscheck(max_strands=2, max_length=3, seed=5, samples=5)
    r2, _ = run_crosscheck(max_strands=2, max_length=3, seed=5, samples=5)
    assert r1 == r2


def test_main_invariant_exit_codes(capsys, tmp_path):
    assert main(["invariant", "--spec", TREFOIL]) == 0
    captured = capsys.readouterr()
    assert "w_L = " in captured.out

    assert main(["invariant", "--spec", "n=2; colors=1/2,1/2; word=+9"]) == 1
    assert main(["invariant", "--spec", "n=2; colors=1/2,1; word=+1"]) == 1

    batch = tmp_path / "batch.txt"
    batch.write_text("# comment\n\nn=1; colors=1/2; word=\n" + TREFOIL + "\n")
    assert main(["invariant", "--spec", str(batch), "--format", "json"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 2
    assert json.loads(lines[-2])["components"] == 1


@pytest.mark.parametrize("head", ["", "# specs\n"])
def test_batch_file_with_a_byte_order_mark(tmp_path, capsys, head):
    # editors may save with a UTF-8 BOM; it must not become part of the first key
    batch = tmp_path / "bom.txt"
    batch.write_text(f"{head}{TREFOIL}\n", encoding="utf-8-sig")
    assert batch.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["invariant", "--spec", str(batch)]) == 0
    captured = capsys.readouterr()
    assert captured.out == run_invariant(parse_braid_spec(TREFOIL), "rt", "text") + "\n"
    assert captured.err == ""


def test_readme_examples_reproduce_byte_for_byte(capsys):
    # each fenced block of README.md that opens with "$ braidrt ..." is that
    # command followed by its exact standard output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", readme, re.M | re.S):
        command, _, output = block.partition("\n")
        if command.startswith("$ braidrt "):
            examples.append((command, output))
    assert len(examples) == 2
    for command, output in examples:
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == output, command


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_batch_prints_results_before_a_failing_spec(tmp_path, monkeypatch, output_format):
    unknot = "n=1; colors=1/2; word="
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{TREFOIL}\n{unknot}\nn=2; colors=1/2,1; word=+1\n")
    # one stream for both, so the test sees the order a terminal shows
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    monkeypatch.setattr(sys, "stderr", stream)
    assert main(["invariant", "--spec", str(batch), "--format", output_format]) == 1
    results = [run_invariant(parse_braid_spec(s), "rt", output_format) for s in (TREFOIL, unknot)]
    separator = "\n\n" if output_format == "text" else "\n"
    head = separator.join(results) + "\n"
    out = stream.getvalue()
    assert out.startswith(head)
    error = out[len(head):]
    assert error.count("\n") == 1 and "coloring" in error


WIDE_KINK = "n=40; colors=" + ",".join(["1/2"] * 40) + "; word=+1 -1 +39"


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_a_wide_braid_with_few_crossings_is_one_kink_and_unknots(capsys, pipeline):
    # unreduced, rt would fold every weight key of 40 strands, 2^39 of them
    # with total weight >= 0; reduced, it is one kink and 39 unknots
    assert main(["invariant", "--spec", WIDE_KINK, "--pipeline", pipeline,
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    w = LaurentScalar.from_json_terms(result["w_L"])
    assert w == ribbon_scalar(SPIN_HALF) ** -1 * qdim(SPIN_HALF) ** 39
    # the writhes and the component count are those of the braid as given
    assert result["components"] == 39
    assert result["writhe"] == [0] * 38 + [1]


WALK_SPECS = [
    TREFOIL,
    WIDE_KINK,
    "n=3; colors=1/2,1/2,1/2; word=+1 -2 +1 -2",
    "n=4; colors=1/2,1/2,1/2,1/2; word=+1 +3 +1 +3 +1",  # split, one piece a Hopf link
    "n=5; colors=1/2,1/2,1/2,1/2,1/2; word=+1 +1 +2 -1 +3 +3 +4",  # destabilised
    "n=2; colors=1/2,1/2; word=+1 -1",  # cancels to two unknots
]


@pytest.fixture
def walks(monkeypatch):
    """Each braid whose closure permutation is walked, and each braid that
    cli hands to an engine or to the diagram of the skein pipeline, in order."""
    seen = {"walked": [], "evaluated": []}
    permutation = ColoredBraidWord.permutation

    def walk(b):
        seen["walked"].append(b)
        return permutation(b)

    def entry(name):
        inner = getattr(cli, name)

        def evaluated(b):
            seen["evaluated"].append(b)
            return inner(b)

        return evaluated

    monkeypatch.setattr(ColoredBraidWord, "permutation", walk)
    for name in ("evaluate_rt", "evaluate_shadow", "braid_to_diagram"):
        monkeypatch.setattr(cli, name, entry(name))
    return seen


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("spec", WALK_SPECS)
def test_the_braid_as_given_is_walked_once_and_each_piece_once(walks, pipeline, spec):
    b = parse_braid_spec(spec)
    run_invariant(b, pipeline)
    pieces = walks["evaluated"]
    # the closure record walks b; each engine or diagram checks its piece
    assert walks["walked"] == [b, *pieces]
    assert all(piece.strands >= 2 and piece.word for piece in pieces)
    if spec == WIDE_KINK:
        assert pieces == []


@pytest.mark.parametrize("pipeline", ["rt", "shadow"])
@pytest.mark.parametrize("spec, strands", [
    # both letters destabilise, so the reduced braid is one strand of spin 1/2
    ("n=3; colors=1/2,1/2,1; word=+1 +2", "0 and 2"),
    # the split leaves the faulty component as strands 0 and 1 of a piece
    ("n=3; colors=1,1/2,1; word=+2 +2 +2", "1 and 2"),
])
def test_a_coloring_error_is_reported_on_the_braid_as_given(capsys, walks, pipeline, spec,
                                                           strands):
    assert main(["invariant", "--spec", spec, "--pipeline", pipeline]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error (coloring): strands {strands} lie on one component but "
                            f"carry colors 1/2 and 1  [spec: {spec}]\n")
    # the closure record raises on its one walk, before any piece is evaluated
    assert walks == {"walked": [parse_braid_spec(spec)], "evaluated": []}


def test_skein_rejects_other_colors_before_the_coloring_check(capsys):
    spec = "n=2; colors=1,1/2; word=+1"
    assert main(["invariant", "--spec", spec, "--pipeline", "skein"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error (coloring): the skein pipeline requires all-fundamental "
                            f"colors  [spec: {spec}]\n")


def test_main_crosscheck(capsys):
    code = main(["crosscheck", "--max-strands", "2", "--max-length", "3",
                 "--seed", "3", "--samples", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert sum(1 for line in out.splitlines() if line.startswith("PASS ")) == 5


def test_crosscheck_help_names_the_real_max_spin_default(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["crosscheck", "--help"])
    assert exited.value.code == 0
    assert "(default 1)" in " ".join(capsys.readouterr().out.split())
    assert main(["crosscheck", "--max-strands", "2", "--max-length", "1",
                 "--samples", "1"]) == 0
    assert "max_spin=1," in capsys.readouterr().out


def test_crosscheck_length_zero_only_runs_empty_words(capsys):
    code = main(["crosscheck", "--max-strands", "2", "--max-length", "0",
                 "--seed", "1", "--samples", "4"])
    assert code == 0


@pytest.mark.parametrize("option, value", [("--max-length", "-1"), ("--max-strands", "0"),
                                           ("--samples", "-1")])
def test_crosscheck_rejects_out_of_range_sizes(capsys, option, value):
    assert main(["crosscheck", option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and option in captured.err


def test_crosscheck_samples_zero_runs_no_split_case():
    # the split check runs samples // 3 cases, but at least one while any
    # sample is asked for
    for samples, split_cases in ((0, 0), (1, 1), (2, 1), (6, 2)):
        report, all_pass = run_crosscheck(max_strands=2, max_length=2, seed=1,
                                          samples=samples)
        assert all_pass
        assert f"PASS split_multiplicativity: {split_cases} cases" in report.splitlines()


def _rejected(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return True
    return False


_option_texts = st.text(max_size=6)
malformed_argvs = st.one_of(
    st.tuples(st.sampled_from(["--max-strands", "--max-length", "--seed", "--samples"]),
              _option_texts.filter(lambda t: _rejected(int, t))).map(
        lambda pair: ["crosscheck", f"{pair[0]}={pair[1]}"]),
    _option_texts.filter(lambda t: _rejected(Spin.from_string, t)).map(
        lambda text: ["crosscheck", f"--max-spin={text}"]),
    st.tuples(st.sampled_from(["--pipeline", "--format"]),
              _option_texts.filter(lambda t: t not in PIPELINES + ("text", "json"))).map(
        lambda pair: ["invariant", f"--spec={TREFOIL}", f"{pair[0]}={pair[1]}"]),
    st.sampled_from([[], ["invariant"], ["crosscheck", "--max-strands"], ["nonsense"],
                     ["crosscheck", "--unknown", "1"]]),
)


@settings(max_examples=40)
@given(malformed_argvs)
@example(["crosscheck", "--max-spin", "x"])
@example(["crosscheck", "--max-spin", "3/4"])
@example(["crosscheck", "--max-spin=-1"])
def test_options_argparse_rejects_exit_1_with_the_usage_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1, argv
    lines = err.getvalue().splitlines()
    assert out.getvalue() == "" and lines[0].startswith("usage: braidrt")
    assert lines[-1].startswith("braidrt") and ": error: " in lines[-1]
    # the reason states the rule, not the name of a parsing function
    assert "from_string" not in err.getvalue()
    if any(arg.startswith("--max-spin") for arg in argv):
        assert "a spin is a nonnegative integer or half-integer" in lines[-1]


@st.composite
def spec_texts(draw):
    """Spec lines, valid or not: strand counts from -1 to 3, n or up to 3
    colors of spin at most 1 (some unparsable), up to 3 letters (some out of
    range)."""
    n = draw(st.integers(-1, 3))
    spins = st.sampled_from(["0", "1/2", "1"]) | st.sampled_from(["-1", "3/4", "x", ""])
    colors = draw(st.lists(spins, min_size=max(n, 0), max_size=max(n, 0))
                  | st.lists(spins, max_size=3))
    word = draw(st.lists(st.integers(-3, 3), max_size=3))
    return f"n={n}; colors={','.join(colors)}; word={' '.join(f'{g:+d}' for g in word)}"


crosscheck_argvs = st.builds(
    lambda strands, length, samples, spin, seed: [
        "crosscheck", "--max-strands", str(strands), "--max-length", str(length),
        "--samples", str(samples), "--max-spin", spin, "--seed", str(seed)],
    st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 2),
    st.sampled_from(["0", "1/2", "1"]), st.integers(0, 9))

# st.text stays under 21 characters: too short to spell a spec whose
# evaluation could take long
invariant_argvs = st.builds(
    lambda spec, pipeline, output_format: [
        "invariant", f"--spec={spec}", "--pipeline", pipeline, "--format", output_format],
    st.one_of(spec_texts(), st.text(max_size=20)), st.sampled_from(PIPELINES),
    st.sampled_from(["text", "json"]))


@settings(max_examples=60)
@given(st.one_of(crosscheck_argvs, invariant_argvs))
def test_main_exits_0_1_or_2_and_never_raises(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
