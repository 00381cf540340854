"""CLI surface: the braid grammar, output contracts, determinism, exit codes."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from braidrt.uqsl2 import SPIN_HALF, SPIN_ONE, Spin

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
    from braidrt.rt_engine import evaluate_rt
    assert LaurentScalar.from_json_terms(data["w_L"]) == evaluate_rt(b)


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
