"""CLI surface: the braid grammar, output contracts, determinism, exit codes."""

import io
import json
import sys

import pytest

from braidrt.cli import (
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
    with pytest.raises(SystemExit):
        main(["crosscheck", "--help"])
    assert "(default 1)" in " ".join(capsys.readouterr().out.split())
    assert main(["crosscheck", "--max-strands", "2", "--max-length", "1",
                 "--samples", "1"]) == 0
    assert "max_spin=1," in capsys.readouterr().out


def test_crosscheck_length_zero_only_runs_empty_words(capsys):
    code = main(["crosscheck", "--max-strands", "2", "--max-length", "0",
                 "--seed", "1", "--samples", "4"])
    assert code == 0
