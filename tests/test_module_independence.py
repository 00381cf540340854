"""The pipelines fail independently only if their modules share no
evaluation code.  These tests read each module's imports with ast, without
running it, and pin which modules and names each one may take."""

import ast
from pathlib import Path

import pytest

import braidrt
from braidrt import cli

PACKAGE = Path(braidrt.__file__).parent
ENGINES = {"rt_engine", "shadow_engine"}


def imports(module: str) -> dict[str, set[str]]:
    """braidrt module -> the names this module takes from it ("*" for the
    module object itself), from every import statement in its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, name = alias.name.partition(".")
                if package == "braidrt" and name:
                    out.setdefault(name, set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                package, _, source = source.partition(".")
                if package != "braidrt":
                    continue
            if source:
                out.setdefault(source, set()).update(alias.name for alias in node.names)
            else:  # from . import x / from braidrt import x
                for alias in node.names:
                    out.setdefault(alias.name, set()).add("*")
    return out


def test_imports_sees_the_package_imports():
    # a reader that saw nothing would pass every test below
    assert imports("cli")["laurent"] == {"LaurentScalar"}
    assert imports("rt_engine")["braid"] >= {"ColoredBraidWord", "closure_components"}
    assert set(imports("__init__")) == {
        "braid", "laurent", "rt_engine", "shadow_engine", "skein_oracle", "uqsl2"}


def test_braid_imports_no_engine():
    assert not ENGINES & set(imports("braid"))


@pytest.mark.parametrize("engine, other", [("rt_engine", "shadow_engine"),
                                           ("shadow_engine", "rt_engine")])
def test_engines_do_not_import_each_other(engine, other):
    assert other not in imports(engine)


def test_skein_oracle_imports_no_engine_and_only_the_fundamental_spin():
    taken = imports("skein_oracle")
    assert not ENGINES & set(taken)
    assert taken.get("uqsl2", set()) <= {"SPIN_HALF"}


def test_cli_takes_only_evaluate_rt_from_rt_engine():
    assert imports("cli")["rt_engine"] == {"evaluate_rt"}


def test_only_the_command_line_reduces_a_braid():
    assert "reduce_closure" in imports("cli")["braid"]
    for module in ("rt_engine", "shadow_engine", "skein_oracle"):
        assert "reduce_closure" not in imports(module).get("braid", set()), module


def test_crosscheck_evaluates_the_words_as_given(monkeypatch):
    def refuse(b):
        raise AssertionError(f"crosscheck reduced {b.to_spec_string()}")

    monkeypatch.setattr(cli, "reduce_closure", refuse)
    report, all_pass = cli.run_crosscheck(samples=5)
    assert all_pass, report
