"""Command-line behavior: exit codes, formats, stdin input."""

import argparse
import functools
import io
import os
import pathlib
import subprocess
import sys

import pytest

from deduce import cli
from deduce.cli import main

DATA = pathlib.Path(__file__).parent / "data"

TOY = str(DATA / "toy.cf")
CNF = str(DATA / "cnf_ab.cf")
ABN = str(DATA / "abn.dcg")
CCG = str(DATA / "lexicon.ccg")
TRIP = str(DATA / "trip.tag")


def run(*argv):
    return main(list(argv))


def test_parse_accept_exit_zero(capsys):
    code = run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts")
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "accept"
    assert "items" in out


def test_parse_reject_exit_one(capsys):
    code = run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "halts a program")
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == "reject"


def test_parse_lines_format_is_tab_separated(capsys):
    code = run("parse", "--system", "cyk", "--grammar", CNF,
               "--sentence", "a b", "--format", "lines")
    assert code == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert fields[0] == "accept"
    assert fields[4] == "complete"
    assert fields[1] == "3"


def test_step_limit_halt_without_goal_exits_three(capsys):
    code = run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts", "--step-limit", "3")
    out = capsys.readouterr().out
    assert code == 3
    assert "halted" in out


@pytest.mark.parametrize("command, code", [("chart", 3), ("derive", 3), ("check", 0)])
def test_a_halted_parse_is_reported_on_stderr(capsys, command, code):
    argv = (command, "--system", "earley", "--grammar", str(DATA / "ambiguous.cf"),
            "--sentence", "a a a a a a", "--step-limit", "30")
    full = run(*argv[:-2])
    complete = capsys.readouterr()
    assert full in (0, 1) and complete.err == ""
    assert run(*argv) == code
    halted = capsys.readouterr()
    assert halted.err == "search halted at the 30-pop step limit\n"
    if command == "check":
        assert halted.out == "sound: 35 items, every justification replayed\n"


def test_halt_after_the_goal_still_accepts(capsys):
    code = run("parse", "--system", "earley", "--grammar", ABN,
               "--sentence", "a b b", "--step-limit", "500")
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "accept"
    assert "halted" in out


def test_restriction_makes_the_same_parse_terminate(capsys):
    code = run("parse", "--system", "earley", "--grammar", ABN,
               "--sentence", "a b b", "--restrict", "2")
    assert code == 0


def test_restricted_prediction_threads_the_count_to_the_top_node(capsys):
    # The restriction cuts the predicted symbol, not the production
    # chosen for it, so s -> r(0, N) still learns N from the parse.
    code = run("derive", "--system", "earley", "--grammar", ABN,
               "--sentence", "a b b", "--restrict", "2")
    assert code == 0
    assert capsys.readouterr().out.startswith("(s (r(0, s(s(0))) ")


def test_non_cnf_grammar_is_a_grammar_error(capsys):
    code = run("parse", "--system", "cyk", "--grammar", TOY,
               "--sentence", "a program halts")
    err = capsys.readouterr().err
    assert code == 2
    assert "grammar error" in err
    assert "OptRel" in err


def test_restrict_with_the_wrong_system_is_a_usage_error(capsys):
    code = run("parse", "--system", "topdown", "--grammar", TOY,
               "--sentence", "a", "--restrict", "2")
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_foot_mode_with_the_wrong_system_is_a_usage_error(capsys):
    code = run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "a", "--foot-mode", "foot_axiom")
    assert code == 2


def test_missing_grammar_file(capsys):
    code = run("parse", "--system", "earley", "--grammar", "no/such.cf",
               "--sentence", "a")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_extension_needs_an_explicit_class(tmp_path, capsys):
    path = tmp_path / "grammar.rules"
    path.write_text(pathlib.Path(TOY).read_text())
    code = run("parse", "--system", "earley", "--grammar", str(path),
               "--sentence", "a program halts")
    assert code == 2
    assert "--class" in capsys.readouterr().err
    code = run("parse", "--system", "earley", "--grammar", str(path),
               "--sentence", "a program halts", "--class", "cf")
    assert code == 0


def test_sentence_comes_from_stdin_when_omitted(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a program halts\n"))
    code = run("parse", "--system", "earley", "--grammar", TOY)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "accept"


def test_chart_lines_is_the_tab_separated_dump(capsys):
    code = run("chart", "--system", "cyk", "--grammar", CNF,
               "--sentence", "a b", "--format", "lines")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1\t0\t[A, 0, 1]\tinitial()"
    assert lines[2].startswith("3\t") and "binary(1;2)" in lines[2]


def test_chart_text_format_is_readable(capsys):
    code = run("chart", "--system", "cyk", "--grammar", CNF,
               "--sentence", "a b")
    assert code == 0
    out = capsys.readouterr().out
    assert "[S, 0, 2]" in out
    assert "\t" not in out


def test_derive_prints_the_parse_tree(capsys):
    code = run("derive", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts")
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip() == "(S (NP (Det a) (N program) (OptRel)) (VP (IV halts)))"


def test_derive_lines_prints_derivation_trees(capsys):
    code = run("derive", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts", "--format", "lines")
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("complete[[0, S' -> S ., 3]]")


def test_derive_limit_caps_the_forest(capsys):
    ambiguous = str(DATA / "ambiguous.cf")
    code = run("derive", "--system", "cyk", "--grammar", ambiguous,
               "--sentence", "a a a", "--limit", "1")
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_derive_prints_distinct_earley_readings(capsys):
    ambiguous = str(DATA / "ambiguous.cf")
    code = run("derive", "--system", "earley", "--grammar", ambiguous,
               "--sentence", "a a a a a", "--limit", "16")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert len(set(lines)) == 14


def test_derive_too_deep_to_unpack_is_an_error(tmp_path, capsys):
    grammar = tmp_path / "chain.cf"
    grammar.write_text("start S\nS -> A S\nS -> A\nlex a A\n")
    code = run("derive", "--system", "topdown", "--grammar", str(grammar),
               "--sentence", " ".join(["a"] * 100))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the derivation is too deep to unpack\n"


def test_derive_tag_falls_back_to_derivation_trees(capsys):
    code = run("derive", "--system", "tag", "--grammar", TRIP,
               "--sentence", "Trip rumbas nimbly", "--limit", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "adjoin[" in out


def test_chart_prints_a_deep_successor_chain(capsys):
    # Unrestricted Earley on the counting DCG keeps predicting deeper
    # s(s(...)) arguments; each must still print.
    code = run("chart", "--system", "earley", "--grammar", ABN,
               "--sentence", "a b", "--step-limit", "2000", "--format", "lines")
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2007


def test_check_reports_soundness(capsys):
    code = run("check", "--system", "ccg", "--grammar", CCG,
               "--sentence", "John really likes bananas")
    assert code == 0
    assert "sound" in capsys.readouterr().out


def test_trace_goes_to_stderr(capsys):
    code = run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts", "--trace", "items")
    captured = capsys.readouterr()
    assert code == 0
    assert "POP 1" in captured.err
    assert "POP" not in captured.out


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_unknown_system_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run("parse", "--system", "glr", "--grammar", TOY, "--sentence", "a")
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, grammar", [
    ("parse", "--step-limit", TOY),
    ("derive", "--limit", TOY),
    ("parse", "--restrict", ABN),
])
def test_a_negative_count_is_an_argparse_error(capsys, command, flag, grammar):
    with pytest.raises(SystemExit) as exc:
        run(command, "--system", "earley", "--grammar", grammar,
            "--sentence", "a b", flag, "-1")
    assert exc.value.code == 2
    assert f"error: argument {flag}: expected a non-negative integer" in capsys.readouterr().err


def test_a_grammar_file_that_is_not_utf8_is_a_grammar_error(tmp_path, capsys):
    path = tmp_path / "bad.cf"
    path.write_bytes(b"\xff\xfeS -> a\n")
    code = run("parse", "--system", "earley", "--grammar", str(path), "--sentence", "a")
    assert code == 2
    assert capsys.readouterr().err == (
        f"grammar error: {path}: not UTF-8 text (byte 0xff at offset 0)\n")


def test_python_dash_m_deduce_runs_the_cli():
    # The package runs as ``python -m deduce`` where no console script
    # is installed, with the CLI's exit codes.
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    codes = []
    for sentence in ("a program halts", "halts a program", None):
        argv = [sys.executable, "-m", "deduce", "parse", "--system", "earley",
                "--grammar", TOY if sentence else "no/such.cf", "--sentence", sentence or "a"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        codes.append(done.returncode)
    assert codes == [0, 1, 2]


def test_in_process_requests_leak_nothing(monkeypatch, capsys):
    ambiguous = str(DATA / "ambiguous.cf")
    derive = ("derive", "--system", "cyk", "--grammar", ambiguous, "--sentence", "a a a a a a")
    assert run(*derive, "--limit", "1") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert run(*derive) == 0  # 42 readings, cut at the default of 16
    assert len(capsys.readouterr().out.splitlines()) == 16

    with pytest.raises(SystemExit) as exc:
        run("parse", "--system", "glr", "--grammar", TOY, "--sentence", "a")
    assert exc.value.code == 2
    assert "argument --system: invalid choice: 'glr'" in capsys.readouterr().err
    assert run("parse", "--system", "earley", "--grammar", TOY,
               "--sentence", "a program halts") == 0
    assert capsys.readouterr() == ("accept\nitems 25, pops 25, duplicates 0\n", "")

    parse = ("parse", "--system", "earley", "--grammar", TOY)
    monkeypatch.setattr("sys.stdin", io.StringIO("a program halts\n"))
    assert run(*parse) == 0
    assert run(*parse, "--sentence", "halts a program") == 1
    # Nor does the sentence given last stand in for the stdin one.
    monkeypatch.setattr("sys.stdin", io.StringIO("a program halts\n"))
    assert run(*parse) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "items" not in line]
    assert verdicts == ["accept", "reject", "accept"]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_arg_parser()
    per_build = len(built)
    built.clear()
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_arg_parser), raising=False)
    for sentence in ("a program halts", "halts a program") * 2 + ("a program halts",):
        run("parse", "--system", "earley", "--grammar", TOY, "--sentence", sentence)
    assert per_build > 1 and len(built) == per_build


def test_importing_the_cli_builds_no_parser():
    # The parser is built by the first ``main`` call, so a process that
    # imports the CLI without running a request pays nothing for it.
    src = str(pathlib.Path(__file__).parent.parent / "src")
    script = (
        "import argparse, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import deduce.cli\n"
        "print(len(built))\n"
        "deduce.cli.build_arg_parser()\n"
        "print(len(built) > 0)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\nTrue\n", "")
