"""The benchmark's tracer (``perfbench/tracer.py``) wraps functions and
methods of the package by name, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1``.  Installing it here makes that a
test failure."""

import importlib
import pathlib

import deduce
from deduce.grammar import tokenize

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_tracer_installs_over_a_parse_and_its_replay(toy_grammar, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    for m in tracer_module.LAYER_MODULES:
        importlib.import_module(f"deduce.{m}")
    tracer = tracer_module.Tracer()
    tracer.bind(deduce)
    plain_parse = deduce.engine.parse
    tracer.install()
    try:
        r = deduce.parse(deduce.make_earley(), toy_grammar, tokenize("a program halts"))
        violations = deduce.check_soundness(r)
        # The tracer wraps every builtin as a generator, the grammar's
        # reduction trie included.
        shift_reduce = deduce.parse(deduce.make_bottomup(), toy_grammar, tokenize("Terry halts"),
                                    deduce.ParseOptions(step_limit=50))
    finally:
        tracer.uninstall()
    tracer.fold()
    assert r.accepted and violations == []
    assert deduce.engine.parse is plain_parse
    counts = tracer.counts
    assert counts["engine.parse.calls"] == 2 and counts["engine.check_soundness.calls"] == 1
    assert counts["store.enqueue.calls"] == (r.enqueues + r.duplicates + shift_reduce.enqueues
                                             + shift_reduce.duplicates)
