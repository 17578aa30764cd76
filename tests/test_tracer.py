"""The benchmark's tracer (``perfbench/tracer.py``) wraps functions and
methods of the package by name, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1``.  Installing it here makes that a
test failure."""

import importlib
import pathlib

import deduce
from deduce.grammar import tokenize

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _three_calls(grammar) -> tuple:
    """An Earley parse, its replay, and a bottom-up parse cut at 50 pops,
    which calls the grammar's reduction trie."""
    r = deduce.parse(deduce.make_earley(), grammar, tokenize("a program halts"))
    violations = deduce.check_soundness(r)
    shift_reduce = deduce.parse(deduce.make_bottomup(), grammar, tokenize("Terry halts"),
                                deduce.ParseOptions(step_limit=50))
    return r, violations, shift_reduce


def _traced(monkeypatch, grammar) -> tuple:
    """The tracer's counts over ``_three_calls``, and their results."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    for m in tracer_module.LAYER_MODULES:
        importlib.import_module(f"deduce.{m}")
    tracer = tracer_module.Tracer()
    tracer.bind(deduce)
    plain_parse = deduce.engine.parse
    tracer.install()
    try:
        results = _three_calls(grammar)
    finally:
        tracer.uninstall()
    tracer.fold()
    assert deduce.engine.parse is plain_parse
    return tracer.counts, results


def test_the_benchmark_tracer_installs_over_a_parse_and_its_replay(toy_grammar, monkeypatch):
    # The tracer wraps every builtin as a generator, the grammar's
    # reduction trie included.
    counts, (r, violations, shift_reduce) = _traced(monkeypatch, toy_grammar)
    assert r.accepted and violations == []
    assert counts["engine.parse.calls"] == 2 and counts["engine.check_soundness.calls"] == 1
    assert counts["store.enqueue.calls"] == (r.enqueues + r.duplicates + shift_reduce.enqueues
                                             + shift_reduce.duplicates)


def test_the_tracer_counts_every_side_condition_call(toy_grammar, monkeypatch):
    # Plain counting wrappers on the registry's entries, untraced, see
    # each call the tracer's wrappers count, and each call that reaches
    # a table comes through an entry: no path to a fact table's answers
    # goes round the entry.
    calls, reached = [], []
    for name, fn in list(deduce.systems.REGISTRY.items()):
        def counted(args, ctx, name=name, fn=fn):
            calls.append(name)
            return fn(args, ctx)

        monkeypatch.setitem(deduce.systems.REGISTRY, name, counted)
    for table in (deduce.grammar.FactTable, deduce.grammar.ReductionTrie):
        def answers(self, args, plain=table.answers):
            reached.append(args)
            return plain(self, args)

        monkeypatch.setattr(table, "answers", answers)
    _three_calls(toy_grammar)
    monkeypatch.undo()
    counts, _ = _traced(monkeypatch, toy_grammar)
    assert {"production", "reduction", "word"} <= set(calls)
    computed = {"succ", "index_union", "append", "leq", "restrict"}
    assert len(reached) == sum(name not in computed for name in calls)
    assert counts["systems.side_condition.calls"] == len(calls)
