"""Fixture parses against golden digests of their charts and derivations.

``tests/data/chart_digests.txt`` holds one line per case: its name, the
SHA-256 of its ``dump()`` (``_G`` numbers included), its pop, enqueue
and duplicate counts, its verdict and every ``extract(limit=16)``
rendering, and the same digest taken with every item in ``canonical``
form.  The second digest does not see how the engine numbers its fresh
variables, so a change that renumbers them keeps it: the chart is then
item by item a variant of the one pinned, with the same stages,
histories and derivations.  ``tests/data/run_records.txt`` holds, for the same cases and
one parse halted by its step limit, the run record: the pop, enqueue and
duplicate counts, whether the limit halted it, and the SHA-256 of its
whole ``--trace rules`` text.  A change that should leave the engine's
work as it is keeps every line of both.  One that changes a chart or a
run on purpose regenerates the files, and says why, with

    PYTHONPATH=src python tests/test_chart_identity.py > tests/data/chart_digests.txt
    PYTHONPATH=src python tests/test_chart_identity.py records > tests/data/run_records.txt
"""

import copy
import dataclasses
import hashlib
import io
import pathlib
import sys

import pytest

from deduce.derivations import extract, render_derivation_tree
from deduce.engine import ParseOptions, check_soundness, parse
from deduce.grammar import load_ccg, load_cf, load_tag, tokenize
from deduce.systems import system_for
from deduce.terms import canonical
from conftest import goals
from test_store import scanned_goal_items

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "chart_digests.txt"
RECORDS = DATA / "run_records.txt"

_LOADERS = {".cf": load_cf, ".dcg": load_cf, ".ccg": load_ccg, ".tag": load_tag}
_GRAMMARS: dict = {}


def _grammar(name: str):
    g = _GRAMMARS.get(name)
    if g is None:
        path = DATA / name
        g = _GRAMMARS[name] = _LOADERS[path.suffix](path.read_text())
    return g


def _case(system, kwargs, grammar, sentence, limit=ParseOptions().step_limit) -> tuple:
    """(name, system name, its builder's arguments, grammar file,
    sentence, step limit)."""
    label = "/".join([system, *map(str, kwargs.values())])
    return (f"{label}:{grammar}:{sentence or '-'}:{limit}", system, kwargs, grammar, sentence,
            limit)


def _cases() -> list:
    out = []

    def add(*case):
        out.append(_case(*case))

    for n in range(1, 11):
        for system in ("earley", "cyk", "bottomup"):
            add(system, {}, "ambiguous.cf", " ".join(["a"] * n))
    for sentence in ("a program halts", "Terry writes Shrdlu",
                     "a program that halts writes Terry"):
        for system in ("topdown", "earley"):
            add(system, {}, "toy.cf", sentence)
        # Shift-reduce never stops on the empty OptRel.
        add("bottomup", {}, "toy.cf", sentence, 300)
    for sentence in ("a", "a b", "a b b", "a b b b", "a b a"):
        for depth in (1, 2):
            add("earley", {"restriction_depth": depth}, "abn.dcg", sentence)
        add("bottomup", {}, "abn.dcg", sentence)
        for system in ("earley", "topdown"):
            add(system, {}, "abn.dcg", sentence, 300)
    for sentence in ("John really likes bananas", "John likes bananas", "John likes",
                     "really likes John"):
        add("ccg", {}, "lexicon.ccg", sentence)
    tag_sentences = {
        "trip.tag": ("Trip rumbas", "Trip rumbas nimbly", "Trip rumbas nimbly nimbly",
                     "rumbas Trip"),
        "counting.tag": ("", "a b c d", "a a b b c c d d", "a b b c d"),
    }
    for grammar, sentences in tag_sentences.items():
        for sentence in sentences:
            for mode in ("complete_foot", "foot_axiom"):
                add("tag", {"foot_mode": mode}, grammar, sentence)
    return out


CASES = _cases()
# The run record also pins a parse that its step limit halts.
RECORD_CASES = CASES + [_case("earley", {}, "ambiguous.cf", "a a a a a a", 20)]


def run_case(system, kwargs, grammar, sentence, limit):
    return parse(system_for(system, **kwargs), _grammar(grammar), tokenize(sentence),
                 ParseOptions(step_limit=limit))


def digest(result) -> str:
    parts = [
        result.dump(),
        f"pops {result.pops} enqueues {result.enqueues} duplicates {result.duplicates}"
        f" accepted {result.accepted}\n",
    ]
    parts += [render_derivation_tree(result, d) + "\n" for d in extract(result, limit=16)]
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


def canonical_digest(result) -> str:
    """``digest`` of a copy of ``result`` whose store holds each item in
    canonical form."""
    store = copy.copy(result.store)
    store._items = [copy.copy(stored) for stored in store._items]
    for stored in store._items:
        stored.item = canonical(stored.item)
    return digest(dataclasses.replace(result, store=store))


def digests(result) -> str:
    """The raw and the canonical digest, TAB-separated."""
    return f"{digest(result)}\t{canonical_digest(result)}"


def run_record(system, kwargs, grammar, sentence, limit) -> str:
    """The counts of a ``--trace rules`` run and the SHA-256 of its
    trace text."""
    out = io.StringIO()
    r = parse(system_for(system, **kwargs), _grammar(grammar), tokenize(sentence),
              ParseOptions(step_limit=limit, trace="rules"), trace_out=out)
    trace = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return (f"pops {r.pops} enqueues {r.enqueues} duplicates {r.duplicates}"
            f" halted {r.halted_by_limit}\t{trace}")


def _golden(path=DIGESTS) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t", 1) for line in lines)


def test_the_digest_file_lists_every_case():
    assert list(_golden()) == [name for name, *_ in CASES]


def test_the_run_record_file_lists_every_case():
    assert list(_golden(RECORDS)) == [name for name, *_ in RECORD_CASES]
    assert "halted True" in _golden(RECORDS)[RECORD_CASES[-1][0]]


@pytest.mark.parametrize("name, system, kwargs, grammar, sentence, limit", CASES,
                         ids=[case[0] for case in CASES])
def test_a_fixture_parse_keeps_its_digest(name, system, kwargs, grammar, sentence, limit):
    r = run_case(system, kwargs, grammar, sentence, limit)
    assert not check_soundness(r)
    assert digests(r) == _golden()[name]


@pytest.mark.parametrize("name, system, kwargs, grammar, sentence, limit", RECORD_CASES,
                         ids=[case[0] for case in RECORD_CASES])
def test_a_fixture_parse_keeps_its_run_record(name, system, kwargs, grammar, sentence, limit):
    assert run_record(system, kwargs, grammar, sentence, limit) == _golden(RECORDS)[name]


@pytest.mark.parametrize("name, system, kwargs, grammar, sentence, limit", RECORD_CASES,
                         ids=[case[0] for case in RECORD_CASES])
def test_goal_items_agree_with_a_chart_scan(name, system, kwargs, grammar, sentence, limit):
    r = run_case(system, kwargs, grammar, sentence, limit)
    patterns = goals(r.system, r.grammar, r.input)
    assert r.goal_indices == scanned_goal_items(r.store, patterns)


if __name__ == "__main__":
    if sys.argv[1:] == ["records"]:
        for name, *case in RECORD_CASES:
            print(f"{name}\t{run_record(*case)}")
    else:
        for name, *case in CASES:
            print(f"{name}\t{digests(run_case(*case))}")
