"""Fixture parses against golden digests of their charts and derivations.

``tests/data/chart_digests.txt`` holds one line per case: its name and
the SHA-256 of its ``dump()`` (``_G`` numbers included), its pop,
enqueue and duplicate counts, its verdict and every ``extract(limit=16)``
rendering.  A change that should leave the engine's work as it is keeps
every digest.  One that changes a chart on purpose regenerates the file,
and says why, with

    PYTHONPATH=src python tests/test_chart_identity.py > tests/data/chart_digests.txt
"""

import hashlib
import pathlib

import pytest

from deduce.derivations import extract, render_derivation_tree
from deduce.engine import ParseOptions, check_soundness, parse
from deduce.grammar import load_ccg, load_cf, load_tag, tokenize
from deduce.systems import system_for

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "chart_digests.txt"

_LOADERS = {".cf": load_cf, ".dcg": load_cf, ".ccg": load_ccg, ".tag": load_tag}
_GRAMMARS: dict = {}


def _grammar(name: str):
    g = _GRAMMARS.get(name)
    if g is None:
        path = DATA / name
        g = _GRAMMARS[name] = _LOADERS[path.suffix](path.read_text())
    return g


def _cases() -> list:
    """(name, system name, its builder's arguments, grammar file,
    sentence, step limit)."""
    default = ParseOptions().step_limit
    out = []

    def add(system, kwargs, grammar, sentence, limit=default):
        label = "/".join([system, *map(str, kwargs.values())])
        out.append((f"{label}:{grammar}:{sentence or '-'}:{limit}", system, kwargs, grammar,
                    sentence, limit))

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


def _golden() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines)


def test_the_digest_file_lists_every_case():
    assert list(_golden()) == [name for name, *_ in CASES]


@pytest.mark.parametrize("name, system, kwargs, grammar, sentence, limit", CASES,
                         ids=[case[0] for case in CASES])
def test_a_fixture_parse_keeps_its_digest(name, system, kwargs, grammar, sentence, limit):
    r = run_case(system, kwargs, grammar, sentence, limit)
    assert not check_soundness(r)
    assert digest(r) == _golden()[name]


if __name__ == "__main__":
    for name, *case in CASES:
        print(f"{name}\t{digest(run_case(*case))}")
