"""Tests of the benchmark's own oracles.

    python3 -m pytest perfbench -q

The closed forms must agree with brute-force enumeration for small n,
and each recognizer must give the verdicts read off the fixture
grammars by hand.  Nothing here imports ``deduce``.
"""

import itertools
import random
from pathlib import Path

import pytest

import oracles

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def _text(name):
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def ambiguous():
    return oracles.read_plain_cf(_text("ambiguous.cf"))


@pytest.mark.parametrize("n", range(1, 9))
def test_cyk_closed_form_matches_enumeration(ambiguous, n):
    items, justifications = oracles.cyk_closure(ambiguous, ["a"] * n)
    assert (len(items), len(justifications)) == oracles.cyk_ambiguous_counts(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_earley_closed_form_matches_enumeration(ambiguous, n):
    items, justifications = oracles.earley_closure(ambiguous, ["a"] * n)
    assert (len(items), len(justifications)) == oracles.earley_ambiguous_counts(n)


def test_closed_forms_at_the_benchmark_sizes():
    # The long-chart Earley a^70 parse keeps 64,804 of these today.
    assert oracles.earley_ambiguous_counts(70) == (5183, 64895)
    assert oracles.cyk_ambiguous_counts(40) == (820, 10700)


def _bracketings(k):
    """Binary trees over k leaves, enumerated."""
    if k == 1:
        return ["a"]
    return [f"({left} {right})" for split in range(1, k)
            for left in _bracketings(split) for right in _bracketings(k - split)]


@pytest.mark.parametrize("k", range(0, 7))
def test_catalan_counts_bracketings(k):
    assert oracles.catalan(k) == len(_bracketings(k + 1))


CF_CASES = [
    ("toy.cf", "a program halts", True),
    ("toy.cf", "Terry writes a program", True),
    ("toy.cf", "a program that halts halts", True),
    ("toy.cf", "Shrdlu writes Terry", True),
    ("toy.cf", "Terry writes", False),
    ("toy.cf", "program a halts", False),
    ("toy.cf", "", False),
    ("cnf_ab.cf", "a b", True),
    ("cnf_ab.cf", "a", False),
    ("cnf_ab.cf", "b a", False),
    ("ambiguous.cf", "a", True),
    ("ambiguous.cf", "a a a a a", True),
    ("ambiguous.cf", "", False),
    ("ambiguous.cf", "a b a", False),
]


@pytest.mark.parametrize("grammar,sentence,expected", CF_CASES)
def test_cf_recognizer_on_fixtures(grammar, sentence, expected):
    g = oracles.read_plain_cf(_text(grammar))
    assert oracles.cf_recognize(g, sentence.split()) == expected


def test_cf_samples_are_members():
    g = oracles.read_plain_cf(_text("toy.cf"))
    rng = random.Random(3)
    samples = [oracles.cf_sample(g, rng, 7) for _ in range(40)]
    assert any(samples)
    for tokens in filter(None, samples):
        assert len(tokens) <= 7
        assert oracles.cf_recognize(g, tokens)


@pytest.mark.parametrize("sentence,expected", [
    ("a", True), ("a b", True), ("a b b b b", True),
    ("", False), ("b", False), ("a a", False), ("a b a", False),
])
def test_abn_membership(sentence, expected):
    assert oracles.abn_member(sentence.split()) == expected


@pytest.mark.parametrize("sentence,expected", [
    ("John likes bananas", True),
    ("John really likes bananas", True),
    ("John really really likes bananas", True),
    ("bananas likes John", True),
    ("John likes", False),
    ("likes John bananas", False),
    ("John bananas", False),
    ("", False),
])
def test_ccg_recognizer_on_the_lexicon(sentence, expected):
    start, lexicon = oracles.read_ccg(_text("lexicon.ccg"))
    assert oracles.ccg_recognize(start, lexicon, sentence.split()) == expected


def test_ccg_composition_rules():
    s, np = "S", "NP"
    vp = ("\\", s, np)
    # really likes: (S\NP)/(S\NP) composed with (S\NP)/NP
    assert ("/", vp, np) in oracles._ccg_combine(("/", vp, vp), ("/", vp, np))
    assert oracles._ccg_combine(np, vp) == [s]


@pytest.fixture(scope="module")
def counting_language():
    return oracles.tag_language(*oracles.read_tag(_text("counting.tag")), max_len=8)


@pytest.mark.parametrize("sentence,expected", [
    ("", True),
    ("a b c d", True),
    ("a a b b c c d d", True),
    ("a b d c", False),
    ("d c b a", False),
    ("a b c", False),
    ("a a b c d d", False),
])
def test_tag_enumeration_on_counting(counting_language, sentence, expected):
    assert (tuple(sentence.split()) in counting_language) == expected


def test_counting_language_has_equal_letter_counts(counting_language):
    for y in counting_language:
        assert len(y) % 4 == 0
        assert y.count("a") == y.count("b") == y.count("c") == y.count("d")


@pytest.mark.parametrize("sentence,expected", [
    ("Trip rumbas", True),
    ("Trip rumbas nimbly", True),
    ("Trip rumbas nimbly nimbly", True),
    ("rumbas Trip", False),
    ("Trip nimbly rumbas", False),
    ("Trip", False),
])
def test_tag_enumeration_on_trip(sentence, expected):
    language = oracles.tag_language(*oracles.read_tag(_text("trip.tag")), max_len=4)
    assert (tuple(sentence.split()) in language) == expected


def test_tag_enumeration_is_exact_up_to_its_bound():
    start, initials, auxes = oracles.read_tag(_text("trip.tag"))
    small = oracles.tag_language(start, initials, auxes, max_len=3)
    large = oracles.tag_language(start, initials, auxes, max_len=5)
    assert small == {y for y in large if len(y) <= 3}
    for k in range(4):
        assert ("Trip", "rumbas", *(["nimbly"] * k)) in large


def test_recognizers_agree_on_every_short_ab_string():
    cnf = oracles.read_plain_cf(_text("cnf_ab.cf"))
    amb = oracles.read_plain_cf(_text("ambiguous.cf"))
    for length in range(5):
        for tokens in itertools.product("ab", repeat=length):
            tokens = list(tokens)
            assert oracles.cf_recognize(cnf, tokens) == (tokens == ["a", "b"])
            assert oracles.cf_recognize(amb, tokens) == (length > 0 and set(tokens) == {"a"})
