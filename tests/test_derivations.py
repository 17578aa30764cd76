"""Forest unpacking and parse-tree reconstruction."""

import itertools

import pytest

from deduce.derivations import (
    DerivationError,
    DerivationTree,
    UnsupportedSystemError,
    extract,
    render_derivation_tree,
    render_parse_tree,
    to_parse_tree,
    tree_yield,
)
from deduce.engine import ParseOptions, parse
from deduce.grammar import tokenize
from deduce.store import ItemStore
from deduce.systems import (
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
)

TOY_TREE = "(S (NP (Det a) (N program) (OptRel)) (VP (IV halts)))"


def toy_result(system, toy_grammar, **opts):
    return parse(system, toy_grammar, tokenize("a program halts"),
                 ParseOptions(**opts) if opts else None)


def test_earley_parse_tree_matches_the_expected_bracketing(toy_grammar):
    r = toy_result(make_earley(), toy_grammar)
    [d] = extract(r)
    assert render_parse_tree(to_parse_tree(r, d)) == TOY_TREE


def test_topdown_parse_tree_matches_the_expected_bracketing(toy_grammar):
    r = toy_result(make_topdown(), toy_grammar)
    trees = {render_parse_tree(to_parse_tree(r, d)) for d in extract(r)}
    assert TOY_TREE in trees


def test_bottomup_parse_tree_matches_the_expected_bracketing(toy_grammar):
    r = toy_result(make_bottomup(), toy_grammar, step_limit=2500)
    trees = {render_parse_tree(to_parse_tree(r, d)) for d in extract(r)}
    assert TOY_TREE in trees


def test_extract_without_goals_is_empty(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("halts halts"))
    assert extract(r) == []


def test_extract_respects_the_limit(ambiguous_grammar):
    r = parse(make_earley(), ambiguous_grammar, tokenize("a a a"))
    assert len(extract(r, limit=1)) == 1


def test_ambiguous_string_has_two_parse_readings(ambiguous_grammar):
    # Dotted-item proofs can differ in their prediction justifications
    # alone; extraction unpacks only the first proof below a prediction,
    # so each derivation is a distinct reading.
    r = parse(make_earley(), ambiguous_grammar, tokenize("a a a"))
    ds = extract(r, limit=50)
    assert len(ds) == 2
    trees = {render_parse_tree(to_parse_tree(r, d)) for d in ds}
    assert trees == {
        "(S (S a) (S (S a) (S a)))",
        "(S (S (S a) (S a)) (S a))",
    }


def test_cyk_forest_agrees_with_earley_on_ambiguity(ambiguous_grammar):
    r = parse(make_cyk(), ambiguous_grammar, tokenize("a a a"))
    ds = extract(r, limit=10)
    assert len(ds) == 2
    trees = {render_parse_tree(to_parse_tree(r, d)) for d in ds}
    assert trees == {
        "(S (S a) (S (S a) (S a)))",
        "(S (S (S a) (S a)) (S a))",
    }


def test_yields_recover_the_input(toy_grammar, ambiguous_grammar, ccg_lexicon):
    cases = [
        (make_earley(), toy_grammar, "a program halts"),
        (make_cyk(), ambiguous_grammar, "a a a"),
        (make_ccg(), ccg_lexicon, "John really likes bananas"),
    ]
    for system, grammar, sentence in cases:
        w = tokenize(sentence)
        r = parse(system, grammar, w)
        for d in extract(r, limit=10):
            assert tree_yield(to_parse_tree(r, d)) == list(w.tokens)


def test_ccg_parse_tree_is_category_labelled(ccg_lexicon):
    r = parse(make_ccg(), ccg_lexicon, tokenize("John likes bananas"))
    [d] = extract(r)
    rendered = render_parse_tree(to_parse_tree(r, d))
    assert rendered == "(S (NP John) (S\\NP ((S\\NP)/NP likes) (NP bananas)))"


def test_derivation_rendering_nests_rule_applications(toy_grammar):
    r = toy_result(make_earley(), toy_grammar)
    [d] = extract(r)
    text = render_derivation_tree(r, d)
    assert text.startswith("complete[[0, S' -> S ., 3]](initial[[0, S' -> . S, 0]]")
    assert "scan[[0, Det -> a ., 1]](predict[[0, Det -> . a, 0]]" in text


def test_tag_derivations_render_but_have_no_parse_tree(trip_grammar):
    r = parse(make_tag(), trip_grammar, tokenize("Trip rumbas nimbly"))
    ds = extract(r, limit=5)
    assert ds
    text = render_derivation_tree(r, ds[0])
    assert "adjoin[" in text
    with pytest.raises(UnsupportedSystemError):
        to_parse_tree(r, ds[0])


def test_chain_fold_rejects_branching_derivations(toy_grammar):
    r = toy_result(make_topdown(), toy_grammar)
    fake = DerivationTree("scan", 1, (
        DerivationTree("initial", 1), DerivationTree("initial", 1),
    ))
    with pytest.raises(DerivationError, match="chain"):
        to_parse_tree(r, fake)


# Rules whose subtrees the parse-tree fold ignores, per system.
REFERENCE_IGNORED = {"earley": {"initial", "predict"}}


def reference_extract(result, limit):
    """The plain recursion that re-walks every shared sub-forest."""
    store = result.store
    ignored = REFERENCE_IGNORED.get(result.system.name, set())

    def expand(hist, index, path):
        if not hist.antecedents:
            yield DerivationTree(hist.rule_name, index)
            return
        cap = 1 if hist.rule_name in ignored else limit
        pools = [list(itertools.islice(walk(a, path), cap))
                 for a in hist.antecedents]
        for combo in itertools.product(*pools):
            yield DerivationTree(hist.rule_name, index, combo)

    def fair(gens):
        while gens:
            live = []
            for g in gens:
                for tree in itertools.islice(g, 1):
                    yield tree
                    live.append(g)
            gens = live

    def walk(index, path):
        if index in path:
            return
        hists = store.get(index).histories
        trees = fair([expand(h, index, path | {index}) for h in hists])
        if all(h.rule_name in ignored for h in hists):
            trees = itertools.islice(trees, 1)
        yield from trees

    if not result.goal_indices:
        return []
    return list(itertools.islice(walk(result.goal_indices[0], frozenset()), limit))


def test_memoized_extract_equals_the_plain_recursion(
        ambiguous_grammar, toy_grammar, abn_grammar, ccg_lexicon,
        trip_grammar, counting_grammar):
    def a(n):
        return " ".join(["a"] * n)

    cases = []
    for n in range(1, 9):
        cases.append((make_cyk(), ambiguous_grammar, a(n), None))
        cases.append((make_bottomup(), ambiguous_grammar, a(n), None))
    for n in range(1, 6):
        cases.append((make_earley(), ambiguous_grammar, a(n), None))
    cases += [
        (make_topdown(), toy_grammar, "a program halts", None),
        (make_earley(), toy_grammar, "a program halts", None),
        (make_ccg(), ccg_lexicon, "John really likes bananas", None),
        (make_earley(restriction_depth=2), abn_grammar, "a b b", 2000),
        (make_bottomup(), abn_grammar, "a b b", None),
    ]
    for mode in ("foot_axiom", "complete_foot"):
        cases.append((make_tag(mode), trip_grammar, "Trip rumbas nimbly", None))
        cases.append((make_tag(mode), counting_grammar, "a a b b c c d d", None))
    for system, grammar, sentence, steps in cases:
        opts = ParseOptions(step_limit=steps) if steps else None
        r = parse(system, grammar, tokenize(sentence), opts)
        for limit in (1, 2, 8, 16):
            got = [render_derivation_tree(r, d) for d in extract(r, limit=limit)]
            want = [render_derivation_tree(r, d) for d in reference_extract(r, limit)]
            assert got == want, (system.name, sentence, limit)
            # ``deduce derive`` asks for one tree past its limit to learn
            # whether the limit cut the forest, and prints the first ``limit``.
            longer = [render_derivation_tree(r, d) for d in extract(r, limit=limit + 1)]
            assert longer[:limit] == got, (system.name, sentence, limit)


def test_extract_reads_each_stored_item_a_bounded_number_of_times(
        ambiguous_grammar, monkeypatch):
    r = parse(make_cyk(), ambiguous_grammar, tokenize(" ".join(["a"] * 12)))
    calls = []
    get = ItemStore.get

    def counting_get(self, index):
        calls.append(index)
        return get(self, index)

    monkeypatch.setattr(ItemStore, "get", counting_get)
    assert len(extract(r, limit=16)) == 16
    assert len(calls) <= 4 * len(r.store)


def test_earley_limit_is_spent_on_distinct_readings(ambiguous_grammar):
    r = parse(make_earley(), ambiguous_grammar, tokenize(" ".join(["a"] * 12)))
    ds = extract(r, limit=16)
    assert len(ds) == 16
    assert len({render_parse_tree(to_parse_tree(r, d)) for d in ds}) == 16
