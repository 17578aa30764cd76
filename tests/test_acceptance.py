"""End-to-end acceptance checks, one numbered test per claim.

``pytest tests/test_acceptance.py -v`` prints one pass or fail line
per criterion.  Wherever a chart or a count is asserted, the expected
value comes from an independent oracle computed in this module: the
blind closure, brute-force adjunction enumeration, or bracketing
enumeration, never from the engine under test.
"""

import pathlib
import random
import time

import pytest

from deduce.derivations import (
    extract,
    render_derivation_tree,
    render_parse_tree,
    to_parse_tree,
    tree_yield,
)
from deduce.engine import ParseOptions, check_soundness, naive_closure, parse
from deduce.grammar import load_ccg, load_cf, load_tag, tokenize, validate_cnf
from deduce.store import History
from deduce.systems import (
    FOOT_MODES,
    GrammarNotCnf,
    item_renderer,
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
)
from deduce.terms import VarSource, canonical, subsumes

from replay_rows import (
    BOTTOMUP_ROWS,
    CCG_ROWS,
    EARLEY_ROWS,
    TOPDOWN_ROWS,
    proved_renderings,
)

DATA = pathlib.Path(__file__).parent / "data"


def canonical_chart(result):
    return {canonical(stored.item) for stored in result.store.items()}


def test_01_topdown_replays_the_eleven_rows(toy_grammar):
    t0 = time.perf_counter()
    r = parse(make_topdown(), toy_grammar, tokenize("a program halts"))
    elapsed = time.perf_counter() - t0
    assert r.accepted
    proved = proved_renderings(r)
    for row in TOPDOWN_ROWS:
        assert row in proved
    assert elapsed < 1.0


def test_02_bottomup_replays_the_eleven_rows(toy_grammar):
    # The empty production lets reduce run forever, so the agenda
    # never drains; the goal and all eleven rows appear early.
    r = parse(make_bottomup(), toy_grammar, tokenize("a program halts"),
              ParseOptions(step_limit=2500))
    assert r.accepted
    proved = proved_renderings(r)
    for row in BOTTOMUP_ROWS:
        assert row in proved


def test_03_earley_replays_the_eighteen_rows(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    assert r.accepted and not r.halted_by_limit
    proved = proved_renderings(r)
    for row in EARLEY_ROWS:
        assert row in proved


def test_04_ccg_replays_the_seven_rows(ccg_lexicon):
    r = parse(make_ccg(), ccg_lexicon, tokenize("John really likes bananas"))
    assert r.accepted and not r.halted_by_limit
    proved = proved_renderings(r)
    for row in CCG_ROWS:
        assert row in proved


def test_05_cyk_rejects_non_cnf_and_matches_the_closure(
        toy_grammar, cnf_ab_grammar):
    with pytest.raises(GrammarNotCnf) as exc:
        parse(make_cyk(), toy_grammar, tokenize("a program halts"))
    assert any("OptRel" in line and "epsilon" in line
               for line in exc.value.report)

    w = tokenize("a b")
    r = parse(make_cyk(), cnf_ab_grammar, w)
    assert r.accepted and not r.halted_by_limit
    render = item_renderer("cyk")
    chart = sorted(render(stored.item) for stored in r.store.items())
    assert chart == ["[A, 0, 1]", "[B, 1, 2]", "[S, 0, 2]"]
    assert canonical_chart(r) == naive_closure(make_cyk(), cnf_ab_grammar, w)


# ---- criterion 6: random context-free grammars ----
#
# Generated grammars keep every right-hand side nonempty and force the
# first symbol of each production to be a terminal or a strictly later
# nonterminal, so prediction chains ascend and stacks never grow on a
# length-one reduce: all four systems then terminate without limits.

WORDS = ("a", "b", "c")


def _random_cf_lines(rng):
    n_nts = rng.randint(2, 5)
    nts = [f"N{i}" for i in range(1, n_nts + 1)]
    words = WORDS[: rng.randint(2, 3)]
    lines = [f"start {nts[0]}"]
    for r in range(rng.randint(n_nts, 8)):
        owner = r if r < n_nts else rng.randrange(n_nts)
        later = nts[owner + 1:]
        if later and rng.random() < 0.45:
            first = rng.choice(later)
        else:
            first = f"'{rng.choice(words)}'"
        rest = [
            rng.choice(nts) if rng.random() < 0.4
            else f"'{rng.choice(words)}'"
            for _ in range(rng.randint(0, 2))
        ]
        lines.append(f"{nts[owner]} -> {' '.join([first, *rest])}")
    return lines


def _random_cnf_lines(rng):
    n_nts = rng.randint(2, 5)
    nts = [f"N{i}" for i in range(1, n_nts + 1)]
    words = WORDS[: rng.randint(2, 3)]
    lines = [f"start {nts[0]}"]
    for _ in range(rng.randint(1, 5)):
        owner = rng.randrange(n_nts - 1)
        first = rng.choice(nts[owner + 1:])
        second = rng.choice(nts)
        lines.append(f"{nts[owner]} -> {first} {second}")
    for i, nt in enumerate(nts):
        if i == len(nts) - 1 or rng.random() < 0.8:
            lines.append(f"lex {rng.choice(words)} {nt}")
    return lines


def _derive_string(rng, g, max_len):
    expansions = {}
    for lhs, rhs in g.productions:
        expansions.setdefault(lhs.name, []).append([s.name for s in rhs])
    for word, preterm in g.lexicon:
        expansions.setdefault(preterm.name, []).append([word])
    form = [g.starts[0].name]
    for _ in range(40):
        spot = next((i for i, s in enumerate(form) if s in expansions), None)
        if spot is None:
            break
        form[spot:spot + 1] = rng.choice(expansions[form[spot]])
        if len(form) > max_len:
            return None
    if all(g.is_terminal(s) for s in form):
        return " ".join(form)
    return None


def test_06_random_grammar_charts_equal_the_blind_closure():
    rng = random.Random(20260822)
    t0 = time.perf_counter()
    base = [make_topdown(), make_bottomup(), make_earley()]
    cyk = make_cyk()
    n_grammars = 0
    n_parses = 0
    while n_grammars < 200:
        cnf_batch = n_grammars % 3 == 2
        lines = _random_cnf_lines(rng) if cnf_batch else _random_cf_lines(rng)
        g = load_cf("\n".join(lines))
        words = sorted(g.terminals)

        sentences = []
        for _ in range(6):
            derived = _derive_string(rng, g, max_len=6)
            if derived is not None:
                sentences.append(derived)
                break
        sentences.append(
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))))
        if n_grammars % 17 == 0:
            sentences.append("")

        systems = list(base)
        if not validate_cnf(g):
            systems.append(cyk)
        for sentence in dict.fromkeys(sentences):
            w = tokenize(sentence)
            verdicts = set()
            for system in systems:
                r = parse(system, g, w)
                assert not r.halted_by_limit, (lines, sentence, system.name)
                assert canonical_chart(r) == naive_closure(system, g, w), (
                    lines, sentence, system.name)
                verdicts.add(r.accepted)
            assert len(verdicts) == 1, (lines, sentence)
            n_parses += 1
        n_grammars += 1
    elapsed = time.perf_counter() - t0
    assert n_grammars >= 200
    assert n_parses >= 200
    assert elapsed < 60.0


def test_07_prediction_restriction_tames_the_counting_dcg(abn_grammar):
    r = parse(make_earley(), abn_grammar, tokenize("a b b"),
              ParseOptions(step_limit=500))
    assert r.halted_by_limit and r.pops == 500

    restricted = make_earley(restriction_depth=2)
    for sentence in ("a", "a b", "a b b"):
        r = parse(restricted, abn_grammar, tokenize(sentence))
        assert r.accepted and not r.halted_by_limit, sentence
    r = parse(restricted, abn_grammar, tokenize("a b a"))
    assert not r.accepted and not r.halted_by_limit

    shift_reduce = make_bottomup()
    for sentence in ("a", "a b", "a b b"):
        r = parse(shift_reduce, abn_grammar, tokenize(sentence))
        assert r.accepted and not r.halted_by_limit, sentence
    r = parse(shift_reduce, abn_grammar, tokenize("a b a"))
    assert not r.accepted and not r.halted_by_limit


# ---- criterion 8: tree adjunction vs. brute-force enumeration ----

_FOOT = ("*foot*", None)


def _tag_template(tree):
    def build(addr):
        if addr == tree.foot:
            return _FOOT
        kids = tree.children(addr)
        if not kids:
            return (tree.label(addr), None)
        return (tree.label(addr), tuple(build(k) for k in kids))
    return build(())


def _plant(aux, filler):
    if aux == _FOOT:
        return filler
    label, kids = aux
    if kids is None:
        return aux
    return (label, tuple(_plant(k, filler) for k in kids))


def _sites(tree, label, addr=()):
    found = [addr] if tree[0] == label else []
    if tree[1]:
        for i, kid in enumerate(tree[1]):
            found.extend(_sites(kid, label, addr + (i,)))
    return found


def _adjoin(tree, addr, aux):
    if not addr:
        return _plant(aux, tree)
    label, kids = tree
    return (label, tuple(
        _adjoin(kid, addr[1:], aux) if i == addr[0] else kid
        for i, kid in enumerate(kids)))


def _leaves(tree, out):
    label, kids = tree
    if kids is None:
        if label:
            out.append(label)
    else:
        for kid in kids:
            _leaves(kid, out)
    return out


def _adjunction_yields(g, max_adjunctions):
    """Yields of every derived tree with at most that many adjunctions."""
    auxes = [(a.root_label, _tag_template(a)) for a in g.auxiliaries]
    level = {_tag_template(t) for t in g.initials if t.root_label == g.start}
    yields = {tuple(_leaves(t, [])) for t in level}
    for _ in range(max_adjunctions):
        level = {
            _adjoin(t, addr, aux)
            for t in level
            for root_label, aux in auxes
            for addr in _sites(t, root_label)
        }
        yields |= {tuple(_leaves(t, [])) for t in level}
    return yields


def test_08_tag_acceptance_agrees_with_adjunction_enumeration(
        trip_grammar, counting_grammar):
    t0 = time.perf_counter()
    modes = [make_tag(foot_mode=m) for m in FOOT_MODES]

    for sentence, expected in [("Trip rumbas", True),
                               ("Trip rumbas nimbly", True),
                               ("rumbas Trip", False)]:
        verdicts = [
            parse(m, trip_grammar, tokenize(sentence)).accepted for m in modes
        ]
        assert verdicts == [expected, expected], sentence

    # Every adjunction adds exactly four terminals and the initial tree
    # yields nothing, so on strings of length <= 8 an enumeration bound
    # of three adjunctions decides membership exactly.
    positives = _adjunction_yields(counting_grammar, max_adjunctions=3)
    assert tuple("a a b b c c d d".split()) in positives

    candidates = {" ".join(y) for y in positives if len(y) <= 8}
    for length in range(4):
        for word_tuple in _all_words(length):
            candidates.add(" ".join(word_tuple))
    for total in (4, 8):
        for i in range(total + 1):
            for j in range(total - i + 1):
                for k in range(total - i - j + 1):
                    rest = total - i - j - k
                    candidates.add(" ".join(
                        ["a"] * i + ["b"] * j + ["c"] * k + ["d"] * rest))
    rng = random.Random(8)
    shuffled = "a a b b c c d d".split()
    for _ in range(25):
        rng.shuffle(shuffled)
        candidates.add(" ".join(shuffled))
    for _ in range(20):
        candidates.add(" ".join(
            rng.choice("abcd") for _ in range(rng.randint(1, 8))))

    for sentence in sorted(candidates):
        expected = tuple(sentence.split()) in positives
        verdicts = [
            parse(m, counting_grammar, tokenize(sentence)).accepted
            for m in modes
        ]
        assert verdicts == [expected, expected], sentence
    assert time.perf_counter() - t0 < 30.0


def _all_words(length, alphabet="abcd"):
    if length == 0:
        yield ()
        return
    for prefix in _all_words(length - 1, alphabet):
        for ch in alphabet:
            yield prefix + (ch,)


# ---- criteria 9, 10, 12 run over one shared batch of fixture parses ----

def _fixture_results(toy, cnf, abn, lexicon, trip, counting):
    return [
        parse(make_topdown(), toy, tokenize("a program halts")),
        parse(make_earley(), toy, tokenize("a program halts")),
        parse(make_earley(), toy, tokenize("program halts a")),
        parse(make_cyk(), cnf, tokenize("a b")),
        parse(make_ccg(), lexicon, tokenize("John really likes bananas")),
        parse(make_tag(), trip, tokenize("Trip rumbas nimbly")),
        parse(make_tag(foot_mode="foot_axiom"), trip,
              tokenize("Trip rumbas nimbly")),
        parse(make_tag(), counting, tokenize("a a b b c c d d")),
        parse(make_earley(restriction_depth=2), abn, tokenize("a b b")),
        parse(make_bottomup(), abn, tokenize("a b b")),
    ]


def test_09_no_item_is_subsumed_by_an_earlier_one(
        toy_grammar, cnf_ab_grammar, abn_grammar, ccg_lexicon,
        trip_grammar, counting_grammar):
    source = VarSource(50_000_000)
    for r in _fixture_results(toy_grammar, cnf_ab_grammar, abn_grammar,
                              ccg_lexicon, trip_grammar, counting_grammar):
        stored = list(r.store.items())
        copies = [r.store.renamed(s.index, source) for s in stored]
        for earlier in range(len(copies)):
            for later in range(earlier + 1, len(copies)):
                assert not subsumes(copies[earlier], copies[later]), (
                    r.system.name, stored[earlier].index, stored[later].index)

        before = len(r.store)
        for s in stored:
            if s.item.ground:
                _, added = r.store.enqueue(s.item, History("again", ()))
                assert not added
        assert len(r.store) == before


def test_10_soundness_replay_and_a_tampered_negative_control(
        toy_grammar, cnf_ab_grammar, abn_grammar, ccg_lexicon,
        trip_grammar, counting_grammar):
    for r in _fixture_results(toy_grammar, cnf_ab_grammar, abn_grammar,
                              ccg_lexicon, trip_grammar, counting_grammar):
        assert check_soundness(r) == [], r.system.name

    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    victim = next(
        stored for stored in r.store.items()
        if stored.histories[0].rule_name == "complete"
    )
    victim.histories[0] = History(victim.histories[0].rule_name, (1, 1))
    violations = check_soundness(r)
    assert violations
    assert f"item {victim.index}" in violations[0]


def _bracketings(tokens):
    if len(tokens) == 1:
        return [tokens[0]]
    out = []
    for cut in range(1, len(tokens)):
        for left in _bracketings(tokens[:cut]):
            for right in _bracketings(tokens[cut:]):
                out.append((left, right))
    return out


def _bracketing_tree(b):
    if isinstance(b, str):
        return f"(S {b})"
    return f"(S {_bracketing_tree(b[0])} {_bracketing_tree(b[1])})"


def test_11_derivation_count_matches_bracketing_enumeration(
        ambiguous_grammar, toy_grammar, ccg_lexicon):
    tokens = tuple("a a a".split())
    expected = _bracketings(tokens)
    assert len(expected) == 2

    r = parse(make_cyk(), ambiguous_grammar, tokenize("a a a"))
    derivations = extract(r, limit=10)
    assert len(derivations) == len(expected)
    trees = {render_parse_tree(to_parse_tree(r, d)) for d in derivations}
    assert trees == {_bracketing_tree(b) for b in expected}

    # Every bracketing of a^5 surfaces under the limit of 16, on the
    # dotted-item and the shift-reduce charts as on the span chart.
    tokens = ("a",) * 5
    expected = _bracketings(tokens)
    assert len(expected) == 14
    for system in (make_cyk(), make_earley(), make_bottomup()):
        r5 = parse(system, ambiguous_grammar, tokenize(" ".join(tokens)))
        derivations = extract(r5, limit=16)
        assert len(derivations) == len(expected), system.name
        trees = {render_parse_tree(to_parse_tree(r5, d)) for d in derivations}
        assert trees == {_bracketing_tree(b) for b in expected}, system.name

    for result in [
        r,
        parse(make_earley(), toy_grammar, tokenize("a program halts")),
        parse(make_ccg(), ccg_lexicon, tokenize("John really likes bananas")),
    ]:
        sentence = list(result.input.tokens)
        for d in extract(result, limit=8):
            assert tree_yield(to_parse_tree(result, d)) == sentence


def test_12_reruns_are_byte_identical():
    jobs = [
        (make_earley, load_cf, "toy.cf", "a program halts"),
        (make_cyk, load_cf, "ambiguous.cf", "a a a"),
        (make_ccg, load_ccg, "lexicon.ccg", "John really likes bananas"),
        (make_tag, load_tag, "trip.tag", "Trip rumbas nimbly"),
        (lambda: make_earley(restriction_depth=2), load_cf, "abn.dcg", "a b b b"),
    ]
    for build, loader, name, sentence in jobs:
        outputs = []
        for _ in range(2):
            g = loader((DATA / name).read_text())
            r = parse(build(), g, tokenize(sentence))
            rendered = [
                render_derivation_tree(r, d) for d in extract(r, limit=8)
            ]
            outputs.append(r.dump() + "\n".join(rendered))
        assert outputs[0] == outputs[1], name
