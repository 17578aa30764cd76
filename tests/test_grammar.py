"""Loader behaviour for the three grammar formats, and the fact tables
that answer the grammar relations."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from deduce.grammar import (
    CcgLexicon,
    FactTable,
    GrammarError,
    backward,
    forward,
    load_ccg,
    load_cf,
    load_tag,
    node_ref,
    parse_category,
    render_category,
    render_ccg,
    render_cf,
    render_tag,
    tokenize,
    validate_cnf,
)
from deduce.terms import (
    Compound,
    Const,
    Var,
    VarSource,
    canonical,
    parse_term,
    rename_with,
    render_term,
    space_source,
    term_vars,
    unify,
)

from conftest import read


# ---- tokenizing input ----

def test_tokenize_splits_on_whitespace():
    w = tokenize("a program  halts\n")
    assert w.tokens == ("a", "program", "halts")
    assert w.n == 3


def _rows(owner, name) -> list:
    return [render_term(row) for row in owner.relations[name].rows]


def test_the_input_relations():
    w = tokenize("a program halts")
    assert _rows(w, "word") == ["word(0, 1, a)", "word(1, 2, program)", "word(2, 3, halts)"]
    assert _rows(w, "length") == ["length(3)"]
    assert _rows(w, "position") == [f"position({i})" for i in range(4)]
    assert _rows(tokenize(""), "position") == ["position(0)"]


def test_tokenize_empty():
    assert tokenize("").n == 0


# ---- context-free / DCG ----

def test_toy_grammar_counts(toy_grammar):
    assert len(toy_grammar.productions) == 7
    assert len(toy_grammar.lexicon) == 7
    assert toy_grammar.starts == (Const("S"),)
    assert toy_grammar.is_terminal("a")
    assert toy_grammar.is_terminal("Terry")
    assert not toy_grammar.is_terminal("NP")


def test_toy_epsilon_production(toy_grammar):
    assert (Const("OptRel"), ()) in toy_grammar.productions


def test_abn_quoted_literals_become_lexical_entries(abn_grammar):
    assert len(abn_grammar.productions) == 3
    assert len(abn_grammar.lexicon) == 2
    words = [w for w, _ in abn_grammar.lexicon]
    assert words == ["b", "a"]  # first-use order in the rules
    assert abn_grammar.productions[1][0] == parse_term("r(X, N)")


def test_cf_missing_start():
    with pytest.raises(GrammarError, match="start"):
        load_cf("S -> NP VP\nlex a Det\n")


def test_cf_empty_grammar():
    with pytest.raises(GrammarError, match="empty"):
        load_cf("start S\n")


def test_cf_syntax_error_carries_line_number():
    with pytest.raises(GrammarError, match="line 3"):
        load_cf("start S\nS -> A\n?? nonsense\nlex a A\n")


def test_cf_start_without_rules_warns():
    g = load_cf("start S T\nS -> A\nlex a A\n")
    assert any("T" in w for w in g.warnings)


def test_cf_round_trip(toy_grammar, abn_grammar):
    for g in (toy_grammar, abn_grammar):
        assert load_cf(render_cf(g)) == g


def test_validate_cnf_flags_toy_grammar(toy_grammar):
    report = validate_cnf(toy_grammar)
    assert any("OptRel ->" in line and "epsilon" in line for line in report)
    assert any("NP -> Det N OptRel" in line for line in report)
    assert any("NP -> PN" in line for line in report)


def test_validate_cnf_accepts_cnf(cnf_ab_grammar):
    assert validate_cnf(cnf_ab_grammar) == []


def test_validate_cnf_flags_inline_terminal():
    g = load_cf("start S\nS -> A B\nA -> a B\nlex a A\nlex b B\n")
    report = validate_cnf(g)
    assert any("terminals" in line for line in report)


# ---- CCG ----

def test_ccg_lexicon_shape(ccg_lexicon):
    assert ccg_lexicon.start == Const("S")
    s, np = Const("S"), Const("NP")
    vp = backward(s, np)
    assert ccg_lexicon.entries == (("John", np), ("bananas", np),
                                   ("likes", forward(vp, np)), ("really", forward(vp, vp)))
    assert _rows(ccg_lexicon, "lex")[:3] == [
        "lex(John, NP)", "lex(bananas, NP)", "lex(likes, /(\\(S, NP), NP))"]
    assert _rows(ccg_lexicon, "is_start") == ["is_start(S)"]


def test_category_parsing_left_associative():
    assert parse_category("S\\NP/NP") == parse_category("(S\\NP)/NP")
    assert parse_category("S/(NP/NP)") != parse_category("S/NP/NP")


def test_category_rendering_parenthesizes_nesting():
    cat = parse_category("(S\\NP)/(S\\NP)")
    assert render_category(cat) == "(S\\NP)/(S\\NP)"
    assert render_category(parse_category("S\\NP")) == "S\\NP"
    assert parse_category(render_category(cat)) == cat


def test_ccg_round_trip(ccg_lexicon):
    assert load_ccg(render_ccg(ccg_lexicon)) == ccg_lexicon


def test_ccg_errors():
    with pytest.raises(GrammarError, match="start"):
        load_ccg("John : NP\n")
    with pytest.raises(GrammarError, match="empty"):
        load_ccg("start S\n")
    with pytest.raises(GrammarError, match="parenthesis"):
        load_ccg("start S\nJohn : (S\\NP\n")


# ---- TAG ----

def test_trip_tree_shapes(trip_grammar):
    assert trip_grammar.start == "S"
    alpha, beta = trip_grammar.trees
    assert alpha.kind == "initial"
    assert alpha.root_label == "S"
    assert alpha.label((1,)) == "NP"
    assert alpha.label((1, 1)) == "Trip"
    assert alpha.label((2, 1, 1)) == "rumbas"
    assert alpha.foot is None

    assert beta.name == "beta"
    assert beta.kind == "auxiliary"
    assert beta.foot == (1,)
    assert beta.label(beta.foot) == "VP"
    assert beta.label((2, 1)) == "nimbly"


def test_tag_relations(trip_grammar):
    # Only the VP nodes take the VP-rooted beta.
    assert _rows(trip_grammar, "adjoinable") == [
        "adjoinable(node(alpha, [2]), beta)", "adjoinable(node(beta, []), beta)",
        "adjoinable(node(beta, [1]), beta)"]
    # The foot is no leaf.
    assert _rows(trip_grammar, "leaf") == [
        "leaf(node(alpha, [1, 1]), Trip)", "leaf(node(alpha, [1, 1, 2]), rumbas)",
        "leaf(node(beta, [1, 2]), nimbly)"]
    assert _rows(trip_grammar, "initial_root") == ["initial_root(node(alpha, []), S)"]
    assert _rows(trip_grammar, "is_start") == ["is_start(S)"]


def test_tag_epsilon_leaf(counting_grammar):
    alpha = counting_grammar.trees[0]
    assert alpha.nodes[(1,)] == ""
    assert not alpha.children((1,))
    [empty] = counting_grammar.relations["leaf"].rows[:1]
    assert empty == Compound("leaf", (node_ref("alpha", (1,)), Const("")))


def test_tag_round_trip(trip_grammar, counting_grammar):
    for g in (trip_grammar, counting_grammar):
        assert load_tag(render_tag(g)) == g


def test_tag_errors():
    with pytest.raises(GrammarError, match="binary"):
        load_tag("start S\ninitial a (S x y z)\n")
    with pytest.raises(GrammarError, match="foot"):
        load_tag("start S\ninitial a (S S* b)\n")
    with pytest.raises(GrammarError, match="exactly one foot"):
        load_tag("start S\ninitial a (S x)\nauxiliary b (S x y)\n")
    with pytest.raises(GrammarError, match="differs from root"):
        load_tag("start S\ninitial a (S x)\nauxiliary b (S T* y)\n")
    with pytest.raises(GrammarError, match="duplicate"):
        load_tag("start S\ninitial a (S x)\ninitial a (S y)\n")


def test_grammar_fixture_files_give_expected_types(ccg_lexicon):
    assert isinstance(ccg_lexicon, CcgLexicon)
    assert "John" in read("lexicon.ccg")


# ---- fact tables ----

_fact_terms = st.recursive(
    st.sampled_from([Const("a"), Const("b"), Var("X"), Var("Y")]),
    lambda sub: st.builds(lambda *a: Compound("f", a), sub)
    | st.builds(lambda *a: Compound("g", a), sub, sub),
    max_leaves=3,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_fact_terms, _fact_terms), max_size=8), st.data())
def test_indexed_answers_equal_a_linear_scan(rows, data):
    # Oracle: every row, renamed apart, in row order.  The answers the
    # index gives that unify with the arguments must be the same, up to
    # renaming, in the same order.  An argument is often one of the
    # rows' own, so that lookups hit.
    held = [a for row in rows for a in row]
    arg = st.one_of(_fact_terms, st.sampled_from(held)) if held else _fact_terms
    args = data.draw(st.tuples(arg, arg))
    table = FactTable("r", rows, space_source("facts"))
    probe = Compound("r", args)
    answers = list(table.answers(args))
    source = VarSource(5000)
    scanned = [rename_with(Compound("r", row), {}, source) for row in rows]

    def unifying(found):
        return [canonical(a) for a in found if unify(probe, a) is not None]

    # An answer is one of the table's rows itself.
    assert all(any(a is row for row in table.rows) for a in answers)
    assert unifying(answers) == unifying(scanned)
    # A ground row answers only when it holds the first ground argument.
    first = next((k for k, a in enumerate(args) if a.ground), None)
    for a in answers:
        if first is not None and a.ground:
            assert a.args[first] == args[first]
    # Non-ground rows are renamed apart when the table is built: no two
    # answers, and no answer and the arguments, share a variable.
    seen = [set(term_vars(probe))] + [set(term_vars(a)) for a in answers]
    for one, other in itertools.combinations(seen, 2):
        assert not one & other


def test_a_grammar_builds_its_relations_once(toy_grammar):
    assert toy_grammar.relations is toy_grammar.relations
    assert sorted(toy_grammar.relations) == ["is_start", "lex", "production", "reduction"]
