"""System builders, side-condition evaluators, item renderers."""

import pytest

import deduce.systems
from deduce.cli import build_arg_parser, build_system
from deduce.engine import check_soundness, parse
from deduce.grammar import CfGrammar, load_ccg, load_cf, load_tag, parse_category, tokenize
from deduce.systems import (
    BOTTOM,
    DeductionSystem,
    GrammarNotCnf,
    ItemPremise,
    Rule,
    SYSTEM_NAMES,
    SideCondition,
    SystemAuthoringError,
    UnknownBuiltinError,
    eval_side_condition,
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
    node_ref,
    render_item,
    system_for,
)
from deduce.terms import (
    Compound,
    Const,
    NIL,
    Var,
    VarSource,
    cons,
    mklist,
    parse_term,
    render_term,
    space_source,
    subsumes,
    term_vars,
    variant,
)

from conftest import read
from test_chart_identity import _cases


def t(text):
    return parse_term(text)


def lst(*texts):
    return mklist([t(x) for x in texts])


def syms(*names):
    """Grammar-symbol list; uppercase names must stay constants here."""
    return mklist([Const(n) for n in names])


def er(i, lhs, before, after, j):
    return Compound("er", (Const(i), lhs, before, after, Const(j)))


# ---- clause inventories ----

def test_each_system_compiles_one_clause_per_trigger_choice():
    assert len(make_topdown().clauses) == 2
    assert len(make_bottomup().clauses) == 2
    assert len(make_earley().clauses) == 4
    assert len(make_cyk().clauses) == 2
    assert len(make_ccg().clauses) == 12
    assert len(make_tag().clauses) == 7
    assert len(make_tag(foot_mode="foot_axiom").clauses) == 6


def _rule(system, name):
    [rule] = [r for r in system.rules if r.name == name]
    return rule


def test_two_antecedent_rules_cover_both_trigger_slots():
    earley = make_earley()
    assert [c.trigger_slot for c in _rule(earley, "complete").clauses] == [0, 1]
    tag = make_tag()
    assert [c.trigger_slot for c in _rule(tag, "complete_binary").clauses] == [0, 1]
    assert [c.trigger_slot for c in _rule(tag, "adjoin").clauses] == [0, 1]


def _listing(system):
    """One line per compiled clause: rule, trigger slot and antecedent
    count, trigger, premises in evaluation order, consequent."""
    lines = []
    for c in system.clauses:
        premises = []
        for p in c.premises:
            if isinstance(p, SideCondition):
                premises.append(render_term(Compound(p.builtin, p.args)))
            else:
                premises.append(f"{render_term(p.pattern)} @{p.slot}")
        transform = " +transform" if c.transform is not None else ""
        lines.append(
            f"{c.rule_name} {c.trigger_slot}/{c.n_antecedents}: {render_term(c.trigger)} | "
            f"{'; '.join(premises)} => {render_term(c.consequent)}{transform}"
        )
    return lines


def test_compiled_clauses_are_frozen():
    # The listing was captured from the hand-written per-trigger clauses
    # the rules replaced; the same clauses in the same order give the
    # same charts, fresh-variable numbers included.
    systems = [(name, system_for(name)) for name in SYSTEM_NAMES] + [
        ("earley restricted", make_earley(restriction_depth=2)),
        ("tag foot_axiom", make_tag(foot_mode="foot_axiom")),
    ]
    got = [line for label, s in systems for line in [f"# {label}"] + _listing(s)]
    assert got == read("compiled_clauses.txt").splitlines()


def test_unbound_consequent_variable_is_rejected_at_construction():
    with pytest.raises(SystemAuthoringError, match="broken"):
        Rule("broken", [t("i(X)")], t("o(X, Y)"))
    # A variable bound only by a later antecedent is bound in every clause.
    rule = Rule("join", [t("i(X)"), t("j(Y)")], t("o(X, Y)"))
    assert [c.trigger_slot for c in rule.clauses] == [0, 1]


def test_a_rule_without_antecedents_is_rejected():
    with pytest.raises(SystemAuthoringError, match="no antecedent"):
        Rule("void", [SideCondition("succ", (Const(0), Var("X")))], t("o(X)"))


def test_duplicate_rule_names_are_rejected():
    # Justifications name their rule, so the soundness replay could
    # only ever find one of two rules called r.
    with pytest.raises(SystemAuthoringError, match=r"\['r'\]"):
        DeductionSystem(
            name="twice",
            grammar_class=object,
            rules=(Rule("r", [t("p(X)")], t("q(X)")), Rule("r", [t("s(X)")], t("u(X)"))),
            axioms=lambda grammar, w: [t("p(a)"), t("s(b)")],
            goal_patterns=lambda grammar, w: [],
        )
    # Axiom justifications are named "initial".
    with pytest.raises(SystemAuthoringError, match="initial"):
        DeductionSystem(
            name="axiom_name",
            grammar_class=object,
            rules=(Rule("initial", [t("p(X)")], t("q(X)")),),
            axioms=lambda grammar, w: [t("p(a)")],
            goal_patterns=lambda grammar, w: [],
        )
    renamed = DeductionSystem(
        name="apart",
        grammar_class=object,
        rules=(Rule("r", [t("p(X)")], t("q(X)")), Rule("r2", [t("s(X)")], t("u(X)"))),
        axioms=lambda grammar, w: [t("p(a)"), t("s(b)")],
        goal_patterns=lambda grammar, w: [],
    )
    assert check_soundness(parse(renamed, None, tokenize(""))) == []


def test_instantiate_renames_every_clause_variable():
    clause = _rule(make_earley(), "complete").clauses[0]
    src = VarSource()
    copies = [clause.instantiate(src) for _ in range(2)]

    def variables(copy):
        trigger, premises, consequent = copy
        terms = [trigger, consequent] + [p.pattern for p in premises]
        return {v for term in terms for v in term_vars(term)}

    trig1, prem1, _ = copies[0]
    assert variant(trig1, clause.trigger)
    assert variant(trig1, copies[1][0]) and trig1 != copies[1][0]
    assert len(variables(copies[0])) == 8
    assert variables(copies[0]).isdisjoint(variables(copies[1]))
    assert prem1[0].slot == 1


def _premise_terms(premises):
    return [p.pattern if isinstance(p, ItemPremise) else mklist(p.args) for p in premises]


def test_compiled_clauses_use_only_the_clause_space():
    # The engine binds into these copies in place; their variables come
    # from a space that no stored item, grammar term or parse draws from.
    src = space_source("clause")
    space = {src.fresh().id for _ in range(64)}
    systems = [make_topdown(), make_bottomup(), make_earley(restriction_depth=2),
               make_cyk(), make_ccg(), make_tag()]
    for clause in (c for system in systems for c in system.clauses):
        trigger, premises, consequent = clause.compiled
        compiled = mklist([trigger, consequent] + _premise_terms(premises))
        written = mklist([clause.trigger, clause.consequent] + _premise_terms(clause.premises))
        assert set(term_vars(compiled)) <= space, clause.rule_name
        assert variant(compiled, written)
        assert [p.slot for p in premises if isinstance(p, ItemPremise)] == [
            p.slot for p in clause.premises if isinstance(p, ItemPremise)
        ]


def test_unknown_system_name():
    with pytest.raises(ValueError, match="unknown system"):
        system_for("glr")


def test_system_for_shares_a_system_per_argument_list():
    for name in SYSTEM_NAMES:
        assert system_for(name) is system_for(name)
    # An argument left out counts as its default.
    assert system_for("earley") is system_for("earley", restriction_depth=None)
    assert system_for("tag") is system_for("tag", foot_mode="complete_foot")
    # The CLI asks for the same systems.
    parser = build_arg_parser()
    for name in ("earley", "tag"):
        args = parser.parse_args(["parse", "--system", name, "--grammar", "g.cf"])
        assert build_system(args) is system_for(name)
    assert system_for("earley", restriction_depth=2) is system_for("earley", restriction_depth=2)
    assert system_for("earley", restriction_depth=2) is not system_for("earley", restriction_depth=3)
    assert system_for("earley", restriction_depth=2) is not system_for("earley")
    assert system_for("tag", foot_mode="foot_axiom") is not system_for("tag")
    assert system_for("tag", foot_mode="foot_axiom") is not system_for(
        "tag", foot_mode="complete_foot"
    )
    restricted = system_for("earley", restriction_depth=2).clauses
    assert [c.transform is not None for c in restricted].count(True) == 1


def test_system_names_follow_the_builder_table():
    assert SYSTEM_NAMES == ("topdown", "bottomup", "earley", "cyk", "ccg", "tag")
    assert [system_for(name).name for name in SYSTEM_NAMES] == list(SYSTEM_NAMES)


# ---- axioms and goals ----

def test_topdown_axioms_and_goals(toy_grammar):
    w = tokenize("a program halts")
    sys = make_topdown()
    axioms = sys.axioms(toy_grammar, w)
    assert [render_item("topdown", a) for a in axioms] == ["[. S, 0]"]
    goals = sys.goal_patterns(toy_grammar, w)
    assert [render_item("topdown", g) for g in goals] == ["[., 3]"]


def test_bottomup_axioms_and_goals(toy_grammar):
    w = tokenize("a program halts")
    sys = make_bottomup()
    assert [render_item("bottomup", a) for a in sys.axioms(toy_grammar, w)] == ["[., 0]"]
    assert [render_item("bottomup", g) for g in sys.goal_patterns(toy_grammar, w)] == ["[S ., 3]"]


def test_earley_axioms_wrap_each_start_symbol(toy_grammar):
    w = tokenize("a program halts")
    sys = make_earley()
    axioms = sys.axioms(toy_grammar, w)
    assert [render_item("earley", a) for a in axioms] == ["[0, S' -> . S, 0]"]
    goals = sys.goal_patterns(toy_grammar, w)
    assert [render_item("earley", g) for g in goals] == ["[0, S' -> S ., 3]"]


def test_cyk_axioms_are_lexical_spans(cnf_ab_grammar):
    w = tokenize("a b")
    sys = make_cyk()
    axioms = sys.axioms(cnf_ab_grammar, w)
    assert [render_item("cyk", a) for a in axioms] == ["[A, 0, 1]", "[B, 1, 2]"]
    assert [render_item("cyk", g) for g in sys.goal_patterns(cnf_ab_grammar, w)] == ["[S, 0, 2]"]


def test_cyk_rejects_a_grammar_outside_normal_form(toy_grammar):
    sys = make_cyk()
    with pytest.raises(GrammarNotCnf) as exc:
        sys.check_grammar(toy_grammar)
    assert exc.value.report


def test_ccg_axioms_follow_lexicon_order(ccg_lexicon):
    w = tokenize("John likes bananas")
    sys = make_ccg()
    rendered = [render_item("ccg", a) for a in sys.axioms(ccg_lexicon, w)]
    assert rendered == ["[NP, 0, 1]", "[NP, 2, 3]", "[(S\\NP)/NP, 1, 2]"]
    assert [render_item("ccg", g) for g in sys.goal_patterns(ccg_lexicon, w)] == ["[S, 0, 3]"]


def test_tag_terminal_axioms_cover_matching_leaves(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    sys = make_tag()
    rendered = [render_item("tag", a) for a in sys.axioms(trip_grammar, w)]
    assert rendered == [
        "[alpha@1.1, above, 0, _, _, 1]",
        "[alpha@2.1.1, above, 1, _, _, 2]",
        "[beta@2.1, above, 2, _, _, 3]",
    ]
    goals = sys.goal_patterns(trip_grammar, w)
    assert [render_item("tag", g) for g in goals] == ["[alpha@e, above, 0, _, _, 3]"]


def test_tag_foot_axiom_mode_enumerates_every_span(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    sys = make_tag(foot_mode="foot_axiom")
    feet = [
        a for a in sys.axioms(trip_grammar, w)
        if render_item("tag", a).startswith("[beta@1,")
    ]
    assert len(feet) == 10  # all 0 <= p <= q <= 3
    assert render_item("tag", feet[0]) == "[beta@1, below, 0, 0, 0, 0]"
    assert render_item("tag", feet[-1]) == "[beta@1, below, 3, 3, 3, 3]"


def test_tag_empty_leaf_axioms_cover_every_position(counting_grammar):
    w = tokenize("a b c d")
    sys = make_tag()
    eps = [
        a for a in sys.axioms(counting_grammar, w)
        if render_item("tag", a).startswith("[alpha@1,")
    ]
    assert len(eps) == 5
    assert render_item("tag", eps[0]) == "[alpha@1, above, 0, _, _, 0]"


def test_tag_foot_mode_is_validated():
    with pytest.raises(ValueError, match="foot_mode"):
        make_tag(foot_mode="lazy")


# ---- side-condition evaluators ----

def _subs_strings(subs, pattern):
    return [render_term(s.apply(pattern)) for s in subs]


def test_word_from_a_bound_position(toy_grammar):
    w = tokenize("a program halts")
    [s] = eval_side_condition("word", (Const(1), Var("J"), Var("W")), toy_grammar, w)
    assert (s.apply(Var("J")), s.apply(Var("W"))) == (Const(2), Const("program"))
    assert eval_side_condition("word", (Const(9), Var("J"), Var("W")), toy_grammar, w) == []


def test_word_enumerates_positions(toy_grammar):
    w = tokenize("a program halts")
    subs = eval_side_condition("word", (Var("I"), Var("J"), Var("W")), toy_grammar, w)
    rows = [tuple(s.apply(Var(v)).name for v in "IJW") for s in subs]
    assert rows == [(0, 1, "a"), (1, 2, "program"), (2, 3, "halts")]


# The input's word relation and the TAG relation child_undefined against
# the computed builtins they replaced, restated here: scan read
# succ(J, J1), word_at(J1, W), and child_undefined(node(T, A)) held when
# the grammar has a tree T without the node at address A.

def _succ_word_at(tokens, j: int) -> list:
    """The (J1, W) answers of succ(j, J1), word_at(J1, W)."""
    i = j + 1
    return [(Const(i), Const(tokens[i - 1]))] if 1 <= i <= len(tokens) else []


def _child_undefined(grammar, tree_name: str, address: tuple) -> bool:
    try:
        tree = grammar.tree(tree_name)
    except KeyError:
        return False
    return address not in tree.nodes


def test_word_agrees_with_succ_and_word_at_on_every_fixture_sentence(toy_grammar):
    sentences = {case[4] for case in _cases()} | {""}
    for sentence in sorted(sentences):
        w = tokenize(sentence)
        for j in range(-1, w.n + 2):
            subs = eval_side_condition("word", (Const(j), Var("J1"), Var("W")), toy_grammar, w)
            got = [(s.apply(Var("J1")), s.apply(Var("W"))) for s in subs]
            assert got == _succ_word_at(w.tokens, j), (sentence, j)


def test_child_undefined_agrees_with_the_tree_shapes_on_every_fixture_tag():
    w = tokenize("")
    for name in ("trip.tag", "counting.tag"):
        g = load_tag(read(name))
        probes = [(t.name, addr + (2,)) for t in g.trees for addr in t.nodes]
        probes.append(("no_such_tree", (2,)))
        for tree_name, address in probes:
            subs = eval_side_condition("child_undefined", (node_ref(tree_name, address),), g, w)
            assert len(subs) == _child_undefined(g, tree_name, address), (name, tree_name, address)


def test_production_includes_lexicon_as_unary_rules(toy_grammar):
    w = tokenize("a")
    subs = eval_side_condition("production", (Const("Det"), Var("G")), toy_grammar, w)
    rendered = [render_term(s.apply(Var("G"))) for s in subs]
    assert rendered == ["[a]"]


def test_production_yields_are_renamed_apart(abn_grammar):
    w = tokenize("a")
    probe = (Var("L"), Var("G"))
    subs = eval_side_condition("production", probe, abn_grammar, w)
    heads = [s.apply(Var("L")) for s in subs if isinstance(s.apply(Var("L")), Compound)]
    targets = [h for h in heads if h.functor == "r" and not h.ground]
    assert len(targets) == 2
    assert not (set(v.id for v in targets[0].args if isinstance(v, Var))
                & set(v.id for v in targets[1].args if isinstance(v, Var)))


def test_lex_entries_are_renamed_per_use():
    # Both words' entries name the variable X; the pair a rule builds
    # from two lex answers must hold two distinct parse variables.
    g = load_cf("start np\nlex a np(X)\nlex b np(X)\n")
    premises = [t("w(W1)"), t("w(W2)"), SideCondition("lex", (Var("W1"), Var("P1"))),
                SideCondition("lex", (Var("W2"), Var("P2")))]
    system = DeductionSystem(
        name="lex_pairs",
        grammar_class=CfGrammar,
        rules=(Rule("pair", premises, t("pair(P1, P2)")),),
        axioms=lambda grammar, w: [Compound("w", (Const(tok),)) for tok in w.tokens],
        goal_patterns=lambda grammar, w: [],
    )
    r = parse(system, g, tokenize("a b"))
    # The first pair subsumes the other three.
    [item] = [s.item for s in r.store.items() if s.item.functor == "pair"]
    ids = term_vars(item)
    assert len(ids) == 2 and all(isinstance(i, int) for i in ids), render_term(item)
    [answer] = eval_side_condition("lex", (Const("b"), Var("P")), g, tokenize("a b"))
    assert answer.apply(Var("P")).functor == "np"


def test_succ_runs_in_both_modes(toy_grammar):
    w = tokenize("a")
    [s] = eval_side_condition("succ", (Const(2), Var("J")), toy_grammar, w)
    assert s.apply(Var("J")) == Const(3)
    [s] = eval_side_condition("succ", (Var("I"), Const(3)), toy_grammar, w)
    assert s.apply(Var("I")) == Const(2)
    from deduce.systems import SideConditionError

    with pytest.raises(SideConditionError):
        eval_side_condition("succ", (Var("I"), Var("J")), toy_grammar, w)


def test_append_splices_onto_any_tail(toy_grammar):
    w = tokenize("a")
    args = (lst("a", "b"), lst("c"), Var("Z"))
    [s] = eval_side_condition("append", args, toy_grammar, w)
    assert s.apply(Var("Z")) == lst("a", "b", "c")
    open_tail = (lst("a"), Var("T"), Var("Z"))
    [s] = eval_side_condition("append", open_tail, toy_grammar, w)
    assert s.apply(Var("Z")) == cons(t("a"), s.apply(Var("T")))


def test_split_stack_peels_a_reversed_rhs(toy_grammar):
    w = tokenize("a")
    stack = syms("N", "Det", "S")
    args = (syms("Det", "N"), stack, Var("Rest"))
    [s] = eval_side_condition("split_stack", args, toy_grammar, w)
    assert s.apply(Var("Rest")) == syms("S")
    assert eval_side_condition("split_stack", (syms("V"), stack, Var("R")), toy_grammar, w) == []


def test_split_stack_with_empty_rhs_matches_any_stack(toy_grammar):
    w = tokenize("a")
    [s] = eval_side_condition("split_stack", (NIL, syms("S"), Var("R")), toy_grammar, w)
    assert s.apply(Var("R")) == syms("S")


def test_index_union_cases(trip_grammar):
    w = tokenize("Trip rumbas nimbly")

    def union(a, b):
        subs = eval_side_condition("index_union", (a, b, Var("U")), trip_grammar, w)
        return [s.apply(Var("U")) for s in subs]

    assert union(BOTTOM, BOTTOM) == [BOTTOM]
    assert union(BOTTOM, Const(4)) == [Const(4)]
    assert union(Const(4), BOTTOM) == [Const(4)]
    assert union(Const(4), Const(4)) == [Const(4)]
    assert union(Const(4), Const(5)) == []


def test_adjoinable_lists_label_matching_nodes(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    subs = eval_side_condition("adjoinable", (Var("N"), Var("B")), trip_grammar, w)
    nodes = [render_term(s.apply(Var("N"))) for s in subs]
    assert nodes == [
        "node(alpha, [2])",
        "node(beta, [])",
        "node(beta, [1])",
    ]
    bound = eval_side_condition(
        "adjoinable", (node_ref("alpha", (2,)), Var("B")), trip_grammar, w
    )
    assert [s.apply(Var("B")) for s in bound] == [Const("beta")]
    assert eval_side_condition(
        "adjoinable", (node_ref("alpha", (1,)), Var("B")), trip_grammar, w
    ) == []


def test_node_label_and_child_undefined(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    [s] = eval_side_condition(
        "node_label", (node_ref("alpha", (2,)), Var("L")), trip_grammar, w
    )
    assert s.apply(Var("L")) == Const("VP")
    assert eval_side_condition(
        "child_undefined", (node_ref("alpha", (1, 2)),), trip_grammar, w
    ) != []
    assert eval_side_condition(
        "child_undefined", (node_ref("alpha", (2,)),), trip_grammar, w
    ) == []


def test_foot_of(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    [s] = eval_side_condition("foot_of", (Const("beta"), Var("F")), trip_grammar, w)
    assert s.apply(Var("F")) == node_ref("beta", (1,))


def test_is_start_spans_grammar_classes(toy_grammar, ccg_lexicon, trip_grammar):
    w = tokenize("a")
    [s] = eval_side_condition("is_start", (Var("X"),), toy_grammar, w)
    assert s.apply(Var("X")) == Const("S")
    [s] = eval_side_condition("is_start", (Var("X"),), ccg_lexicon, w)
    assert s.apply(Var("X")) == Const("S")
    [s] = eval_side_condition("is_start", (Var("X"),), trip_grammar, w)
    assert s.apply(Var("X")) == Const("S")


def test_unknown_builtin_raises(toy_grammar):
    w = tokenize("a")
    with pytest.raises(UnknownBuiltinError):
        eval_side_condition("gensym", (), toy_grammar, w)


def test_builtins_on_the_wrong_grammar_class_complain(ccg_lexicon):
    from deduce.systems import SideConditionError

    w = tokenize("a")
    with pytest.raises(SideConditionError):
        eval_side_condition("production", (Var("A"), Var("G")), ccg_lexicon, w)


# ---- restriction transform ----

def test_restricted_prediction_abstracts_deep_arguments():
    sys = make_earley(restriction_depth=2)
    [predict] = _rule(sys, "predict").clauses
    assert predict.transform is not None
    item = er(0, t("r(s(s(s(0))), N)"), NIL, cons(t("r(s(s(s(0))), N)"), NIL), 0)
    out = predict.transform(item, VarSource())
    _, lhs, _, after, _ = out.args
    assert subsumes(lhs, t("r(s(s(s(0))), N)"))
    assert render_term(lhs).startswith("r(s(")
    first = after.args[0]
    assert subsumes(first, t("r(s(s(s(0))), N)"))


def test_unrestricted_prediction_has_no_transform():
    sys = make_earley()
    assert all(c.transform is None for c in _rule(sys, "predict").clauses)


# ---- mode analysis ----

def _clause_for(system, rule, slot):
    return _rule(system, rule).clauses[slot]


def test_mode_analysis_binds_the_lookup_paths():
    # CYK's left lookup runs after the production lookup has bound B,
    # and the trigger cyk(C, J, K) has bound J.
    cyk = make_cyk()
    left = _clause_for(cyk, "binary", 1)
    assert left.modes == (None, (("cyk", 3), ((0,), (2,))))
    right = _clause_for(cyk, "binary", 0)
    assert right.modes == (None, (("cyk", 3), ((0,), (1,))))
    # complete_1 seeks er(K, B, Bef2, [], J): K and B come from the
    # trigger and [] is a constant; Bef2 and J are open.
    earley = make_earley()
    assert _clause_for(earley, "complete", 0).modes == ((("er", 5), ((0,), (1,), (3,))),)
    assert _clause_for(earley, "complete", 1).modes == ((("er", 5), ((3,), (3, 0), (4,))),)
    assert _clause_for(earley, "scan", 0).modes == (None,)
    assert earley.modes == (
        (("er", 5), ((0,), (1,), (3,))),
        (("er", 5), ((3,), (3, 0), (4,))),
    )
    # TAG's sibling lookup is keyed down to the child address.
    tag = make_tag()
    [_, sibling, _, _] = tag.modes
    assert sibling[1] == ((0,), (0, 0), (0, 1), (0, 1, 0), (0, 1, 1), (1,), (5,))


def _matching_clauses(system, item, monkeypatch):
    """(rule, slot) of every clause whose program takes ``item`` past
    its trigger match: it then reaches its first premise, a chart lookup
    or a side condition, each stubbed here to find nothing, or, with no
    premise, enqueues its consequent."""
    reached = []

    def reach(*args):
        reached.append(args)
        return ()

    monkeypatch.setattr(deduce.systems, "builtin_answers", reach)
    out = []
    for c in system.clauses:
        reached.clear()
        c.program()(item, 1, reach, reach, VarSource(), None, {})
        if reached:
            out.append((c.rule_name, c.trigger_slot))
    return out


def test_trigger_matcher_dispatch(monkeypatch):
    earley = make_earley()
    complete = er(0, Const("s"), syms("np"), NIL, 2)
    incomplete = er(0, Const("s"), NIL, syms("np", "vp"), 0)
    assert _matching_clauses(earley, complete, monkeypatch) == [("complete", 1)]
    assert _matching_clauses(earley, incomplete, monkeypatch) == [
        ("scan", 0), ("predict", 0), ("complete", 0)]
    # A non-ground item goes through ``bind``: an open after-list unifies
    # with every Earley trigger.
    open_item = er(0, Const("s"), NIL, Var("After"), 0)
    assert len(_matching_clauses(earley, open_item, monkeypatch)) == 4

    tag = make_tag()
    def fires(node, dot):
        item = Compound("tg", (node, Const(dot), Const(1), BOTTOM, BOTTOM, Const(2)))
        return _matching_clauses(tag, item, monkeypatch)
    assert fires(node_ref("alpha", (2,)), "above") == [("complete_binary", 1)]
    assert fires(node_ref("alpha", (1,)), "above") == [
        ("complete_unary", 0), ("complete_binary", 0)]
    assert fires(node_ref("beta", ()), "above") == [("adjoin", 0)]
    assert fires(node_ref("alpha", (1,)), "below") == [
        ("no_adjoin", 0), ("adjoin", 1), ("complete_foot", 0)]


# ---- canonical rendering ----

def test_topdown_rendering():
    assert render_item("topdown", Compound("td", (syms("NP", "VP"), Const(0)))) == "[. NP VP, 0]"
    assert render_item("topdown", Compound("td", (NIL, Const(3)))) == "[., 3]"


def test_bottomup_rendering():
    assert render_item("bottomup", Compound("bu", (syms("N", "Det"), Const(2)))) == "[Det N ., 2]"
    assert render_item("bottomup", Compound("bu", (NIL, Const(0)))) == "[., 0]"


def test_earley_rendering():
    item = er(0, Const("NP"), syms("Det"), syms("N", "OptRel"), 1)
    assert render_item("earley", item) == "[0, NP -> Det . N OptRel, 1]"
    done = er(2, Const("OptRel"), NIL, NIL, 2)
    assert render_item("earley", done) == "[2, OptRel -> ., 2]"


def test_earley_rendering_with_term_symbols():
    item = er(0, t("r(s(X), N)"), NIL, mklist([t("r(s(s(X)), N)"), t("b")]), 0)
    assert render_item("earley", item) == "[0, r(s(X), N) -> . r(s(s(X)), N) b, 0]"


def test_ccg_rendering_parenthesizes_nested_categories():
    cat = parse_category("(S\\NP)/NP")
    item = Compound("cc", (cat, Const(1), Const(3)))
    assert render_item("ccg", item) == "[(S\\NP)/NP, 1, 3]"


def test_tag_rendering():
    item = Compound(
        "tg",
        (node_ref("alpha", (1, 2)), Const("above"), Const(1), BOTTOM, BOTTOM, Const(2)),
    )
    assert render_item("tag", item) == "[alpha@1.2, above, 1, _, _, 2]"


def test_rendering_falls_back_to_plain_terms():
    assert render_item("topdown", t("weird(1)")) == "weird(1)"
    assert render_item("cyk", t("cyk(a, 0)")) == "cyk(a, 0)"
