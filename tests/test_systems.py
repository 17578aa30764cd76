"""System builders, side-condition evaluators, item renderers."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import deduce.systems
from deduce.cli import build_arg_parser, build_system
from deduce.engine import ParseOptions, check_soundness, parse
from deduce.grammar import (
    EPSILON,
    CfGrammar,
    load_ccg,
    load_cf,
    load_tag,
    node_ref,
    parse_category,
    tokenize,
    validate_cnf,
)
from deduce.store import ItemStore
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
    render_item,
    system_for,
)
from deduce.terms import (
    Compound,
    Const,
    NIL,
    Var,
    VarSource,
    canonical,
    cons,
    mklist,
    parse_term,
    render_term,
    space_source,
    subsumes,
    term_vars,
    unify,
    unlist,
    variant,
)

from conftest import axiom_rules, goals, read
from test_acceptance import _random_cf_lines, _random_cnf_lines
from test_chart_identity import _cases, _grammar


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
    """One line per compiled clause of each rule and of the goal rule:
    rule, then trigger slot and antecedent count and trigger unless the
    rule has no antecedent, premises in evaluation order, consequent."""
    lines = []
    for c in (c for rule in (*system.rules, system.goal) for c in rule.clauses):
        premises = []
        for p in c.premises:
            if isinstance(p, SideCondition):
                premises.append(render_term(Compound(p.builtin, p.args)))
            else:
                premises.append(f"{render_term(p.pattern)} @{p.slot}")
        head = (f"{c.rule_name}:" if c.trigger is None else
                f"{c.rule_name} {c.trigger_slot}/{c.n_antecedents}: {render_term(c.trigger)} |")
        lines.append(f"{head} {'; '.join(premises)} => {render_term(c.consequent)}")
    return lines


def test_compiled_clauses_are_frozen():
    # The listing was captured from the hand-written per-trigger clauses
    # the rules replaced; the same clauses in the same order give the
    # same charts, fresh-variable numbers included.  The axiom rules
    # come first and the goal rule last.
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


def test_a_rule_without_antecedents_is_an_axiom_rule():
    # Its one clause has no trigger, and its side conditions must bind
    # the consequent's variables.
    [clause] = Rule("one", [SideCondition("succ", (Const(0), Var("X")))], t("o(X)")).clauses
    assert (clause.trigger, clause.trigger_slot, clause.n_antecedents) == (None, None, 0)
    with pytest.raises(SystemAuthoringError, match="never bound"):
        Rule("void", [SideCondition("succ", (Const(0), Var("X")))], t("o(X, Y)"))
    # With no premise at all, the rule states its one consequent.
    assert Rule("open", [], t("o(Y)")).clauses[0].consequent == t("o(Y)")
    system = DeductionSystem("axioms", CfGrammar, (Rule("one", [SideCondition(
        "succ", (Const(0), Var("X")))], t("o(X)")), Rule("r", [t("o(X)")], t("p(X)"))))
    assert [r.name for r in system.axiom_rules] == ["one"]
    assert [c.rule_name for c in system.clauses] == ["r"]
    # A goal rule has no antecedent either.
    with pytest.raises(SystemAuthoringError, match="goal rule"):
        DeductionSystem("bad_goal", CfGrammar, (), goal=Rule("goal", [t("o(X)")], t("o(X)")))


def test_duplicate_rule_names_are_rejected():
    # Justifications name their rule, so the soundness replay could
    # only ever find one of two rules called r.
    with pytest.raises(SystemAuthoringError, match=r"\['r'\]"):
        DeductionSystem(
            name="twice",
            grammar_class=object,
            rules=(Rule("r", [t("p(X)")], t("q(X)")), Rule("r", [t("s(X)")], t("u(X)"))),
        )
    # Axiom justifications are named "initial".
    with pytest.raises(SystemAuthoringError, match="initial"):
        DeductionSystem(
            name="axiom_name",
            grammar_class=object,
            rules=(Rule("initial", [t("p(X)")], t("q(X)")),),
        )
    renamed = DeductionSystem(
        name="apart",
        grammar_class=object,
        rules=(*axiom_rules(t("p(a)"), t("s(b)")),
               Rule("r", [t("p(X)")], t("q(X)")), Rule("r2", [t("s(X)")], t("u(X)"))),
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
    assert [c.rule_name for c in restricted if _restricts(c)] == ["predict"]


def _restricts(clause) -> bool:
    return any(isinstance(p, SideCondition) and p.builtin == "restrict" for p in clause.premises)


def test_system_names_follow_the_builder_table():
    assert SYSTEM_NAMES == ("topdown", "bottomup", "earley", "cyk", "ccg", "tag")
    assert [system_for(name).name for name in SYSTEM_NAMES] == list(SYSTEM_NAMES)


# ---- axioms and goals ----

def _axioms(system, grammar, w) -> list:
    """The rendered chart of a parse of no pops: its axioms."""
    r = parse(system, grammar, w, ParseOptions(step_limit=0))
    return [render_item(system.name, s.item) for s in r.store.items()]


def _goals(system, grammar, w) -> list:
    return [render_item(system.name, g) for g in goals(system, grammar, w)]


def test_topdown_axioms_and_goals(toy_grammar):
    w = tokenize("a program halts")
    sys = make_topdown()
    assert _axioms(sys, toy_grammar, w) == ["[. S, 0]"]
    assert _goals(sys, toy_grammar, w) == ["[., 3]"]


def test_bottomup_axioms_and_goals(toy_grammar):
    w = tokenize("a program halts")
    sys = make_bottomup()
    assert _axioms(sys, toy_grammar, w) == ["[., 0]"]
    assert _goals(sys, toy_grammar, w) == ["[S ., 3]"]


def test_earley_axioms_wrap_each_start_symbol(toy_grammar):
    w = tokenize("a program halts")
    sys = make_earley()
    assert _axioms(sys, toy_grammar, w) == ["[0, S' -> . S, 0]"]
    assert _goals(sys, toy_grammar, w) == ["[0, S' -> S ., 3]"]


def test_cyk_axioms_are_lexical_spans(cnf_ab_grammar):
    w = tokenize("a b")
    sys = make_cyk()
    assert _axioms(sys, cnf_ab_grammar, w) == ["[A, 0, 1]", "[B, 1, 2]"]
    assert _goals(sys, cnf_ab_grammar, w) == ["[S, 0, 2]"]


def test_cyk_rejects_a_grammar_outside_normal_form(toy_grammar):
    sys = make_cyk()
    with pytest.raises(GrammarNotCnf) as exc:
        sys.check_grammar(toy_grammar)
    assert exc.value.report


def test_ccg_axioms_follow_lexicon_order(ccg_lexicon):
    w = tokenize("John likes bananas")
    sys = make_ccg()
    rendered = _axioms(sys, ccg_lexicon, w)
    assert rendered == ["[NP, 0, 1]", "[NP, 2, 3]", "[(S\\NP)/NP, 1, 2]"]
    assert _goals(sys, ccg_lexicon, w) == ["[S, 0, 3]"]


def test_tag_terminal_axioms_cover_matching_leaves(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    sys = make_tag()
    rendered = _axioms(sys, trip_grammar, w)
    assert rendered == [
        "[alpha@1.1, above, 0, _, _, 1]",
        "[alpha@2.1.1, above, 1, _, _, 2]",
        "[beta@2.1, above, 2, _, _, 3]",
    ]
    assert _goals(sys, trip_grammar, w) == ["[alpha@e, above, 0, _, _, 3]"]


def test_tag_foot_axiom_mode_enumerates_every_span(trip_grammar):
    w = tokenize("Trip rumbas nimbly")
    sys = make_tag(foot_mode="foot_axiom")
    feet = [a for a in _axioms(sys, trip_grammar, w) if a.startswith("[beta@1,")]
    assert len(feet) == 10  # all 0 <= p <= q <= 3
    assert feet[0] == "[beta@1, below, 0, 0, 0, 0]"
    assert feet[-1] == "[beta@1, below, 3, 3, 3, 3]"


def test_tag_empty_leaf_axioms_cover_every_position(counting_grammar):
    w = tokenize("a b c d")
    sys = make_tag()
    eps = [a for a in _axioms(sys, counting_grammar, w) if a.startswith("[alpha@1,")]
    assert len(eps) == 5
    assert eps[0] == "[alpha@1, above, 0, _, _, 0]"


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
    tree = {t.name: t for t in grammar.trees}.get(tree_name)
    return tree is not None and address not in tree.nodes


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


# The axiom rules against the six axiom loops they replaced, restated
# here.  They enqueue the same axioms in the same order, except that a
# TAG's empty-leaf axioms now come before all of its word-leaf axioms.

def _axiom_loops(system, grammar, w) -> list:
    """The axioms that the loop of ``system`` made, in its order."""
    tokens, zero = w.tokens, Const(0)
    if system.name == "topdown":
        return [Compound("td", (mklist([s]), zero)) for s in grammar.starts]
    if system.name == "bottomup":
        return [Compound("bu", (NIL, zero))]
    if system.name == "earley":
        return [er(0, Const("S'"), NIL, mklist([s]), 0) for s in grammar.starts]
    if system.name in ("cyk", "ccg"):
        entries = grammar.lexicon if system.name == "cyk" else grammar.entries
        functor = "cyk" if system.name == "cyk" else "cc"
        return [Compound(functor, (cat, Const(pos), Const(pos + 1)))
                for word, cat in entries for pos, tok in enumerate(tokens) if tok == word]
    out = []
    for tree in grammar.trees:
        for addr, label in tree.nodes.items():
            if tree.children(addr) or addr == tree.foot:
                continue
            spans = ([(p, p) for p in range(w.n + 1)] if label == EPSILON
                     else [(p, p + 1) for p, tok in enumerate(tokens) if tok == label])
            out += [Compound("tg", (node_ref(tree.name, addr), Const("above"),
                                    Const(i), BOTTOM, BOTTOM, Const(j))) for i, j in spans]
    if "foot_axiom" in [rule.name for rule in system.axiom_rules]:
        out += [Compound("tg", (node_ref(tree.name, tree.foot), Const("below"),
                                *map(Const, (p, p, q, q))))
                for tree in grammar.auxiliaries
                for p in range(w.n + 1) for q in range(p, w.n + 1)]
    return out


def _empty_leaves_first(axioms) -> list:
    """A TAG's axioms with the empty leaves' moved, in order, before
    the others: those span nothing above their node."""
    return sorted(axioms, key=lambda a: not (a.functor == "tg" and a.args[1] == Const("above")
                                             and a.args[2] == a.args[5]))


def _enqueued(system, grammar, w) -> list:
    """What a parse of no pops hands to ``enqueue``: its axioms."""
    made = []
    enqueue = ItemStore.enqueue

    def recording(store, item, history):
        made.append(item)
        return enqueue(store, item, history)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ItemStore, "enqueue", recording)
        parse(system, grammar, w, ParseOptions(step_limit=0))
    return made


def _assert_the_loop_order(system, grammar, w):
    got = [canonical(a) for a in _enqueued(system, grammar, w)]
    want = [canonical(a) for a in _empty_leaves_first(_axiom_loops(system, grammar, w))]
    assert got == want, (system.name, w.tokens)


def test_the_axiom_rules_enqueue_what_the_axiom_loops_made():
    for _, name, kwargs, grammar, sentence, _ in _cases():
        _assert_the_loop_order(system_for(name, **kwargs), _grammar(grammar), tokenize(sentence))
    rng = random.Random(2)
    for n in range(100):
        g = load_cf("\n".join((_random_cnf_lines if n % 2 else _random_cf_lines)(rng)))
        names = ["topdown", "bottomup", "earley"] + ([] if validate_cnf(g) else ["cyk"])
        for length in range(4):
            w = tokenize(" ".join(rng.choice(sorted(g.terminals) + ["z"]) for _ in range(length)))
            for name in names:
                _assert_the_loop_order(system_for(name), g, w)


def test_a_tags_empty_leaf_axioms_come_before_its_word_leaf_axioms():
    # Here the word leaf precedes the empty leaf in the tree, so the
    # order departs from the loop's.
    g = load_tag("start S\ninitial alpha (S (A x) (B eps))\n")
    w = tokenize("x")
    loop = _axiom_loops(make_tag(), g, w)
    assert [render_item("tag", a) for a in loop] == [
        "[alpha@1.1, above, 0, _, _, 1]", "[alpha@2.1, above, 0, _, _, 0]",
        "[alpha@2.1, above, 1, _, _, 1]"]
    assert _enqueued(make_tag(), g, w) == loop[1:] + loop[:1]
    assert parse(make_tag(), g, w).accepted


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
    word = SideCondition("word", (Var("I"), Var("J"), Var("W")))
    system = DeductionSystem(
        name="lex_pairs",
        grammar_class=CfGrammar,
        rules=(Rule("axiom", [word], t("w(W)")), Rule("pair", premises, t("pair(P1, P2)"))),
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


def _reductions(grammar, stack):
    """(B, Rest) of each answer of ``reduction(stack, B, Rest)`` that
    unifies with it, in answer order, with the stack's variables bound."""
    subs = eval_side_condition("reduction", (stack, Var("B"), Var("Rest")), grammar, tokenize(""))
    return [canonical(Compound("-", (s.apply(Var("B")), s.apply(Var("Rest")), s.apply(stack))))
            .args[:2] for s in subs]


def test_reduction_answers_in_production_order():
    # The rows end at the trie's depths 2, 1, 0 and 2, so a walk that
    # answered node by node would give another order.
    g = load_cf("start S\nS -> A B\nT -> B\nU ->\nV -> A B\n")
    stack = syms("B", "A", "Z")
    assert _reductions(g, stack) == [(Const("S"), syms("Z")), (Const("T"), syms("A", "Z")),
                                     (Const("U"), stack), (Const("V"), syms("Z"))]
    # Each answer is an instance of the condition whose Rest is the
    # stack's own sub-term.
    answers = list(g.relations["reduction"].answers((stack, Var("B"), Var("Rest"))))
    assert [render_term(a) for a in answers] == [
        "reduction([B, A, Z], S, [Z])", "reduction([B, A, Z], T, [A, Z])",
        "reduction([B, A, Z], U, [B, A, Z])", "reduction([B, A, Z], V, [Z])"]
    assert answers[1].args[2] is stack.args[1]
    assert answers[2].args[2] is stack


def test_reduction_by_an_epsilon_production_matches_any_stack(toy_grammar):
    for stack in (NIL, syms("S"), syms("N", "Det", "S")):
        assert (Const("OptRel"), stack) in _reductions(toy_grammar, stack)
    assert _reductions(toy_grammar, syms("OptRel", "N", "Det", "S")) == [
        (Const("NP"), syms("S")), (Const("OptRel"), syms("OptRel", "N", "Det", "S"))]


def test_reduction_of_a_stack_with_no_matching_top_has_no_answer(ambiguous_grammar):
    assert _reductions(ambiguous_grammar, syms("T", "S")) == []
    assert _reductions(ambiguous_grammar, NIL) == []
    assert _reductions(ambiguous_grammar, syms("S", "T")) == []
    assert _reductions(ambiguous_grammar, syms("a", "T")) == [(Const("S"), syms("T"))]
    assert _reductions(ambiguous_grammar, syms("S", "S", "T")) == [(Const("S"), syms("T"))]


def test_reduction_unifies_non_ground_dcg_rows(abn_grammar):
    # r(X, N) -> r(s(X), N) 'b' reduces [b, r(s(0), M)] to r(0, M).
    stack = mklist([Const("'b'"), t("r(s(0), M)")])
    assert _reductions(abn_grammar, stack) == [(canonical(t("r(0, M)")), NIL)]
    assert _reductions(abn_grammar, mklist([Const("'b'"), t("r(0, M)")])) == []
    # s -> r(0, N) and r(N, N) -> 'a'.
    assert _reductions(abn_grammar, mklist([t("r(0, s(0))")])) == [(Const("s"), NIL)]
    assert _reductions(abn_grammar, syms("'a'")) == [(canonical(t("r(N, N)")), NIL)]
    # Each answer renames its row apart: no two answers share a variable.
    trie = abn_grammar.relations["reduction"]
    probe = (mklist([Const("'b'"), t("r(X, N)")]), Var("B"), Var("Rest"))
    [one], [two] = trie.answers(probe), trie.answers(probe)
    assert set(term_vars(one.args[1])) and not set(term_vars(one.args[1])) & set(term_vars(two))


def test_reduction_with_variables_in_the_stack_or_in_a_rhs():
    g = load_cf("start S\nS -> A B\nS -> C\n")
    # A variable on the stack follows every edge and is bound by the answer.
    subs = eval_side_condition("reduction", (mklist([Var("X"), Const("A")]), Var("B"), Var("R")),
                               g, tokenize(""))
    assert [(s.apply(Var("X")), s.apply(Var("R"))) for s in subs] == [
        (Const("B"), NIL), (Const("C"), syms("A"))]
    # A variable in a right-hand side is the trie's wildcard edge; the
    # row is renamed apart for each answer, with its left-hand side.
    x = Var("X")
    g = CfGrammar((Const("p"),), ((Compound("p", (x,)), (x, Const("b"))),), (), frozenset())
    assert _reductions(g, syms("b", "a", "c")) == [(t("p(a)"), syms("c"))]
    assert _reductions(g, syms("b")) == []
    assert _reductions(g, mklist([Const("b"), Var("Y")])) == [(canonical(t("p(Y)")), NIL)]


def test_reduction_of_an_improper_stack_raises(toy_grammar):
    from deduce.systems import SideConditionError

    for stack in (Var("T"), Const("S"), cons(Const("VP"), Var("T")), t("f(a)")):
        with pytest.raises(SideConditionError, match="proper list"):
            _reductions(toy_grammar, stack)


def _split_stack_reference(grammar, stack):
    """The reduce step as two side conditions, ``production(B, G)`` with
    both arguments open and then ``G`` reversed onto a fresh ``Rest``
    unified with ``stack``: (B, Rest) of each answer, as ``_reductions``
    gives them."""
    out = []
    for p in eval_side_condition("production", (Var("B"), Var("G")), grammar, tokenize("")):
        rest = Var("Rest")
        u = unify(stack, mklist(list(reversed(unlist(p.apply(Var("G"))))), tail=rest))
        if u is not None:
            triple = Compound("-", (u.apply(p.apply(Var("B"))), u.apply(rest), u.apply(stack)))
            out.append(canonical(triple).args[:2])
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_reduction_equals_production_then_split_stack(seed, data):
    g = load_cf("\n".join(_random_cf_lines(random.Random(seed))))
    symbols = sorted({s for lhs, rhs in g.productions for s in (lhs, *rhs)}
                     | {s for w, p in g.lexicon for s in (p, Const(w))}, key=render_term)
    element = st.one_of(st.sampled_from(symbols), st.sampled_from([Var("X"), Var("Y")]))
    stack = mklist(data.draw(st.lists(element, max_size=5)))
    assert _reductions(g, stack) == _split_stack_reference(g, stack)


def test_every_reduction_answer_unifies_on_the_fixture_parses(monkeypatch):
    # Bottom-up's reduce meets only the rows whose right-hand side is the
    # top of the stack, so every answer it is given binds.
    evaluate = deduce.systems.REGISTRY["reduction"]
    counts = [0, 0]

    def counted(args, ctx):
        answers = list(evaluate(args, ctx))
        counts[0] += len(answers)
        counts[1] += sum(unify(Compound("reduction", args), a) is not None for a in answers)
        return answers

    monkeypatch.setitem(deduce.systems.REGISTRY, "reduction", counted)
    bottomup = make_bottomup()
    for grammar, sentences, limit, answered in (
            ("toy.cf", ["a program halts", "Terry writes Shrdlu",
                        "a program that halts writes Terry"], 300, 1266),
            ("ambiguous.cf", ["a a a a a a"], 100_000, 162),
            ("abn.dcg", ["a b b b a"], 100_000, 183)):
        counts[:] = [0, 0]
        g = load_cf(read(grammar))
        for sentence in sentences:
            parse(bottomup, g, tokenize(sentence), ParseOptions(step_limit=limit))
        assert counts == [answered, answered], grammar


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


def test_leaf_and_child_undefined(trip_grammar, counting_grammar):
    w = tokenize("Trip rumbas nimbly")
    [s] = eval_side_condition("leaf", (Var("N"), Const("rumbas")), trip_grammar, w)
    assert s.apply(Var("N")) == node_ref("alpha", (2, 1, 1))
    # Neither an inner node nor a foot is a leaf; an empty leaf's label is ''.
    for node in (node_ref("alpha", (2,)), node_ref("beta", (1,))):
        assert eval_side_condition("leaf", (node, Var("L")), trip_grammar, w) == []
    [s] = eval_side_condition("leaf", (node_ref("alpha", (1,)), Var("L")), counting_grammar, w)
    assert s.apply(Var("L")) == Const("")
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


# ---- restricted prediction ----

def test_restricted_prediction_abstracts_deep_arguments(toy_grammar):
    # restrict(B, 2, RB) cuts the predicted symbol at depth 2, before a
    # production is chosen for it.
    sys = make_earley(restriction_depth=2)
    [predict] = _rule(sys, "predict").clauses
    assert _restricts(predict)
    deep = t("r(s(s(s(0))), N)")
    [s] = eval_side_condition("restrict", (deep, Const(2), Var("RB")), toy_grammar,
                              tokenize(""))
    restricted = s.apply(Var("RB"))
    assert subsumes(restricted, deep) and not subsumes(deep, restricted)
    assert render_term(canonical(restricted)) == render_term(canonical(t("r(s(X), N)")))
    # Depth 0 abstracts the whole symbol; a shallow one is kept.
    [s] = eval_side_condition("restrict", (deep, Const(0), Var("RB")), toy_grammar,
                              tokenize(""))
    assert type(s.apply(Var("RB"))) is Var
    [s] = eval_side_condition("restrict", (t("r(0, N)"), Const(2), Var("RB")), toy_grammar,
                              tokenize(""))
    assert s.apply(Var("RB")) == t("r(0, N)")


def test_unrestricted_prediction_does_not_restrict():
    sys = make_earley()
    assert not any(_restricts(c) for c in sys.clauses)


# The shared variable A ties the two symbols' arguments together; a
# restriction that abstracted the right-hand side after choosing the
# production lost it and accepted "p s" and "q r".
SHARED = """start s
s -> x(f(A)) y(f(A))
x(f(a)) -> 'p'
x(f(b)) -> 'q'
y(f(a)) -> 'r'
y(f(b)) -> 's'
"""


def _sentences(words, longest):
    for n in range(longest + 1):
        yield from (" ".join(s) for s in itertools.product(words, repeat=n))


def test_restricted_prediction_keeps_the_verdicts_of_plain_earley_and_top_down(abn_grammar):
    shared = load_cf(SHARED)
    for sentence in _sentences("pqrs", 3):
        w = tokenize(sentence)
        verdicts = {parse(system, shared, w).accepted
                    for system in (make_earley(), make_topdown())}
        assert len(verdicts) == 1, sentence
        for depth in range(4):
            r = parse(make_earley(restriction_depth=depth), shared, w)
            assert not r.halted_by_limit and {r.accepted} == verdicts, (sentence, depth)
    # On the counting DCG, unrestricted prediction never stops, so the
    # verdicts are bottom-up's, which is the language a b^n.
    for sentence in _sentences("ab", 3):
        w = tokenize(sentence)
        verdict = parse(make_bottomup(), abn_grammar, w).accepted
        assert verdict == (sentence[:1] == "a" and "a" not in sentence[1:]), sentence
        for depth in range(4):
            r = parse(make_earley(restriction_depth=depth), abn_grammar, w)
            assert not r.halted_by_limit and r.accepted == verdict, (sentence, depth)
            assert check_soundness(r) == []


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
