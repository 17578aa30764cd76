"""Engine loop, counters, oracle closure, soundness replay."""

import gc
import io
import sys
import weakref

import pytest

from deduce.engine import (
    EngineError,
    ParseOptions,
    check_soundness,
    consequences,
    naive_closure,
    parse,
)
from deduce.grammar import CfGrammar, load_cf, tokenize
from deduce.store import INITIAL, History
from deduce.systems import (
    REGISTRY,
    DeductionSystem,
    GrammarNotCnf,
    Rule,
    RuleClause,
    SideCondition,
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
    system_for,
)
from deduce.store import ItemStore
from deduce.terms import (
    NIL,
    Compound,
    VarSource,
    canonical,
    mklist,
    parse_term,
    term_vars,
)

from conftest import axiom_rules
from replay_rows import (
    BOTTOMUP_ROWS,
    CCG_ROWS,
    EARLEY_ROWS,
    TOPDOWN_ROWS,
    proved_renderings,
)


def test_topdown_derives_every_expected_row(toy_grammar):
    r = parse(make_topdown(), toy_grammar, tokenize("a program halts"))
    assert r.accepted and not r.halted_by_limit
    proved = proved_renderings(r)
    for row in TOPDOWN_ROWS:
        assert row in proved


def test_bottomup_derives_every_expected_row(toy_grammar):
    # The empty production lets reduce grow stacks forever, so this
    # system never exhausts its agenda; the goal shows up early enough.
    r = parse(make_bottomup(), toy_grammar, tokenize("a program halts"),
              ParseOptions(step_limit=2500))
    assert r.accepted
    assert r.halted_by_limit
    proved = proved_renderings(r)
    for row in BOTTOMUP_ROWS:
        assert row in proved


def test_earley_derives_every_expected_row(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    assert r.accepted and not r.halted_by_limit
    proved = proved_renderings(r)
    for row in EARLEY_ROWS:
        assert row in proved


def test_ccg_derives_every_expected_row(ccg_lexicon):
    r = parse(make_ccg(), ccg_lexicon, tokenize("John really likes bananas"))
    assert r.accepted and not r.halted_by_limit
    proved = proved_renderings(r)
    for row in CCG_ROWS:
        assert row in proved


def test_rejection_leaves_no_goal(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("program a halts"))
    assert not r.accepted
    assert r.goal_indices == []


def test_cyk_exact_chart(cnf_ab_grammar):
    r = parse(make_cyk(), cnf_ab_grammar, tokenize("a b"))
    assert r.accepted
    assert sorted(proved_renderings(r)) == ["[A, 0, 1]", "[B, 1, 2]", "[S, 0, 2]"]


def test_cyk_refuses_non_cnf_grammar(toy_grammar):
    with pytest.raises(GrammarNotCnf, match="OptRel"):
        parse(make_cyk(), toy_grammar, tokenize("a program halts"))


def test_grammar_class_mismatch(ccg_lexicon):
    with pytest.raises(EngineError, match="expects"):
        parse(make_topdown(), ccg_lexicon, tokenize("John likes bananas"))


def test_step_limit_counts_pops(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"),
              ParseOptions(step_limit=3))
    assert r.pops == 3
    assert r.halted_by_limit
    assert not r.accepted


def test_zero_step_limit_still_checks_goals(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"),
              ParseOptions(step_limit=0))
    assert r.pops == 0
    assert not r.accepted
    assert len(r.store) > 0  # axioms are enqueued regardless


def test_counters_reconcile(toy_grammar, ccg_lexicon):
    for system, grammar, sentence in [
        (make_earley(), toy_grammar, "a program halts"),
        (make_ccg(), ccg_lexicon, "John really likes bananas"),
    ]:
        r = parse(system, grammar, tokenize(sentence))
        assert r.enqueues == len(r.store)
        assert r.pops == r.store.head - 1
        assert r.duplicates >= 0


def test_naive_closure_agrees_with_the_chart(toy_grammar, cnf_ab_grammar, abn_grammar,
                                             ccg_lexicon, trip_grammar, counting_grammar):
    # The CCG and TAG cases run the closure through the side conditions
    # the context-free systems never call: index_union, adjoinable,
    # child_undefined and foot_of.
    cases = [
        (make_cyk(), cnf_ab_grammar, "a b"),
        (make_earley(), toy_grammar, "a program halts"),
        (make_topdown(), toy_grammar, "a program halts"),
        (make_earley(restriction_depth=2), abn_grammar, "a b b"),
        (make_bottomup(), abn_grammar, "a b b"),
        (make_ccg(), ccg_lexicon, "John really likes bananas"),
        (make_tag(foot_mode="complete_foot"), trip_grammar, "Trip rumbas nimbly"),
        (make_tag(foot_mode="foot_axiom"), trip_grammar, "Trip rumbas nimbly"),
        (make_tag(foot_mode="complete_foot"), counting_grammar, "a a b b c c d d"),
        (make_tag(foot_mode="foot_axiom"), counting_grammar, "a b c d"),
    ]
    for system, grammar, sentence in cases:
        w = tokenize(sentence)
        r = parse(system, grammar, w)
        assert not r.halted_by_limit
        chart = {canonical(stored.item) for stored in r.store.items()}
        assert chart == naive_closure(system, grammar, w)


def test_naive_closure_renames_the_antecedents_of_one_firing_apart():
    # Both antecedents of pair can be the one axiom p(f(X)); each use
    # needs its own copy, or the consequent would tie A and B together.
    t = parse_term
    system = DeductionSystem(
        name="pairs",
        grammar_class=object,
        rules=(*axiom_rules(t("p(f(X))")),
               Rule("pair", [t("p(A)"), t("p(B)")], t("q(A, B)"))),
    )
    w = tokenize("")
    r = parse(system, None, w)
    closure = naive_closure(system, None, w)
    assert closure == {canonical(stored.item) for stored in r.store.items()}
    assert canonical(t("q(f(X), f(Y))")) in closure
    assert canonical(t("q(f(X), f(X))")) not in closure


# ---- binding stored items and grammar rows in place ----
#
# A clause program binds the trigger, its chart candidates and the
# fact-table rows it is answered with in place, without copying them.
# It copies one only when the firing has bound that same term already.
# Each test below fails when the copy it names is dropped; the closure,
# which copies every antecedent and answer, is the reference.

def _closed(system, grammar=None, sentence="") -> set:
    """The canonical chart of a parse that agrees with the closure and
    replays soundly."""
    w = tokenize(sentence)
    r = parse(system, grammar, w)
    assert not r.halted_by_limit and check_soundness(r) == []
    chart = {canonical(stored.item) for stored in r.store.items()}
    assert chart == naive_closure(system, grammar, w)
    return chart


def _depth(t) -> int:
    return 1 + max(map(_depth, t.args)) if type(t) is Compound else 1


def test_a_trigger_paired_with_itself_is_copied(monkeypatch):
    # p(V, f(V)) is its own partner: binding it twice in place would
    # need V = f(V).  The side condition keeps the closure finite.
    t = parse_term
    monkeypatch.setitem(REGISTRY, "shallow", lambda args, ctx: iter(
        [Compound("shallow", args)] if _depth(args[0]) <= 3 else []))
    system = DeductionSystem(
        name="transitive",
        grammar_class=object,
        rules=(*axiom_rules(t("p(V, f(V))")),
               Rule("chain", [t("p(X, Y)"), t("p(Y, Z)"), SideCondition("shallow", (t("Z"),))],
                    t("p(X, Z)"))),
    )
    assert canonical(t("p(V, f(f(V)))")) in _closed(system)


def test_axioms_that_share_a_variable_name_are_renamed_apart():
    # Both axioms name V; read as one variable, p(f(V)) and q(V) would
    # not unify on X.
    t = parse_term
    system = DeductionSystem(
        name="two_axioms",
        grammar_class=object,
        rules=(*axiom_rules(t("p(f(V))"), t("q(V)")),
               Rule("join", [t("p(X)"), t("q(X)")], t("r(X)"))),
    )
    assert canonical(t("r(f(V))")) in _closed(system)


def test_one_row_answering_two_conditions_is_copied():
    # The grammar's one production row answers both conditions of a
    # firing; bound twice in place, its X would tie the pair together.
    t = parse_term
    grammar = load_cf("start s\ns(X) -> t(X)\n")
    system = DeductionSystem(
        name="row_pairs",
        grammar_class=CfGrammar,
        rules=(*axiom_rules(t("go")),
               Rule("pair", [t("go"), SideCondition("production", (t("A"), t("G"))),
                             SideCondition("production", (t("B"), t("H")))],
                    t("pair(A, G, B, H)"))),
    )
    chart = _closed(system, grammar)

    def pair(u, v):
        return Compound("pair", (t(f"s({u})"), mklist([t(f"t({u})")]),
                                 t(f"s({v})"), mklist([t(f"t({v})")])))

    assert canonical(pair("X", "Y")) in chart
    assert canonical(pair("X", "X")) not in chart


def test_naive_closure_bound_guards_divergence(abn_grammar):
    with pytest.raises(EngineError, match="exceeded"):
        naive_closure(make_earley(), abn_grammar, tokenize("a b"), bound=200)


def test_unrestricted_prediction_diverges_on_term_grammars(abn_grammar):
    r = parse(make_earley(), abn_grammar, tokenize("a b"),
              ParseOptions(step_limit=300))
    assert r.halted_by_limit


def test_stored_items_hold_only_parse_variables(abn_grammar, counting_grammar):
    # Clause-space variables (negative ids) and grammar-file variables
    # (names) never reach the chart: a consequent is renamed from the
    # parse's own source before it is stored.
    runs = [
        (make_earley(restriction_depth=2), abn_grammar, "a b b b"),
        (make_bottomup(), abn_grammar, "a b b b"),
        (make_tag(), counting_grammar, "a a b b c c d d"),
    ]
    open_items = 0
    for system, grammar, sentence in runs:
        r = parse(system, grammar, tokenize(sentence))
        assert r.accepted, system.name
        for stored in r.store.items():
            ids = term_vars(stored.item)
            open_items += bool(ids)
            assert all(isinstance(i, int) and i >= 0 for i in ids), stored
    assert open_items > 0
    # A trigger more specific than its item leaves a clause variable
    # unbound: p(f(A)) meets p(Y) by binding Y to f(A).
    t = parse_term
    system = DeductionSystem(
        name="open_trigger",
        grammar_class=object,
        rules=(*axiom_rules(t("p(Y)")),
               Rule("unwrap", [t("p(f(A))")], t("q(A)"))),
        goal=Rule("goal", [], t("q(Z)")),
    )
    r = parse(system, None, tokenize(""))
    assert r.accepted
    [q] = [r.store.get(i).item for i in r.goal_indices]
    assert all(isinstance(i, int) and i >= 0 for i in term_vars(q)), q


def test_restricted_prediction_terminates_and_accepts(abn_grammar):
    r = parse(make_earley(restriction_depth=2), abn_grammar, tokenize("a b"),
              ParseOptions(step_limit=2000))
    assert not r.halted_by_limit
    assert r.accepted


def test_chart_can_hold_nonground_items(abn_grammar):
    r = parse(make_earley(restriction_depth=2), abn_grammar, tokenize("a b"),
              ParseOptions(step_limit=2000))
    assert any(not stored.item.ground for stored in r.store.items())


def test_tag_trip_parses_in_both_foot_modes(trip_grammar):
    for mode in ("complete_foot", "foot_axiom"):
        system = make_tag(foot_mode=mode)
        assert parse(system, trip_grammar, tokenize("Trip rumbas nimbly")).accepted
        assert parse(system, trip_grammar, tokenize("Trip rumbas")).accepted
        assert not parse(system, trip_grammar, tokenize("rumbas Trip")).accepted


def test_tag_adjunction_is_recorded(trip_grammar):
    r = parse(make_tag(), trip_grammar, tokenize("Trip rumbas nimbly"))
    rules = {h.rule_name for stored in r.store.items() for h in stored.histories}
    assert "adjoin" in rules
    assert "complete_foot" in rules


def test_consequences_can_pair_the_trigger_with_itself(cnf_ab_grammar):
    # After the pop the trigger is part of the chart, so a two-premise
    # rule may use it on both sides.
    system = make_cyk()
    w = tokenize("a b")
    r = parse(system, cnf_ab_grammar, w)
    complete = [s for s in r.store.items() if s.histories[0].rule_name == "binary"]
    assert complete
    (a, b) = complete[0].histories[0].antecedents
    assert a != b


def _count_lookups(monkeypatch, rule_name) -> list:
    """Per pop, [candidates handed out by each chart lookup, candidates
    matched]; filled in as the engine runs.

    Candidates are counted where ``ItemStore.lookup`` hands them out.
    Matches are counted where the clause programs hand their firings to
    ``ItemStore.enqueue``: every clause of ``rule_name`` makes its one
    lookup as its last premise, so each candidate that lookup matches
    is one firing of the rule.  No match can be made without being
    counted, and since no lookup matches more candidates than it hands
    out, a pop whose two totals are equal has every lookup matching
    each candidate it hands out.
    """
    pops = []
    plain_lookup, plain_enqueue, plain_pop = ItemStore.lookup, ItemStore.enqueue, ItemStore.pop

    def counting_lookup(self, mode, key, below=None):
        out = plain_lookup(self, mode, key, below)
        pops[-1][0].append(len(out))
        return out

    def counting_enqueue(self, item, history):
        if pops:
            pops[-1][1] += history.rule_name == rule_name
        return plain_enqueue(self, item, history)

    def counting_pop(self):
        index = plain_pop(self)
        if index is not None:
            pops.append([[], 0])
        return index

    monkeypatch.setattr(ItemStore, "lookup", counting_lookup)
    monkeypatch.setattr(ItemStore, "enqueue", counting_enqueue)
    monkeypatch.setattr(ItemStore, "pop", counting_pop)
    return pops


def test_every_cyk_lookup_scans_only_matches(ambiguous_grammar, monkeypatch):
    # Both CYK lookups know the nonterminal and the shared span end, so
    # the moded index hands each one exactly the items that unify.
    pops = _count_lookups(monkeypatch, "binary")
    r = parse(make_cyk(), ambiguous_grammar, tokenize(" ".join(["a"] * 30)))
    assert r.accepted
    assert len(pops) == r.pops
    assert all(len(scanned) == 2 for scanned, _ in pops)
    assert all(sum(scanned) == matched for scanned, matched in pops)
    assert sum(matched for _, matched in pops) > 0


def test_every_earley_complete_lookup_scans_only_matches(ambiguous_grammar, monkeypatch):
    # Each popped item fires one of complete's two clauses, whose lookup
    # knows the origin, the symbol and the dot position of its partner.
    pops = _count_lookups(monkeypatch, "complete")
    r = parse(make_earley(), ambiguous_grammar, tokenize(" ".join(["a"] * 30)))
    assert r.accepted
    assert len(pops) == r.pops
    assert all(len(scanned) == 1 for scanned, _ in pops)
    assert all(sum(scanned) == matched for scanned, matched in pops)
    assert sum(matched for _, matched in pops) > 0


def test_an_earley_parse_compares_no_justifications(ambiguous_grammar, monkeypatch):
    # Duplicate justifications are found by hashing, not by comparing
    # each new one with an item's recorded list.
    compared = []
    plain_eq = History.__eq__

    def counting_eq(self, other):
        compared.append(1)
        return plain_eq(self, other)

    monkeypatch.setattr(History, "__eq__", counting_eq)
    r = parse(make_earley(), ambiguous_grammar, tokenize(" ".join(["a"] * 20)))
    assert r.accepted and r.duplicates > 0
    assert compared == []


@pytest.mark.parametrize("system, interned, stored", [
    (make_earley(), 482, 483),
    (make_cyk(), 190, 210),
], ids=["earley", "cyk"])
def test_every_derived_item_is_its_parse_s_interned_object(ambiguous_grammar, system,
                                                           interned, stored):
    # The consequent builders hash-cons a parse's ground terms in its
    # store's table, so a derived item is the object the table holds,
    # and a duplicate derivation meets the stored item by identity.
    # Axioms are made outside the builders and are not in the table.
    r = parse(system, ambiguous_grammar, tokenize(" ".join(["a"] * 20)))
    held = {id(t) for t in r.store.interned.values()}
    items = list(r.store.items())
    assert len(items) == stored
    assert sum(id(s.item) in held for s in items) == interned
    assert all(s.histories[0] == History(INITIAL, ()) for s in items if id(s.item) not in held)


def test_no_two_interned_terms_are_equal(ambiguous_grammar):
    # The grammar loader makes one constant per symbol, so equal
    # consequents are built from the same argument objects and the table
    # holds each ground term once.
    r = parse(make_earley(), ambiguous_grammar, tokenize(" ".join(["a"] * 20)))
    values = list(r.store.interned.values())
    assert len(values) == len(set(values)) == 485


def test_a_parse_s_intern_table_dies_with_its_store(ambiguous_grammar):
    # Two parses of one sentence share no table and no interned term,
    # no module of the package holds a table or its terms, and once the
    # result is dropped, its store is freed.
    system, w = system_for("earley"), tokenize(" ".join(["a"] * 8))
    r1, r2 = parse(system, ambiguous_grammar, w), parse(system, ambiguous_grammar, w)
    t1, t2 = r1.store.interned, r2.store.interned
    held = {id(t) for t in t1.values()}
    assert t1 and t2 and t1 is not t2
    assert not held & {id(t) for t in t2.values()}
    tables = {id(t1), id(t2)}
    for name, module in list(sys.modules.items()):
        if name != "deduce" and not name.startswith("deduce."):
            continue
        for value in vars(module).values():
            assert id(value) not in tables | held, name
            if isinstance(value, dict):
                assert not {id(v) for v in value.values()} & (tables | held), name
    ref = weakref.ref(r1.store)
    del r1, t1
    gc.collect()
    assert ref() is None


def test_a_complete_earley_item_instantiates_one_clause(toy_grammar, monkeypatch):
    # Every clause is offered a popped complete item, and its trigger
    # match takes it for one clause only; the engine binds into that
    # clause's compiled copy in place.  Each Earley clause's first
    # premise is a call that only a matched trigger reaches: scan's
    # word, predict's production, and each complete clause's lookup, in
    # the mode of that clause.
    system = make_earley()
    r = parse(system, toy_grammar, tokenize("a program halts"))
    complete = [s.index for s in r.store.items() if s.item.args[3] == NIL]
    assert complete and all(r.store.get(i).item.ground for i in complete)
    matched, copied = [], []
    by_mode = {
        c.modes[0]: (c.rule_name, c.trigger_slot) for c in system.clauses
        if c.rule_name == "complete"
    }
    plain_lookup = ItemStore.lookup

    def counting_lookup(self, mode, key, below=None):
        matched.append(by_mode[mode])
        return plain_lookup(self, mode, key, below)

    def first_premise(rule_name, evaluator):
        def counting(args, ctx):
            matched.append((rule_name, 0))
            return evaluator(args, ctx)

        return counting

    monkeypatch.setattr(ItemStore, "lookup", counting_lookup)
    for builtin, rule_name in (("word", "scan"), ("production", "predict")):
        monkeypatch.setitem(REGISTRY, builtin, first_premise(rule_name, REGISTRY[builtin]))
    monkeypatch.setattr(RuleClause, "instantiate", lambda self, source: copied.append(1))
    for i in complete:
        list(consequences(system, r.store, i, r.grammar, r.input, VarSource(70_000_000)))
    assert matched == [("complete", 1)] * len(complete)
    assert copied == []


def test_trace_items_reports_pops_and_goals(toy_grammar):
    buf = io.StringIO()
    parse(make_earley(), toy_grammar, tokenize("a program halts"),
          ParseOptions(trace="items"), trace_out=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("POP 1 ")
    assert any(line.startswith("GOAL ") for line in lines)
    assert not any(line.startswith("FIRE") for line in lines)


def test_trace_rules_reports_firings(toy_grammar):
    buf = io.StringIO()
    parse(make_earley(), toy_grammar, tokenize("a program halts"),
          ParseOptions(trace="rules"), trace_out=buf)
    text = buf.getvalue()
    assert "FIRE 1 [0, S' -> . S, 0] initial()" in text
    assert "predict(1)" in text


def test_soundness_passes_on_fixture_parses(toy_grammar, ccg_lexicon, trip_grammar):
    results = [
        parse(make_earley(), toy_grammar, tokenize("a program halts")),
        parse(make_ccg(), ccg_lexicon, tokenize("John really likes bananas")),
        parse(make_tag(), trip_grammar, tokenize("Trip rumbas nimbly")),
    ]
    for r in results:
        assert check_soundness(r) == []


def _forge_earley(rule_name, edit):
    """A forgery: the first history of the first toy Earley item first
    justified by ``rule_name``, rewritten by ``edit(result, history)``."""
    def forge(toy_grammar, monkeypatch):
        r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
        victim = next(s for s in r.store.items() if s.histories[0].rule_name == rule_name)
        victim.histories[0] = edit(r, victim.histories[0])
        return r, victim.index

    return forge


def _unregister_production(toy_grammar, monkeypatch):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    monkeypatch.delitem(REGISTRY, "production")
    return r, next(s.index for s in r.store.items() if s.histories[0].rule_name == "predict")


def _succ_of_an_open_item(toy_grammar, monkeypatch):
    # One pop fires next on p(1) alone; q(2)'s history is then pointed
    # at the unpopped p(V), whose replay calls succ with no bound integer.
    t = parse_term
    system = DeductionSystem(
        name="successor",
        grammar_class=object,
        rules=(*axiom_rules(t("p(1)"), t("p(V)")),
               Rule("next", [t("p(X)"), SideCondition("succ", (t("X"), t("Y")))], t("q(Y)"))),
    )
    r = parse(system, None, tokenize(""), ParseOptions(step_limit=1))
    victim = next(s for s in r.store.items() if s.item == t("q(2)"))
    opened = next(s.index for s in r.store.items() if not s.item.ground)
    victim.histories[0] = History("next", (opened,))
    return r, victim.index


@pytest.mark.parametrize("forge", [
    _forge_earley("complete", lambda r, h: History(h.rule_name, (1, 1))),
    _forge_earley("complete", lambda r, h: History("oracle", ())),
    _forge_earley("complete", lambda r, h: History(h.rule_name, (0,) + h.antecedents[1:])),
    _forge_earley("complete",
                  lambda r, h: History(h.rule_name, h.antecedents[:1] + (len(r.store) + 1,))),
    _forge_earley("complete", lambda r, h: History(h.rule_name, h.antecedents[:1])),
    _forge_earley(INITIAL, lambda r, h: History(INITIAL, (1,))),
    _forge_earley("complete", lambda r, h: History(INITIAL, ())),
    _unregister_production,
    _succ_of_an_open_item,
], ids=[
    "unreplayable-antecedents", "unknown-rule", "antecedent-zero", "antecedent-past-the-store",
    "antecedent-count", "initial-with-antecedents", "initial-on-a-derived-item",
    "unregistered-builtin", "side-condition-raises",
])
def test_soundness_flags_a_malformed_justification(toy_grammar, monkeypatch, forge):
    r, victim = forge(toy_grammar, monkeypatch)
    violations = check_soundness(r)
    assert any(v.startswith(f"item {victim} ") for v in violations), violations


def test_parse_options_are_validated():
    with pytest.raises(ValueError):
        ParseOptions(trace="loud")
    with pytest.raises(ValueError):
        ParseOptions(step_limit=-1)
