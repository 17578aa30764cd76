"""Engine loop, counters, oracle closure, soundness replay."""

import io

import pytest

from deduce.engine import (
    EngineError,
    ParseOptions,
    check_soundness,
    consequences,
    naive_closure,
    parse,
)
from deduce.grammar import tokenize
from deduce.store import History
from deduce.systems import (
    DeductionSystem,
    GrammarNotCnf,
    Rule,
    RuleClause,
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
)
from deduce import engine as engine_module
from deduce.store import ItemStore
from deduce.terms import NIL, VarSource, canonical, parse_term, term_vars

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


def test_naive_closure_agrees_with_the_chart(toy_grammar, cnf_ab_grammar, abn_grammar):
    cases = [
        (make_cyk(), cnf_ab_grammar, "a b"),
        (make_earley(), toy_grammar, "a program halts"),
        (make_topdown(), toy_grammar, "a program halts"),
        (make_earley(restriction_depth=2), abn_grammar, "a b b"),
        (make_bottomup(), abn_grammar, "a b b"),
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
        rules=(Rule("pair", [t("p(A)"), t("p(B)")], t("q(A, B)")),),
        axioms=lambda grammar, w: [t("p(f(X))")],
        goal_patterns=lambda grammar, w: [],
    )
    w = tokenize("")
    r = parse(system, None, w)
    closure = naive_closure(system, None, w)
    assert closure == {canonical(stored.item) for stored in r.store.items()}
    assert canonical(t("q(f(X), f(Y))")) in closure
    assert canonical(t("q(f(X), f(X))")) not in closure


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
        rules=(Rule("unwrap", [t("p(f(A))")], t("q(A)")),),
        axioms=lambda grammar, w: [t("p(Y)")],
        goal_patterns=lambda grammar, w: [t("q(Z)")],
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


def _count_lookups(monkeypatch) -> list:
    """Per chart lookup the engine makes, [pattern, candidates handed
    out, candidates bound]; filled in as the engine runs."""
    lookups = []
    by_pattern = {}
    plain_candidates = ItemStore.candidates
    plain_bind = engine_module.bind

    def counting_candidates(self, pattern, *args, **kwargs):
        out = plain_candidates(self, pattern, *args, **kwargs)
        # The record keeps the pattern alive, so its id names one lookup.
        by_pattern[id(pattern)] = record = [pattern, len(out), 0]
        lookups.append(record)
        return out

    def counting_bind(t1, t2, env, trail):
        ok = plain_bind(t1, t2, env, trail)
        record = by_pattern.get(id(t1))
        if ok and record is not None and record[0] is t1:
            record[2] += 1
        return ok

    monkeypatch.setattr(ItemStore, "candidates", counting_candidates)
    monkeypatch.setattr(engine_module, "bind", counting_bind)
    return lookups


def test_every_cyk_lookup_scans_only_matches(ambiguous_grammar, monkeypatch):
    # Both CYK lookups know the nonterminal and the shared span end, so
    # the moded index hands each one exactly the items that unify.
    lookups = _count_lookups(monkeypatch)
    r = parse(make_cyk(), ambiguous_grammar, tokenize(" ".join(["a"] * 30)))
    assert r.accepted
    assert len(lookups) == 2 * r.pops
    assert all(scanned == matched for _, scanned, matched in lookups)
    assert sum(matched for _, _, matched in lookups) > 0


def test_every_earley_complete_lookup_scans_only_matches(ambiguous_grammar, monkeypatch):
    # Each popped item fires one of complete's two clauses, whose lookup
    # knows the origin, the symbol and the dot position of its partner.
    lookups = _count_lookups(monkeypatch)
    r = parse(make_earley(), ambiguous_grammar, tokenize(" ".join(["a"] * 30)))
    assert r.accepted
    assert len(lookups) == r.pops
    assert all(scanned == matched for _, scanned, matched in lookups)
    assert sum(matched for _, _, matched in lookups) > 0


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


def _firings(system, r, index):
    source = VarSource(70_000_000)
    return [
        (clause.rule_name, canonical(out), antes)
        for clause, out, antes in consequences(system, r.store, index, r.grammar, r.input, source)
    ]


def test_a_complete_earley_item_instantiates_one_clause(toy_grammar, monkeypatch):
    # The trigger skeletons let a complete item through to one clause,
    # and the engine binds into that clause's compiled copy in place.
    system = make_earley()
    r = parse(system, toy_grammar, tokenize("a program halts"))
    complete = [s.index for s in r.store.items() if s.item.args[3] == NIL]
    assert complete
    admitted, copied = [], []
    plain = RuleClause.admits

    def counting(self, item):
        ok = plain(self, item)
        if ok:
            admitted.append(self.rule_name)
        return ok

    monkeypatch.setattr(RuleClause, "admits", counting)
    monkeypatch.setattr(RuleClause, "instantiate", lambda self, source: copied.append(1))
    dispatched = {i: _firings(system, r, i) for i in complete}
    assert admitted == ["complete"] * len(complete)
    assert copied == []
    # Trying every clause finds no firing the dispatch skipped.
    admitted.clear()

    def always(self, item):
        admitted.append(self.rule_name)
        return True

    monkeypatch.setattr(RuleClause, "admits", always)
    assert {i: _firings(system, r, i) for i in complete} == dispatched
    assert len(admitted) == len(system.clauses) * len(complete)
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


def test_soundness_flags_a_mutated_history(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    victim = next(
        stored for stored in r.store.items()
        if stored.histories[0].rule_name == "complete"
    )
    good = victim.histories[0]
    victim.histories[0] = History(good.rule_name, (1, 1))
    violations = check_soundness(r)
    assert violations
    assert f"item {victim.index}" in violations[0]


def test_soundness_flags_a_forged_rule_name(toy_grammar):
    r = parse(make_earley(), toy_grammar, tokenize("a program halts"))
    stored = r.store.get(2)
    stored.histories[0] = History("oracle", ())
    assert check_soundness(r)


def test_parse_options_are_validated():
    with pytest.raises(ValueError):
        ParseOptions(trace="loud")
    with pytest.raises(ValueError):
        ParseOptions(step_limit=-1)
