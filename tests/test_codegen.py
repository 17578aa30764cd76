"""The generated clause programs against ``bind``, ``resolve`` and an
interpreted walk of each clause."""

import types
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deduce.steps
from deduce import terms
from deduce.engine import _consequents, check_soundness, parse
from deduce.grammar import CfGrammar, load_ccg, tokenize
from deduce.store import INITIAL, History, ItemStore
from deduce.systems import (
    REGISTRY,
    SYSTEM_NAMES,
    DeductionSystem,
    EvalContext,
    ItemPremise,
    Rule,
    SideCondition,
    SideConditionError,
    UnknownBuiltinError,
    builtin_answers,
    eval_side_condition,
    make_bottomup,
    make_ccg,
    make_cyk,
    make_earley,
    make_tag,
    make_topdown,
    program_source,
    system_for,
)
from deduce.terms import (
    Compound,
    Const,
    Var,
    VarSource,
    bind,
    canonical,
    parse_term,
    rename_with,
    resolve,
    term_vars,
    undo,
    variant,
)

from conftest import axiom_rules


# ---- the interpreted walk: the reference for the clause programs ----

def reference_firings(clause, store, index, ctx, reached=None) -> list:
    """The firings of ``clause`` triggered by the item at ``index``, as
    (rule, slot, consequent, antecedent indices), by interpreting the
    clause: the premises run left to right, depth first, through
    ``bind``, ``resolve`` and ``undo`` on one environment with a trail.
    A side condition's answer, checked to be an instance of the
    condition, has its arguments bound as one term, ``p(answer.args)``,
    against ``p(arguments)``, with every variable that no argument holds
    renamed apart.  The trigger and each lookup's candidates are renamed
    from ``ctx.source`` before they are bound, and a non-ground
    consequent after it is built.  So the reference copies every term
    it binds, where a program binds stored items and grammar rows in
    place: the two agree on consequents up to renaming.  When
    ``reached`` is given, ``(clause, k)`` is added to it once chart
    premise ``k`` has a candidate.
    """
    source = ctx.source
    trigger, premises, consequent = clause.compiled
    item = store.renamed(index, source)
    env, trail, out = {}, [], []

    def fire(antes):
        t = resolve(consequent, env)
        if not t.ground:
            t = rename_with(t, {}, source)
        out.append((clause.rule_name, clause.trigger_slot, t, tuple(antes)))

    def walk(k, antes):
        if k == len(premises):
            fire(antes)
            return
        p = premises[k]
        mark = len(trail)
        if isinstance(p, SideCondition):
            fn = REGISTRY.get(p.builtin)
            if fn is None:
                raise UnknownBuiltinError(p.builtin)
            args = tuple(resolve(a, env) for a in p.args)
            for answer in list(fn(args, ctx)):
                if (type(answer) is not Compound or answer.functor != p.builtin
                        or len(answer.args) != len(args)):
                    raise SideConditionError(p.builtin)
                held = {v: Var(v) for a in args for v in term_vars(a)}
                answer = rename_with(Compound("p", answer.args), held, source)
                if bind(Compound("p", args), answer, env, trail):
                    walk(k + 1, antes)
                undo(env, trail, mark)
            return
        pattern = resolve(p.pattern, env)
        found = [(i, store.renamed(i, source))
                 for i in store.candidates(pattern, clause.modes[k])]
        if found and reached is not None:
            reached.add((clause, k))
        for i, t in found:
            if bind(pattern, t, env, trail):
                antes[p.slot] = i
                walk(k + 1, antes)
            undo(env, trail, mark)

    if bind(trigger, item, env, trail):
        antes = [None] * clause.n_antecedents
        antes[clause.trigger_slot] = index
        walk(0, antes)
    return out


def _program_firings(clause, store, index, ctx) -> list:
    """What the clause's program hands to ``enqueue``, collected in the
    reference's form.  The program gets the stored item itself, as the
    engine hands it over."""
    firings = []

    def collect(t, history):
        firings.append((history.rule_name, clause.trigger_slot, t, history.antecedents))

    item = store.get(index).item
    clause.program()(item, index, collect, store.fetch, ctx.source, ctx, store.interned)
    return firings


def _agree(got, want) -> bool:
    """Whether two lists of firings are the same firings in the same
    order: rule, slot and antecedents equal, consequents variants."""
    return len(got) == len(want) and all(
        g[:2] == w[:2] and g[3] == w[3] and variant(g[2], w[2]) for g, w in zip(got, want))


# ---- every clause of the built-in systems, on their fixture charts ----

# Each of "y" and "z" has a backward-slash category that composes with
# its left neighbour's: x y by forward_compose2, x y (as S\S) by
# backward_compose1, and y z by backward_compose2.
COMPOSING = """start S
c : C
x : S/A
y : A\\C
y : S\\S
z : S\\S
z : S\\A
"""


def _fixture_runs(toy, cnf, amb, abn, lexicon, trip, counting):
    return [
        (system_for("earley"), amb, "a a a a"),
        (system_for("cyk"), amb, "a a a a"),
        (system_for("bottomup"), amb, "a a a"),
        (system_for("topdown"), toy, "a program halts"),
        (system_for("bottomup"), cnf, "a b"),
        (system_for("earley"), toy, "a program halts"),
        (system_for("earley"), cnf, "a b"),
        (make_earley(restriction_depth=2), abn, "a b b b"),
        (system_for("bottomup"), abn, "a b b b"),
        (system_for("cyk"), cnf, "a b"),
        (system_for("ccg"), lexicon, "John really likes bananas"),
        (system_for("ccg"), load_ccg(COMPOSING), "c x y z"),
        (system_for("tag"), trip, "Trip rumbas nimbly"),
        (make_tag(foot_mode="foot_axiom"), trip, "Trip rumbas nimbly"),
        (system_for("tag"), counting, "a a b b c c d d"),
        (make_tag(foot_mode="foot_axiom"), counting, "a b c d"),
    ]


@pytest.fixture(scope="module")
def replayed(toy_grammar, cnf_ab_grammar, ambiguous_grammar, abn_grammar, ccg_lexicon,
             trip_grammar, counting_grammar):
    """The fixture runs, parsed with every pop also replayed clause by
    clause through the program and the reference, each from its own
    fresh-variable source, as soon as ``ItemStore.pop`` hands the index
    out: (runs, results, the counts of pops replayed, of
    firings compared and of firings the parse enqueued)."""
    runs = _fixture_runs(toy_grammar, cnf_ab_grammar, ambiguous_grammar, abn_grammar,
                         ccg_lexicon, trip_grammar, counting_grammar)
    plain_pop, plain_enqueue = ItemStore.pop, ItemStore.enqueue
    counts = {"pops": 0, "compared": 0, "made": 0}
    run = []  # the (system, grammar, input) being parsed

    def replaying_pop(store):
        index = plain_pop(store)
        if index is None:
            return None
        counts["pops"] += 1
        system, grammar, input_string = run[-1]
        for clause in system.clauses:
            ctx1 = EvalContext(grammar, input_string, VarSource(1_000_000))
            ctx2 = EvalContext(grammar, input_string, VarSource(1_000_000))
            got = _program_firings(clause, store, index, ctx1)
            want = reference_firings(clause, store, index, ctx2)
            assert _agree(got, want), (clause.rule_name, clause.trigger_slot, index)
            counts["compared"] += len(got)
        return index

    def counting_enqueue(store, item, history):
        # The axioms are all enqueued before the first pop.
        counts["made"] += store.head > 1
        return plain_enqueue(store, item, history)

    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ItemStore, "pop", replaying_pop)
        mp.setattr(ItemStore, "enqueue", counting_enqueue)
        for system, grammar, sentence in runs:
            run.append((system, grammar, tokenize(sentence)))
            r = parse(*run[-1])
            assert r.accepted and not check_soundness(r)
            results.append(r)
    return runs, results, counts


def test_every_clause_program_fires_as_the_interpreted_walk_does(replayed):
    # Every pop of every fixture run was replayed through each clause of
    # its system, and among them every rule with an antecedent fired.
    runs, results, counts = replayed
    assert counts["pops"] == sum(r.pops for r in results)
    assert counts["compared"] == counts["made"] > 0
    rules, fired = set(), set()
    for (system, _, _), r in zip(runs, results):
        rules |= {(system.name, clause.rule_name) for clause in system.clauses}
        fired |= {(system.name, h.rule_name) for s in r.store.items() for h in s.histories}
    assert rules <= fired


def test_the_dcg_replays_take_the_non_ground_path(replayed, abn_grammar):
    # Bottom-up and restricted Earley on abn.dcg store non-ground items,
    # so their replays ran triggers and candidates through ``bind``.
    runs, results, _ = replayed
    dcg = [r for r in results if r.grammar is abn_grammar]
    assert [r.system.name for r in dcg] == ["earley", "bottomup"]
    for r in dcg:
        assert any(not s.item.ground for s in r.store.items())


def test_every_item_fires_every_clause_as_the_walk_does_on_the_whole_chart(replayed):
    # After each fixture parse every item is a candidate of every
    # lookup, so each item, offered to each clause, meets its premises
    # under many more bindings than during the parse.
    # Every chart premise of every clause met candidates there.
    runs, results, _ = replayed
    fired, reached = 0, set()
    for (system, grammar, sentence), r in zip(runs, results):
        for clause in system.clauses:
            for index in range(1, len(r.store) + 1):
                ctx1 = EvalContext(grammar, tokenize(sentence), VarSource(1_000_000))
                ctx2 = EvalContext(grammar, tokenize(sentence), VarSource(1_000_000))
                got = _program_firings(clause, r.store, index, ctx1)
                assert _agree(got, reference_firings(clause, r.store, index, ctx2, reached))
                fired += len(got)
    assert fired > sum(len(r.store) for r in results)
    for system, _, _ in runs:
        for clause in system.clauses:
            for k, p in enumerate(clause.premises):
                assert isinstance(p, SideCondition) or (clause, k) in reached, (
                    system.name, clause.rule_name, clause.trigger_slot, k)


# ---- random terms ----

_consts = st.sampled_from(["a", "b"]).map(Const)
_pattern_vars = st.sampled_from(["X", "Y", "Z"]).map(Var)
_value_vars = st.sampled_from(["U", "W"]).map(Var)


def _terms(leaves, depth):
    if depth == 0:
        return leaves
    sub = _terms(leaves, depth - 1)
    return (
        leaves
        | st.tuples(sub).map(lambda a: Compound("f", a))
        | st.tuples(sub, sub).map(lambda a: Compound("g", a))
    )


_ground = _terms(_consts, 3)


@st.composite
def _cases(draw):
    """(pattern, bound, ground term, environment).  ``bound`` is a
    subset of the pattern's variables; the environment binds some of
    them, to terms over U and W, and may bind U to a ground term.  The
    ground term is often an instance of the pattern."""
    pattern = draw(_terms(_consts | _pattern_vars, 3))
    names = term_vars(pattern)
    bound = {v for v in names if draw(st.booleans())}
    env = {}
    for v in sorted(bound):
        if draw(st.booleans()):
            env[v] = draw(_terms(_consts | _value_vars, 2))
    if draw(st.booleans()):
        env["U"] = draw(_ground)
    if draw(st.booleans()):
        values = {v: draw(_ground) for v in names}
        t = resolve(pattern, {v: Var(f"_{v}") for v in names})
        t = resolve(t, {f"_{v}": x for v, x in values.items()})
    else:
        t = draw(_ground)
    return pattern, bound, t, env


def _chart(premises, consequent, items):
    """The slot-0 clause of a rule of ``premises`` and ``consequent``,
    and a store holding ``items``, all popped, so that every one is a
    candidate of every lookup.  Each item is renamed apart as it is
    enqueued, as ``parse`` renames an axiom, so no two share a
    variable."""
    clause = Rule("r", premises, consequent).clauses[0]
    store = ItemStore(tuple(m for m in clause.modes if m is not None))
    source = VarSource()
    for item in items:
        store.enqueue(rename_with(item, {}, source), History(INITIAL, ()))
    while store.pop() is not None:
        pass
    return clause, store


def _fired(clause, store) -> tuple:
    """(the program's firings, the reference's) with each item of the
    store as the trigger, each side from its own fresh-variable source
    starting at one id."""
    got, want = [], []
    for index in range(1, len(store) + 1):
        ctx1 = EvalContext(None, tokenize(""), VarSource(1_000_000))
        ctx2 = EvalContext(None, tokenize(""), VarSource(1_000_000))
        got += _program_firings(clause, store, index, ctx1)
        want += reference_firings(clause, store, index, ctx2)
    return got, want


def _bound_before(names, env):
    """Premises and items that bind the clause variables ``names`` to
    their values in ``env`` before a later premise: a trigger
    ``pre(names...)`` on ``pre(values...)``, a value missing from
    ``env`` being a variable of its own.  When ``env`` binds U, the
    trigger gets one more argument, Q, on U, and a premise ``q(Q)`` on
    ``q(env["U"])`` binds U through Q."""
    args, values = [Var(v) for v in names], [env.get(v, Var(f"_{v}")) for v in names]
    premises, items = [], []
    if "U" in env:
        args.append(Var("Q"))
        values.append(Var("U"))
        premises.append(Compound("q", (Var("Q"),)))
        items.append(Compound("q", (env["U"],)))
    return [Compound("pre", tuple(args))] + premises, [Compound("pre", tuple(values))] + items


@settings(max_examples=500, deadline=None)
@given(_cases(), _terms(_consts | _value_vars, 3), st.data())
def test_a_pattern_matches_as_bind_does(case, other, data):
    # ``pattern`` is a chart premise after the variables in ``bound``
    # got their values, and then a trigger.  Its candidates are ``t``,
    # ``other``, which may hold variables, and an instance of the
    # pattern over U and W, so that a variable of a candidate often
    # meets a bound one of the pattern; each loop moves on from a
    # choice, failed or not, to the next.  The consequent holds every
    # variable of the pattern.
    pattern, bound, t, env = case
    names = term_vars(pattern)
    values = {v: data.draw(_terms(_consts | _value_vars, 1)) for v in names}
    instance = resolve(pattern, values)
    out = Compound("out", tuple(Var(v) for v in names))
    # The bound variables' values come from ``env``, and then from a
    # ground trigger, whose values live only in the program's locals.
    ground = {v: data.draw(_ground) for v in bound}
    for given in (env, ground):
        premises, items = _bound_before(sorted(bound), given)
        got, want = _fired(*_chart(premises + [pattern], out, items + [t, other, instance]))
        assert _agree(got, want)
    got, want = _fired(*_chart([pattern], out, [t, other, instance]))
    assert _agree(got, want)


@settings(max_examples=300, deadline=None)
@given(
    _terms(_consts | _pattern_vars, 3),
    st.dictionaries(st.sampled_from(["X", "Y", "Z"]), _terms(_consts | _value_vars, 2)),
    st.one_of(st.none(), _ground),
)
def test_a_consequent_is_built_as_resolve_builds_it(term, env, u):
    # Built twice through the store's one table: both builds are
    # variants of the reference's, which resolves ``term``, and the
    # table holds only ground compounds.
    if u is not None:
        env["U"] = u
    premises, items = _bound_before("XYZ", env)
    clause, store = _chart(premises, term, items)
    got, want = _fired(clause, store)
    assert len(want) == 1
    assert _agree(got, want)
    again, want_again = _fired(clause, store)
    assert want_again == want and _agree(again, want)
    assert all(type(t) is Compound and t.ground for t in store.interned.values())


def _built(consequent, item, table):
    """The consequent of the one-premise rule ``pre(X, Y, Z) =>
    consequent``, built by its program on ``item`` through ``table``."""
    clause = Rule("r", [Compound("pre", tuple(Var(v) for v in "XYZ"))], consequent).clauses[0]
    made = []
    clause.program()(item, 1, lambda t, history: made.append(t), None, VarSource(), None, table)
    [t] = made
    return t


def _pre(x, y, z):
    return Compound("pre", (x, y, z))


def test_equal_ground_builds_through_one_table_are_one_object():
    a, b, x, y, z = Const("a"), Const("b"), Var("X"), Var("Y"), Var("Z")
    h = Compound("h", (b,))
    consequent = Compound("f", (x, Compound("g", (y, a))))
    table = {}
    first = _built(consequent, _pre(a, h, b), table)
    assert _built(consequent, _pre(a, h, b), table) is first
    # Another program making an equal term from the same argument
    # objects finds it too, at every node.
    inner = _built(Compound("g", (y, a)), _pre(a, h, b), table)
    assert inner is first.args[1]
    assert _built(Compound("f", (x, z)), _pre(a, b, inner), table) is first
    assert len(table) == 2
    # Another table holds its own objects.
    other = _built(consequent, _pre(a, h, b), {})
    assert other == first and other is not first


def test_a_non_ground_build_never_enters_the_table():
    a, x, y, w = Const("a"), Var("X"), Var("Y"), Var("W")
    consequent = Compound("f", (Compound("g", (x,)), y))
    for item in (_pre(a, w, a), _pre(a, Compound("h", (w,)), a)):
        table = {}
        built = _built(consequent, item, table)
        assert not built.ground
        assert list(table.values()) == [built.args[0]]
    table = {}
    assert not _built(consequent, _pre(Var("U"), y, w), table).ground
    assert table == {}


# ---- env only for term variables ----

def _both_ways(premises, consequent, items) -> tuple:
    """The consequents of the slot-0 clause of a rule of ``premises``
    and ``consequent``, fired on the first of ``items`` with all of them
    in the chart, by its program and by the interpreted walker
    ``engine._consequents``, each in canonical form."""
    def term(x):
        return parse_term(x) if isinstance(x, str) else x

    clause, store = _chart([term(p) for p in premises], term(consequent), [term(i) for i in items])
    ctx = EvalContext(None, tokenize(""), VarSource(1_000_000))
    got = [canonical(t) for _, _, t, _ in _program_firings(clause, store, 1, ctx)]
    source = VarSource(2_000_000)

    def candidates(slot, state):
        indices = [1] if slot == clause.trigger_slot else range(1, len(store) + 1)
        return [(store.renamed(i, source), state) for i in indices]

    def answers(p, args):
        return builtin_answers(p.builtin, args, ctx)

    want = [canonical(t) for t in _consequents(clause, candidates, answers, source)]
    return got, want


def test_a_term_variable_meets_structure_holding_a_new_clause_variable():
    # The item's W is bound to g(X) while X has no value, so X escapes
    # into W's binding; X = a then reaches the consequent through it,
    # with the pattern as trigger and as candidate.
    out_a = [parse_term("out(a)")]
    assert _both_ways(["f(g(X), X)"], "out(X)", ["f(W, a)"]) == (out_a, out_a)
    assert _both_ways(["go", "f(g(X), X)"], "out(X)", ["go", "f(W, a)"]) == (out_a, out_a)
    # A later occurrence meets the term variable: X = a first, then
    # W = g(X).
    assert _both_ways(["f(X, g(X))"], "out(X)", ["f(a, W)"]) == (
        out_a, out_a)
    # W = g(X) and X = W fail the occurs check, in either order.
    assert _both_ways(["f(g(X), X)"], "out(X)", ["f(W, W)"]) == ([], [])
    assert _both_ways(["f(X, g(X))"], "out(X)", ["f(W, W)"]) == ([], [])


def test_a_candidate_may_repeat_a_variable():
    got, want = _both_ways(["go", "f(X, Y)"], "out(X, Y)", ["go", "f(W, W)"])
    assert got == want == [canonical(parse_term("out(W, W)"))]
    got, want = _both_ways(["go", "f(X, g(Y))"], "out(X, Y)", ["go", "f(W, W)"])
    assert got == want == [canonical(parse_term("out(g(W), W)"))]
    # A ground trigger gives X = a; the candidate's W then meets X's
    # value, not X, and Y = W reads a.
    got, want = _both_ways(["p(X)", "f(X, Y)"], "out(X, Y)", ["p(a)", "f(W, W)"])
    assert got == want == [parse_term("out(a, a)")]
    # a meets W, so the second W is a; the second candidate gives X
    # two values.
    got, want = _both_ways(["go", "f(a, X, X)"], "out(X)", ["go", "f(W, W, a)", "f(V, b, V)"])
    assert got == want == [parse_term("out(a)")]


@pytest.mark.parametrize("answer, consequent", [
    # The first position's answer holds W, which the second binds: the
    # binding goes through the clause variable Y, bound to W.
    (lambda args: (Compound("f", (Var("W"),)), Const("a")), "out(a)"),
    # The first position's answer is the argument itself, so Y keeps
    # no value until the second position's ground answer binds it.
    (lambda args: (args[0], Const("a")), "out(a)"),
])
def test_an_answer_position_binds_a_variable_an_earlier_one_introduced(
        monkeypatch, answer, consequent):
    monkeypatch.setitem(REGISTRY, "pair", lambda args, ctx: iter([Compound("pair", answer(args))]))
    rule = ["go", SideCondition("pair", (parse_term("f(Y)"), Var("Y")))]
    got, want = _both_ways(rule, "out(Y)", ["go"])
    assert got == want == [parse_term(consequent)]


def test_a_later_answer_may_hold_a_variable_an_earlier_one_bound(monkeypatch):
    # The first answer term is ground and gives Y = b; the second holds
    # the clause variable Y passed in, so it must be read as b.
    monkeypatch.setitem(REGISTRY, "pair", lambda args, ctx: iter(
        [Compound("pair", (parse_term("f(b)"), Compound("g", (args[0].args[0],))))]))
    rule = ["go", SideCondition("pair", (parse_term("f(Y)"), Var("Z")))]
    got, want = _both_ways(rule, "out(Y, Z)", ["go"])
    assert got == want == [parse_term("out(b, g(b))")]


# ---- the binding path, drawn at random ----

_answer_leaves = _consts | st.sampled_from(["A", "B", "@0", "@1"]).map(Var)


@st.composite
def _rules(draw):
    """(premises, consequent, items, answers): a rule whose trigger is
    ``p(_, _)``, then, in either order, maybe a second ``p(_, _)``
    premise and maybe a side condition ``rel(_, _)``; one to three
    ``p(_, _)`` items, the first the trigger; and the answers ``rel``
    gives, as templates in which ``@0`` and ``@1`` stand for the
    arguments it is passed, as a builtin may pass them through, and A
    and B are variables of its own.  Every item is a candidate of the
    second premise, the trigger included, and ``_chart`` renames the
    items apart."""
    pattern = _terms(_consts | _pattern_vars, 2)

    def p(arg):
        return Compound("p", (draw(arg), draw(arg)))

    rest = [p(pattern)] if draw(st.booleans()) else []
    condition = draw(st.booleans())
    if condition:
        # V occurs in no chart premise, so an answer meets it first,
        # often at both positions, where the first binds it.
        arg = _terms(_consts | _pattern_vars, 1)
        first = Var("V") if draw(st.booleans()) else draw(arg)
        second = first if draw(st.booleans()) else draw(arg)
        rest.append(SideCondition("rel", (first, second)))
    premises = [p(pattern)] + draw(st.permutations(rest))
    names = dict.fromkeys(v for q in premises
                          for a in (q.args if isinstance(q, SideCondition) else (q,))
                          for v in term_vars(a))
    items = [p(_terms(_consts | _value_vars, 2)) for _ in range(draw(st.integers(1, 3)))]
    answers = []
    for _ in range(draw(st.integers(int(condition), 3))):
        # The second position is often an instance of the first.
        x = draw(_terms(_answer_leaves, 1))
        y = resolve(x, {"A": Const("b")}) if draw(st.booleans()) else draw(_terms(_answer_leaves, 1))
        answers.append((x, y))
    return premises, Compound("out", tuple(map(Var, names))), items, answers


def _drawn_firings(premises, consequent, items, answers) -> tuple:
    """``_both_ways`` for a case of ``_rules``, with ``rel`` answering
    its templates."""
    def rel(args, ctx):
        at = {"@0": args[0], "@1": args[1]}
        return iter([Compound("rel", (resolve(x, at), resolve(y, at))) for x, y in answers])

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(REGISTRY, "rel", rel)
        return _both_ways(premises, consequent, items)


# X's later occurrence meets the item variable W, which its first one
# stored: binding W to f(W) fails the occurs check.
OCCURS = ([parse_term("p(X, f(X))")], parse_term("out(X)"), [parse_term("p(W, W)")], [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rules())
@example(OCCURS)
def test_a_drawn_rule_fires_as_the_walker_does(case):
    # The generated program against the interpreted walker, on the
    # paths a non-ground item or answer takes: item variables at
    # compound positions, repeated variables, an item paired with
    # itself, and answers that hand back the variables they were passed.
    got, want = _drawn_firings(*case)
    assert got == want


def test_an_item_variable_never_meets_a_term_holding_it():
    assert _drawn_firings(*OCCURS) == ([], [])


def test_ground_parses_never_bind_or_resolve(monkeypatch, ambiguous_grammar, toy_grammar,
                                             ccg_lexicon, counting_grammar, abn_grammar):
    # The programs' steps read ``bind`` and ``resolve`` as globals of
    # ``deduce.steps``, so counting wrappers there see every call.
    calls = Counter()
    for name in ("bind", "resolve"):
        def counted(*args, name=name, fn=getattr(deduce.steps, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(deduce.steps, name, counted)
    a20 = " ".join(["a"] * 20)
    for system, grammar, sentence in [
        (system_for("earley"), ambiguous_grammar, a20),
        (system_for("cyk"), ambiguous_grammar, a20),
        (system_for("earley"), toy_grammar, "Terry halts"),
        (system_for("ccg"), ccg_lexicon, "John really likes bananas"),
        (system_for("tag"), counting_grammar, "a a b b c c d d"),
    ]:
        assert parse(system, grammar, tokenize(sentence)).accepted
        assert calls == {}, (system.name, sentence)
    # A DCG's items hold variables, so its programs bind and resolve.
    assert parse(make_earley(restriction_depth=2), abn_grammar, tokenize("a b b b")).accepted
    assert calls["bind"] > 0 and calls["resolve"] > 0
    # A step stores a first occurrence without binding it, and a
    # consequent is resolved in the walk that renames it, so on a b^40
    # only argument steps resolve: 9 calls and 277 binds, where binding
    # first occurrences and resolving every consequent variable made 393
    # and 1,169.
    calls.clear()
    b40 = tokenize("a " + " ".join(["b"] * 40))
    assert parse(make_earley(restriction_depth=2), abn_grammar, b40).accepted
    assert 0 < calls["resolve"] <= 20 and calls["bind"] <= 300


# ---- names never reach the generated source ----

HOSTILE = [
    "it's",
    'say "hi"',
    "two\nlines",
    "__import__('os').system('false')",
    "'); raise SystemExit(('",
]


def test_hostile_names_parse_and_stay_out_of_the_source(monkeypatch):
    f, g, h = HOSTILE[3], HOSTILE[0], HOSTILE[2]
    k1, k2 = Const(HOSTILE[1]), Const(HOSTILE[4])
    x, y = Var(HOSTILE[3]), Var("Y")
    monkeypatch.setitem(REGISTRY, HOSTILE[4], lambda args, ctx: iter([Compound(HOSTILE[4], args)]))
    rules = (
        Rule("step", [Compound(f, (x, k1)), SideCondition(HOSTILE[4], (x, k2))],
             Compound(g, (x, k2))),
        Rule("join", [Compound(g, (x, k2)), Compound(f, (x, y))],
             Compound(h, (Compound(f, (y, x)), k1))),
    )

    i, j, w = Var("I"), Var("J"), Var("W")
    axiom = Rule("axiom", [SideCondition("word", (i, j, w))], Compound(f, (w, k1)))
    goal = Rule("goal", [SideCondition("word", (Const(0), j, w))],
                Compound(h, (Compound(f, (k1, w)), k1)))
    system = DeductionSystem("hostile", CfGrammar, (axiom, *rules), goal)
    r = parse(system, CfGrammar((), (), (), frozenset()), tokenize("a"))
    assert r.accepted
    assert [render for render in r.dump().splitlines() if HOSTILE[3] in render]
    for clause in system.clauses:
        source = program_source(clause)[0]
        assert not any(name in source for name in HOSTILE)
    for source in terms._MAKERS:
        assert not any(name in source for name in HOSTILE)


@pytest.mark.parametrize("answer", [
    lambda args: Compound("other", args),  # the wrong functor
    lambda args: Compound("short", args[:1]),  # the wrong arity
    lambda args: args,  # a bare tuple
])
def test_an_answer_that_is_no_instance_of_the_condition_names_its_builtin(monkeypatch, answer):
    # A builtin yields instances of its condition, ``short(X, Y)`` here;
    # both the clause program and the oracles' adapter say which
    # builtin broke that.
    monkeypatch.setitem(REGISTRY, "short", lambda args, ctx: iter([answer(args)]))
    x, y = Var("X"), Var("Y")
    rule = Rule("step", [Compound("f", (x,)), SideCondition("short", (x, y))],
                Compound("g", (y,)))
    system = DeductionSystem("short", CfGrammar, (*axiom_rules(Compound("f", (Const("a"),))), rule))
    grammar = CfGrammar((), (), (), frozenset())
    with pytest.raises(SideConditionError, match="short answered .*, not a short/2 term"):
        parse(system, grammar, tokenize("a"))
    with pytest.raises(SideConditionError, match="short answered .*, not a short/2 term"):
        eval_side_condition("short", (Const("a"), y), grammar, tokenize("a"))


def test_an_earlier_answer_may_bind_a_later_argument(monkeypatch):
    # ``echo`` puts its second argument, the unbound Y, inside its first
    # answer term, so binding that term binds Y to c before the second
    # position is reached; its ground answer must then agree with c.
    c, d = Const("c"), Const("d")
    monkeypatch.setitem(REGISTRY, "echo", lambda args, ctx: iter(
        [Compound("echo", (Compound("f", (args[1],)), d)),
         Compound("echo", (Compound("f", (args[1],)), c))]))
    y = Var("Y")
    rule = Rule("step", [Const("go"), SideCondition("echo", (Compound("f", (c,)), y))],
                Compound("g", (y,)))
    system = DeductionSystem("echo", CfGrammar, (*axiom_rules(Const("go")), rule))
    grammar = CfGrammar((), (), (), frozenset())
    r = parse(system, grammar, tokenize("a"))
    assert [s.item for s in r.store.items()] == [Const("go"), Compound("g", (c,))]
    [s] = eval_side_condition("echo", (Compound("f", (c,)), y), grammar, tokenize("a"))
    assert s.apply(y) == c


# ---- shared code ----

def _clause(system, rule_name, slot):
    return next(c for c in system.clauses if c.rule_name == rule_name and c.trigger_slot == slot)


def _steps(clause) -> list:
    """The generated steps that ``clause``'s program calls: the
    functions among its closure values."""
    return [cell.cell_contents for cell in clause.program().__closure__
            if isinstance(cell.cell_contents, types.FunctionType)]


def test_clauses_of_one_shape_share_code():
    # Whole clauses: backward application and forward composition look
    # up their partner by the same kind of key, so their programs share
    # code although their patterns differ.
    ccg = system_for("ccg")
    apply_, compose = _clause(ccg, "backward_apply", 0), _clause(ccg, "forward_compose1", 0)
    assert apply_.trigger != compose.trigger
    assert apply_.program() is not compose.program()
    assert apply_.program().__code__ is compose.program().__code__
    # Steps: forward composition into a forward and into a backward
    # category differ only in functors, which are values.
    one, two = _clause(ccg, "forward_compose1", 1), _clause(ccg, "forward_compose2", 1)
    assert one.trigger != two.trigger
    pairs = list(zip(_steps(one), _steps(two)))
    assert pairs and all(f is not g and f.__code__ is g.__code__ for f, g in pairs)
    clauses = [c for name in SYSTEM_NAMES for c in system_for(name).clauses]
    assert len(clauses) == 29
    assert len({c.program().__code__ for c in clauses}) <= 16
    steps = [f for c in clauses for f in _steps(c)]
    assert len(steps) == 105
    assert len({f.__code__ for f in steps}) == 52


def test_a_system_variant_shares_the_code_of_its_base(monkeypatch):
    # TAG's variant differs from its base system in a rule less, not in
    # the shape of any clause.  Restricted Earley's predict has one side
    # condition more than plain Earley's: only its program and the
    # argument and answer steps of restrict(B, D, RB) are new.
    for base, variant, new in ((make_tag(), make_tag(foot_mode="foot_axiom"), 0),
                               (make_earley(), make_earley(restriction_depth=2), 3)):
        monkeypatch.setattr(terms, "_MAKERS", {})
        for clause in base.clauses:
            clause.program()
        before = len(terms._MAKERS)
        for clause in variant.clauses:
            clause.program()
        assert len(terms._MAKERS) == before + new


def test_the_volume_of_generated_code_is_pinned(monkeypatch):
    # Generating the clause programs is the largest fixed cost of a
    # short parse in a fresh process, so the code that every clause of
    # the nine system variants generates, from an empty cache, is
    # pinned: the number of compiled sources and their characters.
    monkeypatch.setattr(terms, "_MAKERS", {})
    variants = [make_topdown(), make_bottomup(), make_earley(), make_cyk(), make_ccg(), make_tag(),
                make_earley(restriction_depth=1), make_earley(restriction_depth=2),
                make_tag(foot_mode="foot_axiom")]
    for system in variants:
        for clause in system.clauses:
            clause.program()
    assert len(terms._MAKERS) == 62
    assert sum(map(len, terms._MAKERS)) == 49_489
