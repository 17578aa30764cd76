"""The generated matchers, builders and clause programs against
``bind``, ``resolve`` and an interpreted walk of each clause."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deduce import terms
from deduce.engine import check_soundness, parse
from deduce.grammar import CfGrammar, tokenize
from deduce.store import ItemStore
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
    eval_side_condition,
    make_earley,
    make_tag,
    program_source,
    system_for,
)
from deduce.terms import (
    Compound,
    Const,
    Var,
    VarSource,
    bind,
    builder_source,
    compile_builder,
    compile_matcher,
    matcher_source,
    rename_with,
    resolve,
    term_vars,
    undo,
)


def _agree(pattern, bound, t, env):
    """The generated matcher and ``bind`` on copies of ``env``: the same
    verdict, the same bindings on success, and a trail that undoes
    exactly what was bound either way."""
    env1, env2, trail1, trail2 = dict(env), dict(env), [], []
    ok = compile_matcher(pattern, bound)(t, env1, trail1)
    assert ok == bind(pattern, t, env2, trail2)
    if ok:
        assert env1.keys() == env2.keys()
        for v in env1:
            assert resolve(Var(v), env1) == resolve(Var(v), env2)
    undo(env1, trail1, 0)
    assert env1 == env
    return ok


# ---- the interpreted walk: the reference for the clause programs ----

def reference_firings(clause, store, index, ctx, envs=None) -> list:
    """The firings of ``clause`` triggered by the item at ``index``, as
    (rule, slot, consequent, antecedent indices), by interpreting the
    clause: the premises run left to right, depth first, through
    ``bind``, ``resolve`` and ``undo`` on one environment with a trail.
    A side condition's answer is bound as one term, ``p(answer)``,
    against ``p(arguments)``.
    The trigger and each lookup's candidates are renamed from
    ``ctx.source`` before they are bound, and a non-ground consequent
    after it is built, in the order the engine draws them.  When
    ``envs`` is given, ``envs[(clause, k)]`` collects the first eight
    environments met by chart premise ``k``.
    """
    source = ctx.source
    trigger, premises, consequent = clause.compiled
    item = store.renamed(index, source)
    env, trail, out = {}, [], []

    def fire(antes):
        t = resolve(consequent, env)
        if not t.ground:
            t = rename_with(t, {}, source)
        if clause.transform is not None:
            t = clause.transform(t, source)
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
                if len(answer) != len(args):
                    raise SideConditionError(p.builtin)
                if bind(Compound("p", args), Compound("p", tuple(answer)), env, trail):
                    walk(k + 1, antes)
                undo(env, trail, mark)
            return
        if envs is not None:
            met = envs.setdefault((clause, k), [])
            if len(met) < 8:
                met.append(dict(env))
        pattern = resolve(p.pattern, env)
        found = [(i, store.renamed(i, source))
                 for i in store.candidates(pattern, clause.modes[k])]
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
    reference's form."""
    firings = []

    def collect(t, history):
        firings.append((history.rule_name, clause.trigger_slot, t, history.antecedents))

    item = store.renamed(index, ctx.source)
    clause.program()(item, index, collect, store.fetch, ctx.source, ctx, store.interned)
    return firings


# ---- every clause of the built-in systems, on their fixture charts ----

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
    fresh-variable source starting at one id, as soon as ``ItemStore.pop``
    hands the index out: (runs, results, the counts of pops replayed, of
    firings compared and of firings the parse enqueued, the environments
    met per chart premise)."""
    runs = _fixture_runs(toy_grammar, cnf_ab_grammar, ambiguous_grammar, abn_grammar,
                         ccg_lexicon, trip_grammar, counting_grammar)
    plain_pop, plain_enqueue = ItemStore.pop, ItemStore.enqueue
    counts = {"pops": 0, "compared": 0, "made": 0}
    envs: dict = {}
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
            want = reference_firings(clause, store, index, ctx2, envs)
            assert got == want, (clause.rule_name, clause.trigger_slot, index)
            assert ctx1.source.fresh() == ctx2.source.fresh()
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
    return runs, results, counts, envs


def test_every_clause_program_fires_as_the_interpreted_walk_does(replayed):
    # Every pop of every fixture run was replayed through each clause of
    # its system, and among them every rule fired that the fixture
    # lexicon can use: it has no backward-slash argument to compose.
    runs, results, counts, _ = replayed
    assert counts["pops"] == sum(r.pops for r in results)
    assert counts["compared"] == counts["made"] > 0
    rules, fired = set(), set()
    for (system, _, _), r in zip(runs, results):
        rules |= {(system.name, rule.name) for rule in system.rules}
        fired |= {(system.name, h.rule_name) for s in r.store.items() for h in s.histories}
    assert rules - fired == {
        ("ccg", "forward_compose2"), ("ccg", "backward_compose1"), ("ccg", "backward_compose2")}


def test_generated_programs_agree_with_bind_and_resolve(replayed):
    # The environments a chart premise met in the replay are kept, and
    # every ground item of the chart is matched under each of them by
    # the premise's generated matcher and by bind; so is every item
    # against every trigger, under the empty environment.
    runs, results, _, seen_envs = replayed
    tried = set()
    for (system, _, _), r in zip(runs, results):
        items = [s.item for s in r.store.items() if s.item.ground]
        for clause in system.clauses:
            trig, premises, _ = clause.compiled
            for item in items:
                _agree(trig, (), item, {})
            for k, bound in enumerate(clause.bound):
                if bound is None:
                    continue
                envs = seen_envs.get((clause, k), []) + _envs(clause, k, items)
                for env in envs:
                    for item in items:
                        _agree(premises[k].pattern, bound, item, env)
                if envs:
                    tried.add((clause, k))
    for system, _, _ in runs:
        for clause in system.clauses:
            for k, bound in enumerate(clause.bound):
                assert bound is None or (clause, k) in tried, (clause.rule_name, k)


def _envs(clause, k, items, most=20):
    """Environments reaching premise ``k``: the trigger and each chart
    premise before it bound to chart items; side conditions skipped."""
    trig, premises, _ = clause.compiled
    envs = [{}]
    for pattern in [trig] + [p.pattern for p in premises[:k] if isinstance(p, ItemPremise)]:
        grown = []
        for env in envs:
            for item in items:
                env2 = dict(env)
                if bind(pattern, item, env2, []):
                    grown.append(env2)
        envs = grown[:most]
    return envs


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


@settings(max_examples=500, deadline=None)
@given(_cases())
def test_a_generated_matcher_binds_as_bind_does(case):
    pattern, bound, t, env = case
    _agree(pattern, bound, t, env)


@settings(max_examples=300, deadline=None)
@given(
    _terms(_consts | _pattern_vars, 3),
    st.dictionaries(st.sampled_from(["X", "Y", "Z"]), _terms(_consts | _value_vars, 2)),
    st.one_of(st.none(), _ground),
)
def test_a_generated_builder_builds_what_resolve_does(term, env, u):
    # Built twice through one table: both builds equal ``resolve``'s
    # term, and the table holds only ground compounds.
    if u is not None:
        env["U"] = u
    build, table = compile_builder(term), {}
    assert build(env, table) == resolve(term, env)
    assert build(env, table) == resolve(term, env)
    assert all(type(t) is Compound and t.ground for t in table.values())


def test_equal_ground_builds_through_one_table_are_one_object():
    a, x, y, z = Const("a"), Var("X"), Var("Y"), Var("Z")
    env = {"X": a, "Y": Compound("h", (Const("b"),))}
    pattern = Compound("f", (x, Compound("g", (y, a))))
    table = {}
    first = compile_builder(pattern)(env, table)
    assert compile_builder(pattern)(env, table) is first
    # Another builder making an equal term from the same argument
    # objects finds it too, at every node.
    inner = compile_builder(Compound("g", (y, a)))(env, table)
    assert inner is first.args[1]
    assert compile_builder(Compound("f", (x, z)))({"X": a, "Z": inner}, table) is first
    assert len(table) == 2
    # Another table holds its own objects.
    other = compile_builder(pattern)(env, {})
    assert other == first and other is not first


def test_a_non_ground_build_never_enters_the_table():
    x, y, w = Var("X"), Var("Y"), Var("W")
    pattern = Compound("f", (Compound("g", (x,)), y))
    for env in ({"X": Const("a")}, {"X": Const("a"), "Y": Compound("h", (w,))}):
        table = {}
        built = compile_builder(pattern)(env, table)
        assert not built.ground
        assert list(table.values()) == [built.args[0]]
    table = {}
    assert not compile_builder(pattern)({}, table).ground
    assert table == {}


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
    monkeypatch.setitem(REGISTRY, HOSTILE[4], lambda args, ctx: iter([args]))
    rules = (
        Rule("step", [Compound(f, (x, k1)), SideCondition(HOSTILE[4], (x, k2))],
             Compound(g, (x, k2))),
        Rule("join", [Compound(g, (x, k2)), Compound(f, (x, y))],
             Compound(h, (Compound(f, (y, x)), k1))),
    )

    def axioms(grammar, w):
        return [Compound(f, (Const(tok), k1)) for tok in w.tokens]

    def goals(grammar, w):
        return [Compound(h, (Compound(f, (k1, Const(w.tokens[0]))), k1))]

    system = DeductionSystem("hostile", CfGrammar, rules, axioms, goals)
    r = parse(system, CfGrammar((), (), (), frozenset()), tokenize("a"))
    assert r.accepted
    assert [render for render in r.dump().splitlines() if HOSTILE[3] in render]
    for clause in system.clauses:
        trig, premises, consequent = clause.compiled
        sources = [matcher_source(trig, ())[0], builder_source(consequent)[0],
                   program_source(clause)[0]]
        sources += [matcher_source(p.pattern, clause.bound[k])[0]
                    for k, p in enumerate(premises) if clause.bound[k] is not None]
        for source in sources:
            assert not any(name in source for name in HOSTILE)
    for source in terms._MAKERS:
        assert not any(name in source for name in HOSTILE)


def test_an_answer_of_the_wrong_length_names_its_builtin(monkeypatch):
    # A builtin yields one term per argument; ``short`` yields one term
    # for two arguments, and both the clause program and the oracles'
    # adapter say which builtin did.
    monkeypatch.setitem(REGISTRY, "short", lambda args, ctx: iter([args[:1]]))
    x, y = Var("X"), Var("Y")
    rule = Rule("step", [Compound("f", (x,)), SideCondition("short", (x, y))],
                Compound("g", (y,)))
    system = DeductionSystem("short", CfGrammar, (rule,),
                             lambda grammar, w: [Compound("f", (Const("a"),))],
                             lambda grammar, w: [])
    grammar = CfGrammar((), (), (), frozenset())
    with pytest.raises(SideConditionError, match="short answered 1 terms for 2 arguments"):
        parse(system, grammar, tokenize("a"))
    with pytest.raises(SideConditionError, match="short answered 1 terms for 2 arguments"):
        eval_side_condition("short", (Const("a"), y), grammar, tokenize("a"))


def test_an_earlier_answer_may_bind_a_later_argument(monkeypatch):
    # ``echo`` puts its second argument, the unbound Y, inside its first
    # answer term, so binding that term binds Y to c before the second
    # position is reached; its ground answer must then agree with c.
    c, d = Const("c"), Const("d")
    monkeypatch.setitem(REGISTRY, "echo", lambda args, ctx: iter(
        [(Compound("f", (args[1],)), d), (Compound("f", (args[1],)), c)]))
    y = Var("Y")
    rule = Rule("step", [Const("go"), SideCondition("echo", (Compound("f", (c,)), y))],
                Compound("g", (y,)))
    system = DeductionSystem("echo", CfGrammar, (rule,), lambda grammar, w: [Const("go")],
                             lambda grammar, w: [])
    grammar = CfGrammar((), (), (), frozenset())
    r = parse(system, grammar, tokenize("a"))
    assert [s.item for s in r.store.items()] == [Const("go"), Compound("g", (c,))]
    [s] = eval_side_condition("echo", (Compound("f", (c,)), y), grammar, tokenize("a"))
    assert s.apply(y) == c


# ---- shared code ----

def _clause(system, rule_name, slot):
    return next(c for c in system.clauses if c.rule_name == rule_name and c.trigger_slot == slot)


def test_clauses_of_one_shape_share_code():
    ccg = system_for("ccg")
    forward = _clause(ccg, "forward_apply", 0)
    backward = _clause(ccg, "backward_apply", 1)
    assert forward.trigger != backward.trigger
    assert (compile_matcher(forward.compiled[0]).__code__
            is compile_matcher(backward.compiled[0]).__code__)
    clauses = [c for name in SYSTEM_NAMES for c in system_for(name).clauses]
    pieces = [compile_builder(c.compiled[2]) for c in clauses]
    for c in clauses:
        trig, premises, _ = c.compiled
        pieces.append(compile_matcher(trig))
        pieces += [compile_matcher(p.pattern, b) for p, b in zip(premises, c.bound)
                   if b is not None]
    assert len(pieces) == 78
    assert len({p.__code__ for p in pieces}) == 30
    # Whole clauses: backward application and forward composition look
    # up their partner by the same kind of key.
    apply_, compose = _clause(ccg, "backward_apply", 0), _clause(ccg, "forward_compose1", 0)
    assert apply_.trigger != compose.trigger
    assert apply_.program() is not compose.program()
    assert apply_.program().__code__ is compose.program().__code__
    assert len(clauses) == 29
    assert len({c.program().__code__ for c in clauses}) == 16


def test_a_system_variant_generates_no_new_code():
    # The variants differ from their base system in a transform and in
    # a rule less, not in the shape of any clause.
    for base, variant in ((make_tag(), make_tag(foot_mode="foot_axiom")),
                          (make_earley(), make_earley(restriction_depth=2))):
        for clause in base.clauses:
            clause.program()
        before = len(terms._MAKERS)
        for clause in variant.clauses:
            clause.program()
        assert len(terms._MAKERS) == before
