"""The generated matchers and builders against ``bind`` and ``resolve``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from deduce import terms
from deduce.engine import check_soundness, parse
from deduce.grammar import CfGrammar, tokenize
from deduce.systems import (
    SYSTEM_NAMES,
    DeductionSystem,
    ItemPremise,
    Rule,
    RuleClause,
    make_earley,
    make_tag,
    system_for,
)
from deduce.terms import (
    Compound,
    Const,
    Var,
    bind,
    builder_source,
    compile_builder,
    compile_matcher,
    matcher_source,
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


def test_generated_programs_agree_with_bind_and_resolve(
        monkeypatch, toy_grammar, cnf_ab_grammar, ambiguous_grammar, abn_grammar,
        ccg_lexicon, trip_grammar, counting_grammar):
    # Every matcher call the engine makes is replayed through bind, and
    # every built consequent compared with resolve's.  The environments
    # a premise met are kept, and afterwards every ground item of the
    # chart is matched under each of them, and under the empty one
    # against every trigger.
    seen_envs: dict = {}
    plain_programs = RuleClause.programs

    def checking_programs(self):
        trigger, matchers, build = plain_programs(self)
        trig, premises, consequent = self.compiled

        def checked(k, match):
            pattern, bound = premises[k].pattern, self.bound[k]

            def checking_match(t, env, trail):
                envs = seen_envs.setdefault((self, k), [])
                if len(envs) < 8:
                    envs.append(dict(env))
                _agree(pattern, bound, t, env)
                return match(t, env, trail)

            return checking_match

        def checking_build(env):
            out = build(env)
            assert out == resolve(consequent, env)
            return out

        return (
            trigger,
            tuple(m and checked(k, m) for k, m in enumerate(matchers)),
            checking_build,
        )

    monkeypatch.setattr(RuleClause, "programs", checking_programs)
    runs = _fixture_runs(toy_grammar, cnf_ab_grammar, ambiguous_grammar, abn_grammar,
                         ccg_lexicon, trip_grammar, counting_grammar)
    tried = set()
    for system, grammar, sentence in runs:
        r = parse(system, grammar, tokenize(sentence))
        assert r.accepted and not check_soundness(r)
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
    if u is not None:
        env["U"] = u
    assert compile_builder(term)(env) == resolve(term, env)


# ---- names never reach the generated source ----

HOSTILE = [
    "it's",
    'say "hi"',
    "two\nlines",
    "__import__('os').system('false')",
    "'); raise SystemExit(('",
]


def test_hostile_names_parse_and_stay_out_of_the_source():
    f, g, h = HOSTILE[3], HOSTILE[0], HOSTILE[2]
    k1, k2 = Const(HOSTILE[1]), Const(HOSTILE[4])
    x, y = Var(HOSTILE[3]), Var("Y")
    rules = (
        Rule("step", [Compound(f, (x, k1))], Compound(g, (x, k2))),
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
        sources = [matcher_source(trig, ())[0], builder_source(consequent)[0]]
        sources += [matcher_source(p.pattern, clause.bound[k])[0]
                    for k, p in enumerate(premises)]
        for source in sources:
            assert not any(name in source for name in HOSTILE)
    for source in terms._MAKERS:
        assert not any(name in source for name in HOSTILE)


# ---- shared code ----

def test_clauses_of_one_shape_share_code():
    ccg = system_for("ccg")
    forward = next(c for c in ccg.clauses
                   if c.rule_name == "forward_apply" and c.trigger_slot == 0)
    backward = next(c for c in ccg.clauses
                    if c.rule_name == "backward_apply" and c.trigger_slot == 1)
    assert forward.trigger != backward.trigger
    assert forward.programs()[0] is not backward.programs()[0]
    assert forward.programs()[0].__code__ is backward.programs()[0].__code__
    programs = [
        p
        for name in SYSTEM_NAMES
        for c in system_for(name).clauses
        for p in (c.programs()[0], c.programs()[2], *c.programs()[1])
        if p is not None
    ]
    assert len(programs) == 78
    assert len({p.__code__ for p in programs}) == 30
