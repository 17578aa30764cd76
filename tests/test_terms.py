"""Unification, matching, renaming, and abstraction, checked against
small brute-force oracles where the property is about instance sets."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deduce.terms import (
    Compound,
    Const,
    FRESH_SPACES,
    NIL,
    Substitution,
    TermSyntaxError,
    Var,
    VarSource,
    abstract_depth,
    bind,
    canonical,
    is_ground,
    mklist,
    parse_term,
    parse_term_seq,
    _TermParser,
    render_term,
    rename_apart,
    rename_with,
    resolve,
    space_source,
    subsumes,
    term_vars,
    tokenize_terms,
    undo,
    unify,
    unlist,
    variant,
)


def t(text):
    return parse_term(text)


# ---- construction and syntax ----

def test_parse_basic_shapes():
    assert t("a") == Const("a")
    assert t("X") == Var("X")
    assert t("_foo") == Var("_foo")
    assert t("42") == Const(42)
    assert t("f(a, X)") == Compound("f", (Const("a"), Var("X")))
    assert t("r(s(0), N)") == Compound(
        "r", (Compound("s", (Const(0),)), Var("N"))
    )


def test_parse_seq_splits_on_whitespace_not_inside_parens():
    seq = parse_term_seq("r(s(X), N) b")
    assert seq == [t("r(s(X), N)"), Const("b")]


def test_render_round_trips():
    for text in ["a", "f(a, X)", "r(s(s(0)), N)", "g(X, X)"]:
        assert t(render_term(t(text))) == t(text)


def test_a_deep_term_renders():
    chain = Const(0)
    for _ in range(5000):
        chain = Compound("s", (chain,))
    assert render_term(chain) == "s(" * 5000 + "0" + ")" * 5000


def test_list_encoding():
    xs = mklist([Const("a"), Var("X")])
    assert unlist(xs) == [Const("a"), Var("X")]
    assert unlist(NIL) == []
    assert render_term(xs) == "[a, X]"


def test_ground_flag():
    assert is_ground(t("f(a, g(b))"))
    assert not is_ground(t("f(a, X)"))


# ---- unification examples ----

def test_unify_binds_variable():
    s = unify(t("f(X, b)"), t("f(a, Y)"))
    assert s.apply(t("f(X, b)")) == t("f(a, b)")
    assert s.apply(t("f(a, Y)")) == t("f(a, b)")


def test_unify_clash_fails():
    assert unify(t("f(a)"), t("f(b)")) is None
    assert unify(t("f(a)"), t("g(a)")) is None
    assert unify(t("f(a)"), t("f(a, b)")) is None


def test_unify_occurs_check():
    assert unify(t("X"), t("f(X)")) is None
    assert unify(t("f(X, X)"), t("f(Y, g(Y))")) is None


def test_bind_keeps_the_occurs_check():
    for a, b in [("X", "f(X)"), ("f(X)", "X")]:
        assert unify(t(a), t(b)) is None
        assert not bind(t(a), t(b), {}, [])
    # The cycle may run through an earlier binding.
    env, trail = {}, []
    assert bind(t("Y"), t("g(X)"), env, trail)
    assert not bind(t("X"), t("f(Y)"), env, trail)


def test_resolve_keeps_each_compound_none_of_whose_arguments_changed():
    # A side condition's step skips an answer argument by identity, so
    # an argument resolved and passed through stays the same object.
    term = t("f(g(X), h(Y), Z)")
    assert resolve(term, {}) is term
    assert resolve(term, {"W": Const("a")}) is term
    out = resolve(term, {"Y": Const("a")})
    assert out == t("f(g(X), h(a), Z)")
    assert out.args[0] is term.args[0] and out.args[2] is term.args[2]
    assert resolve(t("V"), {"V": term}) is term


def test_unify_shared_variables():
    s = unify(t("f(X, X)"), t("f(Y, a)"))
    assert s is not None
    assert s.apply(t("X")) == Const("a")
    assert s.apply(t("Y")) == Const("a")


# ---- subsumption examples ----

def test_subsumes_examples():
    assert subsumes(t("f(X, Y)"), t("f(a, b)"))
    assert subsumes(t("f(X, Y)"), t("f(Z, Z)"))
    assert not subsumes(t("f(X, X)"), t("f(a, b)"))
    assert subsumes(t("f(X, X)"), t("f(a, a)"))
    assert not subsumes(t("f(a)"), t("f(X)"))


def test_variant():
    assert variant(t("f(X, Y)"), t("f(A, B)"))
    assert not variant(t("f(X, Y)"), t("f(A, A)"))


# ---- renaming and abstraction examples ----

def test_fresh_variable_spaces_never_meet():
    # Each space, late in its run (as many draws as once separated two
    # spaces' start offsets), draws nothing another space or a parse
    # draws first.  A source draws an arithmetic progression, so two
    # draws give its position after any number of them.
    def draws(source, n):
        return {source.fresh().id for _ in range(n)}

    assert "clause" in FRESH_SPACES
    firsts = {name: draws(space_source(name), 3) for name in FRESH_SPACES}
    firsts["parse"] = draws(VarSource(), 3)
    for name in FRESH_SPACES:
        source = space_source(name)
        start = source.fresh().id
        step = source.fresh().id - start
        drawn = draws(VarSource(start + (10_000_000 - 2) * step, step), 4)
        for other, ids in firsts.items():
            if other != name:
                assert not drawn & ids, (name, other)


def test_rename_apart_fresh_and_consistent():
    out = rename_apart(t("f(X, g(X, Y))"), {"X", "Y"})
    assert variant(out, t("f(X, g(X, Y))"))
    assert not set(term_vars(out)) & {"X", "Y"}
    a, b = term_vars(out)
    assert a != b


def test_rename_apart_default_series():
    assert rename_apart(t("f(X, Y)"), set()) == t("f(V1, V2)")


def test_rename_apart_with_source_uses_integers():
    src = VarSource()
    out = rename_apart(t("f(X, X)"), set(), src)
    vs = term_vars(out)
    assert len(vs) == 1 and isinstance(vs[0], int)


def test_abstract_depth_examples():
    assert abstract_depth(t("r(s(s(0)), N)"), 2) == t("r(s(V1), N)")
    got = abstract_depth(t("r(s(s(0)), N)"), 1)
    assert got == t("r(V1, V2)")
    assert abstract_depth(t("f(a)"), 5) == t("f(a)")


def test_abstract_depth_zero_is_a_variable():
    out = abstract_depth(t("f(a, b)"), 0)
    assert isinstance(out, Var)


def test_canonical_identifies_variants():
    assert canonical(t("f(X, g(X, Y))")) == canonical(t("f(B, g(B, C))"))
    assert canonical(t("f(X, Y)")) != canonical(t("f(X, X)"))


# ---- property tests over random small terms ----

_consts = st.sampled_from(["a", "b"]).map(Const)
_vars = st.sampled_from(["X", "Y", "Z"]).map(Var)


def _terms(depth):
    if depth == 0:
        return _consts | _vars
    sub = _terms(depth - 1)
    return (
        _consts
        | _vars
        | st.tuples(sub).map(lambda a: Compound("f", a))
        | st.tuples(sub, sub).map(lambda a: Compound("g", a))
    )


small_terms = _terms(3)


@settings(max_examples=300, deadline=None)
@given(small_terms, small_terms)
def test_unify_produces_a_unifier_and_is_idempotent(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        u1, u2 = s.apply(t1), s.apply(t2)
        assert u1 == u2
        assert s.apply(u1) == u1


@settings(max_examples=200, deadline=None)
@given(small_terms, small_terms)
def test_unify_symmetric_up_to_variance(t1, t2):
    s12 = unify(t1, t2)
    s21 = unify(t2, t1)
    assert (s12 is None) == (s21 is None)
    if s12 is not None:
        assert variant(s12.apply(t1), s21.apply(t1))


@settings(max_examples=200, deadline=None)
@given(small_terms, small_terms, small_terms, small_terms)
def test_bind_under_an_environment_agrees_with_unify(p1, p2, t1, t2):
    # The prior environment is left in the triangular form bind builds;
    # unify solves both equations at once.  A most general unifier is
    # unique only up to renaming (p1=Y, p2=X, t1=X, t2=Y binds either
    # variable to the other), so the two are compared by variance over
    # the values of all the variables at once.
    env, trail = {}, []
    assume(bind(p1, p2, env, trail))
    expected = unify(mklist([p1, t1]), mklist([p2, t2]))
    ok = bind(t1, t2, env, trail)
    assert ok == (expected is not None)
    if ok:
        vs = [Var(v) for v in dict.fromkeys(term_vars(mklist([p1, p2, t1, t2])))]
        bound = mklist([resolve(v, env) for v in vs])
        assert variant(bound, mklist([expected.apply(v) for v in vs]))


@settings(max_examples=300, deadline=None)
@given(small_terms, small_terms, small_terms, small_terms)
def test_undo_restores_the_environment(p1, p2, t1, t2):
    env, trail = {}, []
    bind(p1, p2, env, trail)
    undo(env, trail, 0)
    assert env == {} and trail == []
    if bind(p1, p2, env, trail):
        before, mark = dict(env), len(trail)
        bind(t1, t2, env, trail)  # may fail after binding some variables
        undo(env, trail, mark)
        assert env == before and len(trail) == mark


def _ground_universe(max_depth):
    """All ground terms over constants a, b and functors f/1, g/2."""
    layers = [[Const("a"), Const("b")]]
    for _ in range(max_depth):
        prev = [x for layer in layers for x in layer]
        new = [Compound("f", (x,)) for x in prev]
        new += [Compound("g", p) for p in itertools.product(prev, prev)]
        layers.append(new)
    return [x for layer in layers for x in layer]


_UNIVERSE_SMALL = _ground_universe(1)


def _ground_instances(term, universe):
    vs = term_vars(term)
    for values in itertools.product(universe, repeat=len(vs)):
        s = unify(mklist([Var(v) for v in vs]), mklist(values))
        yield s.apply(term)


@settings(max_examples=120, deadline=None)
@given(_terms(2), _terms(2))
def test_subsumes_agrees_with_instance_set_inclusion(g, s):
    # Oracle: g subsumes s iff every ground instance of s (over a small
    # universe) is an instance of g, that is, unifies with it.  Renaming
    # apart mirrors the caller contract.
    s = rename_apart(s, set(term_vars(g)))
    claimed = subsumes(g, s)
    oracle = all(
        unify(g, inst) is not None
        for inst in _ground_instances(s, _UNIVERSE_SMALL)
    )
    assert claimed == oracle


@settings(max_examples=80, deadline=None)
@given(_terms(2), _terms(2))
def test_mgu_agrees_with_ground_common_instances(t1, t2):
    # Oracle: enumerate shared ground assignments; the terms unify iff
    # some assignment makes them equal, and every such common value is
    # an instance of the mgu image.
    s = unify(t1, t2)
    vs = sorted(set(term_vars(t1)) | set(term_vars(t2)))
    common = []
    for values in itertools.product(_UNIVERSE_SMALL, repeat=len(vs)):
        assign = unify(mklist([Var(v) for v in vs]), mklist(values))
        if assign.apply(t1) == assign.apply(t2):
            common.append(assign.apply(t1))
    if s is None:
        assert not common
    else:
        joined = s.apply(t1)
        for inst in common:
            assert subsumes(joined, inst)


@settings(max_examples=200, deadline=None)
@given(small_terms)
def test_rename_apart_yields_variant(term):
    out = rename_apart(term, {"X", "Y", "Z"})
    assert variant(out, term)
    assert not set(term_vars(out)) & {"X", "Y", "Z"}


@settings(max_examples=200, deadline=None)
@given(small_terms, st.integers(min_value=0, max_value=4))
def test_abstract_depth_subsumes_original(term, d):
    out = abstract_depth(term, d)
    assert subsumes(out, rename_apart(term, set(term_vars(out))))


@settings(max_examples=100, deadline=None)
@given(small_terms, st.integers(min_value=0, max_value=3))
def test_abstract_depth_bounds_depth(term, d):
    def depth(x):
        if isinstance(x, Compound):
            return 1 + max(depth(a) for a in x.args)
        return 0

    assert depth(abstract_depth(term, d)) <= d


def _rebuilt(term):
    """``term`` built again from new nodes, none of them hashed yet."""
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_rebuilt(a) for a in term.args))
    return Var(term.id) if isinstance(term, Var) else Const(term.name)


def _recursively_ground(term):
    if isinstance(term, Var):
        return False
    if isinstance(term, Compound):
        return all(_recursively_ground(a) for a in term.args)
    return True


@settings(max_examples=200, deadline=None)
@given(small_terms, small_terms)
def test_equal_terms_built_by_different_routes_hash_equal(t1, t2):
    # The same term by substitution, by resolving a binding, by parsing
    # its rendering and by fresh construction: a non-ground one is hashed
    # on first use, after its subterms or before them.
    assume("X" not in term_vars(t2))
    hash(t2)
    env = {"X": t2}
    routes = [
        Substitution(env).apply(t1),
        resolve(t1, env),
        _rebuilt(resolve(t1, env)),
        parse_term(render_term(resolve(t1, env))),
    ]
    hash(routes[0])
    table = {routes[0]: "first"}
    for term in routes:
        assert term == routes[0]
        assert hash(term) == hash(routes[0])
        assert table.get(term) == "first"
    for term in routes + [t1, t2, Compound("g", (t1, t2))]:
        assert term.ground == _recursively_ground(term)


def test_deep_ground_terms_hash_and_compare_without_recursing():
    # Unrestricted Earley on a counting DCG builds successor chains
    # thousands deep; hashing one or comparing two must not recurse.
    def chain(n, base):
        out = Const(base)
        for _ in range(n):
            out = Compound("s", (out,))
        return out

    a, b = chain(5000, 0), chain(5000, 1)
    assert a != b
    assert {a: 1}.get(b) is None
    assert Compound("f", (a, Var("X"))) != Compound("f", (b, Var("X")))
    assert hash(Compound("f", (a, Var("X")))) == hash(Compound("f", (a, Var("X"))))


@pytest.mark.parametrize("depth", [500, 3_000, 20_000])
def test_equal_deep_ground_terms_compare_without_recursion_error(depth):
    # Two separately built chains share no subterm, so ``==`` must go
    # all the way down; past the Python stack it walks its own.
    def chain(base):
        out = Const(base)
        for _ in range(depth):
            out = Compound("s", (out,))
        return out

    a, b = chain(0), chain(0)
    assert a is not b and a == b and not a != b
    assert {a: "a"}[b] == "a"
    c = chain(1)
    assert a != c and not a == c
    # Chains that differ only at the bottom but collide in every hash
    # above it are told apart below the root.
    d = chain(2)
    x, y = c, d
    while type(x) is Compound:
        y._hash = x._hash
        x, y = x.args[0], y.args[0]
    assert c != d and not c == d
    assert Compound("f", (a, Var("X"))) == Compound("f", (b, Var("X")))
    assert Compound("f", (c, Var("X"))) != Compound("f", (d, Var("X")))


# ---- deep terms: no recursion on nesting depth ----

def _deep_chain(n, base):
    out = base
    for _ in range(n):
        out = Compound("s", (out,))
    return out


def test_a_substitution_applies_to_a_deep_term():
    chain = _deep_chain(3000, Var("X"))
    assert unify(Var("X"), Const(0)).apply(chain) == _deep_chain(3000, Const(0))
    assert unify(chain, Var("Y")).apply(chain) == chain
    deep = _deep_chain(10_000, Var("X"))
    assert unify(Var("X"), Var("Z")).apply(deep) == _deep_chain(10_000, Var("Z"))
    assert unify(Var("W"), Const(0)).apply(deep) == deep


def test_a_deep_term_renames_compares_abstracts_and_parses():
    n = 10_000
    chain = _deep_chain(n, Var("X"))
    assert canonical(chain) == _deep_chain(n, Var(0))
    assert rename_with(chain, {}, VarSource(7)) == _deep_chain(n, Var(7))
    assert rename_apart(chain, {"X"}) == _deep_chain(n, Var("V1"))
    assert rename_apart(chain, set(), VarSource(7)) == _deep_chain(n, Var(7))
    assert abstract_depth(chain, n + 1) == chain
    assert abstract_depth(chain, n) == _deep_chain(n, Var("V1"))
    assert chain == _deep_chain(n, Var("X"))
    assert chain != _deep_chain(n, Var("Y"))
    assert parse_term(render_term(chain)) == chain
    assert parse_term_seq(render_term(chain) + " b") == [chain, Const("b")]
    assert unify(chain, Var("Y")).apply(Var("Y")) == chain
    assert unify(chain, _deep_chain(n, Const(0))).apply(Var("X")) == Const(0)
    assert resolve(chain, {}) == chain
    assert resolve(chain, {"X": Var("Y")}) == _deep_chain(n, Var("Y"))
    assert resolve(chain, {"X": Const(0)}) == _deep_chain(n, Const(0))
    assert resolve(Var("Y"), {"Y": chain, "X": Var("Z")}) == _deep_chain(n, Var("Z"))


# The recursive definitions the iterative ones replaced, as references.

def _old_rename(x, mapping, fresh):
    if x.ground:
        return x
    if isinstance(x, Var):
        got = mapping.get(x.id)
        if got is None:
            got = mapping[x.id] = fresh()
        return got
    return Compound(x.functor, tuple(_old_rename(a, mapping, fresh) for a in x.args))


def _old_canonical(x, mapping):
    if x.ground:
        return x
    if isinstance(x, Var):
        if x.id not in mapping:
            mapping[x.id] = Var(len(mapping))
        return mapping[x.id]
    return Compound(x.functor, tuple(_old_canonical(a, mapping) for a in x.args))


def _old_abstract_depth(x, d, depth, fresh):
    if depth >= d:
        return fresh()
    if isinstance(x, Compound):
        return Compound(x.functor, tuple(_old_abstract_depth(a, d, depth + 1, fresh)
                                         for a in x.args))
    return x


def _named_series(avoid):
    """V1, V2, ... skipping the names in ``avoid``."""
    names = (f"V{n}" for n in itertools.count(1) if f"V{n}" not in avoid)
    return lambda: Var(next(names))


def _old_eq(a, b):
    if isinstance(a, Compound):
        return (
            isinstance(b, Compound) and a.ground is b.ground and a.functor == b.functor
            and len(a.args) == len(b.args)
            and all(_old_eq(x, y) for x, y in zip(a.args, b.args))
        )
    return type(a) is type(b) and (a.id == b.id if isinstance(a, Var) else a.name == b.name)


def _old_parse(tokens, pos, symbol):
    """(term, next position) by recursive descent."""
    kind, val = tokens[pos]
    pos += 1
    if kind == "int":
        return Const(int(val)), pos
    if kind == "quoted":
        return Const(val), pos
    opens = pos < len(tokens) and tokens[pos] == ("punct", "(")
    if not symbol and (val[0].isupper() or val[0] == "_"):
        if opens:
            raise TermSyntaxError(val)
        return Var(val), pos
    if opens:
        args = []
        while True:
            arg, pos = _old_parse(tokens, pos + 1, False)
            args.append(arg)
            if tokens[pos] != ("punct", ","):
                break
        return Compound(val, tuple(args)), pos + 1
    return Const(val), pos


_names = st.sampled_from(["a", "b", "'q r'", "7", "X", "_y", "Z"])


def _texts(depth):
    if depth == 0:
        return _names
    sub = _texts(depth - 1)
    return _names | st.builds(
        lambda f, args: f"{f}({', '.join(args)})",
        st.sampled_from(["f", "g", "S"]), st.lists(sub, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(small_terms, small_terms, st.integers(min_value=0, max_value=4))
def test_the_iterative_term_walks_give_the_recursive_results(t1, t2, d):
    pair = Compound("g", (t1, t2))
    for term in (t1, pair):
        src1, src2 = VarSource(5), VarSource(5)
        m1, m2 = {"Y": Var(99)}, {"Y": Var(99)}
        assert rename_with(term, m1, src1) == _old_rename(term, m2, src2.fresh)
        assert m1 == m2 and src1.fresh() == src2.fresh()
        assert canonical(term) == _old_canonical(term, {})
        avoid = {"V1", "X"} | set(term_vars(term))
        assert rename_apart(term, {"V1", "X"}) == _old_rename(term, {}, _named_series(avoid))
        src1, src2 = VarSource(5), VarSource(5)
        assert abstract_depth(term, d, src1) == _old_abstract_depth(term, d, 0, src2.fresh)
        assert src1.fresh() == src2.fresh()
        series = _named_series(set(term_vars(term)))
        assert abstract_depth(term, d) == _old_abstract_depth(term, d, 0, series)
    for a, b in ((t1, t2), (t1, _rebuilt(t1)), (pair, Compound("g", (_rebuilt(t1), t2)))):
        assert (a == b) == _old_eq(a, b)
        assert (a != b) == (not _old_eq(a, b))


@settings(max_examples=300, deadline=None)
@given(_texts(3), st.booleans())
def test_the_iterative_parser_gives_the_recursive_result(text, symbol):
    tokens = tokenize_terms(text)
    parser = _TermParser(tokens)
    try:
        want = _old_parse(tokens, 0, symbol)
    except TermSyntaxError:
        with pytest.raises(TermSyntaxError):
            parser.parse_symbol() if symbol else parser.parse_term()
        return
    got = parser.parse_symbol() if symbol else parser.parse_term()
    assert _old_eq(got, want[0]) and parser.pos == want[1] == len(tokens)
