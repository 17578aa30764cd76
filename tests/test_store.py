"""Item store: FIFO agenda, subsumption dedup, moded retrieval."""

import pytest
from hypothesis import given, settings, strategies as st

from deduce.store import History, INITIAL, ItemStore, _key
from deduce.terms import (
    Compound,
    Const,
    Var,
    VarSource,
    mklist,
    parse_term,
    rename_with,
    subsumes,
    unify,
)


def t(text):
    return parse_term(text)


def h(name, *ante):
    return History(name, ante)


def er(i, lhs, before, after, j):
    """Dotted item with the before/after symbol lists built internally;
    the concrete term syntax has no list brackets."""
    return Compound(
        "er",
        (Const(i), t(lhs), mklist([t(x) for x in before]), mklist([t(x) for x in after]), Const(j)),
    )


def test_enqueue_assigns_one_based_indices():
    s = ItemStore()
    assert s.enqueue(t("cyk(a, 0, 1)"), h(INITIAL)) == (1, True)
    assert s.enqueue(t("cyk(b, 1, 2)"), h(INITIAL)) == (2, True)
    assert len(s) == 2
    assert s.get(1).item == t("cyk(a, 0, 1)")
    assert s.get(2).stage == 0


def test_pop_is_fifo_and_moves_the_chart_boundary():
    s = ItemStore()
    for text in ("i(1)", "i(2)", "i(3)"):
        s.enqueue(t(text), h(INITIAL))
    assert s.agenda_size == 3
    assert [s.pop(), s.pop(), s.pop()] == [1, 2, 3]
    assert s.pop() is None
    assert s.head == 4
    assert s.agenda_size == 0


def test_ground_duplicate_returns_original_index():
    s = ItemStore()
    idx, added = s.enqueue(t("cyk(a, 0, 1)"), h(INITIAL))
    dup, added2 = s.enqueue(t("cyk(a, 0, 1)"), h("binary", 3, 4))
    assert (idx, added) == (1, True)
    assert (dup, added2) == (1, False)
    assert len(s) == 1
    assert [x.rule_name for x in s.get(1).histories] == [INITIAL, "binary"]


def test_item_subsumed_by_earlier_more_general_one_is_a_duplicate():
    s = ItemStore()
    s.enqueue(er(0, "r(X, N)", [], [], 2), h(INITIAL))
    dup, added = s.enqueue(er(0, "r(0, s(0))", [], [], 2), h("complete", 1, 1))
    assert (dup, added) == (1, False)


def test_more_general_item_after_specific_one_is_kept():
    s = ItemStore()
    s.enqueue(t("f(a)"), h(INITIAL))
    idx, added = s.enqueue(t("f(X)"), h("predict", 1))
    assert (idx, added) == (2, True)
    assert len(s) == 2


def test_duplicate_history_is_recorded_once():
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    s.enqueue(t("i(1)"), h("scan", 1))
    s.enqueue(t("i(1)"), h("scan", 1))
    assert len(s.get(1).histories) == 2


def test_a_repeated_history_in_one_stage_is_recorded_once():
    # The repeat is caught on the item it created and on an older item;
    # the same justification on another item is that item's own.
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    assert s.pop() == 1
    assert s.enqueue(t("i(2)"), h("pair", 1, 1)) == (2, True)
    assert s.enqueue(t("i(2)"), h("pair", 1, 1)) == (2, False)
    s.enqueue(t("i(1)"), h("pair", 1, 1))
    s.enqueue(t("i(3)"), h("pair", 1, 2))
    s.enqueue(t("i(1)"), h("pair", 1, 1))
    assert [x.render() for x in s.get(1).histories] == ["initial()", "pair(1;1)"]
    assert [x.render() for x in s.get(2).histories] == ["pair(1;1)"]
    assert [s.get(i).stage for i in (1, 2, 3)] == [0, 1, 1]
    assert s.duplicates == 3


def test_a_justification_is_forgotten_at_the_next_pop():
    # Within one pop a repeat is recorded once; after the next pop the
    # store no longer remembers it, so it is recorded again.
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    s.enqueue(t("i(2)"), h(INITIAL))
    s.pop()
    s.enqueue(t("i(2)"), h("scan", 1))
    s.enqueue(t("i(2)"), h("scan", 1))
    assert [x.render() for x in s.get(2).histories] == ["initial()", "scan(1)"]
    s.pop()
    s.enqueue(t("i(2)"), h("scan", 1))
    s.enqueue(t("i(2)"), h("scan", 1))
    assert [x.render() for x in s.get(2).histories] == ["initial()", "scan(1)", "scan(1)"]
    assert s.duplicates == 4


def test_a_history_is_an_immutable_pair():
    x = History("complete", (3, 4))
    assert (x.rule_name, x.antecedents) == ("complete", (3, 4))
    assert x.render() == "complete(3;4)"
    assert History(INITIAL, ()).render() == "initial()"
    assert x == History("complete", (3, 4)) and hash(x) == hash(History("complete", (3, 4)))
    assert x != History("complete", (4, 3)) and x != History("predict", (3, 4))
    assert repr(x) == "History('complete', (3, 4))"
    # Built as the clause programs build it, with no Python-level code.
    assert tuple.__new__(History, ("complete", (3, 4))) == x
    with pytest.raises(AttributeError):
        x.rule_name = "scan"
    with pytest.raises(AttributeError):
        x.note = "extra"


def test_every_distinct_justification_is_kept():
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    for k in range(100):
        s.enqueue(t("i(1)"), h("scan", k))
    assert len(s.get(1).histories) == 101


def test_renamed_retrieval_never_mutates_the_store():
    s = ItemStore()
    s.enqueue(t("f(X, X, b)"), h(INITIAL))
    src = VarSource()
    copy1 = s.renamed(1, src)
    copy2 = s.renamed(1, src)
    assert copy1 != copy2
    assert subsumes(copy1, copy2) and subsumes(copy2, copy1)
    assert s.get(1).item == t("f(X, X, b)")


@pytest.mark.parametrize("index", [0, -1, 3])
def test_an_index_outside_the_store_raises(index):
    # Index 0 once read as the last item, and -1 as the one before it.
    s = ItemStore()
    s.enqueue(t("f(a)"), h(INITIAL))
    s.enqueue(t("f(X)"), h(INITIAL))
    with pytest.raises(IndexError):
        s.get(index)
    with pytest.raises(IndexError):
        s.renamed(index, VarSource())
    assert [s.get(i).index for i in (1, 2)] == [1, 2]


def test_key_reads_the_principal_symbol_at_each_path():
    # Constants give their name, compounds their functor and arity, so
    # a DCG symbol with open arguments is still keyed on r/2.
    assert _key(er(0, "r(s(X), N)", [], [], 2), ((0,), (1,), (3,))) == (0, ("r", 2), "[]")
    assert _key(er(0, "s", ["np"], ["vp"], 2), ((3,), (3, 0), (4,))) == ((".", 2), "vp", 2)
    assert _key(t("cyk(A, 0, 2)"), ((1,), (2,))) == (0, 2)
    # A variable on a path leaves the item unkeyed.
    assert _key(t("cyk(A, 0, 2)"), ((0,), (1,))) is None
    assert _key(er(0, "s", [], ["Z"], 2), ((3,), (3, 0))) is None
    # A path the item lacks reads the symbol where the walk stops.
    assert _key(er(0, "s", [], [], 2), ((3,), (3, 0))) == ("[]", "[]")
    assert _key(t("done"), ()) == ()


def test_chart_matches_only_sees_the_chart_prefix():
    s = ItemStore()
    s.enqueue(t("cyk(a, 0, 1)"), h(INITIAL))
    s.enqueue(t("cyk(a, 1, 2)"), h(INITIAL))
    assert s.chart_matches(t("cyk(a, I, J)")) == []
    s.pop()
    hits = s.chart_matches(t("cyk(a, I, J)"))
    assert [idx for idx, _ in hits] == [1]
    hits = s.chart_matches(t("cyk(a, I, J)"), below=3)
    assert [idx for idx, _ in hits] == [1, 2]


def test_chart_matches_returns_the_unifier():
    s = ItemStore()
    s.enqueue(t("cyk(b, 1, 2)"), h(INITIAL))
    s.pop()
    pattern = t("cyk(C, 1, K)")
    [(idx, sub)] = s.chart_matches(pattern)
    assert idx == 1
    assert sub.apply(pattern) == t("cyk(b, 1, 2)")


def test_goal_items_accept_subsumption_in_either_direction():
    s = ItemStore()
    s.enqueue(er(0, "r(0, s(s(0)))", ["a"], [], 2), h(INITIAL))
    s.enqueue(er(0, "q", [], [], 2), h(INITIAL))
    s.pop()
    s.pop()
    open_goal = er(0, "r(0, N)", ["a"], [], 2)
    assert s.goal_items([open_goal]) == [1]
    general_stored = ItemStore()
    general_stored.enqueue(er(0, "r(X, N)", ["a"], [], 2), h(INITIAL))
    general_stored.pop()
    ground_goal = er(0, "r(0, z)", ["a"], [], 2)
    assert general_stored.goal_items([ground_goal]) == [1]


def scanned_goal_items(store, patterns):
    """``goal_items`` as a scan of the whole chart, subsumption both
    ways, for every pattern."""
    chart = [store.get(i) for i in range(1, store.head)]
    return sorted({s.index for p in patterns for s in chart
                   if subsumes(p, s.item) or subsumes(s.item, p)})


def test_a_ground_goal_finds_its_generalisers_in_the_indexes():
    s = ItemStore()
    goal = t("goal(s(0), 1)")
    for item in ("goal(s(0), 1)", "goal(s(K), 2)", "goal(s(K), 1)", "goal(M, 1)"):
        assert s.enqueue(t(item), h(INITIAL))[1]
    for _ in range(3):
        s.pop()
    # The item itself and the generaliser keyed like it count; the
    # wildcard generaliser is still on the agenda.
    patterns = [goal, t("goal(s(0), Y)")]
    assert s.goal_items([goal]) == [1, 3]
    assert s.goal_items(patterns) == scanned_goal_items(s, patterns)
    assert s.enqueue(t("X"), h(INITIAL)) == (5, True)
    s.pop()
    assert s.goal_items([goal]) == [1, 3, 4]
    s.pop()
    assert s.goal_items([goal]) == [1, 3, 4, 5]
    assert s.goal_items(patterns) == scanned_goal_items(s, patterns)


def test_goal_items_ignore_the_agenda_suffix():
    s = ItemStore()
    s.enqueue(t("done"), h(INITIAL))
    assert s.goal_items([t("done")]) == []
    s.pop()
    assert s.goal_items([t("done")]) == [1]


def test_dump_is_tab_separated_with_all_histories():
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    s.pop()
    s.enqueue(t("i(2)"), h("scan", 1))
    s.enqueue(t("i(2)"), h("predict", 1))
    text = s.dump()
    lines = text.splitlines()
    assert lines[0] == "1\t0\ti(1)\tinitial()"
    assert lines[1] == "2\t1\ti(2)\tscan(1)\tpredict(1)"
    assert text.endswith("\n")


def test_dump_accepts_a_custom_renderer():
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    text = s.dump(render=lambda item: "ITEM")
    assert "\tITEM\t" in text


# ---- property tests ----

_heads = st.sampled_from(["a", "b", "s", "np"])


@st.composite
def _leaf(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return Const(draw(_heads))
    if choice == 1:
        return Const(draw(st.integers(0, 3)))
    return Var(draw(st.sampled_from(["X", "Y", "Z"])))


@st.composite
def _items(draw):
    functor = draw(st.sampled_from(["cyk", "cc"]))
    args = draw(st.lists(_leaf(), min_size=1, max_size=3))
    return Compound(functor, tuple(args))


# Items of two functors over leaves and compounds, with variables at
# every depth, looked up through modes whose paths reach below the top.
MODES = (
    (("f", 3), ((0,), (0, 0), (2,))),
    (("f", 3), ((1,),)),
    (("f", 3), ()),
    (("k", 2), ((0,), (1,))),
)

_leaves = st.one_of(
    st.sampled_from([Const("a"), Const("b"), Const(0), Const(1)]),
    st.sampled_from([Var("X"), Var("Y")]),
)
_args = st.one_of(
    _leaves,
    st.builds(lambda x, y: Compound("g", (x, y)), _leaves, _leaves),
    st.builds(lambda x: Compound("h", (x,)), _leaves),
)
_terms = st.one_of(
    st.builds(lambda *a: Compound("f", a), _args, _args, _args),
    st.builds(lambda *a: Compound("k", a), _args, _args),
)


def _closed_store(items):
    s = ItemStore(MODES)
    for item in items:
        s.enqueue(item, h(INITIAL))
    while s.pop() is not None:
        pass
    return s


@settings(max_examples=200)
@given(stored=st.lists(_terms, max_size=14), pattern=_terms, mode=st.sampled_from(MODES + (None,)))
def test_moded_retrieval_agrees_with_a_linear_unify_scan(stored, pattern, mode):
    s = _closed_store(stored)
    src = VarSource(1_000)
    expected = [
        stored_item.index for stored_item in s.items()
        if unify(pattern, rename_with(stored_item.item, {}, src)) is not None
    ]
    # A mode of the other functor must not hide a match.
    hits = s.chart_matches(pattern, source=VarSource(5_000), mode=mode)
    assert [i for i, _ in hits] == expected


@settings(max_examples=200)
@given(stored=st.lists(_terms, max_size=14), probe=_terms)
def test_enqueue_finds_a_subsumer_exactly_when_a_linear_scan_does(stored, probe):
    s = _closed_store(stored)
    first = next((x.index for x in s.items() if subsumes(x.item, probe)), None)
    before = len(s)
    idx, added = s.enqueue(probe, h("scan", 1))
    if first is None:
        assert (idx, added) == (before + 1, True)
    else:
        assert (idx, added) == (first, False)


@settings(max_examples=60)
@given(stored=st.lists(_items(), max_size=12), probe=_items())
def test_dedup_never_stores_an_item_an_earlier_one_subsumes(stored, probe):
    s = ItemStore()
    for item in stored:
        s.enqueue(item, h(INITIAL))
    idx, added = s.enqueue(probe, h("scan", 1))
    if added:
        for other in list(s.items())[: idx - 1]:
            assert not subsumes(other.item, probe)
    else:
        assert subsumes(s.get(idx).item, probe)
