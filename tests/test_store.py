"""Item store: FIFO agenda, subsumption dedup, indexed retrieval."""

import pytest
from hypothesis import given, settings, strategies as st

from deduce.store import (
    History,
    INITIAL,
    ItemStore,
    WILD,
    _NONE,
    _compatible,
    key_of_default,
)
from deduce.terms import (
    Compound,
    Const,
    Var,
    VarSource,
    mklist,
    parse_term,
    render_term,
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


def test_key_of_default_frozen_examples():
    assert key_of_default(t("cyk(s, 0, 2)")) == ("cyk", 0, "s")
    assert key_of_default(t("cc(fw(s, np), 1, 3)")) == ("cc", 1, "fw")
    assert key_of_default(Const("done")) == ("done", _NONE, _NONE)
    functor, int_feat, sym_feat = key_of_default(t("cyk(A, 0, 2)"))
    assert functor == "cyk"
    assert int_feat is WILD or int_feat == 0
    beta = Compound("td", (mklist([Const("s")]), Const(0)))
    assert key_of_default(beta) == ("td", 0, _NONE)


def test_key_compatibility_is_reflexive_and_wildcard_tolerant():
    k1 = key_of_default(t("cyk(s, 0, 2)"))
    k2 = key_of_default(t("cyk(A, I, J)"))
    k3 = key_of_default(t("cyk(np, 0, 2)"))
    assert _compatible(k1, k1)
    assert _compatible(k2, k1) and _compatible(k1, k2)
    assert not _compatible(k1, k3)


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


def test_goal_items_ignore_the_agenda_suffix():
    s = ItemStore()
    s.enqueue(t("done"), h(INITIAL))
    assert s.goal_items([t("done")]) == []
    s.pop()
    assert s.goal_items([t("done")]) == [1]


def test_dump_is_tab_separated_with_all_histories():
    s = ItemStore()
    s.enqueue(t("i(1)"), h(INITIAL))
    s.enqueue(t("i(2)"), h("scan", 1), stage=1)
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


@given(general=_items(), specific=_items())
def test_subsumption_implies_key_compatibility(general, specific):
    if subsumes(general, specific):
        kg = key_of_default(general)
        ks = key_of_default(specific)
        assert kg is None or _compatible(kg, ks)


@settings(max_examples=60)
@given(stored=st.lists(_items(), max_size=12), pattern=_items())
def test_indexed_retrieval_agrees_with_the_linear_scan(stored, pattern):
    s = ItemStore()
    for item in stored:
        s.enqueue(item, h(INITIAL))
    while s.pop() is not None:
        pass
    src = VarSource(500)
    fast = s.chart_matches(pattern, source=src, use_index=True)
    slow = s.chart_matches(pattern, source=src, use_index=False)
    assert [i for i, _ in fast] == [i for i, _ in slow]


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
