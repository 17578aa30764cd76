"""Item storage: one append-only sequence serving as chart and agenda.

The store holds every derived item exactly once, in arrival order with
1-based indices.  A head pointer splits the sequence: indices below it
are the chart (already popped), the rest are the FIFO agenda.  New items
are checked against the chart-plus-agenda for subsumption by an earlier
item; duplicates only append their justification to the subsuming
item's history list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Compound,
    Const,
    Substitution,
    Term,
    Var,
    VarSource,
    rename_with,
    render_term,
    subsumes,
    unify,
)

INITIAL = "initial"


@dataclass(frozen=True)
class History:
    """One justification: rule name plus antecedent store indices in
    rule order.  Axioms carry the reserved name ``initial`` and no
    antecedents."""

    rule_name: str
    antecedents: tuple

    def render(self) -> str:
        inner = ";".join(str(i) for i in self.antecedents)
        return f"{self.rule_name}({inner})"


class StoredItem:
    __slots__ = ("index", "item", "stage", "histories")

    def __init__(self, index: int, item: Term, stage: int, history: History):
        self.index = index
        self.item = item
        self.stage = stage
        self.histories = [history]

    def __repr__(self):
        return f"<{self.index}:{render_term(self.item)}>"


class _Wild:
    __repr__ = lambda self: "*"


WILD = _Wild()
_NONE = object()  # feature absent from the item (not merely unknown)


def _is_list_cell(t: Term) -> bool:
    if isinstance(t, Const):
        return t.name == "[]"
    return isinstance(t, Compound) and t.functor == "." and len(t.args) == 2


def key_of_default(t: Term):
    """Key = (head functor, first integer field, head of first symbol field).

    Variables in a position make the corresponding feature a wildcard.
    Patterns without a determinable head return None, which disables
    indexing for that probe.
    """
    if isinstance(t, Var):
        return None
    if isinstance(t, Const):
        return (t.name, _NONE, _NONE)
    int_feat = _NONE
    sym_feat = _NONE
    for a in t.args:
        if isinstance(a, Var):
            # The variable might fill whichever slot is still open.
            if int_feat is _NONE:
                int_feat = WILD
            if sym_feat is _NONE:
                sym_feat = WILD
            continue
        if int_feat is _NONE and isinstance(a, Const) and isinstance(a.name, int):
            int_feat = a.name
            continue
        if sym_feat is _NONE and not _is_list_cell(a):
            sym_feat = a.functor if isinstance(a, Compound) else a.name
    return (t.functor, int_feat, sym_feat)


def _compatible(stored_key, probe_key) -> bool:
    if len(stored_key) != len(probe_key):
        return False
    for s, p in zip(stored_key, probe_key):
        if s is WILD or p is WILD:
            continue
        if s is _NONE or p is _NONE:
            if s is not p:
                return False
            continue
        if s != p:
            return False
    return True


class ItemStore:
    def __init__(self, key_of=None):
        self.key_of = key_of or key_of_default
        self._items: list[StoredItem] = []
        self._head = 1  # next index to pop
        self._buckets: dict = {}
        self._ground: dict = {}  # ground item -> index
        self._nonground: list[int] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def head(self) -> int:
        return self._head

    @property
    def agenda_size(self) -> int:
        return len(self._items) - (self._head - 1)

    def get(self, index: int) -> StoredItem:
        return self._items[index - 1]

    def items(self):
        return iter(self._items)

    def renamed(self, index: int, source: VarSource) -> Term:
        """A fresh-variable copy of the stored item; renaming happens on
        retrieval, never in place."""
        item = self._items[index - 1].item
        if item.ground:
            return item
        return rename_with(item, {}, source)

    # ---- growth ----

    def _subsumer(self, item: Term):
        """Index of a stored item subsuming ``item``, or None."""
        if item.ground:
            exact = self._ground.get(item)
            if exact is not None:
                return exact
        probe = self.key_of(item)
        for idx in self._nonground:
            stored = self._items[idx - 1]
            if probe is not None:
                stored_key = self.key_of(stored.item)
                # A keyless stored item must always be scanned.
                if stored_key is not None and not _compatible(stored_key, probe):
                    continue
            if subsumes(stored.item, item):
                return idx
        return None

    def enqueue(self, item: Term, history: History, stage: int = 0):
        """Add an item, or record ``history`` on the subsuming earlier
        item.  Returns (index, added)."""
        winner = self._subsumer(item)
        if winner is not None:
            histories = self._items[winner - 1].histories
            if history not in histories:
                histories.append(history)
            return winner, False
        index = len(self._items) + 1
        stored = StoredItem(index, item, stage, history)
        self._items.append(stored)
        if item.ground:
            self._ground[item] = index
        else:
            self._nonground.append(index)
        key = self.key_of(item)
        self._buckets.setdefault(key, []).append(index)
        return index, True

    def pop(self):
        """Next agenda index in FIFO order, or None when exhausted."""
        if self._head > len(self._items):
            return None
        index = self._head
        self._head += 1
        return index

    # ---- retrieval ----

    def _candidates(self, pattern: Term, use_index: bool):
        if not use_index:
            return range(1, len(self._items) + 1)
        probe = self.key_of(pattern)
        if probe is None:
            return range(1, len(self._items) + 1)
        out = []
        for key, indices in self._buckets.items():
            if key is None or _compatible(key, probe):
                out.extend(indices)
        out.sort()
        return out

    def chart_matches(
        self,
        pattern: Term,
        below: "int | None" = None,
        source: "VarSource | None" = None,
        use_index: bool = True,
    ):
        """(index, mgu) for chart items unifying with pattern, ascending.

        Only indices < ``below`` (default: the chart/agenda boundary)
        are considered.  Stored items are renamed apart via ``source``
        before unification.
        """
        bound = self._head if below is None else below
        out = []
        for idx in self._candidates(pattern, use_index):
            if idx >= bound:
                continue
            item = self._items[idx - 1].item
            if not item.ground and source is not None:
                item = rename_with(item, {}, source)
            s = unify(pattern, item)
            if s is not None:
                out.append((idx, s))
        return out

    def goal_items(self, goal_patterns, source: "VarSource | None" = None):
        """Chart indices matching a goal pattern, by subsumption either way.

        An item more specific than the pattern is an instance of the
        goal; one more general still has the goal among its instances
        (DCG goals with open arguments land here).
        """
        src = source or VarSource(10_000_000)
        out = []
        for idx in range(1, self._head):
            item = self._items[idx - 1].item
            for pat in goal_patterns:
                p = pat if pat.ground else rename_with(pat, {}, src)
                it = item if item.ground else rename_with(item, {}, src)
                if subsumes(p, it) or subsumes(it, p):
                    out.append(idx)
                    break
        return out

    def dump(self, render=render_term) -> str:
        """Chart dump: index, stage, rendered item, then one history per
        TAB-separated group."""
        lines = []
        for stored in self._items:
            hist = "\t".join(h.render() for h in stored.histories)
            lines.append(f"{stored.index}\t{stored.stage}\t{render(stored.item)}\t{hist}")
        return "\n".join(lines) + ("\n" if lines else "")
