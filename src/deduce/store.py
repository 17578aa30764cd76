"""Item storage: one append-only sequence serving as chart and agenda.

The store holds every derived item exactly once, in arrival order with
1-based indices.  A head pointer splits the sequence: indices below it
are the chart (already popped), the rest are the FIFO agenda.  New items
are checked against the chart-plus-agenda for subsumption by an earlier
item; duplicates only append their justification to the subsuming
item's history list.

Lookups are moded.  A mode is a functor (its principal symbol) plus the
argument paths whose symbols a rule premise knows when it runs, as the
mode analysis of ``DeductionSystem`` derives them from the clauses.  The
store keeps one hash index per mode, keyed by the principal symbols of
an item at those paths (a constant's name, a compound's functor and
arity).  Items with a variable on a path sit in the index's wildcard
list, merged in ascending order into every lookup, so matches come back
in chart order; a pattern with a variable on a path scans the chart.
The subsumption check looks only at non-ground items of the new item's
functor that agree with it on the symbols of its top-level arguments.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .terms import (
    Compound,
    Term,
    Var,
    VarSource,
    principal,
    rename_with,
    render_term,
    subsumes,
    unify,
)

INITIAL = "initial"


class History(tuple):
    """One justification: rule name plus antecedent store indices in
    rule order.  Axioms carry the reserved name ``initial`` and no
    antecedents.

    A plain pair underneath, so it hashes and compares in C; the clause
    programs build one as ``tuple.__new__(History, (name, indices))``,
    which runs no Python code."""

    __slots__ = ()

    def __new__(cls, rule_name: str, antecedents: tuple):
        return tuple.__new__(cls, (rule_name, antecedents))

    rule_name = property(itemgetter(0))
    antecedents = property(itemgetter(1))

    def __repr__(self):
        return f"History({self.rule_name!r}, {self.antecedents!r})"

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


def _key(t: Term, paths: tuple):
    """The principal symbols of ``t`` at ``paths``, or None when a
    variable lies on one.

    A path that ``t`` lacks reads the symbol where the walk stops, so two
    terms that unify without binding a variable on a path have equal
    keys.
    """
    key = []
    for path in paths:
        s = t
        for k in path:
            if type(s) is not Compound or k >= len(s.args):
                break
            s = s.args[k]
        if type(s) is Var:
            return None
        key.append(principal(s))
    return tuple(key)


class _Index:
    """Store indices of one functor hashed on the key at ``paths``;
    items with a variable on a path are in ``wild``.  Every list is
    ascending."""

    __slots__ = ("paths", "buckets", "wild")

    def __init__(self, paths: tuple):
        self.paths = paths
        self.buckets: dict = {}
        self.wild: list = []

    def add(self, index: int, key) -> None:
        if key is None:
            self.wild.append(index)
        else:
            self.buckets.setdefault(key, []).append(index)

    def candidates(self, key):
        """Ascending indices that may unify with a term of this key."""
        hits = self.buckets.get(key, ())
        if not self.wild:
            return hits
        if not hits:
            return self.wild
        return sorted(hits + self.wild)


class ItemStore:
    """Chart and agenda in one sequence, with one index per mode in
    ``modes``, the (principal symbol, paths) pairs of
    ``DeductionSystem.modes``."""

    def __init__(self, modes=()):
        self._items: list[StoredItem] = []
        self._head = 1  # next index to pop
        self._ground: dict = {}  # ground item -> index
        self._indexes = {mode: _Index(mode[1]) for mode in modes}
        self._by_functor: dict = {}
        for (symbol, _paths), index in self._indexes.items():
            self._by_functor.setdefault(symbol, []).append(index)
        # Per functor, the non-ground items keyed on their top-level
        # arguments: the candidates for subsuming a later item.
        self._nonground: dict = {}
        self._variable = None  # index of a stored bare variable
        # The (item index, history) of every justification recorded
        # since the last pop.
        self._justified: set = set()
        # Enqueues that met a subsuming item: duplicate justifications,
        # recorded or not.
        self.duplicates = 0
        # The hash-consing table in which the clause programs build
        # their consequents (``program_source``): a consequent built again from
        # the same argument objects is the stored item itself, so its
        # ``_ground`` probe hits by identity.  It lives and dies with
        # the store, so no parse's terms outlive its chart.
        self.interned: dict = {}

    def __len__(self) -> int:
        return len(self._items)

    @property
    def head(self) -> int:
        return self._head

    @property
    def agenda_size(self) -> int:
        return len(self._items) - (self._head - 1)

    def get(self, index: int) -> StoredItem:
        """The item at ``index``, which runs from 1 to ``len(self)``."""
        if not 1 <= index <= len(self._items):
            raise IndexError(f"no item {index} in a store of {len(self._items)}")
        return self._items[index - 1]

    def items(self):
        return iter(self._items)

    def renamed(self, index: int, source: VarSource) -> Term:
        """A fresh-variable copy of the stored item, as the oracles read
        it; the clause programs bind stored items in place (``fetch``)."""
        item = self.get(index).item
        if item.ground:
            return item
        return rename_with(item, {}, source)

    # ---- growth ----

    def _subsumer(self, item: Term):
        """Index of the first stored non-ground item subsuming ``item``,
        or None.  ``enqueue`` has already looked a ground ``item`` up
        among the ground items."""
        found = None
        nonground = self._nonground.get(principal(item))
        if nonground is not None:
            key = _key(item, nonground.paths)
            # Only an item with a variable on a path can subsume one
            # with a variable there.
            for idx in nonground.wild if key is None else nonground.candidates(key):
                if subsumes(self._items[idx - 1].item, item):
                    found = idx
                    break
        if self._variable is not None and (found is None or self._variable < found):
            return self._variable
        return found

    def enqueue(self, item: Term, history: History):
        """Add an item, or record ``history`` on the subsuming earlier
        item.  Returns (index, added).

        The clause programs call this once per firing, as it is made.
        The new item's stage is the pop under way (``head - 1``; 0 for
        the axioms).  A justification is recorded once per item,
        provided that it repeats only within one pop: ``pop`` forgets
        the previous pop's justifications.  A combination of antecedents
        fires only in the pop of its highest index, since lookups see
        only indices below the agenda head, so an item enqueued during
        a pop is never a candidate in it.
        """
        winner = self._ground.get(item) if item.ground else None
        if winner is None:
            winner = self._subsumer(item)
        if winner is not None:
            self.duplicates += 1
            key = (winner, history)
            if key not in self._justified:
                self._justified.add(key)
                self._items[winner - 1].histories.append(history)
            return winner, False
        index = len(self._items) + 1
        stored = StoredItem(index, item, self._head - 1, history)
        self._items.append(stored)
        self._justified.add((index, history))
        symbol = principal(item)
        if item.ground:
            self._ground[item] = index
        elif symbol is None:
            # A bare variable subsumes, and unifies with, every item.
            self._variable = index
            for moded in self._indexes.values():
                moded.wild.append(index)
        else:
            nonground = self._nonground.get(symbol)
            if nonground is None:
                top = tuple((k,) for k in range(len(item.args)))
                nonground = self._nonground[symbol] = _Index(top)
            nonground.add(index, _key(item, nonground.paths))
        for moded in self._by_functor.get(symbol, ()):
            moded.add(index, _key(item, moded.paths))
        return index, True

    def pop(self):
        """Next agenda index in FIFO order, or None when exhausted.  It
        starts a new stage: the justifications recorded so far can no
        longer repeat."""
        if self._head > len(self._items):
            return None
        index = self._head
        self._head += 1
        self._justified.clear()
        return index

    # ---- retrieval ----

    def lookup(self, mode, key, below: "int | None" = None):
        """Ascending indices below ``below`` (default: the chart/agenda
        boundary) of the items that may unify with a term of ``mode``'s
        principal symbol whose symbols at the mode's paths are ``key``.

        Every index is a candidate when ``key`` is None (a variable lies
        on one of the paths) or the store keeps no index for ``mode``.
        """
        bound = self._head if below is None else below
        moded = self._indexes.get(mode)
        if key is None or moded is None:
            return range(1, bound)
        hits = moded.candidates(key)
        return hits[:bisect_left(hits, bound)]

    def fetch(self, mode, key, source: VarSource, bound: tuple) -> list:
        """(index, item) for each index ``lookup(mode, key)`` gives: the
        stored term itself, or, if it is not ground and ``bound`` (the
        indices the firing has bound) holds its index, a copy from ``source``."""
        items = self._items
        return [(i, item if item.ground or i not in bound else rename_with(item, {}, source))
                for i in self.lookup(mode, key) for item in (items[i - 1].item,)]

    def candidates(self, pattern: Term, mode: "tuple | None" = None, below: "int | None" = None):
        """``lookup`` for ``pattern``: its key under ``mode``, one of the
        store's modes for the pattern's functor.  Without one, every
        index is a candidate."""
        key = None
        if mode is not None and mode[0] == principal(pattern):
            key = _key(pattern, mode[1])
        return self.lookup(mode, key, below)

    def chart_matches(
        self,
        pattern: Term,
        below: "int | None" = None,
        source: "VarSource | None" = None,
        mode: "tuple | None" = None,
    ):
        """(index, mgu) for the ``candidates`` unifying with pattern,
        ascending.  Stored items are renamed apart via ``source`` before
        unification."""
        out = []
        for idx in self.candidates(pattern, mode, below):
            item = self._items[idx - 1].item
            if not item.ground and source is not None:
                item = rename_with(item, {}, source)
            s = unify(pattern, item)
            if s is not None:
                out.append((idx, s))
        return out

    def goal_items(self, patterns):
        """Chart indices matching a goal pattern, by subsumption either way.

        An item more specific than the pattern is an instance of the
        goal; one more general still has the goal among its instances
        (DCG goals with open arguments land here).  Neither is renamed,
        which cannot change what ``subsumes`` answers.  A ground pattern
        is looked up in the indexes: its only instance is itself, and
        the items subsuming it are a bare variable and the non-ground
        candidates ``_subsumer`` checks.  Any other pattern scans the
        chart.
        """
        head = self._head
        items = self._items
        found = set()
        for p in patterns:
            if not p.ground:
                found.update(s.index for s in items[:head - 1]
                             if subsumes(p, s.item) or subsumes(s.item, p))
                continue
            found.add(self._ground.get(p))
            found.add(self._variable)
            nonground = self._nonground.get(principal(p))
            if nonground is not None:
                found.update(i for i in nonground.candidates(_key(p, nonground.paths))
                             if subsumes(items[i - 1].item, p))
        return sorted(i for i in found if i is not None and i < head)

    def dump(self, render=render_term) -> str:
        """Chart dump: index, stage, rendered item, then one history per
        TAB-separated group."""
        lines = []
        for stored in self._items:
            hist = "\t".join(h.render() for h in stored.histories)
            lines.append(f"{stored.index}\t{stored.stage}\t{render(stored.item)}\t{hist}")
        return "\n".join(lines) + ("\n" if lines else "")
