"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper
wherever a module of the package holds a reference to it: the defining
module, every module that imported it (``deduce.store.unify`` as well as
``deduce.engine.unify``), module-level dispatch tables such as the
side-condition registry, and the package namespace.  Methods are
wrapped on their class.  ``uninstall`` puts the originals back, so
traced and untraced rounds can alternate in one process.

Each wrapper records one span: a name, a start, an end and the span
that was open when it began.  Spans live in compact arrays until the
operation that produced them ends; ``fold`` then derives each span's
self time (its duration minus the time its child spans cover), adds it
to per-name totals and clears the arrays, so memory stays bounded by
the largest single operation.  A call whose innermost open span has
the same name (recursion, or ``Substitution.apply`` inside ``compose``)
records no span of its own: its time stays in the caller's self time.

Generator functions (``consequences`` and the side-condition
evaluators) get one span per resumption, so the time spent between
resumptions in the consumer is not charged to them.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

LAYER_MODULES = ("terms", "store", "systems", "engine", "derivations", "grammar", "cli")


class Tracer:
    def __init__(self):
        self.deduce = None
        self.modules: list = []
        self.names: list = []
        self._name_ids: dict = {}
        self._name = array("h")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.child_counts: Counter = Counter()  # (child name, parent name) -> spans
        self._restore: list = []

    # ---- span recording ----

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _begin(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._open[-1])
        self._end.append(0.0)
        self._open.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._open.pop()

    def _nested(self, nid: int) -> bool:
        top = self._open[-1]
        return top >= 0 and self._name[top] == nid

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording a span per call; ``after(result, args)``
        may add counts."""
        nid = self._name_id(name)
        counts = self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            if self._nested(nid):
                return fn(*args, **kwargs)
            counts[calls] += 1
            idx = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, on_item=None):
        """A wrapper for a generator function: one span per resumption.
        ``on_item(n)`` is told how many items one call produced."""
        nid = self._name_id(name)
        counts = self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            gen = fn(*args, **kwargs)
            produced = 0
            while True:
                idx = self._begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    self._finish(idx)
                produced += 1
                yield item
            if on_item is not None:
                on_item(produced)

        traced.__wrapped__ = fn
        return traced

    def fold(self) -> None:
        """Turn the recorded spans into per-name totals and drop them."""
        n = len(self._name)
        covered = [0.0] * n
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        for i in range(n):
            name = self.names[names[i]]
            dur = ends[i] - starts[i]
            self.total_s[name] += dur
            self.self_s[name] += dur - covered[i]
            p = parents[i]
            if p >= 0:
                self.child_counts[(name, self.names[names[p]])] += 1
        del self._name[:], self._parent[:], self._start[:], self._end[:]
        if len(self._open) != 1:
            raise RuntimeError("fold called while spans are open")

    # ---- installation ----

    def bind(self, deduce) -> None:
        """Trace this import of the package from the next install on."""
        if self._restore:
            raise RuntimeError("rebinding an installed tracer")
        self.deduce = deduce
        self.modules = [deduce] + [sys.modules[f"deduce.{m}"] for m in LAYER_MODULES]

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in self.modules:
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._set(space, key, replacement)
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            self._set(value, k2, replacement)

    def _set(self, table: dict, key, value) -> None:
        self._restore.append((table, key, table[key]))
        table[key] = value

    def _replace_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        d = self.deduce
        terms, store, systems, engine = d.terms, d.store, d.systems, d.engine
        counts = self.counts

        def unify_after(result, args):
            if result is not None:
                counts["terms.unify.succeeded"] += 1

        def enqueue_after(result, args):
            index, added = result
            if not added:
                counts["store.enqueue.duplicates"] += 1
                history = args[2]
                if history not in args[0].get(index).histories:
                    counts["store.histories_dropped"] += 1

        def lookup_after(result, args):
            counts["store.lookup.matched"] += len(result)

        def parse_after(result, args):
            counts["engine.pops"] += result.pops

        def extract_after(result, args):
            counts["derivations.extract.trees"] += len(result)

        def consequences_done(produced):
            counts["engine.firings"] += produced

        def side_condition_done(produced):
            if produced:
                counts["systems.side_condition.yielded"] += 1

        plain = [
            ("terms.unify", terms.unify, unify_after),
            ("terms.rename", terms.rename_with, None),
            ("terms.rename", terms.rename_apart, None),
            ("terms.subsumes", terms.subsumes, None),
            ("terms.canonical", terms.canonical, None),
            ("engine.parse", engine.parse, parse_after),
            ("engine.naive_closure", engine.naive_closure, None),
            ("engine.check_soundness", engine.check_soundness, None),
            ("derivations.extract", d.derivations.extract, extract_after),
            ("derivations.to_parse_tree", d.derivations.to_parse_tree, None),
            ("grammar.load", d.grammar.load_cf, None),
            ("grammar.load", d.grammar.load_ccg, None),
            ("grammar.load", d.grammar.load_tag, None),
            ("cli.main", d.cli.main, None),
        ]
        for name, fn, after in plain:
            self._replace_everywhere(fn, self.wrap(name, fn, after))
        self._replace_everywhere(
            engine.consequences,
            self.wrap_generator("engine.consequences", engine.consequences, consequences_done),
        )
        for fn in set(systems.REGISTRY.values()):
            self._replace_everywhere(
                fn, self.wrap_generator("systems.side_condition", fn, side_condition_done)
            )
        methods = [
            (terms.Substitution, "apply", "terms.substitution", None),
            (terms.Substitution, "compose", "terms.substitution", None),
            (store.ItemStore, "enqueue", "store.enqueue", enqueue_after),
            (store.ItemStore, "chart_matches", "store.lookup", lookup_after),
            (store.ItemStore, "goal_items", "store.goal_items", None),
            (systems.RuleClause, "instantiate", "systems.instantiate", None),
        ]
        for cls, attr, name, after in methods:
            self._replace_method(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # ---- results ----

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round, by name."""
        c, selfs, totals = self.counts, self.self_s, self.total_s
        per = 1.0 / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        enqueues = c["store.enqueue.calls"]
        pops = c["engine.pops"]
        scanned = self.child_counts[("terms.unify", "store.lookup")]
        matched = c["store.lookup.matched"]
        subsume_checks = self.child_counts[("terms.subsumes", "store.enqueue")]
        side_calls = c["systems.side_condition.calls"]
        return {
            "terms.unify.calls": c["terms.unify.calls"] * per,
            "terms.unify.self_s": selfs["terms.unify"] * per,
            "terms.unify.success_ratio": ratio(c["terms.unify.succeeded"], c["terms.unify.calls"]),
            "terms.rename.calls": c["terms.rename.calls"] * per,
            "terms.rename.self_s": selfs["terms.rename"] * per,
            "terms.subsumes.calls": c["terms.subsumes.calls"] * per,
            "terms.subsumes.self_s": selfs["terms.subsumes"] * per,
            "terms.canonical.calls": c["terms.canonical.calls"] * per,
            "terms.canonical.self_s": selfs["terms.canonical"] * per,
            "terms.substitution.self_s": selfs["terms.substitution"] * per,
            "store.enqueue.calls": enqueues * per,
            "store.enqueue.self_s": selfs["store.enqueue"] * per,
            "store.enqueue.dup_ratio": ratio(c["store.enqueue.duplicates"], enqueues),
            "store.subsume_checks_per_enqueue": ratio(subsume_checks, enqueues),
            "store.lookup.calls": c["store.lookup.calls"] * per,
            "store.lookup.self_s": selfs["store.lookup"] * per,
            "store.lookup.scanned": scanned * per,
            "store.lookup.matched": matched * per,
            "store.lookup.hit_ratio": ratio(matched, scanned),
            "store.goal_items.self_s": selfs["store.goal_items"] * per,
            "store.histories_dropped": c["store.histories_dropped"] * per,
            "systems.instantiate.calls": c["systems.instantiate.calls"] * per,
            "systems.instantiate.self_s": selfs["systems.instantiate"] * per,
            "systems.side_condition.calls": side_calls * per,
            "systems.side_condition.self_s": selfs["systems.side_condition"] * per,
            "systems.side_condition.yield_ratio": ratio(c["systems.side_condition.yielded"], side_calls),
            "engine.parse_s": totals["engine.parse"] * per,
            "engine.pops": pops * per,
            "engine.firings": c["engine.firings"] * per,
            "engine.firings_per_pop": ratio(c["engine.firings"], pops),
            "engine.consequences.self_s": selfs["engine.consequences"] * per,
            "engine.naive_closure_s": totals["engine.naive_closure"] * per,
            "engine.check_soundness_s": totals["engine.check_soundness"] * per,
            "derivations.extract_s": totals["derivations.extract"] * per,
            "derivations.extract.trees": c["derivations.extract.trees"] * per,
            "derivations.to_parse_tree_s": totals["derivations.to_parse_tree"] * per,
            "grammar.load_s": totals["grammar.load"] * per,
            "cli.main.self_s": selfs["cli.main"] * per,
        }
