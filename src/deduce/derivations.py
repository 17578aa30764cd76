"""Derivation forests and parse trees.

The store's per-item histories form a packed forest: each stored item
justifies itself by one or more (rule, antecedents) records.  Unpacking
enumerates derivation trees; a second pass folds a derivation tree into
a conventional parse tree, using the reconstruction appropriate to the
item encoding of the system that produced it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .store import INITIAL
from .systems import item_renderer
from .terms import Const, list_parts, render_term


class DerivationError(Exception):
    pass


class UnsupportedSystemError(DerivationError):
    """No parse-tree reading exists for this system's items."""


@dataclass(frozen=True)
class DerivationTree:
    """One justification tree over store indices.

    ``children`` follow the rule's antecedent order, so a node carries
    exactly as many subtrees as its rule has antecedents.
    """

    rule_name: str
    index: int
    children: tuple = ()


@dataclass(frozen=True)
class ParseTree:
    label: str
    children: tuple = ()
    terminal: bool = False


def _interleave(gens):
    """Round-robin over generators so every one contributes early."""
    active = list(gens)
    while active:
        keep = []
        for g in active:
            try:
                yield next(g)
            except StopIteration:
                continue
            keep.append(g)
        active = keep


def _components(root: int, successors) -> dict:
    """Strongly connected component of every node reachable from ``root``.

    An iterative Tarjan, since a forest can be deeper than Python's
    recursion limit.  Returns a map from node to the frozenset of its
    component.
    """
    order = {root: 0}
    low = {root: 0}
    stack = [root]
    on_stack = {root}
    component = {}
    work = [(root, iter(successors(root)))]
    while work:
        node, edges = work[-1]
        for succ in edges:
            if succ not in order:
                order[succ] = low[succ] = len(order)
                stack.append(succ)
                on_stack.add(succ)
                work.append((succ, iter(successors(succ))))
                break
            if succ in on_stack:
                low[node] = min(low[node], order[succ])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                members = []
                while not members or members[-1] != node:
                    members.append(stack.pop())
                    on_stack.discard(members[-1])
                scc = frozenset(members)
                for m in members:
                    component[m] = scc
    return component


def extract(result, goal_index: "int | None" = None, limit: int = 16):
    """Up to ``limit`` derivation trees for a goal item.

    A node's alternative histories are interleaved fairly rather than
    exhausted in order, so distinct readings all surface under a finite
    limit even when one alternative has many proof variants.  Antecedent
    combinations come from a cartesian product with each factor capped
    at ``limit``.  An index already on the current path is never
    expanded again: subsumption collapse can make an item's history
    refer forward into a cycle, which a tree cannot use.

    Shared sub-forests are unpacked once.  The first ``limit`` trees of
    an index under a path are memoized under the key (index, path ∩ C),
    where C is the index's strongly connected component in the forest
    reachable from the goal (edges run from an item to the antecedents
    of each of its histories).  The key is exact: the unpacking below an
    index reads the path only by asking whether an item it reaches is on
    it, and a path item that the index reaches is an ancestor that also
    reaches the index, so it lies in C.  The memo therefore returns the
    list the plain recursion would rebuild, tree for tree and in order,
    and the frozen trees it holds are shared between results.

    Where a system's parse-tree fold ignores the subtrees of some rules
    (``_IGNORED``), derivations that differ only below such a node read
    as the same parse tree.  A history of such a rule therefore takes
    only the first derivation of each antecedent, and an item whose
    histories are all of such rules yields only its first derivation,
    so the limit is spent on distinct readings.
    """
    store = result.store
    if goal_index is None:
        if not result.goal_indices:
            return []
        goal_index = result.goal_indices[0]
    ignored = _IGNORED.get(result.system.name, frozenset())
    component = _components(goal_index, lambda index: [
        a for hist in store.get(index).histories for a in hist.antecedents
    ])
    memo = {}

    def derivations(index: int, path: frozenset) -> list:
        key = (index, path & component[index])
        found = memo.get(key)
        if found is None:
            found = memo[key] = list(itertools.islice(walk(index, path), limit))
        return found

    def expand(hist, index: int, path: frozenset):
        if not hist.antecedents:
            yield DerivationTree(hist.rule_name, index)
            return
        pools = [derivations(a, path) for a in hist.antecedents]
        if hist.rule_name in ignored:
            pools = [pool[:1] for pool in pools]
        for combo in itertools.product(*pools):
            yield DerivationTree(hist.rule_name, index, combo)

    def walk(index: int, path: frozenset):
        if index in path:
            return
        deeper = path | {index}
        hists = store.get(index).histories
        trees = _interleave(expand(hist, index, deeper) for hist in hists)
        if all(hist.rule_name in ignored for hist in hists):
            trees = itertools.islice(trees, 1)
        yield from trees

    return derivations(goal_index, frozenset())


def render_derivation_tree(result, d: DerivationTree) -> str:
    render = item_renderer(result.system.name)
    label = f"{d.rule_name}[{render(result.store.get(d.index).item)}]"
    if not d.children:
        return label
    inner = ", ".join(render_derivation_tree(result, c) for c in d.children)
    return f"{label}({inner})"


def render_parse_tree(t: ParseTree) -> str:
    if t.terminal:
        return t.label
    inner = "".join(" " + render_parse_tree(c) for c in t.children)
    return f"({t.label}{inner})"


def tree_yield(t: ParseTree) -> list:
    if t.terminal:
        return [t.label]
    out = []
    for c in t.children:
        out.extend(tree_yield(c))
    return out


def _symbol_text(term) -> str:
    if isinstance(term, Const):
        return str(term.name)
    return render_term(term)


def _elems(list_term):
    elems, tail = list_parts(list_term)
    if not (isinstance(tail, Const) and tail.name == "[]"):
        raise DerivationError("item holds an open-tailed symbol list")
    return elems


def _chain(d: DerivationTree):
    """Axiom-to-goal node sequence of a single-antecedent derivation."""
    seq = [d]
    node = d
    while node.children:
        if len(node.children) != 1:
            raise DerivationError(f"rule {node.rule_name} is not chain-shaped")
        node = node.children[0]
        seq.append(node)
    seq.reverse()
    return seq


class _Node:
    __slots__ = ("label", "children", "terminal")

    def __init__(self, label):
        self.label = label
        self.children = []
        self.terminal = False

    def freeze(self) -> ParseTree:
        return ParseTree(
            self.label,
            tuple(c.freeze() for c in self.children),
            self.terminal,
        )


def _fold_topdown(result, d: DerivationTree) -> ParseTree:
    store = result.store
    seq = _chain(d)
    first = _elems(store.get(seq[0].index).item.args[0])
    if len(first) != 1:
        raise DerivationError("top-down derivation does not start at an axiom")
    root = _Node(_symbol_text(first[0]))
    open_nodes = [root]
    prev = first
    for node in seq[1:]:
        beta = _elems(store.get(node.index).item.args[0])
        if node.rule_name == "scan":
            leaf = open_nodes.pop(0)
            leaf.terminal = True
        elif node.rule_name == "predict":
            expanded = open_nodes.pop(0)
            gamma = beta[: len(beta) - len(prev) + 1]
            kids = [_Node(_symbol_text(s)) for s in gamma]
            expanded.children = kids
            open_nodes[:0] = kids
        else:
            raise DerivationError(f"unexpected rule {node.rule_name} in a top-down chain")
        prev = beta
    if open_nodes:
        raise DerivationError("derivation left unexpanded symbols")
    return root.freeze()


def _fold_bottomup(result, d: DerivationTree) -> ParseTree:
    store = result.store
    seq = _chain(d)
    trees: list = []
    prev = _elems(store.get(seq[0].index).item.args[0])
    for node in seq[1:]:
        alpha = _elems(store.get(node.index).item.args[0])
        if node.rule_name == "shift":
            leaf = _Node(_symbol_text(alpha[0]))
            leaf.terminal = True
            trees.append(leaf)
        elif node.rule_name == "reduce":
            width = len(prev) - len(alpha) + 1
            parent = _Node(_symbol_text(alpha[0]))
            taken = trees[len(trees) - width:] if width else []
            parent.children = taken
            del trees[len(trees) - width:]
            trees.append(parent)
        else:
            raise DerivationError(f"unexpected rule {node.rule_name} in a bottom-up chain")
        prev = alpha
    if len(trees) != 1:
        raise DerivationError("derivation left a non-singleton tree stack")
    return trees[0].freeze()


def _fold_earley(result, d: DerivationTree) -> ParseTree:
    store = result.store

    def fold(node: DerivationTree) -> list:
        if node.rule_name in (INITIAL, "predict"):
            return []
        if node.rule_name == "scan":
            done = fold(node.children[0])
            before = _elems(store.get(node.index).item.args[2])
            leaf = ParseTree(_symbol_text(before[0]), terminal=True)
            return done + [leaf]
        if node.rule_name == "complete":
            left = fold(node.children[0])
            completed = store.get(node.children[1].index).item
            sub = ParseTree(_symbol_text(completed.args[1]), tuple(fold(node.children[1])))
            return left + [sub]
        raise DerivationError(f"unexpected rule {node.rule_name} in a dotted-item derivation")

    done = fold(d)
    if len(done) != 1:
        raise DerivationError("goal item does not close exactly the start symbol")
    return done[0]


def _fold_cyk(result, d: DerivationTree) -> ParseTree:
    store = result.store
    tokens = result.input.tokens

    def fold(node: DerivationTree) -> ParseTree:
        item = store.get(node.index).item
        label = _symbol_text(item.args[0])
        if node.rule_name == INITIAL:
            pos = item.args[1].name
            word = ParseTree(tokens[pos], terminal=True)
            return ParseTree(label, (word,))
        if node.rule_name == "binary":
            return ParseTree(label, tuple(fold(c) for c in node.children))
        raise DerivationError(f"unexpected rule {node.rule_name} in a span derivation")

    return fold(d)


def _fold_ccg(result, d: DerivationTree) -> ParseTree:
    from .grammar import render_category

    store = result.store
    tokens = result.input.tokens

    def fold(node: DerivationTree) -> ParseTree:
        item = store.get(node.index).item
        label = render_category(item.args[0])
        if node.rule_name == INITIAL:
            pos = item.args[1].name
            word = ParseTree(tokens[pos], terminal=True)
            return ParseTree(label, (word,))
        return ParseTree(label, tuple(fold(c) for c in node.children))

    return fold(d)


_FOLDS = {
    "topdown": _fold_topdown,
    "bottomup": _fold_bottomup,
    "earley": _fold_earley,
    "cyk": _fold_cyk,
    "ccg": _fold_ccg,
}

# Rules whose subtrees a system's fold never reads.
_IGNORED = {
    "earley": frozenset({INITIAL, "predict"}),
}


def to_parse_tree(result, d: DerivationTree) -> ParseTree:
    """Read a derivation tree back as a parse tree of the input.

    Dotted-tree items interleave adjunction with tree traversal, so no
    parse-tree reading is defined for them; their derivations are the
    deliverable.
    """
    fold = _FOLDS.get(result.system.name)
    if fold is None:
        raise UnsupportedSystemError(
            f"no parse-tree reading for {result.system.name} items"
        )
    return fold(result, d)
