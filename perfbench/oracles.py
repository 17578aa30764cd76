"""Correctness oracles that do not use the engine.

Everything here is plain Python over strings and tuples.  Nothing
imports ``deduce``: the grammar files are read by small parsers of
their own, so a fault in the package's loaders or term layer cannot
leak into the verdicts the benchmark checks against.

- Closed forms for the grammar S -> S S | a over a^n.
- Brute-force deductive closures for CYK and Earley items over plain
  context-free grammars, used to confirm the closed forms.
- Recognizers: a fixed-point span recognizer for plain context-free
  grammars, a CKY recognizer for the six combinatory rules, bounded
  adjunction enumeration for tree-adjoining grammars, and the closed
  language a b* of the counting DCG.
"""

from __future__ import annotations

import itertools
import re
from math import comb

# ---- closed forms for S -> S S | a over a^n ----


def cyk_ambiguous_counts(n: int) -> tuple:
    """(items, justifications) of CYK: one item per span, one axiom per
    word and one binary justification per split point of every span."""
    return n * (n + 1) // 2, n + comb(n + 1, 3)


def earley_ambiguous_counts(n: int) -> tuple:
    """(items, justifications) of Earley with the S' start wrapper."""
    return (n + 1) * (n + 3), (n ** 3 + 9 * n ** 2 + 32 * n + 30) // 6


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---- plain context-free grammars ----


class PlainCf:
    """A context-free grammar over atomic symbols.

    ``rules`` maps a nonterminal to a list of right-hand sides; each
    right-hand side is a tuple of ("nt", name) or ("word", text).
    Lexicon lines ``lex w C`` become the rule C -> w, as the package's
    loader also reads them.
    """

    def __init__(self, starts, rules):
        self.starts = tuple(starts)
        self.rules = rules

    @property
    def words(self) -> list:
        out = set()
        for rhss in self.rules.values():
            for rhs in rhss:
                out.update(text for kind, text in rhs if kind == "word")
        return sorted(out)


def _strip_comment(line: str) -> str:
    in_quote = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def read_plain_cf(text: str) -> PlainCf:
    """Parse the .cf format for grammars whose categories are atoms."""
    starts, rules = [], {}
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("start "):
            starts.extend(line.split()[1:])
        elif line.startswith("lex "):
            _, word, cat = line.split(None, 2)
            rules.setdefault(cat.strip(), []).append((("word", word.strip("'")),))
        elif "->" in line:
            lhs, rhs = (part.strip() for part in line.split("->", 1))
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", lhs):
                raise ValueError(f"not a plain category: {lhs!r}")
            syms = []
            for tok in rhs.split():
                if tok.startswith("'"):
                    syms.append(("word", tok.strip("'")))
                else:
                    syms.append(("nt", tok))
            rules.setdefault(lhs, []).append(tuple(syms))
        else:
            raise ValueError(f"cannot read line {line!r}")
    if not starts:
        raise ValueError("no start symbol")
    return PlainCf(starts, rules)


def cf_recognize(g: PlainCf, tokens) -> bool:
    """Membership by fixed-point iteration over spans.

    ``derives[(i, j)]`` collects the nonterminals deriving tokens[i:j];
    every rule is re-tried over every span until nothing changes, which
    handles empty and unit productions without special cases.
    """
    n = len(tokens)
    derives = {(i, j): set() for i in range(n + 1) for j in range(i, n + 1)}

    def ends(rhs, i, j):
        reach = {i}
        for kind, text in rhs:
            nxt = set()
            for k in reach:
                if kind == "word":
                    if k < j and tokens[k] == text:
                        nxt.add(k + 1)
                else:
                    nxt.update(m for m in range(k, j + 1) if text in derives[(k, m)])
            reach = nxt
            if not reach:
                break
        return j in reach

    changed = True
    while changed:
        changed = False
        for (i, j), cats in derives.items():
            for lhs, rhss in g.rules.items():
                if lhs not in cats and any(ends(rhs, i, j) for rhs in rhss):
                    cats.add(lhs)
                    changed = True
    return any(s in derives[(0, n)] for s in g.starts)


def cf_sample(g: PlainCf, rng, max_len: int, tries: int = 8):
    """A random sentence of the grammar of at most ``max_len`` tokens,
    or None when a few leftmost expansions all run over the length."""
    for _ in range(tries):
        form = [("nt", rng.choice(g.starts))]
        for _ in range(60):
            spot = next((i for i, (kind, _) in enumerate(form) if kind == "nt"), None)
            if spot is None:
                return [text for _, text in form]
            choices = g.rules.get(form[spot][1])
            if not choices:
                break
            form[spot:spot + 1] = list(rng.choice(choices))
            if sum(kind == "word" for kind, _ in form) > max_len:
                break
    return None


def cyk_closure(g: PlainCf, tokens) -> tuple:
    """(items, justifications) of CYK over a grammar in normal form.

    Items are (A, i, j); a justification is (item, rule, antecedents)
    and is counted once however many orders could find it.
    """
    items, just = set(), set()
    for i, tok in enumerate(tokens):
        for lhs, rhss in g.rules.items():
            if (("word", tok),) in rhss:
                item = (lhs, i, i + 1)
                items.add(item)
                just.add((item, "initial", ()))
    binary = [(lhs, rhs[0][1], rhs[1][1]) for lhs, rhss in g.rules.items()
              for rhs in rhss if len(rhs) == 2]
    changed = True
    while changed:
        changed = False
        for (b, i, j), (c, j2, k) in itertools.product(list(items), repeat=2):
            if j != j2:
                continue
            for a, bb, cc in binary:
                if (bb, cc) == (b, c):
                    item = (a, i, k)
                    if item not in items:
                        items.add(item)
                        changed = True
                    just.add((item, "binary", ((b, i, j), (c, j, k))))
    return items, just


def earley_closure(g: PlainCf, tokens) -> tuple:
    """(items, justifications) of Earley's deduction system.

    Items are (origin, lhs, before, after, end) with ``before`` in
    reading order; the start wrapper S' predicts each start symbol.
    Rules: predict from a nonterminal after the dot, scan a word after
    the dot, complete an item with a finished item for its next symbol.
    """
    items, just = set(), set()

    def add(item, rule, antes):
        just.add((item, rule, antes))
        if item in items:
            return False
        items.add(item)
        return True

    for s in g.starts:
        add((0, "S'", (), (s,), 0), "initial", ())
    changed = True
    while changed:
        changed = False
        snapshot = list(items)
        for it in snapshot:
            i, lhs, before, after, j = it
            if after:
                sym = after[0]
                for rhs in g.rules.get(sym, ()):
                    changed |= add((j, sym, (), tuple(t for _, t in rhs), j), "predict", (it,))
                if j < len(tokens) and tokens[j] == sym:
                    changed |= add((i, lhs, before + (sym,), after[1:], j + 1), "scan", (it,))
                for done in snapshot:
                    k, dlhs, _, dafter, m = done
                    if k == j and dlhs == sym and not dafter:
                        changed |= add((i, lhs, before + (sym,), after[1:], m), "complete", (it, done))
    return items, just


# ---- the counting DCG: s -> r(0, N); r(X, N) -> r(s(X), N) 'b'; r(N, N) -> 'a' ----


def abn_member(tokens) -> bool:
    """Membership in a b*, the language of ``abn.dcg``."""
    return bool(tokens) and tokens[0] == "a" and all(t == "b" for t in tokens[1:])


# ---- combinatory categorial grammar ----


def _read_category(text: str):
    toks = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[()/\\]", text)
    pos = 0

    def primary():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            cat = category()
            if toks[pos] != ")":
                raise ValueError(f"unbalanced category {text!r}")
            pos += 1
            return cat
        return tok

    def category():
        nonlocal pos
        cat = primary()
        while pos < len(toks) and toks[pos] in "/\\":
            slash = toks[pos]
            pos += 1
            cat = (slash, cat, primary())
        return cat

    cat = category()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in category {text!r}")
    return cat


def read_ccg(text: str) -> tuple:
    """(start category, {word: [categories]}) from the .ccg format."""
    start, lexicon = None, {}
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("start "):
            start = _read_category(line.split(None, 1)[1])
        else:
            word, cat = (part.strip() for part in line.split(":", 1))
            lexicon.setdefault(word, []).append(_read_category(cat))
    return start, lexicon


def _ccg_combine(left, right):
    """Results of the two application and four composition rules.

    X/Y is ("/", X, Y) and X\\Y is ("\\", X, Y): the argument Y is
    sought to the right of a forward slash and to the left of a
    backward one.
    """
    out = []
    if isinstance(left, tuple) and left[0] == "/" and left[2] == right:
        out.append(left[1])                                   # X/Y Y => X
    if isinstance(right, tuple) and right[0] == "\\" and right[2] == left:
        out.append(right[1])                                  # Y X\Y => X
    if isinstance(left, tuple) and isinstance(right, tuple):
        if left[0] == "/" and right[0] == "/" and left[2] == right[1]:
            out.append(("/", left[1], right[2]))              # X/Y Y/Z => X/Z
        if left[0] == "/" and right[0] == "\\" and left[2] == right[1]:
            out.append(("\\", left[1], right[2]))             # X/Y Y\Z => X\Z
        if left[0] == "/" and right[0] == "\\" and right[2] == left[1]:
            out.append(("/", right[1], left[2]))              # Y/Z X\Y => X/Z
        if left[0] == "\\" and right[0] == "\\" and right[2] == left[1]:
            out.append(("\\", right[1], left[2]))             # Y\Z X\Y => X\Z
    return out


def ccg_recognize(start, lexicon, tokens) -> bool:
    n = len(tokens)
    if n == 0:
        return False
    chart = {}
    for i, tok in enumerate(tokens):
        chart[(i, i + 1)] = set(lexicon.get(tok, ()))
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            k = i + width
            cell = set()
            for j in range(i + 1, k):
                for left in chart[(i, j)]:
                    for right in chart[(j, k)]:
                        cell.update(_ccg_combine(left, right))
            chart[(i, k)] = cell
    return start in chart[(0, n)]


# ---- tree-adjoining grammars ----

_FOOT = "*foot*"


def _read_sexp(text: str):
    toks = re.findall(r"[()]|[^\s()]+", text)
    pos = 0

    def node():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok != "(":
            if tok.endswith("*"):
                return (_FOOT, tok[:-1])
            return ("leaf", None if tok == "eps" else tok)
        label = toks[pos]
        pos += 1
        kids = []
        while toks[pos] != ")":
            kids.append(node())
        pos += 1
        return (label, tuple(kids))

    tree = node()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in tree {text!r}")
    return tree


def read_tag(text: str) -> tuple:
    """(start label, initial trees, auxiliary trees) from the .tag format.

    A tree is (label, children) for an inner node, ("leaf", word or
    None) for a terminal or empty leaf, and ("*foot*", label) for the
    foot of an auxiliary tree.
    """
    start, initials, auxes = None, [], []
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        kind, rest = line.split(None, 1)
        if kind == "start":
            start = rest.strip()
        elif kind == "initial":
            initials.append(_read_sexp(rest.split(None, 1)[1]))
        elif kind == "auxiliary":
            auxes.append(_read_sexp(rest.split(None, 1)[1]))
        else:
            raise ValueError(f"cannot read line {line!r}")
    return start, initials, auxes


def _tag_yield(tree) -> tuple:
    label, body = tree
    if label == "leaf":
        return () if body is None else (body,)
    if label == _FOOT:
        raise ValueError("open foot in a derived tree")
    return tuple(w for kid in body for w in _tag_yield(kid))


def _plant(aux, filler):
    label, body = aux
    if label == _FOOT:
        return filler
    if label == "leaf":
        return aux
    return (label, tuple(_plant(kid, filler) for kid in body))


def _adjunctions(tree, aux_label, aux):
    """Every tree made by adjoining ``aux`` at one inner node labelled
    ``aux_label``."""
    label, body = tree
    if label in ("leaf", _FOOT):
        return
    if label == aux_label:
        yield _plant(aux, tree)
    for i, kid in enumerate(body):
        for new_kid in _adjunctions(kid, aux_label, aux):
            yield (label, body[:i] + (new_kid,) + body[i + 1:])


def tag_language(start, initials, auxes, max_len: int) -> set:
    """Yields of length <= max_len of all derived trees.

    Each auxiliary tree must yield at least one word, so a tree with
    more than ``max_len`` adjunctions yields more than ``max_len``
    words and the enumeration is exact up to that length.
    """
    plain_aux = []
    for aux in auxes:
        words = len(_tag_yield(_plant(aux, ("leaf", None))))
        if words == 0:
            raise ValueError("an auxiliary tree with an empty yield makes the enumeration unbounded")
        plain_aux.append((aux[0], aux))
    level = {t for t in initials if t[0] == start}
    out = {_tag_yield(t) for t in level}
    for _ in range(max_len):
        level = {
            new
            for t in level
            for label, aux in plain_aux
            for new in _adjunctions(t, label, aux)
            if len(_tag_yield(new)) <= max_len
        }
        out |= {_tag_yield(t) for t in level}
    return {y for y in out if len(y) <= max_len}
