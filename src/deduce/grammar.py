"""Grammar containers and loaders for the three grammar classes.

Three line-oriented formats share the conventions: ``#`` starts a
comment, tokens are case-sensitive, and a ``start`` declaration is
mandatory.  Context-free/DCG grammars use ``lhs -> rhs...`` productions
plus ``lex word preterminal`` entries, CCG files map words to slash
categories, and TAG files give binary-branching elementary trees as
s-expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .terms import (
    NIL,
    Compound,
    Const,
    Term,
    TermSyntaxError,
    VarSource,
    _TermParser,
    mklist,
    principal,
    rename_with,
    render_term,
    space_source,
    tokenize_terms,
)


class SideConditionError(Exception):
    """A side condition was called outside its documented argument modes."""


class GrammarError(ValueError):
    """Raised on malformed grammar files; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class InputString:
    tokens: tuple

    @property
    def n(self) -> int:
        return len(self.tokens)

    @cached_property
    def relations(self) -> dict:
        """The fact tables (``FactTable``) of ``word(I, J, W)``: the
        token ``W`` spans positions ``I`` to ``J``, one row per token; of
        ``length(N)``, the number of tokens; and of ``position(I)``, one
        row per position from 0 to ``N``."""
        fresh = space_source("facts")
        rows = [(Const(i), Const(i + 1), Const(w)) for i, w in enumerate(self.tokens)]
        return {
            "word": FactTable("word", rows, fresh),
            "length": FactTable("length", [(Const(self.n),)], fresh),
            "position": FactTable("position", [(Const(i),) for i in range(self.n + 1)], fresh),
        }


def tokenize(text: str) -> InputString:
    """Split an input sentence on whitespace; no escaping."""
    return InputString(tuple(text.split()))


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == "'":
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


class FactTable:
    """The rows of the relation ``name`` of a grammar or of the input
    string, in a fixed order, each the term ``name(Arg, ...)`` of one
    tuple of arguments in ``rows``.  A non-ground row is renamed apart
    once, from ``fresh``, which the tables of one grammar share, so no
    two of its rows share a variable.

    ``answers(args)`` is the sequence of the rows that may unify with
    ``name(args)``, in row order, looked up at the first ground
    argument: the ground rows holding it at its position, and the
    non-ground rows holding a variable there or a term of its principal
    symbol; with no ground argument, every row.  An answer is the row
    itself, and the sequence is the table's own, shared by every call
    that looks up the same key, so a caller must not change it.  A
    position's index is built when a call first looks it up, so a
    position no call binds first costs nothing.
    """

    __slots__ = ("rows", "_by_arg")

    def __init__(self, name: str, rows, fresh: VarSource):
        rows = [Compound(name, tuple(a)) for a in rows]
        self.rows = tuple(r if r.ground else rename_with(r, {}, fresh) for r in rows)
        # Per position: its ``_index``, or None until a call first
        # looks the position up.
        self._by_arg = [None] * (len(self.rows[0].args) if self.rows else 0)

    def _index(self, pos: int) -> tuple:
        """(term -> its rows, symbol -> the rows of a term of that
        principal symbol without a key of its own, the rows of any other
        term) at position ``pos``."""
        keyed = {r.args[pos]: [] for r in self.rows if r.ground}
        other: dict = {}
        wild: list = []  # the rows with a variable at ``pos``
        lists: dict = {}  # symbol -> every list above for a term of it
        for key, found in keyed.items():
            lists.setdefault(principal(key), []).append(found)
        for row in self.rows:
            a = row.args[pos]
            if row.ground:
                keyed[a].append(row)
                continue
            s = principal(a)
            if s is None:
                wild.append(row)
                targets = [found for same in lists.values() for found in same]
            else:
                if s not in other:
                    other[s] = list(wild)
                    lists.setdefault(s, []).append(other[s])
                targets = lists[s]
            for found in targets:
                found.append(row)
        return keyed, other, wild

    def answers(self, args):
        for pos, (index, a) in enumerate(zip(self._by_arg, args)):
            if a.ground:
                if index is None:
                    index = self._by_arg[pos] = self._index(pos)
                keyed, other, wild = index
                found = keyed.get(a)
                if found is None:
                    found = other.get(principal(a), wild)
                return found
        return self.rows


class ReductionTrie:
    """The relation ``reduction(Stack, B, Rest)`` of a context-free
    grammar, the reduce step of the shift-reduce system: ``B -> G`` is
    one of ``pairs``, the (lhs, rhs) productions in row order, and
    ``Stack`` is ``G`` reversed onto ``Rest``, since a stack lists its
    top first.

    The rows sit in a trie over their reversed right-hand sides: a node
    is (children, rows ending here), and a child is keyed by its
    symbol's principal symbol (``principal``), None for a variable.

    ``answers(args)`` walks the stack ``args[0]`` from its top, as deep
    as the trie goes: a stack element that is a variable follows every
    child, any other its principal symbol's child and the variables'.
    The rows met answer in row order, in a new list, each as
    ``reduction(rev(G') ++ Suffix, B', Suffix)``, where ``Suffix`` is
    the stack's own sub-term below the symbols met and a non-ground row
    is renamed apart for each answer, from the grammar's "facts" space.
    Where the walk needs an element past the stack's last cell, the
    stack must end in ``[]``, or ``SideConditionError`` is raised.
    """

    __slots__ = ("_root", "_fresh")

    def __init__(self, pairs, fresh: VarSource):
        self._root = ({}, [])
        self._fresh = fresh
        for n, (lhs, rhs) in enumerate(pairs):
            node = self._root
            for s in reversed(rhs):
                node = node[0].setdefault(principal(s), ({}, []))
            node[1].append((n, lhs, tuple(rhs), Compound("->", (lhs, *rhs))))

    def answers(self, args):
        found = []
        pending = [(self._root, args[0])]  # (node, the stack below the symbols met)
        while pending:
            (children, rows), stack = pending.pop()
            for row in rows:
                found.append((row, stack))
            if not children:
                continue
            if type(stack) is not Compound or stack.functor != "." or len(stack.args) != 2:
                if stack == NIL:
                    continue
                raise SideConditionError(
                    f"reduction needs a proper list stack, not {render_term(args[0])}")
            top, below = stack.args
            key = principal(top)
            if key is None:
                pending += [(child, below) for child in children.values()]
                continue
            for child in children.get(key), children.get(None):
                if child is not None:
                    pending.append((child, below))
        found.sort(key=lambda met: met[0][0])
        out = []
        for (_, lhs, rhs, row), suffix in found:
            if not row.ground:
                lhs, *rhs = rename_with(row, {}, self._fresh).args
            stack = suffix
            for s in rhs:
                stack = Compound(".", (s, stack))
            out.append(Compound("reduction", (stack, lhs, suffix)))
        return out


# ---- context-free / DCG ----

@dataclass(frozen=True)
class CfGrammar:
    """Productions over first-order terms plus a terminal lexicon.

    ``terminals`` holds every symbol that appears on the word side of a
    lexicon entry; such symbols may also occur inline on production
    right-hand sides.
    """

    starts: tuple
    productions: tuple
    lexicon: tuple
    terminals: frozenset
    warnings: tuple = field(default=(), compare=False)

    def is_terminal(self, name) -> bool:
        return name in self.terminals

    @cached_property
    def relations(self) -> dict:
        """The fact tables (``FactTable``) of ``production(Lhs, Rhs)``,
        with ``Rhs`` a list, for every production and then every lexical
        entry as a one-word production; of ``lex(Word, Preterminal)``;
        and of ``is_start(S)``; and the trie (``ReductionTrie``) of
        ``reduction(Stack, Lhs, Rest)`` over the ``production`` rows.  A
        word is the one ``Const`` of its name that the productions use,
        if they use one."""
        words = {s.name: s for _, rhs in self.productions for s in rhs if type(s) is Const}
        lexicon = [(words.setdefault(w, Const(w)), p) for w, p in self.lexicon]
        pairs = list(self.productions) + [(p, [w]) for w, p in lexicon]
        fresh = space_source("facts")
        return {
            "production": FactTable("production", [(a, mklist(b)) for a, b in pairs], fresh),
            "lex": FactTable("lex", lexicon, fresh),
            "is_start": FactTable("is_start", [(s,) for s in self.starts], fresh),
            "reduction": ReductionTrie(pairs, fresh),
        }


def _quoted_preterminal(word: str) -> Const:
    # The quotes stay in the symbol name, so the rendering round-trips
    # and no user identifier can collide with it.
    return Const(f"'{word}'")


def load_cf(text: str) -> CfGrammar:
    starts: list[Term] = []
    productions = []
    lexicon = []
    terminals = set()
    # Quoted-literal expansions are appended after all explicit entries,
    # in first-use order, so rendering and reloading is a fixpoint.
    auto_words: dict = {}
    # One Const per symbol name for the whole grammar, so equal symbols
    # are one object wherever they occur.
    symbols: dict = {}

    def auto_lex(word):
        auto_words.setdefault(word, None)
        terminals.add(word)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        try:
            if line.startswith("start ") or line == "start":
                rest = line[len("start"):].strip()
                if not rest:
                    raise GrammarError("start declaration needs a symbol", line_no)
                starts.extend(_parse_terms(rest, line_no, symbols))
            elif line.startswith("lex ") or line == "lex":
                parts = line.split(None, 2)
                if len(parts) != 3:
                    raise GrammarError("lex line needs a word and a preterminal", line_no)
                word = parts[1].strip("'")
                preterm = _parse_one_term(parts[2], line_no, symbols)
                lexicon.append((word, preterm))
                terminals.add(word)
            elif "->" in line:
                lhs_text, rhs_text = line.split("->", 1)
                lhs = _parse_one_term(lhs_text, line_no, symbols)
                rhs = []
                for sym in _parse_terms(rhs_text, line_no, symbols):
                    if isinstance(sym, Const) and isinstance(sym.name, str) and sym.name.startswith("'"):
                        # ``sym`` is already the quoted preterminal of its word.
                        auto_lex(sym.name.strip("'"))
                    rhs.append(sym)
                productions.append((lhs, tuple(rhs)))
            else:
                raise GrammarError(f"cannot parse line {line!r}", line_no)
        except TermSyntaxError as exc:
            raise GrammarError(str(exc), line_no) from exc

    for word in auto_words:
        entry = (word, symbols[_quoted_preterminal(word).name])
        if entry not in lexicon:
            lexicon.append(entry)

    if not starts:
        raise GrammarError("missing start declaration")
    if not productions and not lexicon:
        raise GrammarError("empty grammar: no productions or lexicon entries")

    warnings = []
    defined = {_head_name(lhs) for lhs, _ in productions}
    defined |= {_head_name(p) for _, p in lexicon}
    for s in starts:
        if _head_name(s) not in defined:
            warnings.append(
                f"start symbol {render_term(s)} has no production or lexicon entry"
            )
    return CfGrammar(
        starts=tuple(starts),
        productions=tuple(productions),
        lexicon=tuple(lexicon),
        terminals=frozenset(terminals),
        warnings=tuple(warnings),
    )


def _head_name(t: Term):
    if isinstance(t, Compound):
        return t.functor
    if isinstance(t, Const):
        return t.name
    return None


def _parse_one_term(text: str, line_no: int, symbols: dict) -> Term:
    terms = _parse_terms(text, line_no, symbols)
    if len(terms) != 1:
        raise GrammarError(f"expected one term in {text.strip()!r}", line_no)
    return terms[0]


def _parse_terms(text: str, line_no: int, symbols: dict) -> list[Term]:
    try:
        parser = _TermParser(tokenize_terms(text), symbols)
        out = []
        while parser.peek() != (None, None):
            out.append(parser.parse_symbol())
        return out
    except TermSyntaxError as exc:
        raise GrammarError(str(exc), line_no) from exc


def validate_cnf(g: CfGrammar) -> list[str]:
    """Chomsky-normal-form violations, as report lines; empty when CNF.

    Required shape: every production has exactly two non-terminal
    right-hand symbols, and terminals enter only through the lexicon.
    """
    out = []
    for lhs, rhs in g.productions:
        shown = f"{render_term(lhs)} -> {' '.join(render_term(s) for s in rhs)}".rstrip()
        if len(rhs) == 0:
            out.append(f"{shown} : empty right-hand side (epsilon) is not CNF")
        elif len(rhs) != 2:
            out.append(f"{shown} : CNF requires exactly two right-hand symbols")
        elif any(
            isinstance(s, Const) and g.is_terminal(s.name) for s in rhs
        ):
            out.append(f"{shown} : terminals may not appear on a CNF right-hand side")
    return out


def render_cf(g: CfGrammar) -> str:
    lines = ["start " + " ".join(render_term(s) for s in g.starts)]
    rhs_literals = {
        s.name
        for _, rhs in g.productions
        for s in rhs
        if isinstance(s, Const) and isinstance(s.name, str) and s.name.startswith("'")
    }
    for lhs, rhs in g.productions:
        rhs_text = " ".join(render_term(s) for s in rhs)
        lines.append(f"{render_term(lhs)} -> {rhs_text}".rstrip())
    for word, preterm in g.lexicon:
        if preterm == _quoted_preterminal(word) and preterm.name in rhs_literals:
            continue  # implied by the quoted literal in some rhs
        lines.append(f"lex {word} {render_term(preterm)}")
    return "\n".join(lines) + "\n"


# ---- CCG ----

FORWARD = "/"
BACKWARD = "\\"


def forward(result: Term, argument: Term) -> Compound:
    return Compound(FORWARD, (result, argument))


def backward(result: Term, argument: Term) -> Compound:
    return Compound(BACKWARD, (result, argument))


@dataclass(frozen=True)
class CcgLexicon:
    """Word-to-category map with a distinguished start category."""

    start: Term
    entries: tuple

    @cached_property
    def relations(self) -> dict:
        """The fact tables (``FactTable``) of ``lex(Word, Category)``, in
        entry order, and of ``is_start(S)``."""
        fresh = space_source("facts")
        return {
            "lex": FactTable("lex", [(Const(w), cat) for w, cat in self.entries], fresh),
            "is_start": FactTable("is_start", [(self.start,)], fresh),
        }


_CCG_PUNCT = set("/\\()")


def _tokenize_category(text: str, line_no: int) -> list[str]:
    out = []
    cur = []
    for ch in text:
        if ch.isspace() or ch in _CCG_PUNCT:
            if cur:
                out.append("".join(cur))
                cur = []
            if ch in _CCG_PUNCT:
                out.append(ch)
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def parse_category(text: str, line_no=None) -> Term:
    """Parse a slash category; / and \\ are left-associative, parens override."""
    tokens = _tokenize_category(text, line_no)
    pos = 0

    def primary() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise GrammarError("category ended unexpectedly", line_no)
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            inner = category()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise GrammarError("unbalanced parenthesis in category", line_no)
            pos += 1
            return inner
        if tok in _CCG_PUNCT:
            raise GrammarError(f"unexpected {tok!r} in category", line_no)
        return Const(tok)

    def category() -> Term:
        nonlocal pos
        left = primary()
        while pos < len(tokens) and tokens[pos] in (FORWARD, BACKWARD):
            slash = tokens[pos]
            pos += 1
            right = primary()
            left = Compound(slash, (left, right))
        return left

    result = category()
    if pos != len(tokens):
        raise GrammarError(f"trailing input in category {text.strip()!r}", line_no)
    return result


def render_category(cat: Term) -> str:
    """Render with explicit parentheses around nested categories."""
    if isinstance(cat, Const):
        return str(cat.name)
    if isinstance(cat, Compound) and cat.functor in (FORWARD, BACKWARD):
        left, right = cat.args

        def wrap(x):
            text = render_category(x)
            return f"({text})" if isinstance(x, Compound) else text

        return f"{wrap(left)}{cat.functor}{wrap(right)}"
    return render_term(cat)


def load_ccg(text: str) -> CcgLexicon:
    start = None
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("start ") or line == "start":
            rest = line[len("start"):].strip()
            if not rest:
                raise GrammarError("start declaration needs a category", line_no)
            start = parse_category(rest, line_no)
        elif ":" in line:
            word, cat_text = line.split(":", 1)
            word = word.strip()
            if not word or len(word.split()) != 1:
                raise GrammarError("entry needs a single word before ':'", line_no)
            entries.append((word, parse_category(cat_text, line_no)))
        else:
            raise GrammarError(f"cannot parse line {line!r}", line_no)
    if start is None:
        raise GrammarError("missing start declaration")
    if not entries:
        raise GrammarError("empty lexicon")
    return CcgLexicon(start=start, entries=tuple(entries))


def render_ccg(lex: CcgLexicon) -> str:
    lines = [f"start {render_category(lex.start)}"]
    lines += [f"{w} : {render_category(c)}" for w, c in lex.entries]
    return "\n".join(lines) + "\n"


# ---- TAG ----

EPSILON = ""  # internal label of an empty-string leaf; rendered as "eps"


@dataclass(frozen=True)
class TagTree:
    """One binary-branching elementary tree.

    Addresses are tuples of child indices (1 or 2); the root is ().
    ``nodes`` maps every address to its label; ``foot`` is the foot
    address for auxiliary trees, None for initial ones.
    """

    name: str
    kind: str  # "initial" | "auxiliary"
    nodes: dict
    foot: "tuple | None"

    @property
    def root_label(self) -> str:
        return self.nodes[()]

    def label(self, address: tuple) -> str:
        return self.nodes[address]

    def children(self, address: tuple) -> list[tuple]:
        out = []
        for k in (1, 2):
            if address + (k,) in self.nodes:
                out.append(address + (k,))
        return out


@dataclass(frozen=True)
class TagGrammar:
    start: str
    initials: tuple
    auxiliaries: tuple

    @property
    def trees(self) -> tuple:
        return self.initials + self.auxiliaries

    @cached_property
    def relations(self) -> dict:
        """The fact tables (``FactTable``) of ``is_start(S)``; of
        ``initial_root(Root, Label)`` by initial tree; of
        ``adjoinable(Node, Aux)`` by auxiliary tree, then tree, then each
        node of it labelled as the auxiliary tree's root; of
        ``leaf(Node, Label)`` by tree, then each leaf that is not a foot,
        an empty leaf labelled ``''`` (``EPSILON``), which no token
        equals; of ``foot_of(Aux, Foot)``; and of
        ``child_undefined(node(T, [2|P]))`` by tree, then each node ``P``
        of ``T`` with no second child.  A node is ``node_ref(tree,
        address)``."""
        nodes = [(node_ref(t.name, addr), t.label(addr)) for t in self.trees for addr in t.nodes]
        fresh = space_source("facts")
        return {
            "is_start": FactTable("is_start", [(Const(self.start),)], fresh),
            "initial_root": FactTable("initial_root", [
                (node_ref(t.name, ()), Const(t.root_label)) for t in self.initials
            ], fresh),
            "adjoinable": FactTable("adjoinable", [
                (node, Const(aux.name))
                for aux in self.auxiliaries for node, label in nodes if label == aux.root_label
            ], fresh),
            "leaf": FactTable("leaf", [
                (node_ref(t.name, addr), Const(label))
                for t in self.trees for addr, label in t.nodes.items()
                if not t.children(addr) and addr != t.foot
            ], fresh),
            "foot_of": FactTable("foot_of", [
                (Const(t.name), node_ref(t.name, t.foot)) for t in self.auxiliaries
            ], fresh),
            "child_undefined": FactTable("child_undefined", [
                (node_ref(t.name, addr + (2,)),)
                for t in self.trees for addr in t.nodes if addr + (2,) not in t.nodes
            ], fresh),
        }


def node_ref(tree_name: str, address: tuple) -> Compound:
    """``node(Tree, AddrRev)``: a tree node, its address reversed into a list."""
    addr_rev = mklist([Const(k) for k in reversed(address)])
    return Compound("node", (Const(tree_name), addr_rev))


def _tokenize_sexp(text: str) -> list[tuple[str, int]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        cur = []
        for ch in line:
            if ch in "()":
                if cur:
                    out.append(("".join(cur), line_no))
                    cur = []
                out.append((ch, line_no))
            elif ch.isspace():
                if cur:
                    out.append(("".join(cur), line_no))
                    cur = []
            else:
                cur.append(ch)
        if cur:
            out.append(("".join(cur), line_no))
    return out


def _parse_sexp(tokens, pos):
    tok, line_no = tokens[pos]
    if tok == "(":
        pos += 1
        if pos >= len(tokens):
            raise GrammarError("unterminated tree", line_no)
        label, label_line = tokens[pos]
        if label in ("(", ")"):
            raise GrammarError("tree node needs a label", label_line)
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos][0] != ")":
            child, pos = _parse_sexp(tokens, pos)
            children.append(child)
        if pos >= len(tokens):
            raise GrammarError("unterminated tree", line_no)
        pos += 1
        return (label, children, label_line), pos
    if tok == ")":
        raise GrammarError("unexpected ')'", line_no)
    return (tok, None, line_no), pos + 1


def _build_tree(name: str, kind: str, sexp) -> TagTree:
    nodes = {}
    foot = []

    def walk(node, address):
        label, children, line_no = node
        is_foot = False
        if children is None:
            if label.endswith("*"):
                is_foot = True
                label = label[:-1]
                if not label:
                    raise GrammarError("foot marker needs a label", line_no)
            elif label == "eps":
                label = EPSILON
        if is_foot:
            foot.append((address, line_no))
        nodes[address] = label
        if children:
            if len(children) > 2:
                raise GrammarError(
                    f"node {label!r} has {len(children)} children; trees are binary branching",
                    line_no,
                )
            for k, child in enumerate(children, start=1):
                walk(child, address + (k,))

    walk(sexp, ())
    _, _, root_line = sexp

    if kind == "initial":
        if foot:
            raise GrammarError(f"initial tree {name} may not contain a foot node", foot[0][1])
        foot_addr = None
    else:
        if len(foot) != 1:
            raise GrammarError(
                f"auxiliary tree {name} needs exactly one foot node", root_line
            )
        foot_addr, foot_line = foot[0]
        if nodes[foot_addr] != nodes[()]:
            raise GrammarError(
                f"foot label {nodes[foot_addr]!r} differs from root label {nodes[()]!r}",
                foot_line,
            )
    return TagTree(name=name, kind=kind, nodes=nodes, foot=foot_addr)


def load_tag(text: str) -> TagGrammar:
    tokens = _tokenize_sexp(text)
    pos = 0
    start = None
    initials = []
    auxiliaries = []
    seen = set()
    while pos < len(tokens):
        tok, line_no = tokens[pos]
        if tok == "start":
            if pos + 1 >= len(tokens) or tokens[pos + 1][0] in ("(", ")"):
                raise GrammarError("start declaration needs a symbol", line_no)
            start = tokens[pos + 1][0]
            pos += 2
        elif tok in ("initial", "auxiliary"):
            if pos + 1 >= len(tokens) or tokens[pos + 1][0] in ("(", ")"):
                raise GrammarError(f"{tok} declaration needs a tree name", line_no)
            name = tokens[pos + 1][0]
            if name in seen:
                raise GrammarError(f"duplicate tree name {name!r}", line_no)
            seen.add(name)
            pos += 2
            if pos >= len(tokens) or tokens[pos][0] != "(":
                raise GrammarError(f"tree {name} needs an s-expression", line_no)
            sexp, pos = _parse_sexp(tokens, pos)
            tree = _build_tree(name, tok, sexp)
            (initials if tok == "initial" else auxiliaries).append(tree)
        else:
            raise GrammarError(f"cannot parse {tok!r}", line_no)
    if start is None:
        raise GrammarError("missing start declaration")
    if not initials:
        raise GrammarError("no initial trees")
    return TagGrammar(start=start, initials=tuple(initials), auxiliaries=tuple(auxiliaries))


def _render_sexp(tree: TagTree, address: tuple) -> str:
    label = tree.label(address)
    children = tree.children(address)
    if not children:
        if address == tree.foot:
            return f"{label}*"
        if label == EPSILON:
            return "eps"
        return label
    inner = " ".join(_render_sexp(tree, c) for c in children)
    return f"({label} {inner})"


def render_tag(g: TagGrammar) -> str:
    lines = [f"start {g.start}"]
    for t in g.initials:
        lines.append(f"initial {t.name} {_render_sexp(t, ())}")
    for t in g.auxiliaries:
        lines.append(f"auxiliary {t.name} {_render_sexp(t, ())}")
    return "\n".join(lines) + "\n"
