"""First-order terms and the operations the deduction engine is built on.

Terms are immutable: variables, constants (symbols and integers), and
compound terms.  Everything the engine stores, from grammar symbols to
whole chart items, lives in this one carrier.  Lists are encoded the
Prolog way, as right-nested ``.``/2 cells ending in ``[]``; the functor
``.`` cannot be produced by the concrete syntax, so the encoding never
collides with user symbols.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

# Variable identifiers are either source names (strings, from grammar
# files) or generated integers (from a VarSource).  The two spaces are
# disjoint, so generated variables can never capture source ones.
VarId = "int | str"


class Term:
    __slots__ = ()

    ground = False

    def __repr__(self):
        return render_term(self)


class Var(Term):
    __slots__ = ("id", "_hash")

    def __init__(self, id):
        self.id = id
        self._hash = hash(("v", id))

    def __eq__(self, other):
        return type(other) is Var and self.id == other.id

    def __hash__(self):
        return self._hash


class Const(Term):
    __slots__ = ("name", "_hash")

    ground = True

    def __init__(self, name):
        self.name = name
        self._hash = hash(("c", name))

    def __eq__(self, other):
        return type(other) is Const and self.name == other.name

    def __hash__(self):
        return self._hash


class Compound(Term):
    __slots__ = ("functor", "args", "_hash", "ground")

    # A non-ground compound is hashed on first use: most are built,
    # bound or resolved and dropped without ever being hashed.  A ground
    # one is hashed here, from its arguments' cached hashes, so however
    # deep it is, hashing it never recurses and comparing it with a
    # ground term of another hash stops at once.
    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args
        for a in args:
            if not a.ground:
                self.ground = False
                self._hash = None
                break
        else:
            self.ground = True
            self._hash = hash(("f", functor, args))

    def __eq__(self, other):
        return (
            type(other) is Compound
            and self.ground is other.ground
            and (not self.ground or self._hash == other._hash)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(("f", self.functor, self.args))
        return h


NIL = Const("[]")


def cons(head: Term, tail: Term) -> Compound:
    return Compound(".", (head, tail))


def mklist(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def list_parts(t: Term) -> tuple[list[Term], Term]:
    """Split a cons chain into (elements, tail); tail is NIL for proper lists."""
    elems = []
    while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
        elems.append(t.args[0])
        t = t.args[1]
    return elems, t


def unlist(t: Term) -> "list[Term] | None":
    """The elements of a proper list, or None if t is not one."""
    elems, tail = list_parts(t)
    return elems if tail == NIL else None


def is_ground(t: Term) -> bool:
    return t.ground


def principal(t: Term):
    """The symbol at the root of t: a constant's name, a compound's
    (functor, arity), or None for a variable."""
    if type(t) is Compound:
        return (t.functor, len(t.args))
    if type(t) is Const:
        return t.name
    return None


def term_vars(t: Term) -> list:
    """Variable identifiers in first-occurrence (leftmost) order."""
    seen = []
    seen_set = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            if cur.id not in seen_set:
                seen_set.add(cur.id)
                seen.append(cur.id)
        elif isinstance(cur, Compound) and not cur.ground:
            stack.extend(reversed(cur.args))
    return seen


class Substitution:
    """An idempotent mapping from variable identifiers to terms.

    Bindings are kept fully resolved: no value contains a variable that
    the substitution also binds, so applying twice equals applying once.
    """

    __slots__ = ("bindings",)

    def __init__(self, bindings: dict):
        self.bindings = bindings

    def __repr__(self):
        inner = ", ".join(
            f"{render_term(Var(v))} -> {render_term(t)}" for v, t in self.bindings.items()
        )
        return "{" + inner + "}"

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.bindings == other.bindings

    def is_empty(self) -> bool:
        return not self.bindings

    def apply(self, t: Term) -> Term:
        if t.ground or not self.bindings:
            return t
        if isinstance(t, Var):
            return self.bindings.get(t.id, t)
        if isinstance(t, Compound):
            args = tuple(self.apply(a) for a in t.args)
            if args == t.args:
                return t
            return Compound(t.functor, args)
        return t

    def compose(self, later: "Substitution") -> "Substitution":
        """The substitution applying self first, then later."""
        if not self.bindings:
            return later
        if not later.bindings:
            return self
        out = {v: later.apply(t) for v, t in self.bindings.items()}
        for v, t in later.bindings.items():
            if v not in out:
                out[v] = t
        return Substitution(out)


EMPTY_SUBST = Substitution({})


def _walk(t: Term, env: dict) -> Term:
    while type(t) is Var:
        nxt = env.get(t.id)
        if nxt is None:
            return t
        t = nxt
    return t


def _occurs(vid, t: Term, env: dict) -> bool:
    stack = [t]
    while stack:
        cur = _walk(stack.pop(), env)
        if type(cur) is Var:
            if cur.id == vid:
                return True
        elif type(cur) is Compound and not cur.ground:
            stack.extend(cur.args)
    return False


def resolve(t: Term, env: dict) -> Term:
    """``t`` with every variable bound in ``env`` replaced, through
    chains of bindings, by its value."""
    if t.ground:
        return t
    while type(t) is Var:
        nxt = env.get(t.id)
        if nxt is None:
            return t
        t = nxt
    if t.ground:
        return t
    return Compound(t.functor, tuple([a if a.ground else resolve(a, env) for a in t.args]))


def bind(t1: Term, t2: Term, env: dict, trail: list) -> bool:
    """Unify t1 and t2 under the bindings in ``env``, extending it in place.

    ``env`` maps variable identifiers to terms that may mention other
    bound variables (triangular form); ``resolve`` reads it.  Every
    variable bound here is pushed on ``trail``, so ``undo`` to an earlier
    trail length restores ``env`` exactly, also after a failure, which
    may leave some bindings behind.  The occurs check is on, except
    where the term being bound is ground or a variable and so cannot
    contain the variable it is bound to.
    """
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        while type(a) is Var:
            nxt = env.get(a.id)
            if nxt is None:
                break
            a = nxt
        while type(b) is Var:
            nxt = env.get(b.id)
            if nxt is None:
                break
            b = nxt
        if a is b:
            continue
        if type(a) is Var:
            if type(b) is Var:
                if b.id == a.id:
                    continue
            elif not b.ground and _occurs(a.id, b, env):
                return False
            env[a.id] = b
            trail.append(a.id)
        elif type(b) is Var:
            if not a.ground and _occurs(b.id, a, env):
                return False
            env[b.id] = a
            trail.append(b.id)
        elif type(a) is Const:
            if type(b) is not Const or a.name != b.name:
                return False
        elif type(a) is Compound:
            if (
                type(b) is not Compound
                or a.functor != b.functor
                or len(a.args) != len(b.args)
            ):
                return False
            if a.ground and b.ground:
                if a != b:
                    return False
                continue
            stack.extend(zip(a.args, b.args))
        else:
            return False
    return True


def undo(env: dict, trail: list, mark: int) -> None:
    """Drop the bindings pushed on ``trail`` since it had length ``mark``."""
    while len(trail) > mark:
        del env[trail.pop()]


def unify(t1: Term, t2: Term, init: "Substitution | None" = None) -> "Substitution | None":
    """Most general unifier of t1 and t2, or None.

    The occurs check is on: unify(X, f(X)) fails rather than building a
    cyclic binding.  When ``init`` is given, unification proceeds under
    those bindings and the result extends them.
    """
    env = dict(init.bindings) if init is not None else {}
    if not bind(t1, t2, env, []):
        return None
    return Substitution({v: resolve(t, env) for v, t in env.items()})


def match(general: Term, specific: Term) -> "Substitution | None":
    """One-sided unification: bindings over general's variables only.

    Variables in ``specific`` are treated as distinct constants, which
    is the standard reading when the caller has renamed the two terms
    apart.
    """
    env: dict = {}
    stack = [(general, specific)]
    while stack:
        g, s = stack.pop()
        if isinstance(g, Var):
            bound = env.get(g.id)
            if bound is None:
                env[g.id] = s
            elif bound != s:
                return None
        elif isinstance(g, Const):
            if not (isinstance(s, Const) and g.name == s.name):
                return None
        else:
            if (
                not isinstance(s, Compound)
                or g.functor != s.functor
                or len(g.args) != len(s.args)
            ):
                return None
            if g.ground and s.ground:
                if g != s:
                    return None
                continue
            stack.extend(zip(g.args, s.args))
    return Substitution(env)


def subsumes(general: Term, specific: Term) -> bool:
    """True when every instance of specific is an instance of general.

    Callers are expected to hand in terms renamed apart.  On ground
    terms this degrades to structural equality via the ground flags.
    """
    if general.ground:
        return general == specific
    return match(general, specific) is not None


def variant(t1: Term, t2: Term) -> bool:
    """True when t1 and t2 are equal up to consistent variable renaming."""
    return subsumes(t1, t2) and subsumes(t2, t1)


class VarSource:
    """Generator of fresh integer-identified variables.

    A source draws ``start``, ``start + step``, ``start + 2 * step``, ...
    One source is scoped to one engine run, so renamed copies never
    collide.  A parse draws 0, 1, 2, ..., the ``_G`` numbers of its
    chart dump; every other user draws from its own space
    (``space_source``).
    """

    __slots__ = ("_n", "_step")

    def __init__(self, start: int = 0, step: int = 1):
        self._n = start
        self._step = step

    def fresh(self) -> Var:
        v = Var(self._n)
        self._n += self._step
        return v


# The fresh-variable spaces besides a parse's own.  Space k draws the
# negative ids -k, -k - n, -k - 2n, ... for n spaces: one residue modulo
# n each, so no two spaces meet however many variables they draw, and
# none meets the non-negative ids of a parse.  The "clause" space holds
# the variables of the compiled rule clauses the engine binds in place
# (``RuleClause.compiled``); no other term may carry one.
FRESH_SPACES = ("goals", "side_conditions", "closure", "replay", "clause")


def space_source(name: str) -> VarSource:
    """A fresh source for the named space in ``FRESH_SPACES``."""
    n = len(FRESH_SPACES)
    return VarSource(-(FRESH_SPACES.index(name) + 1), -n)


def rename_with(t: Term, mapping: dict, source: VarSource) -> Term:
    """Rename t's variables via mapping, drawing unseen ones from source."""
    if t.ground:
        return t
    if isinstance(t, Var):
        got = mapping.get(t.id)
        if got is None:
            got = source.fresh()
            mapping[t.id] = got
        return got
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(rename_with(a, mapping, source) for a in t.args))
    return t


def _named_fresh(avoid: set) -> Iterator[Var]:
    n = 1
    while True:
        name = f"V{n}"
        if name not in avoid:
            avoid.add(name)
            yield Var(name)
        n += 1


def rename_apart(t: Term, reserved: set, source: "VarSource | None" = None) -> Term:
    """A variant of t sharing no variable identifier with reserved.

    Repeated variables stay identified.  Fresh identifiers come from
    ``source`` when given, else from the deterministic series V1, V2,
    ... skipping anything in reserved or already free in t.
    """
    if t.ground:
        return t
    mapping: dict = {}
    if source is not None:
        return rename_with(t, mapping, source)
    avoid = set(reserved) | set(term_vars(t))
    fresh = _named_fresh(avoid)
    out = {}

    def walk(x: Term) -> Term:
        if x.ground:
            return x
        if isinstance(x, Var):
            if x.id not in out:
                out[x.id] = next(fresh)
            return out[x.id]
        return Compound(x.functor, tuple(walk(a) for a in x.args))

    return walk(t)


def abstract_depth(t: Term, d: int, source: "VarSource | None" = None) -> Term:
    """Replace every subterm rooted at depth >= d with a fresh variable.

    Each occurrence gets its own variable, so the result subsumes t.
    Depth 0 abstracts the whole term.
    """
    if source is not None:
        def fresh_var():
            return source.fresh()
    else:
        avoid = set(term_vars(t))
        series = _named_fresh(avoid)

        def fresh_var():
            return next(series)

    def walk(x: Term, depth: int) -> Term:
        if depth >= d:
            return fresh_var()
        if isinstance(x, Compound):
            return Compound(x.functor, tuple(walk(a, depth + 1) for a in x.args))
        return x

    return walk(t, 0)


def canonical(t: Term) -> Term:
    """Rename variables to 0, 1, ... in first-occurrence order.

    Two terms are variants exactly when their canonical forms are equal,
    which gives set comparison "up to renaming" for free.
    """
    if t.ground:
        return t
    mapping: dict = {}

    def walk(x: Term) -> Term:
        if x.ground:
            return x
        if isinstance(x, Var):
            if x.id not in mapping:
                mapping[x.id] = Var(len(mapping))
            return mapping[x.id]
        return Compound(x.functor, tuple(walk(a) for a in x.args))

    return walk(t)


# ---- concrete syntax ----

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<quoted>'[^']*')|(?P<punct>[(),]))"
)


class TermSyntaxError(ValueError):
    pass


def tokenize_terms(text: str) -> list[tuple[str, str]]:
    """Token stream for the term syntax: ints, names, quoted atoms, punctuation."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise TermSyntaxError(f"cannot tokenize {rest[:20]!r}")
        pos = m.end()
        for kind in ("int", "name", "quoted", "punct"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
    return out


def _is_var_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _TermParser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_term(self) -> Term:
        kind, val = self.take()
        if kind == "int":
            return Const(int(val))
        if kind == "quoted":
            return Const(val)
        if kind != "name":
            raise TermSyntaxError(f"expected a term, got {val!r}")
        if _is_var_name(val):
            if self.peek() == ("punct", "("):
                raise TermSyntaxError(f"variable {val} cannot take arguments")
            return Var(val)
        return self._finish_atom_or_compound(val)

    def parse_symbol(self) -> Term:
        """Parse a grammar symbol: the head is a constant or functor even
        when uppercase (S, NP); the variable convention applies only to
        arguments, as in r(X, N)."""
        kind, val = self.take()
        if kind == "int":
            return Const(int(val))
        if kind == "quoted":
            return Const(val)
        if kind != "name":
            raise TermSyntaxError(f"expected a symbol, got {val!r}")
        return self._finish_atom_or_compound(val)

    def _finish_atom_or_compound(self, name: str) -> Term:
        if self.peek() == ("punct", "("):
            self.take()
            args = [self.parse_term()]
            while self.peek() == ("punct", ","):
                self.take()
                args.append(self.parse_term())
            kind, close = self.take()
            if close != ")":
                raise TermSyntaxError(f"expected ')' in {name}(...)")
            return Compound(name, tuple(args))
        return Const(name)


def parse_term(text: str) -> Term:
    """Parse one term: lowercase-initial names are constants/functors,
    uppercase or underscore-initial names are variables, integers are
    constants, f(a, X) is compound."""
    parser = _TermParser(tokenize_terms(text))
    t = parser.parse_term()
    if parser.pos != len(parser.tokens):
        raise TermSyntaxError(f"trailing input after term in {text!r}")
    return t


def parse_term_seq(text: str) -> list[Term]:
    """Parse a whitespace-separated sequence of terms (a grammar rhs)."""
    parser = _TermParser(tokenize_terms(text))
    out = []
    while parser.peek() != (None, None):
        out.append(parser.parse_term())
    return out


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.id if isinstance(t.id, str) else f"_G{t.id}"
    if isinstance(t, Const):
        return str(t.name)
    if isinstance(t, Compound):
        if t.functor == "." and len(t.args) == 2:
            elems, tail = list_parts(t)
            inner = ", ".join(render_term(e) for e in elems)
            if tail == NIL:
                return f"[{inner}]"
            return f"[{inner}|{render_term(tail)}]"
        inner = ", ".join(render_term(a) for a in t.args)
        return f"{t.functor}({inner})"
    raise TypeError(f"not a term: {t!r}")
