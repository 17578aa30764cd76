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
import types
from operator import is_
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
        if type(other) is not Compound or self.ground is not other.ground:
            return False
        if self.ground:
            # Only terms of equal hashes are compared below the root, by
            # the C-level tuple comparison, which recurses once per level;
            # a pair too deep for it is compared again on an explicit
            # stack.
            try:
                return (
                    self._hash == other._hash
                    and self.functor == other.functor
                    and self.args == other.args
                )
            except RecursionError:
                return _ground_equal(self, other)
        # A non-ground pair keeps the argument lists still to compare in
        # ``pending``, so comparing deep terms never recurses.
        pending = [(self, other)]
        while pending:
            x, y = pending.pop()
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            for a, b in zip(x.args, y.args):
                if a is b:
                    continue
                if type(a) is Compound and not a.ground:
                    if type(b) is not Compound or b.ground:
                        return False
                    pending.append((a, b))
                elif a != b:
                    return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(("f", self.functor, self.args))
        return h


def _ground_equal(x: Compound, y: Compound) -> bool:
    """``x == y`` for two ground compounds, walked on an explicit stack:
    no call made here compares two compounds, so it works at any depth,
    also when the Python stack is nearly used up."""
    pending = [(x, y)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Compound:
            if a._hash != b._hash or a.functor != b.functor or len(a.args) != len(b.args):
                return False
            pending.extend(zip(a.args, b.args))
        elif a.name != b.name:
            return False
    return True


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

    def apply(self, t: Term) -> Term:
        """``t`` with each bound variable replaced by its value.  It is
        ``resolve``, which walks an explicit stack, so a term of any
        depth applies; the bindings are fully resolved, so no chain of
        them is followed."""
        return resolve(t, self.bindings)

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
    chains of bindings, by its value; walked on an explicit stack.  A
    compound none of whose arguments changed is returned itself, so a
    term with no bound variable resolves to the very object."""
    if t.ground:
        return t
    while type(t) is Var:
        nxt = env.get(t.id)
        if nxt is None:
            return t
        t = nxt
    if t.ground:
        return t
    stack = []
    node, done = t, []
    while True:
        for a in node.args[len(done):]:
            while type(a) is Var and a.id in env:
                a = env[a.id]
            if type(a) is Compound and not a.ground:
                stack.append((node, done))
                node, done = a, []
                break
            done.append(a)
        else:
            built = node if all(map(is_, done, node.args)) else Compound(node.functor, tuple(done))
            if not stack:
                return built
            node, done = stack.pop()
            done.append(built)


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


# ---- generated code ----
#
# The rule clauses' programs (``systems.program_source``) are generated
# from the clauses' shapes.  Every functor, constant, variable and
# helper reaches the source as an argument of an outer ``make``
# function, whose closure cells the generated function reads; so no
# term text is ever compiled, and programs or steps of one shape share
# one code object.

_MAKERS: dict = {}  # generated source -> its compiled ``make``


def _generate(source: str, values: list, scope: dict):
    """``make(*values)`` for the ``make`` that ``source`` defines,
    compiled once per source.  A name the source neither defines nor
    gets as a value is a global of ``scope``, a module's namespace,
    looked up at each call, so the code sees whatever that module binds
    to the name then."""
    make = _MAKERS.get(source)
    if make is None:
        namespace: dict = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        make = _MAKERS[source] = types.FunctionType(namespace["make"].__code__, scope)
    return make(*values)


def _wrap(name: str, params: list, body: list, values: list) -> str:
    args = ", ".join([f"k{n}" for n in range(len(values))])
    inner = "".join(f"        {line}\n" for line in body)
    return f"def make({args}):\n    def {name}({', '.join(params)}):\n{inner}    return {name}\n"


def unify(t1: Term, t2: Term) -> "Substitution | None":
    """Most general unifier of t1 and t2, or None.

    The occurs check is on: unify(X, f(X)) fails rather than building a
    cyclic binding.
    """
    env: dict = {}
    if not bind(t1, t2, env, []):
        return None
    return Substitution({v: resolve(t, env) for v, t in env.items()})


def subsumes(general: Term, specific: Term) -> bool:
    """True when every instance of specific is an instance of general:
    some binding of general's variables alone makes it equal specific.

    Variables in ``specific`` are treated as distinct constants, and
    only ``general``'s are bound, so the answer is the same whether or
    not the two terms were renamed apart.  On ground terms this degrades to structural equality via
    the ground flags.  The walk keeps its own stack of pairs and takes
    arguments left to right, a list's head before its tail.
    """
    if general.ground:
        return general == specific
    env: dict = {}
    stack = [(general, specific)]
    while stack:
        g, s = stack.pop()
        if type(g) is Var:
            bound = env.get(g.id)
            if bound is None:
                env[g.id] = s
            elif bound is not s and bound != s:
                return False
        elif g.ground:
            if g != s:
                return False
        elif type(s) is not Compound or g.functor != s.functor or len(g.args) != len(s.args):
            return False
        else:
            stack.extend(zip(reversed(g.args), reversed(s.args)))
    return True


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
# (``RuleClause.compiled``), "facts" those of a grammar's relations.
FRESH_SPACES = ("facts", "side_conditions", "closure", "replay", "clause")


def space_source(name: str) -> VarSource:
    """A fresh source for the named space in ``FRESH_SPACES``."""
    n = len(FRESH_SPACES)
    return VarSource(-(FRESH_SPACES.index(name) + 1), -n)


_UNBOUND: dict = {}  # the empty environment; nothing writes it


def _renamed(t: Term, mapping: dict, fresh, env: dict = _UNBOUND) -> Term:
    """``t`` resolved through ``env``, as ``resolve`` reads it, with
    each variable left unbound replaced by its value in ``mapping``; a
    variable not there yet gets ``fresh()``, drawn in first-occurrence
    order of the resolved term.  The walk keeps its own stack of
    (compound, arguments rebuilt so far), so a term of any depth
    renames."""
    while type(t) is Var:
        got = mapping.get(t.id)
        if got is not None:
            return got
        nxt = env.get(t.id)
        if nxt is None:
            got = mapping[t.id] = fresh()
            return got
        t = nxt
    if t.ground:
        return t
    stack = []
    node, done = t, []
    while True:
        args = node.args
        for k in range(len(done), len(args)):
            a = args[k]
            # A variable reads as its rename, or else as its binding.
            while type(a) is Var:
                got = mapping.get(a.id)
                if got is not None:
                    break
                nxt = env.get(a.id)
                if nxt is None:
                    got = mapping[a.id] = fresh()
                    break
                a = nxt
            else:
                if a.ground:
                    done.append(a)
                    continue
                # A ``break`` here leaves the ``for``: descend into ``a``.
                stack.append((node, done))
                node, done = a, []
                break
            done.append(got)
        else:
            built = Compound(node.functor, tuple(done))
            if not stack:
                return built
            node, done = stack.pop()
            done.append(built)


def rename_with(t: Term, mapping: dict, source: VarSource, env: dict = _UNBOUND) -> Term:
    """Rename t's variables via mapping, drawing unseen ones from source;
    with ``env``, rename ``resolve(t, env)`` in the same walk."""
    return _renamed(t, mapping, source.fresh, env)


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
    if source is not None:
        return rename_with(t, {}, source)
    avoid = set(reserved) | set(term_vars(t))
    return _renamed(t, {}, _named_fresh(avoid).__next__)


def abstract_depth(t: Term, d: int, source: "VarSource | None" = None) -> Term:
    """Replace every subterm rooted at depth >= d with a fresh variable.

    Each occurrence gets its own variable, so the result subsumes t.
    Depth 0 abstracts the whole term.
    """
    if source is not None:
        fresh_var = source.fresh
    else:
        fresh_var = _named_fresh(set(term_vars(t))).__next__
    if d <= 0:
        return fresh_var()
    if type(t) is not Compound:
        return t
    # (compound, arguments rebuilt so far) of the compounds above ``node``
    stack = []
    node, done = t, []
    while True:
        args = node.args
        keep = len(stack) + 1 < d  # node's arguments lie above depth d
        for k in range(len(done), len(args)):
            a = args[k]
            if not keep:
                done.append(fresh_var())
            elif type(a) is Compound:
                stack.append((node, done))
                node, done = a, []
                break
            else:
                done.append(a)
        else:
            built = Compound(node.functor, tuple(done))
            if not stack:
                return built
            node, done = stack.pop()
            done.append(built)


def canonical(t: Term) -> Term:
    """Rename variables to 0, 1, ... in first-occurrence order.

    Two terms are variants exactly when their canonical forms are equal,
    which gives set comparison "up to renaming" for free.
    """
    return _renamed(t, {}, VarSource().fresh)


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
    def __init__(self, tokens: list[tuple[str, str]], symbols: "dict | None" = None):
        self.tokens = tokens
        self.pos = 0
        # name -> the one Const of that name; a caller that passes its own
        # dict to several parsers shares the constants among them.
        self.symbols = {} if symbols is None else symbols

    def const(self, name) -> Const:
        c = self.symbols.get(name)
        if c is None:
            c = self.symbols[name] = Const(name)
        return c

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_term(self) -> Term:
        return self._parse(symbol=False)

    def parse_symbol(self) -> Term:
        """Parse a grammar symbol: the head is a constant or functor even
        when uppercase (S, NP); the variable convention applies only to
        arguments, as in r(X, N)."""
        return self._parse(symbol=True)

    def _parse(self, symbol: bool) -> Term:
        # (functor, arguments read so far) of each compound whose ')' is
        # still due, so a term of any depth parses.
        open_: list = []
        while True:
            kind, val = self.take()
            if kind == "int":
                t = self.const(int(val))
            elif kind == "quoted":
                t = self.const(val)
            elif kind != "name":
                got = "the end of the input" if kind is None else repr(val)
                raise TermSyntaxError(f"expected a {'symbol' if symbol else 'term'}, got {got}")
            elif self.peek() == ("punct", "("):
                if _is_var_name(val) and not symbol:
                    raise TermSyntaxError(f"variable {val} cannot take arguments")
                self.take()
                open_.append((val, []))
                symbol = False
                continue
            elif _is_var_name(val) and not symbol:
                t = Var(val)
            else:
                t = self.const(val)
            symbol = False
            while open_:
                name, args = open_[-1]
                args.append(t)
                if self.peek() == ("punct", ","):
                    self.take()
                    break
                kind, close = self.take()
                if close != ")":
                    raise TermSyntaxError(f"expected ')' in {name}(...)")
                open_.pop()
                t = Compound(name, tuple(args))
            else:
                return t


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
    """The concrete syntax of ``t``.  The walk keeps its own stack of
    terms still to render and text still to emit, so a term of any depth
    renders."""
    if type(t) is Const:
        return str(t.name)
    out: list = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is str:
            out.append(x)
        elif kind is Const:
            out.append(str(x.name))
        elif kind is Var:
            out.append(x.id if type(x.id) is str else f"_G{x.id}")
        elif kind is Compound:
            # The opening text is due now; the rest is pushed in reverse.
            if x.functor == "." and len(x.args) == 2:
                out.append("[")
                elems, tail = list_parts(x)
                stack.extend(("]",) if tail == NIL else ("]", tail, "|"))
            else:
                out.append(f"{x.functor}(")
                elems = x.args
                stack.append(")")
            for n in range(len(elems) - 1, 0, -1):
                stack.extend((elems[n], ", "))
            if elems:
                stack.append(elems[0])
        else:
            raise TypeError(f"not a term: {x!r}")
    return "".join(out)
