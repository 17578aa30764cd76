"""The generated steps of the clause programs (``systems.program_source``).

A clause program carries the clause's variables as a tuple of registers,
numbered in the order of their first occurrence, and hands each choice
to a step: a function generated from one pattern (the trigger, a chart
premise or a side condition) that loads the registers it needs into
Python locals, matches one value, ground or not, with one inline path,
and returns the registers extended by the variables it met first, or
None.  The last step of a clause builds its consequent from the
registers as they are and returns it.  Steps read the helpers below as
globals of this module.
"""

from __future__ import annotations

import itertools

from .terms import Compound, Term, Var, _generate, _wrap, bind, principal, resolve, term_vars


class _Step:
    """The source of one step of a clause program.

    ``names`` maps each clause variable that has a register to its
    index; the step gives the variables it introduces the next indices.
    In the step's code each variable is a local, ``v0``, ``v1``, ... in
    the order the step meets them: ``load`` reads the registers it needs
    from the tuple ``r`` by indices that are values, so the source
    depends only on the step's pattern shape and on which of its
    variables it is given.  Wherever a pattern meets a value, ``unify``
    or ``match`` generates the code, one inline path for ground and
    non-ground values (Warren 1983):

    - a variable's first occurrence stores the value, whatever it is,
      in its local; no stored item holds a clause variable, so this
      needs no occurs check;
    - a later occurrence, or a constant, compares by ``is`` or ``==``
      when both sides are ground and through ``bind`` otherwise;
    - a compound checks the value's functor and arity and matches its
      arguments, unless the value is a variable: that is bound to the
      sub-pattern built from the locals, with the compiled ``Var`` for
      each variable not yet assigned, and those locals then hold their
      ``Var``.

    A side condition's answer keeps a fork: a ground one is matched
    inline, a non-ground one bound argument by argument, since a builtin
    may hand back, inside an answer, a clause variable it was passed.
    """

    def __init__(self, names: dict):
        self.names = names
        self.given = len(names)  # the registers in ``r``
        self.values: list = []
        self.body: list = []
        self.local: dict = {}  # clause variable id -> its local in the step
        self.temps = itertools.count()

    def value(self, x) -> str:
        self.values.append(x)
        return f"k{len(self.values) - 1}"

    def held(self, t: Term, fresh=()) -> list:
        """The locals of ``t``'s variables that have one assigned: not
        in ``fresh``."""
        return [self.local[v] for v in term_vars(t) if v in self.local and v not in fresh]

    def load(self, *ts) -> None:
        """Code loading the registers of ``ts``'s variables into locals."""
        for v in dict.fromkeys(v for t in ts if t is not None for v in term_vars(t)):
            if v in self.names:
                self.local[v] = x = f"v{len(self.local)}"
                self.body.append(f"{x} = r[{self.value(self.names[v])}]")

    def name(self, t: Term) -> list:
        """The ids of ``t``'s variables that have no register yet, each
        given one, and a local, now."""
        new = [v for v in term_vars(t) if v not in self.names]
        for v in new:
            self.names[v] = len(self.names)
            self.local[v] = f"v{len(self.local)}"
        return new

    def build(self, t: Term, fresh=()) -> str:
        """An expression for ``t`` over the locals: a variable with a
        local assigned is that local, any other its compiled ``Var``."""
        if not self.held(t, fresh):
            return self.value(t)
        if type(t) is Var:
            return self.local[t.id]
        args = "".join(self.build(a, fresh) + ", " for a in t.args)
        return f"Compound({self.value(t.functor)}, ({args}))"

    def match(self, p: Term, t: str, pad: str, fresh: set, ground=False) -> None:
        """Inline code matching ``p`` against the value in ``t``, which
        is known to be ground when ``ground``; a variable in ``fresh`` is
        stored at its first occurrence."""
        if p.ground:
            k = self.value(p)
            test = f"{t} != {k}" if ground else (
                f"({t} != {k} if {t}.ground else not bind({k}, {t}, env, trail))")
            self.body.append(f"{pad}if {t} is not {k} and {test}: return")
        elif type(p) is Var:
            v = self.local[p.id]
            if p.id in fresh:
                fresh.discard(p.id)
                self.body.append(f"{pad}{v} = {t}")
            else:
                both = f"{v}.ground" if ground else f"{v}.ground and {t}.ground"
                self.body.append(f"{pad}if {t} is not {v} and ({t} != {v} if {both}"
                                 f" else not bind({v}, {t}, env, trail)): return")
        else:
            shape = f"{t}.functor != {self.value(p.functor)} or len({t}.args) != {len(p.args)}"
            if ground:
                self.body.append(f"{pad}if type({t}) is not Compound or {shape}: return")
            else:
                new = [v for v in term_vars(p) if v in fresh]
                self.body += [
                    f"{pad}if type({t}) is not Compound:",
                    f"{pad}    if type({t}) is not Var"
                    f" or not bind({self.build(p, fresh)}, {t}, env, trail): return",
                    *(f"{pad}    {self.local[v]} = {self.value(Var(v))}" for v in new),
                    f"{pad}elif {shape}: return",
                    f"{pad}else:",
                ]
                pad += "    "
            self.args(p, t, pad, fresh, ground)

    def args(self, p: Compound, t: str, pad: str, fresh: set, ground: bool) -> None:
        """Code matching the arguments of ``p`` against those of the
        compound in ``t``, which has ``p``'s functor and arity."""
        subs = []
        for a in p.args:
            if type(a) is Var and a.id in fresh:
                fresh.discard(a.id)
                subs.append((None, self.local[a.id]))
            else:
                subs.append((a, f"g{next(self.temps)}"))
        self.body.append(f"{pad}{''.join(s + ', ' for _, s in subs)}= {t}.args")
        for a, s in subs:
            if a is not None:
                self.match(a, s, pad, fresh, ground)

    def unify(self, p: Term, t: str, answer: bool) -> None:
        """Code making the value in ``t`` equal ``p``.  An ``answer`` to
        a condition with variables has ``p``'s functor and arity
        already; a ground one is matched inline, and a non-ground one is
        bound argument by argument, skipping an argument that is the very
        object the pattern's is: a builtin passes its arguments through."""
        if not answer or p.ground:
            self.match(p, t, "", set(self.name(p)))
            return
        built = [self.build(a) for a in p.args]
        fresh = self.name(p)
        self.body.append(f"if {t}.ground:")
        self.args(p, t, "    ", set(fresh), True)
        gs = [f"g{next(self.temps)}" for _ in p.args]
        self.body += ["else:", f"    {''.join(g + ', ' for g in gs)}= {t}.args"]
        for b, g in zip(built, gs):
            # ``b`` names the pattern's own value, unless it builds one.
            own = "" if b.startswith("Compound(") else f"{g} is not {b} and "
            self.body.append(f"    if {own}not bind({b}, {g}, env, trail): return")
        self.body += [f"    {self.local[v]} = {self.value(Var(v))}" for v in fresh]

    def expr(self, t: Term) -> str:
        """An expression for the consequent's subterm ``t``, built from
        the locals as they are, a compound through ``table``."""
        if t.ground:
            return self.value(t)
        if type(t) is Var:
            return self.local[t.id]
        subs = [self.expr(a) for a in t.args]
        f, y = self.value(t.functor), f"y{next(self.temps)}"
        self.body += [
            f"key = ({f}, {''.join(f'id({s}), ' for s in subs)})",
            f"{y} = table.get(key)",
            f"if {y} is None:",
            f"    {y} = Compound({f}, ({''.join(s + ', ' for s in subs)}))",
            f"    if {y}.ground: table[key] = {y}",
        ]
        return y

    def finish(self, params: list, consequent: "Term | None") -> tuple:
        """(source, values) of the step, returning the registers
        extended by its new variables, or the built ``consequent``."""
        if consequent is not None:
            self.body.append(f"return {self.expr(consequent)}")
        else:
            new = "".join(self.local[v] + ", " for v in list(self.names)[self.given:])
            self.body.append(f"return r + ({new})" if self.given else f"return ({new})")
        return _wrap("step", params, self.body, self.values), self.values


def match_step(pattern: Term, names: dict, consequent: "Term | None" = None, answer=False):
    """``step(t, r, env, trail, table)``: the trigger, a candidate or,
    when ``answer``, a side condition's answer ``t`` matched against
    ``pattern``; with a ``consequent``, the last step, which returns it
    built."""
    s = _Step(names)
    s.load(pattern, consequent)
    s.unify(pattern, "t", answer)
    return _generate(*s.finish(["t", "r", "env", "trail", "table"], consequent), scope=globals())


def key_step(pattern: Term, mode: tuple, names: dict):
    """``key(r, env)``: the lookup key of ``pattern`` under ``mode``, or
    None when a variable at one of its paths has no value yet."""
    s = _Step(names)
    parts, known = [], []
    for path in mode[1]:
        sub = pattern
        for step in path:
            sub = sub.args[step]
        if type(sub) is Var:
            x = f"s{len(known)}"
            s.body += [
                f"{x} = r[{s.value(names[sub.id])}]",
                f"while type({x}) is Var: {x} = env.get({x}.id)",
            ]
            known.append(f"{x} is not None")
            parts.append(f"principal({x})")
        else:
            parts.append(s.value(principal(sub)))
    key = f"({''.join(x + ', ' for x in parts)})"
    if known:
        key += f" if {' and '.join(known)} else None"
    s.body.append(f"return {key}")
    return _generate(_wrap("key", ["r", "env"], s.body, s.values), s.values, scope=globals())


def args_step(args: tuple, names: dict):
    """``arguments(r, env)``: a side condition's arguments, built from
    the registers and resolved when one is not ground."""
    s = _Step(names)
    s.load(*args)
    passed = []
    for n, a in enumerate(args):
        locals_ = s.held(a)
        if not locals_:
            passed.append(s.value(a))
            continue
        x = f"a{n}"
        s.body += [
            f"{x} = {s.build(a)}",
            f"if not ({' and '.join(v + '.ground' for v in locals_)}): {x} = resolve({x}, env)",
        ]
        passed.append(x)
    s.body.append(f"return ({''.join(x + ', ' for x in passed)})")
    return _generate(_wrap("arguments", ["r", "env"], s.body, s.values), s.values, scope=globals())

