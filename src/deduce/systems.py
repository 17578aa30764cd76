"""Deduction systems: inference-rule schemata over items.

A system is its rules.  Each rule is written once, as one list of
premises (antecedent patterns and side conditions) and a consequent.  A
rule with no antecedent is an axiom rule, a deduction step with no item
antecedents (Sikkel 1997), and so is the goal rule.  A k-antecedent
rule compiles into k clauses, one per choice of trigger antecedent;
each clause evaluates the other premises in the written order, the
remaining antecedents as chart lookups.  Side conditions are names
resolved through a registry of pure evaluators over the grammar and the
input string, each answering with instances of the condition, most of
them rows of the input's and the grammar's fact tables.  A mode analysis
of each clause gives the lookup mode of each chart premise, which the
item store indexes.  On first use each clause generates one program
(``program_source``): its trigger step, which alone decides whether a
popped item fires the clause, then its premises as nested loops, each
choice matched by a generated step and the consequent built by the last
one.

Items are plain terms.  The encodings:

    td(Beta, J)                  top-down: symbols still to derive
    bu(AlphaRev, J)              bottom-up: the stack, top first
    er(I, Lhs, BeforeRev, After, J)   dotted production with origin
    cyk(A, I, J)                 nonterminal over a span
    cc(Cat, I, J)                category over a span
    tg(node(T, AddrRev), Dot, I, J, K, L)   dotted tree node; J, K are
        the foot span, "_" when unused
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .grammar import (
    EPSILON,
    BACKWARD,
    CcgLexicon,
    CfGrammar,
    FORWARD,
    InputString,
    SideConditionError,
    TagGrammar,
    validate_cnf,
)
from .steps import args_step, key_step, match_step
from .store import INITIAL, History
from .terms import (
    Compound,
    Const,
    NIL,
    Term,
    Var,
    VarSource,
    _generate,
    _wrap,
    abstract_depth,
    cons,
    list_parts,
    mklist,
    principal,
    render_term,
    rename_with,
    space_source,
    term_vars,
    unify,
    unlist,
)


class SystemAuthoringError(Exception):
    """A rule is malformed (e.g. unbound consequent variables)."""


class UnknownBuiltinError(LookupError):
    """A side condition names no registered evaluator."""


# ---- premise language ----

@dataclass(frozen=True)
class ItemPremise:
    """A non-trigger antecedent, matched against the chart."""

    pattern: Term
    slot: int  # position in the rule's antecedent list


@dataclass(frozen=True)
class SideCondition:
    builtin: str
    args: tuple


@dataclass(frozen=True)
class RuleClause:
    """One rule compiled for one trigger position, or the one clause of
    a rule with no antecedent, whose ``trigger`` and ``trigger_slot``
    are None.

    ``premises`` are evaluated strictly left to right; every consequent
    variable must be bound by the trigger or some premise, or
    construction raises ``SystemAuthoringError``, unless the rule has
    no premise at all: it states its one consequent, variables and all.

    ``compiled`` is the clause's (trigger, premises, consequent), renamed
    once, at construction, into the reserved "clause" variable space.
    The oracles' premise walker binds into it in place instead of
    copying the clause per firing, and the clause program binds its
    variables where they escape into a term's binding: each run holds
    one instance of it at a time, in its own environment, and no item
    or grammar term carries a clause-space variable.

    ``program()`` generates, on first use, the code that fires the
    clause (``program_source``).  The engine offers every popped item to
    every clause; the program's trigger step turns away the items it
    cannot fire on.
    """

    rule_name: str
    n_antecedents: int
    trigger_slot: "int | None"
    trigger: "Term | None"
    premises: tuple
    consequent: Term
    # Derived in __post_init__.
    modes: tuple = field(init=False, repr=False, compare=False)
    compiled: tuple = field(init=False, repr=False, compare=False)
    _program: "Callable | None" = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        """Mode analysis, left to right.  ``modes`` holds, per premise,
        the chart lookup it makes: the pattern's principal symbol and the
        argument paths whose symbol is known when it runs (constants,
        compounds, and variables of the trigger or of an earlier premise),
        or None for a side condition or a bare-variable pattern.  At the
        end of the walk every consequent variable must be bound."""
        bound = set() if self.trigger is None else set(term_vars(self.trigger))
        modes = []
        for p in self.premises:
            if isinstance(p, SideCondition):
                modes.append(None)
                for a in p.args:
                    bound.update(term_vars(a))
            else:
                symbol = principal(p.pattern)
                paths = tuple(_known_paths(p.pattern, bound))
                modes.append(None if symbol is None else (symbol, paths))
                bound.update(term_vars(p.pattern))
        free = [v for v in term_vars(self.consequent) if v not in bound]
        if free and (self.premises or self.trigger is not None):
            raise SystemAuthoringError(
                f"rule {self.rule_name}: consequent variables {free} are never bound"
            )
        object.__setattr__(self, "modes", tuple(modes))
        object.__setattr__(self, "compiled", self.instantiate(space_source("clause")))

    def program(self):
        """The clause's generated program, made on the first call:
        ``program(t0, index, enqueue, fetch, source, ctx, table)`` calls
        ``enqueue(consequent, History(rule name, antecedent indices))``
        for each firing that the stored item ``t0`` itself, at
        ``index``, triggers, as the firing is made, and ignores what it
        returns: the engine passes the item store's ``enqueue`` (or a
        tracing wrapper of it), ``consequences`` a collecting callable.
        ``fetch`` and ``table`` are the store's ``fetch`` and intern
        table (``ItemStore.interned``); ``source`` and ``ctx`` are the
        parse's fresh variables and side-condition context."""
        program = self._program
        if program is None:
            program = _generate(*program_source(self), scope=globals())
            object.__setattr__(self, "_program", program)
        return program

    def instantiate(self, source: VarSource):
        """Fresh-variable copy: (trigger, premises, consequent)."""
        mapping: dict = {}
        trigger = None if self.trigger is None else rename_with(self.trigger, mapping, source)
        premises = []
        for p in self.premises:
            if isinstance(p, SideCondition):
                premises.append(
                    SideCondition(p.builtin, tuple(rename_with(a, mapping, source) for a in p.args))
                )
            else:
                premises.append(ItemPremise(rename_with(p.pattern, mapping, source), p.slot))
        consequent = rename_with(self.consequent, mapping, source)
        return trigger, tuple(premises), consequent


def _known_paths(t: Term, bound: set, path: tuple = ()) -> list:
    """The paths below ``t``, in preorder, of every subterm whose
    principal symbol is fixed once the variables in ``bound`` are:
    constants, compounds and bound variables.  Paths below a variable
    are not followed."""
    out = []
    if isinstance(t, Compound):
        for k, a in enumerate(t.args):
            if not isinstance(a, Var) or a.id in bound:
                sub = path + (k,)
                out.append(sub)
                out.extend(_known_paths(a, bound, sub))
    return out


def program_source(clause: RuleClause) -> tuple:
    """(source, values) of ``clause.program()``.

    The variables of ``clause.compiled`` are numbered in the order of
    their first occurrence, and the program carries their values as a
    tuple of registers, as a compiled Prolog clause keeps its variables
    in registers (Warren 1983).  A register holds the variable's value
    when that is ground, and otherwise the compiled ``Var`` itself,
    whose binding, if any, is in ``env``.  So ``env`` and its trail hold
    only bindings of term variables: of non-ground items and answers,
    and of clause variables that escape into such a binding.  A ground
    parse never writes ``env``.

    The trigger, the candidates and the answers are bound in place, not
    copied (structure sharing; Boyer & Moore 1972), on the invariant
    that no two terms bound in one firing share a variable unless they
    are the same term.  Each stored item holds only the variables of its
    own consequent rename (``parse`` renames a non-ground axiom once),
    a fact table renames its rows apart once (``FactTable``), and the
    reduction trie a non-ground row for each answer, whose stack shares
    with the one it was asked about only that stack's own sub-term
    (``ReductionTrie``).  A term the firing has bound already is
    copied: ``fetch`` renames a candidate whose index is the trigger's
    or an earlier antecedent's, and an answer that is an earlier answer
    of the firing is renamed before it is matched.

    The program is the clause's skeleton: the trigger step, then one
    nested loop per premise in the written order, each choice handed to
    a step generated from the premise (``deduce.steps.match_step``),
    which matches it and returns the registers extended, or None.  The
    last step builds the consequent instead, so a firing costs one call.

    - A chart lookup takes its key from a key step and hands it to
      ``fetch`` (``ItemStore.fetch``) with the indices of the
      antecedents bound so far.
    - A side condition ``p(Args)`` takes its arguments from an argument
      step and calls its builtin, looked up in ``REGISTRY`` at each
      call, through ``builtin_answers``.  Each answer is an instance of
      ``p(Args)``, matched against it as a candidate is matched against
      its pattern.

    Each loop undoes the trail to its own mark before each choice, so a
    failed binding just moves on to the next.  The last step builds the
    consequent through ``table``, the store's intern table, which the
    program gets as an argument and never keeps: a compound node holding
    a variable is looked up under ``(functor, id(arg), ...)``, so one
    built from the same argument objects is the object built first, and
    a new ground one is stored there.  A duplicate consequent is thus
    the stored item itself.  The program renames the consequent from
    ``source`` when it is not ground, so no stored item keeps a clause
    variable.  It then hands the consequent and its ``History`` to
    ``enqueue`` at once; the history is built by ``tuple.__new__``, so
    no Python code runs for it.

    The source depends only on the kinds of the premises and the slots
    of the antecedents: every step, constant, rule name and mode is a
    value, and the helpers are globals of this module, looked up at each
    call.  A step's source depends only on its pattern's shape and on
    which of its variables it is given, so steps share code too.
    """
    trigger, premises, consequent = clause.compiled
    names: dict = {}  # clause variable id -> its register
    values: list = []

    def value(x) -> str:
        values.append(x)
        return f"k{len(values) - 1}"

    def result(k: int) -> tuple:
        """The last step's result is the consequent ``out``."""
        return ("out", consequent) if k == len(premises) else (f"r{k}", None)

    got, final = result(0)
    body = [
        "env = {}",
        "trail = []",
        f"{got} = {value(match_step(trigger, names, final))}(t0, (), env, trail, table)",
        f"if {got} is None: return",
    ]
    slots = {clause.trigger_slot: "index"}
    pad = ""
    for k, (p, mode) in enumerate(zip(premises, clause.modes), 1):
        got, final = result(k)
        answer = isinstance(p, SideCondition)
        if answer:
            pattern = Compound(p.builtin, p.args)
            args = f"{value(args_step(p.args, names))}(r{k - 1}, env)"
            choices = f"t{k} in builtin_answers({value(p.builtin)}, {args}, ctx)"
        else:
            pattern = p.pattern
            key = ("None" if mode is None
                   else f"{value(key_step(pattern, mode, names))}(r{k - 1}, env)")
            bound = "".join(x + ", " for x in slots.values())
            choices = f"i{k}, t{k} in fetch({value(mode)}, {key}, source, ({bound}))"
            slots[p.slot] = f"i{k}"
        body += [
            f"{pad}m{k} = len(trail)",
            f"{pad}for {choices}:",
            f"{pad}    while len(trail) > m{k}: del env[trail.pop()]",
        ]
        # An answer that an earlier side condition got is copied.
        earlier = [f"t{k} is t{j}" for j, q in enumerate(premises[:k - 1], 1)
                   if answer and isinstance(q, SideCondition)]
        if earlier:
            body.append(f"{pad}    if {' or '.join(earlier)}:"
                        f" t{k} = rename_with(t{k}, {{}}, source)")
        body += [
            f"{pad}    {got} = {value(match_step(pattern, names, final, answer))}"
            f"(t{k}, r{k - 1}, env, trail, table)",
            f"{pad}    if {got} is None: continue",
        ]
        pad += "    "
    antecedents = "".join(slots[s] + ", " for s in range(clause.n_antecedents))
    body += [
        f"{pad}if not out.ground: out = rename_with(out, {{}}, source)",
        f"{pad}enqueue(out, {value(tuple.__new__)}({value(History)},"
        f" ({value(clause.rule_name)}, ({antecedents}))))",
    ]
    params = ["t0", "index", "enqueue", "fetch", "source", "ctx", "table"]
    return _wrap("program", params, body, values), values


@dataclass(frozen=True)
class Rule:
    """One inference rule as written.

    ``premises`` lists the antecedent patterns (plain terms) and the
    side conditions (``SideCondition``) in one order.  The rule compiles
    into ``clauses``, one per antecedent in slot order: the clause for
    antecedent k triggers on it and evaluates the other premises in the
    written order, each remaining antecedent as a chart lookup of its
    slot.  A rule with no antecedent compiles into one clause with no
    trigger, which the engine fires through its interpreted walker
    (``engine.fire``), not through a generated program.
    """

    name: str
    premises: tuple
    consequent: Term
    clauses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        written, antecedents = [], []
        for p in self.premises:
            if not isinstance(p, SideCondition):
                p = ItemPremise(p, len(antecedents))
                antecedents.append(p)
            written.append(p)
        clauses = tuple(
            RuleClause(
                self.name, len(antecedents), a.slot, a.pattern,
                tuple(p for p in written if p is not a), self.consequent,
            )
            for a in antecedents
        ) or (RuleClause(self.name, 0, None, None, tuple(written), self.consequent),)
        object.__setattr__(self, "clauses", clauses)


@dataclass(frozen=True)
class DeductionSystem:
    """A named set of rule schemata.

    ``rules`` holds the axiom rules, those with no antecedent, and the
    inference rules.  The consequents of ``goal``, a rule with no
    antecedent either, are the goal items; with None, there are none.
    ``check_grammar`` runs before parsing and raises on a grammar the
    system cannot interpret.  Rule names are unique and differ from
    ``INITIAL``, since a justification names its rule and an axiom's
    names ``INITIAL``.  ``axiom_rules`` lists the axiom rules, and
    ``clauses`` the compiled clauses of the others, in rule order;
    ``modes`` collects their lookup modes, in clause order: the store
    keeps one index per mode.
    """

    name: str
    grammar_class: type
    rules: tuple
    goal: "Rule | None" = None
    check_grammar: "Callable | None" = None
    axiom_rules: tuple = field(init=False, repr=False, compare=False)
    clauses: tuple = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [INITIAL] + [r.name for r in self.rules]
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            raise SystemAuthoringError(
                f"system {self.name}: rule names used twice (axioms use {INITIAL!r}): {twice}"
            )
        if self.goal is not None and self.goal.clauses[0].trigger is not None:
            raise SystemAuthoringError(f"system {self.name}: the goal rule has an antecedent")
        clauses = tuple(c for r in self.rules for c in r.clauses if c.trigger is not None)
        modes = (m for c in clauses for m in c.modes if m is not None)
        object.__setattr__(self, "axiom_rules",
                           tuple(r for r in self.rules if r.clauses[0].trigger is None))
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "modes", tuple(dict.fromkeys(modes)))


# ---- side-condition registry ----

@dataclass
class EvalContext:
    grammar: object
    input: InputString
    source: VarSource


def builtin_answers(builtin: str, args: tuple, ctx) -> list:
    """Every answer of the side condition ``builtin`` on ``args``, each
    checked to be a term ``builtin(...)`` of one argument per argument."""
    fn = REGISTRY.get(builtin)
    if fn is None:
        raise UnknownBuiltinError(builtin)
    answers = list(fn(args, ctx))
    for answer in answers:
        if (type(answer) is not Compound or answer.functor != builtin
                or len(answer.args) != len(args)):
            raise SideConditionError(
                f"{builtin} answered {answer!r}, not a {builtin}/{len(args)} term")
    return answers


def _int_of(t: Term):
    if isinstance(t, Const) and isinstance(t.name, int):
        return t.name
    return None


def _eval_succ(args, ctx):
    a, b = args
    i, j = _int_of(a), _int_of(b)
    if i is not None:
        yield Compound("succ", (a, Const(i + 1)))
    elif j is not None:
        if j >= 1:
            yield Compound("succ", (Const(j - 1), b))
    else:
        raise SideConditionError("succ needs one bound integer")


BOTTOM = Const("_")


def _eval_index_union(args, ctx):
    a, b, _out = args
    if isinstance(a, Var) or isinstance(b, Var):
        raise SideConditionError("index_union needs bound first arguments")
    if a == BOTTOM:
        merged = b
    elif b == BOTTOM or a == b:
        merged = a
    else:
        return  # both defined and different: undefined, the clause fails
    yield Compound("index_union", (a, b, merged))


def _decode_node(t: Term):
    """node(Tree, AddrRev) -> (tree name, address tuple), or None."""
    if not (isinstance(t, Compound) and t.functor == "node" and len(t.args) == 2):
        return None
    tree, addr_rev = t.args
    if not isinstance(tree, Const):
        return None
    elems = unlist(addr_rev)
    if elems is None:
        return None
    steps = []
    for e in elems:
        k = _int_of(e)
        if k is None:
            return None
        steps.append(k)
    return tree.name, tuple(reversed(steps))


def _eval_append(args, ctx):
    xs, ys, _zs = args
    elems = unlist(xs)
    if elems is None:
        raise SideConditionError("append needs a proper list first argument")
    yield Compound("append", (xs, ys, mklist(elems, tail=ys)))


def _eval_leq(args, ctx):
    i, j = map(_int_of, args)
    if i is None or j is None:
        raise SideConditionError("leq needs two bound integers")
    if i <= j:
        yield Compound("leq", args)


def _eval_restrict(args, ctx):
    """``restrict(T, D, R)``: ``R`` is ``T`` with every subterm at depth
    ``D`` or deeper replaced by a fresh variable (``abstract_depth``), so
    that ``R`` subsumes ``T`` (Shieber 1985)."""
    t, d, _r = args
    depth = _int_of(d)
    if depth is None:
        raise SideConditionError("restrict needs a bound integer depth")
    yield Compound("restrict", (t, d, abstract_depth(t, depth, ctx.source)))


def _relation(name: str, args, ctx):
    """The answers of the relation ``name`` from the table of the input
    string or else of the grammar (``FactTable``, ``ReductionTrie``),
    each of which builds its tables once."""
    table = ctx.input.relations.get(name)
    if table is None:
        try:
            table = ctx.grammar.relations[name]
        except (AttributeError, KeyError):
            raise SideConditionError(
                f"neither the input nor the grammar has a {name} relation") from None
    return table.answers(args)


REGISTRY: dict = {
    "succ": _eval_succ,
    "index_union": _eval_index_union,
    "append": _eval_append,
    "leq": _eval_leq,
    "restrict": _eval_restrict,
    **{
        name: partial(_relation, name)
        for name in ("word", "length", "position", "production", "reduction", "lex", "is_start",
                     "initial_root", "adjoinable", "leaf", "foot_of", "child_undefined")
    },
}


def register_builtin(name: str, evaluator):
    """Register ``evaluator(args, ctx)`` as the side condition ``name``.

    It gets the condition's arguments, resolved, as a tuple of terms and
    yields candidate answers: instances ``name(Arg, ...)`` of the
    condition, with as many arguments.  The caller unifies each answer
    with the condition and keeps the ones that unify, so an evaluator
    need not filter its candidates.  Fresh variables come from
    ``ctx.source``."""
    REGISTRY[name] = evaluator


def eval_side_condition(builtin: str, args, grammar, input_string, source=None):
    """Evaluate one side condition to a list of substitutions, one per
    answer of the builtin that unifies with the condition
    ``builtin(args)``: their most general unifier, binding the variables
    of ``args``."""
    ctx = EvalContext(grammar, input_string, source or space_source("side_conditions"))
    condition = Compound(builtin, tuple(args))
    answers = builtin_answers(builtin, condition.args, ctx)
    unifiers = (unify(condition, answer) for answer in answers)
    return [s for s in unifiers if s is not None]


# ---- the six systems ----

def _v(name: str) -> Var:
    return Var(name)


# The premises of most axiom and goal rules: S is a start symbol and N
# the length of the string.
_S, _N = _v("S"), _v("N")
IS_START = SideCondition("is_start", (_S,))
LENGTH = SideCondition("length", (_N,))


def _td(beta: Term, j: Term) -> Compound:
    return Compound("td", (beta, j))


def make_topdown() -> DeductionSystem:
    beta, j, j1, a, g, d = _v("Beta"), _v("J"), _v("J1"), _v("A"), _v("G"), _v("D")
    scan = Rule("scan", [_td(cons(a, beta), j), SideCondition("word", (j, j1, a))], _td(beta, j1))
    predict = Rule(
        "predict",
        [
            _td(cons(a, beta), j),
            SideCondition("production", (a, g)),
            SideCondition("append", (g, beta, d)),
        ],
        _td(d, j),
    )
    return DeductionSystem(
        name="topdown",
        grammar_class=CfGrammar,
        rules=(Rule("axiom", [IS_START], _td(mklist([_S]), Const(0))), scan, predict),
        goal=Rule("goal", [LENGTH], _td(NIL, _N)),
    )


def _bu(alpha: Term, j: Term) -> Compound:
    return Compound("bu", (alpha, j))


def make_bottomup() -> DeductionSystem:
    alpha, j, j1, w_, b, rest = _v("Alpha"), _v("J"), _v("J1"), _v("W"), _v("B"), _v("Rest")
    shift = Rule("shift", [_bu(alpha, j), SideCondition("word", (j, j1, w_))],
                 _bu(cons(w_, alpha), j1))
    reduce_ = Rule("reduce", [_bu(alpha, j), SideCondition("reduction", (alpha, b, rest))],
                   _bu(cons(b, rest), j))
    return DeductionSystem(
        name="bottomup",
        grammar_class=CfGrammar,
        rules=(Rule("axiom", [], _bu(NIL, Const(0))), shift, reduce_),
        goal=Rule("goal", [IS_START, LENGTH], _bu(mklist([_S]), _N)),
    )


START_WRAPPER = Const("S'")


def _er(i, lhs, before, after, j) -> Compound:
    return Compound("er", (i, lhs, before, after, j))


def make_earley(restriction_depth: "int | None" = None) -> DeductionSystem:
    """Earley's algorithm.  With a ``restriction_depth``, prediction
    restricts the predicted symbol to that term depth before it chooses
    a production for it (Shieber 1985)."""
    i, j, j1, k = _v("I"), _v("J"), _v("J1"), _v("K")
    a, b, g = _v("A"), _v("B"), _v("G")
    bef, aft, bef2 = _v("Bef"), _v("Aft"), _v("Bef2")
    w_ = _v("W")

    scan = Rule(
        "scan",
        [_er(i, a, bef, cons(w_, aft), j), SideCondition("word", (j, j1, w_))],
        _er(i, a, cons(w_, bef), aft, j1),
    )
    predicted, restrict = b, []
    if restriction_depth is not None:
        predicted = _v("RB")
        restrict = [SideCondition("restrict", (b, Const(restriction_depth), predicted))]
    predict = Rule(
        "predict",
        [_er(i, a, bef, cons(b, aft), j), *restrict, SideCondition("production", (predicted, g))],
        _er(j, predicted, NIL, g, j),
    )
    complete = Rule(
        "complete",
        [_er(i, a, bef, cons(b, aft), k), _er(k, b, bef2, NIL, j)],
        _er(i, a, cons(b, bef), aft, j),
    )
    zero = Const(0)
    return DeductionSystem(
        name="earley",
        grammar_class=CfGrammar,
        rules=(Rule("axiom", [IS_START], _er(zero, START_WRAPPER, NIL, mklist([_S]), zero)),
               scan, predict, complete),
        goal=Rule("goal", [IS_START, LENGTH], _er(zero, START_WRAPPER, mklist([_S]), NIL, _N)),
    )


def _cyk(a, i, j) -> Compound:
    return Compound("cyk", (a, i, j))


def make_cyk() -> DeductionSystem:
    a, b, c, w_ = _v("A"), _v("B"), _v("C"), _v("W")
    i, j, k = _v("I"), _v("J"), _v("K")
    lexical = Rule("axiom", [SideCondition("lex", (w_, a)), SideCondition("word", (i, j, w_))],
                   _cyk(a, i, j))
    binary = Rule(
        "binary",
        [SideCondition("production", (a, mklist([b, c]))), _cyk(b, i, j), _cyk(c, j, k)],
        _cyk(a, i, k),
    )

    def check(grammar: CfGrammar):
        report = validate_cnf(grammar)
        if report:
            raise GrammarNotCnf(report)

    return DeductionSystem(
        name="cyk",
        grammar_class=CfGrammar,
        rules=(lexical, binary),
        goal=Rule("goal", [IS_START, LENGTH], _cyk(_S, Const(0), _N)),
        check_grammar=check,
    )


class GrammarNotCnf(ValueError):
    """Raised before a CYK parse of a grammar outside Chomsky normal form."""

    def __init__(self, report):
        self.report = tuple(report)
        super().__init__(
            "grammar is not in Chomsky normal form:\n" + "\n".join(report)
        )


def _cc(cat, i, j) -> Compound:
    return Compound("cc", (cat, i, j))


def make_ccg() -> DeductionSystem:
    i, j, k = _v("I"), _v("J"), _v("K")
    x, y, z, w_ = _v("X"), _v("Y"), _v("Z"), _v("W")

    def fw(res, arg):
        return Compound(FORWARD, (res, arg))

    def bw(res, arg):
        return Compound(BACKWARD, (res, arg))

    lexical = Rule("axiom", [SideCondition("lex", (w_, x)), SideCondition("word", (i, j, w_))],
                   _cc(x, i, j))
    rules = tuple(
        Rule(name, [_cc(left, i, j), _cc(right, j, k)], _cc(out, i, k))
        for name, left, right, out in (
            ("forward_apply", fw(x, y), y, x),
            ("backward_apply", y, bw(x, y), x),
            ("forward_compose1", fw(x, y), fw(y, z), fw(x, z)),
            ("forward_compose2", fw(x, y), bw(y, z), bw(x, z)),
            ("backward_compose1", fw(y, z), bw(x, y), fw(x, z)),
            ("backward_compose2", bw(y, z), bw(x, y), bw(x, z)),
        )
    )
    return DeductionSystem(
        name="ccg",
        grammar_class=CcgLexicon,
        rules=(lexical, *rules),
        goal=Rule("goal", [IS_START, LENGTH], _cc(_S, Const(0), _N)),
    )


ABOVE = Const("above")
BELOW = Const("below")

FOOT_MODES = ("foot_axiom", "complete_foot")


def _tg(node, dot, i, j, k, l) -> Compound:
    return Compound("tg", (node, dot, i, j, k, l))


def make_tag(foot_mode: str = "complete_foot") -> DeductionSystem:
    if foot_mode not in FOOT_MODES:
        raise ValueError(f"foot_mode must be one of {FOOT_MODES}")
    t, p = _v("T"), _v("P")
    n, b, f, w_ = _v("N"), _v("B"), _v("F"), _v("W")
    i, j, k, l, m, q = _v("I"), _v("J"), _v("K"), _v("L"), _v("M"), _v("Q")
    j2, k2, ju, ku = _v("J2"), _v("K2"), _v("JU"), _v("KU")

    # An empty leaf spans every empty stretch of the string, a word leaf
    # each occurrence of its word.
    rules = [
        Rule("empty_leaf",
             [SideCondition("leaf", (n, Const(EPSILON))), SideCondition("position", (i,))],
             _tg(n, ABOVE, i, BOTTOM, BOTTOM, i)),
        Rule("word_leaf", [SideCondition("leaf", (n, w_)), SideCondition("word", (i, j, w_))],
             _tg(n, ABOVE, i, BOTTOM, BOTTOM, j)),
    ]
    if foot_mode == "foot_axiom":
        rules.append(Rule(
            "foot_axiom",
            [SideCondition("foot_of", (b, f)), SideCondition("position", (p,)),
             SideCondition("position", (q,)), SideCondition("leq", (p, q))],
            _tg(f, BELOW, p, p, q, q),
        ))
    complete_unary = Rule(
        "complete_unary",
        [
            _tg(Compound("node", (t, cons(Const(1), p))), ABOVE, i, j, k, l),
            SideCondition("child_undefined", (Compound("node", (t, cons(Const(2), p))),)),
        ],
        _tg(Compound("node", (t, p)), BELOW, i, j, k, l),
    )
    complete_binary = Rule(
        "complete_binary",
        [
            _tg(Compound("node", (t, cons(Const(1), p))), ABOVE, i, j, k, l),
            _tg(Compound("node", (t, cons(Const(2), p))), ABOVE, l, j2, k2, m),
            SideCondition("index_union", (j, j2, ju)),
            SideCondition("index_union", (k, k2, ku)),
        ],
        _tg(Compound("node", (t, p)), BELOW, i, ju, ku, m),
    )
    no_adjoin = Rule("no_adjoin", [_tg(n, BELOW, i, j, k, l)], _tg(n, ABOVE, i, j, k, l))
    adjoin = Rule(
        "adjoin",
        [
            SideCondition("adjoinable", (n, b)),
            _tg(Compound("node", (b, NIL)), ABOVE, i, p, q, l),
            _tg(n, BELOW, p, j, k, q),
        ],
        _tg(n, ABOVE, i, j, k, l),
    )
    rules += [complete_unary, complete_binary, no_adjoin, adjoin]
    if foot_mode == "complete_foot":
        rules.append(
            Rule(
                "complete_foot",
                [
                    _tg(n, BELOW, p, j, k, q),
                    SideCondition("adjoinable", (n, b)),
                    SideCondition("foot_of", (b, f)),
                ],
                _tg(f, BELOW, p, p, q, q),
            )
        )
    goal = Rule(
        "goal",
        [IS_START, SideCondition("initial_root", (t, _S)), LENGTH],
        _tg(t, ABOVE, Const(0), BOTTOM, BOTTOM, _N),
    )
    return DeductionSystem(name="tag", grammar_class=TagGrammar, rules=tuple(rules), goal=goal)


_BUILDERS = {
    "topdown": make_topdown,
    "bottomup": make_bottomup,
    "earley": make_earley,
    "cyk": make_cyk,
    "ccg": make_ccg,
    "tag": make_tag,
}

SYSTEM_NAMES = tuple(_BUILDERS)


_SYSTEMS: dict = {}


def system_for(name: str, **kwargs) -> DeductionSystem:
    """The system of a CLI name; kwargs reach the builder.  A system is
    frozen, so one built for the same arguments, with the programs its
    clauses have generated, is shared; an argument left out counts as
    its default, so ``system_for("tag")`` and ``system_for("tag",
    foot_mode="complete_foot")`` are one system."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown system {name!r}")
    call = inspect.signature(_BUILDERS[name]).bind(**kwargs)
    call.apply_defaults()
    key = (name, tuple(sorted(call.arguments.items())))
    system = _SYSTEMS.get(key)
    if system is None:
        system = _SYSTEMS[key] = _BUILDERS[name](**kwargs)
    return system


# ---- canonical item rendering ----

def _render_sym_seq(t: Term) -> str:
    elems, tail = list_parts(t)
    parts = [render_term(e) for e in elems]
    if tail != NIL:
        parts.append(f"|{render_term(tail)}")
    return " ".join(parts)


def _render_topdown(item: Term) -> str:
    beta, j = item.args
    seq = _render_sym_seq(beta)
    middle = f". {seq}" if seq else "."
    return f"[{middle}, {render_term(j)}]"


def _render_bottomup(item: Term) -> str:
    alpha, j = item.args
    elems, tail = list_parts(alpha)
    parts = [render_term(e) for e in reversed(elems)]
    if tail != NIL:
        parts.insert(0, f"{render_term(tail)}|")
    seq = " ".join(parts)
    middle = f"{seq} ." if seq else "."
    return f"[{middle}, {render_term(j)}]"


def _render_earley(item: Term) -> str:
    i, lhs, before, after, j = item.args
    bef_elems, bef_tail = list_parts(before)
    alpha = [render_term(e) for e in reversed(bef_elems)]
    if bef_tail != NIL:
        alpha.insert(0, f"{render_term(bef_tail)}|")
    beta = _render_sym_seq(after)
    left = " " + " ".join(alpha) if alpha else ""
    right = " " + beta if beta else ""
    return f"[{render_term(i)}, {render_term(lhs)} ->{left} .{right}, {render_term(j)}]"


def _render_cyk(item: Term) -> str:
    a, i, j = item.args
    return f"[{render_term(a)}, {render_term(i)}, {render_term(j)}]"


def _render_ccg(item: Term) -> str:
    from .grammar import render_category

    cat, i, j = item.args
    return f"[{render_category(cat)}, {render_term(i)}, {render_term(j)}]"


def _render_address(addr_tuple) -> str:
    if not addr_tuple:
        return "e"
    return ".".join(str(k) for k in addr_tuple)


def _render_tag(item: Term) -> str:
    node, dot, i, j, k, l = item.args
    decoded = _decode_node(node)
    if decoded is None:
        node_text = render_term(node)
    else:
        tree_name, addr = decoded
        node_text = f"{tree_name}@{_render_address(addr)}"
    idx = ", ".join(render_term(x) for x in (i, j, k, l))
    return f"[{node_text}, {render_term(dot)}, {idx}]"


_RENDERERS = {
    ("topdown", "td", 2): _render_topdown,
    ("bottomup", "bu", 2): _render_bottomup,
    ("earley", "er", 5): _render_earley,
    ("cyk", "cyk", 3): _render_cyk,
    ("ccg", "cc", 3): _render_ccg,
    ("tag", "tg", 6): _render_tag,
}


def render_item(system_name: str, item: Term) -> str:
    """Canonical text form of an item under a system's conventions."""
    if isinstance(item, Compound):
        fn = _RENDERERS.get((system_name, item.functor, len(item.args)))
        if fn is not None:
            return fn(item)
    return render_term(item)


def item_renderer(system_name: str):
    def render(item: Term) -> str:
        return render_item(system_name, item)

    return render
