"""Deduction systems: inference-rule schemata over items.

A system packages axiom and goal generators with its inference rules.
Each rule is written once, as one list of premises (antecedent patterns
and side conditions) and a consequent.  A k-antecedent rule compiles
into k clauses, one per choice of trigger antecedent; each clause
evaluates the other premises in the written order, the remaining
antecedents as chart lookups.  Side conditions are names resolved
through a registry of pure evaluators over the grammar and the input
string.  A mode analysis of each clause gives the trigger's skeleton,
which lets the engine skip clauses a popped item cannot fire, and the
lookup mode of each chart premise, which the item store indexes.

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

from dataclasses import dataclass, field
from typing import Callable

from .grammar import (
    EPSILON,
    BACKWARD,
    CcgLexicon,
    CfGrammar,
    FORWARD,
    InputString,
    TagGrammar,
    validate_cnf,
)
from .store import INITIAL
from .terms import (
    Compound,
    Const,
    NIL,
    Substitution,
    Term,
    Var,
    VarSource,
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


class SideConditionError(Exception):
    """An evaluator was called outside its documented argument modes."""


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
    """One rule compiled for one trigger position.

    ``premises`` are evaluated strictly left to right; every consequent
    variable must be bound by the trigger or some premise, or
    construction raises ``SystemAuthoringError``.  ``transform``
    post-processes the instantiated consequent (used by the restricted
    Earley prediction).

    ``compiled`` is the clause's (trigger, premises, consequent), renamed
    once, at construction, into the reserved "clause" variable space.
    The engine binds into it in place instead of copying the clause per
    firing: one walk holds one instance of one clause at a time, and no
    item or grammar term carries a clause-space variable.
    """

    rule_name: str
    n_antecedents: int
    trigger_slot: int
    trigger: Term
    premises: tuple
    consequent: Term
    transform: "Callable | None" = None
    # Derived in __post_init__.
    skeleton: tuple = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)
    compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Mode analysis, left to right.  ``skeleton`` holds the
        (path, principal symbol) of every non-variable subterm of the
        trigger; ``modes`` holds, per premise, the chart lookup it makes:
        the pattern's principal symbol and the argument paths whose
        symbol is known when it runs (constants, compounds, and variables
        of the trigger or of an earlier premise), or None for a side
        condition or a bare-variable pattern.  At the end of the walk
        every consequent variable must be bound."""
        bound = set(term_vars(self.trigger))
        modes = []
        for p in self.premises:
            if isinstance(p, SideCondition):
                modes.append(None)
                for a in p.args:
                    bound.update(term_vars(a))
            else:
                symbol = principal(p.pattern)
                paths = tuple(path for path, _ in _known_subterms(p.pattern, bound))
                modes.append(None if symbol is None else (symbol, paths))
                bound.update(term_vars(p.pattern))
        free = [v for v in term_vars(self.consequent) if v not in bound]
        if free:
            raise SystemAuthoringError(
                f"rule {self.rule_name}: consequent variables {free} are never bound"
            )
        skeleton = ()
        if not isinstance(self.trigger, Var):
            known = [((), self.trigger)] + _known_subterms(self.trigger, set())
            skeleton = tuple((path, principal(sub)) for path, sub in known)
        object.__setattr__(self, "modes", tuple(modes))
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "compiled", self.instantiate(space_source("clause")))

    def admits(self, item: Term) -> bool:
        """False when ``item`` contradicts the trigger's skeleton, so the
        trigger cannot unify with it."""
        for path, symbol in self.skeleton:
            t = item
            for k in path:
                if type(t) is not Compound:  # a variable above the path
                    break
                t = t.args[k]
            else:
                if type(t) is not Var and principal(t) != symbol:
                    return False
        return True

    def instantiate(self, source: VarSource):
        """Fresh-variable copy: (trigger, premises, consequent)."""
        mapping: dict = {}
        trigger = rename_with(self.trigger, mapping, source)
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


def _known_subterms(t: Term, bound: set, path: tuple = ()) -> list:
    """(path, subterm) below ``t``, in preorder, for every subterm whose
    principal symbol is fixed once the variables in ``bound`` are:
    constants, compounds and bound variables.  Paths below a variable
    are not followed."""
    out = []
    if isinstance(t, Compound):
        for k, a in enumerate(t.args):
            sub = path + (k,)
            if not isinstance(a, Var):
                out.append((sub, a))
                out.extend(_known_subterms(a, bound, sub))
            elif a.id in bound:
                out.append((sub, a))
    return out


@dataclass(frozen=True)
class Rule:
    """One inference rule as written.

    ``premises`` lists the antecedent patterns (plain terms) and the
    side conditions (``SideCondition``) in one order.  The rule compiles
    into ``clauses``, one per antecedent in slot order: the clause for
    antecedent k triggers on it and evaluates the other premises in the
    written order, each remaining antecedent as a chart lookup of its
    slot.
    """

    name: str
    premises: tuple
    consequent: Term
    transform: "Callable | None" = None
    clauses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        written, antecedents = [], []
        for p in self.premises:
            if not isinstance(p, SideCondition):
                p = ItemPremise(p, len(antecedents))
                antecedents.append(p)
            written.append(p)
        if not antecedents:
            raise SystemAuthoringError(f"rule {self.name} has no antecedent")
        clauses = tuple(
            RuleClause(
                self.name, len(antecedents), a.slot, a.pattern,
                tuple(p for p in written if p is not a), self.consequent, self.transform,
            )
            for a in antecedents
        )
        object.__setattr__(self, "clauses", clauses)


@dataclass(frozen=True)
class DeductionSystem:
    """A named rule set with axiom and goal generators.

    ``axioms`` and ``goal_patterns`` are functions of the grammar and
    the input string, since goals mention the string length and the
    start symbols.  ``check_grammar`` runs before parsing and raises on
    a grammar the system cannot interpret.  Rule names are unique and
    differ from ``INITIAL``, since a justification names its rule and an
    axiom's names ``INITIAL``.  ``clauses`` lists the compiled
    clauses of every rule, in rule order; ``modes`` collects their
    lookup modes, in clause order: the store keeps one index per mode.
    """

    name: str
    grammar_class: type
    rules: tuple
    axioms: Callable
    goal_patterns: Callable
    check_grammar: "Callable | None" = None
    clauses: tuple = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [INITIAL] + [r.name for r in self.rules]
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            raise SystemAuthoringError(
                f"system {self.name}: rule names used twice (axioms use {INITIAL!r}): {twice}"
            )
        clauses = tuple(c for r in self.rules for c in r.clauses)
        modes = (m for c in clauses for m in c.modes if m is not None)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "modes", tuple(dict.fromkeys(modes)))


# ---- side-condition registry ----

@dataclass
class EvalContext:
    grammar: object
    input: InputString
    source: VarSource


def _yield_unify(args, candidates):
    """Substitutions unifying the arg tuple with each candidate tuple."""
    probe = mklist(args)
    for cand in candidates:
        s = unify(probe, mklist(cand))
        if s is not None:
            yield s


def _need_cf(ctx, name):
    if not isinstance(ctx.grammar, CfGrammar):
        raise SideConditionError(f"{name} needs a context-free grammar")
    return ctx.grammar


def _need_tag(ctx, name):
    if not isinstance(ctx.grammar, TagGrammar):
        raise SideConditionError(f"{name} needs a TAG grammar")
    return ctx.grammar


def _int_of(t: Term):
    if isinstance(t, Const) and isinstance(t.name, int):
        return t.name
    return None


def _eval_word_at(args, ctx):
    pos, word = args
    tokens = ctx.input.tokens
    i = _int_of(pos)
    if i is not None:
        if 1 <= i <= len(tokens):
            yield from _yield_unify(args, [(pos, Const(tokens[i - 1]))])
        return
    yield from _yield_unify(
        args, [(Const(i + 1), Const(tok)) for i, tok in enumerate(tokens)]
    )


def _eval_production(args, ctx):
    g = _need_cf(ctx, "production")
    probe = Compound("p", args)
    lhs = args[0]
    for pair in g.production_terms:
        if not pair.ground:
            pair = rename_with(pair, {}, ctx.source)
        elif lhs.ground and pair.args[0] != lhs:
            continue
        s = unify(probe, pair)
        if s is not None:
            yield s


def _eval_lex(args, ctx):
    g = _need_cf(ctx, "lex")
    word = args[0]
    yield from _yield_unify(args, [
        (Const(w), p if p.ground else rename_with(p, {}, ctx.source))
        for w, p in g.lexicon
        if type(word) is not Const or word.name == w
    ])


def _eval_succ(args, ctx):
    a, b = args
    i, j = _int_of(a), _int_of(b)
    if i is not None:
        yield from _yield_unify(args, [(a, Const(i + 1))])
    elif j is not None:
        if j >= 1:
            yield from _yield_unify(args, [(Const(j - 1), b)])
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
    yield from _yield_unify(args, [(a, b, merged)])


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


def node_ref(tree_name: str, address: tuple) -> Compound:
    addr_rev = mklist([Const(k) for k in reversed(address)])
    return Compound("node", (Const(tree_name), addr_rev))


def _label_term(label: str) -> Const:
    return Const("eps" if label == EPSILON else label)


def _eval_adjoinable(args, ctx):
    g = _need_tag(ctx, "adjoinable")
    node_arg, aux_arg = args
    auxes = g.auxiliaries
    if isinstance(aux_arg, Const):
        auxes = [t for t in auxes if t.name == aux_arg.name]
    decoded = _decode_node(node_arg)
    candidates = []
    for aux in auxes:
        want = aux.root_label
        if decoded is not None:
            tree_name, addr = decoded
            try:
                tree = g.tree(tree_name)
            except KeyError:
                continue
            if tree.has_node(addr) and tree.label(addr) == want:
                candidates.append((node_arg, Const(aux.name)))
            continue
        for tree in g.trees:
            for addr in tree.addresses():
                if tree.label(addr) == want:
                    candidates.append((node_ref(tree.name, addr), Const(aux.name)))
    yield from _yield_unify(args, candidates)


def _eval_node_label(args, ctx):
    g = _need_tag(ctx, "node_label")
    node_arg, _label = args
    decoded = _decode_node(node_arg)
    if decoded is not None:
        tree_name, addr = decoded
        try:
            tree = g.tree(tree_name)
        except KeyError:
            return
        if tree.has_node(addr):
            yield from _yield_unify(args, [(node_arg, _label_term(tree.label(addr)))])
        return
    candidates = [
        (node_ref(t.name, addr), _label_term(t.label(addr)))
        for t in g.trees
        for addr in t.addresses()
    ]
    yield from _yield_unify(args, candidates)


def _eval_child_undefined(args, ctx):
    g = _need_tag(ctx, "child_undefined")
    decoded = _decode_node(args[0])
    if decoded is None:
        raise SideConditionError("child_undefined needs a ground node reference")
    tree_name, addr = decoded
    try:
        tree = g.tree(tree_name)
    except KeyError:
        return
    if not tree.has_node(addr):
        yield Substitution({})


def _eval_foot_of(args, ctx):
    g = _need_tag(ctx, "foot_of")
    aux_arg, _foot = args
    auxes = g.auxiliaries
    if isinstance(aux_arg, Const):
        auxes = [t for t in auxes if t.name == aux_arg.name]
    yield from _yield_unify(
        args,
        [(Const(t.name), node_ref(t.name, t.foot)) for t in auxes if t.foot is not None],
    )


def _eval_is_start(args, ctx):
    g = ctx.grammar
    if isinstance(g, CfGrammar):
        starts = [rename_with(s, {}, ctx.source) for s in g.starts]
    elif isinstance(g, CcgLexicon):
        starts = [g.start]
    elif isinstance(g, TagGrammar):
        starts = [Const(g.start)]
    else:
        raise SideConditionError("is_start: unsupported grammar")
    yield from _yield_unify(args, [(s,) for s in starts])


def _eval_append(args, ctx):
    xs, ys, _zs = args
    elems = unlist(xs)
    if elems is None:
        raise SideConditionError("append needs a proper list first argument")
    yield from _yield_unify(args, [(xs, ys, mklist(elems, tail=ys))])


def _eval_split_stack(args, ctx):
    gamma, alpha, rest = args
    elems = unlist(gamma)
    if elems is None:
        raise SideConditionError("split_stack needs a proper list first argument")
    expected = mklist(list(reversed(elems)), tail=rest)
    s = unify(alpha, expected)
    if s is not None:
        yield s


REGISTRY: dict = {
    "word_at": _eval_word_at,
    "production": _eval_production,
    "lex": _eval_lex,
    "succ": _eval_succ,
    "index_union": _eval_index_union,
    "adjoinable": _eval_adjoinable,
    "node_label": _eval_node_label,
    "child_undefined": _eval_child_undefined,
    "foot_of": _eval_foot_of,
    "is_start": _eval_is_start,
    "append": _eval_append,
    "split_stack": _eval_split_stack,
}


def register_builtin(name: str, evaluator):
    REGISTRY[name] = evaluator


def eval_side_condition(builtin: str, args, grammar, input_string, source=None):
    """Evaluate one side condition to a list of substitutions."""
    fn = REGISTRY.get(builtin)
    if fn is None:
        raise UnknownBuiltinError(builtin)
    ctx = EvalContext(grammar, input_string, source or space_source("side_conditions"))
    return list(fn(tuple(args), ctx))


# ---- the six systems ----

def _v(name: str) -> Var:
    return Var(name)


def _td(beta: Term, j: Term) -> Compound:
    return Compound("td", (beta, j))


def make_topdown() -> DeductionSystem:
    beta, j, j1, a, g, d = _v("Beta"), _v("J"), _v("J1"), _v("A"), _v("G"), _v("D")
    scan = Rule(
        "scan",
        [_td(cons(a, beta), j), SideCondition("succ", (j, j1)), SideCondition("word_at", (j1, a))],
        _td(beta, j1),
    )
    predict = Rule(
        "predict",
        [
            _td(cons(a, beta), j),
            SideCondition("production", (a, g)),
            SideCondition("append", (g, beta, d)),
        ],
        _td(d, j),
    )

    def axioms(grammar: CfGrammar, w: InputString):
        return [_td(mklist([s]), Const(0)) for s in grammar.starts]

    def goals(grammar: CfGrammar, w: InputString):
        return [_td(NIL, Const(w.n))]

    return DeductionSystem(
        name="topdown",
        grammar_class=CfGrammar,
        rules=(scan, predict),
        axioms=axioms,
        goal_patterns=goals,
    )


def _bu(alpha: Term, j: Term) -> Compound:
    return Compound("bu", (alpha, j))


def make_bottomup() -> DeductionSystem:
    alpha, j, j1, w_, b, g, rest = (
        _v("Alpha"), _v("J"), _v("J1"), _v("W"), _v("B"), _v("G"), _v("Rest"),
    )
    shift = Rule(
        "shift",
        [_bu(alpha, j), SideCondition("succ", (j, j1)), SideCondition("word_at", (j1, w_))],
        _bu(cons(w_, alpha), j1),
    )
    reduce_ = Rule(
        "reduce",
        [
            _bu(alpha, j),
            SideCondition("production", (b, g)),
            SideCondition("split_stack", (g, alpha, rest)),
        ],
        _bu(cons(b, rest), j),
    )

    def axioms(grammar: CfGrammar, w: InputString):
        return [_bu(NIL, Const(0))]

    def goals(grammar: CfGrammar, w: InputString):
        return [_bu(mklist([s]), Const(w.n)) for s in grammar.starts]

    return DeductionSystem(
        name="bottomup",
        grammar_class=CfGrammar,
        rules=(shift, reduce_),
        axioms=axioms,
        goal_patterns=goals,
    )


START_WRAPPER = Const("S'")


def _er(i, lhs, before, after, j) -> Compound:
    return Compound("er", (i, lhs, before, after, j))


def _make_restrictor(depth: int):
    def transform(item: Term, source: VarSource) -> Term:
        i, lhs, before, after, j = item.args
        lhs2 = abstract_depth(lhs, depth, source)
        elems, tail = list_parts(after)
        after2 = mklist([abstract_depth(e, depth, source) for e in elems], tail)
        return _er(i, lhs2, before, after2, j)

    return transform


def make_earley(restriction_depth: "int | None" = None) -> DeductionSystem:
    i, j, j1, k = _v("I"), _v("J"), _v("J1"), _v("K")
    a, b, g = _v("A"), _v("B"), _v("G")
    bef, aft, bef2 = _v("Bef"), _v("Aft"), _v("Bef2")
    w_ = _v("W")

    scan = Rule(
        "scan",
        [
            _er(i, a, bef, cons(w_, aft), j),
            SideCondition("succ", (j, j1)),
            SideCondition("word_at", (j1, w_)),
        ],
        _er(i, a, cons(w_, bef), aft, j1),
    )
    predict = Rule(
        "predict",
        [_er(i, a, bef, cons(b, aft), j), SideCondition("production", (b, g))],
        _er(j, b, NIL, g, j),
        transform=None if restriction_depth is None else _make_restrictor(restriction_depth),
    )
    complete = Rule(
        "complete",
        [_er(i, a, bef, cons(b, aft), k), _er(k, b, bef2, NIL, j)],
        _er(i, a, cons(b, bef), aft, j),
    )

    def axioms(grammar: CfGrammar, w: InputString):
        return [
            _er(Const(0), START_WRAPPER, NIL, mklist([s]), Const(0))
            for s in grammar.starts
        ]

    def goals(grammar: CfGrammar, w: InputString):
        return [
            _er(Const(0), START_WRAPPER, mklist([s]), NIL, Const(w.n))
            for s in grammar.starts
        ]

    return DeductionSystem(
        name="earley",
        grammar_class=CfGrammar,
        rules=(scan, predict, complete),
        axioms=axioms,
        goal_patterns=goals,
    )


def _cyk(a, i, j) -> Compound:
    return Compound("cyk", (a, i, j))


def make_cyk() -> DeductionSystem:
    a, b, c = _v("A"), _v("B"), _v("C")
    i, j, k = _v("I"), _v("J"), _v("K")
    binary = Rule(
        "binary",
        [SideCondition("production", (a, mklist([b, c]))), _cyk(b, i, j), _cyk(c, j, k)],
        _cyk(a, i, k),
    )

    def axioms(grammar: CfGrammar, w: InputString):
        out = []
        for word, preterm in grammar.lexicon:
            for pos, tok in enumerate(w.tokens):
                if tok == word:
                    out.append(_cyk(preterm, Const(pos), Const(pos + 1)))
        return out

    def goals(grammar: CfGrammar, w: InputString):
        return [_cyk(s, Const(0), Const(w.n)) for s in grammar.starts]

    def check(grammar: CfGrammar):
        report = validate_cnf(grammar)
        if report:
            raise GrammarNotCnf(report)

    return DeductionSystem(
        name="cyk",
        grammar_class=CfGrammar,
        rules=(binary,),
        axioms=axioms,
        goal_patterns=goals,
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


_CCG_RULES = None


def _ccg_rules():
    global _CCG_RULES
    if _CCG_RULES is not None:
        return _CCG_RULES
    x, y, z = _v("X"), _v("Y"), _v("Z")

    def fw(res, arg):
        return Compound(FORWARD, (res, arg))

    def bw(res, arg):
        return Compound(BACKWARD, (res, arg))

    _CCG_RULES = (
        ("forward_apply", fw(x, y), y, x),
        ("backward_apply", y, bw(x, y), x),
        ("forward_compose1", fw(x, y), fw(y, z), fw(x, z)),
        ("forward_compose2", fw(x, y), bw(y, z), bw(x, z)),
        ("backward_compose1", fw(y, z), bw(x, y), fw(x, z)),
        ("backward_compose2", bw(y, z), bw(x, y), bw(x, z)),
    )
    return _CCG_RULES


def make_ccg() -> DeductionSystem:
    i, j, k = _v("I"), _v("J"), _v("K")
    rules = tuple(
        Rule(name, [_cc(left, i, j), _cc(right, j, k)], _cc(out, i, k))
        for name, left, right, out in _ccg_rules()
    )

    def axioms(lexicon: CcgLexicon, w: InputString):
        out = []
        for word, cat in lexicon.entries:
            for pos, tok in enumerate(w.tokens):
                if tok == word:
                    out.append(_cc(cat, Const(pos), Const(pos + 1)))
        return out

    def goals(lexicon: CcgLexicon, w: InputString):
        return [_cc(lexicon.start, Const(0), Const(w.n))]

    return DeductionSystem(
        name="ccg",
        grammar_class=CcgLexicon,
        rules=rules,
        axioms=axioms,
        goal_patterns=goals,
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
    n, b, f = _v("N"), _v("B"), _v("F")
    i, j, k, l, m, q = _v("I"), _v("J"), _v("K"), _v("L"), _v("M"), _v("Q")
    j2, k2, ju, ku = _v("J2"), _v("K2"), _v("JU"), _v("KU")

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
    rules = [complete_unary, complete_binary, no_adjoin, adjoin]
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

    def axioms(grammar: TagGrammar, w: InputString):
        out = []
        for tree in grammar.trees:
            for addr in tree.addresses():
                if not tree.is_leaf(addr) or addr == tree.foot:
                    continue
                label = tree.label(addr)
                if label == EPSILON:
                    for pos in range(w.n + 1):
                        out.append(
                            _tg(node_ref(tree.name, addr), ABOVE,
                                Const(pos), BOTTOM, BOTTOM, Const(pos))
                        )
                else:
                    for pos, tok in enumerate(w.tokens):
                        if tok == label:
                            out.append(
                                _tg(node_ref(tree.name, addr), ABOVE,
                                    Const(pos), BOTTOM, BOTTOM, Const(pos + 1))
                            )
        if foot_mode == "foot_axiom":
            for tree in grammar.auxiliaries:
                for p_ in range(w.n + 1):
                    for q_ in range(p_, w.n + 1):
                        out.append(
                            _tg(node_ref(tree.name, tree.foot), BELOW,
                                Const(p_), Const(p_), Const(q_), Const(q_))
                        )
        return out

    def goals(grammar: TagGrammar, w: InputString):
        return [
            _tg(node_ref(tree.name, ()), ABOVE, Const(0), BOTTOM, BOTTOM, Const(w.n))
            for tree in grammar.initials
            if tree.root_label == grammar.start
        ]

    return DeductionSystem(
        name="tag",
        grammar_class=TagGrammar,
        rules=tuple(rules),
        axioms=axioms,
        goal_patterns=goals,
    )


_BUILDERS = {
    "topdown": make_topdown,
    "bottomup": make_bottomup,
    "earley": make_earley,
    "cyk": make_cyk,
    "ccg": make_ccg,
    "tag": make_tag,
}

SYSTEM_NAMES = tuple(_BUILDERS)


def system_for(name: str, **kwargs) -> DeductionSystem:
    """Build a system by CLI name; kwargs reach the builder."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown system {name!r}")
    return _BUILDERS[name](**kwargs)


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
