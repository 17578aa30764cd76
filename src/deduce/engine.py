"""Agenda-driven deduction: one procedure for every rule system.

The engine seeds the store with the consequents of the axiom rules,
then repeatedly pops an item and fires every clause whose trigger
matches it against the chart built so far; each clause program enqueues
its consequents as it makes them.  Duplicates collapse in the store; the
goal check runs after the loop whether or not the step limit was hit, so
a halted parse still reports any goals already derived.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .grammar import InputString
from .store import History, INITIAL, ItemStore
from .systems import (
    DeductionSystem,
    EvalContext,
    ItemPremise,
    SideCondition,
    SideConditionError,
    UnknownBuiltinError,
    builtin_answers,
    item_renderer,
)
from .terms import (
    Term,
    VarSource,
    bind,
    canonical,
    rename_with,
    resolve,
    space_source,
    subsumes,
    undo,
)


class EngineError(Exception):
    pass


TRACE_MODES = ("off", "items", "rules")


@dataclass(frozen=True)
class ParseOptions:
    step_limit: int = 100_000
    trace: str = "off"

    def __post_init__(self):
        if self.trace not in TRACE_MODES:
            raise ValueError(f"trace must be one of {TRACE_MODES}")
        if self.step_limit < 0:
            raise ValueError("step_limit must be non-negative")


@dataclass
class ParseResult:
    system: DeductionSystem
    grammar: object
    input: InputString
    store: ItemStore
    accepted: bool
    goal_indices: list
    pops: int
    enqueues: int
    duplicates: int
    halted_by_limit: bool

    def dump(self) -> str:
        return self.store.dump(render=item_renderer(self.system.name))


def consequences(system, store, index, grammar, input_string, source):
    """Every firing triggered by the item at ``index``, recorded nowhere.

    Yields (clause, consequent, antecedent indices), clause by clause in
    the system's order.  It runs every clause's program
    (``program_source``) on the stored item itself, as ``parse`` does,
    each handed a callable that collects its firings where ``parse``
    hands the store's ``enqueue``.  Chart lookups see all indices below
    the agenda head, the trigger's included, so a rule may pair the
    trigger with its own chart entry.
    """
    trigger_item = store.get(index).item
    ctx = EvalContext(grammar, input_string, source)
    firings: list = []
    for clause in system.clauses:
        def collect(item, history, clause=clause):
            firings.append((clause, item, history.antecedents))

        clause.program()(trigger_item, index, collect, store.fetch, source, ctx, store.interned)
    yield from firings


def _tracing(enqueue, render, out):
    """``enqueue`` that also writes a FIRE line for each new item and a
    DUP line for each duplicate, as ``--trace rules`` shows them."""
    def traced(item, history):
        index, added = enqueue(item, history)
        print(f"{'FIRE' if added else 'DUP'} {index} {render(item)} {history.render()}", file=out)
        return index, added

    return traced


def parse(
    system: DeductionSystem,
    grammar,
    input_string: InputString,
    options: "ParseOptions | None" = None,
    trace_out=None,
) -> ParseResult:
    """Run ``system`` over ``input_string`` to its closure or its step
    limit.

    The axiom rules fire first, in rule order, each consequent enqueued
    with the justification ``initial()``.  Each pop runs every
    clause program on the stored item itself; a program hands each
    firing to the store's ``enqueue`` as it makes it, so the engine's
    loop runs once per pop, not once per firing.
    """
    opts = options or ParseOptions()
    if not isinstance(grammar, system.grammar_class):
        raise EngineError(
            f"system {system.name} expects a {system.grammar_class.__name__}, "
            f"got {type(grammar).__name__}"
        )
    if system.check_grammar is not None:
        system.check_grammar(grammar)

    render = item_renderer(system.name)
    out = trace_out
    if opts.trace != "off" and out is None:
        out = sys.stderr
    tracing = opts.trace != "off"
    rule_tracing = opts.trace == "rules"

    store = ItemStore(system.modes)
    source = VarSource()
    ctx = EvalContext(grammar, input_string, source)

    def answers(p, args):
        return builtin_answers(p.builtin, args, ctx)

    for axiom in fire(system.axiom_rules, answers, source):
        idx, added = store.enqueue(axiom, History(INITIAL, ()))
        if added and rule_tracing:
            print(f"FIRE {idx} {render(axiom)} {INITIAL}()", file=out)

    enqueue = _tracing(store.enqueue, render, out) if rule_tracing else store.enqueue
    fetch, table = store.fetch, store.interned
    programs = [clause.program() for clause in system.clauses]
    pops = 0
    while pops < opts.step_limit:
        index = store.pop()
        if index is None:
            break
        pops += 1
        trigger_item = store.get(index).item
        if tracing:
            print(f"POP {index} {render(trigger_item)}", file=out)
        for program in programs:
            program(trigger_item, index, enqueue, fetch, source, ctx, table)

    halted = store.agenda_size > 0
    goal_indices = store.goal_items(fire([system.goal] if system.goal else [], answers, source))
    if tracing:
        for gi in goal_indices:
            print(f"GOAL {gi} {render(store.get(gi).item)}", file=out)

    return ParseResult(
        system=system,
        grammar=grammar,
        input=input_string,
        store=store,
        accepted=bool(goal_indices),
        goal_indices=goal_indices,
        pops=pops,
        enqueues=len(store),
        duplicates=store.duplicates,
        halted_by_limit=halted,
    )


def _consequents(clause, candidates, answers, source, state=None):
    """Each consequent of a firing of ``clause``, depth first: the one
    interpreted premise walker, which both oracles run, and which fires
    the axiom and goal rules (``fire``).

    It binds into ``clause.compiled`` over one environment with a trail
    (``bind``, ``undo``, ``resolve``), the trigger, if any, first and
    then the premises left to right, and yields each consequent
    resolved; it may hold clause variables left unbound.  A chart
    premise, the trigger included, binds each term of the (term, state)
    pairs ``candidates(slot, state)`` gives, renamed apart, and hands
    the pair's state to the next chart premise's call.  A side condition
    binds the arguments of each answer of ``answers(premise, args)``,
    for its resolved arguments, position by position, and renames one
    first that is the very term an earlier side condition of the firing
    got (a shared fact-table row).  The callers decide what the
    candidates and answers are: there is no agenda, index, subsumption
    or generated program here.
    """
    trigger, premises, consequent = clause.compiled
    if trigger is not None:
        premises = (ItemPremise(trigger, clause.trigger_slot),) + premises
    env: dict = {}
    trail: list = []

    def walk(k, state, got):
        if k == len(premises):
            yield resolve(consequent, env)
            return
        p = premises[k]
        mark = len(trail)
        if isinstance(p, SideCondition):
            args = tuple(resolve(a, env) for a in p.args)
            for answer in answers(p, args):
                for a in got:
                    if a is answer:
                        answer = rename_with(answer, {}, source)
                for x, u in zip(args, answer.args):
                    if u is not x and not bind(x, u, env, trail):
                        break
                else:
                    yield from walk(k + 1, state, got + (answer,))
                undo(env, trail, mark)
        else:
            for t, after in candidates(p.slot, state):
                if bind(p.pattern, t, env, trail):
                    yield from walk(k + 1, after, got)
                undo(env, trail, mark)

    return walk(0, state, ())


def fire(rules, answers, source) -> list:
    """The consequents of ``rules``, rules with no antecedent, rule by
    rule in the walker's order (``_consequents``), their side conditions
    answered by ``answers(premise, args)``; a non-ground one is renamed
    from ``source``.  This is how the axiom and goal rules fire."""
    return [t if t.ground else rename_with(t, {}, source)
            for rule in rules for t in _consequents(rule.clauses[0], None, answers, source)]


def naive_closure(system, grammar, input_string, bound: int = 20_000):
    """Deductive closure by semi-naive fixpoint iteration.

    No agenda, no indexing, no subsumption: the axiom rules fire once,
    then only each other rule's slot-0 clause fires, and items are
    deduplicated only up to variable renaming.
    Each round fires every clause on exactly those combinations of known
    antecedents that include at least one item added by the previous
    round (Bancilhon & Ramakrishnan 1986): the antecedents before the
    first such item were known before that round, the ones after it may
    be anything known when the round starts.  Items a round adds wait
    for the next.  The clauses are interpreted by ``_consequents``, over
    the engine's binder, not run through their generated programs.  The
    result is the set of canonical forms; ``bound`` caps the item count
    since recursive rule sets need not terminate.
    """
    seen: set = set()
    known: list = []

    def add(t: Term) -> bool:
        c = canonical(t)
        if c in seen:
            return False
        seen.add(c)
        known.append(t)
        return True

    source = space_source("closure")
    ctx = EvalContext(grammar, input_string, source)
    clauses = [c for c in system.clauses if c.trigger_slot == 0]
    # copies[k][i] is known[i] renamed apart for antecedent position k.
    # Each position has its own copy, so the antecedents of one firing
    # never share variables; stored items only ever fire through their
    # copies, so one copy per position serves every round.
    copies = [[] for _ in range(max((c.n_antecedents for c in clauses), default=0))]

    # Side conditions are functions of their arguments, so each premise
    # is evaluated once per argument tuple.
    memo: dict = {}

    def answers(p, args):
        found = memo.get((id(p), args))
        if found is None:
            found = memo[id(p), args] = builtin_answers(p.builtin, args, ctx)
        return found

    for axiom in fire(system.axiom_rules, answers, source):
        add(axiom)
    lo = 0
    while lo < len(known):
        hi = len(known)
        for row in copies:
            row.extend(t if t.ground else rename_with(t, {}, source) for t in known[len(row):hi])
        for clause in clauses:
            last = clause.n_antecedents - 1

            # The state is whether an antecedent so far is new; the last
            # position takes only new items unless an earlier one was.
            def candidates(slot, new, last=last):
                row = copies[slot]
                return [(row[i], new or i >= lo)
                        for i in range(0 if new or slot < last else lo, hi)]

            for item_out in _consequents(clause, candidates, answers, source, False):
                if add(item_out) and len(seen) > bound:
                    raise EngineError(f"naive closure exceeded {bound} items")
        lo = hi
    return seen


def check_soundness(result: ParseResult) -> list:
    """Replay every recorded justification; the list of failures.

    A justification passes when some consequent derivable from its
    recorded antecedents (or, for an axiom entry, some consequent of an
    axiom rule) is covered by the stored item.  Subsumption collapse
    makes this the right direction: extra histories on a general item
    justify instances of it.  The rule's slot-0 clause is interpreted by
    ``_consequents`` over the recorded antecedents, not run through its
    generated program; a side condition that raises, or names no
    registered builtin, has no answers, so its justification fails
    without raising.
    """
    system, g, w, store = result.system, result.grammar, result.input, result.store
    source = space_source("replay")
    ctx = EvalContext(g, w, source)
    clauses = {c.rule_name: c for c in system.clauses if c.trigger_slot == 0}

    def answers(p, args):
        try:
            return builtin_answers(p.builtin, args, ctx)
        except (SideConditionError, UnknownBuiltinError):
            return ()

    axioms = fire(system.axiom_rules, answers, source)

    violations = []
    for stored in store.items():
        item = stored.item if stored.item.ground else rename_with(stored.item, {}, source)
        for hist in stored.histories:
            if hist.rule_name == INITIAL:
                ok = not hist.antecedents and any(subsumes(item, a) for a in axioms)
            else:
                ok = _replays(clauses.get(hist.rule_name), hist.antecedents, item, store,
                              answers, source)
            if not ok:
                violations.append(
                    f"item {stored.index} has an unreplayable justification {hist.render()}"
                )
    return violations


def _replays(clause, antecedents, item, store, answers, source) -> bool:
    """Whether ``clause``, fired on the stored ``antecedents``, has a
    consequent that ``item`` subsumes."""
    if clause is None or clause.n_antecedents != len(antecedents):
        return False
    if any(not 1 <= i <= len(store) for i in antecedents):
        return False
    antes = [store.renamed(i, source) for i in antecedents]
    consequents = _consequents(clause, lambda slot, state: ((antes[slot], state),), answers, source)
    return any(subsumes(item, out) for out in consequents)
