"""Agenda-driven deduction: one procedure for every rule system.

The engine seeds the store with axioms, then repeatedly pops an item,
fires every clause whose trigger matches it against the chart built so
far, and enqueues the consequents.  Duplicates collapse in the store;
the goal check runs after the loop whether or not the step limit was
hit, so a halted parse still reports any goals already derived.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .grammar import InputString
from .store import History, INITIAL, ItemStore
from .systems import (
    DeductionSystem,
    EvalContext,
    REGISTRY,
    SideCondition,
    SideConditionError,
    answer_substitutions,
    builtin_answers,
    item_renderer,
)
from .terms import (
    Term,
    VarSource,
    canonical,
    rename_with,
    space_source,
    subsumes,
    unify,
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
    """Every firing triggered by the item at ``index``.

    Yields (clause, consequent, antecedent indices), clause by clause in
    the system's order.  The item is offered to every clause's generated
    program (``RuleClause.program``), whose trigger match alone decides
    whether the clause fires; a failed one draws no variable.  A program
    runs the premises left to right, depth first, as nested loops over
    one binding environment with a trail, binding into the clause's
    compiled copy in place, so only a consequent is ever built, and a
    ground one through the store's intern table (``compile_builder``).  A
    premise draws all its choices (a side condition's answers, a
    lookup's renamed candidates) before the program goes deeper, so a
    consequent's renaming and transform draw their fresh variables from
    ``source`` after theirs.  Chart lookups see all indices below the
    agenda head, which includes the trigger itself, so a rule may pair
    the trigger with its own chart entry.
    """
    trigger_item = store.renamed(index, source)
    ctx = EvalContext(grammar, input_string, source)
    lookup, renamed, table = store.lookup, store.renamed, store.interned
    firings: list = []
    for clause in system.clauses:
        clause.program()(trigger_item, index, firings, lookup, renamed, source, ctx, table)
    yield from firings


def parse(
    system: DeductionSystem,
    grammar,
    input_string: InputString,
    options: "ParseOptions | None" = None,
    trace_out=None,
) -> ParseResult:
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
    pops = enqueues = duplicates = 0

    for axiom in system.axioms(grammar, input_string):
        idx, added = store.enqueue(axiom, History(INITIAL, ()), stage=0)
        if added:
            enqueues += 1
            if rule_tracing:
                print(f"FIRE {idx} {render(axiom)} {INITIAL}()", file=out)
        else:
            duplicates += 1

    while True:
        if pops >= opts.step_limit:
            break
        index = store.pop()
        if index is None:
            break
        pops += 1
        if tracing:
            print(f"POP {index} {render(store.get(index).item)}", file=out)
        for clause, consequent, antecedents in consequences(
            system, store, index, grammar, input_string, source
        ):
            history = History(clause.rule_name, antecedents)
            new_index, added = store.enqueue(consequent, history, stage=pops)
            if added:
                enqueues += 1
                if rule_tracing:
                    print(f"FIRE {new_index} {render(consequent)} {history.render()}", file=out)
            else:
                duplicates += 1
                if rule_tracing:
                    print(f"DUP {new_index} {render(consequent)} {history.render()}", file=out)

    halted = store.agenda_size > 0
    goal_indices = store.goal_items(system.goal_patterns(grammar, input_string), source=source)
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
        enqueues=enqueues,
        duplicates=duplicates,
        halted_by_limit=halted,
    )


def naive_closure(system, grammar, input_string, bound: int = 20_000):
    """Deductive closure by semi-naive fixpoint iteration.

    No agenda, no indexing, no subsumption: only each rule's slot-0
    clause fires, and items are deduplicated only up to variable renaming.
    Each round fires every clause on exactly those combinations of known
    antecedents that include at least one item added by the previous
    round (Bancilhon & Ramakrishnan 1986): the antecedents before the
    first such item were known before that round, the ones after it may
    be anything known when the round starts.  Items a round adds wait
    for the next.  The result is the set of canonical forms; ``bound``
    caps the item count since recursive rule sets need not terminate.
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

    for axiom in system.axioms(grammar, input_string):
        add(axiom)
    source = space_source("closure")
    ctx = EvalContext(grammar, input_string, source)
    clauses = [(c, c.instantiate(source)) for c in (r.clauses[0] for r in system.rules)]
    # copies[k][i] is known[i] renamed apart for antecedent position k.
    # Each position has its own copy, so the antecedents of one firing
    # never share variables; stored items only ever fire through their
    # copies, so one copy per position serves every round.
    copies = [[] for _ in range(max((c.n_antecedents for c, _ in clauses), default=0))]

    # Side conditions are functions of their arguments, so each premise
    # is evaluated once per argument tuple.  The key names the premise:
    # two premises of one firing never share an answer's fresh variables.
    answers: dict = {}
    lo = 0
    while lo < len(known):
        hi = len(known)
        for row in copies:
            row.extend(t if t.ground else rename_with(t, {}, source) for t in known[len(row):hi])
        for clause, (trig, premises, consequent) in clauses:
            last = clause.n_antecedents - 1
            # A partial is (bindings, whether an antecedent is new).
            partials = []
            for i in range(lo if last == 0 else 0, hi):
                s0 = unify(trig, copies[0][i])
                if s0 is not None:
                    partials.append((s0, i >= lo))
            pos = 0
            for p in premises:
                if not partials:
                    break
                nexts = []
                if isinstance(p, SideCondition):
                    for s, new in partials:
                        args = tuple(s.apply(a) for a in p.args)
                        found = answers.get((id(p), args))
                        if found is None:
                            found = answers[id(p), args] = answer_substitutions(
                                args, builtin_answers(p.builtin, args, ctx)
                            )
                        for s2 in found:
                            nexts.append((s.compose(s2), new))
                else:
                    pos += 1
                    row = copies[pos]
                    for s, new in partials:
                        pat = s.apply(p.pattern)
                        for i in range(0 if new or pos < last else lo, hi):
                            mgu = unify(pat, row[i])
                            if mgu is not None:
                                nexts.append((s.compose(mgu), new or i >= lo))
                partials = nexts
            for s, _new in partials:
                item_out = s.apply(consequent)
                if clause.transform is not None:
                    item_out = clause.transform(item_out, source)
                if add(item_out) and len(seen) > bound:
                    raise EngineError(f"naive closure exceeded {bound} items")
        lo = hi
    return seen


def check_soundness(result: ParseResult) -> list:
    """Replay every recorded justification; the list of failures.

    A justification passes when some consequent derivable from its
    recorded antecedents (or, for an axiom entry, some actual axiom) is
    covered by the stored item.  Subsumption collapse makes this the
    right direction: extra histories on a general item justify
    instances of it.
    """
    system, g, w, store = result.system, result.grammar, result.input, result.store
    axioms = system.axioms(g, w)
    source = space_source("replay")
    violations = []
    for stored in store.items():
        for hist in stored.histories:
            if not _replay_ok(system, store, stored, hist, axioms, g, w, source):
                violations.append(
                    f"item {stored.index} has an unreplayable justification {hist.render()}"
                )
    return violations


def _replay_ok(system, store, stored, hist, axioms, g, w, source):
    item = stored.item if stored.item.ground else rename_with(stored.item, {}, source)
    if hist.rule_name == INITIAL:
        if hist.antecedents:
            return False
        for ax in axioms:
            a = ax if ax.ground else rename_with(ax, {}, source)
            if subsumes(item, a):
                return True
        return False
    rule = next((r for r in system.rules if r.name == hist.rule_name), None)
    if rule is None:
        return False
    clause = rule.clauses[0]
    if clause.n_antecedents != len(hist.antecedents):
        return False
    if any(not 1 <= i <= len(store) for i in hist.antecedents):
        return False
    antes = [store.renamed(i, source) for i in hist.antecedents]
    trig, premises, consequent = clause.instantiate(source)
    s0 = unify(trig, antes[0])
    if s0 is None:
        return False
    ctx = EvalContext(g, w, source)
    partials = [s0]
    for p in premises:
        nexts = []
        for s in partials:
            if isinstance(p, SideCondition):
                if p.builtin not in REGISTRY:
                    return False
                args = tuple(s.apply(a) for a in p.args)
                try:
                    for s2 in answer_substitutions(args, builtin_answers(p.builtin, args, ctx)):
                        nexts.append(s.compose(s2))
                except SideConditionError:
                    continue
            else:
                s2 = unify(s.apply(p.pattern), antes[p.slot], init=s)
                if s2 is not None:
                    nexts.append(s2)
        partials = nexts
        if not partials:
            return False
    for s in partials:
        out = s.apply(consequent)
        if clause.transform is not None:
            out = clause.transform(out, source)
        if subsumes(item, out):
            return True
    return False
