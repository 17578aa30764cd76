"""Command-line front end.

Exit codes: 0 the input is accepted, 1 rejected, 2 usage or grammar
error, 3 the step limit halted the search before any goal was proved;
``check`` exits 0 or 1 by its replay alone, halted or not.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .derivations import (
    UnsupportedSystemError,
    extract,
    render_derivation_tree,
    render_parse_tree,
    to_parse_tree,
)
from .engine import EngineError, ParseOptions, check_soundness, parse
from .grammar import GrammarError, load_ccg, load_cf, load_tag, tokenize
from .systems import FOOT_MODES, GrammarNotCnf, SYSTEM_NAMES, item_renderer, system_for

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2
EXIT_HALTED = 3

_LOADERS = {"cf": load_cf, "ccg": load_ccg, "tag": load_tag}
_EXTENSIONS = {".cf": "cf", ".dcg": "cf", ".ccg": "ccg", ".tag": "tag"}


class UsageError(Exception):
    pass


def grammar_class_for(path: str, explicit: "str | None") -> str:
    if explicit is not None:
        return explicit
    for ext, klass in _EXTENSIONS.items():
        if path.endswith(ext):
            return klass
    raise UsageError(
        f"cannot infer the grammar class of {path!r}; pass --class"
    )


def load_grammar(path: str, klass: str):
    """The grammar in the file at ``path``, read as UTF-8 text with its
    line endings translated as text-mode ``open`` does.

    The file is read on every call, so an edit takes effect and a
    missing file still fails; the text is parsed by ``_parsed``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    return _parsed(klass, text.replace("\r\n", "\n").replace("\r", "\n"))


@functools.lru_cache(maxsize=16)
def _parsed(klass: str, text: str):
    """The grammar of class ``klass`` that ``text`` states, parsed once
    per distinct text while it is among the 16 used most recently.  A hit
    is the same frozen grammar, so its relations and the indexes they
    have built serve every later request; a grammar error is raised
    again on every call, never kept.  The loader is looked up here, on
    a miss, so a wrapper put on a ``_LOADERS`` entry sees every load."""
    return _LOADERS[klass](text)


def build_system(args):
    if args.restrict is not None and args.system != "earley":
        raise UsageError("--restrict only applies to the earley system")
    if args.foot_mode is not None and args.system != "tag":
        raise UsageError("--foot-mode only applies to the tag system")
    if args.system == "earley":
        return system_for("earley", restriction_depth=args.restrict)
    if args.system == "tag":
        return system_for("tag", foot_mode=args.foot_mode or "complete_foot")
    return system_for(args.system)


def read_sentence(args) -> str:
    if args.sentence is not None:
        return args.sentence
    return sys.stdin.read().strip()


def run_parse(args):
    system = build_system(args)
    grammar = load_grammar(args.grammar, grammar_class_for(args.grammar, args.grammar_class))
    w = tokenize(read_sentence(args))
    options = ParseOptions(step_limit=args.step_limit, trace=args.trace or "off")
    result = parse(system, grammar, w, options, trace_out=sys.stderr)
    return result


def report_halt(result) -> None:
    if result.halted_by_limit:
        print(f"search halted at the {result.pops}-pop step limit", file=sys.stderr)


def exit_code_for(result) -> int:
    if result.accepted:
        return EXIT_ACCEPT
    if result.halted_by_limit:
        return EXIT_HALTED
    return EXIT_REJECT


def cmd_parse(args) -> int:
    result = run_parse(args)
    status = "accept" if result.accepted else "reject"
    if args.format == "lines":
        halted = "halted" if result.halted_by_limit else "complete"
        print(f"{status}\t{len(result.store)}\t{result.pops}\t{result.duplicates}\t{halted}")
    else:
        print(status)
        print(f"items {len(result.store)}, pops {result.pops}, duplicates {result.duplicates}")
        if result.halted_by_limit:
            print(f"search halted at the {result.pops}-pop step limit")
    return exit_code_for(result)


def cmd_chart(args) -> int:
    result = run_parse(args)
    report_halt(result)
    if args.format == "lines":
        sys.stdout.write(result.dump())
    else:
        render = item_renderer(result.system.name)
        for stored in result.store.items():
            hists = " ".join(h.render() for h in stored.histories)
            print(f"{stored.index:>5} {stored.stage:>5}  {render(stored.item)}  {hists}")
    return exit_code_for(result)


def _render_derivation(result, d, fmt: str) -> str:
    if fmt != "lines":
        try:
            return render_parse_tree(to_parse_tree(result, d))
        except UnsupportedSystemError:
            pass
    return render_derivation_tree(result, d)


def cmd_derive(args) -> int:
    result = run_parse(args)
    report_halt(result)
    try:
        # One tree past the limit tells whether the limit cut the
        # forest; the first ``limit`` trees are the same either way.
        trees = extract(result, limit=args.limit + 1)
        lines = [_render_derivation(result, d, args.format) for d in trees[:args.limit]]
    except RecursionError:
        # extract and the folds recurse once per derivation level.
        print("error: the derivation is too deep to unpack", file=sys.stderr)
        return EXIT_ERROR
    for line in lines:
        print(line)
    if len(trees) > args.limit:
        print(f"derive: stopped at --limit {args.limit}; more derivations exist", file=sys.stderr)
    return exit_code_for(result)


def cmd_check(args) -> int:
    result = run_parse(args)
    report_halt(result)
    violations = check_soundness(result)
    if violations:
        for line in violations:
            print(line)
        return EXIT_REJECT
    print(f"sound: {len(result.store)} items, every justification replayed")
    return EXIT_ACCEPT


def _count(text: str) -> int:
    """A non-negative integer option; argparse names the flag when this
    raises."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def build_arg_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--system", required=True, choices=SYSTEM_NAMES)
    shared.add_argument("--grammar", required=True, metavar="PATH")
    shared.add_argument(
        "--sentence", metavar="TEXT",
        help="input string; read from stdin when omitted",
    )
    shared.add_argument(
        "--class", dest="grammar_class", choices=sorted(_LOADERS),
        help="grammar class; inferred from the file extension when omitted",
    )
    shared.add_argument("--step-limit", type=_count, default=100_000, metavar="N")
    shared.add_argument(
        "--restrict", type=_count, metavar="DEPTH",
        help="cut the predicted symbol at this term depth before choosing a production (earley)",
    )
    shared.add_argument("--foot-mode", choices=FOOT_MODES)
    shared.add_argument(
        "--trace", choices=("items", "rules"),
        help="write agenda events to stderr",
    )
    shared.add_argument("--format", choices=("text", "lines"), default="text")

    top = argparse.ArgumentParser(
        prog="deduce",
        description="Chart parsing as deduction over inference-rule systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    sub.add_parser("parse", parents=[shared],
                   help="report acceptance").set_defaults(func=cmd_parse)
    sub.add_parser("chart", parents=[shared],
                   help="print every stored item").set_defaults(func=cmd_chart)
    derive = sub.add_parser("derive", parents=[shared],
                            help="print parse or derivation trees")
    derive.add_argument("--limit", type=_count, default=16, metavar="N")
    derive.set_defaults(func=cmd_derive)
    sub.add_parser("check", parents=[shared],
                   help="replay every justification").set_defaults(func=cmd_check)
    return top


# The parser ``main`` reuses across requests, built on its first call
# rather than at import.  ``parse_args`` leaves it unchanged and makes a
# fresh namespace each time, and argparse reads ``sys.stdout`` and
# ``sys.stderr`` only when it prints.
_parser = functools.cache(build_arg_parser)


def main(argv=None) -> int:
    """Run one request.  May be called repeatedly in one process; the
    grammar file is read on every call, and parsed once per distinct
    text per process, for up to 16 texts."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (GrammarError, GrammarNotCnf) as exc:
        print(f"grammar error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
