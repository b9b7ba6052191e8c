"""Command line front end.

Examples::

    dicots outcome "*2+*2"
    dicots compare "*+*" "0"
    dicots canonical "{0,*,*2|0}" --trace
    dicots invertible "{0|*2}" --report --format json
    dicots enumerate --birthday 2 --canonical-only
    dicots selftest --level quick
    dicots outcome "*2+*2" --stats

Expressions beginning with '-' (a conjugate at top level) need a '--'
separator first, as usual: ``dicots outcome -- "-{0|*}"``.

``--stats`` on any verb writes one JSON line to stderr after the verb has
run: the verb, its wall seconds and ``Store.stats()``. Stdout is the same
with or without it.

Exit status: 0 on success, 1 on domain errors (bad notation, one-sided
forms, failed selftest) reported on stderr, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .canonical import canonical, explain, is_canonical, step_as_dict
from .forms import (
    BoundExceeded,
    DicotViolation,
    ParseError,
    Store,
    UnknownId,
    enumerate_dicots,
    notation,
    parse,
)
from .invert import (
    PreconditionViolated,
    inverse,
    is_invertible,
    lemma_witness,
    report_as_dict,
)
from .order import compare
from .outcomes import outcome
from .selftest import format_line, iter_checks

_EXPR_VERBS = (
    "outcome",
    "canonical",
    "invertible",
    "inverse",
    "adjoint",
    "followers",
    "witness",
)

_DOMAIN_ERRORS = (ParseError, DicotViolation, UnknownId, BoundExceeded, PreconditionViolated)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--stats",
        action="store_true",
        help="write store sizes and wall seconds to stderr as one JSON line",
    )
    p = argparse.ArgumentParser(
        prog="dicots",
        description="Game algebra for dicots under misere play.",
    )
    sub = p.add_subparsers(dest="verb", metavar="verb", required=True)

    def expr_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("expr", nargs="?", help="game expression")
        sp.add_argument("--file", help="read one expression per line from this file")
        return sp

    expr_cmd("outcome", "misere outcome of a form: L, N, P or R")
    sp = expr_cmd("canonical", "canonical form")
    sp.add_argument("--trace", action="store_true", help="also print the reduction steps")
    sp = expr_cmd("invertible", "is the form invertible modulo dicots?")
    sp.add_argument("--report", action="store_true", help="print the full report")
    expr_cmd("inverse", "inverse modulo dicots, or none")
    expr_cmd("adjoint", "adjoint of the form")
    expr_cmd("followers", "every reachable position, the form included")
    expr_cmd("witness", "a dicot separating g + conjugate(g) from 0, or none")

    sp = sub.add_parser("compare", parents=[common], help="order two forms: >, <, = or ||")
    sp.add_argument("left", help="game expression")
    sp.add_argument("right", help="game expression")

    sp = sub.add_parser("enumerate", parents=[common], help="list dicots by birthday")
    sp.add_argument("--birthday", type=int, required=True, help="maximum birthday")
    sp.add_argument("--limit", type=int, help="fixed-seed sample of this many forms")
    sp.add_argument(
        "--canonical-only", action="store_true", help="keep only canonical forms"
    )

    sp = sub.add_parser("selftest", parents=[common], help="run the built-in checks")
    sp.add_argument(
        "--level",
        choices=("quick", "full"),
        default="quick",
        help="quick finishes in well under a minute; full is the acceptance sweep",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb in _EXPR_VERBS:
        has_expr = args.expr is not None
        has_file = args.file is not None
        if has_expr == has_file:
            parser.error(f"{args.verb} needs exactly one of an expression or --file")
    t0 = time.perf_counter()
    store = Store()
    try:
        return _dispatch(store, args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.stats:
            wall = time.perf_counter() - t0
            doc = {"verb": args.verb, "wall_s": wall, "stats": store.stats()}
            print(json.dumps(doc), file=sys.stderr)


def console_main() -> None:
    sys.exit(main())


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _dispatch(store: Store, args) -> int:
    verb = args.verb
    if verb == "selftest":
        return _do_selftest(store, args)
    if verb == "enumerate":
        return _do_enumerate(store, args)
    if verb == "compare":
        result = str(compare(store, parse(store, args.left), parse(store, args.right)))
        if args.format == "json":
            _emit_json({"verb": "compare", "input": [args.left, args.right], "result": result})
        else:
            print(result)
        return 0

    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                exprs = [line.strip() for line in fh if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return 1
    else:
        exprs = [args.expr]

    outputs = []
    for i, expr in enumerate(exprs):
        try:
            outputs.append(_eval_expr(store, verb, expr, args))
        except _DOMAIN_ERRORS as exc:
            where = f"line {i + 1}: " if args.file else ""
            print(f"error: {where}{exc}", file=sys.stderr)
            return 1

    if args.format == "json":
        docs = [
            {"verb": verb, "input": expr, "result": payload}
            for expr, (payload, _) in zip(exprs, outputs)
        ]
        _emit_json(docs if args.file else docs[0])
    else:
        for expr, (_, text) in zip(exprs, outputs):
            if args.file:
                print(f"{expr}\t" + text.replace("\n", "\n\t"))
            else:
                print(text)
    return 0


def _eval_expr(store: Store, verb: str, expr: str, args):
    """Evaluate one expression; returns (json payload, text rendering)."""
    g = parse(store, expr)
    if verb == "outcome":
        o = outcome(store, g)
        return o.value, o.value
    if verb == "canonical":
        c = canonical(store, g)
        name = notation(store, c)
        if args.trace:
            steps = [step_as_dict(store, s) for s in explain(store, g)]
            text = name
            for s in steps:
                text += f"\n{s['kind']}: {s['before']} -> {s['after']}"
            return {"canonical": name, "trace": steps}, text
        return name, name
    if verb == "invertible":
        rep = is_invertible(store, g)
        if args.report:
            d = report_as_dict(store, rep)
            return d, json.dumps(d, indent=2)
        name = notation(store, rep.canonical)
        payload = {"verdict": rep.verdict, "canonical": name}
        return payload, f"{'true' if rep.verdict else 'false'} (canonical: {name})"
    if verb == "inverse":
        r = inverse(store, g)
        if r is None:
            return None, "none"
        name = notation(store, r)
        return name, name
    if verb == "adjoint":
        name = notation(store, store.adjoint(g))
        return name, name
    if verb == "followers":
        names = [notation(store, f) for f in store.followers(g)]
        return names, " ".join(names)
    if verb == "witness":
        w = lemma_witness(store, g)
        if w is None:
            return None, "none"
        name = notation(store, w)
        return name, name
    raise AssertionError(f"unhandled verb {verb}")


def _do_enumerate(store: Store, args) -> int:
    names = [
        notation(store, g)
        for g in enumerate_dicots(store, args.birthday, args.limit)
        if not args.canonical_only or is_canonical(store, g)
    ]
    if args.format == "json":
        _emit_json(
            {
                "verb": "enumerate",
                "input": {
                    "birthday": args.birthday,
                    "limit": args.limit,
                    "canonical_only": args.canonical_only,
                },
                "result": names,
            }
        )
    else:
        for name in names:
            print(name)
    return 0


def _do_selftest(store: Store, args) -> int:
    results = []
    for r in iter_checks(args.level, store):
        results.append(r)
        if args.format == "text":
            print(format_line(r))
    if args.format == "json":
        _emit_json(
            {
                "verb": "selftest",
                "input": {"level": args.level},
                "result": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "seconds": round(r.seconds, 2),
                    }
                    for r in results
                ],
            }
        )
    return 0 if all(r.passed for r in results) else 1
