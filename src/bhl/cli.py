"""
Command-line front end.

Subcommands:

- ``group --type T [--info]``: order, and with --info the length histogram
  and the positive roots in simple-root coordinates.
- ``meet --type T -u W -w W`` / ``vmin --type T -u W -w W``: canonical word.
- ``theta --type T -x W -y W -w W``: the pairing polynomial in q.
- ``rpoly --type T -u W -v W [--bar]``: the deformed R rational function.
- ``sigma --type T -u W -v W -w W [--format text|json]``.
- ``classify --type T [--jobs N] [--out FILE] [--format json|csv]``.
- ``verify --type T --suite NAME|all [--jobs N] [--samples N]``.

Element words are "e" or digit strings ("121"), with a comma-separated form
("1,2,1") accepted for every rank; printed words are always the canonical
lexicographically smallest reduced word. stdout carries data only; all
diagnostics go to stderr. Exit codes: 0 success, 1 verification failure or
a broken engine invariant (its message names the triple), 2 usage error;
where the platform has SIGPIPE, a closed stdout ends the process by that
signal, with nothing on stderr.

``--jobs`` and ``--samples`` must be at least 1; at most min(N, |W|, cpu
count) worker processes are started.

Environment: BHL_MAX_ORDER overrides the group order cap.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .coxeter import (
    CoxeterGroup,
    OrderCapError,
    UnsupportedTypeError,
    WordError,
    build_group,
)
from .demazure import mixed_meet, v_min
from .hecke import theta
from .rpoly import RPolyTable
from .sigma import SigmaEngine, classify
from .verify import SUITE_NAMES, run_suite

def _build(args) -> CoxeterGroup:
    cap = os.environ.get("BHL_MAX_ORDER")
    try:
        max_order = int(cap) if cap else None
    except ValueError:
        raise ValueError(f"BHL_MAX_ORDER must be an integer, got {cap!r}") from None
    return build_group(args.type, max_order=max_order)


def _cmd_group(args) -> int:
    g = _build(args)
    print(f"type: {g.cartan_type}")
    print(f"order: {g.order}")
    if args.info:
        print("lengths: " + ",".join(str(c) for c in g.length_histogram()))
        roots = " ".join(
            "(" + ",".join(str(c) for c in beta) + ")"
            for beta in g.positive_roots
        )
        print("positive_roots: " + roots)
    return 0


def _cmd_meet(args) -> int:
    g = _build(args)
    u = g.from_word(args.u)
    w = g.from_word(args.w)
    print(mixed_meet(u, w).word())
    return 0


def _cmd_vmin(args) -> int:
    g = _build(args)
    u = g.from_word(args.u)
    w = g.from_word(args.w)
    print(v_min(u, w).word())
    return 0


def _cmd_theta(args) -> int:
    g = _build(args)
    x = g.from_word(args.x)
    y = g.from_word(args.y)
    w = g.from_word(args.w)
    print(theta(x, y, w))
    return 0


def _cmd_rpoly(args) -> int:
    g = _build(args)
    u = g.from_word(args.u)
    v = g.from_word(args.v)
    val = RPolyTable(g).r(u, v)
    if args.bar:
        val = val.bar_q()
    print(val)
    return 0


def _cmd_sigma(args) -> int:
    g = _build(args)
    u = g.from_word(args.u)
    v = g.from_word(args.v)
    w = g.from_word(args.w)
    val = SigmaEngine(g).sigma(u, v, w)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "type": str(g.cartan_type),
                    "u": u.word(),
                    "v": v.word(),
                    "w": w.word(),
                    "sigma": str(val),
                }
            )
        )
    else:
        print(f"σ = {val}")
    return 0


def _cmd_classify(args) -> int:
    g = _build(args)
    if args.out:
        # fail on an unwritable path now, not after the whole run; append
        # mode leaves an existing report as it is until the new one is ready
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    report = classify(g, jobs=args.jobs)
    text = report.to_csv_text() if args.format == "csv" else report.to_json_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    g = _build(args)
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    engine = SigmaEngine(g)
    all_ok = True
    for name in names:
        res = run_suite(
            name, g, samples=args.samples, engine=engine, jobs=args.jobs
        )
        print(f"{res.name}: {'PASS' if res.ok else 'FAIL'} ({res.detail})")
        all_ok = all_ok and res.ok
    return 0 if all_ok else 1


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}"
        )
    return n


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bhl",
        description="Exact intertwining-coefficient combinatorics "
        "for finite Weyl groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def with_type(sp):
        sp.add_argument("--type", required=True, help="Cartan type, e.g. A2, B3")
        return sp

    sp = with_type(sub.add_parser("group", help="order and root data"))
    sp.add_argument("--info", action="store_true", help="also print histogram and roots")
    sp.set_defaults(func=_cmd_group)

    sp = with_type(sub.add_parser("meet", help="mixed meet of u and w"))
    sp.add_argument("-u", required=True)
    sp.add_argument("-w", required=True)
    sp.set_defaults(func=_cmd_meet)

    sp = with_type(sub.add_parser("vmin", help="least v with nonzero sigma"))
    sp.add_argument("-u", required=True)
    sp.add_argument("-w", required=True)
    sp.set_defaults(func=_cmd_vmin)

    sp = with_type(sub.add_parser("theta", help="pairing polynomial"))
    sp.add_argument("-x", required=True)
    sp.add_argument("-y", required=True)
    sp.add_argument("-w", required=True)
    sp.set_defaults(func=_cmd_theta)

    sp = with_type(sub.add_parser("rpoly", help="deformed R rational function"))
    sp.add_argument("-u", required=True)
    sp.add_argument("-v", required=True)
    sp.add_argument("--bar", action="store_true", help="replace q by q^-1")
    sp.set_defaults(func=_cmd_rpoly)

    sp = with_type(sub.add_parser("sigma", help="the matrix coefficient"))
    sp.add_argument("-u", required=True)
    sp.add_argument("-v", required=True)
    sp.add_argument("-w", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_sigma)

    sp = with_type(sub.add_parser("classify", help="classify all triples"))
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.add_argument("--out", help="write the report to a file")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_classify)

    sp = with_type(sub.add_parser("verify", help="run verification suites"))
    sp.add_argument(
        "--suite",
        required=True,
        choices=SUITE_NAMES + ["all"],
    )
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.add_argument(
        "--samples",
        type=_positive_int,
        default=None,
        help="sample count for large groups (default: exhaustive when small)",
    )
    sp.set_defaults(func=_cmd_verify)
    return p


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UnsupportedTypeError, WordError, OrderCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a broken engine invariant, also from a worker
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that closes stdout ends bhl as it ends cat: by SIGPIPE,
    # without a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
