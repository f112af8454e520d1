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
diagnostics go to stderr. Exit codes: 0 success, 1 verification failure,
a broken engine invariant (its message names the triple) or output that
cannot be written (a full disk or device), 2 usage error; where the
platform has SIGPIPE, a closed stdout ends the process by that signal,
with nothing on stderr.

``--jobs`` and ``--samples`` must be at least 1, written in the ASCII
digits 0-9 only; at most min(N, |W|, cpu count) worker processes are
started. ``classify --out`` removes a report it created when the run fails
before the report is written whole, and never a path that existed before.

Environment: BHL_MAX_ORDER, a positive integer in ASCII digits, overrides
the group order cap.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys

from .coxeter import (
    CoxeterGroup,
    OrderCapError,
    UnsupportedTypeError,
    WordError,
    _is_ascii_number,
    build_group,
)
from .demazure import mixed_meet, v_min
from .hecke import ThetaTable
from .rpoly import RPolyTable
from .sigma import SigmaEngine, classify
from .verify import SUITE_NAMES, run_suite


def _ascii_int(text: str) -> int:
    """text as an int when, stripped, it is one or more ASCII digits, else
    0. Decimal, unlike int(), reads a digit string of any length; it is
    imported here, as json is below, so that import bhl.cli loads neither."""
    from decimal import Decimal

    return int(Decimal(text)) if _is_ascii_number(text.strip()) else 0


def _build(args) -> CoxeterGroup:
    cap = os.environ.get("BHL_MAX_ORDER")
    if not cap:
        return build_group(args.type)
    max_order = _ascii_int(cap)
    if max_order < 1:
        raise ValueError(f"BHL_MAX_ORDER must be a positive integer, got {cap!r}")
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


def _rpoly_text(args, g: CoxeterGroup, u, v) -> str:
    rtable = RPolyTable(g)
    return str(rtable.bar_r_idx(u.index, v.index) if args.bar else rtable.r(u, v))


def _sigma_text(args, g: CoxeterGroup, u, v, w) -> str:
    val = SigmaEngine(g).sigma(u, v, w)
    if args.format != "json":
        return f"σ = {val}"
    import json

    return json.dumps(
        {"type": str(g.cartan_type), "u": u.word(), "v": v.word(), "w": w.word(),
         "sigma": str(val)}
    )


# The subcommands that read element words: name -> (help, the word options
# read, in order, and the text printed for (args, group, those elements)).
_WORD_COMMANDS = {
    "meet": ("mixed meet of u and w", "uw", lambda args, g, u, w: mixed_meet(u, w).word()),
    "vmin": ("least v with nonzero sigma", "uw", lambda args, g, u, w: v_min(u, w).word()),
    "theta": ("pairing polynomial", "xyw", lambda args, g, *xyw: ThetaTable(g).theta(*xyw)),
    "rpoly": ("deformed R rational function", "uv", _rpoly_text),
    "sigma": ("the matrix coefficient", "uvw", _sigma_text),
}


def _cmd_words(args) -> int:
    g = _build(args)
    _, letters, text = _WORD_COMMANDS[args.command]
    print(text(args, g, *(g.from_word(getattr(args, c)) for c in letters)))
    return 0


def _cmd_classify(args) -> int:
    g = _build(args)
    created = False
    if args.out:
        # fail on an unwritable path now, not after the whole run; append
        # mode leaves an existing report as it is until the new one is ready
        created = not os.path.lexists(args.out)
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    try:
        report = classify(g, jobs=args.jobs)
        text = report.to_csv_text() if args.format == "csv" else report.to_json_text()
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:  # name the file the write error came from
                raise OSError(exc.errno, exc.strerror, args.out) from None
        else:
            sys.stdout.write(text)
    except BaseException:
        # a report this run created but did not finish goes; a path that
        # existed before is never removed (it may be a device)
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        raise
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
    n = _ascii_int(text)
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

    for name, (text, letters, _) in _WORD_COMMANDS.items():
        sp = with_type(sub.add_parser(name, help=text))
        for c in letters:
            sp.add_argument("-" + c, required=True)
        sp.set_defaults(func=_cmd_words)
    sub.choices["rpoly"].add_argument("--bar", action="store_true", help="replace q by q^-1")
    sub.choices["sigma"].add_argument("--format", choices=("text", "json"), default="text")

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
        code = args.func(args)
        sys.stdout.flush()  # a write error shows here, not at interpreter exit
        return code
    except (UnsupportedTypeError, WordError, OrderCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a broken engine invariant, also from a worker
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. the output went to a full disk
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that closes stdout ends bhl as it ends cat: by SIGPIPE,
    # without a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # run() has reported it; drop what cannot be written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
