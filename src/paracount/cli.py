"""Batch command-line front end.

One subcommand per counting problem, plus `reduce` for the instance
transforms and `selftest` for the cross-oracle property battery.  On
success a single JSON report goes to stdout with the exact count as a
decimal string; diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error (stable error name on stderr), 2 usage error.  A process imports only
the command module and the counting module of its subcommand (see
`COMMANDS`).  A command line in the canonical spelling (`_direct`) builds
no parser: argparse, imported by `_build_parser` alone, parses any other and
so prints all help and every usage error.
"""
from __future__ import annotations

import gc
import importlib
import os
import sys
import time
from types import SimpleNamespace

from .errors import DEFAULT_LIMIT, CountingError


def _limit(text: str) -> int:
    if not text.isdecimal():
        raise ValueError(
            f"{text!r} is not a non-negative integer (--limit or env PARACOUNT_LIMIT)")
    return int(text)


def _direct(argv: list[str]):
    """argparse's namespace for ``argv`` in the canonical spelling, else None:
    ``--limit N`` or nothing, the subcommand, then each option of its table at
    most once as ``--flag value`` (a store-true flag bare) with no value that
    starts with ``-``, every required option (default ``...``) among them."""
    limit = os.environ.get("PARACOUNT_LIMIT", str(DEFAULT_LIMIT))
    if argv[:1] == ["--limit"] and len(argv) > 1:
        limit, argv = argv[1], argv[2:]
    if not argv or argv[0] not in COMMANDS:
        return None
    options = _command_module(argv[0]).OPTIONS[argv[0]]
    table = {flag: (dest, kind) for flag, dest, kind, _, _ in options}
    args = {dest: default for _, dest, _, default, _ in options}
    tokens = iter(argv[1:])
    try:
        args.update(limit=_limit(limit), command=argv[0])
        for flag in tokens:
            dest, kind = table.pop(flag)  # KeyError: an unknown flag, or one given twice
            value = True if kind is bool else next(tokens, "-")
            if kind is not bool and (value.startswith("-")
                                     or isinstance(kind, tuple) and value not in kind):
                return None
            args[dest] = int(value) if kind is int else value
    except (KeyError, ValueError):
        return None
    return None if ... in args.values() else SimpleNamespace(**args)


class _Subcommand:
    """The ``parser_class`` of the subcommands: it imports a subcommand's
    command module and builds its parser only once argparse selects that
    subcommand.  argparse calls nothing on a subparser but
    ``parse_known_args`` (3.10 to 3.13; the usage tests hold it to that),
    so the other subcommands keep their help line and choice name without a
    parser or a command module of their own."""

    def __init__(self, prog: str, command: str):
        self.prog, self.command = prog, command

    def parse_known_args(self, args=None, namespace=None):
        import argparse

        parser = argparse.ArgumentParser(prog=self.prog)
        for flag, dest, kind, default, help_text in \
                _command_module(self.command).OPTIONS[self.command]:
            if kind is bool:
                parser.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                parser.add_argument(flag, dest=dest, type=int if kind is int else None,
                                    choices=kind if isinstance(kind, tuple) else None,
                                    required=default is ..., default=default, help=help_text)
        return parser.parse_known_args(args, namespace)


def _command_module(command: str):
    return importlib.import_module(f".commands.{COMMANDS[command][1]}", __package__)


def _build_parser():
    import argparse

    def limit(text: str) -> int:
        try:
            return _limit(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = argparse.ArgumentParser(
        prog="paracount", description="Exact parameterised counting at desk scale."
    )
    parser.add_argument(
        "--limit",
        type=limit,  # argparse converts a string default too: a bad env value is a usage error
        default=os.environ.get("PARACOUNT_LIMIT", str(DEFAULT_LIMIT)),
        help="cap on the candidates of every exhaustive route (env PARACOUNT_LIMIT)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


#: Subcommand -> (help line, its module in `paracount.commands`, the
#: `paracount` module its runner is handed).  Runners call counters through
#: that module, so a function rebound there is the one run.
COMMANDS = {
    "reach": ("s-t walks with exactly k vertices", "graph", "walks"),
    "logreach": ("s-t walks of a edges under the log gate", "graph", "walks"),
    "logwalk": ("all walks of a edges under the log gate", "graph", "walks"),
    "reachcolour": ("colour-respecting s-t walks", "graph", "walks"),
    "reach2cnf": ("CNF-constrained s-t walks of a edges", "graph", "cnf"),
    "cyclecover2cnf": ("CNF-constrained cycle covers", "graph", "covers"),
    "mc": ("satisfying assignments of a quantifier-free formula", "mc", "fo"),
    "hom": ("homomorphisms from the starred path", "hom", "homs"),
    "pdet": ("parameterised determinant of a 0/1 matrix", "pdet", "pdet"),
    "bp": ("branching-program acceptance and counting", "bp", "bp"),
    "reduce": ("run a count-preserving instance transform", "reduce", "reductions"),
    "selftest": ("cross-oracle property battery", "selftest", "selftest"),
}


def _run(args) -> int:
    command = _command_module(args.command)
    mod = importlib.import_module(f".{COMMANDS[args.command][2]}", __package__)
    args.inputs, args.started = {}, time.monotonic()  # `_read` fills the one, `_report` reads both
    return command.run(mod, args) or 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _direct(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except CountingError as exc:
        reason = f"{exc.code}: {exc.message}"
    except OSError as exc:
        reason = f"io-error: {exc}"
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        reason = f"malformed-instance: {exc!r}"
    except RecursionError:
        reason = "instance-too-deep: input nests too deeply to read"
    print(f"error: {reason}", file=sys.stderr)
    return 1


def run():
    """The process entry (``python -m paracount.cli`` and the ``paracount`` script)."""
    gc.freeze()  # the start-up heap lives until exit: no collection, shutdown's too, need walk it
    sys.exit(main())


if __name__ == "__main__":
    run()
