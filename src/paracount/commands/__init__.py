"""The CLI's runners, one module per subcommand family, each with
``OPTIONS`` and ``run(module, args)``; ``module`` is the counting module
that `paracount.cli.COMMANDS` names.  ``OPTIONS`` maps each subcommand to its
options, in help order, as ``(flag, dest, kind, default, help)``: ``kind`` is
``str``, ``int``, ``bool`` (store-true) or a tuple of choices, and a default
of ``...`` marks a required option.  The CLI imports a family's module only
once the command line names one of its subcommands.  None imports
`paracount.cli`: under ``python -m paracount.cli`` that module is
``__main__``, and importing it would compile it a second time.

This module holds what every runner shares: input files and the report.
"""
from __future__ import annotations

import json
import sys
import time

from ..errors import CountingError


def _read(args, option: str) -> str:
    """The text of the file named by ``option``, kept in ``args.inputs`` for the digest."""
    path = getattr(args, option)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            args.inputs[option] = handle.read()
    except FileNotFoundError:
        raise CountingError("file-not-found", path)
    return args.inputs[option]


def _load_json(args, option: str) -> dict:
    path = getattr(args, option)
    try:
        obj = json.loads(_read(args, option))
    except json.JSONDecodeError as exc:
        raise CountingError("malformed-json", f"{path}: {exc}")
    # Newer decoders read past the recursion limit; refuse such documents as older ones do.
    level = [obj] if isinstance(obj, (dict, list)) else []
    for _ in range(sys.getrecursionlimit()):
        level = [child for item in level
                 for child in (item.values() if isinstance(item, dict) else item)
                 if isinstance(child, (dict, list))]
        if not level:
            return obj
    raise RecursionError(f"{path} nests deeper than the recursion limit")


def _digest(payload) -> str:
    # The interpreter's own sha256 (`_sha2` from 3.12, `_sha256` before), not
    # OpenSSL's through `hashlib`, which costs every process megabytes; loaded
    # here, not at the top, so a refusal loads neither.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _report(args, value: int, gate_applied: bool, key="count"):
    """Print the report.  Its digest covers every option but ``--limit``, which
    caps work and never changes a count, and the text of each input file in
    place of its path (``args.inputs``)."""
    elapsed_ms = int((time.monotonic() - args.started) * 1000)
    run = {name: v for name, v in vars(args).items()
           if name not in ("limit", "started", *args.inputs)}
    print(json.dumps({key: str(value), "gateApplied": bool(gate_applied),
                      "elapsedMs": elapsed_ms, "instanceDigest": _digest(run)}))
