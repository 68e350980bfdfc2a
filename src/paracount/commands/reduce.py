"""`reduce`: run a count-preserving instance transform (counting module `reductions`)."""
from __future__ import annotations

import json

from . import _load_json

#: The keys of `reductions.standard_records()`, spelt out so that reading
#: the command line imports no counting module (a test keeps the two equal).
REDUCTIONS = ("hom-to-reach", "reach-to-mc", "reach-to-pdet", "reachcolour-to-hom")

OPTIONS = {"reduce": (
    ("--name", "name", REDUCTIONS, ..., None),
    ("--in", "infile", str, ..., None),
    ("--out", "outfile", str, ..., None),
)}


def run(redm, args):
    record = redm.standard_records()[args.name]
    transformed = record.transform(record.read(_load_json(args, "infile")))
    out, extra = record.write(transformed)
    sidecar = {"name": record.name, "kPrime": record.param_of(transformed), **extra}
    for path, doc in ((args.outfile, out), (args.outfile + ".record.json", sidecar)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({**sidecar, "out": args.outfile}))
