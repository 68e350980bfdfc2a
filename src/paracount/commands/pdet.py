"""`pdet`: the parameterised determinant of a 0/1 matrix (counting module `pdet`)."""
from __future__ import annotations

from . import _load_json, _report


OPTIONS = {"pdet": (
    ("--matrix", "matrix", str, ..., None),
    ("--k", "k", int, ..., None),
    ("--method", "method", ("direct", "clow"), "direct", None),
)}


def run(pdm, args):
    matrix = pdm.matrix_from_json(_load_json(args, "matrix"))
    method = pdm.pdet_clow if args.method == "clow" else pdm.pdet_direct
    _report(args, method(matrix, args.k, args.limit), False, key="value")
