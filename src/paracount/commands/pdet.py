"""`pdet`: the parameterised determinant of a 0/1 matrix (counting module `pdet`)."""
from __future__ import annotations

from . import _load_json, _report


def add_arguments(det, command):
    det.add_argument("--matrix", required=True)
    det.add_argument("--k", type=int, required=True)
    det.add_argument("--method", choices=["direct", "clow"], default="direct")


def run(pdm, args):
    matrix = pdm.matrix_from_json(_load_json(args, "matrix"))
    method = pdm.pdet_clow if args.method == "clow" else pdm.pdet_direct
    _report(args, method(matrix, args.k, args.limit), False, key="value")
