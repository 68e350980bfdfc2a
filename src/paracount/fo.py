"""Satisfying assignments of quantifier-free formulas, and the formula file format.

A formula's assignments are tuples over its free variables, ordered by
first occurrence (``formulas``).  This module holds the brute-force count,
an enumeration over all tuples with its own evaluation, which is the
reference oracle for the locality sweep of ``sweep``.  The syntax and the
measures live in ``formulas``, the structures in ``structures``.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping

from .errors import DEFAULT_LIMIT, CountingError, check_limit, read_array, read_fields, read_name
from .formulas import (Atom, Connective, ConstRef, Eq, Node, QFFormula, Term, Var,
                       check_signature, eval_atom)

# `RelationalStructure` appears only in annotations, never evaluated.  No import
# of `sweep` here: a brute-force `mc` process compiles neither it nor `walks`.


# ---------------------------------------------------------------------------
# Brute-force evaluation
# ---------------------------------------------------------------------------


def _postorder(node: Node) -> list[Node]:
    """The nodes under ``node`` in post-order, by a stack: depth is not bounded by recursion."""
    order, stack = [], [node]
    while stack:
        order.append(stack.pop())
        if isinstance(order[-1], Connective):
            stack += order[-1].children
    order.reverse()
    return order


def _evaluate_postorder(
    order: list[Node], assignment: Mapping[str, int], structure: RelationalStructure
) -> bool:
    values: list[bool] = []
    for item in order:
        if not isinstance(item, Connective):
            values.append(eval_atom(item, assignment, structure))
        elif item.op == "not":
            values[-1] = not values[-1]
        else:
            start = len(values) - len(item.children)
            value = (all if item.op == "and" else any)(values[start:])
            del values[start:]
            values.append(value)
    return values[0]


def evaluate(
    node: Node, assignment: Mapping[str, int], structure: RelationalStructure
) -> bool:
    """Formula evaluation (the brute-force oracle's core), with no recursion."""
    return _evaluate_postorder(_postorder(node), assignment, structure)


def count_mc(
    phi: QFFormula, structure: RelationalStructure, k: int, limit: int = DEFAULT_LIMIT
) -> int:
    """|phi(A)| if k equals the formula size, 0 otherwise.

    Brute-force over all tuples of universe elements for the free variables;
    this is the oracle-grade reference implementation.  Raises LimitExceeded
    when those |A|^|free variables| tuples exceed ``limit``.
    """
    if k != phi.size:
        return 0
    names = phi.free_variables
    check_limit(structure.universe_size ** len(names), limit,
                f"candidate assignments ({structure.universe_size}^{len(names)})")
    check_signature(phi, structure)
    order, total = _postorder(phi.root), 0
    for values in itertools.product(range(structure.universe_size), repeat=len(names)):
        if _evaluate_postorder(order, dict(zip(names, values)), structure):
            total += 1
    return total


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def term_from_json(obj: dict) -> Term:
    read_fields(obj, "term", (), obj, "malformed-formula")
    for key, kind in (("var", Var), ("const", ConstRef)):
        if set(obj) == {key}:
            return kind(read_name(obj[key], key, "malformed-formula"))
    raise CountingError("malformed-formula", f"bad term {obj!r}")


def term_to_json(term: Term) -> dict:
    return {"var": term.name} if isinstance(term, Var) else {"const": term.name}


def _node_kind(doc) -> str:
    """Which formula node ``doc`` is, "op", "atom" or "eq", once its fields are checked."""
    read_fields(doc, "formula node", (), doc, "malformed-formula")
    kind = next((key for key in ("op", "atom", "eq") if key in doc), None)
    if kind is None:
        raise CountingError("malformed-formula", f"bad node {doc!r}")
    read_fields(doc, f"formula {kind}", (kind,), () if kind == "eq" else ("args",),
                "malformed-formula")
    return kind


def formula_node_from_json(obj: dict) -> Node:
    """Read a formula node in document order by an explicit stack, one frame
    per open connective, so nesting depth is not bounded by recursion."""
    root: list[Node] = []
    stack = [("", root, iter([obj]))]  # (op, children read, child documents left)
    while stack:
        op, children, pending = stack[-1]
        for doc in pending:
            kind = _node_kind(doc)
            if kind == "op":
                stack.append((str(doc["op"]), [], iter(_args_of(doc))))
                break
            children.append(_leaf_from_json(doc, kind))
        else:
            stack.pop()
            if stack:
                stack[-1][1].append(Connective(op, tuple(children)))
    return root[0]


def _args_of(obj: dict) -> list:
    return read_array(obj.get("args", []), '"args"', code="malformed-formula")


def _leaf_from_json(obj: dict, kind: str) -> Atom | Eq:
    if kind == "atom":
        relation = read_name(obj["atom"], "relation", "malformed-formula")
        return Atom(relation, tuple(term_from_json(t) for t in _args_of(obj)))
    left, right = read_array(obj["eq"], '"eq"', 2, "malformed-formula")
    return Eq(term_from_json(left), term_from_json(right))


def formula_from_json(obj: dict) -> QFFormula:
    return QFFormula(formula_node_from_json(obj))


def formula_node_to_json(node: Node) -> dict:
    if isinstance(node, Connective):
        return {"op": node.op, "args": [formula_node_to_json(c) for c in node.children]}
    if isinstance(node, Atom):
        return {"atom": node.relation, "args": [term_to_json(t) for t in node.args]}
    return {"eq": [term_to_json(node.left), term_to_json(node.right)]}


def __getattr__(name: str):  # a name moved out of this module (`paracount._MOVED`)
    from . import _moved
    return _moved(__name__, name)
