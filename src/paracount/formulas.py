"""Quantifier-free first-order formulas: syntax, measures and atom truth.

A formula is walked once, depth first, into its atoms, each atom's path of
connective ancestors and each variable's span (first and last atom).  The
measures (size = syntax-tree node count, locality radius over the atom
order, maximal relation arity) and the free variables, ordered by first
occurrence, are read from these.  Both counters of satisfying assignments
work over this walk: the brute-force enumeration in ``fo`` and the frontier
sweep in ``sweep``.
"""
from __future__ import annotations

from collections.abc import Mapping

from .errors import CountingError, FrozenMap, Record

# `RelationalStructure` appears only in annotations, never evaluated.


# ---------------------------------------------------------------------------
# Formula syntax
# ---------------------------------------------------------------------------


class Var(Record):
    __slots__ = _fields = ("name",)
    name: str


class ConstRef(Record):
    __slots__ = _fields = ("name",)
    name: str


Term = Var | ConstRef


class Atom(Record):
    __slots__ = _fields = ("relation", "args")
    relation: str
    args: tuple[Term, ...]


class Eq(Record):
    __slots__ = _fields = ("left", "right")
    left: Term
    right: Term


class Connective(Record):
    __slots__ = _fields = ("op", "children")
    op: str  # "and" | "or" | "not"
    children: tuple["Node", ...]


Node = Atom | Eq | Connective

_CONNECTIVES = {"and", "or", "not"}
_Path = tuple[tuple[str, int, int], ...]  # (op, child position, child count), root first


class QFFormula(Record):
    """A validated quantifier-free formula: its atoms in depth-first order,
    each atom's ancestor ``path`` and each variable's first and last atom
    (``spans``, in first-occurrence order), from one iterative walk.  Only
    the root is compared; the rest is derived from it."""

    _fields = ("root",)
    __slots__ = (*_fields, "size", "atoms", "paths", "spans", "free_variables")
    root: Node
    size: int  # syntax-tree nodes: connectives plus atoms
    atoms: tuple[Atom | Eq, ...]
    paths: tuple[_Path, ...]
    spans: FrozenMap  # variable -> (first atom, last atom)
    free_variables: tuple[str, ...]

    def __init__(self, root: Node):
        size, atoms, paths, spans = 0, [], [], {}
        stack: list[tuple[Node, _Path]] = [(root, ())]
        while stack:
            node, path = stack.pop()
            size += 1
            if isinstance(node, Connective):
                if node.op not in _CONNECTIVES:
                    raise CountingError("bad-connective", f"unknown op {node.op!r}")
                if node.op == "not" and len(node.children) != 1:
                    raise CountingError("bad-connective", "not takes exactly one child")
                if node.op in ("and", "or") and len(node.children) == 0:
                    raise CountingError(
                        "no-atoms", f"{node.op} over nothing is rejected"
                    )
                count = len(node.children)
                for pos in reversed(range(count)):
                    stack.append((node.children[pos], (*path, (node.op, pos, count))))
            elif isinstance(node, (Atom, Eq)):
                idx = len(atoms)
                atoms.append(node)
                paths.append(path)
                for var in atom_variables(node):
                    spans[var] = (spans.get(var, (idx,))[0], idx)
            else:
                raise CountingError("bad-node", f"unsupported node {node!r}")
        if not atoms:
            raise CountingError("no-atoms", "formula has no atoms")
        self._set(root=root, size=size, atoms=tuple(atoms), paths=tuple(paths),
                  spans=FrozenMap(spans), free_variables=tuple(spans))


def _atom_terms(atom: Atom | Eq) -> tuple[Term, ...]:
    return atom.args if isinstance(atom, Atom) else (atom.left, atom.right)


def atom_variables(atom: Atom | Eq) -> tuple[str, ...]:
    out = []
    for term in _atom_terms(atom):
        if isinstance(term, Var) and term.name not in out:
            out.append(term.name)
    return tuple(out)


def formula_size(phi: QFFormula) -> int:
    """Number of syntax-tree nodes (connectives plus atoms)."""
    return phi.size


def locality_radius(phi: QFFormula) -> int:
    """Least r such that any two atoms sharing a variable are <= r apart
    in the depth-first atom order; 0 when no variable spans two atoms."""
    return max((last - first for first, last in phi.spans.values()), default=0)


def max_arity(phi: QFFormula) -> int:
    """Largest arity among relation symbols in the formula; 0 for pure equality."""
    return max(
        (len(atom.args) for atom in phi.atoms if isinstance(atom, Atom)), default=0
    )


# ---------------------------------------------------------------------------
# Atom truth
# ---------------------------------------------------------------------------


def check_signature(phi: QFFormula, structure: RelationalStructure) -> None:
    """Refuse uninterpreted relations or constants and wrong arities, in the
    order evaluation meets the atoms; evaluation then trusts the symbols."""
    arities = dict(structure.vocab.relations)
    for atom in phi.atoms:
        if isinstance(atom, Atom) and atom.relation not in arities:
            raise CountingError("symbol-not-interpreted", f"relation {atom.relation}")
        for term in _atom_terms(atom):
            if isinstance(term, ConstRef) and term.name not in structure.constant_values:
                raise CountingError("symbol-not-interpreted", f"constant {term.name}")
        if isinstance(atom, Atom) and len(atom.args) != arities[atom.relation]:
            raise CountingError("bad-arity", f"{atom.relation} used with {len(atom.args)} "
                                f"arguments, declared {arities[atom.relation]}")


def _term_value(
    term: Term, assignment: Mapping[str, int], structure: RelationalStructure
) -> int:
    if isinstance(term, Var):
        if term.name not in assignment:
            raise CountingError("unassigned-variable", f"variable {term.name}")
        return assignment[term.name]
    return structure.constant_values[term.name]


def eval_atom(
    atom: Atom | Eq, assignment: Mapping[str, int], structure: RelationalStructure
) -> bool:
    """Truth of one atom; the symbols are trusted (see ``check_signature``)."""
    if isinstance(atom, Eq):
        return _term_value(atom.left, assignment, structure) == _term_value(
            atom.right, assignment, structure
        )
    tup = tuple(_term_value(t, assignment, structure) for t in atom.args)
    return tup in structure.interpretation[atom.relation]
