"""Quantifier-free first-order formulas over finite relational structures.

A formula is walked once, depth first, into its atoms, each atom's path of
connective ancestors and each variable's span (first and last atom).  The
measures (size = syntax-tree node count, locality radius over the atom
order, maximal relation arity) and the free variables, ordered by first
occurrence, are read from these.  Satisfying assignments, tuples over that
ordering, are counted two ways: a brute-force enumeration over all tuples
(the reference oracle, with its own recursive evaluation) and a frontier
sweep, run by ``walks.propagate`` one atom per move, whose state keeps only
the variables whose span is open, as the locality bound permits, and the
accumulators of the atom's open and/or ancestors.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping

from .errors import (DEFAULT_LIMIT, CountingError, Record, check_limit, read_array, read_fields,
                     read_name)
from .structures import (RelationalStructure, Vocabulary,  # kept importable from here
                         structure_from_json, structure_to_json)
from .walks import propagate


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


class QFFormula:
    """A validated quantifier-free formula: its atoms in depth-first order,
    each atom's ancestor ``path`` and each variable's first and last atom
    (``spans``, in first-occurrence order), from one iterative walk."""

    def __init__(self, root: Node):
        self.root = root
        self.size = 0  # syntax-tree nodes: connectives plus atoms
        self.atoms: list[Atom | Eq] = []
        self.paths: list[_Path] = []
        self.spans: dict[str, tuple[int, int]] = {}
        stack: list[tuple[Node, _Path]] = [(root, ())]
        while stack:
            node, path = stack.pop()
            self.size += 1
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
                idx = len(self.atoms)
                self.atoms.append(node)
                self.paths.append(path)
                for var in atom_variables(node):
                    self.spans[var] = (self.spans.get(var, (idx,))[0], idx)
            else:
                raise CountingError("bad-node", f"unsupported node {node!r}")
        if not self.atoms:
            raise CountingError("no-atoms", "formula has no atoms")
        self.free_variables: tuple[str, ...] = tuple(self.spans)


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
# Evaluation
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
# Locality-exploiting sweep
# ---------------------------------------------------------------------------


def _opened(path: _Path) -> tuple[bool, ...]:
    """Identity accumulators (True for and, False for or) of the and/or
    ancestors an atom is the first to reach: those below the deepest
    ancestor it enters at a later child than the first."""
    start = max((depth + 1 for depth, (_, pos, _) in enumerate(path) if pos), default=0)
    return tuple(op == "and" for op, _, _ in path[start:] if op != "not")


def _feed(path: _Path, accs: tuple, value: bool, opened_next: tuple) -> tuple | bool:
    """Pass an atom's value up its path: ``not`` negates it, and/or fold it
    into their accumulator (the last of ``accs`` still open).  At a child that
    is not the last, the open accumulators plus those the next atom's path
    opens are the next state; past the root the value is the formula's."""
    open_count = len(accs)
    for op, pos, count in reversed(path):
        if op == "not":
            value = not value
            continue
        open_count -= 1
        acc = accs[open_count]
        value = (acc and value) if op == "and" else (acc or value)
        if pos + 1 < count:
            return (*accs[:open_count], value, *opened_next)
    return value


def count_mc_local(
    phi: QFFormula, structure: RelationalStructure, k: int, r: int, a: int
) -> int:
    """Same value as count_mc, computed by a frontier sweep.

    Runs ``walks.propagate`` over states (atom index, assignment to the live
    variables, accumulators of the open and/or ancestors), one move per atom
    in DFS order; the last atom's move lands on the formula's value, True or
    False.  A variable becomes live at its first atom and is discharged after
    its last, at most r atoms later as the formula is r-local; a state
    therefore holds assignments to at most w*r variables, w the most distinct
    variables in one atom (an equality binds two, whatever the arity a).

    A successor whose value the remaining atoms cannot change is decided: the
    formula is monotone in each atom occurrence's literal (its value, negated
    under an odd number of ``not``s), so feeding the remaining atoms all-low
    and all-high bounds it.  Decided false is dropped; decided true goes to
    the absorbing state ``(i, (), True)``, which makes |A|^(variables first
    bound at atom i) copies of itself per move.  When the atom's being false
    would decide false, a relational atom binds its fresh variables only to
    the tuples that match its bound arguments, read from a lazy index.
    """
    actual_r = locality_radius(phi)
    if actual_r > r:
        raise CountingError(
            "locality-violated", f"locality radius {actual_r} exceeds bound {r}"
        )
    actual_a = max_arity(phi)
    if actual_a > a:
        raise CountingError(
            "arity-violated", f"arity {actual_a} exceeds bound {a}"
        )
    if k != phi.size:
        return 0
    check_signature(phi, structure)

    atoms, paths, spans = phi.atoms, phi.paths, phi.spans
    opened = [_opened(path) for path in paths] + [()]
    negated = [sum(op == "not" for op, _, _ in path) % 2 == 1 for path in paths]
    first_bound = [0] * len(atoms)
    for first, _ in spans.values():
        first_bound[first] += 1
    size = structure.universe_size
    last = len(atoms) - 1
    extremes: tuple[dict, dict] = ({}, {})  # (i, accs) -> value, all-low and all-high
    index: dict = {}  # (relation, bound positions) -> bound values -> tuples

    def extreme(i: int, accs, high: bool) -> bool:
        """The formula's value when atoms i.. all take their high (or low) literal."""
        cache, chain = extremes[high], []
        while i <= last and (i, accs) not in cache:
            chain.append((i, accs))
            accs = _feed(paths[i], accs, high != negated[i], opened[i + 1])
            i += 1
        value = accs if i > last else cache[(i, accs)]
        cache.update(dict.fromkeys(chain, value))
        return value

    def decided(i: int, accs) -> bool | None:
        low = extreme(i, accs, False)
        return low if low == extreme(i, accs, True) else None

    def bindings(atom: Atom | Eq, live: dict, fresh: list, true_only: bool):
        """(assignment, atom value) for each value of the fresh variables; with
        ``true_only``, only the matching tuples of a relational atom, indexed
        by (relation, bound positions), a repeated fresh variable kept equal."""
        if not true_only:
            for values in itertools.product(range(size), repeat=len(fresh)):
                assignment = {**live, **dict(zip(fresh, values))}
                yield assignment, eval_atom(atom, assignment, structure)
            return
        args = atom.args
        positions = tuple(p for p, t in enumerate(args)
                          if not (isinstance(t, Var) and t.name in fresh))
        table = index.get((atom.relation, positions))
        if table is None:
            table = index[(atom.relation, positions)] = {}
            for tup in structure.interpretation[atom.relation]:
                table.setdefault(tuple(tup[p] for p in positions), []).append(tup)
        key = tuple(_term_value(args[p], live, structure) for p in positions)
        for tup in table.get(key, ()):
            assignment = dict(live)
            if all(assignment.setdefault(t.name, x) == x
                   for t, x in zip(args, tup) if isinstance(t, Var)):
                yield assignment, True

    def step(state: tuple):
        idx, live_items, accs = state
        nxt = idx + 1
        absorbed = True if idx == last else (nxt, (), True)
        if accs is True:
            yield from itertools.repeat(absorbed, size ** first_bound[idx])
            return
        atom, live = atoms[idx], dict(live_items)
        fresh = [v for v in atom_variables(atom) if v not in live]
        after = {value: _feed(paths[idx], accs, value, opened[nxt]) for value in (False, True)}
        verdict = {value: decided(nxt, acc) for value, acc in after.items()}
        true_only = bool(fresh) and isinstance(atom, Atom) and verdict[False] is False
        for assignment, value in bindings(atom, live, fresh, true_only):
            if verdict[value] is None:
                kept = (item for item in assignment.items() if spans[item[0]][1] > idx)
                yield (nxt, tuple(sorted(kept)), after[value])
            elif verdict[value]:
                yield absorbed

    start = {(0, (), opened[0]): 1}
    return propagate(start, len(atoms), step).get(True, 0)


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
