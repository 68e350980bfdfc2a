"""Quantifier-free first-order formulas over finite relational structures.

The module measures formulas (size = syntax-tree node count, locality
radius over the depth-first atom order, maximal relation arity) and counts
satisfying assignments to the free variables two ways: a brute-force
enumeration over all tuples (the reference oracle) and a frontier sweep,
run by ``walks.propagate`` one atom per move, that only ever keeps the
variables bound in the last r atoms alive, as the locality bound permits.

Free variables are ordered by first occurrence in the order-respecting
depth-first traversal; the counted set is the set of tuples over that
ordering that satisfy the formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import DEFAULT_LIMIT, CountingError, check_limit, read_int, reject_unknown_fields
from .walks import propagate


# ---------------------------------------------------------------------------
# Vocabulary and structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    relations: tuple[tuple[str, int], ...]
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.relations] + list(self.constants)
        if len(names) != len(set(names)):
            raise CountingError("duplicate-symbol", "vocabulary names must be unique")
        for name, arity in self.relations:
            if arity < 1:
                raise CountingError("bad-arity", f"relation {name} has arity {arity}")


class RelationalStructure:
    """Finite structure: universe {0, ..., universe_size-1} plus interpretations."""

    def __init__(
        self,
        vocab: Vocabulary,
        universe_size: int,
        interpretation: Mapping[str, object],
        constant_values: Mapping[str, int] | None = None,
    ):
        if universe_size < 1:
            raise CountingError("empty-universe", "universe must be nonempty")
        self.vocab = vocab
        self.universe_size = universe_size
        declared = dict(vocab.relations)
        self.interpretation: dict[str, frozenset[tuple[int, ...]]] = {}
        for name in interpretation:
            if name not in declared:
                raise CountingError(
                    "symbol-not-interpreted", f"relation {name} not in vocabulary"
                )
        for name, arity in vocab.relations:
            tuples = set()
            for tup in interpretation.get(name, ()):
                tup = tuple(read_int(x, "element") for x in tup)
                if len(tup) != arity:
                    raise CountingError(
                        "bad-arity",
                        f"tuple {tup} has width {len(tup)}, {name} has arity {arity}",
                    )
                if any(not (0 <= x < universe_size) for x in tup):
                    raise CountingError(
                        "element-out-of-range", f"tuple {tup} outside universe"
                    )
                tuples.add(tup)
            self.interpretation[name] = frozenset(tuples)
        constant_values = dict(constant_values or {})
        for name in constant_values:
            if name not in vocab.constants:
                raise CountingError(
                    "symbol-not-interpreted", f"constant {name} not in vocabulary"
                )
        for name in vocab.constants:
            if name not in constant_values:
                raise CountingError(
                    "symbol-not-interpreted", f"constant {name} has no value"
                )
            value = read_int(constant_values[name], f"constant {name}")
            if not (0 <= value < universe_size):
                raise CountingError(
                    "element-out-of-range", f"constant {name} = {value}"
                )
        self.constant_values = constant_values

    def __eq__(self, other):
        return (
            isinstance(other, RelationalStructure)
            and self.vocab == other.vocab
            and self.universe_size == other.universe_size
            and self.interpretation == other.interpretation
            and self.constant_values == other.constant_values
        )

    def __repr__(self):
        return (
            f"RelationalStructure(universe={self.universe_size}, "
            f"relations={sorted(self.interpretation)})"
        )


# ---------------------------------------------------------------------------
# Formula syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ConstRef:
    name: str


Term = Union[Var, ConstRef]


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Connective:
    op: str  # "and" | "or" | "not"
    children: tuple["Node", ...]


Node = Union[Atom, Eq, Connective]

_CONNECTIVES = {"and", "or", "not"}


class QFFormula:
    """A validated quantifier-free formula with derived DFS atom order."""

    def __init__(self, root: Node):
        self.root = root
        self.atoms: list[Atom | Eq] = []
        self._node_count = 0
        self._validate(root)
        if not self.atoms:
            raise CountingError("no-atoms", "formula has no atoms")
        self.free_variables: tuple[str, ...] = self._first_occurrence_order()

    def _validate(self, node: Node) -> None:
        self._node_count += 1
        if isinstance(node, Connective):
            if node.op not in _CONNECTIVES:
                raise CountingError("bad-connective", f"unknown op {node.op!r}")
            if node.op == "not" and len(node.children) != 1:
                raise CountingError("bad-connective", "not takes exactly one child")
            if node.op in ("and", "or") and len(node.children) == 0:
                raise CountingError(
                    "no-atoms", f"{node.op} over nothing is rejected"
                )
            for child in node.children:
                self._validate(child)
        elif isinstance(node, (Atom, Eq)):
            self.atoms.append(node)
        else:
            raise CountingError("bad-node", f"unsupported node {node!r}")

    def _first_occurrence_order(self) -> tuple[str, ...]:
        seen: list[str] = []
        for atom in self.atoms:
            for term in _atom_terms(atom):
                if isinstance(term, Var) and term.name not in seen:
                    seen.append(term.name)
        return tuple(seen)

    @property
    def size(self) -> int:
        return self._node_count


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
    occurrences: dict[str, list[int]] = {}
    for idx, atom in enumerate(phi.atoms):
        for var in atom_variables(atom):
            occurrences.setdefault(var, []).append(idx)
    radius = 0
    for positions in occurrences.values():
        radius = max(radius, positions[-1] - positions[0])
    return radius


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


def evaluate(
    node: Node, assignment: Mapping[str, int], structure: RelationalStructure
) -> bool:
    """Recursive formula evaluation (the brute-force oracle's core)."""
    if isinstance(node, Connective):
        if node.op == "not":
            return not evaluate(node.children[0], assignment, structure)
        values = [evaluate(c, assignment, structure) for c in node.children]
        return all(values) if node.op == "and" else any(values)
    return eval_atom(node, assignment, structure)


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
    total = 0
    for values in itertools.product(range(structure.universe_size), repeat=len(names)):
        if evaluate(phi.root, dict(zip(names, values)), structure):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Locality-exploiting sweep
# ---------------------------------------------------------------------------


class _StreamEvaluator:
    """Evaluates the tree from a stream of atom truth values in DFS order.

    A state is a tuple of frames (node_serial, next_child, acc); feeding the
    final atom's value collapses the stack to the formula's truth value.  The
    stack depth is bounded by the tree depth, so states are small hashable keys.
    """

    def __init__(self, phi: QFFormula):
        self._serial: dict[int, int] = {}
        self._nodes: list[Node] = []
        self._index(phi.root)
        self.root = phi.root

    def _index(self, node: Node) -> None:
        self._serial[id(node)] = len(self._nodes)
        self._nodes.append(node)
        if isinstance(node, Connective):
            for child in node.children:
                self._index(child)

    def _descend(self, frames: list, node: Node) -> None:
        while isinstance(node, Connective):
            acc = node.op == "and"  # identity element; unused for "not"
            frames.append((self._serial[id(node)], 0, acc))
            node = node.children[0]

    def initial_state(self) -> tuple:
        frames: list = []
        self._descend(frames, self.root)
        return tuple(frames)

    def feed(self, state: tuple, value: bool) -> tuple | bool:
        """The next state, or the formula's value after the last atom."""
        frames = list(state)
        cur = value
        while frames:
            serial, child_idx, acc = frames.pop()
            node = self._nodes[serial]
            assert isinstance(node, Connective)
            if node.op == "not":
                cur = not cur
                continue
            acc = (acc and cur) if node.op == "and" else (acc or cur)
            child_idx += 1
            if child_idx == len(node.children):
                cur = acc
                continue
            frames.append((serial, child_idx, acc))
            self._descend(frames, node.children[child_idx])
            return tuple(frames)
        return cur


def count_mc_local(
    phi: QFFormula, structure: RelationalStructure, k: int, r: int, a: int
) -> int:
    """Same value as count_mc, computed by a frontier sweep.

    Runs ``walks.propagate`` over states (atom index, assignment to the live
    variables, partial evaluation state), one move per atom in DFS order;
    the last atom's move lands on the formula's value, True or False.  A
    variable becomes live at its first atom and is discharged once r further
    atoms have passed, which is sound because the formula is r-local; a
    state therefore holds assignments to at most a*r variables.
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

    first_occ: dict[str, int] = {}
    for idx, atom in enumerate(phi.atoms):
        for var in atom_variables(atom):
            first_occ.setdefault(var, idx)

    evaluator = _StreamEvaluator(phi)
    universe = range(structure.universe_size)
    last = len(phi.atoms) - 1

    def step(state: tuple):
        idx, live_items, eval_state = state
        atom = phi.atoms[idx]
        live = dict(live_items)
        fresh = [v for v in atom_variables(atom) if v not in live]
        for values in itertools.product(universe, repeat=len(fresh)):
            assignment = dict(live)
            assignment.update(zip(fresh, values))
            after = evaluator.feed(eval_state, eval_atom(atom, assignment, structure))
            if idx == last:
                yield after
            else:
                kept = (item for item in assignment.items() if first_occ[item[0]] + r > idx)
                yield (idx + 1, tuple(sorted(kept)), after)

    start = {(0, (), evaluator.initial_state()): 1}
    return propagate(start, len(phi.atoms), step).get(True, 0)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def term_from_json(obj: dict) -> Term:
    if not isinstance(obj, dict):
        raise CountingError("malformed-formula", f"bad term {obj!r}")
    if set(obj) == {"var"}:
        return Var(str(obj["var"]))
    if set(obj) == {"const"}:
        return ConstRef(str(obj["const"]))
    raise CountingError("malformed-formula", f"bad term {obj!r}")


def term_to_json(term: Term) -> dict:
    return {"var": term.name} if isinstance(term, Var) else {"const": term.name}


def formula_node_from_json(obj: dict) -> Node:
    if not isinstance(obj, dict):
        raise CountingError("malformed-formula", f"bad node {obj!r}")
    if "op" in obj:
        reject_unknown_fields(obj, {"op", "args"}, "formula node")
        return Connective(
            str(obj["op"]),
            tuple(formula_node_from_json(c) for c in obj.get("args", [])),
        )
    if "atom" in obj:
        reject_unknown_fields(obj, {"atom", "args"}, "formula atom")
        return Atom(
            str(obj["atom"]), tuple(term_from_json(t) for t in obj.get("args", []))
        )
    if "eq" in obj:
        reject_unknown_fields(obj, {"eq"}, "formula equality")
        pair = obj["eq"]
        if len(pair) != 2:
            raise CountingError("malformed-formula", "eq takes two terms")
        return Eq(term_from_json(pair[0]), term_from_json(pair[1]))
    raise CountingError("malformed-formula", f"bad node {obj!r}")


def formula_from_json(obj: dict) -> QFFormula:
    return QFFormula(formula_node_from_json(obj))


def formula_node_to_json(node: Node) -> dict:
    if isinstance(node, Connective):
        return {"op": node.op, "args": [formula_node_to_json(c) for c in node.children]}
    if isinstance(node, Atom):
        return {"atom": node.relation, "args": [term_to_json(t) for t in node.args]}
    return {"eq": [term_to_json(node.left), term_to_json(node.right)]}


STRUCTURE_FIELDS = {"vocabulary", "universeSize", "interpretation", "constantValues"}


def structure_from_json(obj: dict) -> RelationalStructure:
    if not isinstance(obj, dict):
        raise CountingError("malformed-structure", "structure file must be an object")
    reject_unknown_fields(obj, STRUCTURE_FIELDS, "structure")
    voc = obj.get("vocabulary", {})
    reject_unknown_fields(voc, {"relations", "constants"}, "vocabulary")
    relations = voc.get("relations", [])
    vocab = Vocabulary(
        tuple((str(name), read_int(arity, "arity")) for name, arity in relations),
        tuple(str(c) for c in voc.get("constants", [])),
    )
    return RelationalStructure(
        vocab,
        read_int(obj["universeSize"], "universeSize"),
        {
            str(name): [tuple(t) for t in tuples]
            for name, tuples in obj.get("interpretation", {}).items()
        },
        {str(k): v for k, v in obj.get("constantValues", {}).items()},
    )


def structure_to_json(structure: RelationalStructure) -> dict:
    return {
        "vocabulary": {
            "relations": [list(r) for r in structure.vocab.relations],
            "constants": list(structure.vocab.constants),
        },
        "universeSize": structure.universe_size,
        "interpretation": {
            name: sorted([list(t) for t in tuples])
            for name, tuples in structure.interpretation.items()
        },
        "constantValues": dict(sorted(structure.constant_values.items())),
    }
