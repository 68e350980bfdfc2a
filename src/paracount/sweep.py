"""The locality sweep: satisfying assignments of a quantifier-free formula
counted by a frontier sweep, run by ``walks.propagate`` one atom per move.

A state keeps only the variables whose span is open, as the locality bound
permits, and the accumulators of the atom's open and/or ancestors.  The
brute-force count it is checked against is ``fo.count_mc``.
"""
from __future__ import annotations

import itertools

from .errors import CountingError
from .formulas import (Atom, Var, _term_value, atom_variables, check_signature, eval_atom,
                       locality_radius, max_arity)
from .walks import propagate

# `QFFormula`, `RelationalStructure` and `_Path` appear only in annotations, never evaluated.


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
    in DFS order.  A variable becomes live at its first atom and is
    discharged after its last, at most r atoms later as the formula is
    r-local; a state therefore holds assignments to at most w*r variables,
    w the most distinct variables in one atom (an equality binds two,
    whatever the arity a).

    A successor whose value the remaining atoms cannot change is decided: the
    formula is monotone in each atom occurrence's literal (its value, negated
    under an odd number of ``not``s), so feeding the remaining atoms all-low
    and all-high bounds it.  Decided false is dropped.  Decided true leaves
    the frontier as ``True`` and is counted once, as a product: the total
    decided so far is multiplied by |A|^(variables first bound at atom i) at
    each later atom i, so no decided state is stepped.  When the atom's being
    false would decide false, a relational atom binds its fresh variables
    only to the tuples that match its bound arguments, read from a lazy index.
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
                yield True

    frontier, done = {(0, (), opened[0]): 1}, 0
    for idx in range(len(atoms)):
        frontier = propagate(frontier, 1, step)
        done = done * size ** first_bound[idx] + frontier.pop(True, 0)
    return done
