"""Homomorphism counting from coloured canonical paths.

The pattern class is the starred path P_n*: the symmetric path on elements
0..n-1 over vocabulary (E, C_1, ..., C_n) where C_i pins element i-1.  A
homomorphism into a target B is a sequence (x_0, ..., x_{n-1}) with
x_i in C_{i+1}^B and both (x_i, x_{i+1}) and (x_{i+1}, x_i) in E^B.  The
layered digraph with one vertex per (position, element) pair therefore has
exactly one s-t walk of n+2 vertices per homomorphism, on every target:
colour classes may overlap and E^B need not be symmetric.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping

from .errors import DEFAULT_LIMIT, CountingError, Record, check_limit
from .graphs import DirectedGraph
from .structures import RelationalStructure, Vocabulary
from .walks import count_reach


def path_star_vocabulary(n: int) -> Vocabulary:
    return Vocabulary((("E", 2),) + tuple((f"C_{i}", 1) for i in range(1, n + 1)), ())


class PathStarStructure(Record):
    """P_n* realised as a relational structure; n >= 2."""

    __slots__ = _fields = ("n", "structure")
    n: int
    structure: RelationalStructure


def make_path_star(n: int) -> PathStarStructure:
    """The starred symmetric path on n elements."""
    if n < 2:
        raise CountingError("n-too-small", f"a path needs two endpoints, got n = {n}")
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    interpretation: dict[str, object] = {"E": edges}
    for i in range(1, n + 1):
        interpretation[f"C_{i}"] = {(i - 1,)}
    return PathStarStructure(
        n, RelationalStructure(path_star_vocabulary(n), n, interpretation)
    )


def _check_same_vocabulary(a: RelationalStructure, b: RelationalStructure) -> None:
    if a.vocab != b.vocab:
        raise CountingError(
            "vocabulary-mismatch",
            f"{a.vocab.relations} vs {b.vocab.relations}",
        )


def _maps_into(h, a: RelationalStructure, b: RelationalStructure) -> bool:
    """True iff the total map h (indexed by a's elements) preserves every
    relation and constant; the vocabularies are trusted to agree."""
    for name, tuples in a.interpretation.items():
        target = b.interpretation[name]
        for tup in tuples:
            if tuple(h[x] for x in tup) not in target:
                return False
    return all(h[value] == b.constant_values[cname]
               for cname, value in a.constant_values.items())


def is_homomorphism(
    h: Mapping[int, int], a: RelationalStructure, b: RelationalStructure
) -> bool:
    """True iff every tuple of every relation of `a` maps into `b`."""
    _check_same_vocabulary(a, b)
    for x in range(a.universe_size):
        if x not in h:
            raise CountingError("unassigned-variable", f"map undefined on element {x}")
    return _maps_into(h, a, b)


def enumerate_homs(
    a: RelationalStructure, b: RelationalStructure, limit: int = DEFAULT_LIMIT
) -> list[tuple[int, ...]]:
    """All homomorphisms a -> b as image tuples, by exhaustive map enumeration."""
    _check_same_vocabulary(a, b)
    check_limit(b.universe_size ** a.universe_size, limit,
                f"candidate maps ({b.universe_size}^{a.universe_size})")
    return [images
            for images in itertools.product(range(b.universe_size), repeat=a.universe_size)
            if _maps_into(images, a, b)]


def count_hom_oracle(
    a: RelationalStructure, b: RelationalStructure, limit: int = DEFAULT_LIMIT
) -> int:
    """Exact homomorphism count by exhaustive map enumeration (the oracle)."""
    return len(enumerate_homs(a, b, limit))


def _check_pattern(n: int, b: RelationalStructure) -> None:
    """P_n* needs n >= 2, and b must be over its vocabulary (E, C_1..C_n)."""
    if n < 2:
        raise CountingError("n-too-small", f"a path needs two endpoints, got n = {n}")
    if b.vocab != path_star_vocabulary(n):
        raise CountingError(
            "vocabulary-mismatch",
            f"target must be over (E, C_1..C_{n}), got {b.vocab.relations}",
        )


def build_layered_reach_graph(
    b: RelationalStructure, n: int
) -> tuple[DirectedGraph, int, int, list[int]]:
    """The walk instance equivalent to counting homs from P_n* into b.

    Returns (graph, s, t, elements).  Walk vertex v < len(elements) stands
    for position i and element elements[v] in C_{i+1}, numbered position by
    position; s and t are appended last.  Edges run s -> position 0, (i, x)
    -> (i+1, y) when E^b holds (x, y) and (y, x), and position n-1 -> t.
    """
    _check_pattern(n, b)
    slots = [(i, x) for i in range(n) for (x,) in sorted(b.interpretation[f"C_{i + 1}"])]
    vertex = {slot: v for v, slot in enumerate(slots)}
    at: dict[int, list[int]] = {}  # element -> the positions whose class holds it
    for i, x in slots:
        at.setdefault(x, []).append(i)
    s, t = len(slots), len(slots) + 1
    edges = [(s, v) for v, (i, _) in enumerate(slots) if i == 0]
    edges += [(v, t) for v, (i, _) in enumerate(slots) if i == n - 1]
    e = b.interpretation["E"]
    for x, y in e:
        if (y, x) in e:
            for i in at.get(x, ()):
                if (i + 1, y) in vertex:
                    edges.append((vertex[i, x], vertex[i + 1, y]))
    return DirectedGraph(t + 1, tuple(sorted(edges))), s, t, [x for _, x in slots]


def count_hom_path_star(n: int, b: RelationalStructure, k: int) -> int:
    """Homomorphism count from P_n* to b; 0 when n > k.

    Computed by counting s-t walks of n+2 vertices in the layered graph.
    """
    if n > k:  # gated, but only once the pattern is checked
        _check_pattern(n, b)
        return 0
    graph, s, t, _ = build_layered_reach_graph(b, n)
    return count_reach(graph, s, t, n + 2)
