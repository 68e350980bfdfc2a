"""Homomorphism counting from coloured canonical paths.

The pattern class is the starred path P_n*: the symmetric path on elements
0..n-1 over vocabulary (E, C_1, ..., C_n) where C_i pins element i-1.  For
such patterns the homomorphism count into a target B equals the number of
s-t walks of n+2 vertices in a layered digraph built from B, and the walk
enumeration bijects onto the homomorphism enumeration position by position.

That correspondence is exact exactly when B's colour classes are pairwise
disjoint and E^B is symmetric (targets produced by the colour-respecting
walk reduction always are).  Targets outside that domain are refused here;
``count_hom_oracle`` stays total for arbitrary structures.
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


def validate_path_star_target(b: RelationalStructure, n: int) -> list[set[int]]:
    """Refuse targets on which the layered-graph construction miscounts;
    return the colour classes C_1..C_n as element sets."""
    _check_pattern(n, b)
    classes = [{t[0] for t in b.interpretation[f"C_{i}"]} for i in range(1, n + 1)]
    seen: set[int] = set()
    for i, cls in enumerate(classes, start=1):
        if cls & seen:
            raise CountingError(
                "overlapping-colour-classes",
                f"element(s) {sorted(cls & seen)} appear in C_{i} and an earlier class",
            )
        seen |= cls
    edges = b.interpretation["E"]
    for u, v in edges:
        if (v, u) not in edges:
            raise CountingError(
                "asymmetric-edge-relation", f"edge ({u}, {v}) lacks its reverse"
            )
    return classes


def build_layered_reach_graph(
    b: RelationalStructure, n: int
) -> tuple[DirectedGraph, int, int]:
    """The walk instance equivalent to counting homs from P_n* into b.

    Elements of b keep their indices; s and t are appended last.  Edges run
    s -> C_1 elements, E^b edges from C_i- to C_{i+1}-coloured elements, and
    C_n elements -> t.
    """
    classes = validate_path_star_target(b, n)
    nb = b.universe_size
    s, t = nb, nb + 1
    edge_set: set[tuple[int, int]] = set()
    for x in classes[0]:
        edge_set.add((s, x))
    for x, y in b.interpretation["E"]:
        if any(x in classes[i] and y in classes[i + 1] for i in range(n - 1)):
            edge_set.add((x, y))
    for x in classes[n - 1]:
        edge_set.add((x, t))
    graph = DirectedGraph(nb + 2, tuple(sorted(edge_set)))
    return graph, s, t


def count_hom_path_star(n: int, b: RelationalStructure, k: int) -> int:
    """Homomorphism count from P_n* to b; 0 when n > k.

    Computed by counting s-t walks of n+2 vertices in the layered graph.
    """
    if n > k:  # gated, but only once the pattern is checked
        _check_pattern(n, b)
        return 0
    graph, s, t = build_layered_reach_graph(b, n)
    return count_reach(graph, s, t, n + 2)


def hom_walk_correspondence(
    n: int, b: RelationalStructure, limit: int = DEFAULT_LIMIT
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Materialise both sides of the walk <-> homomorphism bijection.

    Returns (walks stripped of s and t, homomorphism image tuples); the
    stripped walk (v_1, ..., v_n) corresponds to the map i-1 -> v_i.  Both
    lists are sorted; the correspondence holds iff they are equal.
    """
    from .graphs import enumerate_walks

    graph, s, t = build_layered_reach_graph(b, n)
    walks = enumerate_walks(graph, s, t, n + 1, limit)
    stripped = sorted(w[1:-1] for w in walks)
    pattern = make_path_star(n).structure
    homs = sorted(enumerate_homs(pattern, b, limit))
    return stripped, homs
