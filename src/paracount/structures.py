"""Finite relational structures: a vocabulary of relation symbols with their
arities and of constant symbols, and a structure interpreting it over the
universe {0, ..., n-1}, with the structure file format.

Both the formula counters (``fo``) and the homomorphism counters (``homs``)
work over these; a process that counts homomorphisms loads no formula code.
"""
from __future__ import annotations

from collections.abc import Mapping

from .errors import CountingError, Record, read_array, read_fields, read_int, read_name


class Vocabulary(Record):
    __slots__ = _fields = ("relations", "constants")
    _defaults = {"constants": ()}
    relations: tuple[tuple[str, int], ...]
    constants: tuple[str, ...]

    def _check(self):
        names = [name for name, _ in self.relations] + list(self.constants)
        if len(names) != len(set(names)):
            raise CountingError("duplicate-symbol", "vocabulary names must be unique")
        for name, arity in self.relations:
            if arity < 1:
                raise CountingError("bad-arity", f"relation {name} has arity {arity}")


class RelationalStructure(Record):
    """Finite structure: universe {0, ..., universe_size-1} plus interpretations.

    The interpretation is a dict, so a structure compares by value but has
    no hash."""

    __slots__ = _fields = ("vocab", "universe_size", "interpretation", "constant_values")
    vocab: Vocabulary
    universe_size: int
    interpretation: dict[str, frozenset[tuple[int, ...]]]
    constant_values: dict[str, int]

    def __init__(
        self,
        vocab: Vocabulary,
        universe_size: int,
        interpretation: Mapping[str, object],
        constant_values: Mapping[str, int] | None = None,
    ):
        if universe_size < 1:
            raise CountingError("empty-universe", "universe must be nonempty")
        declared = dict(vocab.relations)
        relations = {}
        for name in interpretation:
            if name not in declared:
                raise CountingError(
                    "symbol-not-interpreted", f"relation {name} not in vocabulary"
                )
        for name, arity in vocab.relations:
            tuples, what = set(), f"tuple of {name}"
            for tup in interpretation.get(name, ()):
                tup = tuple([read_int(x, "element") for x in read_array(tup, what)])
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
            relations[name] = frozenset(tuples)
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
        self._set(vocab=vocab, universe_size=universe_size, interpretation=relations,
                  constant_values=constant_values)


def structure_from_json(obj: dict) -> RelationalStructure:
    read_fields(obj, "structure file", ("universeSize",),
                ("vocabulary", "interpretation", "constantValues"))
    voc = read_fields(obj.get("vocabulary", {}), "vocabulary", (), ("relations", "constants"))
    interpretation = obj.get("interpretation", {})
    constant_values = obj.get("constantValues", {})
    relations = [read_array(r, "relation", 2)
                 for r in read_array(voc.get("relations", []), '"relations"')]
    vocab = Vocabulary(
        tuple((read_name(name, "relation"), read_int(arity, "arity")) for name, arity in relations),
        tuple(read_name(c, "constant") for c in read_array(voc.get("constants", []), '"constants"')),
    )
    return RelationalStructure(
        vocab,
        read_int(obj["universeSize"], "universeSize"),
        {
            name: read_array(tuples, f'"{name}"')
            for name, tuples in read_fields(
                interpretation, '"interpretation"', (), interpretation).items()
        },
        read_fields(constant_values, '"constantValues"', (), constant_values),
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
