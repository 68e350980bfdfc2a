"""errors.Record, the base of every value type: equality, hash, immutability,
repr, construction, copying and pickling, structures and formulas included."""
import copy
import pickle

import pytest

from paracount.bp import bp_count_acc
from paracount.errors import CountingError, FrozenMap, Record
from paracount.fo import count_mc, formula_from_json, formula_node_to_json
from paracount.formulas import Atom, Connective, ConstRef, Eq, QFFormula, Var
from paracount.graphs import DirectedGraph, VertexColouring
from paracount.oracles import Clow
from paracount.programs import validate_bp
from paracount.reductions import ReductionRecord
from paracount.selftest import SMOKE, Scale
from paracount.structures import RelationalStructure, Vocabulary


def program(*, edge_order=1):
    """A three-layer program reading y_1; ``edge_order=-1`` lists its edges backwards."""
    edges = [(0, 1, 1), (0, 1, 0), (1, 2, None)]
    return validate_bp([[0], [1], [2]], {0: ("y", 1), 1: ("pass",)}, edges[::edge_order],
                       0, 1, 0, 2)


def test_records_of_different_types_with_the_same_fields_are_not_equal():
    assert Var("x") == Var("x")
    assert Var("x") != ConstRef("x")
    assert not Var("x") == ConstRef("x")
    assert Clow((0, 1)) != (0, 1)


def test_equal_records_hash_equal_and_serve_as_set_and_dict_keys():
    a, b = DirectedGraph(2, ((0, 1),)), DirectedGraph(2, ((0, 1),))
    assert a == b and a is not b and hash(a) == hash(b)
    assert DirectedGraph(2, ()) != a
    assert len({a, b, Var("x"), Var("x"), ConstRef("x")}) == 3
    assert {a: "graph", Atom("E", (Var("x"),)): "atom"}[b] == "graph"
    assert {Atom("E", (Var("x"),)): "atom"}[Atom("E", (Var("x"),))] == "atom"


def test_derived_program_maps_stay_out_of_equality_and_hash():
    p, q = program(), program()
    assert p == q and hash(p) == hash(q) and p.out_map == q.out_map
    assert program(edge_order=-1) != p  # edges are a field, their order part of it


def test_records_refuse_assignment_and_deletion():
    g = DirectedGraph(2, ())
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        g.n = 3
    with pytest.raises(AttributeError, match="cannot delete field 'n'"):
        del g.n
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        program().label_map = {}
    assert g.n == 2 and not hasattr(g, "__dict__")


def test_reprs_are_the_dataclass_reprs():
    g = DirectedGraph(3, ((0, 1), (1, 2)))
    assert repr(g) == "DirectedGraph(n=3, edges=((0, 1), (1, 2)))"
    assert repr(VertexColouring(g, (1, 2, 2))) == (
        "VertexColouring(graph=DirectedGraph(n=3, edges=((0, 1), (1, 2))), "
        "colours=(1, 2, 2), m=2)")
    assert repr(program()) == (
        "BranchingProgram(layers=((0,), (1,), (2,)), labels=((0, ('y', 1)), (1, ('pass',))), "
        "edges=((0, 1, 1), (0, 1, 0), (1, 2, None)), num_x=0, num_y=1, source=0, sink=2)")
    assert repr(Atom("E", (Var("x"), ConstRef("c")))) == (
        "Atom(relation='E', args=(Var(name='x'), ConstRef(name='c')))")


def test_keyword_construction_defaults_and_checks():
    assert Scale(*(getattr(SMOKE, name) for name in Scale._fields)) == SMOKE
    assert Vocabulary(relations=(("E", 2),)) == Vocabulary((("E", 2),), ())
    assert Vocabulary((("E", 2),)).constants == ()
    assert VertexColouring(graph=DirectedGraph(1, ()), colours=(3,)).m == 3
    assert Var(name="x") == Var("x")
    record = ReductionRecord("r", None, None, None, None)
    assert record.param_of((1, 2, 7)) == 7
    assert ReductionRecord("r", None, None, None, None, param_of=len).param_of((1, 2)) == 2
    for args, kwargs in (((), {}), (((), (), ()), {}), (((),), {"relations": ()}),
                         ((), {"relations": (), "colours": ()})):
        with pytest.raises(TypeError):
            Vocabulary(*args, **kwargs)
    with pytest.raises(CountingError, match="unique"):
        Vocabulary(relations=(("E", 2),), constants=("E",))
    with pytest.raises(CountingError) as info:
        DirectedGraph(n=2, edges=((0, 2),))
    assert info.value.code == "endpoint-out-of-range"


def test_records_copy_and_pickle_with_their_derived_slots():
    colouring = VertexColouring(DirectedGraph(2, ((0, 1),)), (1, 2))
    graph = DirectedGraph(3, ((0, 2), (0, 1), (1, 2)))
    for record in (colouring, program(), Var("x"), graph):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
    assert copy.deepcopy(colouring).m == 2
    assert pickle.loads(pickle.dumps(program())).out_map == program().out_map
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert (twin.succ, twin.out) == (graph.succ, graph.out)


def test_graph_adjacency_is_tuples_left_out_of_equality_and_hash():
    g = DirectedGraph(3, ((0, 2), (0, 1), (1, 2)))
    for adjacency in (g.succ, g.out):
        assert type(adjacency) is tuple and all(type(row) is tuple for row in adjacency)
        with pytest.raises(TypeError):
            adjacency[0] = ()
    twin = copy.copy(g)
    object.__setattr__(twin, "succ", ())  # past the record's guard
    object.__setattr__(twin, "out", ())
    assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)


def structure():
    vocab = Vocabulary((("E", 2),), ("c",))
    return RelationalStructure(vocab, 3, {"E": [[0, 1], (1, 2)]}, {"c": 2})


def formula():
    return QFFormula(Connective("and", (Atom("E", (Var("x"), Var("y"))),
                                        Eq(Var("y"), ConstRef("c")))))


def test_structures_and_formulas_are_records_that_refuse_rebinding():
    s, phi = structure(), formula()
    assert isinstance(s, Record) and isinstance(phi, Record)
    for value, name in ((s, "universe_size"), (s, "interpretation"), (phi, "size"),
                        (phi, "atoms"), (phi, "root")):
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) == before
    assert s.universe_size == 3 and phi.size == 3
    assert not hasattr(s, "__dict__") and not hasattr(phi, "__dict__")


def test_equal_inputs_give_equal_structures_and_formulas():
    s = structure()
    assert s == structure() and s is not structure()
    assert s.interpretation == {"E": frozenset({(0, 1), (1, 2)})}
    assert s != RelationalStructure(s.vocab, 3, {"E": [(0, 1)]}, {"c": 2})
    assert s != RelationalStructure(s.vocab, 4, {"E": [(0, 1), (1, 2)]}, {"c": 2})
    with pytest.raises(TypeError):
        hash(s)  # the interpretation is a dict
    doc = formula_node_to_json(formula().root)
    phi, twin = formula_from_json(doc), formula_from_json(doc)
    assert phi == twin == formula() and hash(phi) == hash(twin)
    assert phi != QFFormula(Atom("E", (Var("x"), Var("y"))))
    assert QFFormula(root=phi.root) == phi
    assert repr(phi) == f"QFFormula(root={phi.root!r})"


def test_structures_and_formulas_copy_and_pickle_with_their_derived_slots():
    s, phi = structure(), formula()
    for twin in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert twin == phi and repr(twin) == repr(phi)
        assert (twin.size, twin.atoms, twin.paths, twin.spans, twin.free_variables) == (
            phi.size, phi.atoms, phi.paths, phi.spans, phi.free_variables)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and repr(twin) == repr(s)
        assert twin.constant_values == {"c": 2}


def test_frozen_maps_refuse_every_mutator_and_keep_their_items():
    m = FrozenMap({"a": 1})
    for name, args in (("__setitem__", ("b", 2)), ("__delitem__", ("a",)), ("clear", ()),
                       ("pop", ("a",)), ("popitem", ()), ("setdefault", ("b", 2)),
                       ("update", ({"b": 2},)), ("__ior__", ({"b": 2},))):
        with pytest.raises(TypeError, match="read-only"):
            getattr(m, name)(*args)
    assert m == {"a": 1} and repr(m) == "{'a': 1}"
    with pytest.raises(TypeError):
        hash(m)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is FrozenMap and twin == m


def test_record_contents_are_read_only_so_counts_cannot_drift():
    s = RelationalStructure(Vocabulary((("E", 2),), ("c",)), 2, {"E": [(0, 1), (1, 0)]}, {"c": 0})
    phi, p = QFFormula(Atom("E", (Var("x"), Var("y")))), program()
    counts = count_mc(phi, s, phi.size), bp_count_acc(p, ())
    assert counts == (2, 2)
    edits = (
        (s.interpretation, "E", frozenset({(0, 1), (1, 0), (0, 0)})),
        (s.constant_values, "c", 1),
        (phi.atoms, 0, Eq(Var("x"), Var("x"))),
        (phi.paths, 0, (("not", 0, 1),)),
        (phi.spans, "y", (0, 0)),
        (p.label_map, 0, ("pass",)),
        (p.out_map, 1, ()),
        (p.out_map[0], 0, (2, 1)),
    )
    for container, key, value in edits:
        with pytest.raises(TypeError):
            container[key] = value
    assert (count_mc(phi, s, phi.size), bp_count_acc(p, ())) == counts
