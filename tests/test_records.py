"""errors.Record, the base of every value type: equality, hash, immutability,
repr, construction, copying and pickling."""
import copy
import pickle

import pytest

from paracount.bp import validate_bp
from paracount.errors import CountingError
from paracount.fo import Atom, ConstRef, Var, Vocabulary
from paracount.graphs import DirectedGraph, VertexColouring
from paracount.pdet import Clow
from paracount.reductions import ReductionRecord
from paracount.selftest import SMOKE, Scale


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
    assert p == q and hash(p) == hash(q) and p.out_edges() == q.out_edges()
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
    for record in (colouring, program(), Var("x")):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)
    assert copy.deepcopy(colouring).m == 2
    assert pickle.loads(pickle.dumps(program())).out_edges() == program().out_edges()
