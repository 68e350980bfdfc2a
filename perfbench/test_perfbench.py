"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the repo root."""
import json
import random
from pathlib import Path

import pytest

import bench
import hostref
import references as refs
import workloads
from paracount import fo as fom
from paracount import reductions as redm
from paracount.graphs import DirectedGraph, VertexColouring

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_same_seed_gives_identical_inputs_and_reference():
    for name, generate in workloads.WORKLOADS.items():
        first, second = generate(3), generate(3)
        assert [(i.id, i.argv, i.files) for i in first] == [
            (i.id, i.argv, i.files) for i in second
        ], name
        assert len({i.id for i in first}) == len(first), name
    first = bench.build_reference("small-batch", 3, workloads.small_batch(3))
    second = bench.build_reference("small-batch", 3, workloads.small_batch(3))
    assert json.dumps(first) == json.dumps(second)


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench" / "ref").glob("*.json")))
def test_pinned_references_match_a_fresh_build(path):
    pinned = json.loads(path.read_text())
    workload, seed = pinned["workload"], pinned["seed"]
    fresh = bench.build_reference(workload, seed, workloads.WORKLOADS[workload](seed))
    assert fresh["inputs"] == pinned["inputs"]
    assert fresh["references"] == pinned["references"]


def _spawned(instance_id):
    inst = next(i for i in workloads.small_batch(3) if i.id == instance_id)
    bench.write_files([inst])
    with bench.launcher() as spawn:
        run = spawn(inst)
    return inst, bench.outcome_of(inst, run.code, run.stdout, run.stderr)


def test_corrupted_expected_count_is_a_failed_instance():
    inst, outcome = _spawned("small-batch/pdet0-clow")
    entry = refs.expected(inst)
    assert bench.check([(inst, outcome)], {inst.id: entry})[0] == []
    corrupted = {**entry, "value": str(int(entry["value"]) + 1)}
    failures, _ = bench.check([(inst, outcome)], {inst.id: corrupted})
    assert failures == [(inst.id, f"got {outcome}, expected {corrupted['value']} "
                                  f"(pdet-other-method)")]


def test_wrong_expected_error_name_is_a_failed_instance():
    inst, outcome = _spawned("small-batch/bad-duplicate-edge")
    assert outcome == "error:duplicate-edge"
    failures, _ = bench.check([(inst, outcome)], {inst.id: {"error": "unknown-field"}})
    assert failures == [(inst.id, "got error:duplicate-edge, expected error:unknown-field")]


def test_host_reference_prints_its_digest_and_a_wrong_one_fails():
    with bench.launcher() as spawn:
        run = spawn(bench.HOST_REF, bench.HOST_REF_ARGS)
    assert run.code == 0 and run.stdout.strip() == hostref.DIGEST
    factor, failures = bench.host_factor([run])
    assert factor == run.latency_s / bench.HOST_REF_NOMINAL_S and failures == []
    run.stdout = "0" * 16 + "\n"
    assert bench.host_factor([run])[1] == [
        (bench.HOST_REF.id, "exit 0, printed '0000000000000000'")
    ]


def test_set_up_rewrites_only_changed_files(tmp_path):
    path = tmp_path / "work" / "graph.json"
    inst = workloads.Instance("x/graph", [], {str(path): "one\n"})
    bench.write_files([inst])
    written = path.stat().st_mtime_ns
    bench.write_files([inst])
    assert path.stat().st_mtime_ns == written
    inst.files[str(path)] = "two\n"
    bench.write_files([inst])
    assert path.read_text() == "two\n"


def test_percentile_states_its_sample_count():
    assert bench.percentile(list(range(1, 101)), 90) == (90, 100)
    assert bench.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    assert bench.percentile([7.5], 90) == (7.5, 1)


def test_generated_formats_match_the_library_reductions():
    n, edges = 5, [[0, 1], [1, 2], [2, 4], [4, 0], [3, 3]]
    phi, structure, _ = redm.reduce_reach_to_mc(
        DirectedGraph(n, tuple(map(tuple, edges))), 0, 4, 4
    )
    assert fom.formula_node_to_json(phi.root) == workloads.walk_formula(4)
    assert fom.structure_to_json(structure) == json.loads(
        json.dumps(workloads.walk_structure(n, edges, 0, 4))
    )
    colours, edges = workloads.layered_colouring(random.Random(0), 9, 4, 2)
    vc = VertexColouring(DirectedGraph(9, tuple(map(tuple, edges))), tuple(colours))
    _, target, _ = redm.reduce_reach_colour_to_hom(vc, 0, 8, 4)
    assert fom.structure_to_json(target) == workloads.path_star_target(colours, edges, 4)
