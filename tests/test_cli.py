import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paracount
from paracount import cli, reductions
from paracount.cli import COMMANDS, main
from paracount.commands import _digest
from paracount.commands.reduce import REDUCTIONS

DIAMOND = {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]], "s": 0, "t": 3}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(*argv):
    """A new interpreter run with ``argv`` that imports this paracount."""
    env = {**os.environ, "PYTHONPATH": str(Path(paracount.__file__).resolve().parent.parent)}
    env.pop("PARACOUNT_LIMIT", None)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60,
                          env=env)


def fresh_python(script, *flags):
    """Stdout of ``script`` run by a new interpreter, started with ``flags``
    (``-S``, say), that imports this paracount."""
    proc = fresh_process(*flags, "-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def not_chain(depth):
    """A formula file: ``depth`` nested nots over P(x)."""
    return ('{"op": "not", "args": [' * depth + '{"atom": "P", "args": [{"var": "x"}]}'
            + "]}" * depth)


def test_reach_diamond(tmp_path, capsys):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    code, out, _ = run(capsys, "reach", "--graph", graph, "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "2"
    assert report["gateApplied"] is False
    assert set(report) == {"count", "gateApplied", "elapsedMs", "instanceDigest"}


def test_reach_flags_override_file_endpoints(tmp_path, capsys):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    code, out, _ = run(capsys, "reach", "--graph", graph, "--s", "1", "--t", "3", "--k", "2")
    assert code == 0 and json.loads(out)["count"] == "1"


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "reach", "--graph", "missing.json", "--k", "3")
    assert code == 1
    assert "file-not-found" in err
    assert out == ""


def test_missing_cnf_file_is_domain_error(tmp_path, capsys):
    graph = write(tmp_path, "g.json", DIAMOND)
    for command in ("reach2cnf", "cyclecover2cnf"):
        code, out, err = run(capsys, command, "--graph", graph, "--a", "2", "--k", "1",
                             "--cnf", str(tmp_path / "missing.cnf"))
        assert code == 1 and out == ""
        assert err.startswith("error: file-not-found")


def test_a_directory_for_a_file_is_an_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "reach", "--graph", str(tmp_path), "--k", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: io-error: [Errno 21] Is a directory")


def test_a_negative_k_goes_through_argparse_and_is_refused(tmp_path, capsys):
    argv = ["reach", "--graph", write(tmp_path, "g.json", DIAMOND), "--k", "-1"]
    assert cli._direct(argv) is None  # a value starting with "-" is not canonical
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: negative-length: k = -1\n")


def test_usage_error_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reach"])  # --graph and --k missing
    assert exc.value.code == 2


def usage(capsys, *argv):
    """Exit code, stdout and stderr of a run that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_help_and_usage_errors_name_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # the help layout follows the terminal width
    code, out, _ = usage(capsys, "--help")
    assert code == 0
    lines = out.splitlines()
    rows = [next(i for i, line in enumerate(lines) if line.split() == [name, *help_text.split()])
            for name, (help_text, *_) in COMMANDS.items()]
    assert len(rows) == 12 and rows == sorted(rows)

    code, _, err = usage(capsys, "nosuch")
    assert code == 2
    message = err.splitlines()[-1]
    assert "nosuch" in message and set(COMMANDS) <= set(re.findall(r"[\w-]+", message))

    code, _, err = usage(capsys, "reach")
    assert code == 2 and err.startswith("usage: paracount reach") and "--graph, --k" in err

    options = {"mc": ("--formula", "--structure", "--k", "--local", "--r"),
               "bp": ("--program", "--x", "--y", "--method", "{acc,fast}")}
    for command, names in options.items():
        code, out, _ = usage(capsys, command, "-h")
        assert code == 0 and out.startswith(f"usage: paracount {command}")
        assert all(name in out for name in names), out


def test_unknown_graph_field_rejected(tmp_path, capsys):
    graph = write(tmp_path, "bad.json", {**DIAMOND, "weights": [1]})
    code, _, err = run(capsys, "reach", "--graph", graph, "--k", "3")
    assert code == 1 and "unknown-field" in err


def test_counts_are_byte_identical_across_runs(tmp_path, capsys):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "reach", "--graph", graph, "--k", "3")
        assert code == 0
        report = json.loads(out)
        outputs.append((report["count"], report["instanceDigest"]))
    assert outputs[0] == outputs[1]


def test_logreach_gate(tmp_path, capsys):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    code, out, _ = run(
        capsys, "logreach", "--graph", graph, "--a", "2", "--k", "1", "--b", "2"
    )
    assert code == 0
    assert json.loads(out)["count"] == "2"
    code, out, _ = run(
        capsys, "logreach", "--graph", graph, "--a", "2", "--k", "0", "--b", "2"
    )
    report = json.loads(out)
    assert report["count"] == "0" and report["gateApplied"] is True


def test_logwalk(tmp_path, capsys):
    graph = write(tmp_path, "p.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    code, out, _ = run(capsys, "logwalk", "--graph", graph, "--a", "1", "--k", "2")
    assert code == 0 and json.loads(out)["count"] == "2"


def test_walks_longer_than_the_graph_allows_count_zero_at_once(tmp_path, capsys):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    for argv in (("reach", "--graph", graph, "--k", str(10**9)),
                 ("logwalk", "--graph", graph, "--a", str(10**9), "--k", str(10**9))):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["count"], report["gateApplied"]) == (0, "0", False), argv


def test_reachcolour(tmp_path, capsys):
    graph = write(
        tmp_path,
        "c.json",
        {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [1, 2, 3], "s": 0, "t": 2},
    )
    code, out, _ = run(capsys, "reachcolour", "--graph", graph, "--k", "3")
    assert code == 0 and json.loads(out)["count"] == "1"


def test_reach2cnf_inline_and_dimacs(tmp_path, capsys):
    inline = write(tmp_path, "g.json", {**DIAMOND, "clauses": [[-1]]})
    code, out, _ = run(capsys, "reach2cnf", "--graph", inline, "--a", "2", "--k", "1")
    assert code == 0 and json.loads(out)["count"] == "1"
    graph = write(tmp_path, "g2.json", DIAMOND)
    dimacs = tmp_path / "phi.cnf"
    dimacs.write_text("p cnf 4 1\n-1 0\n")
    code, out, _ = run(
        capsys, "reach2cnf", "--graph", graph, "--a", "2", "--k", "1",
        "--cnf", str(dimacs),
    )
    assert code == 0 and json.loads(out)["count"] == "1"
    # A "clauses" field is a second source even when it is null.
    both = write(tmp_path, "g3.json", {**DIAMOND, "clauses": None})
    code, _, err = run(
        capsys, "reach2cnf", "--graph", both, "--a", "2", "--k", "1", "--cnf", str(dimacs),
    )
    assert code == 1 and err.startswith("error: two-cnf-sources:")


def test_cyclecover2cnf(tmp_path, capsys):
    graph = write(
        tmp_path, "cc.json",
        {"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]},
    )
    code, out, _ = run(capsys, "cyclecover2cnf", "--graph", graph, "--a", "2", "--k", "1")
    assert code == 0 and json.loads(out)["count"] == "1"


def test_cyclecover2cnf_searches_past_recursion_limit(tmp_path, capsys):
    n = 1500  # deeper than the interpreter's default recursion limit
    graph = write(tmp_path, "loops.json", {"n": n, "edges": [[v, v] for v in range(n)]})
    code, out, _ = run(capsys, "cyclecover2cnf", "--graph", graph, "--a", "2", "--k", "0")
    assert code == 0 and json.loads(out)["count"] == "1"


def test_mc_plain_and_local(tmp_path, capsys):
    formula = write(
        tmp_path, "phi.json",
        {"op": "and", "args": [
            {"atom": "E", "args": [{"var": "x1"}, {"var": "x2"}]},
            {"atom": "E", "args": [{"var": "x2"}, {"var": "x3"}]},
        ]},
    )
    structure = write(
        tmp_path, "A.json",
        {
            "vocabulary": {"relations": [["E", 2]], "constants": []},
            "universeSize": 3,
            "interpretation": {"E": [[0, 1], [1, 2], [0, 2]]},
            "constantValues": {},
        },
    )
    code, out, _ = run(capsys, "mc", "--formula", formula, "--structure", structure, "--k", "3")
    assert code == 0 and json.loads(out)["count"] == "1"
    code, out, _ = run(
        capsys, "mc", "--formula", formula, "--structure", structure, "--k", "3", "--local"
    )
    assert code == 0 and json.loads(out)["count"] == "1"


@pytest.mark.parametrize("atom, structure_extra, code", [
    ({"atom": "R", "args": [{"var": "x"}]}, {}, "symbol-not-interpreted"),
    ({"atom": "E", "args": [{"var": "x"}]}, {}, "bad-arity"),
    ({"atom": "E", "args": [{"var": "x"}, {"const": "c"}]}, {}, "symbol-not-interpreted"),
    ({"atom": "E", "args": [{"var": "x"}, {"const": "c"}]},
     {"vocabulary": {"relations": [["E", 2]], "constants": ["c"]},
      "constantValues": {"c": 1}}, None),
])
@pytest.mark.parametrize("local", [(), ("--local",)])
def test_mc_checks_signature_before_counting(tmp_path, capsys, atom, structure_extra,
                                             code, local):
    formula = write(tmp_path, "phi.json", {"op": "and", "args": [
        {"eq": [{"var": "x"}, {"var": "x"}]}, atom]})
    structure = write(tmp_path, "A.json", {
        "vocabulary": {"relations": [["E", 2]]}, "universeSize": 2,
        "interpretation": {"E": [[0, 1]]}, **structure_extra})
    argv = ("mc", "--formula", formula, "--structure", structure, *local)
    exit_code, out, err = run(capsys, *argv, "--k", "3")
    if code is None:
        assert exit_code == 0 and json.loads(out)["count"] == "1"
    else:
        assert exit_code == 1 and out == "" and err.startswith(f"error: {code}:")
    # The k gate comes first: a gated count reads no symbol.
    exit_code, out, _ = run(capsys, *argv, "--k", "4")
    assert exit_code == 0 and json.loads(out)["count"] == "0"


def test_hom(tmp_path, capsys):
    target = write(
        tmp_path, "b.json",
        {
            "vocabulary": {"relations": [["E", 2], ["C_1", 1], ["C_2", 1]], "constants": []},
            "universeSize": 2,
            "interpretation": {"E": [[0, 1], [1, 0]], "C_1": [[0]], "C_2": [[1]]},
            "constantValues": {},
        },
    )
    code, out, _ = run(capsys, "hom", "--n", "2", "--target", target, "--k", "2")
    assert code == 0 and json.loads(out)["count"] == "1"
    code, out, _ = run(capsys, "hom", "--n", "2", "--target", target, "--k", "1")
    report = json.loads(out)
    assert report["count"] == "0" and report["gateApplied"] is True
    code, out, _ = run(capsys, "hom", "--n", "2", "--target", target, "--k", "2", "--oracle")
    assert code == 0 and json.loads(out)["count"] == "1"


def test_hom_oracle_refuses_a_wrong_vocabulary_under_the_gate(tmp_path, capsys):
    target = write(tmp_path, "b.json", {"vocabulary": {"relations": [["E", 2]]},
                                        "universeSize": 2, "interpretation": {"E": [[0, 1]]}})
    for route in ((), ("--oracle",)):
        code, out, err = run(capsys, "hom", "--n", "3", "--target", target, "--k", "2", *route)
        assert code == 1 and out == "" and err.startswith("error: vocabulary-mismatch:")


def test_pdet_methods(tmp_path, capsys):
    matrix = write(tmp_path, "ones2.json", {"n": 2, "rows": [[1, 1], [1, 1]]})
    for method in ("direct", "clow"):
        code, out, _ = run(
            capsys, "pdet", "--matrix", matrix, "--k", "2", "--method", method
        )
        assert code == 0
        assert json.loads(out)["value"] == "-1"


def test_pdet_methods_refuse_k_above_n(tmp_path, capsys):
    matrix = write(tmp_path, "ones2.json", {"n": 2, "rows": [[1, 1], [1, 1]]})
    for method in ("direct", "clow"):
        code, out, err = run(
            capsys, "pdet", "--matrix", matrix, "--k", "5", "--method", method
        )
        assert code == 1 and out == ""
        assert err.startswith("error: k-out-of-range")


def test_bp_acceptance_and_counting(tmp_path, capsys):
    program = write(
        tmp_path, "bp.json",
        {
            "layers": [[0], [1]],
            "labels": {"0": {"y": 1}},
            "edges": [[0, 1, 0], [0, 1, 1]],
            "numX": 0, "numY": 1, "source": 0, "sink": 1,
        },
    )
    code, out, _ = run(capsys, "bp", "--program", program, "--x", "")
    assert code == 0 and json.loads(out)["count"] == "2"
    code, out, _ = run(capsys, "bp", "--program", program, "--x", "", "--method", "fast")
    assert code == 0 and json.loads(out)["count"] == "2"
    code, out, _ = run(capsys, "bp", "--program", program, "--x", "", "--y", "1")
    assert code == 0 and json.loads(out)["count"] == "1"
    program = write(tmp_path, "falling.json", FALLING_READ)  # fast refuses it (test_refusal_codes)
    code, out, _ = run(capsys, "bp", "--program", program, "--x", "", "--method", "acc")
    assert code == 0 and json.loads(out)["count"] == "4"


def test_reduce_reach_to_pdet_roundtrip(tmp_path, capsys):
    infile = write(
        tmp_path, "in.json",
        {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "s": 0, "t": 2, "k": 3},
    )
    outfile = str(tmp_path / "out.json")
    code, out, _ = run(
        capsys, "reduce", "--name", "reach-to-pdet", "--in", infile, "--out", outfile
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "out.json.record.json").read_text())
    assert sidecar == {"name": "reach-to-pdet", "kPrime": 3, "recoverySign": 1}
    code, out, _ = run(capsys, "pdet", "--matrix", outfile, "--k", "3")
    assert code == 0 and json.loads(out)["value"] == "1"


def test_reduce_reach_to_mc_roundtrip(tmp_path, capsys):
    infile = write(
        tmp_path, "in.json",
        {"graph": {"n": 4, "edges": DIAMOND["edges"]}, "s": 0, "t": 3, "k": 3},
    )
    outfile = str(tmp_path / "mc.json")
    code, _, _ = run(
        capsys, "reduce", "--name", "reach-to-mc", "--in", infile, "--out", outfile
    )
    assert code == 0
    combined = json.loads((tmp_path / "mc.json").read_text())
    formula = write(tmp_path, "phi.json", combined["formula"])
    structure = write(tmp_path, "A.json", combined["structure"])
    sidecar = json.loads((tmp_path / "mc.json.record.json").read_text())
    code, out, _ = run(
        capsys, "mc", "--formula", formula, "--structure", structure,
        "--k", str(sidecar["kPrime"]),
    )
    assert code == 0 and json.loads(out)["count"] == "2"


def test_reduce_hom_to_reach_roundtrip(tmp_path, capsys):
    target = {
        "vocabulary": {"relations": [["E", 2], ["C_1", 1], ["C_2", 1]], "constants": []},
        "universeSize": 2,
        "interpretation": {"E": [[0, 1], [1, 0]], "C_1": [[0]], "C_2": [[1]]},
        "constantValues": {},
    }
    infile = write(tmp_path, "in.json", {"n": 2, "k": 2, "target": target})
    outfile = str(tmp_path / "reach.json")
    code, _, _ = run(
        capsys, "reduce", "--name", "hom-to-reach", "--in", infile, "--out", outfile
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "reach.json.record.json").read_text())
    code, out, _ = run(
        capsys, "reach", "--graph", outfile, "--k", str(sidecar["kPrime"])
    )
    assert code == 0 and json.loads(out)["count"] == "1"


def test_reduce_reachcolour_to_hom_roundtrip(tmp_path, capsys):
    infile = write(
        tmp_path, "in.json",
        {
            "graph": {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [1, 2, 3]},
            "s": 0, "t": 2, "k": 3,
        },
    )
    outfile = str(tmp_path / "hom.json")
    code, _, _ = run(
        capsys, "reduce", "--name", "reachcolour-to-hom", "--in", infile, "--out", outfile
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "hom.json.record.json").read_text())
    assert sidecar["patternN"] == 3
    code, out, _ = run(
        capsys, "hom", "--n", "3", "--target", outfile, "--k", str(sidecar["kPrime"])
    )
    assert code == 0 and json.loads(out)["count"] == "1"


@pytest.mark.parametrize("name", REDUCTIONS)
def test_reduce_refuses_unknown_fields_and_non_objects(tmp_path, capsys, name):
    if name == "hom-to-reach":
        obj = {"n": 2, "k": 2, "target": {"vocabulary": {}, "universeSize": 1}}
    else:
        obj = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [1, 2, 3]},
               "s": 0, "t": 2, "k": 3}
    outfile = tmp_path / "out.json"
    dropped = {key: value for key, value in obj.items() if key != "k"}
    for doc, code in (({**obj, "extra": 1}, "unknown-field"), ([obj], "malformed-instance"),
                      (None, "malformed-instance"), (7, "malformed-instance"),
                      (dropped, "malformed-instance")):
        infile = write(tmp_path, "in.json", doc)
        exit_code, out, err = run(capsys, "reduce", "--name", name, "--in", infile,
                                  "--out", str(outfile))
        assert exit_code == 1 and out == "" and err.startswith(f"error: {code}:")
        assert "Error(" not in err and not outfile.exists()


def test_selftest_smoke(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "7", "--scale", "smoke")
    assert code == 0
    lines = out.strip().splitlines()
    assert len([l for l in lines if l.startswith("PASS")]) == 10
    assert lines[-1].startswith("OK")


def test_domain_error_surfaces_stable_name(tmp_path, capsys):
    graph = write(tmp_path, "g.json", {"n": 2, "edges": [[0, 5]]})
    code, _, err = run(capsys, "reach", "--graph", graph, "--k", "2")
    assert code == 1 and "endpoint-out-of-range" in err


def test_graph_numbers_must_be_integers(tmp_path, capsys):
    for graph in (
        {"n": 3, "edges": [[0.9, 1], [True, 2]]},
        {"n": 3.0, "edges": [[0, 1], [1, 2]]},
        {"n": 3, "edges": [[0, 1], [1, 2]], "s": "0", "t": 2},
        {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [1, 2.5, 3]},
    ):
        path = write(tmp_path, "g.json", graph)
        code, out, err = run(capsys, "reach", "--graph", path, "--s", "0", "--t", "2",
                             "--k", "3")
        assert code == 1 and "not-an-integer" in err and out == ""


def test_program_matrix_and_clause_numbers_must_be_integers(tmp_path, capsys):
    program = {
        "layers": [[0], [1]],
        "labels": {"0": {"y": 1}},
        "edges": [[0, 1, 0], [0, 1, 1]],
        "numX": 0, "numY": 1, "source": 0, "sink": 1,
    }
    matrix = {"n": 2, "rows": [[1, 1], [1, 1]]}
    colours = {"C_1": [[0]], "C_2": [[1]]}
    target = {
        "vocabulary": {"relations": [["E", 2], ["C_1", 1], ["C_2", 1]]},
        "universeSize": 2,
        "interpretation": {"E": [[0, 1], [1, 0]], **colours},
    }
    structure = {
        "vocabulary": {"relations": [["E", 2]], "constants": ["c"]},
        "universeSize": 2,
        "interpretation": {"E": [[0, 1]]},
        "constantValues": {"c": 0},
    }
    formula = write(tmp_path, "phi.json", {"eq": [{"var": "x"}, {"const": "c"}]})
    cases = [
        ("bp", {**program, "numY": 2.7}),
        ("bp", {**program, "labels": {"0": {"y": True}}}),
        ("pdet", {**matrix, "n": 2.9}),
        ("pdet", {**matrix, "rows": [[1, 0.9], [1, 1]]}),
        ("reach2cnf", {**DIAMOND, "clauses": [[1.5]]}),
        ("hom", {**target, "universeSize": 2.7}),
        ("hom", {**target, "interpretation": {**colours, "E": [[0, 1.9], [1, 0]]}}),
        ("hom", {**target, "interpretation": {**colours, "C_2": [[True]]}}),
        ("hom", {**target, "vocabulary": {"relations": [["E", 2.0], ["C_1", 1], ["C_2", 1]]}}),
        ("mc", {**structure, "constantValues": {"c": 0.5}}),
        ("reduce", {"graph": DIAMOND, "s": 0.5, "t": 3, "k": 3}),
        ("reduce", {"graph": DIAMOND, "s": 0, "t": 3, "k": 3.9}),
    ]
    for command, obj in cases:
        path = write(tmp_path, "in.json", obj)
        argv = {
            "bp": ("--program", path, "--x", ""),
            "pdet": ("--matrix", path, "--k", "2"),
            "reach2cnf": ("--graph", path, "--a", "2", "--k", "1"),
            "hom": ("--n", "2", "--target", path, "--k", "2"),
            "mc": ("--formula", formula, "--structure", path, "--k", "1"),
            "reduce": ("--name", "reach-to-pdet", "--in", path,
                       "--out", str(tmp_path / "out.json")),
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and "not-an-integer" in err and out == ""


def test_deeply_nested_file_is_domain_error(tmp_path, capsys):
    structure = write(
        tmp_path, "s.json",
        {"vocabulary": {"relations": [["P", 1]]}, "universeSize": 2,
         "interpretation": {"P": [[0]]}},
    )
    formula = tmp_path / "deep.json"
    for depth in (600, 1500):
        formula.write_text(not_chain(depth))
        for local in ((), ("--local",)):
            code, out, err = run(capsys, "mc", "--formula", str(formula), "--structure",
                                 structure, "--k", str(depth + 1), *local)
            assert code == 1 and "formula-too-deep" in err and out == ""
            assert "Traceback" not in err
    # Near the reader's own limit a formula is either counted and reported or
    # refused as too deep, never read and then refused while reporting.  A
    # fresh process keeps the stack as shallow as a command-line run.
    runs = []
    for depth in range(485, 501):
        path = tmp_path / f"deep{depth}.json"
        path.write_text(not_chain(depth))
        for local in ([], ["--local"]):
            runs.append(["mc", "--formula", str(path), "--structure", structure,
                         "--k", str(depth + 1), *local])
    outcomes = json.loads(fresh_python(
        "import contextlib, io, json\n"
        "from paracount.cli import main\n"
        "outcomes = []\n"
        f"for argv in {runs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        outcomes.append([main(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(outcomes))\n"
    ))
    for code, out, err in outcomes:
        counted = code == 0 and json.loads(out)["count"] == "1"
        assert counted or (code == 1 and "formula-too-deep" in err and out == ""), err
    assert any(code == 0 for code, _, _ in outcomes)
    # Any other file nested past the recursion limit is refused alike.
    graph = tmp_path / "deep-graph.json"
    graph.write_text('{"n": 2, "edges": ' + "[" * 1500 + "]" * 1500 + "}")
    code, out, err = run(capsys, "reach", "--graph", str(graph), "--k", "2")
    assert code == 1 and "instance-too-deep" in err and out == ""
    assert "Traceback" not in err


def test_malformed_instance_never_panics(tmp_path, capsys):
    for payload in ('{"n": "x", "edges": 3}', '{"n": 2, "edges": "ab"}', "[]", "{"):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run(capsys, "reach", "--graph", str(path), "--k", "2")
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err
    program = write(tmp_path, "bp.json", {
        "layers": [[0], [1]], "labels": {"0": [1]}, "edges": [[0, 1, 0], [0, 1, 1]],
        "numX": 0, "numY": 1, "source": 0, "sink": 1,
    })
    structure = write(tmp_path, "b.json", {"vocabulary": [], "universeSize": 2})
    for argv in (
        ("bp", "--program", program, "--x", ""),
        ("hom", "--n", "2", "--target", structure, "--k", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "malformed-instance" in err and out == ""
        assert "Traceback" not in err


PROGRAM = {"layers": [[0], [1]], "labels": {"0": {"x": 1}}, "edges": [[0, 1, 1]],
           "numX": 1, "numY": 0, "source": 0, "sink": 1}
STRUCTURE = {"vocabulary": {"relations": [["E", 2]]}, "universeSize": 2,
             "interpretation": {"E": [[0, 1]]}}
#: Reads y_2, then y_1: `bp --method fast` refuses it, `--method acc` counts 4.
FALLING_READ = {"layers": [[0], [1], [2]], "labels": {"0": {"y": 2}, "1": {"y": 1}},
                "edges": [[0, 1, 0], [0, 1, 1], [1, 2, 0], [1, 2, 1]],
                "numX": 0, "numY": 2, "source": 0, "sink": 2}


@pytest.mark.parametrize("code, text, argv", [
    ("bad-width", json.dumps({**PROGRAM, "labels": {}, "numX": -1}),
     ("bp", "--program", "@in", "--x", "1")),
    ("label-out-of-range", json.dumps({**PROGRAM, "labels": {"0": {"x": 2}}}),
     ("bp", "--program", "@in", "--x", "1")),
    ("bad-label", json.dumps({**PROGRAM, "labels": {"0": {"z": 1}}}),
     ("bp", "--program", "@in", "--x", "1")),
    ("duplicate-symbol",
     json.dumps({**STRUCTURE, "vocabulary": {"relations": [["E", 2]], "constants": ["E"]}}),
     ("mc", "--formula", "@phi", "--structure", "@in", "--k", "1")),
    ("empty-universe", json.dumps({**STRUCTURE, "universeSize": 0}),
     ("mc", "--formula", "@phi", "--structure", "@in", "--k", "1")),
    ("element-out-of-range", json.dumps({**STRUCTURE, "interpretation": {"E": [[0, 2]]}}),
     ("mc", "--formula", "@phi", "--structure", "@in", "--k", "1")),
    ("malformed-dimacs", "p dnf 1 1\n1 0\n",
     ("reach2cnf", "--graph", "@graph", "--cnf", "@in", "--a", "2", "--k", "1")),
    ("bad-literal", json.dumps({**DIAMOND, "clauses": [[1, 0]]}),
     ("reach2cnf", "--graph", "@in", "--a", "2", "--k", "1")),
    ("bad-matrix-shape", json.dumps({"n": 3, "rows": [[1, 0], [0, 1]]}),
     ("pdet", "--matrix", "@in", "--k", "2")),
    ("vertex-count-negative", json.dumps({"n": -1, "edges": []}),
     ("reach", "--graph", "@in", "--s", "0", "--t", "0", "--k", "1")),
    # DIMACS numbers are ASCII digits after an optional minus, never coerced.
    *(("malformed-dimacs", text,
       ("reach2cnf", "--graph", "@graph", "--cnf", "@in", "--a", "2", "--k", "1"))
      for text in ("p cnf 2 x\n1 0\n", "p cnf x 1\n1 0\n", "p cnf 4 1\ntwo 0\n",
                   "p cnf 4 1\n1.5 0\n", "p cnf 4 1\n1_0 0\n")),
    ("precondition-violated", json.dumps(FALLING_READ),
     ("bp", "--program", "@in", "--x", "", "--method", "fast")),
    *(("not-deterministic", json.dumps({**PROGRAM, "edges": [[0, 1, 1], [0, 1, 1]]}),
       ("bp", "--program", "@in", "--x", "1", "--method", method)) for method in ("acc", "fast")),
    # A label is exactly one of {"x": i}, {"y": j} and {"pass": true}.
    *((code, json.dumps({**PROGRAM, "labels": {"0": label}}),
       ("bp", "--program", "@in", "--x", "1"))
      for code, label in (("bad-label", {"x": 1, "y": 1}), ("bad-label", {"pass": True, "x": 1}),
                          ("unknown-field", {"y": 1, "colour": "red"}),
                          ("bad-label", {"pass": "yes"}), ("bad-label", {"pass": 1}))),
])
def test_refusal_codes(tmp_path, capsys, code, text, argv):
    (tmp_path / "in.txt").write_text(text)
    files = {"@in": str(tmp_path / "in.txt"), "@graph": write(tmp_path, "g.json", DIAMOND),
             "@phi": write(tmp_path, "phi.json",
                           {"atom": "E", "args": [{"var": "x"}, {"var": "y"}]})}
    exit_code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert exit_code == 1 and out == "" and err.startswith(f"error: {code}:")
    assert "Traceback" not in err


MC_ARGV = ("mc", "--formula", "@in", "--structure", "@structure", "--k", "1")
BP_ARGV = ("bp", "--program", "@in", "--x", "1")
HOM_ARGV = ("hom", "--n", "2", "--target", "@in", "--k", "2")


@pytest.mark.parametrize("code, doc, argv", [
    ("malformed-formula", {"eq": 5}, MC_ARGV),
    ("malformed-formula", {"op": "and", "args": None}, MC_ARGV),
    ("malformed-instance", {**PROGRAM, "labels": {"0": "x"}}, BP_ARGV),
    # A missing required field is named, as is a free-key field that is not an object.
    ("malformed-instance", {"rows": [[1]]}, ("pdet", "--matrix", "@in", "--k", "1")),
    ("malformed-instance", {k: v for k, v in PROGRAM.items() if k != "layers"}, BP_ARGV),
    ("malformed-instance", {k: v for k, v in STRUCTURE.items() if k != "universeSize"},
     HOM_ARGV),
    ("malformed-instance", {**PROGRAM, "labels": None}, BP_ARGV),
    ("malformed-instance", [STRUCTURE], HOM_ARGV),  # one shape code per reader
    # A name is never coerced into a string.
    ("malformed-formula", {"atom": "E", "args": [{"var": 5}, {"var": "y"}]}, MC_ARGV),
    ("malformed-formula", {"atom": ["E"], "args": []}, MC_ARGV),
    ("malformed-instance", {**STRUCTURE, "vocabulary": {"relations": [[5, 2]]},
                            "interpretation": {}}, HOM_ARGV),
    ("malformed-instance", {**STRUCTURE, "vocabulary": {"relations": [["E", 2]],
                                                        "constants": [1]},
                            "constantValues": {"1": 0}}, HOM_ARGV),
])
def test_wrongly_typed_field_has_a_stable_code(tmp_path, capsys, code, doc, argv):
    files = {"@in": write(tmp_path, "in.json", doc),
             "@structure": write(tmp_path, "A.json", STRUCTURE)}
    exit_code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert exit_code == 1 and out == "" and err.startswith(f"error: {code}:")
    assert "Error(" not in err and "Traceback" not in err


def test_limit_flag_and_env_guard_enumeration(tmp_path, capsys, monkeypatch):
    target = {
        "vocabulary": {
            "relations": [["E", 2], ["C_1", 1], ["C_2", 1], ["C_3", 1]],
            "constants": [],
        },
        "universeSize": 5,
        "interpretation": {"E": [], "C_1": [[0]], "C_2": [[1]], "C_3": [[2]]},
        "constantValues": {},
    }
    path = write(tmp_path, "b.json", target)
    code, _, err = run(
        capsys, "--limit", "10", "hom", "--n", "3", "--target", path, "--k", "3",
        "--oracle",
    )
    assert code == 1 and "limit-exceeded" in err
    monkeypatch.setenv("PARACOUNT_LIMIT", "10")
    code, _, err = run(capsys, "hom", "--n", "3", "--target", path, "--k", "3", "--oracle")
    assert code == 1 and "limit-exceeded" in err
    monkeypatch.delenv("PARACOUNT_LIMIT")
    code, out, _ = run(capsys, "hom", "--n", "3", "--target", path, "--k", "3", "--oracle")
    assert code == 0 and json.loads(out)["count"] == "0"
    # --limit reaches every exhaustive route; each still counts at the default.
    matrix = write(tmp_path, "ones2.json", {"n": 2, "rows": [[1, 1], [1, 1]]})
    formula = write(tmp_path, "phi.json", {"op": "and", "args": [
        {"atom": "E", "args": [{"var": "x1"}, {"var": "x2"}]},
        {"atom": "E", "args": [{"var": "x2"}, {"var": "x3"}]},
    ]})
    structure = write(tmp_path, "A.json", {
        "vocabulary": {"relations": [["E", 2]], "constants": []},
        "universeSize": 3,
        "interpretation": {"E": [[0, 1], [1, 2], [0, 2]]},
    })
    graph = write(tmp_path, "cc.json", {"n": 2, "edges": [[0, 0], [1, 1], [0, 1], [1, 0]]})
    program = write(tmp_path, "bp.json", {
        "layers": [[0], [1]], "labels": {"0": {"y": 1}}, "edges": [[0, 1, 0], [0, 1, 1]],
        "numX": 0, "numY": 1, "source": 0, "sink": 1,
    })
    for argv, key, expected in (
        (("pdet", "--matrix", matrix, "--k", "2", "--method", "direct"), "value", "-1"),
        (("mc", "--formula", formula, "--structure", structure, "--k", "3"), "count", "1"),
        (("cyclecover2cnf", "--graph", graph, "--a", "2", "--k", "1"), "count", "1"),
        (("bp", "--program", program, "--x", ""), "count", "2"),
    ):
        code, out, err = run(capsys, "--limit", "1", *argv)
        assert code == 1 and "limit-exceeded" in err and out == "", argv
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)[key] == expected, argv


@pytest.mark.parametrize(
    "flag, env", [([], "abc"), (["--limit", "-1"], None), ([], "-1")],
    ids=["env-abc", "flag-negative", "env-negative"],
)
def test_bad_limit_is_usage_error(tmp_path, capsys, monkeypatch, flag, env):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    if env is not None:
        monkeypatch.setenv("PARACOUNT_LIMIT", env)
    with pytest.raises(SystemExit) as exc:
        main([*flag, "reach", "--graph", graph, "--k", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    value = env if env is not None else flag[1]
    assert f"argument --limit: {value!r} is not a non-negative integer" in err
    assert "Traceback" not in err


def test_run_freezes_the_heap_before_main_and_exits_with_its_code(tmp_path, capsys,
                                                                   monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli.sys, "exit", lambda code: calls.append(("exit", code)))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    cli.run()
    assert calls == ["freeze", "main", ("exit", 3)]

    monkeypatch.undo()  # the real main, with freeze still spied on: it never freezes
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    calls.clear()
    graph = write(tmp_path, "diamond.json", DIAMOND)
    assert run(capsys, "reach", "--graph", graph, "--k", "3")[0] == 0
    assert run(capsys, "reach", "--graph", graph, "--s", "9", "--k", "3")[0] == 1
    assert usage(capsys, "reach", "--graph", graph)[0] == 2
    assert calls == []


def test_main_module_and_console_script_run_the_process_entry():
    # What `python -m paracount.cli` runs: the heap is frozen by the time atexit runs.
    *_, frozen = fresh_python(
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        "sys.argv = ['paracount', '--help']\n"
        "runpy.run_module('paracount.cli', run_name='__main__', alter_sys=True)\n"
    ).splitlines()
    assert int(frozen) > 0
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["paracount"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_a_fresh_process_prints_what_main_prints(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PARACOUNT_LIMIT", raising=False)  # as `fresh_process` drops it
    graph = write(tmp_path, "diamond.json", DIAMOND)
    cases = [("reach", "--graph", graph, "--k", "3"),
             ("reach", "--graph", graph, "--s", "9", "--k", "3"),  # a domain refusal
             ("reach", "--graph", graph)]  # a usage error: --k missing

    def masked(text):
        return re.sub(r'"elapsedMs": \d+', '"elapsedMs": 0', text)

    codes = []
    for argv in cases:
        proc = fresh_process("-m", "paracount.cli", *argv)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stderr, masked(proc.stdout)) == (
            code, captured.err, masked(captured.out)), argv
        codes.append(code)
    assert codes == [0, 1, 2]


def test_reduce_names_are_the_standard_reductions():
    assert list(REDUCTIONS) == sorted(reductions.standard_records())


def test_reach_process_loads_only_the_walk_modules(tmp_path):
    graph = write(tmp_path, "diamond.json", DIAMOND)
    script = (
        "import json, sys\n"
        "start = set(sys.modules)\n"
        "from paracount.cli import main\n"
        f"refused = main(['reach', '--graph', {str(tmp_path / 'missing.json')!r}, '--k', '3'])\n"
        "after_refusal = sorted(set(sys.modules) - start)\n"
        f"counted = main(['reach', '--graph', {graph!r}, '--k', '3'])\n"
        "print(json.dumps([refused, after_refusal, counted, sorted(sys.modules)]))\n"
    )
    report, modules = fresh_python(script).splitlines()
    refused, after_refusal, counted, loaded = json.loads(modules)
    assert (refused, counted, json.loads(report)["count"]) == (1, 0, "2")
    assert "hashlib" not in after_refusal  # only a report needs the digest
    assert ({m for m in loaded if m.startswith("paracount.")}
            == {"paracount.cli", *(f"paracount.{m}" for m in ROUTE_MODULES["reach"])})


def test_counting_processes_do_not_load_typing(tmp_path):
    target = FUZZ_DOCUMENTS["reduce-hom"][0]["target"]
    files = {"@graph": write(tmp_path, "g.json", DIAMOND),
             "@cnf": write(tmp_path, "cnf.json", {**DIAMOND, "clauses": [[1, -3]]}),
             "@phi": write(tmp_path, "phi.json",
                           {"atom": "E", "args": [{"var": "x"}, {"var": "y"}]}),
             "@structure": write(tmp_path, "A.json", STRUCTURE),
             "@matrix": write(tmp_path, "m.json", {"n": 2, "rows": [[1, 1], [1, 1]]}),
             "@program": write(tmp_path, "bp.json", PROGRAM),
             "@target": write(tmp_path, "B.json", target),
             "@reduce": write(tmp_path, "in.json", FUZZ_DOCUMENTS["reduce-hom"][0]),
             "@out": str(tmp_path / "out.json")}
    runs = [[files.get(arg, arg) for arg in argv] for argv in (
        ("reach", "--graph", "@graph", "--k", "3"),
        ("reach2cnf", "--graph", "@cnf", "--a", "2", "--k", "1"),
        ("mc", "--formula", "@phi", "--structure", "@structure", "--k", "1", "--local"),
        ("hom", "--n", "2", "--target", "@target", "--k", "2"),
        ("pdet", "--matrix", "@matrix", "--k", "2"),
        ("bp", "--program", "@program", "--x", "1", "--method", "fast"),
        ("reduce", "--name", "hom-to-reach", "--in", "@reduce", "--out", "@out"),
    )]
    # -S keeps `site` from importing `typing`; one process runs a subcommand
    # of every counting module and imports the self-test battery, so
    # whatever any of them imports is in its sys.modules.
    *reports, result = fresh_python(
        "import json, sys\n"
        "from paracount.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "import paracount.selftest\n"
        "print(json.dumps([codes, sorted({'typing', 'dataclasses', 'inspect'} & sys.modules.keys())]))\n",
        "-S",
    ).splitlines()
    assert len(reports) == len(runs) and json.loads(result) == [[0] * len(runs), []]


def every_subcommand(tmp_path, *, each_reduction=False):
    """A counting run of each subcommand: command line by name, in `COMMANDS`
    order.  ``each_reduction`` replaces the one ``reduce`` run by one run per
    reduction, named ``reduce <name>``, at the end."""
    target = FUZZ_DOCUMENTS["reduce-hom"][0]["target"]
    files = {"@graph": write(tmp_path, "g.json", DIAMOND),
             "@colours": write(tmp_path, "gc.json", {**DIAMOND, "colours": [1, 2, 2, 3]}),
             "@cnf": write(tmp_path, "cnf.json", {**DIAMOND, "clauses": [[1, -3]]}),
             "@phi": write(tmp_path, "phi.json",
                           {"atom": "E", "args": [{"var": "x"}, {"var": "y"}]}),
             "@structure": write(tmp_path, "A.json", STRUCTURE),
             "@matrix": write(tmp_path, "m.json", {"n": 2, "rows": [[1, 1], [1, 1]]}),
             "@program": write(tmp_path, "bp.json", PROGRAM),
             "@target": write(tmp_path, "B.json", target),
             "@reduce": write(tmp_path, "in.json", FUZZ_DOCUMENTS["reduce-hom"][0]),
             "@walks": write(tmp_path, "walks.json", FUZZ_DOCUMENTS["reduce-walks"][0]),
             "@out": str(tmp_path / "out.json")}
    runs = [
        ("reach", "--graph", "@graph", "--k", "3"),
        ("logreach", "--graph", "@graph", "--a", "2", "--k", "2"),
        ("logwalk", "--graph", "@graph", "--a", "2", "--k", "2"),
        ("reachcolour", "--graph", "@colours", "--k", "3"),
        ("reach2cnf", "--graph", "@cnf", "--a", "2", "--k", "1"),
        ("cyclecover2cnf", "--graph", "@cnf", "--a", "2", "--k", "1"),
        ("mc", "--formula", "@phi", "--structure", "@structure", "--k", "1", "--local"),
        ("hom", "--n", "2", "--target", "@target", "--k", "2"),
        ("pdet", "--matrix", "@matrix", "--k", "2"),
        ("bp", "--program", "@program", "--x", "1", "--method", "fast"),
        ("reduce", "--name", "hom-to-reach", "--in", "@reduce", "--out", "@out"),
        ("selftest", "--seed", "1"),
    ]
    assert [argv[0] for argv in runs] == list(COMMANDS)
    named = {argv[0]: argv for argv in runs}
    if each_reduction:
        del named["reduce"]
        named.update({f"reduce {name}": ("reduce", "--name", name, "--in",
                                         "@reduce" if name == "hom-to-reach" else "@walks",
                                         "--out", "@out") for name in REDUCTIONS})
    return {name: [files.get(arg, arg) for arg in argv] for name, argv in named.items()}


def loaded_by(argvs, *flags, as_main=False):
    """Exit codes of ``main`` on each command line, run in turn by one new
    interpreter, and the modules that interpreter then holds.  ``as_main``
    runs each command line as ``python -m paracount.cli`` runs it: `cli`
    executes as ``__main__`` and its process entry, ``run``, ends in
    ``sys.exit``."""
    if as_main:
        header = "import json, runpy, sys\n"
        call = ("    sys.argv = ['paracount', *argv]\n"
                "    try:\n"
                "        runpy.run_module('paracount.cli', run_name='__main__', alter_sys=True)\n"
                "    except SystemExit as exc:\n"
                "        codes.append(exc.code)\n")
    else:
        header = "import json, sys\nfrom paracount.cli import main\n"
        call = "    codes.append(main(argv))\n"
    *_, result = fresh_python(
        f"{header}codes = []\nfor argv in {argvs!r}:\n{call}"
        "print(json.dumps([codes, sorted(sys.modules)]))\n",
        *flags,
    ).splitlines()
    codes, modules = json.loads(result)
    return codes, set(modules)


DIGEST_PAYLOADS = [{}, [], {"command": "reach", "instance": DIAMOND, "k": 3},
                   {"b": [1, None, True, 2.5], "a": "\u00e9" * 300}, list(range(5000))]


def test_digest_is_the_first_16_hex_digits_of_sha256(monkeypatch):
    want = [hashlib.sha256(json.dumps(p, sort_keys=True, separators=(",", ":")).encode())
            .hexdigest()[:16] for p in DIGEST_PAYLOADS]
    assert want[2] == "0352c9b3f9025264"  # pinned: a change to the encoding shows
    assert [_digest(p) for p in DIGEST_PAYLOADS] == want
    # Without the interpreter's builtin sha256 the digest comes from hashlib.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert [_digest(p) for p in DIGEST_PAYLOADS] == want


def test_digest_covers_every_option_but_the_limit_and_each_input_file(tmp_path, capsys):
    def digest(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        return json.loads(out)["instanceDigest"]

    for command, argv in list(every_subcommand(tmp_path).items())[:10]:  # the counting ones
        first = digest(*argv)
        assert digest(*argv) == first and digest("--limit", "100", *argv) == first, command
        if command in ("reach", "logreach", "reachcolour", "reach2cnf"):
            changed = [*argv, "--s", "0"]  # the file's own s, now given as an option
        elif "--k" in argv:
            i = argv.index("--k") + 1
            changed = [*argv[:i], "2" if argv[i] == "1" else "1", *argv[i + 1:]]
        else:  # bp has no --k
            changed = [*argv[:-1], "acc"]
        assert digest(*changed) != first, command
        path = Path(next(arg for arg in argv if os.path.isfile(arg)))
        text = path.read_text()
        path.write_text(text + "\n")
        assert digest(*argv) != first, command
        path.write_text(text)
    graph = write(tmp_path, "diamond.json", DIAMOND)
    assert (digest("reach", "--graph", graph, "--s", "0", "--t", "3", "--k", "2")
            != digest("reach", "--graph", graph, "--s", "1", "--t", "3", "--k", "2"))


@pytest.mark.skipif(not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")),
                    reason="this interpreter has no builtin sha256 module")
def test_counting_processes_do_not_load_openssl(tmp_path):
    runs = every_subcommand(tmp_path)
    codes, loaded = loaded_by(list(runs.values()), "-S")  # -S: nothing from site
    assert codes == [0] * len(runs)
    assert not {"hashlib", "_hashlib"} & loaded


#: A route of `every_subcommand`'s `mc` or `bp` run, by an edit of its command line.
OTHER_ROUTES = {
    "mc brute": ("mc", lambda argv: [arg for arg in argv if arg != "--local"]),
    "bp acc": ("bp", lambda argv: [*argv[:-1], "acc"]),  # --method acc
    "bp y": ("bp", lambda argv: [*argv[:-2], "--y", ""]),  # acceptance; numY = 0
}


def every_route(tmp_path):
    """Every run of `every_subcommand(each_reduction=True)` and of `OTHER_ROUTES`."""
    named = every_subcommand(tmp_path, each_reduction=True)
    named.update((name, edit(named[command])) for name, (command, edit) in OTHER_ROUTES.items())
    return named


WALK_MODULES = {"walks", "graphs"}
PROGRAM_MODULES = {"commands.bp", "bp", "programs"}
REDUCE_MODULES = {"commands.reduce", "reductions", "transforms", "structures", *WALK_MODULES}

#: Route of `every_route` -> the `paracount.*` modules its process loads when
#: `cli` runs as `__main__`: README's module map plus `errors` and `commands`,
#: which every counting process loads.
ROUTE_MODULES = {name: {"errors", "commands", *modules} for name, modules in {
    "reach": {"commands.graph", *WALK_MODULES},
    "logreach": {"commands.graph", *WALK_MODULES},
    "logwalk": {"commands.graph", *WALK_MODULES},
    "reachcolour": {"commands.graph", *WALK_MODULES},
    "reach2cnf": {"commands.graph", "cnf", *WALK_MODULES},
    "cyclecover2cnf": {"commands.graph", "covers", "cnf", *WALK_MODULES},
    "mc": {"commands.mc", "fo", "formulas", "structures", "sweep", "walks"},  # with --local
    "mc brute": {"commands.mc", "fo", "formulas", "structures"},
    "hom": {"commands.hom", "homs", "structures", *WALK_MODULES},
    "pdet": {"commands.pdet", "pdet", "walks"},
    "bp": PROGRAM_MODULES,  # with --method fast
    "bp acc": PROGRAM_MODULES,
    "bp y": PROGRAM_MODULES,
    "reduce hom-to-reach": {*REDUCE_MODULES, "homs"},
    "reduce reach-to-mc": {*REDUCE_MODULES, "fo", "formulas"},
    "reduce reach-to-pdet": {*REDUCE_MODULES, "pdet"},
    "reduce reachcolour-to-hom": {*REDUCE_MODULES, "homs"},
    "selftest": {"commands.selftest", "selftest", "oracles", "bp", "programs", "cnf", "covers",
                 "fo", "formulas", "sweep", "homs", "pdet", "reductions", "transforms",
                 "structures", *WALK_MODULES},
}.items()}

FORMULA_MODULES = {"fo", "formulas", "sweep"}


@pytest.mark.parametrize("command, unused", [
    ("pdet", {"graphs", *PROGRAM_MODULES, *FORMULA_MODULES}),
    ("mc", {"graphs", *PROGRAM_MODULES}),  # with --local
    ("bp", {"graphs", "walks", *FORMULA_MODULES}),  # with --method fast
])
def test_pdet_mc_and_bp_processes_do_not_load_graphs(tmp_path, command, unused):
    codes, loaded = loaded_by([every_subcommand(tmp_path)[command]])
    assert codes == [0] and f"paracount.{COMMANDS[command][2]}" in loaded
    assert not {f"paracount.{name}" for name in unused} & loaded


@pytest.mark.parametrize("command, used, unused", [
    ("hom", {"homs", "structures"}, FORMULA_MODULES),
    ("mc", {*FORMULA_MODULES, "structures"}, set()),  # with --local
    ("reduce", {"reductions", "structures"}, set()),  # hom-to-reach
])
def test_hom_process_does_not_load_fo(tmp_path, command, used, unused):
    codes, loaded = loaded_by([every_subcommand(tmp_path)[command]])
    assert codes == [0]
    assert {f"paracount.{name}" for name in used} <= loaded
    assert not {f"paracount.{name}" for name in unused} & loaded


def test_no_command_resolves_a_name_through_the_moved_table(tmp_path, capsys, monkeypatch):
    # `paracount._MOVED` serves the benchmark alone: the CLI and the self-test
    # battery import every name from its defining module.
    resolved = []

    def spy(module, name):
        value = moved(module, name)  # the import system probes `__path__` here too
        resolved.append(f"{module}.{name}")
        return value

    moved = paracount._moved
    monkeypatch.setattr(paracount, "_moved", spy)
    runs = list(every_route(tmp_path).values())  # selftest at smoke scale
    codes = [main(argv) for argv in runs]
    capsys.readouterr()
    assert codes == [0] * len(runs) and resolved == []


@pytest.mark.parametrize("name", ROUTE_MODULES)
def test_a_process_compiles_only_its_own_command_module(tmp_path, name):
    codes, loaded = loaded_by([every_route(tmp_path)[name]], as_main=True)
    assert codes == [0] and "paracount" in loaded
    # Exactly the route's modules; `cli` runs as `__main__`, compiled once.
    assert ({m for m in loaded if m.startswith("paracount.")}
            == {f"paracount.{m}" for m in ROUTE_MODULES[name]})


#: The most AST nodes (by `ast.walk`) of a module that a counting process loads: a
#: process compiles its modules from source when it writes no bytecode, and its
#: max-RSS follows the largest one it compiles (README, "Start-up").
MAX_MODULE_NODES = 1500


def test_no_counting_process_loads_a_module_over_the_node_bound(tmp_path):
    runs = {name: argv for name, argv in every_subcommand(tmp_path, each_reduction=True).items()
            if argv[0] != "selftest"}
    codes, loaded = loaded_by(list(runs.values()))
    assert codes == [0] * len(runs)
    sizes = {}
    for name in sorted(m for m in loaded if m == "paracount" or m.startswith("paracount.")):
        source = Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
        sizes[name] = sum(1 for _ in ast.walk(ast.parse(source)))
    assert {"paracount.fo", "paracount.bp", "paracount.reductions"} <= sizes.keys()
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_NODES} == {}


def test_help_and_usage_errors_load_no_command_module():
    codes, loaded = loaded_by([["--help"], ["nosuch"], []], as_main=True)
    assert codes == [0, 2, 2]
    assert not {m for m in loaded if m.startswith("paracount.commands")}
    codes, loaded = loaded_by([["reach"]], as_main=True)  # --graph missing
    assert codes == [2] and "paracount.commands.graph" in loaded
    assert not {"paracount.walks", "paracount.graphs"} & loaded


def test_counting_runs_and_refusals_build_no_parser(tmp_path):
    runs = list(every_subcommand(tmp_path, each_reduction=True).values())
    refusals = [[str(tmp_path / "missing.json") if os.path.isfile(arg) else arg for arg in argv]
                for argv in runs if argv[0] != "selftest"]  # an input file gone: exit 1
    # -S: nothing from site, so whatever holds argparse, gettext or locale loaded it.
    codes, loaded = loaded_by([*runs, ["--limit", "100", *runs[0]], *refusals], "-S",
                              as_main=True)
    assert codes == [0] * (len(runs) + 1) + [1] * len(refusals)
    assert not {"argparse", "gettext", "locale"} & loaded
    for argv, code in ((["--help"], 0), (["reach", "--graph", "g.json"], 2)):
        codes, loaded = loaded_by([argv], "-S", as_main=True)
        assert codes == [code] and {"argparse", "gettext", "locale"} <= loaded


#: One valid document per input format, with the command line that reads it.
FUZZ_DOCUMENTS = {
    "graph": ({**DIAMOND, "colours": [1, 2, 2, 3]}, ("reachcolour", "--graph", "@in", "--k", "3")),
    "cnf-graph": ({**DIAMOND, "clauses": [[1, -3]]},
                  ("reach2cnf", "--graph", "@in", "--a", "2", "--k", "1")),
    "matrix": ({"n": 2, "rows": [[1, 1], [0, 1]]}, ("pdet", "--matrix", "@in", "--k", "2")),
    "program": ({**PROGRAM, "layers": [[0], [1], [2]], "edges": [[0, 1, 1], [1, 2, None]],
                 "labels": {"0": {"x": 1}, "1": {"pass": True}}, "sink": 2}, BP_ARGV),
    "formula": ({"op": "and", "args": [
        {"atom": "E", "args": [{"var": "x"}, {"const": "c"}]},
        {"op": "not", "args": [{"eq": [{"var": "x"}, {"var": "y"}]}]}]},
        ("mc", "--formula", "@in", "--structure", "@structure", "--k", "4")),
    "structure": ({**STRUCTURE, "vocabulary": {"relations": [["E", 2]], "constants": ["c"]},
                   "constantValues": {"c": 1}},
                  ("mc", "--formula", "@phi", "--structure", "@in", "--k", "1", "--local")),
    "reduce-walks": ({"graph": {"n": 3, "edges": [[0, 1], [1, 2]], "colours": [1, 2, 3]},
                      "s": 0, "t": 2, "k": 3},
                     ("reduce", "--name", "reachcolour-to-hom", "--in", "@in", "--out", "@out")),
    "reduce-hom": ({"n": 2, "k": 2, "target": {
        "vocabulary": {"relations": [["E", 2], ["C_1", 1], ["C_2", 1]]}, "universeSize": 2,
        "interpretation": {"E": [[0, 1], [1, 0]], "C_1": [[0]], "C_2": [[1]]}}},
                   ("reduce", "--name", "hom-to-reach", "--in", "@in", "--out", "@out")),
}
FUZZ_VALUES = (None, True, -1, 0, 1.5, "x", [], {}, [[0]])


def _slots(doc, path=()):
    """Every (path, value) inside ``doc``, the document itself first."""
    yield path, doc
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _slots(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """(format, document, strict, array): one valid document with one key
    dropped or added, one value replaced, or the whole wrapped in a list.
    ``strict`` is set where the reader must name the fault, not print a Python
    repr; ``array`` is set where a JSON array was replaced by a scalar, which
    must not end in a TypeError or ValueError repr either."""
    name = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[name][0]))
    how = draw(st.sampled_from(("drop", "add", "replace", "wrap")))
    if how == "wrap":
        return name, [doc], False, False
    slots = list(_slots(doc))
    if how == "add":
        _, target = draw(st.sampled_from([s for s in slots if isinstance(s[1], dict)]))
        target[draw(st.sampled_from(("extra", "n", "args", "x")))] = 1
        return name, doc, False, False
    if how == "drop":  # a key, that is, a path ending in a string
        path, old = draw(st.sampled_from([s for s in slots if s[0] and isinstance(s[0][-1], str)]))
    else:
        path, old = draw(st.sampled_from(slots))
    value = draw(st.sampled_from(FUZZ_VALUES))
    if not path:
        return name, value, not isinstance(value, dict), False
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
        return name, doc, True, False
    parent[path[-1]] = value
    return (name, doc, isinstance(old, dict) and not isinstance(value, dict),
            isinstance(old, list) and not isinstance(value, (dict, list)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents())
def test_mutated_documents_exit_with_a_stable_code(tmp_path, case):
    name, doc, strict, array = case
    files = {"@in": write(tmp_path, "in.json", doc), "@out": str(tmp_path / "out.json"),
             "@structure": write(tmp_path, "A.json", FUZZ_DOCUMENTS["structure"][0]),
             "@phi": write(tmp_path, "phi.json",
                           {"atom": "E", "args": [{"var": "x"}, {"const": "c"}]})}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([files.get(arg, arg) for arg in FUZZ_DOCUMENTS[name][1]])
    err = err.getvalue()
    assert code == 0 or (code == 1 and re.match(r"error: [a-z0-9-]+: ", err)), (name, doc, err)
    assert "Traceback" not in err
    if strict:
        assert "KeyError(" not in err and "AttributeError(" not in err, (name, doc, err)
    if array:
        assert "TypeError(" not in err and "ValueError(" not in err, (name, doc, err)


#: Option values that fit their kind, and odd ones: spellings argparse reads
#: as something else or refuses (``\u0663`` and ``1_0`` are ints to both).
FITTING = {int: ("0", "3", "12"), str: ("a", "7", "x y")}
ODD = {int: ("-1", "", "x", " 4", "\u0663", "1_0", "1.5", "-h", "--"),
       str: ("", "-x", "-h", "--", "-1")}
LIMIT_VALUES = ("0", "100", "\u0663", "abc", "-1", "", "1_0")
STRAY_TOKENS = ("-h", "--help", "--", "-1", "", "x", "--nosuch", "--limit", "5", "--k", "reach")
FAULTS = ("odd value", "no such choice", "abbreviated", "=", "twice", "bare", "left out",
          "stray", "subcommand")


@st.composite
def command_lines(draw):
    """(argv, faults): a subcommand with its options in the canonical
    spelling, each required one given and each other one maybe, and then up
    to two faults: an odd value, a choice not offered, an abbreviated flag,
    ``--opt=value``, an option given twice, a flag without its value (or a
    store-true flag with one), a required option left out, a stray token, a
    wrong subcommand."""
    command = draw(st.sampled_from(list(COMMANDS)))
    head = ["--limit", draw(st.sampled_from(LIMIT_VALUES))] if draw(st.booleans()) else []
    given_options = []  # [kind, tokens] for each option given
    for flag, _, kind, default, _ in draw(st.permutations(
            cli._command_module(command).OPTIONS[command])):
        if default is ... or draw(st.booleans()):
            fitting = kind if isinstance(kind, tuple) else FITTING.get(kind)
            given_options.append([kind, [flag] if kind is bool else
                                  [flag, draw(st.sampled_from(fitting))]])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    stray = []
    for fault in faults:
        if fault == "stray":
            stray.append(draw(st.sampled_from(STRAY_TOKENS)))
            continue
        if fault == "subcommand":
            command = draw(st.sampled_from((command[:4], "nosuch", "", "--help")))
            continue
        if not given_options:
            continue
        i = draw(st.integers(0, len(given_options) - 1))
        if fault == "no such choice":  # given to an option with choices, if there is one
            i = max(range(len(given_options)), key=lambda j: isinstance(given_options[j][0], tuple))
            fault = "odd value"
        kind, tokens = given_options[i]
        flag = tokens[0]
        if fault == "odd value" and len(tokens) == 2 and kind is not bool:
            tokens[1] = draw(st.sampled_from(
                ODD.get(kind) or ("other", kind[0].upper(), kind[0][:2], "")))
        elif fault == "abbreviated" and len(flag) > 3:
            tokens[0] = flag[:draw(st.integers(3, len(flag) - 1))]
        elif fault == "=":
            given_options[i][1] = ["=".join(tokens) if kind is not bool else flag + "=1"]
        elif fault == "twice":
            given_options.append([kind, list(tokens)])
        elif fault == "bare":
            given_options[i][1] = [flag, "1"] if kind is bool else [flag]
        elif fault == "left out":
            del given_options[i]
    argv = [*head, command, *(token for _, tokens in given_options for token in tokens)]
    for token in stray:
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv, faults


@settings(max_examples=1000, deadline=None)
@given(command_lines(), st.sampled_from((None, "7", "abc", "-1")))
def test_direct_reader_parses_as_argparse_does(case, env_limit):
    argv, faults = case
    with mock.patch.dict(os.environ):
        os.environ.pop("PARACOUNT_LIMIT", None)
        if env_limit is not None:
            os.environ["PARACOUNT_LIMIT"] = env_limit
        direct = cli._direct(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(cli._build_parser().parse_args(argv))
            except SystemExit as exc:  # 0 after help, 2 after a usage error
                parsed = exc.code
    if isinstance(parsed, int):
        assert parsed in (0, 2) and direct is None, argv
    elif direct is not None:  # the canonical spelling only: no flag twice
        flags = [arg for arg in argv if arg.startswith("-")]
        assert vars(direct) == parsed and len(flags) == len(set(flags)), argv
    elif not faults:
        raise AssertionError(f"{argv} is canonical, but the direct reader passed it on")
