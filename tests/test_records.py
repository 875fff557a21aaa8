"""The value records' contract, and what importing helix loads.

The frozen records are named tuples, Graph and OpCounter small slotted
classes; each keeps its field order, keyword construction, equality, hashing,
immutability and repr.  Importing helix pulls in neither dataclasses nor the
modules only the command line (argparse) or the built-in table (importlib
resources) use.
"""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import helix
from helix import (
    Codeword,
    Graph,
    JunctionViolation,
    OpCounter,
    SolutionSet,
    StepRecord,
    Trace,
    TubeMachine,
    ValidationReport,
    builtin_graph,
    builtin_table1,
    solve_incremental,
    validate_codebook,
)

CW = Codeword(1, 0, "ACGT")
CW2 = Codeword(2, 1, "TTGA")
STEP = StepRecord(2, 3, (3, 3), (2, 2), 2, 4)

# (class, field names in order, one value per field, a different value for the first field)
RECORDS = [
    (Codeword, ("vertex", "color", "sequence"), (1, 0, "ACGT"), 2),
    (JunctionViolation, ("word", "left", "right", "offset"), (CW, CW2, CW, 2), CW2),
    (ValidationReport, ("duplicates", "junction_violations", "sequences"), (((CW, CW2),), (), ("ACGT",)), ()),
    (
        StepRecord,
        ("vertex", "t0_before", "per_color_after_append", "per_color_after_filter", "discarded", "t0_after"),
        (2, 3, (3, 3), (2, 2), 2, 4),
        3,
    ),
    (Trace, ("steps", "op_totals", "peak_tube_size"), ((STEP,), None, 6), ()),
    (SolutionSet, ("ordered", "colorable"), (((0, 1), (1, 0)), True), ()),
    (Graph, ("n", "edges"), (3, frozenset({(1, 2)})), 4),
    (OpCounter, ("append", "copy", "merge", "extract", "detect", "discard"), (6, 0, 1, 0, 0, 0), 7),
]
FROZEN = RECORDS[:-1]
NAMES = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, fields, values, other", RECORDS, ids=NAMES)
def test_records_construct_by_position_and_keyword_in_field_order(cls, fields, values, other):
    assert tuple(inspect.signature(cls).parameters) == fields
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, f) for f in fields) == values
    assert cls(other, *values[1:]) != by_position


@pytest.mark.parametrize("cls, fields, values, other", FROZEN, ids=NAMES[:-1])
def test_frozen_records_hash_by_value_and_refuse_assignment(cls, fields, values, other):
    record = cls(*values)
    assert hash(record) == hash(cls(*values))
    assert {record, cls(*values), cls(other, *values[1:])} == {record, cls(other, *values[1:])}
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
    assert record == cls(*values)


def test_a_trace_holding_its_mutable_counter_is_unhashable():
    with pytest.raises(TypeError):
        hash(Trace((STEP,), OpCounter(), 6))
    with pytest.raises(TypeError):
        hash(OpCounter())


def test_op_counter_ticks_its_fields_and_refuses_other_names():
    counter = OpCounter(append=6, merge=1)
    counter.append += 1
    assert counter.as_dict() == {"append": 7, "copy": 0, "merge": 1, "extract": 0, "detect": 0, "discard": 0}
    with pytest.raises(AttributeError):
        counter.appends = 1  # a misspelt tick fails instead of adding an attribute


def test_op_counter_snapshot_keeps_still_while_the_machine_ticks():
    machine = TubeMachine()
    first, second = machine.copy(machine.new_tube("t0", [((1, 0),), ((1, 1),)]), 2)
    before = machine.counter.snapshot()
    machine.detect(first)
    machine.discard(second)
    assert before == OpCounter(copy=1) and before is not machine.counter
    assert machine.counter == OpCounter(copy=1, detect=1, discard=1)


def test_record_reprs_are_pinned():
    table1_report = validate_codebook(builtin_table1())
    assert repr(table1_report) == "ValidationReport(duplicates=(), junction_violations=())"
    assert repr(OpCounter()) == "OpCounter(append=0, copy=0, merge=0, extract=0, detect=0, discard=0)"
    assert repr(CW) == "Codeword(vertex=1, color=0, sequence='ACGT')"
    assert repr(JunctionViolation(CW, CW2, CW, 2)) == (
        "JunctionViolation(word=Codeword(vertex=1, color=0, sequence='ACGT'), "
        "left=Codeword(vertex=2, color=1, sequence='TTGA'), "
        "right=Codeword(vertex=1, color=0, sequence='ACGT'), offset=2)"
    )
    assert repr(ValidationReport(((CW, CW2),), (), ("ACGT", "TTGA"))) == (
        "ValidationReport(duplicates=((Codeword(vertex=1, color=0, sequence='ACGT'), "
        "Codeword(vertex=2, color=1, sequence='TTGA')),), junction_violations=())"
    )
    assert repr(SolutionSet(((0, 1), (1, 0)), True)) == "SolutionSet(ordered=((0, 1), (1, 0)), colorable=True)"
    assert repr(Graph(3, frozenset({(1, 2)}))) == "Graph(n=3, edges=frozenset({(1, 2)}))"
    _, trace = solve_incremental(builtin_graph("k3"), 3, builtin_table1())
    assert repr(trace.steps[1]) == (
        "StepRecord(vertex=2, t0_before=3, per_color_after_append=(3, 3, 3), "
        "per_color_after_filter=(2, 2, 2), discarded=3, t0_after=6)"
    )
    assert repr(Trace((), trace.op_totals, trace.peak_tube_size)) == (
        "Trace(steps=(), op_totals=OpCounter(append=9, copy=3, merge=9, extract=9, detect=1, discard=6), "
        "peak_tube_size=18)"
    )
    assert repr(builtin_table1()) == "Codebook(n=12, k=3, provenance='table1')"
    machine = TubeMachine()
    tube = machine.new_tube("T0", [()])
    assert repr(tube) == "Tube('T0', 1 strands)"
    machine.discard(tube)
    assert repr(tube) == "Tube('T0', retired)"


def test_validation_report_works_out_its_least_distance_once():
    class Counted(tuple):
        reads = 0

        def __iter__(self):
            Counted.reads += 1
            return super().__iter__()

    report = ValidationReport((), (), Counted(("ACGT", "ACGA", "TTTTT", "ATTTT")))
    assert (report.min_pairwise_hamming, report.min_pairwise_hamming) == (1, 1)
    assert Counted.reads == 1
    assert report == ValidationReport((), (), ("ACGT", "ACGA", "TTTTT", "ATTTT"))
    assert report != ValidationReport((), (), ("ACGT",))  # sequences are compared, only not shown


def test_value_records_are_tuples_and_graph_is_not():
    vertex, color, sequence = CW
    assert CW == (vertex, color, sequence) == (1, 0, "ACGT")
    g = Graph(3, frozenset({(1, 2)}))
    assert not isinstance(g, tuple) and g != (3, frozenset({(1, 2)}))
    assert copy.copy(g) == pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize(
    "n, edges, message",
    [(0, (), "vertex count must be positive"), (3, {(2, 2)}, "self-loop"), (3, {(1, 4)}, "not normalized"),
     (3, {(2, 1)}, "not normalized")],
)
def test_graph_refuses_a_bad_edge_when_built(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, frozenset(edges))


def test_importing_helix_and_its_cli_loads_only_what_a_solve_needs():
    """In an interpreter whose site loads nothing (-S), helix and helix.cli add none of these modules."""
    child = "import sys, helix, helix.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(helix.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    loaded = set(proc.stdout.split())
    assert "helix.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "argparse", "importlib.resources"} == set()


def test_the_trace_module_imports_no_engine():
    """helix.trace takes only OpCounter and the message namer from the package, so the engines can take their records from it."""
    tree = ast.parse(Path(helix.trace.__file__).read_text(encoding="utf-8"))
    package = [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert package == [("codec", ["_show"]), ("machine", ["OpCounter"])]


def test_no_helix_module_imports_dataclasses():
    for path in sorted(Path(helix.__file__).parent.glob("*.py")):
        imported = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append(node.module)
        assert "dataclasses" not in {name.split(".")[0] for name in imported}, path.name
