import contextlib
import io
import itertools
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import helix.oracle
import helix.solver
from helix import Graph, OpCounter, SolutionSet, Trace, cli, codebook_to_json, generate_codebook, read_trace_document
from helix.cli import MAX_RANDOM_PAIRS, ConfigError, main, parse_graph_spec, random_graph
from helix.codec import MAX_GENERATED_INDEX_BYTES

GOLDEN_K3 = "tests/data/k3_trace.json"


def run_cli(*argv):
    return main(list(argv))


def test_solve_k3_summary(capsys):
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3") == 0
    out = capsys.readouterr().out
    assert "peak tube size 18 of k^n = 27" in out
    assert "colorable: true; 6 solutions" in out
    assert "red green blue" in out


def test_solve_uncolorable_is_still_success(capsys):
    assert run_cli("solve", "--graph", "builtin:k4", "--colors", "3") == 0
    assert "colorable: false" in capsys.readouterr().out


def test_solve_trace_matches_golden(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert (
        run_cli(
            "solve", "--graph", "builtin:k3", "--colors", "3",
            "--codebook", "table1", "--trace", str(path),
        )
        == 0
    )
    capsys.readouterr()
    got = json.loads(path.read_text())
    assert path.read_bytes() == open(GOLDEN_K3, "rb").read()
    read_trace_document(got)  # schema check


def test_solve_mode_both_writes_both_documents(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert (
        run_cli(
            "solve", "--graph", "builtin:c5", "--colors", "3",
            "--mode", "both", "--trace", str(path),
        )
        == 0
    )
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert set(doc) == {"incremental", "monolithic"}
    assert doc["monolithic"]["construction"] == "synthetic"
    assert doc["incremental"]["solutions"] == doc["monolithic"]["solutions"]


@pytest.mark.parametrize("mode", ["incremental", "both"])
def test_solve_trace_file_holds_the_bytes_json_prints(mode, tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ("solve", "--graph", "builtin:c5", "--colors", "3", "--mode", mode)
    assert run_cli(*argv, "--trace", str(path), "--json") == 0
    out = capsys.readouterr().out
    assert path.read_bytes() == out.encode()
    assert json.loads(out)["incremental" if mode == "both" else "solutions"]


def test_text_solve_builds_and_encodes_no_document(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the text listing built a trace document")

    monkeypatch.setattr(helix.solver, "trace_document", must_not_run)
    monkeypatch.setattr(cli.json, "dumps", must_not_run)
    assert run_cli("solve", "--graph", "builtin:c5", "--colors", "3", "--mode", "both") == 0
    assert "colorable: true; 30 solutions" in capsys.readouterr().out


def test_solve_text_lists_the_first_solutions_in_json_order(capsys):
    argv = ("solve", "--graph", "builtin:petersen", "--colors", "3")
    assert run_cli(*argv, "--json") == 0
    solutions = json.loads(capsys.readouterr().out)["solutions"]
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out.splitlines()
    listed = out[out.index("colorable: true; 120 solutions") + 1:]
    assert listed[-1] == "  ... and 100 more"
    assert listed[:-1] == ["  " + cli._coloring_text(c) for c in solutions[:20]]


def test_solve_json_output(capsys):
    assert run_cli("solve", "--graph", "builtin:p4", "--colors", "2", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["colorable"] is True
    assert len(doc["solutions"]) == 2


def test_solve_nucleotide_match(capsys):
    assert (
        run_cli(
            "solve", "--graph", "builtin:c5", "--colors", "3",
            "--codebook", "table1", "--match", "nucleotide", "--json",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["solutions"]) == 30


def test_solve_with_order_flag(capsys):
    assert (
        run_cli(
            "solve", "--graph", "builtin:c5", "--colors", "3",
            "--order", "5,4,3,2,1", "--json",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == [5, 4, 3, 2, 1]
    assert len(doc["solutions"]) == 30


def test_bad_order_is_config_error(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("an engine ran before the order was checked")

    for name in ("solve_incremental", "solve_monolithic"):
        monkeypatch.setattr(helix.solver, name, must_not_run)
    monkeypatch.setattr(helix.oracle, "enumerate_colorings", must_not_run)
    for argv, message in (
        (("solve", "--graph", "builtin:c5", "--colors", "3", "--order", "1,2"), "permutation"),
        (("solve", "--graph", "builtin:k3", "--colors", "3", "--mode", "monolithic", "--order", "1,1,1"), "permutation"),
        (("compare", "--graph", "random:13,0.3,1", "--colors", "3", "--order", "1,2"), "permutation"),
        (("solve", "--graph", "builtin:k3", "--colors", "3", "--order", "1,x"), "order must be 'natural' or a comma list, got '1,x'"),
    ):
        assert run_cli(*argv) == 2, argv
        assert message in capsys.readouterr().err


def test_table1_too_small_for_instance(capsys):
    code = run_cli("solve", "--graph", "random:13,0.3,1", "--colors", "3", "--codebook", "table1")
    assert code == 2
    assert "table1 covers 12" in capsys.readouterr().err
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "4", "--codebook", "table1") == 2


def test_graph_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.col"
    path.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    assert run_cli("solve", "--graph", str(path), "--colors", "3", "--json") == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 6


def test_solve_reports_a_reduction_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "k4_in_660.col"  # 3^660 does not fit in a float
    path.write_text(
        "p edge 660 6\n" + "".join(f"e {u} {v}\n" for u, v in itertools.combinations(range(1, 5), 2))
    )
    assert run_cli("solve", "--graph", str(path), "--colors", "3") == 0
    out = capsys.readouterr().out
    assert "(2.27e-314 of the full space, reduction 4.41e+313x)" in out
    assert "colorable: false" in out


def test_run_summary_names_k_to_the_n_past_the_int_string_limit(capsys):
    g = Graph.from_edges(9100, [])  # 3^9100 has 4342 decimal digits
    trace = Trace((), OpCounter(), 3)
    cli._print_run(g, 3, "incremental", SolutionSet((), True), trace)
    assert "peak tube size 3 of k^n = 3^9100 (" in capsys.readouterr().out


def test_run_summary_writes_k_to_the_n_in_digits_up_to_14000_bits(capsys):
    trace = Trace((), OpCounter(), 2)
    cli._print_run(Graph(13999, frozenset()), 2, "incremental", SolutionSet((), True), trace)
    assert f"peak tube size 2 of k^n = {2**13999} (" in capsys.readouterr().out
    cli._print_run(Graph(14000, frozenset()), 2, "incremental", SolutionSet((), True), trace)
    assert "peak tube size 2 of k^n = 2^14000 (" in capsys.readouterr().out


def test_parse_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1 5\n")
    assert run_cli("solve", "--graph", str(bad), "--colors", "3") == 1
    assert "line 2" in capsys.readouterr().err
    assert run_cli("solve", "--graph", str(tmp_path / "missing.col"), "--colors", "3") == 1
    binary = tmp_path / "binary.col"
    binary.write_bytes(b"p edge 2 1\ne 1 \xff\xfe\n")
    assert run_cli("solve", "--graph", str(binary), "--colors", "3") == 1


def test_duplicate_edges_warn_on_stderr(tmp_path, capsys):
    path = tmp_path / "dup.col"
    path.write_text("p edge 2 2\ne 1 2\ne 2 1\n")
    assert run_cli("solve", "--graph", str(path), "--colors", "2", "--json") == 0
    assert "duplicate edge" in capsys.readouterr().err


def test_budget_env_var_refuses_monolithic(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", "20")  # over k3's least peak of 18, under k^n = 27
    code = run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--mode", "monolithic")
    assert code == 2
    err = capsys.readouterr().err
    assert "monolithic engine" in err and "budget of 20" in err


def test_budget_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", "lots")
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--mode", "monolithic") == 2
    assert "HELIX_BUDGET" in capsys.readouterr().err


def test_compare_agreement(capsys):
    assert run_cli("compare", "--graph", "builtin:c5", "--colors", "3") == 0
    out = capsys.readouterr().out
    assert "agree: true" in out
    assert "reduction factor" in out


def test_compare_json_report(capsys):
    assert run_cli("compare", "--graph", "builtin:k4", "--colors", "3", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] is True
    assert doc["counts"] == {"oracle": 0, "incremental": 0, "monolithic": 0}
    assert doc["reduction_factor"] > 1


def test_compare_json_bytes_are_pinned(capsys):
    assert run_cli("compare", "--graph", "builtin:k3", "--colors", "3", "--json") == 0
    assert capsys.readouterr().out == (
        '{\n  "graph": {\n    "n": 3,\n    "m": 3\n  },\n  "k": 3,\n  "agree": true,\n'
        '  "counts": {\n    "oracle": 6,\n    "incremental": 6,\n    "monolithic": 6\n  },\n'
        '  "peak_tube_size": {\n    "incremental": 18,\n    "monolithic": 27\n  },\n'
        '  "reduction_factor": 1.5\n}\n'
    )


def test_compare_agrees_with_strands_two_words_wide(capsys):
    # 3 x 22 = 66 tokens: symbolic strands past token 62 take a second 64-bit word
    assert run_cli("compare", "--graph", "builtin:k3", "--colors", "22", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] is True
    assert doc["counts"] == {"oracle": 9240, "incremental": 9240, "monolithic": 9240}


def test_compare_over_budget_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", "100")  # over c5's least peak of 18 at k=3, under k^n = 243
    assert run_cli("compare", "--graph", "builtin:c5", "--colors", "3") == 2
    assert "monolithic engine" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("compare",), ("solve", "--mode", "monolithic")])
def test_a_monolithic_refusal_names_k_to_the_n_past_the_int_string_limit(argv, tmp_path, capsys):
    path = tmp_path / "iso.col"  # 2^14300 has 4305 decimal digits, more than str() writes
    path.write_text("p edge 14300 0\n")
    assert run_cli(*argv, "--graph", str(path), "--colors", "2") == 2
    assert "k^n = 2^14300 strands, over the budget of 2000000" in capsys.readouterr().err


def test_compare_over_oracle_limit_is_config_error(capsys):
    assert run_cli("compare", "--graph", "random:25,0.0,1", "--colors", "1") == 2
    assert "24" in capsys.readouterr().err


def test_compare_disagreement_prints_counterexample(capsys, monkeypatch):
    real = helix.solver.solve_incremental

    def lossy(g, k, cb, match_mode="symbolic", order=None):
        sols, trace = real(g, k, cb, match_mode, order)
        dropped = sols.ordered[1:]
        return SolutionSet(dropped, bool(dropped)), trace

    monkeypatch.setattr(helix.solver, "solve_incremental", lossy)
    code = run_cli("compare", "--graph", "builtin:c5", "--colors", "3")
    out = capsys.readouterr().out
    assert code == 3
    assert "agree: false" in out
    assert "counterexample:" in out
    # the dropped coloring is the lexicographically smallest solution
    assert "red red green" in out or "red green" in out


def test_codebook_generate_and_validate(tmp_path, capsys):
    path = tmp_path / "cb.json"
    assert (
        run_cli(
            "codebook", "generate", "--n", "4", "--colors", "3",
            "--length", "16", "--seed", "9", "--out", str(path),
        )
        == 0
    )
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["n"] == 4 and doc["k"] == 3 and len(doc["entries"]) == 12

    assert run_cli("codebook", "validate", "--codebook", str(path)) == 0
    assert "ok: true" in capsys.readouterr().out


def test_codebook_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            run_cli(
                "codebook", "generate", "--n", "3", "--colors", "2",
                "--length", "12", "--seed", "4", "--out", str(path),
            )
            == 0
        )
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert run_cli("codebook", "generate", "--n", "3", "--colors", "2", "--length", "12", "--seed", "4") == 0
    assert capsys.readouterr().out.encode() == a.read_bytes()


def test_codebook_validate_table1(capsys):
    assert run_cli("codebook", "validate", "--codebook", "table1") == 0
    out = capsys.readouterr().out
    assert "duplicates: 0" in out
    assert "junction violations: 0" in out


def test_codebook_validate_json_bytes_are_pinned(capsys):
    assert run_cli("codebook", "validate", "--codebook", "table1", "--json") == 0
    assert capsys.readouterr().out == (
        '{\n  "ok": true,\n  "duplicates": [],\n  "junction_violations": [],\n  "min_pairwise_hamming": 7\n}\n'
    )


def test_codebook_validate_rejects_broken(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 2, "k": 1, "length": 4, "provenance": "test",
                "entries": [
                    {"vertex": 1, "color": 0, "sequence": "AAAA"},
                    {"vertex": 2, "color": 0, "sequence": "AAAT"},
                ],
            }
        )
    )
    assert run_cli("codebook", "validate", "--codebook", str(path)) == 4
    out = capsys.readouterr().out
    assert "ok: false" in out
    assert "offset" in out


def test_a_codebook_file_whose_words_do_not_have_its_length_is_refused(tmp_path, capsys):
    """A declared length of 20 over 8-base words was read, validated and written back as 20."""
    path = tmp_path / "cb.json"
    path.write_text(json.dumps(dict(codebook_to_json(generate_codebook(2, 2, 8, 0)), length=20)))
    assert run_cli("codebook", "validate", "--codebook", str(path)) == 1
    err = capsys.readouterr().err
    assert "cannot read codebook file" in err and "entry (1,0) has 8 bases, not the codebook's length 20" in err
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "2", "--codebook", str(path)) == 1


def test_codebook_validate_json_of_a_broken_codebook_is_pinned(tmp_path, capsys):
    """AGAG twice over holds AGAG at offset 2: one junction violation, exit 4."""
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 2, "k": 1, "length": 4, "provenance": "test",
                "entries": [
                    {"vertex": 1, "color": 0, "sequence": "AAAC"},
                    {"vertex": 2, "color": 0, "sequence": "AGAG"},
                ],
            }
        )
    )
    assert run_cli("codebook", "validate", "--codebook", str(path), "--json") == 4
    assert capsys.readouterr().out == (
        '{\n  "ok": false,\n  "duplicates": [],\n  "junction_violations": [\n    {\n'
        '      "word": [\n        2,\n        0\n      ],\n'
        '      "left": [\n        2,\n        0\n      ],\n'
        '      "right": [\n        2,\n        0\n      ],\n'
        '      "offset": 2\n    }\n  ],\n  "min_pairwise_hamming": 2\n}\n'
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--graph", "builtin:k3", "--colors", "3", "--trace"), "cannot write trace"),
        (("codebook", "generate", "--n", "3", "--colors", "2", "--length", "12", "--seed", "4", "--out"), "cannot write"),
    ],
    ids=["solve --trace", "codebook generate --out"],
)
def test_a_file_in_a_missing_directory_is_an_input_error(tmp_path, capsys, argv, message):
    path = tmp_path / "missing" / "out.json"
    assert run_cli(*argv, str(path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} {str(path)!r}: [Errno 2]")


def test_codebook_file_not_json_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    assert run_cli("codebook", "validate", "--codebook", str(path)) == 1
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", str(path)) == 1
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"n": \xff\xfe}')
    assert run_cli("codebook", "validate", "--codebook", str(binary)) == 1
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", str(binary)) == 1
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    assert run_cli("codebook", "validate", "--codebook", str(nested)) == 1
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", str(nested)) == 1


def test_random_graph_spec_deterministic():
    g1, _ = parse_graph_spec("random:6,0.4,3")
    g2, _ = parse_graph_spec("random:6,0.4,3")
    assert g1 == g2 == random_graph(6, 0.4, 3)


def test_a_random_graph_of_one_vertex_is_accepted():
    assert parse_graph_spec("random:1,0.5,7") == (Graph(1, frozenset()), [])


@pytest.mark.parametrize(
    "spec",
    ["random:6,0.4", "random:6,x,1", "random:0,0.4,1", "random:6,1.5,1", "builtin:nope"],
)
def test_bad_graph_specs_are_config_errors(spec, capsys):
    assert run_cli("solve", "--graph", spec, "--colors", "3") == 2
    capsys.readouterr()


def _limit_memory():  # a run that slipped past a refusal dies, not the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(*argv, timeout):
    """`helix argv` in a child under a 1 GiB address-space limit and a timeout."""
    return subprocess.run(
        [sys.executable, "-m", "helix", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_memory,
    )


def test_random_graph_past_the_pair_cap_is_refused_at_once():
    proc = run_limited("solve", "--graph", "random:100000000,0.0,1", "--colors", "2", timeout=1)
    assert proc.returncode == 2, proc.stderr
    assert f"over {MAX_RANDOM_PAIRS}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_codebook_too_large_to_generate_is_refused_before_any_draw():
    """The least peak of 100 vertices at k=5 is 600 strands, but 500 codewords of 1000 nt need 6.5e8 index bytes."""
    proc = run_limited("solve", "--graph", "random:100,0.0,1", "--colors", "5", "--codebook", "gen:1000,0", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert f"over the limit of {MAX_GENERATED_INDEX_BYTES}" in proc.stderr
    assert "Traceback" not in proc.stderr
    # 1414 x 1414 would need a 13 GB codebook; the budget refuses it first
    proc = run_limited("solve", "--graph", "random:1414,0.0,1", "--colors", "1414", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "at least 2825146548 strands" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_codebook_coverage_is_checked_before_the_natural_order_is_listed(tmp_path):
    path = tmp_path / "huge.col"
    path.write_text("p edge 3000000000 0\n")
    proc = run_limited("solve", "--graph", str(path), "--colors", "2", "--codebook", "table1", timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "codebook table1 covers 12 vertices x 3 colors, run needs 3000000000 x 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run_limited("solve", "--graph", str(path), "--colors", "2", "--codebook", "table1", "--order", "1,2", timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "order must be a permutation of 1..3000000000, got [1, 2]" in proc.stderr


def test_a_monolithic_run_is_refused_by_coverage_before_k_to_the_n_is_built(tmp_path):
    path = tmp_path / "huge.col"  # 2^3000000000 would take 375 MB
    path.write_text("p edge 3000000000 0\n")
    proc = run_limited("solve", "--graph", str(path), "--colors", "2", "--codebook", "table1", "--mode", "monolithic", timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "codebook table1 covers 12 vertices x 3 colors, run needs 3000000000 x 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_monolithic_start_tube_past_what_an_int_can_hold_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", str(10**400))  # over 2^70 strands, whose mask of 2^70 bits no int holds
    assert run_cli("solve", "--mode", "monolithic", "--graph", "random:70,0.0,1", "--colors", "2") == 2
    err = capsys.readouterr().err
    assert "cannot build its start tube of k^n = 1180591620717411303424 strands" in err
    assert "Traceback" not in err


def test_a_monolithic_start_tube_past_memory_is_refused(monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", str(10**12))  # over 2^36 strands, whose mask takes 8 GiB
    proc = run_limited("solve", "--mode", "monolithic", "--graph", "random:36,0.0,1", "--colors", "2", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "config error: the monolithic engine cannot build its start tube of k^n = 68719476736 strands" in proc.stderr
    assert "Traceback" not in proc.stderr


NINES_2200, NINES_4300 = "9" * 2200, "9" * 4300  # str writes ints of up to 4,300 digits


def refused_by_name(argv, capsys, message):
    """Exit 2 with a config error that names an int past str's limit by its bit length."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "bits>" in err
    assert "Traceback" not in err


def test_random_pairs_past_the_int_string_limit_are_refused_by_name(capsys):
    refused_by_name(["solve", "--graph", f"random:{NINES_2200},0.5,1", "--colors", "2"], capsys, "pair draws, over 1000000")


def test_a_generated_codebook_past_the_int_string_limit_is_refused_by_name(capsys):
    refused_by_name(["codebook", "generate", "--n", NINES_4300, "--colors", "1"], capsys, "bytes to generate, over the limit")


def test_a_dimacs_graph_past_the_int_string_limit_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "huge.col"  # its default codebook, gen:20,0, is refused by size
    path.write_text(f"p edge {NINES_4300} 0\n")
    refused_by_name(["solve", "--graph", str(path), "--colors", "2"], capsys, "bytes to generate, over the limit")


# Refusal paths drawn from edge values: every run these admit has k = 1 and
# at most four vertices, and every other one must be refused before an engine
# starts.  edge{i}.col is `p edge N 0` with N = _INTS[i].
_INTS = ("-1", "0", "1", str(2**63), NINES_2200, NINES_4300)
_int, _length = st.sampled_from(_INTS), st.sampled_from(_INTS + ("20",))
_graph = st.one_of(
    st.builds("random:{},{},{}".format, _int, st.sampled_from(["0.0", "0.5", "1.0", "nan", "inf"]), _int),
    st.sampled_from([f"edge{i}.col" for i in range(len(_INTS))]),
    st.just("builtin:k4"),
)
_run = st.builds(
    lambda command, graph, k, length, seed: [command, "--graph", graph, "--colors", k, "--codebook", f"gen:{length},{seed}"],
    st.sampled_from(["solve", "compare"]), _graph, _int, _length, _int,
)
_generate = st.builds(
    lambda n, k, length, seed: ["codebook", "generate", "--n", n, "--colors", k, "--length", length, "--seed", seed],
    _int, _int, _length, _int,
)
# Orders of builtin:k3 with repeats, out-of-range and empty entries, and entries past 4,300 digits.
_order = st.just("natural") | st.lists(
    st.sampled_from(["1", "2", "3", "0", "4", "-1", "", " 2", "x", NINES_2200, NINES_4300, NINES_4300 + "9"]),
    max_size=4,
).map(",".join)
_ordered = st.builds(
    lambda command, order: [command, "--graph", "builtin:k3", "--colors", "3", "--order", order],
    st.sampled_from(["solve", "compare"]), _order,
)
# Requests that read the drawn codebook document, cb.json.
_coded = st.sampled_from(
    [
        ["solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", "cb.json"],
        ["solve", "--graph", "builtin:k3", "--colors", "2", "--codebook", "cb.json", "--match", "nucleotide"],
        ["compare", "--graph", "builtin:k3", "--colors", "3", "--codebook", "cb.json"],
        ["codebook", "validate", "--codebook", "cb.json"],
        ["codebook", "validate", "--codebook", "cb.json", "--json"],
    ]
)
# JSON texts for a codebook field: wrong types, a `length` of 1e999 (inf once parsed) and
# ints past 4,300 digits, which json refuses to parse.
_json_value = st.sampled_from(
    ["1e999", "-1", "0", "1", "3", str(2**63), NINES_2200, NINES_4300 + "9", '"3"', "3.5", "[]", "{}", "null", "true"]
)
_CB = codebook_to_json(generate_codebook(3, 3, 20, 0))


def _json_object(fields: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(name)}: {text}" for name, text in fields.items()) + "}"


@st.composite
def _codebook_text(draw):
    """The 3 x 3 codebook as JSON text, with up to three drawn edits."""
    doc = {name: json.dumps(value) for name, value in _CB.items() if name != "entries"}
    entries = [{name: json.dumps(value) for name, value in entry.items()} for entry in _CB["entries"]]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["set", "drop", "set in entry", "drop in entry", "repeat", "out of range", "empty"]))
        field = draw(st.sampled_from(["n", "k", "length", "provenance", "entries"]))
        entry = draw(st.sampled_from(entries)) if entries else {}
        if edit == "set":
            doc[field] = draw(_json_value)
        elif edit == "drop":
            doc.pop(field, None)
        elif edit == "set in entry":
            entry[draw(st.sampled_from(["vertex", "color", "sequence"]))] = draw(_json_value)
        elif edit == "drop in entry":
            entry.pop(draw(st.sampled_from(["vertex", "color", "sequence"])), None)
        elif edit == "repeat":
            entries.append(dict(entry))
        elif edit == "out of range":
            entries.append({**entry, "vertex": draw(st.sampled_from(["0", "4"])), "color": draw(st.sampled_from(["-1", "3"]))})
        else:
            entries = []
    doc.setdefault("entries", "[" + ", ".join(map(_json_object, entries)) + "]")
    return _json_object(doc)


def _ends_in_a_documented_exit_code(argv, budget, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for i, n in enumerate(_INTS):
        (tmp_path / f"edge{i}.col").write_text(f"p edge {n} 0\n")
    if budget is None:
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.BUDGET_ENV, budget)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
            assert code == 2
    assert code in range(5)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_run | _generate, budget=st.none() | _int)
@example(argv=["solve", "--graph", f"random:{NINES_2200},0.5,1", "--colors", "2"], budget=None)
@example(argv=["codebook", "generate", "--n", NINES_4300, "--colors", "1"], budget=None)
@example(argv=["solve", "--graph", "edge5.col", "--colors", "2"], budget=None)
@example(argv=["codebook", "generate", "--n", "0", "--colors", str(2**63)], budget=None)  # an empty table
def test_every_drawn_request_ends_in_a_documented_exit_code(argv, budget, tmp_path, monkeypatch):
    _ends_in_a_documented_exit_code(argv, budget, tmp_path, monkeypatch)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ordered | _coded, budget=st.none() | _int, codebook=_codebook_text())
@example(argv=["solve", "--graph", "builtin:k3", "--colors", "3", "--order", f"1,2,{NINES_4300}9"], budget=None, codebook="{}")
@example(argv=["codebook", "validate", "--codebook", "cb.json"], budget=None, codebook=_json_object({"length": "1e999"}))
def test_every_drawn_order_and_codebook_file_ends_in_a_documented_exit_code(argv, budget, codebook, tmp_path, monkeypatch):
    (tmp_path / "cb.json").write_text(codebook)
    _ends_in_a_documented_exit_code(argv, budget, tmp_path, monkeypatch)


def test_an_order_entry_past_the_int_string_limit_is_named_too_long(capsys):
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--order", f"1,2,-{NINES_4300}9") == 2
    assert capsys.readouterr().err == "config error: order entry 3 is too long: 4301 digits\n"


@pytest.mark.parametrize(
    "budget, graph, codebook, name",
    [
        (f"{NINES_4300}9", "builtin:k3", "table1", "HELIX_BUDGET"),
        (None, f"random:{NINES_4300}9,0.5,1", "table1", "random graph n"),
        (None, f"random:3,0.5,-{NINES_4300}9", "table1", "random graph seed"),
        (None, "builtin:k3", f"gen:{NINES_4300}9,1", "generator length"),
        (None, "builtin:k3", f"gen:20,+{NINES_4300}9", "generator seed"),
    ],
    ids=["budget", "random n", "random seed", "gen length", "gen seed"],
)
def test_a_number_past_the_int_string_limit_is_named_too_long(budget, graph, codebook, name, capsys, monkeypatch):
    if budget is not None:
        monkeypatch.setenv("HELIX_BUDGET", budget)
    assert run_cli("solve", "--graph", graph, "--colors", "3", "--codebook", codebook) == 2
    assert capsys.readouterr().err == f"config error: {name} is too long: 4301 digits\n"


def test_a_run_whose_least_peak_is_over_the_budget_is_refused_before_it_fills_memory():
    # K4 at 200 colors peaks at 200 * 200 * 199 * 198 strands
    proc = run_limited("solve", "--graph", "builtin:k4", "--colors", "200", timeout=5)
    assert proc.returncode == 2, proc.stderr
    assert "200 colors need at least 7960000 strands on any engine, over the budget of 2000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_random_graph_pair_cap_is_exact():
    # Called directly, not through solve: an accepted edgeless graph this size
    # would run the incremental engine without bound.
    assert random_graph(1414, 0.0, 1).n == 1414  # 998,991 pairs
    with pytest.raises(ConfigError, match="1000405 pair draws"):
        random_graph(1415, 0.0, 1)


def test_colors_past_the_budget_are_refused_before_the_codebook_is_made():
    proc = subprocess.run(
        [sys.executable, "-m", "helix", "solve", "--graph", "builtin:k3", "--colors", "100000000"],
        capture_output=True,
        text=True,
        timeout=1,
    )
    assert proc.returncode == 2, proc.stderr
    assert "at least 10000000000000000 strands" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_a_least_peak_past_the_int_string_limit_is_named_by_its_bits(command, capsys, monkeypatch):
    # k and the budget have 2,200 digits each, so str() takes both, but k * k has 4,399
    monkeypatch.setenv("HELIX_BUDGET", str(10**2199))
    assert run_cli(command, "--graph", "builtin:k3", "--colors", str(10**2199)) == 2
    err = capsys.readouterr().err
    assert f"need at least <int of {(10**4398).bit_length()} bits> strands on any engine" in err
    assert "Traceback" not in err


def test_colors_budget_bound_is_k_squared_or_k_for_one_vertex(tmp_path, capsys, monkeypatch):
    path, two = tmp_path / "one.col", tmp_path / "two.col"
    path.write_text("p edge 1 0\n")
    two.write_text("p edge 2 0\n")
    cases = (
        (18, "builtin:k3", True), (17, "builtin:k3", False),  # k * k * (k - 1) from three vertices on
        (9, str(two), True), (8, str(two), False),
        (3, str(path), True), (2, str(path), False),
    )
    for budget, graph, ok in cases:
        monkeypatch.setenv("HELIX_BUDGET", str(budget))
        code = run_cli("solve", "--graph", graph, "--colors", "3", "--codebook", "table1")
        assert code == (0 if ok else 2), (budget, graph)
        assert ("any engine" in capsys.readouterr().err) is not ok


def test_bad_codebook_specs_are_config_errors(capsys):
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", "gen:20") == 2
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", "gen:2,1") == 2
    capsys.readouterr()
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", "gen:a,b") == 2
    assert "bad numbers in generator spec 'gen:a,b'" in capsys.readouterr().err
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", "gen:100000000000000000000,1") == 2
    assert run_cli("codebook", "generate", "--n", "3", "--colors", "3", "--length", "1001") == 2
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "helix", "solve", "--graph", "builtin:k3", "--colors", "3", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["peak_tube_size"] == 18


def test_a_reader_closing_stdout_early_ends_the_run_with_the_pipe_code():
    """As `helix solve ... --json | head -c 600` does: no traceback, exit cli.EXIT_PIPE."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "helix", "solve", "--graph", "random:22,0.2,3", "--colors", "3", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(600)) == 600  # the JSON is far longer than a pipe buffer
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert b"Traceback" not in proc.stderr.read()
    proc.stderr.close()


def test_codebook_file_with_non_integer_field_exit_1(tmp_path, capsys):
    path = tmp_path / "cb.json"
    assert run_cli("codebook", "generate", "--n", "3", "--colors", "3", "--out", str(path)) == 0
    doc = json.loads(path.read_text())
    doc["n"] = "x"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("solve", "--graph", "builtin:k3", "--colors", "3", "--codebook", str(path)) == 1
    assert "'n' must be an integer" in capsys.readouterr().err


def test_budget_env_var_of_zero_is_a_budget_of_zero(monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", "0")
    assert cli.strand_budget() == 0


def test_budget_env_var_must_not_be_negative(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_BUDGET", "-5")
    assert run_cli("compare", "--graph", "builtin:k3", "--colors", "3") == 2
    err = capsys.readouterr().err
    assert "must not be negative" in err and "over the budget" not in err


def _write_codebook(path, sequences):
    entries = [{"vertex": v, "color": c, "sequence": seq} for (v, c), seq in sequences.items()]
    path.write_text(json.dumps({"n": 2, "k": 2, "entries": entries}), encoding="utf-8")


def test_codebook_with_a_word_at_the_start_of_another_is_refused(tmp_path, capsys):
    # TAA is the start of TAAGG, so nucleotide extract of TAA would also pick TAAGG.
    cb = tmp_path / "cb.json"
    _write_codebook(cb, {(1, 0): "TAA", (1, 1): "TAAGG", (2, 0): "TTGG", (2, 1): "GAT"})
    graph = tmp_path / "p2.col"
    graph.write_text("p edge 2 1\ne 1 2\n", encoding="utf-8")
    assert run_cli("codebook", "validate", "--codebook", str(cb)) == 4
    assert "ok: false" in capsys.readouterr().out
    solve = ("solve", "--graph", str(graph), "--colors", "2", "--codebook", str(cb))
    assert run_cli(*solve, "--match", "nucleotide") == 2
    assert "failed validation" in capsys.readouterr().err
    assert run_cli(*solve) == 0
    capsys.readouterr()


def test_text_files_do_not_use_the_locale_encoding(tmp_path):
    graph = tmp_path / "k3.col"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", encoding="utf-8")
    cb = tmp_path / "cb.json"
    commands = [
        ["solve", "--graph", str(graph), "--colors", "3", "--trace", str(tmp_path / "t.json")],
        ["codebook", "generate", "--n", "3", "--colors", "3", "--out", str(cb)],
        ["codebook", "validate", "--codebook", str(cb)],
        ["codebook", "validate", "--codebook", "table1"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "helix", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
