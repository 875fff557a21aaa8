"""Desk-scale simulator of tube-based computation for graph k-coloring.

The package models a bench of strand multisets with six operations (append,
copy, merge, extract, detect, discard), an incremental coloring run that
prunes infeasible strands vertex by vertex, a monolithic full-space baseline,
and an independent backtracking oracle to arbitrate between them.
"""

from .codec import (
    BLANK_STRAND,
    Codebook,
    CodecError,
    Codeword,
    DecodeError,
    GenerationError,
    JunctionViolation,
    SoundnessError,
    Strand,
    Token,
    ValidationReport,
    builtin_table1,
    codebook_from_json,
    codebook_to_json,
    color_name,
    decode_strand,
    dump_codebook,
    generate_codebook,
    load_codebook,
    render,
    validate_codebook,
)
from .graphs import (
    DimacsError,
    Graph,
    builtin_graph,
    builtin_names,
    parse_dimacs,
    render_dimacs,
)
from .machine import MachineFault, OpCounter, Tube, TubeMachine
from .oracle import (
    OracleBudgetError,
    count_colorings,
    enumerate_colorings,
    is_proper,
)
from .solver import (
    BudgetError,
    DEFAULT_STRAND_BUDGET,
    solve_incremental,
    solve_monolithic,
    step_census,
)
from .trace import (
    SolutionSet,
    SolverError,
    StepRecord,
    Trace,
    read_trace_document,
    trace_document,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK_STRAND",
    "BudgetError",
    "Codebook",
    "CodecError",
    "Codeword",
    "DEFAULT_STRAND_BUDGET",
    "DecodeError",
    "DimacsError",
    "GenerationError",
    "Graph",
    "JunctionViolation",
    "MachineFault",
    "OpCounter",
    "OracleBudgetError",
    "SolutionSet",
    "SolverError",
    "SoundnessError",
    "StepRecord",
    "Strand",
    "Token",
    "Trace",
    "Tube",
    "TubeMachine",
    "ValidationReport",
    "builtin_graph",
    "builtin_names",
    "builtin_table1",
    "codebook_from_json",
    "codebook_to_json",
    "color_name",
    "count_colorings",
    "decode_strand",
    "dump_codebook",
    "enumerate_colorings",
    "generate_codebook",
    "is_proper",
    "load_codebook",
    "parse_dimacs",
    "read_trace_document",
    "render",
    "render_dimacs",
    "solve_incremental",
    "solve_monolithic",
    "step_census",
    "trace_document",
    "validate_codebook",
]
