"""Per-layer spans, recorded from outside the program by wrapping its public names.

Each wrapped function records calls, inclusive time, self time (inclusive
time minus the time of wrapped calls made inside it) and an amount of work
taken from its arguments or result.  Every name is patched where it is
looked up at call time, so the program itself is not modified:

- TubeMachine methods on the class (amount: strands in the input tubes);
- helix.machine.render, which nucleotide extract calls (amount: bases);
- helix.solver.coloring_from_strand, which decodes the final tube;
- helix.cli.generate_codebook, which parse_codebook_spec calls;
- helix.codec.validate_codebook, which Codebook.validation calls;
- helix.cli.parse_dimacs, which parse_graph_spec calls;
- the solver, oracle and cli entry points the child calls through their modules.
"""

from __future__ import annotations

from time import perf_counter_ns

MACHINE_OPS = ("new_tube", "append", "copy", "merge", "extract", "detect", "discard")


class Span:
    __slots__ = ("calls", "ns", "self_ns", "amount")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.amount = 0


class Recorder:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.extract_matched = 0  # strands sent to the + tube by extract
        self.strands_created = 0  # strands put into tubes by new_tube and copy
        self._child_ns = [0]  # per open span: time spent in wrapped calls inside it

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn as span `name`; before(args) and after(result, args) each add to its amount."""
        span = self.spans.setdefault(name, Span())
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                span.amount += before(args)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                inner = stack.pop()
                stack[-1] += dt
                span.calls += 1
                span.ns += dt
                span.self_ns += dt - inner
            if after is not None:
                span.amount += after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install() -> Recorder:
    """Patch the program's layer boundaries; returns the recorder that fills up."""
    from helix import cli, codec, machine, oracle, solver

    rec = Recorder()
    tm = machine.TubeMachine

    def copy_before(args):
        _, tube, count = args
        rec.strands_created += (count - 1) * len(tube)
        return len(tube)

    def new_tube_after(result, args):
        rec.strands_created += len(result)
        return len(result)

    def extract_after(result, args):
        rec.extract_matched += len(result[0])
        return 0

    hooks = {
        "new_tube": (None, new_tube_after),
        "append": (lambda a: len(a[1]), None),
        "copy": (copy_before, None),
        "merge": (lambda a: sum(len(t) for t in a[2]), None),
        "extract": (lambda a: len(a[1]), extract_after),
        "detect": (lambda a: len(a[1]), None),
        "discard": (lambda a: len(a[1]), None),
    }
    for op in MACHINE_OPS:
        before, after = hooks[op]
        setattr(tm, op, rec.wrap(f"machine.{op}", getattr(tm, op), before, after))

    machine.render = rec.wrap("codec.render", machine.render, after=lambda r, a: len(r))
    solver.coloring_from_strand = rec.wrap("codec.coloring_from_strand", solver.coloring_from_strand)
    cli.generate_codebook = rec.wrap("codec.generate_codebook", cli.generate_codebook)
    codec.validate_codebook = rec.wrap("codec.validate_codebook", codec.validate_codebook)
    cli.parse_dimacs = rec.wrap("graphs.parse_dimacs", cli.parse_dimacs)
    for name in ("solve_incremental", "solve_monolithic", "trace_document"):
        setattr(solver, name, rec.wrap(f"solver.{name}", getattr(solver, name)))
    oracle.enumerate_colorings = rec.wrap("oracle.enumerate_colorings", oracle.enumerate_colorings)
    for name in ("parse_graph_spec", "parse_codebook_spec"):
        setattr(cli, name, rec.wrap(f"cli.{name}", getattr(cli, name)))
    return rec


def per_layer(rec: Recorder) -> dict[str, float]:
    """Flat per-layer metrics of one child, summable across children."""
    s = rec.spans
    out: dict[str, float] = {}
    for op in MACHINE_OPS:
        span = s[f"machine.{op}"]
        out[f"machine.{op}.calls"] = span.calls
        out[f"machine.{op}.time_s"] = span.ns / 1e9
        out[f"machine.{op}.strands"] = span.amount
    out["machine.extract.matched"] = rec.extract_matched
    out["machine.strands_created"] = rec.strands_created
    for name in ("solve_incremental", "solve_monolithic", "trace_document"):
        out[f"solver.{name}.calls"] = s[f"solver.{name}"].calls
        out[f"solver.{name}.time_s"] = s[f"solver.{name}"].ns / 1e9
    out["solver.self_s"] = (
        s["solver.solve_incremental"].self_ns + s["solver.solve_monolithic"].self_ns
    ) / 1e9
    for name in ("render", "generate_codebook", "validate_codebook", "coloring_from_strand"):
        out[f"codec.{name}.calls"] = s[f"codec.{name}"].calls
        out[f"codec.{name}.time_s"] = s[f"codec.{name}"].ns / 1e9
    out["codec.render.bases"] = s["codec.render"].amount
    out["oracle.enumerate_colorings.calls"] = s["oracle.enumerate_colorings"].calls
    out["oracle.enumerate_colorings.time_s"] = s["oracle.enumerate_colorings"].ns / 1e9
    out["graphs.parse_dimacs.calls"] = s["graphs.parse_dimacs"].calls
    out["graphs.parse_dimacs.time_s"] = s["graphs.parse_dimacs"].ns / 1e9
    for name in ("parse_graph_spec", "parse_codebook_spec"):
        out[f"cli.{name}.time_s"] = s[f"cli.{name}"].ns / 1e9
    return out
