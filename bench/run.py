"""helix benchmark: seeded G(n, m) batches through the public API, checked by the oracle.

Usage, from the repository root:

    python3 bench/run.py --workload incremental --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py and explained in README.md.  A run
generates its graphs from --seed, writes them as DIMACS files under
.bench_work/, and solves them in a sequence of fresh child interpreters (one
batch each, see child.py) that import helix from src/.  The number of batches
is --seconds divided by the workload's nominal batch time, so the same seed
and length always give the same instances and the same counts.

With --trace 0 the run reports end-to-end metrics, each the median over the
run's batches.  Every time is corrected for host speed by the calibration
loop each child interleaves with its work (see README.md).  With --trace 1 every batch is run twice, untraced and then
traced, and the run reports per-layer metrics summed over the traced
batches, plus the tracing overhead (median traced minus median untraced
wall time).  Every instance is checked against oracle.enumerate_colorings
and against an independent per-step census; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # a run must end within 180 s
CHILD_TIMEOUT_S = 120
CALIBRATION_REF_S = 0.015
# Times of layers that some workload never calls: a constant 0 there, so they
# are printed in the report but kept out of the JSON metrics.
REPORT_ONLY = ("solver.solve_monolithic.time_s", "codec.render.time_s", "codec.validate_codebook.time_s")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(spec_path: Path, env: dict) -> dict:
    """Run one child to completion; wall time from spawn to exit, max RSS from wait4."""
    out_path, err_path = spec_path.with_suffix(".out"), spec_path.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        tail = err_path.read_text()[-2000:]
        print(f"child {spec_path.name} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return {"wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024, "result": result}


def instance_error(inst: workloads.Instance, res: dict) -> str | None:
    """Why the program's answer on one instance is wrong, or None."""
    if res["error"] is not None:
        return res["error"]
    if not res["agree"]:
        return "solutions disagree with oracle.enumerate_colorings"
    if res["t0_after"] != list(inst.census[1:]):
        return f"census law broken: t0_after {res['t0_after']} != {list(inst.census[1:])}"
    if res["solutions"] != inst.census[-1] or res["colorable"] != (inst.census[-1] > 0):
        return f"{res['solutions']} solutions, independent count {inst.census[-1]}"
    return None


class Run:
    def __init__(self, w: workloads.Workload, workdir: Path):
        self.w = w
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.gate_errors: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HELIX_BUDGET")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def write_graphs(self, b: int, batch) -> list[str]:
        paths = []
        for i, inst in enumerate(batch):
            path = self.workdir / f"b{b}_{i}.col"
            path.write_text(inst.dimacs(f"helix bench {self.w.name} batch {b} instance {i}"))
            paths.append(str(path))
        return paths

    def child(self, b: int, batch, paths, trace: bool, timeout_s: int) -> dict:
        """Run one batch in a child, check every instance, return its measurements."""
        spec = {
            "graphs": paths, "k": self.w.k, "match": self.w.match, "compare": self.w.compare,
            "trace": trace, "src": str(SRC), "timeout_s": timeout_s,
        }
        spec_path = self.workdir / f"b{b}_{'t' if trace else 'u'}.json"
        spec_path.write_text(json.dumps(spec))
        got = spawn(spec_path, self.env)
        res = got["result"]
        self.attempted += len(batch)
        if res is None or len(res["instances"]) != len(batch):
            self.failed += len(batch)
            got["ok"] = False
            return got
        # Host speed drifts by 10-20% over seconds; scale this child's times to
        # the speed its interleaved calibration loop saw (see child.calibrate).
        cal = res["calibration"]
        speed = CALIBRATION_REF_S / statistics.median(cal)
        got["speed"] = speed
        got["times"] = {
            "setup_s": res["setup_s"] * speed,
            "solve_s": res["solve_s"] * speed,
            "wall_s": (got["wall_s"] - sum(cal)) * speed,
        }
        errors = [instance_error(inst, r) for inst, r in zip(batch, res["instances"])]
        for i, e in enumerate(errors):
            if e is not None:
                print(f"batch {b} instance {i}: {e}", file=sys.stderr)
        self.failed += sum(e is not None for e in errors)
        got["ok"] = not any(errors)
        got["peak_sum"] = sum(r.get("peak", 0) for r in res["instances"])
        if trace:
            layers = res["layers"]
            got["layers"] = {n: v * speed if n.endswith("_s") else v for n, v in layers.items()}
            for op, count in res["op_totals"].items():
                if layers[f"machine.{op}.calls"] != count:
                    self.gate_errors.append(
                        f"batch {b}: wrappers saw {layers[f'machine.{op}.calls']} {op} calls, "
                        f"Trace.op_totals says {count}"
                    )
        return got


def quantile_note(values) -> str:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"median {statistics.median(values):.6g} (n={n}"
    if n >= 11:
        pct = int(100 * (1 - 10 / n))
        note += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return note + ")"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "helix" / "__init__.py").is_file():
        print(f"error: no helix sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_run = perf_counter()
    w = workloads.WORKLOADS[args.workload]
    per_batch_s = w.nominal_s * (2 if args.trace else 1)
    count = max(1 if args.trace else 3, round(args.seconds / per_batch_s))
    all_batches = workloads.batches(w, args.seed, count)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK))
    run = Run(w, workdir)
    plain, traced = [], []
    try:
        for b, batch in enumerate(all_batches):
            remaining = RUN_LIMIT_S - (perf_counter() - t_run)
            if remaining < 10:
                print(f"warning: stopped after {b} of {count} batches to end in time", file=sys.stderr)
                break
            paths = run.write_graphs(b, batch)
            plain.append(run.child(b, batch, paths, False, int(min(remaining, CHILD_TIMEOUT_S))))
            if args.trace:
                remaining = RUN_LIMIT_S - (perf_counter() - t_run)
                traced.append(run.child(b, batch, paths, True, int(max(1, min(remaining, CHILD_TIMEOUT_S)))))
                if traced[-1].get("peak_sum") != plain[-1].get("peak_sum"):
                    run.gate_errors.append(f"batch {b}: peak_tube_size_sum differs traced vs untraced")
            got = plain[-1]
            times = " ".join(f"{n}={v:.4f}" for n, v in got.get("times", {}).items())
            print(
                f"batch {b}: n={w.n} m={w.m} k={w.k} k^n={w.k ** w.n} "
                f"peaks={[inst.peak for inst in batch]} rss_mb={got['rss_mb']:.1f} "
                f"raw_wall_s={got['wall_s']:.4f} speed={got.get('speed', 0):.4f} {times}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only once no other run is using it
        except OSError:
            pass

    good = [g for g in plain if g["ok"]]
    correct = run.failed == 0 and not run.gate_errors and len(good) == len(plain) > 0
    for e in run.gate_errors:
        print(f"gate: {e}", file=sys.stderr)
    print(f"error_rate {run.failed}/{run.attempted}")
    metrics: dict[str, dict] = {}
    if not good:
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 0
    if args.trace:
        if not any("layers" in g for g in traced):
            print(json.dumps({"correct": False, "attempted": run.attempted,
                              "failed": max(run.failed, 1), "metrics": {}}))
            return 0
        metrics = layer_metrics(traced, good)
    else:
        series = {
            "setup_s": ([g["times"]["setup_s"] for g in good], "s"),
            "solve_s": ([g["times"]["solve_s"] for g in good], "s"),
            "wall_s": ([g["times"]["wall_s"] for g in good], "s"),
            "peak_rss_mb": ([g["rss_mb"] for g in good], "MB"),
            "peak_tube_size_sum": ([g["peak_sum"] for g in good], "count"),
        }
        for name, (values, unit) in series.items():
            print(f"{name}: {quantile_note(values)} {unit}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, dict]:
    traced = [g for g in traced if "layers" in g]
    totals: dict[str, float] = {}
    for g in traced:
        for name, value in g["layers"].items():
            totals[name] = totals.get(name, 0) + value
    matched = totals.pop("machine.extract.matched")
    extracted, created = totals["machine.extract.strands"], totals["machine.strands_created"]
    totals["machine.extract.matched_frac"] = matched / extracted if extracted else 0.0
    totals["machine.survival_ratio"] = totals["machine.detect.strands"] / created if created else 0.0
    untraced_wall = statistics.median(g["times"]["wall_s"] for g in plain)
    traced_wall = statistics.median(g["times"]["wall_s"] for g in traced)
    totals["trace_overhead_s"] = traced_wall - untraced_wall
    print(f"tracing overhead: traced wall {traced_wall:.4f} s - untraced wall {untraced_wall:.4f} s")
    print(f"extract matched {matched:.0f} of {extracted:.0f} strands; "
          f"survivors {totals['machine.detect.strands']:.0f} of {created:.0f} created")
    out = {}
    for name, value in totals.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith(("_frac", "_ratio")) else "count"
        print(f"{name} {value:.6g} {unit}")
        if name not in REPORT_ONLY:
            out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
