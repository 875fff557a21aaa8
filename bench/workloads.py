"""Workload table and the seeded instance generator.

Every workload is a stream of G(n, m) graphs (m edges drawn uniformly from
all vertex pairs) cut into batches; one batch is what one child process
solves.  A graph is kept only when its incremental-engine peak and its work
both lie inside the workload's bands.  Unconditioned G(n, m) peaks spread
over a factor of 18 or more from seed to seed, and within a 15% peak band
solve times still spread by 20%; the bands fix the amount of work per
instance, so runs on different seeds measure the same thing.

The census, peak and work are computed here, independently of the program.
The census P_i is the number of proper k-colorings of the subgraph induced
by vertices 1..i (natural order).  The incremental engine's peak is
k * max(P_0, ..., P_{n-1}) with P_0 = 1, since Copy is the only operation
that grows the live strand total.  The work is the number of tokens in the
strands the engine appends to, the strands each extract scans, and the
survivors it checks for duplicates.  The benchmark checks the program's
step records against the census.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

MAX_DRAWS = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    k: int
    peak: int  # centre of the peak band
    peak_band: float  # accepted peaks lie within peak * (1 -/+ peak_band)
    work: int | None  # centre of the work band; None for no work band
    work_band: float
    batch: int  # instances per child process
    match: str  # "symbolic" or "nucleotide"
    compare: bool  # oracle + incremental + monolithic, as `helix compare` does
    nominal_s: float  # expected wall time of one child; sets batches per run


# Why each workload is in the set, and which layer it stresses, is in
# README.md.  Band centres are the medians of G(n, m) at this size; the work
# centre is the median work among graphs inside the peak band.  compare has
# no work band: its time is the monolithic engine filtering all k^n strands,
# which the incremental work count does not describe.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "incremental", n=12, m=24, k=4, batch=8, match="symbolic", compare=False,
            peak=36_000, peak_band=0.15, work=3_950_000, work_band=0.1, nominal_s=6.0,
        ),
        Workload(
            "compare", n=12, m=24, k=3, batch=1, match="symbolic", compare=True,
            peak=360, peak_band=0.05, work=None, work_band=0.0, nominal_s=4.2,
        ),
        Workload(
            "nucleotide", n=10, m=20, k=4, batch=8, match="nucleotide", compare=False,
            peak=6_912, peak_band=0.15, work=630_000, work_band=0.1, nominal_s=3.6,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    n: int
    m: int
    k: int
    edges: tuple[tuple[int, int], ...]
    census: tuple[int, ...]  # P_0 .. P_n
    work: int

    @property
    def peak(self) -> int:
        return self.k * max(self.census[: self.n])

    def dimacs(self, comment: str) -> str:
        lines = [f"c {comment}", f"p edge {self.n} {self.m}"]
        lines += [f"e {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def census(n: int, edges, k: int, cap_peak: float, cap_work: float):
    """(P_0 .. P_n, work) for natural vertex order, or None once peak or work passes its cap.

    Enumerates colorings up to a permutation of colors (colors numbered in
    order of first use) and weights each by the number of ways to name its
    colors, which cuts the search by up to k! against plain backtracking.
    The strands the extracts for vertex i scan are counted the same way: the
    j-th extract against an earlier neighbour sees, per color c, the
    prefixes in which none of the first j-1 neighbours has color c.
    """
    earlier: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        earlier[v].append(u - 1)
    ways = [1] * (k + 1)  # ways[j] = k * (k-1) * ... * (k-j+1)
    for j in range(1, k + 1):
        ways[j] = ways[j - 1] * (k - j + 1)
    counts = [1]
    work = 0
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for i in range(1, n + 1):
        if k * counts[-1] > cap_peak:
            return None
        work += k * counts[-1] * i  # appends
        nxt = []
        for colors, used in level:
            seen: set[int] = set()
            for j in earlier[i]:
                work += ways[used] * (k - len(seen)) * i  # extract scans
                seen.add(colors[j])
            for c in range(used):
                if c not in seen:
                    nxt.append((colors + (c,), used))
            if used < k:
                nxt.append((colors + (used,), used + 1))
        level = nxt
        counts.append(sum(ways[used] for _, used in level))
        work += counts[-1] * i  # duplicate check on the survivors
        if work > cap_work:
            return None
    return tuple(counts), work


def draw_instance(w: Workload, rng: random.Random) -> Instance:
    pairs = list(itertools.combinations(range(1, w.n + 1), 2))
    peak_lo, peak_hi = w.peak * (1 - w.peak_band), w.peak * (1 + w.peak_band)
    if w.work is None:
        work_lo, work_hi = 0.0, float("inf")
    else:
        work_lo, work_hi = w.work * (1 - w.work_band), w.work * (1 + w.work_band)
    for _ in range(MAX_DRAWS):
        edges = tuple(sorted(rng.sample(pairs, w.m)))
        found = census(w.n, edges, w.k, peak_hi, work_hi)
        if found is None:
            continue
        inst = Instance(w.n, w.m, w.k, edges, *found)
        if peak_lo <= inst.peak and work_lo <= inst.work:
            return inst
    raise RuntimeError(f"{w.name}: no graph inside the peak and work bands in {MAX_DRAWS} draws")


def batches(w: Workload, seed: int, count: int) -> list[list[Instance]]:
    """The first `count` batches of the workload's instance stream for this seed."""
    rng = random.Random(f"helix-bench:{w.name}:{seed}")
    return [[draw_instance(w, rng) for _ in range(w.batch)] for _ in range(count)]
