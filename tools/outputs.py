"""Write tests/data/outputs.json: the exit code and output digests of each CLI run in CASES.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/outputs.py

Each case is an argv list for `helix.cli.main`, run in process and in list
order, in one fresh temporary directory that holds the files of INPUTS, with
HELIX_BUDGET unset.  A file that a case writes (--trace, --out) stays there
for the cases after it.  The entry of a case holds its argv, its exit code,
the sha256 of its standard output and, when it writes a --trace file, that
file's sha256.  tests/test_outputs.py replays every case and compares.  An
output changed on purpose means running this script again and naming each
changed entry in CHANGES.md.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from helix import cli

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "outputs.json"


def _path_edges(first: int, last: int) -> str:
    return "".join(f"e {v} {v + 1}\n" for v in range(first, last))


def _planted_codebook(lengths: list[int], every: int, seed: int) -> str:
    """A k=1 codebook with one word per entry of `lengths`, as JSON text, drawn from `seed`.

    Each word is "A" and then bases drawn from "CGT", so words of one length
    hold no junction crossing: an occurrence must put its one A on an A of
    x + y.  Then every `every`-th word is replaced by a crossing, the last j
    bases of one word and the first bases of another.  The length is
    declared when there is one.
    """
    rng = random.Random(seed)
    words = ["A" + "".join(rng.choices("CGT", k=n - 1)) for n in lengths]
    for i in range(0, len(words), every):
        x, y = rng.choice(words), rng.choice(words)
        j = rng.randint(1, min(len(x), len(words[i]) - 1))
        words[i] = x[-j:] + y[: len(words[i]) - j]
    entries = [{"vertex": v, "color": 0, "sequence": word} for v, word in enumerate(words, start=1)]
    length = lengths[0] if len(set(lengths)) == 1 else None
    return json.dumps({"n": len(words), "k": 1, "length": length, "provenance": "planted", "entries": entries})


INPUTS = {
    "path2000.col": "p edge 2000 1999\n" + _path_edges(1, 2000),
    # Vertices 1..8 isolated beside a path on 9..208: 2**8 * 2 colorings at k=2.
    "wide.col": "p edge 208 199\n" + _path_edges(9, 208),
    # 300 words of 8 nt, six of them planted crossings: 340 witnesses and 13 duplicate pairs.
    "planted300.json": _planted_codebook([8] * 300, 50, 2),
    # 30 words of 5 to 9 nt, five planted: 132 witnesses, crossings and shorter words inside longer ones.
    "mixed30.json": _planted_codebook([5 + i % 5 for i in range(30)], 6, 2),
}
REVERSED = ",".join(map(str, range(10, 0, -1)))  # petersen's vertices, last first
PETERSEN = ["--graph", "builtin:petersen", "--colors", "3"]

CASES = [
    ["solve", "--graph", "builtin:k3", "--colors", "3"],
    ["solve", "--graph", "builtin:k3", "--colors", "3", "--json"],
    ["solve", "--graph", "builtin:k3", "--colors", "3", "--trace", "k3.json"],
    ["solve", *PETERSEN, "--mode", "monolithic"],
    ["solve", *PETERSEN, "--mode", "both", "--order", REVERSED, "--json"],
    ["solve", *PETERSEN, "--mode", "both", "--order", REVERSED, "--trace", "both.json"],
    ["solve", *PETERSEN, "--match", "nucleotide"],
    ["solve", *PETERSEN, "--match", "nucleotide", "--mode", "monolithic", "--json"],
    ["solve", "--graph", "random:12,0.2,1", "--colors", "3", "--match", "nucleotide", "--codebook", "table1",
     "--trace", "nucleotide.json"],
    ["solve", "--graph", "random:14,0.3,3", "--colors", "3", "--order", ",".join(map(str, range(14, 0, -1))), "--json"],
    ["solve", "--graph", "random:2,0.0,1", "--colors", "300"],
    ["solve", "--graph", "path2000.col", "--colors", "2"],
    ["solve", "--graph", "wide.col", "--colors", "2", "--json"],
    ["compare", *PETERSEN, "--json"],
    ["compare", "--graph", "random:11,0.35,1", "--colors", "3", "--match", "nucleotide", "--json"],
    ["compare", "--graph", "builtin:c5", "--colors", "3"],
    ["codebook", "generate", "--n", "250", "--colors", "4", "--length", "20"],  # under the first-draw bound
    ["codebook", "generate", "--n", "40", "--colors", "4", "--length", "8"],  # over it: word by word
    ["codebook", "generate", "--n", "12", "--colors", "3", "--seed", "7", "--out", "gen.json"],
    ["codebook", "validate", "--codebook", "gen.json", "--json"],
    ["codebook", "validate", "--codebook", "table1", "--json"],
    ["codebook", "validate", "--codebook", "table1"],
    ["codebook", "validate", "--codebook", "planted300.json", "--json"],  # witness lists, each exit 4
    ["codebook", "validate", "--codebook", "mixed30.json", "--json"],
    # Refusals, each exit 2.
    ["solve", "--graph", "builtin:k4", "--colors", "200"],
    ["solve", "--graph", "wide.col", "--colors", "2", "--mode", "monolithic"],
    ["compare", "--graph", "builtin:k3", "--colors", "3", "--order", "1,2"],
]


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """One case, run in process in the current directory, as its corpus entry."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    entry = {"argv": argv, "exit": code, "stdout": _digest(out.getvalue().encode())}
    if "--trace" in argv:
        entry["trace"] = _digest(Path(argv[argv.index("--trace") + 1]).read_bytes())
    return entry


def main() -> None:
    os.environ.pop(cli.BUDGET_ENV, None)
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            entries = [record(argv) for argv in CASES]
        finally:
            os.chdir(home)
    OUT.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
