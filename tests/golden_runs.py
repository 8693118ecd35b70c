"""Pinned end-to-end runs of ``python -m mvcond``, declared once.

Each row of ``RUNS`` is one command: its argv, its exit code, its stdout
(the exact text with trailing newlines dropped, or the sha256 of the raw
bytes) and the sha256 of each file it writes. ``check`` runs one row in a
subprocess with ``PYTHONPATH`` set to this checkout's ``src`` and a 60 s
limit. The rows run in order in one directory, so ``valid`` and
``fid-check`` read the model that ``gen`` wrote before them.

    python tests/golden_runs.py

runs every row, printing each one's outcome and wall seconds, and exits 1
if any fails. ``tests/test_golden_runs.py`` runs the same rows in the
tier-1 suite, except those marked ``ci_only`` (each takes seconds).
Pinning another end-to-end result means adding a row.

The search rows check LCR's soundness claim exhaustively at m=3 for the
axioms A1, A2 and A3 and, under the identity frame condition (``--fid``),
for LID; without ``--fid`` the first candidate refutes LID. One more
searches A1 at m=4 under ``--fid`` to four worlds, and two a tautology
whose conditionals have two antecedents to three and four worlds. Five more pin
the searches behind the README's reading of the abstract's two comparative
claims, and one pins that a nested search to four worlds stops at its
budget. Four pin refuted searches whole: countermodels with two relations
at one world and, with witness w1, at two, one that needs three worlds,
and one read off a screen table of 1,024 fields per valuation. Two search
conditionals nested four deep, to the right and to the left, a nesting
the search once refused. One loads a model document from
``tests/data`` whose variable no formula can name, which is refused. The
last three give ``taut``, ``search`` and ``proofcheck`` an m of 2^70,
which exits 3 as above the largest m, 2^20.
"""

import hashlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


class Run(NamedTuple):
    name: str
    argv: tuple[str, ...]
    code: int
    stdout: str | None = None  # exact, trailing newlines dropped
    sha256: tuple[tuple[str, str], ...] = ()  # (a file it writes, or "-" for stdout; digest)
    ci_only: bool = False  # takes seconds, so tier-1 leaves it out


RUNS = (
    Run(
        "Exhaustive three-world search of A1 at m=3",
        ("search", "--m", "3", "--max-worlds", "3", "--formula",
         "(p => (q & r)) -> ((p => q) & (p => r))"),
        0,
        '{"status":"no_countermodel","candidates":387479619}',
    ),
    Run(
        "Exhaustive four-world search of A1 at m=3",
        ("search", "--m", "3", "--max-worlds", "4", "--formula",
         "(p => (q & r)) -> ((p => q) & (p => r))"),
        0,
        '{"status":"no_countermodel","candidates":22877179934580}',
    ),
    Run(
        "Exhaustive four-world search of A2 at m=3",
        ("search", "--m", "3", "--max-worlds", "4", "--formula",
         "((p => q) & (p => r)) -> (p => (q & r))"),
        0,
        '{"status":"no_countermodel","candidates":22877179934580}',
    ),
    Run(
        "Exhaustive four-world search of A1 at m=4 under the identity frame condition",
        ("search", "--fid", "--m", "4", "--max-worlds", "4", "--formula",
         "(p => (q & r)) -> ((p => q) & (p => r))"),
        0,
        '{"status":"no_countermodel","candidates":72057662758453504}',
        ci_only=True,
    ),
    Run(
        "Exhaustive three-world search of a tautology with two antecedents at m=3",
        ("search", "--m", "3", "--max-worlds", "3", "--formula",
         "((p => r) & (q => r)) -> ((p => r) & (q => r))"),
        0,
        '{"status":"no_countermodel","candidates":7343186555691}',
    ),
    Run(
        "Exhaustive four-world search of a tautology with two antecedents at m=3",
        ("search", "--m", "3", "--max-worlds", "4", "--formula",
         "((p => r) & (q => r)) -> ((p => r) & (q => r))"),
        0,
        '{"status":"no_countermodel","candidates":972613244350170396252}',
    ),
    Run(
        "Exhaustive four-world search of A3 at m=3",
        ("search", "--m", "3", "--max-worlds", "4", "--formula", "p => T"),
        0,
        '{"status":"no_countermodel","candidates":3487316580}',
    ),
    Run(
        "Exhaustive four-world search of LID at m=3 under the identity frame condition",
        ("search", "--fid", "--m", "3", "--max-worlds", "4", "--formula", "p => p"),
        0,
        '{"status":"no_countermodel","candidates":3487316580}',
    ),
    Run(
        "LID at m=3 without the frame condition, refuted by the first candidate",
        ("search", "--m", "3", "--max-worlds", "4", "--formula", "p => p"),
        1,
        '{"status":"countermodel","candidates":1,"value":0,"m":3,"worlds":["w0"],'
        '"vars":["p"],"valuation":{"p":{"w0":0}},"relations":[{"prop":[["w0"],[],[]],'
        '"matrix":{"w0":{"w0":2}}}],"default_relation":0,"witness_world":"w0"}',
    ),
    Run(
        "A 59,049-row truth table in several slabs that holds",
        ("taut", "--m", "3", "--formula",
         "(a & b & c & d & e & f & g & h & i & j) -> (j | i | h | g | f | e | d | c | b | a)"),
        0,
        '{"status":"holds","m":3,"formula":'
        '"a & b & c & d & e & f & g & h & i & j -> j | i | h | g | f | e | d | c | b | a"}',
    ),
    Run(
        "A 59,049-row truth table falsified only in its last row",
        ("taut", "--m", "3", "--formula",
         "(a & b & c & d & e & f & g & h & i & j) -> ~(a & b & c & d & e & f & g & h & i & j)"),
        1,
        '{"status":"fails","m":3,"formula":'
        '"a & b & c & d & e & f & g & h & i & j -> ~(a & b & c & d & e & f & g & h & i & j)",'
        '"assignment":{"a":2,"b":2,"c":2,"d":2,"e":2,"f":2,"g":2,"h":2,"i":2,"j":2}}',
    ),
    Run(
        "A 48,828,125-row truth table at m=5 in packed slabs that holds",
        ("taut", "--m", "5", "--formula",
         "(a & b & c & d & e & f & g & h & i & j & k) -> (k | j | i | h | g | f | e | d | c | b | a)"),
        0,
        '{"status":"holds","m":5,"formula":'
        '"a & b & c & d & e & f & g & h & i & j & k -> k | j | i | h | g | f | e | d | c | b | a"}',
    ),
    Run(
        "A one-variable truth table at m = 10^5",
        ("taut", "--m", "100000", "--formula", "p -> p"),
        0,
        '{"status":"holds","m":100000,"formula":"p -> p"}',
    ),
    Run(
        "Nested-conditional search through the CLI, to three worlds at m=4",
        ("search", "--m", "4", "--max-worlds", "3", "--budget", "10000",
         "--formula", "p => (p => (p -> p))"),
        4,
        '{"status":"budget_exhausted","candidates":10000}',
    ),
    Run(
        "The same nested search under the identity frame condition",
        ("search", "--fid", "--m", "4", "--max-worlds", "3", "--budget", "10000",
         "--formula", "p => (p => (p -> p))"),
        4,
        '{"status":"budget_exhausted","candidates":10000}',
    ),
    Run(
        "Exhaustive nested search under the identity frame condition, to three worlds at m=3",
        ("search", "--fid", "--m", "3", "--max-worlds", "3", "--formula",
         "(p => (p => q)) -> (p => (p => q))"),
        0,
        '{"status":"no_countermodel","candidates":14355495}',
        ci_only=True,
    ),
    Run(
        "A nested search to four worlds at m=3 under the identity frame condition, "
        "stopped by its budget, not by memory",
        ("search", "--fid", "--m", "3", "--max-worlds", "4", "--budget", "533000",
         "--formula", "p => (p => (p -> p))"),
        4,
        '{"status":"budget_exhausted","candidates":533000}',
    ),
    Run(
        "One world refutes (p => (p -> q)) -> (p => q) at m=3 under the identity frame "
        "condition",
        ("search", "--fid", "--m", "3", "--max-worlds", "3", "--formula",
         "(p => (p -> q)) -> (p => q)"),
        1,
        '{"status":"countermodel","candidates":11,"value":1,"m":3,"worlds":["w0"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":1},"q":{"w0":0}},"relations":[{"prop":'
        '[[],["w0"],[]],"matrix":{"w0":{"w0":1}}}],"default_relation":0,"witness_world":"w0"}',
    ),
    Run(
        "(p => (p -> q)) -> (p => q) holds to three worlds at m=2 under the identity frame "
        "condition",
        ("search", "--fid", "--m", "2", "--max-worlds", "3", "--formula",
         "(p => (p -> q)) -> (p => q)"),
        0,
        '{"status":"no_countermodel","candidates":33032}',
    ),
    Run(
        "(p => q) -> (p => (p -> q)) holds to three worlds at m=3 under the identity frame "
        "condition",
        ("search", "--fid", "--m", "3", "--max-worlds", "3", "--formula",
         "(p => q) -> (p => (p -> q))"),
        0,
        '{"status":"no_countermodel","candidates":14355495}',
    ),
    Run(
        "One world refutes (p => q) -> (p -> q) at m=3",
        ("search", "--m", "3", "--max-worlds", "2", "--formula", "(p => q) -> (p -> q)"),
        1,
        '{"status":"countermodel","candidates":12,"value":1,"m":3,"worlds":["w0"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":1},"q":{"w0":0}},"relations":[{"prop":'
        '[[],["w0"],[]],"matrix":{"w0":{"w0":0}}}],"default_relation":0,"witness_world":"w0"}',
    ),
    Run(
        "The first candidate refutes (p -> q) -> (p => q) at m=3",
        ("search", "--m", "3", "--max-worlds", "2", "--formula", "(p -> q) -> (p => q)"),
        1,
        '{"status":"countermodel","candidates":1,"value":0,"m":3,"worlds":["w0"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":0},"q":{"w0":0}},"relations":[{"prop":'
        '[["w0"],[],[]],"matrix":{"w0":{"w0":2}}}],"default_relation":0,"witness_world":"w0"}',
    ),
    Run(
        "A two-relation countermodel at m=3 under the identity frame condition: q's "
        "relation comes first, its key higher at the one world",
        ("search", "--fid", "--m", "3", "--max-worlds", "2", "--formula",
         "(p => q) & (q => p) -> (p <-> q)"),
        1,
        '{"status":"countermodel","candidates":12,"value":1,"m":3,"worlds":["w0"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":0},"q":{"w0":1}},"relations":[{"prop":'
        '[[],["w0"],[]],"matrix":{"w0":{"w0":0}}},{"prop":[["w0"],[],[]],"matrix":'
        '{"w0":{"w0":0}}}],"default_relation":0,"witness_world":"w0"}',
    ),
    Run(
        "A countermodel that needs three worlds at m=2",
        ("search", "--m", "2", "--max-worlds", "3", "--formula",
         "(T => p | q) | (T => p | ~q) | (T => ~p | q)"),
        1,
        '{"status":"countermodel","candidates":5385,"value":0,"m":2,"worlds":["w0","w1","w2"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":0,"w1":0,"w2":1},"q":{"w0":0,"w1":1,"w2":0}},'
        '"relations":[{"prop":[[],["w0","w1","w2"]],"matrix":{"w0":{"w0":1,"w1":1,"w2":1},'
        '"w1":{"w0":1,"w1":1,"w2":1},"w2":{"w0":1,"w1":1,"w2":1}}}],"default_relation":0,'
        '"witness_world":"w0"}',
    ),
    Run(
        "A two-relation countermodel at m=2 under the identity frame condition whose "
        "witness is w1",
        ("search", "--fid", "--m", "2", "--max-worlds", "2", "--formula",
         "(I{0}(T) => q) -> (p => q)"),
        1,
        '{"status":"countermodel","candidates":1095,"value":0,"m":2,"worlds":["w0","w1"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":0,"w1":1},"q":{"w0":0,"w1":0}},'
        '"relations":[{"prop":[[],["w0","w1"]],"matrix":{"w0":{"w0":1,"w1":1},'
        '"w1":{"w0":0,"w1":0}}},{"prop":[["w0"],["w1"]],"matrix":{"w0":{"w0":0,"w1":1},'
        '"w1":{"w0":0,"w1":1}}}],"default_relation":0,"witness_world":"w1"}',
    ),
    Run(
        "A countermodel read off a screen table of 1,024 fields per valuation: five "
        "antecedents at two worlds, m=2, under the identity frame condition",
        ("search", "--fid", "--m", "2", "--max-worlds", "2", "--formula",
         "(T => p) | (p => ~p) | ((p & q) => ~p) | (q => ~q) | ((p | q) => ~p) | ~p"),
        1,
        '{"status":"countermodel","candidates":12825,"value":0,"m":2,"worlds":["w0","w1"],'
        '"vars":["p","q"],"valuation":{"p":{"w0":0,"w1":1},"q":{"w0":0,"w1":1}},'
        '"relations":[{"prop":[[],["w0","w1"]],"matrix":{"w0":{"w0":1,"w1":1},'
        '"w1":{"w0":1,"w1":1}}},{"prop":[["w0"],["w1"]],"matrix":{"w0":{"w0":0,"w1":1},'
        '"w1":{"w0":0,"w1":1}}}],"default_relation":0,"witness_world":"w1"}',
    ),
    Run(
        "Conditionals nested four deep to the right hold to two worlds at m=2",
        ("search", "--m", "2", "--max-worlds", "2", "--formula",
         "(p => (q => (p => (q => p)))) -> (p => (q => (p => (q => p))))"),
        0,
        '{"status":"no_countermodel","candidates":3148}',
    ),
    Run(
        "Conditionals nested four deep to the left hold to two worlds at m=2",
        ("search", "--m", "2", "--max-worlds", "2", "--formula",
         "((((p => q) => r) => p) => q) -> ((((p => q) => r) => p) => q)"),
        0,
        '{"status":"no_countermodel","candidates":796066}',
        ci_only=True,
    ),
    Run(
        "A 64-world model through the CLI: gen",
        ("gen", "--seed", "7", "--m", "5", "--worlds", "64", "--vars", "p,q,r,s",
         "--extra-relations", "4", "--out", "model64.json"),
        0,
        '{"status":"ok","out":"model64.json","m":5,"worlds":64,"vars":["p","q","r","s"],'
        '"relations":8}',
        sha256=(("model64.json",
                "2cb5f8bcd664a0a823d40acd55f926715d04fef0af3ac1e2840175e3c16098d5"),),
    ),
    Run(
        "A 64-world model through the CLI: valid",
        ("valid", "--model", "model64.json", "--formula", "p -> p"),
        0,
        '{"status":"valid"}',
    ),
    Run(
        "A 64-world model through the CLI: fid-check",
        ("fid-check", "--model", "model64.json"),
        1,
        sha256=(("-", "e468418484b4a6c3713591391aeacd5524bde5d55999b18d6951802fd3e88c20"),),
    ),
    Run(
        "A model document that values a variable T, which formulas read as the constant, "
        "is refused",
        ("eval", "--model", str(DATA / "model_var_T.json"), "--world", "w0", "--formula", "T"),
        3,
        '{"status":"error","error":"\'T\' is not a variable name '
        '(names match [a-z][A-Za-z0-9_]*)"}',
    ),
    Run(
        "A one-world model document at m = 10^6, byte for byte",
        ("gen", "--seed", "1", "--m", "1000000", "--worlds", "1", "--vars", "p",
         "--out", "model1m.json"),
        0,
        '{"status":"ok","out":"model1m.json","m":1000000,"worlds":1,"vars":["p"],'
        '"relations":1}',
        sha256=(("model1m.json",
                "5416e4b5ed7f1343e06dbc061d30dd70329d5cc57bd3bbea787a2a1108e6404b"),),
    ),
    Run(
        "A truth table at m = 2^70 is refused as too large",
        ("taut", "--m", "1180591620717411303424", "--formula", "p -> p"),
        3,
        '{"status":"error","error":"m must be at most 1048576, got 1180591620717411303424"}',
    ),
    Run(
        "A search at m = 2^70 is refused as too large",
        ("search", "--m", "1180591620717411303424", "--max-worlds", "1", "--formula", "p"),
        3,
        '{"status":"error","error":"m must be at most 1048576, got 1180591620717411303424"}',
    ),
    Run(
        "A derivation at m = 2^70 is refused as too large",
        ("proofcheck", "--file", str(DATA / "derivations" / "huge_m.json"), "--goal", "p -> p"),
        3,
        '{"status":"error","error":"\'m\' must be at most 1048576"}',
    ),
)


def check(run: Run, cwd: Path) -> list[str]:
    """Run one row in cwd; return how it differs from its pins (empty when it holds)."""
    try:
        done = subprocess.run([sys.executable, "-m", "mvcond", *run.argv], cwd=cwd,
                              env={"PYTHONPATH": str(SRC)}, capture_output=True, timeout=60)
        problems = [] if done.returncode == run.code else [
            f"exit {done.returncode}: {done.stderr[-200:]!r}"]
        if run.stdout is not None and done.stdout.decode().rstrip("\n") != run.stdout:
            problems.append(f"stdout {done.stdout[:200]!r}")
        for name, digest in run.sha256:
            data = done.stdout if name == "-" else (cwd / name).read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                problems.append(f"sha256 of {name} changed")
        return problems
    except (subprocess.TimeoutExpired, OSError) as exc:  # no exit within the limit, or no file
        return [str(exc)]


def main() -> int:
    problems = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            start = time.perf_counter()
            problems[run.name] = check(run, Path(tmp))
            seconds = time.perf_counter() - start
            print(f"{run.name}: {'; '.join(problems[run.name]) or 'ok'} ({seconds:.2f} s)", flush=True)
    return 1 if any(problems.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
