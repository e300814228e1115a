"""Golden reports: a fixed corpus of CLI commands whose every output byte is pinned.

Each command runs through ``buyback.cli.main`` in process.  Its exit code and
the SHA-256 digests of its stdout, its stderr (with the temporary directory
spelled ``{tmp}``) and its ``--out`` file must equal the ones committed in
``golden_reports.json``.  A change that moves any of them is a deliberate
output change: regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from buyback.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _instance(rng, K: int, L: int, n: int, penalty: float, floor: float) -> dict:
    """An instance document with quarter-step grids and integer-weighted clients."""
    vals = np.cumsum(rng.integers(1, 9, K)) / 4 + 0.5
    caps = np.cumsum(rng.integers(1, 9, L)) / 4 + 1.0
    clients = []
    for _ in range(n):
        weights = rng.integers(1, 20, (L, K)).tolist()
        total = sum(map(sum, weights))
        clients.append({"probs": [[w / total for w in row] for row in weights]})
    return {
        "valuations": vals.tolist(),
        "capacities": caps.tolist(),
        "clients": clients,
        "alpha": float(vals[K // 2]),
        "penalty_M": penalty,
        "demand_floor_D": floor,
    }


def _write(tmp: Path, name: str, doc) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    (tmp / name).write_text(text, encoding="utf-8")


def _edited(tmp: Path, report: str, name: str, edit) -> None:
    """A copy of the contract in ``report`` with ``edit(allocation, payment)`` applied."""
    contract = json.loads((tmp / report).read_text(encoding="utf-8"))["contract"]
    edit(contract["allocation"], contract["payment"])
    _write(tmp, name, contract)


def _pay_less(x, p):
    p[0][0] = max(0.0, p[0][0] - 0.3)


def _pay_more_low(x, p):
    p[-1][-1] += 0.4


def _over_capacity(x, p):
    x[0][0] += 0.25


def _rise_in_valuation(x, p):
    x[-1][0] = x[0][0] + 0.5


# Commands run in order; "!name" writes that derived input first.  Solve
# reports written by earlier commands serve as contracts for later ones.
CORPUS = [
    "solve {tmp}/a.json --out {tmp}/a_solve.json",
    "solve {tmp}/a.json --method reduced --tol 0",
    "oracle {tmp}/a.json --grid-step 0.25 --out {tmp}/a_oracle.json",
    "solve {tmp}/b.json --out {tmp}/b_solve.json",
    "solve {tmp}/b.json --method relaxed --epsilon 0.001 --out {tmp}/b_relaxed.json",
    "solve {tmp}/b.json --method relaxed --tol 0.5",
    "solve {tmp}/c.json --tol 0 --out {tmp}/c_solve.json",
    "solve {tmp}/d.json --out {tmp}/d_solve.json",
    "oracle {tmp}/d.json --grid-step 0.5 --tol 0 --out {tmp}/d_oracle.json",
    "solve {tmp}/e.json --out {tmp}/e_solve.json",
    "verify {tmp}/a.json {tmp}/a_solve.json --out {tmp}/v.json",
    "verify {tmp}/a.json {tmp}/a_oracle.json --tol 0",
    "verify {tmp}/b.json {tmp}/b_solve.json --tol 0 --out {tmp}/v.json",
    "verify {tmp}/b.json {tmp}/b_relaxed.json --epsilon 0.001 --out {tmp}/v.json",
    "verify {tmp}/b.json {tmp}/b_relaxed.json --tol 0",
    "!b_pay_less verify {tmp}/b.json {tmp}/b_pay_less.json --out {tmp}/v.json",
    "verify {tmp}/b.json {tmp}/b_pay_less.json --tol 0.5 --out {tmp}/v.json",
    "!b_over verify {tmp}/b.json {tmp}/b_over.json --out {tmp}/v.json",
    "!b_rise verify {tmp}/b.json {tmp}/b_rise.json --tol 0 --out {tmp}/v.json",
    "!c_pay_more verify {tmp}/c.json {tmp}/c_pay_more.json --out {tmp}/v.json",
    "verify {tmp}/c.json {tmp}/c_solve.json --tol 0.5",
    "verify {tmp}/d.json {tmp}/ties.json --out {tmp}/v.json",
    "verify {tmp}/d.json {tmp}/ties.json --tol 0",
    "verify {tmp}/e.json {tmp}/e_solve.json --out {tmp}/v.json",
    "!e_pay_less verify {tmp}/e.json {tmp}/e_pay_less.json --tol 0 --out {tmp}/v.json",
    "regret {tmp}/b.json {tmp}/b_relaxed.json --epsilon 0.001 --out {tmp}/r.json",
    "regret {tmp}/b.json {tmp}/b_pay_less.json --out {tmp}/r.json",
    "regret {tmp}/d.json {tmp}/ties.json",
    "regret {tmp}/e.json {tmp}/e_pay_less.json --out {tmp}/r.json",
    "simulate {tmp}/b.json {tmp}/b_solve.json --replications 300 --seed 5 --out {tmp}/s.json",
    "simulate {tmp}/b.json {tmp}/b_pay_less.json --replications 300 --tie-break max_payment",
    "simulate {tmp}/d.json {tmp}/ties.json --replications 200 --seed 9 --out {tmp}/s.json",
    "simulate {tmp}/d.json {tmp}/ties.json --replications 200 --tie-break max_payment "
    "--out {tmp}/s.json",
    "simulate {tmp}/e.json {tmp}/e_pay_less.json --replications 500 --seed 3 --out {tmp}/s.json",
    "verify {tmp}/missing.json {tmp}/b_solve.json",
    "verify {tmp}/b.json {tmp}/broken.json",
    "verify {tmp}/b.json {tmp}/a_solve.json",
    "regret {tmp}/b.json {tmp}/b_solve.json --tol nan",
    "solve {tmp}/b.json --method simplex",
    "simulate {tmp}/b.json {tmp}/b_solve.json --replications 0",
    "solve {tmp}/a.json --method single",
    "solve {tmp}/b.json --epsilon 0.001",
]

DERIVED = {
    "b_pay_less": ("b_solve.json", _pay_less),
    "b_over": ("b_solve.json", _over_capacity),
    "b_rise": ("b_solve.json", _rise_in_valuation),
    "c_pay_more": ("c_solve.json", _pay_more_low),
    "e_pay_less": ("e_solve.json", _pay_less),
}


def _inputs(tmp: Path) -> None:
    rng = np.random.default_rng(20250418)
    _write(tmp, "a.json", _instance(rng, 3, 1, 2, 0.0, 0.0))
    _write(tmp, "b.json", _instance(rng, 3, 3, 2, 1.5, 6.0))
    _write(tmp, "c.json", _instance(rng, 4, 2, 3, 0.0, 0.0))
    _write(tmp, "d.json", _instance(rng, 3, 2, 2, 2.0, 3.0))
    _write(tmp, "e.json", _instance(rng, 8, 8, 3, 0.0, 0.0))
    _write(tmp, "ties.json", {
        "allocation": rng.integers(0, 4, (3, 2)).astype(float).tolist(),
        "payment": rng.integers(0, 8, (3, 2)).astype(float).tolist(),
    })
    _write(tmp, "broken.json", '{"allocation": [[1.0, 2.0], ')


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(tmp: Path) -> list[dict]:
    """One record per CORPUS command: its text, exit code and output digests."""
    _inputs(tmp)
    records = []
    for command in CORPUS:
        if command.startswith("!"):
            name, command = command[1:].split(" ", 1)
            report, edit = DERIVED[name]
            _edited(tmp, report, f"{name}.json", edit)
        argv = command.format(tmp=tmp).split()
        out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
        records.append({
            "command": command,
            "exit": code,
            "stdout": _digest(stdout.getvalue().replace(str(tmp), "{tmp}").encode()),
            "stderr": _digest(stderr.getvalue().replace(str(tmp), "{tmp}").encode()),
            "out": _digest(out_path.read_bytes()) if out_path and out_path.exists() else None,
        })
    return records


def test_golden_reports(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert [r["command"] for r in got] == [r["command"] for r in expected]
    for have, want in zip(got, expected):
        assert have == want, have["command"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        records = run_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
