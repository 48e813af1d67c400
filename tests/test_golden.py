"""Golden outputs: each table scripts/run_all.sh writes, regenerated
in-process through filterlab.cli.main, must match the committed CSV in
scripts/out/ byte for byte.

The bytes are pinned on one numpy build: the Monte Carlo reductions sum in
numpy's pairwise order, which a different build may change.  A mismatch
names each moved column with its column-scaled move, the largest
|new - old| over the column's largest finite |old|, so the size of a
regeneration shows in the failure.
"""

import math
import shlex
from pathlib import Path

import pytest

from filterlab.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _tables():
    # the "filterlab <subcommand> ... --out out/<name>" lines of run_all.sh
    tables = []
    for line in (SCRIPTS / "run_all.sh").read_text(encoding="utf-8").splitlines():
        argv = shlex.split(line)
        if argv[:1] == ["filterlab"] and "--out" in argv:
            k = argv.index("--out")
            tables.append((Path(argv[k + 1]).name, argv[1:k] + argv[k + 2:]))
    return tables


TABLES = _tables()


def _column_moves(new, old):
    # "<column> <move>" for every column whose text differs; a value that
    # turns non-finite, or a column of zeros, moves by inf
    new_rows, old_rows = ([line.split(",") for line in text.decode().splitlines()]
                          for text in (new, old))
    if [len(r) for r in new_rows] != [len(r) for r in old_rows] or new_rows[0] != old_rows[0]:
        return "the header or the table's shape changed"
    moves = []
    for j, name in enumerate(old_rows[0]):
        pairs = [(float(n[j]), float(o[j])) for n, o in zip(new_rows[1:], old_rows[1:])
                 if n[j] != o[j]]
        if pairs:
            scale = max([abs(float(o[j])) for o in old_rows[1:] if math.isfinite(float(o[j]))],
                        default=0.0)
            move = max(abs(a - b) if math.isfinite(a - b) else math.inf for a, b in pairs)
            moves.append("%s %.1e" % (name, move / scale if scale else math.inf))
    return "moved columns: " + ", ".join(moves)


def test_column_moves_scale_each_moved_column():
    old = b"step,a,b,c\n0,1,2,0\n1,-4,2,0\n"
    new = b"step,a,b,c\n0,1.5,2,nan\n1,-4,2,0\n"
    assert _column_moves(new, old) == "moved columns: a 1.2e-01, c inf"
    assert _column_moves(b"step,a\n0,1\n", old) == "the header or the table's shape changed"


def test_run_all_writes_six_tables():
    assert sorted(name for name, _ in TABLES) == sorted(
        p.name for p in (SCRIPTS / "out").glob("*.csv"))
    assert len(TABLES) == 6


# the committed configs run without a numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,argv", TABLES, ids=[name for name, _ in TABLES])
def test_table_matches_committed_bytes(tmp_path, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(SCRIPTS)
    dest = tmp_path / name
    assert main(argv + ["--out", str(dest)]) == 0
    new, old = dest.read_bytes(), (SCRIPTS / "out" / name).read_bytes()
    assert new == old, _column_moves(new, old)
