"""Golden outputs: each table scripts/run_all.sh writes, regenerated
in-process through filterlab.cli.main, must match the committed CSV in
scripts/out/ byte for byte.

The Monte Carlo reductions add in an order fixed by the replicate index
alone (see the discrepancy module docstring), not numpy's pairwise order,
so no build's summation moves the bytes.  They still rest on numpy's gamma
and uniform draws and on libm, which another numpy release or platform may
change.  A mismatch names each moved column with its column-scaled move,
the largest |new - old| over the column's largest finite |old|, so the size
of a regeneration shows in the failure.
"""

import importlib.util
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


# the column-scaled move of scripts/golden_diff.py, loaded from its file
_spec = importlib.util.spec_from_file_location("golden_diff", SCRIPTS / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def _column_moves(new, old):
    # "<column> <move>" for every column whose text differs, as
    # scripts/golden_diff.py measures it
    moves = golden_diff.column_moves(new, old)
    if moves is None:
        return "the header or the table's shape changed"
    return "moved columns: " + ", ".join("%s %.1e" % move for move in moves)


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
