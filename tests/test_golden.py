"""Golden outputs: each table scripts/run_all.sh writes, regenerated
in-process through filterlab.cli.main, must match the committed CSV in
scripts/out/ byte for byte.

The bytes are pinned on one numpy build: the Monte Carlo reductions sum in
numpy's pairwise order, which a different build may change.
"""

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


def test_run_all_writes_six_tables():
    assert sorted(name for name, _ in TABLES) == sorted(
        p.name for p in (SCRIPTS / "out").glob("*.csv"))
    assert len(TABLES) == 6


@pytest.mark.parametrize("name,argv", TABLES, ids=[name for name, _ in TABLES])
def test_table_matches_committed_bytes(tmp_path, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(SCRIPTS)
    dest = tmp_path / name
    assert main(argv + ["--out", str(dest)]) == 0
    assert dest.read_bytes() == (SCRIPTS / "out" / name).read_bytes()
