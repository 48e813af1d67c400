"""Print which columns of the golden tables moved against the committed ones.

For each scripts/out/*.csv it reads the committed bytes with
`git show HEAD:scripts/out/<name>` and prints one line per moved column:
the table, the column, and the column's largest |new - old| over its
largest finite |old| (inf where a value turned non-finite or the column
was all zeros).  A table whose bytes match prints "unchanged".  Run it
after scripts/run_all.sh, from anywhere in a checkout:

    python3 scripts/golden_diff.py
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"


def column_moves(new, old):
    """(column, scaled move) for every column whose text differs between
    the CSV bytes new and old, or None when the header or shape differs."""
    new_rows, old_rows = ([line.split(",") for line in text.decode().splitlines()]
                          for text in (new, old))
    if [len(r) for r in new_rows] != [len(r) for r in old_rows] or new_rows[0] != old_rows[0]:
        return None
    new_text, old_text = np.array(new_rows[1:]), np.array(old_rows[1:])
    moved = new_text != old_text
    new_val, old_val = new_text.astype(float), old_text.astype(float)
    scale = np.where(np.isfinite(old_val), np.abs(old_val), 0.0).max(axis=0)
    moves = []
    for j in np.flatnonzero(moved.any(axis=0)).tolist():
        d = np.abs(new_val[moved[:, j], j] - old_val[moved[:, j], j])
        move = float(d.max()) if np.isfinite(d).all() else math.inf
        moves.append((old_rows[0][j], move / scale[j] if scale[j] else math.inf))
    return moves


def main():
    root = OUT.parents[1]
    for path in sorted(OUT.glob("*.csv")):
        committed = subprocess.run(["git", "show", "HEAD:" + path.relative_to(root).as_posix()],
                                   cwd=root, capture_output=True)
        if committed.returncode:
            print("%s: not in HEAD" % path.name)
            continue
        new = path.read_bytes()
        if new == committed.stdout:
            print("%s: unchanged" % path.name)
            continue
        moves = column_moves(new, committed.stdout)
        if moves is None:
            print("%s: the header or the table's shape changed" % path.name)
            continue
        for name, move in moves:
            print("%s %s %.1e" % (path.name, name, move))
    return 0


if __name__ == "__main__":
    sys.exit(main())
