#!/usr/bin/env bash
# Reproduce every desk-scale table: one CSV per subcommand under scripts/out/.
# Runs from a checkout: the package is imported from ../src, no install needed.
set -euo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="$PWD/../src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p out

filterlab() { python3 -m filterlab.cli "$@"; }

filterlab selftest

filterlab skf --config configs/basic_skf.json --out out/skf.csv
filterlab spenkf --config configs/inflated_spenkf.json --out out/spenkf_inflated.csv
filterlab inflation-table --config configs/inflated_spenkf.json --out out/inflation_table.csv
filterlab mc-verify --config configs/mc_verify_default.json --threads 4 --out out/mc_verify.csv
filterlab po-penalty --config configs/inflated_spenkf.json --threads 4 --out out/po_penalty.csv
filterlab mv --config configs/mv_demo.json --out out/mv_demo.csv

echo "wrote $(ls out | wc -l) CSV files to scripts/out/"
