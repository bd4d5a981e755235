#!/usr/bin/env bash
# Entry point of the nmcount benchmark; see run.py for the modes:
#   benchmark/run.sh [--seed=S]            full set, table, non-zero on a failed check
#   benchmark/run.sh --smoke               every workload at n=2^16, traced
#   benchmark/run.sh --repeatability       two full sets compared row by row
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
