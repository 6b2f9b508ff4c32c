#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json: two result files of run.sh, per
# workload and end-to-end metric against the metric's bound. Exit code 0:
# all within bounds; 1: a regression or an exact value that differs;
# 2: a spread wider than its bound leaves something unresolved.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$@"
