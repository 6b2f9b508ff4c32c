#!/usr/bin/env bash
# Build the benchmark package and run it. See README.md beside this file.
#
#   benchmark/run.sh [--workload W] [--seed N] [--quick] [--repeats R] [--out FILE]
#       both passes of every (or one) workload, each in a child process
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass in one process; the last line printed is one JSON object
#   benchmark/run.sh compare A.json B.json | catalogue json|markdown
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo reports on stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/omega-benchmark" "$@"
