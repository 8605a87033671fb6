#!/usr/bin/env bash
# Build the benchmark (once per checkout) and run it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --serve-rate 12 --workload sweep --seed 1 --seconds 20 --trace 0
#
# The binary is rebuilt only when a source or manifest is newer than it.
# Asking cargo every time would rebuild the workspace on each run in a
# copy without `.git`: crates/metrics/build.rs watches `.git/HEAD`, and
# cargo treats a watched file that is missing as always changed.
set -euo pipefail
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
sources=(Cargo.lock crates vendor perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src)
if [[ ! -x "$bin" || -n "$(find "${sources[@]}" -newer "$bin" -print -quit 2>/dev/null)" ]]; then
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
