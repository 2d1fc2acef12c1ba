#!/usr/bin/env bash
# The benchmark's one command: build `uc` (root package) and the harness
# (this package) in release mode, then run the harness with the given
# arguments. `--trace 1` selects the probe binary; everything else —
# including `compare A.json B.json` — goes to the end-to-end harness.
# Fails, printing no result, wherever the repository's sources are absent.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

bin=ucbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" != "0" ]; then bin=ucprobe; fi
    prev=$arg
done

start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin uc >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin "$bin" >&2
build_ms=$(( ($(date +%s%N) - start) / 1000000 ))
# Build time is reported beside the results, never inside setup_s.
export UCBENCH_BUILD_S="$((build_ms / 1000)).$(printf '%03d' $((build_ms % 1000)))"
echo "build: ${UCBENCH_BUILD_S} s (uc + $bin, release)" >&2

exec "$CARGO_TARGET_DIR/release/$bin" "$@"
