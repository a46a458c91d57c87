#!/usr/bin/env bash
# serve_e2e entry point. Run from the repository root:
#
#   bash serve_e2e/run.sh --workload predict_hot --seed 1 --seconds 10 --trace 0
#
# Builds the release `fgcs` binary (the server under test) and the load
# generator from this checkout, then runs one workload. Build output goes
# to stderr; stdout carries the report, whose last line is the JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f src/bin/fgcs.rs ] || [ ! -f serve_e2e/Cargo.toml ]; then
  echo "serve_e2e: run from the root of an fgcs checkout" >&2
  exit 2
fi
# One target dir for both builds (the package is a workspace of its own).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --bin fgcs >&2
cargo build --release --offline --quiet --manifest-path serve_e2e/Cargo.toml >&2
exec "$target/release/serve_e2e" --fgcs "$target/release/fgcs" "$@"
