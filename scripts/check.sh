#!/usr/bin/env bash
# Run the same three gates CI runs (lint / test / benchmark), in the same
# order, so a clean `scripts/check.sh` means a clean CI run. The nightly
# soak is separate — run `scripts/soak.sh` for that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: fmt + clippy + docs =="
cargo fmt --all --check
cargo clippy --locked --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace

echo "== test: build + test + doctests + examples =="
cargo build --locked --release --workspace --all-targets
cargo test --locked -q --workspace  # doctests included
for file in crates/eedc/examples/*.rs; do
  example="$(basename "$file" .rs)"
  cargo run --locked --release -p eedc --example "$example"
done

echo "== benchmark: tests + quick run + figures data =="
cargo test --release --manifest-path benchmark/Cargo.toml
cargo run --release --manifest-path benchmark/Cargo.toml -- run --quick
cargo run --locked --release -p eedc --bin figures -- figures-data

echo "all gates passed"
echo "== size (informational; compare with scripts/loc.sh <base-rev>) =="
scripts/loc.sh
echo "== callerless public items (informational; compare with scripts/callers.sh <base-rev>) =="
scripts/callers.sh
