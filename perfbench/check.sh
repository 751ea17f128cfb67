#!/usr/bin/env bash
# Gates on the benchmark's own code: rustfmt, clippy with warnings as
# errors, its self-tests, and the workspace's darms-lint rules (nondet,
# name-registry and the rest) in deny mode. Run from any directory:
#
#     bash perfbench/check.sh
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
repo="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

cd "$here"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline

# darms-lint scans crates/, src/, tests/, examples/ and tools/ under a
# workspace root. Give it a root that holds the metric taxonomy and a
# copy of this package's sources, so every rule sees them and nothing
# else.
lint_root="$target/lint-root"
rm -rf "$lint_root"
mkdir -p "$lint_root/tools/perfbench"
printf '[workspace]\n' > "$lint_root/Cargo.toml"
cp "$repo/metrics.toml" "$lint_root/"
cp -r "$here/src" "$lint_root/tools/perfbench/"
cargo run --offline --release -q --manifest-path "$repo/Cargo.toml" -p darms-lint -- \
    --deny --root "$lint_root"
