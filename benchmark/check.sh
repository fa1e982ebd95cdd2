#!/bin/sh
# Quality gate of the benchmark package alone: formatting, lints as
# errors, and the unit tests (median / percentile / self-time arithmetic,
# the harness's failure accounting, the output schema and its agreement
# with BENCHMARK.json). Run from anywhere; needs no network.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
