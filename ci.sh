#!/usr/bin/env bash
# Tier-1 verification plus lint gates. Run from the repo root.
set -euo pipefail

cargo fmt --check
# --all-targets extends the gates (including clippy::unwrap_used, which
# every library crate warns on) to tests and benches; test modules
# allow-list unwrap explicitly.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::dbg_macro -D clippy::todo
# Static invariant catalog (DESIGN.md §10, §14): token rules (no
# HashMap/HashSet or wall-clock/entropy in model code, no NaN-panicking
# comparators, no float-literal equality, no panic!-family macros in
# library code) plus the semantic pass — unit-safety over identifier
# names (U1/U2), transitive replay determinism across crate boundaries
# (D4), and panic-reachability from public model APIs (P2). Runs before
# the test gates: a lint violation is cheaper to report than a flaked
# property suite is to debug. The JSON report lands in results/ for
# auditing; findings budgeted in lint_baseline.txt (currently none) are
# tolerated, anything else fails the build.
mkdir -p results
cargo build -q -p gsf-lint --release
if ./target/release/gsf-lint --format json --baseline lint_baseline.txt \
    > results/lint_report.json; then
    echo "gsf-lint: clean (report in results/lint_report.json)"
else
    status=$?
    cat results/lint_report.json
    echo "gsf-lint: non-baselined findings (see results/lint_report.json)" >&2
    exit "$status"
fi
cargo build --release
# --workspace: a bare `cargo test` from the root only tests the root
# package (integration suites), silently skipping every crate.
cargo test -q --workspace
# Fault-injection determinism is a hard guarantee (FaultModel::none()
# bit-identical; enabled models seed-deterministic): run its suite
# explicitly so a filtered or partial test run cannot mask a drift.
cargo test -q -p gsf-core --test fault_determinism
# Replay-engine equivalence is equally hard: the prepared engine every
# sizing probe and sweep point runs on must stay bit-identical to the
# unprepared reference engine, faulted and fault-free, and its
# verdict-only probe to its full replay. Every prepared sizing entry
# point (right_size_prepared and its baseline-only and mixed halves)
# must return what the reference sizing right_size_unprepared returns
# (unprepared engine, linear selection), work counters included, for
# all three policies.
cargo test -q -p gsf-cluster --test prepared_equivalence
# Placement-index equivalence: indexed server selection must stay
# bit-identical to the linear reference scan on replays across
# policies, fault plans and reset reuse.
cargo test -q -p gsf-cluster --test index_equivalence
# Sharded-replay equivalence: the parallel shard driver must stay
# bit-identical to its serial reference for every worker count (and
# one shard must stay bit-identical to the unsharded engine), across
# policies, shard-boundary fault plans and reset reuse, and the sharded
# sizing pass of right_size_prepared must not depend on the worker
# count.
cargo test -q -p gsf-cluster --test shard_equivalence
# Availability-layer equivalence: flat topology + repairs off must stay
# bit-identical to the pre-repair model (signature, plans, replays,
# sizing, reset reuse); domain faults, revivals, and retry-queue drains
# must replay identically sharded and serial; horizon-edge events, SLO
# monotonicity, and the Little's-law OOS consistency check live here.
cargo test -q -p gsf-cluster --test availability_equivalence
# Arena-storage equivalence: the slot-arena replay core must keep the
# prepared, unprepared, and sharded engines bitwise identical across
# policies and fault shapes, stay internally consistent (occupancy vs
# live slots, aggregate folds) after every replay, and survive reset()
# reuse and both sizing searches unchanged.
cargo test -q -p gsf-cluster --test arena_equivalence
# Allocation budget: after one warming replay the steady-state event
# loop must not allocate per event — a 10x-larger trace must allocate
# exactly as much as the small one. Runs under a counting global
# allocator in its own binary.
cargo test -q -p gsf-perf --test zero_alloc_replay
# Streamed-replay equivalence: evaluating from a chunked trace stream
# (bounded memory, no materialized Trace) must stay bit-identical to
# the in-memory path and share its cache entries. --include-ignored
# pulls in the fleet-scale 24k-VM fixture, which only runs here in
# release (the earlier `cargo build --release` makes this cheap).
cargo test -q --release -p gsf-core --test streamed_equivalence -- --include-ignored
# The benchmark (perfbench/, a package outside the workspace) builds
# against the crates it measures: run every workload once on tiny
# inputs, traced and untraced, so a change to anything it imports fails
# here rather than only in a benchmark run.
python3 perfbench/run.py smoke
# Docs must build clean: public-API rustdoc (broken intra-doc links,
# malformed HTML) is a release gate, not a warning.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
