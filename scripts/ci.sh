#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
#
#   ./scripts/ci.sh          full gate (build, tests, clippy, fmt)
#   ./scripts/ci.sh quick    skip the release build
#
# The container is offline; all third-party crates resolve to the in-repo
# shims under compat/, so `cargo` never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

quick="${1:-}"

# Runs one test by its exact name (`run_one <cargo test args> <name>
# [-- <test harness args>]`) and fails unless exactly one test passed:
# `cargo test` exits 0 when a filter matches nothing, which would turn a
# renamed test into a no-op.
run_one() {
    local cargo_args=() out passed
    while [[ $# -gt 0 && "$1" != "--" ]]; do cargo_args+=("$1"); shift; done
    [[ $# -gt 0 ]] && shift
    out="$(cargo test -q "${cargo_args[@]}" -- --exact "$@" 2>&1)" \
        || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    passed="$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' <<<"$out" \
        | awk '{ n += $1 } END { print n + 0 }')"
    [[ "$passed" == 1 ]] || {
        echo "FAIL: expected exactly one test to pass, $passed did: ${cargo_args[*]}" >&2; return 1; }
}

echo "==> scan-lint --deny-warnings (determinism + hygiene + semantic passes)"
cargo run -q -p scan-lint -- --deny-warnings

echo "==> scan-lint --json (machine-output schema check)"
# The heredoc is python's stdin (it is the script), so the JSON goes
# through a file, not a pipe.
lint_json="$(mktemp)"
cargo run -q -p scan-lint -- --json > "$lint_json"
python3 - "$lint_json" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
for key in ("files_scanned", "errors", "warnings", "findings"):
    assert key in doc, f"scan-lint --json lost the `{key}` key"
assert isinstance(doc["findings"], list), "findings must be a list"
for f in doc["findings"]:
    for key in ("path", "line", "col", "severity", "rule", "message", "chain"):
        assert key in f, f"finding lost the `{key}` key: {f}"
    for hop in f["chain"]:
        for key in ("label", "path", "line"):
            assert key in hop, f"chain hop lost the `{key}` key: {hop}"
print(f"scan-lint --json schema OK ({doc['files_scanned']} files, "
      f"{len(doc['findings'])} findings)")
PY
rm -f "$lint_json"

echo "==> dependency hygiene (every manifest dependency is named by its crate's sources)"
# A dependency key (`-` read as `_`) must appear as a word in the crate's
# src/, tests/, benches/ or examples/ (root package: src/, tests/,
# examples/); the compat/ stand-ins are exempt.
python3 - <<'PY'
import glob, pathlib, re, sys, tomllib

root = tomllib.loads(pathlib.Path("Cargo.toml").read_text())
members = [(".", ("src", "tests", "examples"))] + [
    (m, ("src", "tests", "benches", "examples"))
    for pat in root["workspace"]["members"] if not pat.startswith("compat/")
    for m in sorted(glob.glob(pat))]
unnamed = []
for crate, dirs in members:
    manifest = tomllib.loads(pathlib.Path(crate, "Cargo.toml").read_text())
    text = "\n".join(p.read_text() for d in dirs for p in pathlib.Path(crate, d).rglob("*.rs"))
    for table in ("dependencies", "dev-dependencies"):
        for dep in manifest.get(table, {}):
            if not re.search(rf"\b{dep.replace('-', '_')}\b", text):
                unnamed.append(f"{crate}/Cargo.toml [{table}] {dep}")
for edge in unnamed:
    print(f"FAIL: no source names the dependency {edge}", file=sys.stderr)
sys.exit(1 if unnamed else 0)
PY

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --manifest-path perfbench/Cargo.toml (the benchmark still builds)"
# perfbench is its own workspace over the crates by path, so this catches
# a change that removes an API the benchmark calls. Offline, cargo
# rewrites the benchmark's stale lock file; put it back afterwards.
perf_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perf_lock"
trap 'cp "$perf_lock" perfbench/Cargo.lock; rm -f "$perf_lock"' EXIT
cargo test -q --offline --manifest-path perfbench/Cargo.toml
cp "$perf_lock" perfbench/Cargo.lock
rm -f "$perf_lock"
trap - EXIT

echo "==> cargo bench --no-run (bench smoke: harnesses must compile)"
cargo bench --workspace --no-run --quiet

echo "==> metrics determinism (parallel merge == sequential fold)"
run_one -p scan-platform instrument::tests::merged_export_is_identical_to_sequential_fold

echo "==> span conservation (medium fig4 cell: segments sum bit-exactly to latency)"
cargo test -q -p scan-spans --test conservation

echo "==> state digests (every hire, release and completion pinned per run)"
run_one --test doc_contracts matrix_state_digests_are_pinned
run_one --test doc_contracts fleet_100_state_digest_is_pinned
run_one --test doc_contracts fleet_contended_state_digest_is_pinned
run_one --test doc_contracts every_session_metric_is_pinned
run_one --test doc_contracts session_metrics_match_the_event_stream
run_one -p scan-platform platform::tests::golden_fixed_seed_metrics

echo "==> tenant-setup equivalence (the priced plan table and the one-scan fit match the per-call search and the per-stage fit)"
run_one -p scan-sched --lib plan::tests::table_searches_match_the_per_price_point_search
run_one -p scan-kb --test profile_log one_scan_fits_match_the_per_stage_readback_bit_for_bit

echo "==> class-queue equivalence (job-level queues vs a per-shard model: pops, waits, lengths, Eq. 1)"
run_one -p scan-sched --lib queue::tests::prop_aggregate_matches_naive_walk

echo "==> allocation budgets (debug: nothing on the simulation path allocates per job)"
run_one --test alloc_budget session_unit_allocates_nothing_per_job
run_one --test alloc_budget fleet_tenant_build_is_small

echo "==> memory budgets (debug: a built tenant keeps little; the session heap is flat in its horizon)"
run_one --test alloc_budget fleet_tenant_retains_little
run_one --test alloc_budget session_heap_is_flat_in_horizon

if [[ "$quick" != "quick" ]]; then
    echo "==> Table III (every published row matches what a session is built from)"
    # table3 asserts each row against the paper and exits non-zero on drift.
    cargo run -q --release -p scan-bench --bin table3 >/dev/null

    echo "==> store determinism (two fixed-seed runs, identical SCTS digest)"
    # The columnar store's 8-byte digest replaces the old multi-megabyte
    # JSONL double-run compare as the fixed-seed determinism gate; the
    # byte-level cmp backstops the digest against collisions.
    s1="$(mktemp)"; s2="$(mktemp)"; o1="$(mktemp)"; o2="$(mktemp)"; sp="$(mktemp -d)"
    trap 'rm -rf "$s1" "$s2" "$o1" "$o2" "$sp"' EXIT
    SCAN_HORIZON=300 SCAN_REPS=1 cargo run -q --release -p scan-bench --bin fig4 -- \
        --quick --store "$s1" > "$o1"
    SCAN_HORIZON=300 SCAN_REPS=1 cargo run -q --release -p scan-bench --bin fig4 -- \
        --quick --store "$s2" > "$o2"
    d1="$(sed -n 's/.*digest \([0-9a-f]*\).*/\1/p' "$o1")"
    d2="$(sed -n 's/.*digest \([0-9a-f]*\).*/\1/p' "$o2")"
    [[ -n "$d1" && "$d1" == "$d2" ]] || {
        echo "FAIL: fixed-seed store digest differs between runs ($d1 vs $d2)" >&2; exit 1; }
    cmp "$s1" "$s2" || { echo "FAIL: fixed-seed store export differs between runs" >&2; exit 1; }
    # The Python SCTS reader mirrors the Rust schema by hand; decoding a
    # real export pins it (read_scts raises on a layout drift or on
    # trailing bytes).
    python3 scripts/plot_traces.py --store "$s1" --out-dir "$sp" >/dev/null \
        || { echo "FAIL: scripts/plot_traces.py cannot decode the SCTS export" >&2; exit 1; }

    echo "==> state digest at 1,000 tenants (release)"
    run_one --release --test doc_contracts fleet_1000_state_digest_is_pinned -- --ignored

    echo "==> tenant-setup equivalence (release)"
    run_one --release -p scan-sched --lib plan::tests::table_searches_match_the_per_price_point_search
    run_one --release -p scan-kb --test profile_log \
        one_scan_fits_match_the_per_stage_readback_bit_for_bit

    echo "==> class-queue equivalence (release)"
    run_one --release -p scan-sched --lib queue::tests::prop_aggregate_matches_naive_walk

    echo "==> allocation budgets (release)"
    run_one --release --test alloc_budget session_unit_allocates_nothing_per_job
    run_one --release --test alloc_budget fleet_tenant_build_is_small

    echo "==> memory budgets (release)"
    run_one --release --test alloc_budget fleet_tenant_retains_little
    run_one --release --test alloc_budget session_heap_is_flat_in_horizon

    echo "==> store/JSONL cross-check (the JSONL replayed from a store equals the live sink's)"
    run_one --test tracestore_fleet store_agrees_with_the_jsonl_sink

    echo "==> fleet determinism (1 vs 8 rayon threads: stdout + merged store + spans)"
    f1="$(mktemp)"; f2="$(mktemp)"; fs1="$(mktemp)"; fs2="$(mktemp)"
    fp1="$(mktemp)"; fp2="$(mktemp)"
    trap 'rm -rf "$s1" "$s2" "$o1" "$o2" "$sp" "$f1" "$f2" "$fs1" "$fs2" \
        "$fp1" "$fp2" "$fp1.txt" "$fp2.txt"' EXIT
    RAYON_NUM_THREADS=1 cargo run -q --release -p scan-bench --bin fleet -- \
        --quick --store "$fs1" --spans "$fp1" > "$f1"
    RAYON_NUM_THREADS=8 cargo run -q --release -p scan-bench --bin fleet -- \
        --quick --store "$fs2" --spans "$fp2" > "$f2"
    # The `store:`/`spans:` "wrote <path>" lines carry the differing temp
    # paths; the spans report itself is byte-compared below instead.
    diff <(grep -v '^store:\|^spans:' "$f1") <(grep -v '^store:\|^spans:' "$f2") \
        || { echo "FAIL: fleet result depends on rayon thread count" >&2; exit 1; }
    cmp "$fs1" "$fs2" \
        || { echo "FAIL: merged fleet store depends on rayon thread count" >&2; exit 1; }
    cmp "$fp1.txt" "$fp2.txt" \
        || { echo "FAIL: merged fleet span report depends on rayon thread count" >&2; exit 1; }
    cmp "$fp1" "$fp2" \
        || { echo "FAIL: fleet Perfetto timeline depends on rayon thread count" >&2; exit 1; }

    # Analyzer latency budget: the semantic layer must keep the full
    # release-mode scan under 250 ms so scan-lint stays first in CI.
    echo "==> scan-lint --time-budget-ms 250 (release)"
    cargo run -q --release -p scan-lint -- --time-budget-ms 250

    # Perf trajectory (blocking): the newest perfbench ledger against
    # each end-to-end metric's best recorded point, 5% at most, and no
    # failed unit (the ledger is written by `./scripts/bench.sh --out`).
    echo "==> bench ledger gate (blocking, 5% from each metric's best)"
    ./scripts/bench.sh --check
fi

echo "==> instrumented session (run-gate: an observed session fills the metrics registry)"
run_one -p scan-platform instrument::tests::metrics_do_not_perturb_the_session

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --offline --no-deps (RUSTDOCFLAGS=-D warnings: no dangling intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "CI gate passed."
