#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, the full test suite, and the
# telemetry + trace-attribution smokes.
# Run before every push. Works fully offline (all deps are vendored).
#
#   ./ci.sh            # the standard gate
#   ./ci.sh --stress   # + the pinned chaos tier (deterministic seed matrix
#                      #   over every TM backend, fault-injected ROCoCoTM
#                      #   included; prints reproducer commands on failure)
#   ./ci.sh --recovery # + the crash-recovery tier: the seeded kill-point x
#                      #   fsync-mode matrix (WAL writer killed under load,
#                      #   recovery checked for prefix consistency)
#   ./ci.sh --repl     # + the replication tier: the seeded fail-over matrix
#                      #   (kill points mid-batch-ship / pre-ack /
#                      #   during-election, partition, lossy links; replicas
#                      #   checked for convergence and read-your-writes)
#   ./ci.sh --lint-json # + write the machine-readable lint report to
#                      #   LINT_report.json (CI artifact)
#   ./ci.sh --bench-smoke # + short closed-loop and open-loop txkv_load
#                      #   runs with the emitted JSON rows schema-validated
#                      #   (bench_check), including an overload run that
#                      #   must shed, and the pinned benchmark's own smoke
#                      #   (benchmark/smoke.sh)
#   ./ci.sh --sched    # + the hybrid-router tier: a short zipfian
#                      #   `--backend hybrid` run whose JSON row must carry
#                      #   the sched counter object (bench_check
#                      #   --require-hybrid) and whose scraped router
#                      #   metrics must pass telemetry_check --sched
#
# The nightly job sets CHAOS_EXTENDED=1, which widens the stress tier to
# the full seed sweep and the hostile commit-queue geometries,
# REPL_EXTENDED=1, which widens the replication tier to every
# service-capable backend with longer runs, and LINT_EXTENDED=1, which
# re-runs the linter's interprocedural pass with the summary fixpoint
# solved twice and compared (nondeterminism tripwire).
set -euo pipefail
cd "$(dirname "$0")"

STRESS=0
RECOVERY=0
REPL=0
LINT_JSON=0
BENCH_SMOKE=0
SCHED=0
for arg in "$@"; do
  case "$arg" in
    --stress) STRESS=1 ;;
    --recovery) RECOVERY=1 ;;
    --repl) REPL=1 ;;
    --lint-json) LINT_JSON=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --sched) SCHED=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rococo-lint (TM-safety invariants; per-rule timing below)"
# The run is the gate: any diagnostic — including an unused or
# malformed suppression — exits nonzero. The SARIF log is the CI
# annotation artifact.
cargo run --release -q -p rococo-lint -- --root . --sarif LINT_report.sarif
echo "wrote LINT_report.sarif"
if [[ "$LINT_JSON" == "1" ]]; then
  cargo run --release -q -p rococo-lint -- --root . --json > LINT_report.json
  echo "wrote LINT_report.json"
fi
if [[ "${LINT_EXTENDED:-0}" == "1" ]]; then
  echo "== rococo-lint extended (interprocedural summaries re-solved; fixpoint must agree)"
  cargo run --release -q -p rococo-lint -- --root . --verify-fixpoint
fi

echo "== tier-1: release build + tests"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test --workspace -q

echo "== engine vs its reference model, and its zero-allocation bound (release)"
# The debug runs above cover these too; release is where the allocation
# count is the shipped one and where wrapping arithmetic would differ.
cargo test --release -q -p rococo-fpga --lib engine::
cargo test --release -q -p rococo-fpga --test zero_alloc

echo "== request hop: no channel shim on the request path, and what it allocates (release)"
# The shard queue and the reply cell replaced the last Mutex+Condvar
# channels between a client and a worker; a dependency edge back to the
# shim is how they would return.
if grep -n crossbeam crates/server/Cargo.toml; then
  echo "crates/server/Cargo.toml names crossbeam: the request hop is crates/server/src/hop.rs" >&2
  exit 1
fi
cargo test --release -q -p rococo-server --lib hop::
cargo test --release -q -p rococo-server --test alloc_per_request

echo "== validator link, WAL ring and request hop on one CPU (release: where a spin-wait livelocks and a lost unpark hangs)"
# With a second CPU a missing yield only wastes time and a lost wake-up is
# papered over by the other side's polling; pinned to one, the first
# livelocks (PR 1's turn-wait) and the second hangs. All three hops wait
# with rococo-park's helper; the two rings skip their spin phase here, the
# request hop never spins.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test --release -q -p rococo-fpga --lib
  taskset -c 0 cargo test --release -q -p rococo-wal --lib
  taskset -c 0 cargo test --release -q -p rococo-server --lib -- \
    hop:: a_lone_request_wakes a_dropped_pending_reply a_panicking_backend overload_sheds
else
  echo "taskset not found: skipping the one-CPU run of the rococo-fpga, rococo-wal and rococo-server hop tests"
fi

echo "== pinned benchmark builds (its imports are the frozen stats/telemetry surface)"
# benchmark/ is its own package, outside the workspace; building it here
# makes an API break of what it uses fail CI, not the next benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== telemetry smoke (flight recorder + scraper + trace, schema-validated)"
TLM_DIR="$(mktemp -d)"
trap 'rm -rf "$TLM_DIR"' EXIT
# Durable run so the rococo_wal_* namespace is populated alongside the
# txkv/tm/fpga/faults metrics; telemetry_check verifies all five.
cargo run --release -q -p rococo-bench --bin txkv_load -- \
  --backend rococo --ops 20000 --clients 4 --keys 4096 \
  --durability always --telemetry "$TLM_DIR" --json none
cargo run --release -q -p rococo-bench --bin telemetry_check -- "$TLM_DIR"
cp "$TLM_DIR/metrics.json" METRICS_snapshot.json
echo "wrote METRICS_snapshot.json"

echo "== trace smoke (causal tracing + critical-path attribution, checked)"
ATTR_TMP="$TLM_DIR/trace-smoke"      # lives under TLM_DIR, cleaned by its trap
mkdir -p "$ATTR_TMP/tlm"
# Tail-sampled attribution run: the analyzer must reconstruct every
# sampled chain (stage shares summing to 1), the Perfetto flow triplets
# must link each chain across lanes, and the trace artifacts must pass
# the extended telemetry_check (anomaly dumps validated, zero tx spans
# is a distinct failure).
cargo run --release -q -p rococo-bench --bin txkv_load -- \
  --backend rococo --ops 20000 --clients 4 --keys 4096 \
  --durability always --telemetry "$ATTR_TMP/tlm" --attribution \
  --json "$ATTR_TMP/bench.json" --label "ci trace attribution smoke"
cargo run --release -q -p rococo-bench --bin trace_report -- \
  "$ATTR_TMP/tlm" --check --top 3
cargo run --release -q -p rococo-bench --bin telemetry_check -- "$ATTR_TMP/tlm"
cargo run --release -q -p rococo-bench --bin bench_check -- \
  "$ATTR_TMP/bench.json" --require-attribution
cp "$ATTR_TMP/tlm/attribution.json" ATTRIBUTION_snapshot.json
echo "wrote ATTRIBUTION_snapshot.json"

if [[ "$BENCH_SMOKE" == "1" ]]; then
  echo "== bench smoke (closed + open loop txkv_load, JSON rows schema-validated)"
  BENCH_TMP="$TLM_DIR/bench-smoke"   # lives under TLM_DIR, cleaned by its trap
  mkdir -p "$BENCH_TMP"
  # Closed loop with a batch sweep: two rows (batch 1 vs 8) in one report.
  cargo run --release -q -p rococo-bench --bin txkv_load -- \
    --backend rococo --ops 30000 --shards 1 --workers 1 --clients 4 \
    --keys 4096 --batch 1,8 --json "$BENCH_TMP/bench.json" \
    --label "ci closed-loop smoke"
  # Open loop offered well past a one-worker shard's capacity with a tiny
  # queue: the run must shed, and bench_check asserts that it did.
  cargo run --release -q -p rococo-bench --bin txkv_load -- \
    --backend rococo --ops 30000 --shards 1 --workers 1 --clients 4 \
    --keys 4096 --queue 8 --open-loop 40000 --batch 8 \
    --json "$BENCH_TMP/bench.json" --append \
    --label "ci open-loop overload smoke"
  cargo run --release -q -p rococo-bench --bin bench_check -- \
    "$BENCH_TMP/bench.json" --min-rows 3 --require-open-shed
  # The committed report must stay schema-clean too.
  cargo run --release -q -p rococo-bench --bin bench_check -- BENCH_txkv.json
  echo "== pinned benchmark smoke (benchmark/smoke.sh)"
  benchmark/smoke.sh
fi

if [[ "$SCHED" == "1" ]]; then
  echo "== hybrid-router tier (zipfian hybrid smoke: bench row + sched metrics)"
  SCHED_TMP="$TLM_DIR/sched-smoke"   # lives under TLM_DIR, cleaned by its trap
  mkdir -p "$SCHED_TMP/tlm"
  # High-contention zipfian mix on the hybrid router: the emitted row must
  # carry the sched counter object, and the scraped metrics must cover the
  # rococo_sched_ namespace with both route paths labelled out.
  cargo run --release -q -p rococo-bench --bin txkv_load -- \
    --backend hybrid --ops 30000 --shards 2 --workers 2 --clients 8 \
    --keys 4096 --theta 1.2 --read-pct 20 \
    --telemetry "$SCHED_TMP/tlm" --json "$SCHED_TMP/bench.json" \
    --label "ci hybrid sched smoke"
  cargo run --release -q -p rococo-bench --bin bench_check -- \
    "$SCHED_TMP/bench.json" --require-hybrid
  # --no-fpga: when the router pins the whole mix to the HTM fast path
  # (the expected outcome on this workload), no software commit runs the
  # FPGA validation pipeline, so the trace legitimately has no stage
  # slices. The sched namespace check is what this tier is for.
  cargo run --release -q -p rococo-bench --bin telemetry_check -- \
    "$SCHED_TMP/tlm" --no-wal --no-fpga --sched
fi

if [[ "$STRESS" == "1" || "${CHAOS_EXTENDED:-0}" == "1" ]]; then
  echo "== chaos stress tier (pinned seeds; CHAOS_EXTENDED=1 for the nightly sweep)"
  cargo run --release -q -p rococo-chaos --bin chaos -- --pinned --quiet
fi

if [[ "$RECOVERY" == "1" ]]; then
  echo "== crash-recovery tier (kill-point x fsync-mode matrix, seeded)"
  cargo run --release -q -p rococo-chaos --bin recovery -- --matrix --quiet
fi

if [[ "$REPL" == "1" || "${REPL_EXTENDED:-0}" == "1" ]]; then
  echo "== replication tier (seeded fail-over matrix; REPL_EXTENDED=1 for the nightly sweep)"
  cargo run --release -q -p rococo-chaos --bin repl_cluster -- --matrix --quiet
fi

echo "CI OK"
