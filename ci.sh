#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, the full test suite, the two
# hybrid service tests looped 200 times under a timeout, and one
# telemetry + trace-attribution smoke whose run directory is checked.
# Run before every push. Works fully offline (all deps are vendored).
#
#   ./ci.sh          # the standard gate
#   ./ci.sh --full   # + the seeded correctness tiers (chaos, crash
#                    #   recovery, replication fail-over: each prints
#                    #   reproducer commands on failure), the hybrid-router
#                    #   smoke, one open-loop overload run and one
#                    #   replicated run of the load driver, the pinned
#                    #   benchmark's own smoke (benchmark/smoke.sh), and
#                    #   fig7 / table_resources diffed against results/
#
# The nightly job runs `NIGHTLY=1 ./ci.sh --full`, which widens the chaos
# tier to the full seed sweep and the hostile commit-queue geometries,
# and the replication tier to every service-capable backend with longer
# runs. The linter runs once, `rococo-lint --root .`, in every mode: it
# writes no report file and has no nightly step.
set -euo pipefail
cd "$(dirname "$0")"

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
EXTENDED=""
if [[ "${NIGHTLY:-0}" == "1" ]]; then
  EXTENDED="--extended"
fi

# Scratch for the smokes below, removed on exit. cargo rewrites
# benchmark/Cargo.lock in place (the committed one is stale until the
# next benchmark PR may touch benchmark/): keep it, put it back on exit.
SCRATCH="$(mktemp -d)"
cp benchmark/Cargo.lock "$SCRATCH/Cargo.lock"
trap 'cp "$SCRATCH/Cargo.lock" benchmark/Cargo.lock; rm -rf "$SCRATCH"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rococo-lint (TM-safety invariants; per-rule timing below)"
# The run is the gate: any diagnostic — including an unused or
# malformed suppression — exits nonzero. Blocking bugs are not its
# business: the hybrid loop below and the service tests guard those.
cargo run --release -q -p rococo-lint -- --root .

echo "== tier-1: release build + tests"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test --workspace -q

echo "== hybrid service tests, 200 runs (a hang or a failure is a red build)"
# The two rococo-server hybrid tests used to deadlock in about 1 run in
# 130 (a worker holding commits in flight against an escalating begin,
# through the conflict-serialization lock PR 20 deleted) and to lose a bank update in
# about 1 in 200 (a torn ROCoCoTM read, fixed there too). ~0.1 s a run:
# the test binary is built once and looped.
hybrid_bin="$(cargo test -q -p rococo-server --lib --no-run --message-format=json \
  | grep -o '"executable":"[^"]*rococo_server-[^"]*"' | tail -n 1 | cut -d'"' -f4)"
for i in $(seq 1 200); do
  if ! (cd crates/server && timeout 30 "$hybrid_bin" hybrid >"$SCRATCH/hybrid.log" 2>&1); then
    cat "$SCRATCH/hybrid.log"
    echo "hybrid service tests: run $i of 200 hung (exit 124) or failed" >&2
    exit 1
  fi
done

echo "== reachability matrix, engine vs its reference model, live verdicts vs an engine-order replay, and the zero-allocation bounds (release)"
# The debug runs above cover these too; release is where the allocation
# count is the shipped one and where the shifts and the wrapping ring
# arithmetic are (rococo-core: unit tests, matrix_props, zero_alloc). The
# ROCoCoTM bound covers the whole commit path, the engine run on the
# committing thread included.
cargo test --release -q -p rococo-core
cargo test --release -q -p rococo-fpga --lib engine::
cargo test --release -q -p rococo-fpga --lib combined_verdicts_match_a_replay_in_engine_order
cargo test --release -q -p rococo-fpga --test zero_alloc
cargo test --release -q -p rococo-stm --test zero_alloc

echo "== no vendored shim that stands for nothing: no crossbeam, no serde"
# The validator's lock, the WAL ring and the request hop replaced every
# Mutex+Condvar channel on the request path, and the serde derives
# expanded to nothing; a dependency edge is how either would return.
if grep -rn 'crossbeam\|serde' --include=Cargo.toml . | grep -v '^./benchmark/'; then
  echo "a Cargo.toml outside benchmark/ names crossbeam or serde" >&2
  exit 1
fi

echo "== one commit path: no submit/finish split, no in-flight batch, no hazard drain"
# A commit validates, publishes and returns; a worker runs each job to its
# reply. A second commit path would bring back the self-race the hazard
# drain existed for.
if grep -rnE 'submit_commit|try_submit|finish_submitted|commit_deferred|PendingCommit|ReadyCommit|lane_in_flight|hazard_drains' crates/; then
  echo "a second commit path is back under crates/" >&2
  exit 1
fi

echo "== request hop and what it allocates, a worker on hot keys that aborts nothing, one whose every commit is irrevocable, and a reply that leaves before its batch ends (release)"
cargo test --release -q -p rococo-server --lib hop::
cargo test --release -q -p rococo-server --test alloc_per_request
cargo test --release -q -p rococo-server --lib a_lone_worker_on_hot_keys_aborts_nothing
cargo test --release -q -p rococo-server --lib every_commit_irrevocable_still_conserves
cargo test --release -q -p rococo-server --lib a_reply_leaves_before_its_batch_ends

echo "== validation service, WAL ring and request hop on one CPU (release: where a spin-wait livelocks and a lost unpark hangs)"
# With a second CPU a missing yield only wastes time and a lost wake-up is
# papered over by the other side's polling; pinned to one, the first
# livelocks (a turn-wait without a yield did) and the second hangs. The WAL
# ring and the request hop wait with rococo-park's helper (the ring skips
# its spin phase here, the hop never spins). The validation service has no
# wait/wake protocol: `post` validates under the engine's lock on the
# posting thread. The one wait left is the waiter of a request the reorder
# fault held back, which yields until the next post answers it or it may
# validate it itself — here that poster needs this CPU to finish.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test --release -q -p rococo-fpga --lib
  taskset -c 0 cargo test --release -q -p rococo-wal --lib
  taskset -c 0 cargo test --release -q -p rococo-server --lib -- \
    hop:: a_lone_request_wakes a_dropped_pending_reply a_panicking_backend overload_sheds \
    a_lone_worker_on_hot_keys_aborts_nothing every_commit_irrevocable_still_conserves \
    a_reply_leaves_before_its_batch_ends
else
  echo "taskset not found: skipping the one-CPU run of the rococo-fpga, rococo-wal and rococo-server hop tests"
fi

echo "== pinned benchmark builds (its imports are the frozen stats/telemetry surface)"
# benchmark/ is its own package, outside the workspace; building it here
# makes an API break of what it uses fail CI, not the next benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== telemetry + attribution smoke (one run directory, checked)"
bench() { local bin="$1"; shift; cargo run --release -q -p rococo-bench --bin "$bin" -- "$@"; }
# Durable, tail-sampled ROCoCoTM run: every rococo_* namespace is
# populated, and run_check holds the directory to every invariant of
# rococo_telemetry::rundir::check_run_dir (exposition, metrics.json,
# transaction spans overlapping Detector slices, anomaly dumps, exact
# stage sums, flow triplets; zero tx spans is a distinct failure).
bench txkv_load --backend rococo --ops 20000 --clients 4 --keys 4096 \
  --durability always --telemetry "$SCRATCH/run" --attribution
bench run_check "$SCRATCH/run" --fpga --wal --attribution
bench trace_report "$SCRATCH/run" --top 3
cp "$SCRATCH/run/metrics.json" METRICS_snapshot.json
cp "$SCRATCH/run/attribution.json" ATTRIBUTION_snapshot.json
echo "wrote METRICS_snapshot.json ATTRIBUTION_snapshot.json"

if [[ "$FULL" == "1" ]]; then
  echo "== hybrid-router smoke (zipfian mix; the scrape must carry the sched schema)"
  # When the router pins the whole mix to the HTM fast path (the expected
  # outcome on this workload) no commit runs the FPGA pipeline, so only
  # the rococo_sched_ families are required of this run.
  bench txkv_load --backend hybrid --ops 30000 --shards 2 --workers 2 \
    --clients 8 --keys 4096 --theta 1.2 --read-pct 20 \
    --telemetry "$SCRATCH/hybrid"
  bench run_check "$SCRATCH/hybrid" --sched

  echo "== load driver modes (open-loop overload, replicated) still run"
  # Offered well past a one-worker shard's capacity with a tiny queue.
  # That such a run sheds instead of queueing is asserted where it can
  # fail a test: rococo-server's `overload_sheds_instead_of_queueing`,
  # `hop::tests`, and tier-1 `overload_sheds_typed_error_and_service_stays_live`.
  bench txkv_load --backend rococo --ops 30000 --shards 1 --workers 1 \
    --clients 4 --keys 4096 --queue 8 --open-loop 40000
  bench txkv_load --replicas 2 --quick

  echo "== pinned benchmark smoke (benchmark/smoke.sh)"
  benchmark/smoke.sh

  echo "== paper figures that are exact: fig7 and table_resources regenerate byte-identical"
  for figure in fig7 table_resources; do
    bench "$figure" >"$SCRATCH/$figure.txt"
    diff "results/$figure.txt" "$SCRATCH/$figure.txt"
  done

  echo "== chaos tier (pinned seeds; NIGHTLY=1 for the full sweep)"
  cargo run --release -q -p rococo-chaos --bin chaos -- --pinned --quiet $EXTENDED

  echo "== crash-recovery tier (kill-point x fsync-mode matrix, seeded)"
  cargo run --release -q -p rococo-chaos --bin recovery -- --matrix --quiet

  echo "== replication tier (seeded fail-over matrix; NIGHTLY=1 for every backend)"
  cargo run --release -q -p rococo-chaos --bin repl_cluster -- --matrix --quiet $EXTENDED
fi

echo "CI OK"
