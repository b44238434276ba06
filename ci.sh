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
#                    #   all nine paper figures diffed against results/
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

echo "== signatures, reachability matrix, engine vs its reference model, live verdicts vs an engine-order replay, and the zero-allocation bounds (release)"
# The debug runs above cover these too; release is where the allocation
# count is the shipped one and where the shifts, the fixed-width hash
# kernel and the wrapping ring arithmetic are (rococo-sigs: the pinned
# prehash bit indices; rococo-core: unit tests, matrix_props, zero_alloc).
# The ROCoCoTM bound covers the whole commit path, the engine run on the
# committing thread included.
cargo test --release -q -p rococo-sigs
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

echo "== one commit path: no submit/finish split, no in-flight batch, no hazard drain, no owed verdict"
# A commit validates, publishes and returns; a worker runs each job to its
# reply. A second commit path would bring back the self-race the hazard
# drain existed for. `post` returns the verdict: no pending state, no held
# cell a waiter polls for, no hand-rolled death flag, no load counter.
if grep -rnE 'submit_commit|try_submit|finish_submitted|commit_deferred|PendingCommit|ReadyCommit|lane_in_flight|hazard_drains|PendingState|wait_held|flush_held|REORDER_FLUSH|reorder_prob|DeathGuard|\.in_flight\(\)' crates/; then
  echo "a second commit path is back under crates/" >&2
  exit 1
fi
# `validate_async` and `PendingVerdict` are a shim kept for the pinned
# benchmark's `fpga.pipelined_ns` probe; nothing under crates/ uses them.
if grep -rnE 'validate_async|PendingVerdict' crates/ \
  | grep -vE '^crates/fpga/src/(service|lib)\.rs:'; then
  echo "the benchmark's PendingVerdict shim has a user under crates/" >&2
  exit 1
fi

echo "== the WAL runs on the threads that use it: no writer thread, no spin budgets, no checkpoint mailbox"
# Whoever waits for the durable watermark writes the batch under the
# writer lock; a thread of its own would bring back the hand-off and the
# budgets that made a lone append bimodal.
if grep -rnE 'writer_loop|ExitGuard|ckpt_wanted|WAIT_SPOTS|CONSUMER_SPIN|PRODUCER_SPIN|PARK_AFTER|spin_on_this_host' crates/; then
  echo "the WAL writer thread or one of its budgets is back under crates/" >&2
  exit 1
fi
for f in crates/wal/src/*.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'thread::spawn|thread::Builder'; then
    echo "$f starts a thread outside its tests" >&2
    exit 1
  fi
done

echo "== replication starts no thread, sleeps nowhere and uses no channel"
# A shipper round runs on the thread that needs it (a gated read,
# catch_up, the load driver's tick) and hands every frame a link
# delivers to its follower. A thread, a sleep or a channel would bring
# back the wall-clock schedule a seed cannot replay (and the mpsc the
# schedule explorer would have to wrap); the chaos cluster harness times
# its scenario by acknowledged puts, not by sleeps.
repl_src="$(for f in crates/repl/src/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)"
if grep -nE 'mpsc|sync_channel|recv_timeout' <<<"$repl_src"; then
  echo "crates/repl/src uses a channel outside its tests" >&2
  exit 1
fi
if grep -nE 'thread::spawn|thread::Builder|thread::scope' <<<"$repl_src"; then
  echo "crates/repl/src starts a thread outside its tests" >&2
  exit 1
fi
cluster_src="$(sed '/^#\[cfg(test)\]/,$d' crates/chaos/src/cluster.rs)"
if grep -nE 'sleep\(' <<<"$repl_src"$'\n'"$cluster_src"; then
  echo "crates/repl/src or crates/chaos/src/cluster.rs sleeps outside its tests" >&2
  exit 1
fi

echo "== the Detector's history stores no signatures and evicts nothing bit by bit"
# A commit sets its bits in its generation's bank and a new generation
# zeroes its bank; stored signature words and an XOR `replace` were the
# eviction that cost the largest stage of a verdict.
if sed '/^#\[cfg(test)\]/,$d' crates/fpga/src/engine.rs | grep -nE 'fn replace\b|\bsigs[[:space:]]*:'; then
  echo "crates/fpga/src/engine.rs stores signatures or evicts by XOR outside its tests" >&2
  exit 1
fi

echo "== the commit path keeps no buffer pool and reads no clock"
# An open ROCoCoTM transaction holds its thread's buffers, and the one
# validation timer (TmStats::time_validation in api.rs) reads the clock
# around one verdict in 61. A pool and a clock per commit were a quarter
# of an uncontended Add.
if sed '/^#\[cfg(test)\]/,$d' crates/stm/src/rococotm.rs | grep -nE 'struct Scratch\b|fn take_scratch\b'; then
  echo "crates/stm/src/rococotm.rs pools transaction buffers outside its tests" >&2
  exit 1
fi
for f in crates/stm/src/rococotm.rs crates/stm/src/tinystm.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Instant::now'; then
    echo "$f reads the clock outside its tests; time validations in api.rs" >&2
    exit 1
  fi
done

echo "== a request crosses the hop in its slot and its reply cell: no admitted counter, no head read to admit"
# The admitted count is the shard queue's tail, and admission reads the
# cached head; only a refusal reads the workers' head. A counter bumped
# per request or a head read on the fast path drags a line between client
# and worker that carries no data.
if grep -rn 'note_enqueued' crates/; then
  echo "a per-request admitted counter is back under crates/" >&2
  exit 1
fi
# The wait helper and the cache-line pad live with their users; a crate of
# their own (deleted) would be the first place they come back.
if grep -rlE 'struct (Parker|Padded)\b' crates/ \
  | grep -vxE 'crates/server/src/(park|hop)\.rs|crates/wal/src/writer\.rs'; then
  echo "a Parker or Padded is defined outside rococo-server's hop and the WAL" >&2
  exit 1
fi
head_reads="$(sed '/^#\[cfg(test)\]/,$d' crates/server/src/hop.rs \
  | sed -n '/pub(crate) fn post(/,/^    }$/p' | grep -c 'self\.head\.0\.load')"
if (( head_reads > 1 )); then
  echo "ShardQueue::post reads head $head_reads times; only its refusal may" >&2
  exit 1
fi

echo "== one recording wrapper: no generic TmSystem impl outside rococo_stm::Recorder"
# The simulator's STAMP footprints and the chaos oracle's attempt
# histories both come from rococo_stm::Recorder. A second recording
# wrapper would take the form of a generic `impl<S: TmSystem> TmSystem
# for Wrapper<S>`, wrapping begin/read/write/commit_seq to log facts the
# one recorder already logs.
if grep -rnE 'impl<.*>[[:space:]]*([[:alnum:]_]+::)*TmSystem[[:space:]]+for' \
  --include=*.rs crates/ src/ tests/ examples/ \
  | grep -v '^crates/stm/src/record\.rs:'; then
  echo "a generic TmSystem impl (a second recording wrapper) is outside crates/stm/src/record.rs" >&2
  exit 1
fi

echo "== the live service is its workers: no checkpoint coordinator, no scraper thread, no sleep"
# A checkpoint is taken by the worker whose batch made it due, after it
# drops its pause guard, and the metric files are written once, when the
# service stops. A coordinator or a scraper thread polls on a wall-clock
# interval: crash coverage then depends on timing, and no seed replays
# it. retry.rs keeps its backoff sleep: a contention policy on the
# worker's own thread, not a poll.
if grep -rnE 'txkv-ckpt|txkv-telemetry|SCRAPE_INTERVAL|ckpt_stop|tlm_stop|ckpt_thread|tlm_thread' crates/; then
  echo "the checkpoint coordinator or the telemetry scraper is back under crates/" >&2
  exit 1
fi
service_src="$(sed '/^#\[cfg(test)\]/,$d' crates/server/src/service.rs)"
spawns="$(grep -cE 'thread::(Builder|spawn)' <<<"$service_src" || true)"
if (( spawns != 1 )); then
  echo "crates/server/src/service.rs starts $spawns threads outside its tests; only the workers may" >&2
  exit 1
fi
if grep -nE 'sleep\(' <<<"$service_src"; then
  echo "crates/server/src/service.rs sleeps outside its tests" >&2
  exit 1
fi

echo "== one crash switch for the WAL and replication, injected faults in the engine's stats, no injected-faults hook"
# The WAL and the replication cluster poll one rococo_wal::KillSwitch;
# KillPoint::WAL and KillPoint::CLUSTER name each harness's points, and
# the chaos bin's --kill takes only its harness's. The validation service
# counts the faults it injects in EngineStats, which the scrape and the
# chaos driver read through TmSystem::engine_stats. A second switch, a
# second stats block or a hook of their own would bring back the copies.
if grep -rnE 'ReplKillSwitch|ReplKillPoint|ClusterKill|FaultSnapshot|FaultStats|fn injected_faults|fault_stats' crates/; then
  echo "a second kill switch, fault stats block or injected-faults hook is back under crates/" >&2
  exit 1
fi
switches="$(grep -rnE 'struct [A-Za-z_]*KillSwitch\b' crates/ | wc -l)"
if (( switches > 1 )); then
  echo "crates/ defines $switches kill switches; rococo_wal::KillSwitch is the one" >&2
  exit 1
fi
kill_test="$(cargo test -q -p rococo-chaos --bin chaos kill_takes_only_the_harness_points 2>&1)"
if ! grep -q '1 passed' <<<"$kill_test"; then
  echo "$kill_test" >&2
  echo "the chaos bin's per-harness --kill test did not run and pass" >&2
  exit 1
fi

echo "== Fig. 10 and Fig. 11 price the recording: no clock in the figure path, no model-time counter, no live run in fig11"
# The figures are functions of one recording (stamp::harness::record_workload)
# and two committed cost tables (rococo_sim::CostModel and the calibration
# table in crates/bench/src/calibration.rs). A wall-clock mode, a replayed
# wall time, a live threaded STAMP run or a model-time counter charged on
# every commit would bring back figures that two runs of one commit
# disagree on. Only the calibrate bin, which runs in no CI mode, reads the
# recorder's clock.
if grep -rnE 'Mode::Wall|wall_app|validation_model_ns|mean_validation_model_us' \
  crates/ examples/ src/ tests/; then
  echo "a wall-clock Fig. 10 or the model-time validation counter is back" >&2
  exit 1
fi
clock='exec_ns|Duration|Instant|\.parallel'
if grep -nE "$clock" crates/bench/src/bin/fig10.rs crates/bench/src/bin/ablation_eager.rs; then
  echo "fig10 or ablation_eager reads a clock; price the footprints with rococo_bench::seq_cost" >&2
  exit 1
fi
for f in crates/sim/src/*.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$clock"; then
    echo "$f (outside its tests) reads a clock; the simulator prices counts" >&2
    exit 1
  fi
done
if grep -nE 'harness::(\{[^}]*)?\brun\b|SystemKind|thread::' crates/bench/src/bin/fig11.rs; then
  echo "crates/bench/src/bin/fig11.rs runs STAMP live; price record_workload instead" >&2
  exit 1
fi

echo "== docs name crates/ paths that exist"
# benchmark/README.md is left out: it still names the deleted
# crates/bench/benches/, and only a change to the benchmark may edit it.
missing=0
for p in $(grep -ohE 'crates/[A-Za-z0-9_./*-]*' README.md DESIGN.md .claude/skills/verify/SKILL.md | sort -u); do
  p="${p%.}"
  if ! compgen -G "$p" >/dev/null; then
    echo "a doc names $p, which does not exist" >&2
    missing=1
  fi
done
if (( missing )); then
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
# livelocks (a turn-wait without a yield did) and the second hangs. The
# request hop waits with rococo-server's Parker (it never spins), and
# `hop::` includes `a_stale_cached_head_never_sheds_below_capacity`. The WAL has
# no thread to wake: a waiter behind a gap yields to the gap's owner, which
# here is the only other thread that can run, and a waiter behind a held
# writer lock naps until the holder's release wakes it (the WAL's
# `a_waiter_behind_a_gap_returns_once_its_owner_posts`,
# `a_batch_posted_before_its_wait_is_one_write` and
# `a_holder_that_leaves_without_writing_wakes_its_nappers`, and the
# service's two `group_commit_groups_*` tests, check it). The validation
# service has no wait/wake protocol: `post` validates under the engine's
# lock on the posting thread and returns the verdict. Its one sleep outside
# the lock is the late-verdict fault; `a_poster_behind_a_stalled_post_gets_its_verdict`
# checks that a second poster gets its verdict while the first sleeps,
# which on this CPU means the sleeper holds nothing the other needs.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test --release -q -p rococo-fpga --lib
  taskset -c 0 cargo test --release -q -p rococo-wal --lib
  taskset -c 0 cargo test --release -q -p rococo-server --lib -- \
    hop:: a_lone_request_wakes a_dropped_pending_reply a_panicking_backend overload_sheds \
    a_lone_worker_on_hot_keys_aborts_nothing every_commit_irrevocable_still_conserves \
    a_reply_leaves_before_its_batch_ends group_commit_groups_
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

  echo "== every paper figure regenerates byte-identical"
  for figure in fig7 table_resources fig9 fig10 fig11 ablation_eager ablation_latency ablation_sig ablation_window; do
    bench "$figure" >"$SCRATCH/$figure.txt"
    diff "results/$figure.txt" "$SCRATCH/$figure.txt"
  done

  echo "== chaos tiers: serializability, crash recovery, replication fail-over (pinned seeds; NIGHTLY=1 for the full sweeps)"
  for harness in stm recovery cluster; do
    cargo run --release -q -p rococo-chaos --bin chaos -- "$harness" --pinned --quiet $EXTENDED
  done
fi

echo "CI OK"
