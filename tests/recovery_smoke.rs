//! Tier-1 recovery smoke: a fast slice of the crash-recovery chaos
//! matrix. The full kill-point × fsync-mode sweep lives behind
//! `ci.sh --recovery` (the `recovery` binary's `--matrix` mode); this
//! file keeps one representative of each failure family in the default
//! test run so a durability regression cannot land silently.

use rococo_chaos::{run_recovery, RecoveryParams};
use rococo_wal::{FsyncPolicy, KillPoint};

fn smoke(params: RecoveryParams) {
    let report = run_recovery(&params);
    assert!(
        report.ok(),
        "{}\n{:#?}",
        report.summary(),
        report.violations
    );
}

#[test]
fn clean_shutdown_recovers_exactly() {
    smoke(RecoveryParams {
        kill_point: None,
        clients: 2,
        ops_per_client: 50,
        ..RecoveryParams::default()
    });
}

#[test]
fn torn_tail_is_truncated_not_trusted() {
    // Mid-append is the torn-write family: recovery must cut the log at
    // the first bad frame and keep everything acked before it.
    smoke(RecoveryParams {
        seed: 3,
        kill_point: Some(KillPoint::MidAppend),
        ops_per_client: 120,
        ..RecoveryParams::default()
    });
}

#[test]
fn lost_acks_never_mean_lost_data() {
    // Post-append-pre-ack: the writes are durable but the clients saw
    // failures — recovery may keep them, must lose none that were acked.
    smoke(RecoveryParams {
        seed: 7,
        kill_point: Some(KillPoint::PostAppendPreAck),
        ops_per_client: 120,
        ..RecoveryParams::default()
    });
}

#[test]
fn checkpoint_crash_keeps_the_previous_state() {
    // Mid-checkpoint with tight checkpoint cadence: the half-written
    // temp snapshot must never win over the old checkpoint + log.
    smoke(RecoveryParams {
        seed: 11,
        kill_point: Some(KillPoint::MidCheckpoint),
        ops_per_client: 150,
        checkpoint_every: 24,
        fsync: FsyncPolicy::EveryN(4),
        ..RecoveryParams::default()
    });
}

#[test]
fn untruncated_log_skips_stale_records() {
    // Mid-truncate: the new checkpoint is durable but the log still has
    // records below it; recovery must skip the stale prefix.
    smoke(RecoveryParams {
        seed: 13,
        kill_point: Some(KillPoint::MidTruncate),
        ops_per_client: 150,
        checkpoint_every: 24,
        fsync: FsyncPolicy::Never,
        ..RecoveryParams::default()
    });
}

/// No reply before durable: workers post a whole batch to the WAL and
/// release its replies on the durable watermark, so whichever way the
/// writer dies, every `Ok` a client saw names a sequence inside the
/// recovered prefix — and that prefix still conserves the bank.
#[test]
fn no_reply_leaves_before_its_record_is_durable() {
    use rococo_server::{DurabilityConfig, Request, TxKv, TxKvConfig, TxKvError};
    use rococo_stm::{RococoConfig, RococoTm, TinyStm, TmConfig, TmSystem};
    use rococo_wal::KillSwitch;
    use std::collections::VecDeque;
    use std::sync::Arc;

    const KEYS: u64 = 16;
    const BALANCE: u64 = 1_000;
    const WINDOW: usize = 48;

    fn run<S: TmSystem + 'static>(point: KillPoint, make: fn(TmConfig) -> S) {
        let dir = rococo_wal::scratch_dir("no-early-reply");
        // The preload is 16 one-record batches; the switch fires a few
        // batches into the pipelined transfers.
        let kill = KillSwitch::arm(point, KEYS + 12);
        let cfg = TxKvConfig {
            shards: 1,
            workers_per_shard: 2,
            queue_capacity: 64,
            keys: KEYS,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                checkpoint_every: 0,
                kill: Some(Arc::clone(&kill)),
            }),
            ..TxKvConfig::default()
        };
        let tm = Arc::new(make(TmConfig {
            heap_words: cfg.heap_words(),
            max_threads: cfg.worker_threads(),
        }));
        let kv = TxKv::start(tm, cfg).expect("start the durable service");
        let mut acked: Vec<u64> = Vec::new();
        for key in 0..KEYS {
            let put = Request::Put {
                key,
                value: BALANCE,
            };
            let (_, seq) = kv.call_with_seq(put).expect("the preload is acked");
            acked.push(seq.expect("a put has a sequence"));
        }
        let mut lost = 0u64;
        let mut window = VecDeque::with_capacity(WINDOW);
        let mut settle = |reply: rococo_server::PendingReply| match reply.wait_with_seq() {
            Ok((_, seq)) => acked.extend(seq),
            Err(TxKvError::DurabilityLost) => lost += 1,
            Err(e) => panic!("unexpected reply: {e}"),
        };
        for i in 0..4_000u64 {
            if window.len() == WINDOW {
                settle(window.pop_front().expect("a full window"));
            }
            let transfer = Request::Transfer {
                from: i % KEYS,
                to: (i * 7 + 3) % KEYS,
                amount: 1 + i % 5,
            };
            match kv.submit(transfer) {
                Ok(reply) => window.push_back(reply),
                Err(TxKvError::Overloaded { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
        window.into_iter().for_each(&mut settle);
        kv.shutdown();
        assert!(kill.fired() && lost > 0, "{point:?} never fired");

        let recovered = rococo_wal::recover(&dir).expect("recover the directory");
        let seqs: Vec<u64> = recovered.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..recovered.next_seq).collect::<Vec<u64>>());
        for seq in &acked {
            assert!(
                *seq < recovered.next_seq,
                "{point:?}: sequence {seq} was acknowledged, the log ends at {}",
                recovered.next_seq
            );
        }
        let mut table = [0u64; KEYS as usize];
        for (key, value) in recovered.records.iter().flat_map(|r| r.writes.iter()) {
            table[*key as usize] = *value;
        }
        assert_eq!(table.iter().sum::<u64>(), KEYS * BALANCE, "{point:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    for point in [
        KillPoint::PreAppend,
        KillPoint::MidAppend,
        KillPoint::PostAppendPreAck,
    ] {
        run(point, TinyStm::with_config);
        run(point, |tm| {
            RococoTm::with_configs(RococoConfig {
                tm,
                ..RococoConfig::default()
            })
        });
    }
}
