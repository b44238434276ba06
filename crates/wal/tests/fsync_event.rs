//! `TxEvent::WalFsync { records }` says how many records *that* fsync
//! made durable — not a running total. One test in a process of its own:
//! the flight recorder is process-wide.

use rococo_telemetry::TxEvent;
use rococo_wal::{scratch_dir, FsyncPolicy, Wal, WalConfig};

fn fsync_records(policy: FsyncPolicy, drive: impl FnOnce(&Wal)) -> Vec<u64> {
    let dir = scratch_dir("fsync-event");
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = policy;
    rococo_telemetry::enable(1024);
    let (wal, _) = Wal::open(cfg).unwrap();
    drive(&wal);
    wal.shutdown(); // the fsyncs ran on this thread: its lane holds them
    let events = rococo_telemetry::drain_events();
    rococo_telemetry::disable();
    let _ = std::fs::remove_dir_all(dir);
    events
        .iter()
        .filter_map(|e| match e.event {
            TxEvent::WalFsync { records, .. } => Some(records),
            _ => None,
        })
        .collect()
}

#[test]
fn an_fsync_event_counts_the_records_it_covers() {
    // One record per batch, one fsync per three batches: three each — the
    // parent emitted the running total before the batch (2, 5, 8).
    let every3 = fsync_records(FsyncPolicy::EveryN(3), |wal| {
        for seq in 0..9 {
            wal.append(seq, vec![(seq, seq)]).unwrap();
        }
    });
    assert_eq!(every3, vec![3, 3, 3]);

    // One batch of five (nothing is dense until sequence 0 arrives), one
    // fsync: five — the parent said 0.
    let always = fsync_records(FsyncPolicy::Always, |wal| {
        for seq in (0..5).rev() {
            wal.post(seq, &[(seq, seq)]).unwrap();
        }
        wal.wait_durable(4).unwrap();
    });
    assert_eq!(always, vec![5]);
}
