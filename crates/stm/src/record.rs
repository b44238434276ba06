//! A recording TM wrapper: captures every committed transaction's
//! footprint and measured execution time.
//!
//! [`Recorder`] wraps any [`TmSystem`] and logs a [`TxnRecord`] per commit.
//! The virtual-time multicore simulator (`rococo-sim`) replays these
//! records to study scaling on hardware the build host does not have.
//!
//! Records carry the *phase epoch* — bumped by [`TmSystem::mark_phase`],
//! which the STAMP harness calls at parallel-phase boundaries — so that
//! sequential setup work can be separated from the timed parallel region.

use crate::api::{Abort, TmConfig, TmStats, TmSystem, Transaction};
use crate::heap::{Addr, TmHeap, Word};
use crate::seq::SeqTm;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One committed transaction's footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnRecord {
    /// Deduplicated read set (addresses, excluding read-own-write hits).
    pub reads: Vec<u64>,
    /// Deduplicated write set.
    pub writes: Vec<u64>,
    /// Measured wall time from begin to successful commit, nanoseconds.
    pub exec_ns: f64,
    /// Phase epoch at commit time (odd = inside a marked parallel phase).
    pub epoch: u64,
}

impl TxnRecord {
    /// Whether the transaction wrote nothing.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

/// A [`TmSystem`] wrapper that records committed transactions.
#[derive(Debug)]
pub struct Recorder<S> {
    inner: S,
    log: Mutex<Vec<TxnRecord>>,
    epoch: AtomicU64,
}

impl<S: TmSystem> Recorder<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            log: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// Consumes the recorder, returning the log.
    pub fn into_log(self) -> Vec<TxnRecord> {
        self.log.into_inner()
    }

    /// A copy of the log so far.
    pub fn log(&self) -> Vec<TxnRecord> {
        self.log.lock().clone()
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// Convenience constructor: a recorder over a sequential runtime — the
/// standard way to extract a workload for the simulator.
pub fn recording_seq(config: TmConfig) -> Recorder<SeqTm> {
    Recorder::new(SeqTm::with_config(config))
}

/// A recording transaction.
pub struct RecordTx<'a, S: TmSystem + 'a> {
    inner: S::Tx<'a>,
    log: &'a Mutex<Vec<TxnRecord>>,
    epoch: &'a AtomicU64,
    reads: Vec<u64>,
    writes: Vec<u64>,
    started: Instant,
}

impl<'a, S: TmSystem> std::fmt::Debug for RecordTx<'a, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordTx")
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .finish()
    }
}

impl<'a, S: TmSystem> Transaction for RecordTx<'a, S> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        let v = self.inner.read(addr)?;
        let a = addr as u64;
        if !self.writes.contains(&a) && !self.reads.contains(&a) {
            self.reads.push(a);
        }
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.inner.write(addr, val)?;
        let a = addr as u64;
        if !self.writes.contains(&a) {
            self.writes.push(a);
        }
        Ok(())
    }

    fn commit_seq(self) -> Result<Option<u64>, Abort> {
        let exec_ns = self.started.elapsed().as_nanos() as f64;
        let seq = self.inner.commit_seq()?;
        self.log.lock().push(TxnRecord {
            reads: self.reads,
            writes: self.writes,
            exec_ns,
            epoch: self.epoch.load(Ordering::Relaxed),
        });
        Ok(seq)
    }
}

impl<S: TmSystem> TmSystem for Recorder<S> {
    type Tx<'a>
        = RecordTx<'a, S>
    where
        S: 'a;

    fn name(&self) -> &'static str {
        "Recorder"
    }

    fn heap(&self) -> &TmHeap {
        self.inner.heap()
    }

    fn begin(&self, thread_id: usize) -> RecordTx<'_, S> {
        RecordTx {
            inner: self.inner.begin(thread_id),
            log: &self.log,
            epoch: &self.epoch,
            reads: Vec::new(),
            writes: Vec::new(),
            started: Instant::now(),
        }
    }

    fn stats(&self) -> &TmStats {
        self.inner.stats()
    }

    fn mark_phase(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn injected_faults(&self) -> Option<rococo_fpga::FaultSnapshot> {
        self.inner.injected_faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::atomically;

    #[test]
    fn records_committed_footprints() {
        let rec = recording_seq(TmConfig {
            heap_words: 64,
            max_threads: 1,
        });
        atomically(&rec, 0, |tx| {
            let v = tx.read(1)?;
            tx.write(2, v + 1)?;
            tx.write(2, v + 2) // duplicate write: dedup
        });
        let log = rec.into_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].reads, vec![1]);
        assert_eq!(log[0].writes, vec![2]);
        assert!(log[0].exec_ns >= 0.0);
        assert_eq!(log[0].epoch, 0);
    }

    #[test]
    fn aborted_attempts_are_not_recorded() {
        let rec = recording_seq(TmConfig {
            heap_words: 64,
            max_threads: 1,
        });
        let mut first = true;
        atomically(&rec, 0, |tx| {
            tx.write(0, 1)?;
            if first {
                first = false;
                return Err(Abort::new(crate::api::AbortKind::Explicit));
            }
            Ok(())
        });
        assert_eq!(rec.log().len(), 1, "only the committed attempt is logged");
    }

    #[test]
    fn phase_epochs_tag_records() {
        let rec = recording_seq(TmConfig {
            heap_words: 64,
            max_threads: 1,
        });
        atomically(&rec, 0, |tx| tx.write(0, 1));
        rec.mark_phase();
        atomically(&rec, 0, |tx| tx.write(1, 1));
        rec.mark_phase();
        atomically(&rec, 0, |tx| tx.write(2, 1));
        let log = rec.into_log();
        assert_eq!(
            log.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn read_own_write_not_in_read_set() {
        let rec = recording_seq(TmConfig {
            heap_words: 64,
            max_threads: 1,
        });
        atomically(&rec, 0, |tx| {
            tx.write(5, 9)?;
            let v = tx.read(5)?;
            assert_eq!(v, 9);
            Ok(())
        });
        let log = rec.into_log();
        assert!(log[0].reads.is_empty());
        assert_eq!(log[0].writes, vec![5]);
    }

    /// A recorded ROCoCoTM commit is logged by its `commit_seq`, which
    /// validates and publishes before it returns: not before, and with the
    /// sequence the engine granted.
    #[test]
    fn a_recorded_commit_is_logged_when_its_commit_returns() {
        let rococo = Recorder::new(crate::RococoTm::with_config(TmConfig {
            heap_words: 64,
            max_threads: 1,
        }));
        let addr = rococo.heap().alloc(1);
        let mut tx = rococo.begin(0);
        tx.write(addr, 1).unwrap();
        assert!(rococo.log().is_empty(), "logged before the commit");
        assert_eq!(tx.commit_seq(), Ok(Some(0)));
        assert_eq!(rococo.log().len(), 1);
        assert_eq!(rococo.heap().load_direct(addr), 1, "published");
    }
}
