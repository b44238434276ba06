//! The recording TM wrapper: one record per transaction attempt.
//!
//! [`Recorder`] wraps any [`TmSystem`] and logs one [`TxnHistory`] per
//! transaction *attempt*, committed or aborted: the externally-read
//! `(addr, value)` pairs (reads satisfied from the attempt's own write set
//! are excluded — their values say nothing about the shared heap), the
//! final write set, invocation/response stamps drawn from one global
//! counter, the measured execution time and the phase epoch. Two readers
//! use the log:
//!
//! * `rococo_stamp::harness::record_workload` turns the committed records
//!   into [`TxnRecord`] footprints, which the virtual-time multicore
//!   simulator (`rococo-sim`) replays to study scaling on hardware the
//!   build host does not have (only `rococo-bench`'s `calibrate` reads
//!   the measured times, to fit the per-app cost table the replay prices
//!   footprints with);
//! * the chaos harness (`rococo-chaos`) judges every attempt with its
//!   serializability oracle.
//!
//! The stamps are conservative real-time bounds: the invocation stamp is
//! taken *before* the inner `begin` and the response stamp *after* the
//! inner `commit` returns, so `resp(T1) < inv(T2)` implies T1's commit
//! fully preceded T2's snapshot. The oracle uses exactly this implication
//! for its optional strict-serializability edges.
//!
//! The phase epoch is bumped by [`TmSystem::mark_phase`], which the STAMP
//! harness calls at parallel-phase boundaries, so that sequential setup
//! work can be separated from the timed parallel region.
//!
//! Logs are per-thread `Mutex<Vec<_>>`s — each is only ever contended by
//! its own worker until the run ends, so recording does not serialize the
//! schedule under test the way a single global log would.

use crate::api::{Abort, AbortKind, TmStats, TmSystem, Transaction};
use crate::heap::{Addr, TmHeap, Word};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One committed transaction's footprint, as the simulator replays it:
/// counts and addresses only, no time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnRecord {
    /// Deduplicated read set (addresses, excluding read-own-write hits).
    pub reads: Vec<u64>,
    /// Deduplicated write set.
    pub writes: Vec<u64>,
    /// Phase epoch at commit time (odd = inside a marked parallel phase).
    pub epoch: u64,
}

impl TxnRecord {
    /// Whether the transaction wrote nothing.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

impl From<&TxnHistory> for TxnRecord {
    /// The attempt's footprint: reads deduplicated in first-access order,
    /// the write set as recorded (already one entry per address).
    fn from(h: &TxnHistory) -> Self {
        let mut reads = Vec::new();
        for &(addr, _) in &h.reads {
            if !reads.contains(&(addr as u64)) {
                reads.push(addr as u64);
            }
        }
        Self {
            reads,
            writes: h.writes.iter().map(|&(addr, _)| addr as u64).collect(),
            epoch: h.epoch,
        }
    }
}

/// How a transaction attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The attempt committed; its write set took effect atomically.
    Committed,
    /// The attempt aborted with the given kind; its writes were discarded.
    Aborted(AbortKind),
}

impl Outcome {
    /// Whether this attempt committed.
    pub fn committed(self) -> bool {
        matches!(self, Outcome::Committed)
    }
}

/// One recorded transaction attempt.
#[derive(Debug, Clone)]
pub struct TxnHistory {
    /// Worker thread id.
    pub thread: usize,
    /// Global stamp taken before the attempt began.
    pub inv: u64,
    /// Global stamp taken after the attempt ended (commit returned or the
    /// aborting operation observed the abort).
    pub resp: u64,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Externally-read `(addr, value)` pairs in program order. Reads that
    /// hit the attempt's own pending writes are not recorded.
    pub reads: Vec<(Addr, Word)>,
    /// Final write set, one entry per address (last value wins), in
    /// first-write order.
    pub writes: Vec<(Addr, Word)>,
    /// Wall time from the return of the inner `begin` to the `commit_seq`
    /// call, nanoseconds; for an attempt that aborted before committing,
    /// to the abort.
    pub exec_ns: f64,
    /// Phase epoch when the attempt ended (odd = inside a marked parallel
    /// phase).
    pub epoch: u64,
}

/// A [`TmSystem`] wrapper that records every transaction attempt.
#[derive(Debug)]
pub struct Recorder<S> {
    inner: S,
    clock: AtomicU64,
    epoch: AtomicU64,
    logs: Vec<Mutex<Vec<TxnHistory>>>,
}

impl<S: TmSystem> Recorder<S> {
    /// Wraps `inner`, pre-allocating one log per worker thread.
    pub fn new(inner: S, threads: usize) -> Self {
        Self {
            inner,
            clock: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            logs: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Drains all per-thread logs into one vector (stable order: by thread,
    /// then program order). Call after the workers have joined.
    pub fn take_histories(&self) -> Vec<TxnHistory> {
        let mut all = Vec::new();
        for log in &self.logs {
            all.append(&mut log.lock());
        }
        all
    }
}

/// A recording transaction; see [`Recorder`].
pub struct RecordTx<'a, S: TmSystem + 'a> {
    // `None` once the attempt is settled (committed or aborted).
    inner: Option<S::Tx<'a>>,
    rec: &'a Recorder<S>,
    thread: usize,
    inv: u64,
    started: Instant,
    reads: Vec<(Addr, Word)>,
    writes: Vec<(Addr, Word)>,
}

impl<'a, S: TmSystem + 'a> RecordTx<'a, S> {
    fn tx(&mut self) -> &mut S::Tx<'a> {
        self.inner.as_mut().expect("attempt already settled")
    }

    fn elapsed_ns(&self) -> f64 {
        self.started.elapsed().as_nanos() as f64
    }

    fn settle(&mut self, outcome: Outcome, exec_ns: f64) {
        self.inner = None;
        let resp = self.rec.clock.fetch_add(1, Ordering::SeqCst);
        self.rec.logs[self.thread].lock().push(TxnHistory {
            thread: self.thread,
            inv: self.inv,
            resp,
            outcome,
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
            exec_ns,
            epoch: self.rec.epoch.load(Ordering::Relaxed),
        });
    }

    fn abort<T>(&mut self, abort: Abort) -> Result<T, Abort> {
        self.settle(Outcome::Aborted(abort.kind), self.elapsed_ns());
        Err(abort)
    }
}

impl<'a, S: TmSystem + 'a> Transaction for RecordTx<'a, S> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        match self.tx().read(addr) {
            Ok(v) => {
                // A read satisfied by our own pending write reflects the
                // redo log, not the shared heap: skip it.
                if !self.writes.iter().any(|&(a, _)| a == addr) {
                    self.reads.push((addr, v));
                }
                Ok(v)
            }
            Err(abort) => self.abort(abort),
        }
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        match self.tx().write(addr, val) {
            Ok(()) => {
                if let Some(slot) = self.writes.iter_mut().find(|(a, _)| *a == addr) {
                    slot.1 = val;
                } else {
                    self.writes.push((addr, val));
                }
                Ok(())
            }
            Err(abort) => self.abort(abort),
        }
    }

    fn commit_seq(mut self) -> Result<Option<u64>, Abort> {
        let exec_ns = self.elapsed_ns();
        let tx = self.inner.take().expect("attempt already settled");
        let (outcome, result) = match tx.commit_seq() {
            Ok(seq) => (Outcome::Committed, Ok(seq)),
            Err(abort) => (Outcome::Aborted(abort.kind), Err(abort)),
        };
        self.settle(outcome, exec_ns);
        result
    }
}

impl<'a, S: TmSystem + 'a> Drop for RecordTx<'a, S> {
    fn drop(&mut self) {
        // A transaction dropped without commit and without an operation
        // observing an abort (e.g. the closure returned an explicit retry)
        // still counts as an aborted attempt.
        if self.inner.is_some() {
            self.settle(Outcome::Aborted(AbortKind::Explicit), self.elapsed_ns());
        }
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
        let inv = self.clock.fetch_add(1, Ordering::SeqCst);
        RecordTx {
            inner: Some(self.inner.begin(thread_id)),
            rec: self,
            thread: thread_id,
            inv,
            started: Instant::now(),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn stats(&self) -> &TmStats {
        self.inner.stats()
    }

    fn mark_phase(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::atomically;
    use crate::{SeqTm, TmConfig};

    fn recorder(threads: usize) -> Recorder<SeqTm> {
        Recorder::new(
            SeqTm::with_config(TmConfig {
                heap_words: 64,
                max_threads: threads,
            }),
            threads,
        )
    }

    #[test]
    fn records_external_reads_and_final_writes() {
        let rec = recorder(2);
        rec.heap().store_direct(1, 10);
        atomically(&rec, 0, |tx| {
            let v = tx.read(1)?;
            tx.write(2, v + 1)?;
            tx.write(2, v + 2)?; // overwrite: one entry, last value
            let _own = tx.read(2)?; // own-write read: not recorded
            tx.write(3, 0)
        });
        let h = rec.take_histories();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].outcome, Outcome::Committed);
        assert_eq!(h[0].reads, vec![(1, 10)]);
        assert_eq!(h[0].writes, vec![(2, 12), (3, 0)]);
        assert!(h[0].inv < h[0].resp);
        assert!(h[0].exec_ns >= 0.0);
        assert_eq!(h[0].epoch, 0);
    }

    #[test]
    fn stamps_are_globally_unique_and_ordered() {
        let rec = recorder(2);
        atomically(&rec, 0, |tx| tx.write(0, 1));
        atomically(&rec, 1, |tx| tx.write(0, 2));
        let h = rec.take_histories();
        assert_eq!(h.len(), 2);
        let mut stamps: Vec<u64> = h.iter().flat_map(|t| [t.inv, t.resp]).collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4, "stamps must be unique");
        // Sequential execution: first txn's resp precedes second's inv.
        assert!(h[0].resp < h[1].inv);
    }

    #[test]
    fn an_aborted_attempt_is_recorded_with_its_outcome() {
        let rec = recorder(1);
        let mut first = true;
        atomically(&rec, 0, |tx| {
            tx.write(0, 1)?;
            if first {
                first = false;
                return Err(Abort::new(AbortKind::Explicit));
            }
            Ok(())
        });
        let outcomes: Vec<Outcome> = rec.take_histories().iter().map(|h| h.outcome).collect();
        assert_eq!(
            outcomes,
            vec![Outcome::Aborted(AbortKind::Explicit), Outcome::Committed]
        );
    }

    #[test]
    fn phase_epochs_tag_records() {
        let rec = recorder(1);
        atomically(&rec, 0, |tx| tx.write(0, 1));
        rec.mark_phase();
        atomically(&rec, 0, |tx| tx.write(1, 1));
        rec.mark_phase();
        atomically(&rec, 0, |tx| tx.write(2, 1));
        let epochs: Vec<u64> = rec.take_histories().iter().map(|h| h.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
    }

    /// A recorded ROCoCoTM commit is logged by its `commit_seq`, which
    /// validates and publishes before it returns: not before, and with the
    /// sequence the engine granted.
    #[test]
    fn a_recorded_commit_is_logged_when_its_commit_returns() {
        let rococo = Recorder::new(
            crate::RococoTm::with_config(TmConfig {
                heap_words: 64,
                max_threads: 1,
            }),
            1,
        );
        let addr = rococo.heap().alloc(1);
        let mut tx = rococo.begin(0);
        tx.write(addr, 1).unwrap();
        assert!(
            rococo.take_histories().is_empty(),
            "logged before the commit"
        );
        assert_eq!(tx.commit_seq(), Ok(Some(0)));
        assert_eq!(rococo.take_histories().len(), 1);
        assert_eq!(rococo.heap().load_direct(addr), 1, "published");
    }
}
