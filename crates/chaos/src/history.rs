//! Transaction-history recording.
//!
//! [`ChaosRecorder`] wraps any [`TmSystem`] and logs one [`TxnHistory`]
//! per transaction *attempt*: the externally-read `(addr, value)` pairs
//! (reads satisfied from the attempt's own write set are excluded — their
//! values say nothing about the shared heap), the final write set, and
//! invocation/response stamps drawn from one global atomic counter.
//!
//! The stamps are conservative real-time bounds: the invocation stamp is
//! taken *before* the inner `begin` and the response stamp *after* the
//! inner `commit` returns, so `resp(T1) < inv(T2)` implies T1's commit
//! fully preceded T2's snapshot. The oracle uses exactly this implication
//! for its optional strict-serializability edges.
//!
//! Logs are per-thread `Mutex<Vec<_>>`s — each is only ever contended by
//! its own worker until the run ends, so recording does not serialize the
//! schedule under test the way a single global log would.

use parking_lot::Mutex;
use rococo_stm::{Abort, AbortKind, Addr, TmHeap, TmStats, TmSystem, Transaction, Word};
use std::sync::atomic::{AtomicU64, Ordering};

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
}

/// A [`TmSystem`] wrapper that records every transaction attempt.
#[derive(Debug)]
pub struct ChaosRecorder<S> {
    inner: S,
    clock: AtomicU64,
    logs: Vec<Mutex<Vec<TxnHistory>>>,
}

impl<S: TmSystem> ChaosRecorder<S> {
    /// Wraps `inner`, pre-allocating one log per worker thread.
    pub fn new(inner: S, threads: usize) -> Self {
        Self {
            inner,
            clock: AtomicU64::new(0),
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

/// A recording transaction; see [`ChaosRecorder`].
pub struct ChaosTx<'a, S: TmSystem + 'a> {
    // `Option` so `commit` can move the inner transaction out.
    inner: Option<S::Tx<'a>>,
    log: &'a Mutex<Vec<TxnHistory>>,
    clock: &'a AtomicU64,
    thread: usize,
    inv: u64,
    reads: Vec<(Addr, Word)>,
    writes: Vec<(Addr, Word)>,
    settled: bool,
}

impl<'a, S: TmSystem + 'a> ChaosTx<'a, S> {
    fn record(&mut self, outcome: Outcome) {
        self.settled = true;
        let resp = self.clock.fetch_add(1, Ordering::SeqCst);
        self.log.lock().push(TxnHistory {
            thread: self.thread,
            inv: self.inv,
            resp,
            outcome,
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
        });
    }
}

impl<'a, S: TmSystem + 'a> Transaction for ChaosTx<'a, S> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        match self
            .inner
            .as_mut()
            .expect("attempt already settled")
            .read(addr)
        {
            Ok(v) => {
                // A read satisfied by our own pending write reflects the
                // redo log, not the shared heap: skip it.
                if !self.writes.iter().any(|&(a, _)| a == addr) {
                    self.reads.push((addr, v));
                }
                Ok(v)
            }
            Err(abort) => {
                self.record(Outcome::Aborted(abort.kind));
                Err(abort)
            }
        }
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        match self
            .inner
            .as_mut()
            .expect("attempt already settled")
            .write(addr, val)
        {
            Ok(()) => {
                if let Some(slot) = self.writes.iter_mut().find(|(a, _)| *a == addr) {
                    slot.1 = val;
                } else {
                    self.writes.push((addr, val));
                }
                Ok(())
            }
            Err(abort) => {
                self.record(Outcome::Aborted(abort.kind));
                Err(abort)
            }
        }
    }

    fn commit_seq(mut self) -> Result<Option<u64>, Abort> {
        match self
            .inner
            .take()
            .expect("attempt already settled")
            .commit_seq()
        {
            Ok(seq) => {
                self.record(Outcome::Committed);
                Ok(seq)
            }
            Err(abort) => {
                self.record(Outcome::Aborted(abort.kind));
                Err(abort)
            }
        }
    }
}

impl<'a, S: TmSystem + 'a> Drop for ChaosTx<'a, S> {
    fn drop(&mut self) {
        // A transaction dropped without commit and without an operation
        // observing an abort (e.g. the closure returned an explicit retry)
        // still counts as an aborted attempt.
        if !self.settled {
            self.record(Outcome::Aborted(AbortKind::Explicit));
        }
    }
}

impl<S: TmSystem> TmSystem for ChaosRecorder<S> {
    type Tx<'a>
        = ChaosTx<'a, S>
    where
        S: 'a;

    fn name(&self) -> &'static str {
        "ChaosRecorder"
    }

    fn heap(&self) -> &TmHeap {
        self.inner.heap()
    }

    fn begin(&self, thread_id: usize) -> ChaosTx<'_, S> {
        let inv = self.clock.fetch_add(1, Ordering::SeqCst);
        ChaosTx {
            inner: Some(self.inner.begin(thread_id)),
            log: &self.logs[thread_id],
            clock: &self.clock,
            thread: thread_id,
            inv,
            reads: Vec::new(),
            writes: Vec::new(),
            settled: false,
        }
    }

    fn stats(&self) -> &TmStats {
        self.inner.stats()
    }

    fn injected_faults(&self) -> Option<rococo_fpga::FaultSnapshot> {
        self.inner.injected_faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{atomically, SeqTm, TmConfig};

    fn recorder() -> ChaosRecorder<SeqTm> {
        ChaosRecorder::new(
            SeqTm::with_config(TmConfig {
                heap_words: 64,
                max_threads: 2,
            }),
            2,
        )
    }

    #[test]
    fn records_external_reads_and_final_writes() {
        let rec = recorder();
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
    }

    #[test]
    fn stamps_are_globally_unique_and_ordered() {
        let rec = recorder();
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
}
