//! An emulation of a best-effort hardware TM in the style of Intel TSX.
//!
//! The paper's HTM baseline (section 6.2) is Intel TSX with a constant
//! 4-retry policy and a global-lock fallback. TSX detects conflicts eagerly
//! at cache-line granularity through the coherence protocol and aborts on
//! capacity overflow of the transactional buffers; those are the behaviours
//! that produce the "avalanche of aborts" of Figure 10, and they are what
//! this emulation reproduces:
//!
//! * **Eager conflict detection on cache-line granules** — a remote access
//!   to a line inside a transaction's footprint dooms the conflicting
//!   transaction immediately (requester-wins, like an invalidating
//!   coherence request), so one abort cascades into chains.
//! * **Capacity aborts** — the write footprint is mapped onto an L1-like
//!   cache model (64 sets × 8 ways of 64-byte lines); overflowing a set
//!   aborts, as does exceeding the read-tracking capacity.
//! * **Retry policy** — a transaction retries at most
//!   [`HtmConfig::max_attempts`] times in hardware mode (5 attempts ⇒ the
//!   83.3 % abort-rate ceiling of footnote 10), then takes a global
//!   fallback lock which dooms every in-flight hardware transaction (lock
//!   subscription).

use crate::api::{Abort, AbortKind, TmConfig, TmStats, TmSystem, Transaction};
use crate::heap::{Addr, TmHeap, Word};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// HTM-specific tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// log2(words per cache line); 3 ⇒ 64-byte lines of 8 words.
    pub line_shift: u32,
    /// Cache sets in the write-capacity model.
    pub write_sets: usize,
    /// Associativity of the write-capacity model.
    pub write_ways: usize,
    /// Maximum distinct lines the read set may track.
    pub read_capacity: usize,
    /// Hardware attempts before falling back to the global lock
    /// (the paper's "4-time retry" = 5 attempts total).
    pub max_attempts: u32,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            line_shift: 3,
            write_sets: 64,
            write_ways: 8,
            read_capacity: 4096,
            max_attempts: 5,
        }
    }
}

#[derive(Debug)]
struct LineEntry {
    /// Bitmap of reader thread ids (hence at most 64 threads).
    readers: AtomicU64,
    /// Writer thread id + 1, or 0 when unclaimed.
    writer: AtomicU64,
}

/// The emulated best-effort HTM.
#[derive(Debug)]
pub struct TsxHtm {
    heap: Arc<TmHeap>,
    stats: TmStats,
    config: HtmConfig,
    lines: Vec<LineEntry>,
    doomed: Vec<AtomicBool>,
    committing: Vec<AtomicBool>,
    attempts: Vec<AtomicU32>,
    fallback_lock: Mutex<()>,
    fallback_active: AtomicBool,
    /// Dense durable sequence counter. Hardware commits fetch it after
    /// the final doom check (their point of no return, with every written
    /// line still claimed); fallback commits fetch it under the fallback
    /// lock, which has already doomed and drained all hardware
    /// transactions.
    durable_seq: AtomicU64,
}

impl TsxHtm {
    /// Creates an emulated HTM with default [`HtmConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `config.max_threads > 64` (the reader bitmap is a single
    /// word, like a snoop filter with 64 ports).
    pub fn with_config(config: TmConfig) -> Self {
        Self::with_configs(config, HtmConfig::default())
    }

    /// Creates an emulated HTM with explicit HTM tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_threads > 64`.
    pub fn with_configs(config: TmConfig, htm: HtmConfig) -> Self {
        let heap = Arc::new(TmHeap::new(config.heap_words));
        Self::with_shared_heap(config, htm, heap)
    }

    /// Creates an emulated HTM over a caller-provided heap. The hybrid
    /// scheduler uses this so the HTM fast path and the ROCoCoTM slow
    /// path operate on the same words (the coherence model still only
    /// sees HTM-side accesses — the hybrid's mode gate keeps the two
    /// engines from running concurrently).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_threads > 64`.
    pub fn with_shared_heap(config: TmConfig, htm: HtmConfig, heap: Arc<TmHeap>) -> Self {
        assert!(
            config.max_threads <= 64,
            "the HTM emulation supports at most 64 threads"
        );
        let n_lines = (heap.len() >> htm.line_shift) + 1;
        Self {
            heap,
            stats: TmStats::default(),
            config: htm,
            lines: (0..n_lines)
                .map(|_| LineEntry {
                    readers: AtomicU64::new(0),
                    writer: AtomicU64::new(0),
                })
                .collect(),
            doomed: (0..config.max_threads)
                .map(|_| AtomicBool::new(false))
                .collect(),
            committing: (0..config.max_threads)
                .map(|_| AtomicBool::new(false))
                .collect(),
            attempts: (0..config.max_threads).map(|_| AtomicU32::new(0)).collect(),
            fallback_lock: Mutex::new(()),
            fallback_active: AtomicBool::new(false),
            durable_seq: AtomicU64::new(0),
        }
    }

    fn line_of(&self, addr: Addr) -> usize {
        addr >> self.config.line_shift
    }
}

enum TxMode<'a> {
    /// A hardware transaction.
    Hw,
    /// Serialised under the fallback lock; the guard is held, not read.
    Fallback(#[allow(dead_code)] parking_lot::MutexGuard<'a, ()>),
}

/// A [`TsxHtm`] transaction.
pub struct HtmTx<'a> {
    tm: &'a TsxHtm,
    thread: usize,
    mode: TxMode<'a>,
    redo: HashMap<Addr, Word>,
    read_lines: HashSet<usize>,
    write_lines: HashSet<usize>,
    set_occupancy: Vec<u8>,
}

impl std::fmt::Debug for HtmTx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmTx")
            .field("thread", &self.thread)
            .field("reads", &self.read_lines.len())
            .field("writes", &self.write_lines.len())
            .finish()
    }
}

impl HtmTx<'_> {
    /// Releases all coherence claims this transaction holds.
    fn release_claims(&self) {
        let self_bit = 1u64 << self.thread;
        for &l in &self.read_lines {
            self.tm.lines[l]
                .readers
                .fetch_and(!self_bit, Ordering::SeqCst);
        }
        let self_id = self.thread as u64 + 1;
        for &l in &self.write_lines {
            let _ = self.tm.lines[l].writer.compare_exchange(
                self_id,
                0,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    /// Aborts this hardware transaction, bumping the retry counter.
    fn hw_abort(&self, kind: AbortKind) -> Abort {
        self.release_claims();
        self.tm.doomed[self.thread].store(false, Ordering::SeqCst);
        self.tm.attempts[self.thread].fetch_add(1, Ordering::SeqCst);
        Abort::new(kind)
    }

    /// Pre-operation checks shared by read/write/commit.
    fn precheck(&self) -> Result<(), Abort> {
        if self.tm.doomed[self.thread].load(Ordering::SeqCst) {
            return Err(self.hw_abort(AbortKind::Conflict));
        }
        if self.tm.fallback_active.load(Ordering::SeqCst) {
            // The subscribed fallback lock was taken: hardware transactions
            // abort immediately.
            return Err(self.hw_abort(AbortKind::FallbackLock));
        }
        Ok(())
    }

    /// Claims write ownership of a line, dooming conflicting transactions
    /// (requester wins) and waiting for committing owners to drain.
    fn claim_writer(&mut self, line: usize) -> Result<(), Abort> {
        let entry = &self.tm.lines[line];
        let self_id = self.thread as u64 + 1;

        loop {
            if self.tm.doomed[self.thread].load(Ordering::SeqCst) {
                return Err(self.hw_abort(AbortKind::Conflict));
            }
            let w = entry.writer.load(Ordering::SeqCst);
            if w == self_id {
                return Ok(());
            }
            if w == 0 {
                if entry
                    .writer
                    .compare_exchange(0, self_id, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.write_lines.insert(line);
                    // Doom all other readers: their cached copy is
                    // invalidated. Only now, with the claim published: a
                    // reader sets its bit and then looks at `writer`, so
                    // (SeqCst) either it is in this bitmap or it sees the
                    // claim. Scanning before the claim let a reader slip
                    // in between, read one word before our write-back and
                    // one after, and commit the torn snapshot undoomed.
                    let mut bits = entry.readers.load(Ordering::SeqCst) & !(1u64 << self.thread);
                    while bits != 0 {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.tm.doomed[t].store(true, Ordering::SeqCst);
                    }
                    return Ok(());
                }
                continue;
            }
            // Another writer holds the line. If it is mid-commit we wait
            // for the write-back to drain; otherwise we doom it. Either
            // way, wait for the claim to clear.
            let victim = (w - 1) as usize;
            if !self.tm.committing[victim].load(Ordering::SeqCst) {
                self.tm.doomed[victim].store(true, Ordering::SeqCst);
            }
            std::hint::spin_loop();
        }
    }
}

impl Transaction for HtmTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        if let TxMode::Fallback(_) = self.mode {
            return Ok(match self.redo.get(&addr) {
                Some(&v) => v,
                None => self.tm.heap.load_direct(addr),
            });
        }
        self.precheck()?;
        if let Some(&v) = self.redo.get(&addr) {
            return Ok(v);
        }
        let line = self.tm.line_of(addr);
        let entry = &self.tm.lines[line];

        // Register in the line's reader bitmap and handle a foreign writer:
        // a remote read of a transactionally written line aborts the writer
        // (its M-state line is stolen).
        if self.read_lines.insert(line) {
            if self.read_lines.len() > self.tm.config.read_capacity {
                return Err(self.hw_abort(AbortKind::Capacity));
            }
            entry
                .readers
                .fetch_or(1u64 << self.thread, Ordering::SeqCst);
        }
        loop {
            let w = entry.writer.load(Ordering::SeqCst);
            if w == 0 || w == self.thread as u64 + 1 {
                break;
            }
            let victim = (w - 1) as usize;
            if !self.tm.committing[victim].load(Ordering::SeqCst) {
                self.tm.doomed[victim].store(true, Ordering::SeqCst);
            }
            if self.tm.doomed[self.thread].load(Ordering::SeqCst) {
                return Err(self.hw_abort(AbortKind::Conflict));
            }
            std::hint::spin_loop();
        }
        Ok(self.tm.heap.load_direct(addr))
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        if let TxMode::Fallback(_) = self.mode {
            self.redo.insert(addr, val);
            return Ok(());
        }
        self.precheck()?;
        let line = self.tm.line_of(addr);
        if !self.write_lines.contains(&line) {
            // Capacity model: distinct write lines map to L1 sets.
            let set = line % self.tm.config.write_sets;
            if usize::from(self.set_occupancy[set]) >= self.tm.config.write_ways {
                return Err(self.hw_abort(AbortKind::Capacity));
            }
            self.claim_writer(line)?;
            self.set_occupancy[set] += 1;
        }
        self.redo.insert(addr, val);
        Ok(())
    }

    fn commit_seq(self) -> Result<Option<u64>, Abort> {
        match &self.mode {
            TxMode::Fallback(_) => {
                // The fallback lock serialises against every other commit,
                // so any fetch point inside it preserves sequence order.
                let seq = if self.redo.is_empty() {
                    None
                } else {
                    Some(self.tm.durable_seq.fetch_add(1, Ordering::SeqCst))
                };
                for (&a, &v) in &self.redo {
                    self.tm.heap.store_direct(a, v);
                }
                self.tm.attempts[self.thread].store(0, Ordering::SeqCst);
                self.tm.fallback_active.store(false, Ordering::SeqCst);
                self.tm
                    .stats
                    .fallback_commits
                    .fetch_add(1, Ordering::Relaxed);
                Ok(seq)
            }
            TxMode::Hw => {
                if self.tm.fallback_active.load(Ordering::SeqCst) {
                    return Err(self.hw_abort(AbortKind::FallbackLock));
                }
                // Point of no return: announce the write-back, then take
                // the final doom check.
                self.tm.committing[self.thread].store(true, Ordering::SeqCst);
                if self.tm.doomed[self.thread].load(Ordering::SeqCst) {
                    self.tm.committing[self.thread].store(false, Ordering::SeqCst);
                    return Err(self.hw_abort(AbortKind::Conflict));
                }
                // Past the doom check we cannot abort, and every written
                // line is still claimed: nobody who depends on our writes
                // can commit before we release, so the sequence respects
                // read-from and write-write order.
                let seq = if self.redo.is_empty() {
                    None
                } else {
                    Some(self.tm.durable_seq.fetch_add(1, Ordering::SeqCst))
                };
                for (&a, &v) in &self.redo {
                    self.tm.heap.store_direct(a, v);
                }
                self.release_claims();
                self.tm.committing[self.thread].store(false, Ordering::SeqCst);
                self.tm.doomed[self.thread].store(false, Ordering::SeqCst);
                self.tm.attempts[self.thread].store(0, Ordering::SeqCst);
                if self.redo.is_empty() {
                    self.tm
                        .stats
                        .read_only_commits
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(seq)
            }
        }
    }
}

impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        // A transaction dropped without commit (closure abort / panic)
        // must release its coherence claims.
        if matches!(self.mode, TxMode::Hw) {
            self.release_claims();
            self.tm.doomed[self.thread].store(false, Ordering::SeqCst);
        } else {
            self.tm.fallback_active.store(false, Ordering::SeqCst);
        }
        self.read_lines.clear();
        self.write_lines.clear();
    }
}

impl TmSystem for TsxHtm {
    type Tx<'a> = HtmTx<'a>;

    fn name(&self) -> &'static str {
        "TSX-HTM"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn begin(&self, thread_id: usize) -> HtmTx<'_> {
        assert!(thread_id < self.doomed.len(), "thread id out of range");
        let mode = if self.attempts[thread_id].load(Ordering::SeqCst) >= self.config.max_attempts {
            // Too many hardware failures: take the fallback lock. Taking it
            // dooms every in-flight hardware transaction (they subscribed
            // the lock) and waits for committers to drain.
            let guard = self.fallback_lock.lock();
            self.fallback_active.store(true, Ordering::SeqCst);
            for d in &self.doomed {
                d.store(true, Ordering::SeqCst);
            }
            self.doomed[thread_id].store(false, Ordering::SeqCst);
            while self.committing.iter().any(|c| c.load(Ordering::SeqCst)) {
                // Guard held across this spin, on purpose: the fallback lock MUST be held while committers drain (they subscribed it to self-doom); committers never take this lock, so the spin is bounded
                std::hint::spin_loop();
            }
            TxMode::Fallback(guard)
        } else {
            self.doomed[thread_id].store(false, Ordering::SeqCst);
            TxMode::Hw
        };
        HtmTx {
            tm: self,
            thread: thread_id,
            mode,
            redo: HashMap::new(),
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            set_occupancy: vec![0; self.config.write_sets],
        }
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::atomically;
    use std::sync::Arc;

    fn tm(words: usize, threads: usize) -> TsxHtm {
        TsxHtm::with_config(TmConfig {
            heap_words: words,
            max_threads: threads,
        })
    }

    #[test]
    fn single_thread_semantics() {
        let tm = tm(256, 1);
        atomically(&tm, 0, |tx| {
            tx.write(0, 11)?;
            let v = tx.read(0)?;
            tx.write(8, v + 1)
        });
        assert_eq!(tm.heap().load_direct(0), 11);
        assert_eq!(tm.heap().load_direct(8), 12);
    }

    #[test]
    fn capacity_abort_on_large_write_set() {
        // Writing more than write_sets * write_ways distinct lines must
        // eventually fall back (capacity aborts exhaust the retries).
        let tm = TsxHtm::with_configs(
            TmConfig {
                heap_words: 1 << 16,
                max_threads: 1,
            },
            HtmConfig {
                write_sets: 4,
                write_ways: 2,
                ..HtmConfig::default()
            },
        );
        atomically(&tm, 0, |tx| {
            for i in 0..64usize {
                tx.write(i * 8, i as u64)?; // 64 distinct lines >> 8 capacity
            }
            Ok(())
        });
        let snap = tm.stats().snapshot();
        assert!(snap.aborts[AbortKind::Capacity.index()] >= 5, "{snap:?}");
        assert_eq!(snap.fallback_commits, 1);
        assert_eq!(tm.heap().load_direct(8), 1);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let tm = Arc::new(tm(1 << 12, 8));
        let mut joins = Vec::new();
        for t in 0..8usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    atomically(&*tm, t, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(tm.heap().load_direct(0), 8000);
    }

    #[test]
    fn contention_produces_eager_aborts() {
        let tm = Arc::new(tm(1 << 12, 8));
        let mut joins = Vec::new();
        for t in 0..8usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    atomically(&*tm, t, |tx| {
                        // All threads fight over the same few lines; the
                        // yield forces interleaving even on a single-core
                        // host so eager conflicts actually occur.
                        let v = tx.read((i % 4) as usize * 8)?;
                        std::thread::yield_now();
                        tx.write(((i + 1) % 4) as usize * 8, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = tm.stats().snapshot();
        assert!(
            snap.total_aborts() > 0,
            "contended HTM should abort eagerly: {snap:?}"
        );
    }

    #[test]
    fn disjoint_threads_mostly_commit_in_hardware() {
        let tm = Arc::new(tm(1 << 14, 4));
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let base = t * 2048;
                for i in 0..500usize {
                    atomically(&*tm, t, |tx| {
                        let v = tx.read(base + (i % 64) * 8)?;
                        tx.write(base + (i % 64) * 8, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = tm.stats().snapshot();
        assert_eq!(snap.commits, 2000);
        assert!(
            snap.fallback_commits < 100,
            "disjoint work should rarely fall back: {snap:?}"
        );
    }

    #[test]
    fn durable_seqs_are_dense_and_ordered_with_values() {
        // As for TinySTM: on a contended counter, seqs must form a dense
        // range whose order matches the value order — across both the
        // hardware and fallback commit paths.
        use crate::api::try_atomically_seq;
        use parking_lot::Mutex;
        let tm = Arc::new(tm(1 << 12, 4));
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            let seen = seen.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    loop {
                        let res = try_atomically_seq(&*tm, t, &mut |tx: &mut HtmTx<'_>| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)?;
                            Ok(v + 1)
                        });
                        if let Ok((new_val, seq)) = res {
                            seen.lock().push((seq.expect("update commit"), new_val));
                            break;
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut seen = Arc::try_unwrap(seen).unwrap().into_inner();
        seen.sort_unstable();
        assert_eq!(seen.len(), 2000);
        for (i, &(seq, val)) in seen.iter().enumerate() {
            assert_eq!(seq, i as u64, "dense sequence");
            assert_eq!(val, i as u64 + 1, "seq order == serialization order");
        }
    }

    #[test]
    fn bank_invariant_under_htm() {
        let tm = Arc::new(tm(1 << 12, 4));
        let accounts = 8usize;
        for a in 0..accounts {
            tm.heap().store_direct(a * 8, 1000);
        }
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let mut x = (t as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                for _ in 0..2000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize >> 3) % accounts;
                    let to = (x as usize >> 11) % accounts;
                    if from == to {
                        continue;
                    }
                    atomically(&*tm, t, |tx| {
                        let f = tx.read(from * 8)?;
                        let g = tx.read(to * 8)?;
                        if f >= 10 {
                            tx.write(from * 8, f - 10)?;
                            tx.write(to * 8, g + 10)?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = (0..accounts).map(|a| tm.heap().load_direct(a * 8)).sum();
        assert_eq!(total, 8000);
    }
}
