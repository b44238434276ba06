//! A TinySTM-style word-based STM: Lazy Snapshot Algorithm with commit-time
//! locking and write-back.
//!
//! This is the paper's STM baseline configuration (section 6.2): TinySTM
//! v1.0.4 with "commit-time locking (lazy conflict detection) with
//! write-back of tentative states on commit (lazy version management)".
//! The algorithm is the classic LSA [Felber, Fetzer, Marlier, Riegel,
//! TPDS'10]: a global version clock, one versioned lock word per heap word,
//! snapshot extension on read, and commit-time lock–validate–write-back.

use crate::api::{
    Abort, AbortKind, CommitSection, CommitSeq, TmConfig, TmStats, TmSystem, Transaction,
};
use crate::heap::{Addr, TmHeap, Word};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounded spinning on a locked word before giving up and aborting.
const LOCK_SPIN: usize = 256;

/// The TinySTM-style runtime.
#[derive(Debug)]
pub struct TinyStm {
    heap: TmHeap,
    stats: TmStats,
    clock: AtomicU64,
    /// One versioned lock per heap word: even values are `version << 1`
    /// (unlocked); odd values mark the word as locked by a committer, with
    /// the pre-lock version still recoverable (`locked = unlocked | 1`).
    locks: Vec<AtomicU64>,
    /// Dense durable sequence counter; fetched after read-set validation
    /// succeeds, while the write locks are still held. The commit clock
    /// `wv` cannot serve: it is fetched before validation, so aborting
    /// committers leave holes.
    durable_seq: CommitSeq,
}

impl TinyStm {
    /// Creates a runtime with the given configuration.
    pub fn with_config(config: TmConfig) -> Self {
        Self {
            heap: TmHeap::new(config.heap_words),
            stats: TmStats::default(),
            clock: AtomicU64::new(0),
            locks: (0..config.heap_words).map(|_| AtomicU64::new(0)).collect(),
            durable_seq: CommitSeq::default(),
        }
    }

    fn lock_of(&self, addr: Addr) -> &AtomicU64 {
        &self.locks[addr]
    }
}

/// A [`TinyStm`] transaction.
#[derive(Debug)]
pub struct TinyTx<'a> {
    tm: &'a TinyStm,
    /// Snapshot version: every read so far is consistent as of this clock.
    rv: u64,
    /// (address, observed version) pairs.
    read_set: Vec<(Addr, u64)>,
    /// Buffered writes.
    redo: HashMap<Addr, Word>,
}

impl TinyTx<'_> {
    /// Validates that every read still holds its recorded version
    /// (locations we have locked ourselves validate against the pre-lock
    /// version encoded in the odd lock word).
    fn read_set_valid(&self) -> bool {
        self.read_set.iter().all(|&(a, ver)| {
            let l = self.tm.lock_of(a).load(Ordering::SeqCst);
            if l & 1 == 1 {
                // Locked. Only acceptable if we are the locker (the word is
                // in our write set) and the version matches.
                self.redo.contains_key(&a) && (l >> 1) == ver
            } else {
                (l >> 1) == ver
            }
        })
    }

    /// Attempts to extend the snapshot to the current clock (LSA).
    fn extend(&mut self) -> Result<(), Abort> {
        let new_rv = self.tm.clock.load(Ordering::SeqCst);
        if self.read_set_valid() {
            self.rv = new_rv;
            Ok(())
        } else {
            Err(Abort::new(AbortKind::Conflict))
        }
    }

    /// Adds a read of `addr`, loaded at version `ver`, to the read set. A
    /// version past the snapshot slides the snapshot forward (this is
    /// what distinguishes LSA from abort-on-sight TL2), and the
    /// validation covers this read too: a commit that overwrote the word
    /// between its load and the extension would otherwise sit inside the
    /// new snapshot while the read returns the value before it.
    fn record_read(&mut self, addr: Addr, ver: u64) -> Result<(), Abort> {
        self.read_set.push((addr, ver));
        if ver > self.rv {
            self.extend()?;
            if ver > self.rv {
                return Err(Abort::new(AbortKind::Conflict));
            }
        }
        Ok(())
    }
}

impl Transaction for TinyTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        if let Some(&v) = self.redo.get(&addr) {
            return Ok(v);
        }
        let lock = self.tm.lock_of(addr);
        let mut spins = 0;
        loop {
            let l1 = lock.load(Ordering::SeqCst);
            if l1 & 1 == 1 {
                spins += 1;
                if spins > LOCK_SPIN {
                    return Err(Abort::new(AbortKind::Conflict));
                }
                std::hint::spin_loop();
                continue;
            }
            let v = self.tm.heap.load_direct(addr);
            let l2 = lock.load(Ordering::SeqCst);
            if l1 != l2 {
                continue; // torn read; retry the seqlock
            }
            self.record_read(addr, l1 >> 1)?;
            return Ok(v);
        }
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.redo.insert(addr, val);
        Ok(())
    }

    fn commit_in(self, section: CommitSection) -> Result<Option<u64>, Abort> {
        if self.redo.is_empty() {
            self.tm
                .stats
                .read_only_commits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }

        // Acquire write locks in address order (deadlock avoidance).
        let mut waddrs: Vec<Addr> = self.redo.keys().copied().collect();
        waddrs.sort_unstable();
        let mut acquired: Vec<(Addr, u64)> = Vec::with_capacity(waddrs.len());
        let release = |acquired: &[(Addr, u64)]| {
            for &(a, prev) in acquired {
                self.tm.lock_of(a).store(prev, Ordering::SeqCst);
            }
        };
        for &a in &waddrs {
            let lock = self.tm.lock_of(a);
            let mut spins = 0;
            loop {
                let l = lock.load(Ordering::SeqCst);
                if l & 1 == 0 {
                    if lock
                        .compare_exchange(l, l | 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        acquired.push((a, l));
                        break;
                    }
                } else {
                    spins += 1;
                    if spins > LOCK_SPIN {
                        release(&acquired);
                        return Err(Abort::new(AbortKind::Conflict));
                    }
                    std::hint::spin_loop();
                }
            }
        }

        let wv = self.tm.clock.fetch_add(1, Ordering::SeqCst) + 1;

        // Commit-time validation: the dedicated phase the paper instruments
        // for Figure 11 ("the CPU goes over all timestamped objects in [the]
        // read set"), timed the way ROCoCoTM's verdict is.
        let valid = self.tm.stats.time_validation(|| self.read_set_valid());
        if !valid {
            release(&acquired);
            return Err(Abort::new(AbortKind::Conflict));
        }

        // Point of no return: validation passed and every written word is
        // still locked, so no dependent transaction can commit between here
        // and our lock release. Fetching the durable sequence inside this
        // window makes sequence order consistent with serialization order
        // for read-from and write-write dependencies.
        let seq = self.tm.durable_seq.fetch_add(&section);

        // Write back and release with the new version.
        for (&addr, &val) in &self.redo {
            self.tm.heap.store_direct(addr, val);
        }
        for &(a, _) in &acquired {
            self.tm.lock_of(a).store(wv << 1, Ordering::SeqCst);
        }
        Ok(Some(seq))
    }
}

impl TmSystem for TinyStm {
    type Tx<'a> = TinyTx<'a>;

    fn name(&self) -> &'static str {
        "TinySTM"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn begin(&self, _thread_id: usize) -> TinyTx<'_> {
        TinyTx {
            tm: self,
            rv: self.clock.load(Ordering::SeqCst),
            read_set: Vec::new(),
            redo: HashMap::new(),
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

    fn tm(words: usize) -> TinyStm {
        TinyStm::with_config(TmConfig {
            heap_words: words,
            max_threads: 8,
        })
    }

    #[test]
    fn single_thread_read_write() {
        let tm = tm(16);
        atomically(&tm, 0, |tx| {
            tx.write(0, 5)?;
            let v = tx.read(0)?;
            assert_eq!(v, 5, "read-own-write");
            tx.write(1, v * 2)
        });
        assert_eq!(tm.heap().load_direct(0), 5);
        assert_eq!(tm.heap().load_direct(1), 10);
    }

    #[test]
    fn read_only_commits_fast() {
        let tm = tm(16);
        atomically(&tm, 0, |tx| tx.read(0));
        assert_eq!(tm.stats().snapshot().read_only_commits, 1);
    }

    #[test]
    fn concurrent_counters_are_exact() {
        let tm = Arc::new(tm(64));
        let mut joins = Vec::new();
        for t in 0..8usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    atomically(&*tm, t, |tx| {
                        let v = tx.read(7)?;
                        tx.write(7, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(tm.heap().load_direct(7), 16_000);
    }

    #[test]
    fn bank_transfers_preserve_total() {
        // The classic invariant test: concurrent transfers between
        // accounts never create or destroy money.
        let tm = Arc::new(tm(64));
        let accounts = 16usize;
        for a in 0..accounts {
            tm.heap().store_direct(a, 1000);
        }
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let mut x = t as u64 * 2654435761;
                for _ in 0..3000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (x >> 33) as usize % accounts;
                    let to = (x >> 13) as usize % accounts;
                    if from == to {
                        continue;
                    }
                    atomically(&*tm, t, |tx| {
                        let f = tx.read(from)?;
                        let g = tx.read(to)?;
                        if f >= 10 {
                            tx.write(from, f - 10)?;
                            tx.write(to, g + 10)?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = (0..accounts).map(|a| tm.heap().load_direct(a)).sum();
        assert_eq!(total, 16_000);
    }

    #[test]
    fn snapshot_extension_allows_unrelated_commits() {
        // A long transaction reading x should survive commits to y.
        let tm = Arc::new(tm(16));
        let tma = tm.clone();
        let writer = std::thread::spawn(move || {
            for i in 0..500 {
                atomically(&*tma, 1, |tx| tx.write(9, i));
            }
        });
        for _ in 0..200 {
            atomically(&*tm, 0, |tx| {
                let a = tx.read(0)?;
                // Interleave with writer commits to force extensions.
                std::thread::yield_now();
                let b = tx.read(1)?;
                assert_eq!(a, 0);
                assert_eq!(b, 0);
                Ok(())
            });
        }
        writer.join().unwrap();
    }

    #[test]
    fn durable_seqs_are_dense_and_ordered_with_values() {
        // Every update commit gets a unique seq from a dense range, and on
        // a single contended counter the seq order must match the value
        // order (seq order respects read-from dependencies).
        use crate::api::try_atomically_seq;
        use parking_lot::Mutex;
        let tm = Arc::new(tm(16));
        let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            let seen = seen.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    loop {
                        let res = try_atomically_seq(&*tm, t, &mut |tx: &mut TinyTx<'_>| {
                            let v = tx.read(3)?;
                            tx.write(3, v + 1)?;
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
        // Read-only commits take no sequence.
        let (_, seq) = try_atomically_seq(&*tm, 0, &mut |tx: &mut TinyTx<'_>| tx.read(3)).unwrap();
        assert_eq!(seq, None);
    }

    #[test]
    fn a_commit_between_load_and_extension_aborts_the_reader() {
        // Regression (the torn snapshot of tier-1 `tinystm_opacity`): the
        // extension used to validate the read set *before* the read that
        // triggered it joined it. The steps of `read`, by hand:
        let tm = tm(4);
        let mut tx = tm.begin(0);
        atomically(&tm, 1, |w| w.write(0, 1));
        let ver = tm.lock_of(0).load(Ordering::SeqCst) >> 1;
        let stale = tm.heap().load_direct(0);
        // Lands between the load and the extension: new values of both.
        atomically(&tm, 1, |w| {
            w.write(0, 2)?;
            w.write(1, 2)
        });
        assert!(ver > tx.rv, "the load is past the snapshot");
        assert_eq!(
            tx.record_read(0, ver),
            Err(Abort::new(AbortKind::Conflict)),
            "{stale} is not the value at the extended snapshot"
        );
    }

    #[test]
    fn validation_time_is_recorded() {
        let tm = tm(32);
        for _ in 0..10 {
            atomically(&tm, 0, |tx| {
                let v = tx.read(1)?;
                tx.write(2, v + 1)
            });
        }
        let snap = tm.stats().snapshot();
        assert_eq!(snap.validations, 10);
    }
}
