//! Reference runtimes: sequential execution and a single global lock.

use crate::api::{Abort, CommitSection, CommitSeq, TmConfig, TmStats, TmSystem, Transaction};
use crate::heap::{Addr, TmHeap, Word};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;

/// The sequential baseline: transactions execute unsynchronised and commits
/// never fail. STAMP speedups (Figure 10's y-axis) are measured against a
/// 1-thread run of this system.
///
/// Writes are still buffered until commit so that explicitly aborted
/// closures leave no trace, but there is **no** conflict detection: running
/// it from more than one thread concurrently is a logic error (results
/// would be unsynchronised), though it is memory-safe.
#[derive(Debug)]
pub struct SeqTm {
    heap: TmHeap,
    stats: TmStats,
    durable_seq: CommitSeq,
}

impl SeqTm {
    /// Creates a sequential runtime with the given heap size.
    pub fn with_config(config: TmConfig) -> Self {
        Self {
            heap: TmHeap::new(config.heap_words),
            stats: TmStats::default(),
            durable_seq: CommitSeq::default(),
        }
    }
}

/// A [`SeqTm`] transaction.
#[derive(Debug)]
pub struct SeqTx<'a> {
    tm: &'a SeqTm,
    redo: HashMap<Addr, Word>,
}

impl Transaction for SeqTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        Ok(match self.redo.get(&addr) {
            Some(&v) => v,
            None => self.tm.heap.load_direct(addr),
        })
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.redo.insert(addr, val);
        Ok(())
    }

    fn commit_in(self, section: CommitSection) -> Result<Option<u64>, Abort> {
        // Single-threaded by contract, so commits are already serialised.
        let seq = if self.redo.is_empty() {
            None
        } else {
            Some(self.tm.durable_seq.fetch_add(&section))
        };
        for (addr, val) in self.redo {
            self.tm.heap.store_direct(addr, val);
        }
        Ok(seq)
    }
}

impl TmSystem for SeqTm {
    type Tx<'a> = SeqTx<'a>;

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn begin(&self, _thread_id: usize) -> SeqTx<'_> {
        SeqTx {
            tm: self,
            redo: HashMap::new(),
        }
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }
}

/// A runtime that serialises every transaction behind one global mutex —
/// the "coarse lock" yardstick, and the semantics of an HTM fallback path.
#[derive(Debug)]
pub struct GlobalLockTm {
    heap: TmHeap,
    stats: TmStats,
    lock: Mutex<()>,
    durable_seq: CommitSeq,
}

impl GlobalLockTm {
    /// Creates a global-lock runtime with the given heap size.
    pub fn with_config(config: TmConfig) -> Self {
        Self {
            heap: TmHeap::new(config.heap_words),
            stats: TmStats::default(),
            lock: Mutex::new(()),
            durable_seq: CommitSeq::default(),
        }
    }
}

/// A [`GlobalLockTm`] transaction: holds the global lock for its lifetime.
#[derive(Debug)]
pub struct GlobalLockTx<'a> {
    tm: &'a GlobalLockTm,
    redo: HashMap<Addr, Word>,
    _guard: MutexGuard<'a, ()>,
}

impl Transaction for GlobalLockTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        Ok(match self.redo.get(&addr) {
            Some(&v) => v,
            None => self.tm.heap.load_direct(addr),
        })
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        self.redo.insert(addr, val);
        Ok(())
    }

    fn commit_in(self, section: CommitSection) -> Result<Option<u64>, Abort> {
        // The global lock is held for the whole transaction, so the fetch
        // is trivially inside the critical section.
        let seq = if self.redo.is_empty() {
            None
        } else {
            Some(self.tm.durable_seq.fetch_add(&section))
        };
        for (addr, val) in self.redo {
            self.tm.heap.store_direct(addr, val);
        }
        Ok(seq)
    }
}

impl TmSystem for GlobalLockTm {
    type Tx<'a> = GlobalLockTx<'a>;

    fn name(&self) -> &'static str {
        "GlobalLock"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    fn begin(&self, _thread_id: usize) -> GlobalLockTx<'_> {
        GlobalLockTx {
            tm: self,
            redo: HashMap::new(),
            _guard: self.lock.lock(),
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

    #[test]
    fn seq_commits_apply_writes() {
        let tm = SeqTm::with_config(TmConfig {
            heap_words: 16,
            max_threads: 1,
        });
        atomically(&tm, 0, |tx| {
            let v = tx.read(3)?;
            tx.write(3, v + 7)
        });
        assert_eq!(tm.heap().load_direct(3), 7);
        assert_eq!(tm.stats().snapshot().commits, 1);
    }

    #[test]
    fn aborted_closure_leaves_no_trace() {
        let tm = SeqTm::with_config(TmConfig {
            heap_words: 16,
            max_threads: 1,
        });
        let mut first = true;
        atomically(&tm, 0, |tx| {
            tx.write(0, 42)?;
            if first {
                first = false;
                return Err(Abort::new(crate::api::AbortKind::Explicit));
            }
            tx.write(1, 1)
        });
        assert_eq!(tm.heap().load_direct(0), 42);
        assert_eq!(tm.heap().load_direct(1), 1);
        let snap = tm.stats().snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.total_aborts(), 1);
    }

    #[test]
    fn global_lock_counts_concurrently() {
        let tm = std::sync::Arc::new(GlobalLockTm::with_config(TmConfig {
            heap_words: 16,
            max_threads: 8,
        }));
        let mut joins = Vec::new();
        for t in 0..8 {
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
        assert_eq!(tm.stats().snapshot().abort_rate(), 0.0);
    }
}
