//! Seeded RMW workloads designed for the serializability oracle.
//!
//! The heap is laid out as three arrays over `n` accounts:
//!
//! * `balance[i]` — payload words (values repeat; a bank transfer moves
//!   value between them, so their global sum is invariant);
//! * `ver[i]` — version words. Every transaction that writes `balance[i]`
//!   also reads `ver[i]` and overwrites it with a globally unique nonce.
//!   Unique values make the per-address version order recoverable from
//!   the history (the writer of version `k+1` is the transaction that
//!   read version `k`), which is what lets the oracle build an exact
//!   serialization graph;
//! * `counter[i]` — self-versioning words: increments are RMW and every
//!   committed increment produces a fresh value, so they need no sibling
//!   version word.
//!
//! The *versioned RMW discipline* — never write a version word without
//! having read it first in the same transaction, never write the same
//! value twice to one address — is the contract [`crate::oracle`] checks
//! against; breaking it is itself reported as a violation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rococo_stm::{Abort, Addr, Transaction, Word};

/// Initial value of every balance word.
pub const INITIAL_BALANCE: Word = 1_000;

/// Nonces are `(thread + 1) << NONCE_SHIFT | ...`, so any value at or
/// above `1 << NONCE_SHIFT` is a nonce and anything below is an initial
/// value. Initial version values (`i`) and balances never reach it.
const NONCE_SHIFT: u32 = 40;

/// Address layout of the chaos heap.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Number of accounts `n`.
    pub accounts: usize,
}

impl Layout {
    /// Address of `balance[i]`.
    pub fn balance(&self, i: usize) -> Addr {
        debug_assert!(i < self.accounts);
        i
    }

    /// Address of `ver[i]`.
    pub fn ver(&self, i: usize) -> Addr {
        debug_assert!(i < self.accounts);
        self.accounts + i
    }

    /// Address of `counter[i]`.
    pub fn counter(&self, i: usize) -> Addr {
        debug_assert!(i < self.accounts);
        2 * self.accounts + i
    }

    /// Heap words needed for this layout.
    pub fn heap_words(&self) -> usize {
        3 * self.accounts
    }

    /// Whether `addr` is a version-disciplined word (version or counter).
    pub fn is_versioned(&self, addr: Addr) -> bool {
        addr >= self.accounts && addr < 3 * self.accounts
    }

    /// Every tracked address.
    pub fn all_addrs(&self) -> impl Iterator<Item = Addr> {
        0..3 * self.accounts
    }

    /// Initial value of `addr` (the driver seeds the heap with these).
    pub fn initial(&self, addr: Addr) -> Word {
        if addr < self.accounts {
            INITIAL_BALANCE
        } else if addr < 2 * self.accounts {
            addr as Word // ver[i] starts at a unique sub-nonce value
        } else {
            0 // counters start at zero
        }
    }
}

/// One workload operation (one transaction body).
#[derive(Debug, Clone)]
pub enum Op {
    /// Move up to `amt` from `from` to `to`, RMW-ing both version words.
    Transfer {
        /// Source account.
        from: usize,
        /// Destination account.
        to: usize,
        /// Amount to move (skipped, leaving a read-only txn, if the
        /// source balance is insufficient).
        amt: Word,
        /// Fresh nonce for `ver[from]`.
        nonce_from: Word,
        /// Fresh nonce for `ver[to]`.
        nonce_to: Word,
    },
    /// Read `(ver[i], balance[i])` pairs for `len` consecutive accounts —
    /// a read-only snapshot whose pairs must be mutually consistent.
    Snapshot {
        /// First account.
        start: usize,
        /// Number of accounts scanned.
        len: usize,
    },
    /// RMW-increment `counter[i]`.
    Increment {
        /// Account index.
        i: usize,
    },
    /// Read `ver` words of many accounts (yielding periodically so other
    /// threads commit underneath the scan), then RMW one counter. The
    /// large read set and long lifetime stress the commit-queue laggard
    /// path and the FPGA window.
    LongScan {
        /// First account.
        start: usize,
        /// Step between scanned accounts.
        stride: usize,
        /// Number of accounts scanned.
        len: usize,
        /// Counter RMW-ed at the end (makes the txn a writer so it must
        /// pass validation).
        counter: usize,
    },
}

impl Op {
    /// The operation's scheduling class
    /// ([`TmSystem::set_tx_class`](rococo_stm::TmSystem::set_tx_class)):
    /// one per variant, as each has its own read/write-set shape. A
    /// `Transfer` writes four words; the other three write at most one.
    pub fn class(&self) -> u32 {
        match self {
            Op::Transfer { .. } => 0,
            Op::Snapshot { .. } => 1,
            Op::Increment { .. } => 2,
            Op::LongScan { .. } => 3,
        }
    }
}

/// Generates thread `thread`'s operation list for `seed`.
pub fn gen_ops(seed: u64, thread: usize, n_ops: usize, accounts: usize) -> Vec<Op> {
    // Distinct, decorrelated stream per (seed, thread).
    let mut rng = StdRng::seed_from_u64(seed ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..n_ops)
        .map(|op_idx| {
            // Unique per (thread, op): at most two nonces per op.
            let nonce_base = ((thread as u64 + 1) << NONCE_SHIFT) | ((op_idx as u64) << 1);
            match rng.gen_range(0u32..100) {
                // Transfers dominate: they contend on both payload and
                // version words.
                0..=54 => {
                    let from = rng.gen_range(0..accounts);
                    let mut to = rng.gen_range(0..accounts);
                    if to == from {
                        to = (to + 1) % accounts;
                    }
                    Op::Transfer {
                        from,
                        to,
                        amt: rng.gen_range(1..6),
                        nonce_from: nonce_base,
                        nonce_to: nonce_base | 1,
                    }
                }
                55..=74 => Op::Snapshot {
                    start: rng.gen_range(0..accounts),
                    len: rng.gen_range(2..(accounts.min(8) + 1).max(3)),
                },
                75..=89 => Op::Increment {
                    i: rng.gen_range(0..accounts),
                },
                _ => Op::LongScan {
                    start: rng.gen_range(0..accounts),
                    stride: rng.gen_range(1..4),
                    len: accounts.min(12),
                    counter: rng.gen_range(0..accounts),
                },
            }
        })
        .collect()
}

/// Runs `op` inside transaction `tx`.
///
/// # Errors
///
/// Propagates any [`Abort`] from the underlying runtime.
pub fn apply_op<T: Transaction>(tx: &mut T, layout: &Layout, op: &Op) -> Result<(), Abort> {
    match *op {
        Op::Transfer {
            from,
            to,
            amt,
            nonce_from,
            nonce_to,
        } => {
            // Versioned RMW discipline: read both version words before
            // deciding whether to write anything.
            let _vf = tx.read(layout.ver(from))?;
            let _vt = tx.read(layout.ver(to))?;
            let bf = tx.read(layout.balance(from))?;
            let bt = tx.read(layout.balance(to))?;
            if bf >= amt {
                tx.write(layout.balance(from), bf - amt)?;
                tx.write(layout.balance(to), bt + amt)?;
                tx.write(layout.ver(from), nonce_from)?;
                tx.write(layout.ver(to), nonce_to)?;
            }
            Ok(())
        }
        Op::Snapshot { start, len } => {
            for k in 0..len {
                let i = (start + k) % layout.accounts;
                let _v = tx.read(layout.ver(i))?;
                let _b = tx.read(layout.balance(i))?;
            }
            Ok(())
        }
        Op::Increment { i } => {
            let c = tx.read(layout.counter(i))?;
            tx.write(layout.counter(i), c + 1)
        }
        Op::LongScan {
            start,
            stride,
            len,
            counter,
        } => {
            for k in 0..len {
                let i = (start + k * stride) % layout.accounts;
                let _v = tx.read(layout.ver(i))?;
                if k % 3 == 2 {
                    // Give committers time to advance GlobalTS under us.
                    std::thread::yield_now();
                }
            }
            let c = tx.read(layout.counter(counter))?;
            tx.write(layout.counter(counter), c + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ops_are_deterministic_per_seed() {
        let a = gen_ops(7, 3, 50, 16);
        let b = gen_ops(7, 3, 50, 16);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = gen_ops(8, 3, 50, 16);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn nonces_are_unique_across_threads_and_ops() {
        let mut seen = HashSet::new();
        for t in 0..4 {
            for op in gen_ops(1, t, 200, 8) {
                if let Op::Transfer {
                    nonce_from,
                    nonce_to,
                    ..
                } = op
                {
                    assert!(seen.insert(nonce_from));
                    assert!(seen.insert(nonce_to));
                    assert!(nonce_from >= 1 << NONCE_SHIFT);
                }
            }
        }
    }

    #[test]
    fn layout_partitions_the_heap() {
        let l = Layout { accounts: 4 };
        let addrs: Vec<Addr> = l.all_addrs().collect();
        assert_eq!(addrs.len(), l.heap_words());
        assert!(!l.is_versioned(l.balance(0)));
        assert!(l.is_versioned(l.ver(0)));
        assert!(l.is_versioned(l.counter(3)));
        // Initial version values stay below the nonce range.
        for a in l.all_addrs() {
            assert!(l.initial(a) < 1 << NONCE_SHIFT);
        }
    }
}
