//! The reachability matrix (Figure 4) — incremental transitive closure.

use crate::depvec::DepVec;
use std::fmt;

/// Error returned by [`ReachMatrix::validate`] when committing the candidate
/// transaction would create a cycle in `→rw` (and hence break
/// serializability, by the acyclicity axiom of section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleDetected;

impl fmt::Display for CycleDetected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "committing this transaction would create a dependency cycle"
        )
    }
}

impl std::error::Error for CycleDetected {}

/// The closure vectors computed by a successful validation: what the
/// candidate reaches (`p`, *proceeding*) and what reaches it (`s`,
/// *succeeding*). Feed this to [`ReachMatrix::commit`] to admit the
/// transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    /// `p[i]` ⇔ candidate ▷ `tᵢ` (candidate reaches slot `i`).
    pub p: DepVec,
    /// `s[i]` ⇔ `tᵢ` ▷ candidate (slot `i` reaches the candidate).
    pub s: DepVec,
}

impl Closure {
    /// An all-zero closure for a window of `cap` slots, for
    /// [`ReachMatrix::validate_into`] to fill.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        Self {
            p: DepVec::new(cap),
            s: DepVec::new(cap),
        }
    }
}

/// The reachability matrix `R` of the ROCoCo manager: `r[i][j]` ⇔ `tᵢ ▷ tⱼ`
/// (transaction in slot `i` reaches transaction in slot `j`), maintained as
/// the transitive closure of the committed window DAG.
///
/// Rows are stored as [`DepVec`]-compatible word arrays; all three
/// operations map to the bit-parallel structures of the paper's Figure 4/5:
///
/// * [`validate`](Self::validate) — `p = f ∨ Rᵀf`, `s = b ∨ Rb`, cycle iff
///   `p ∧ s ≠ 0`; `O(W)` word-ops (O(1) clock cycles in hardware).
/// * [`commit`](Self::commit) — append `p`/`s` as new row/column and close
///   existing entries: `r[i][j] |= s[i] ∧ p[j]`.
/// * [`evict_oldest`](Self::evict_oldest) — the register shift when the
///   sliding window discards bookkeeping `h₆₃` (Figure 5, top-left).
///
/// Slot indices are *window-relative*: slot 0 is the oldest committed
/// transaction currently tracked. [`SlidingWindow`](crate::SlidingWindow)
/// maps slots to global sequence numbers.
#[derive(Clone, PartialEq, Eq)]
pub struct ReachMatrix {
    cap: usize,
    len: usize,
    rows: Vec<DepVec>,
}

impl ReachMatrix {
    /// Creates an empty matrix for a window of `cap` transactions.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        Self {
            cap,
            len: 0,
            rows: vec![DepVec::new(cap); cap],
        }
    }

    /// Window capacity `W`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of committed transactions currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no transaction is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window is full (a commit must evict first).
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Whether `tᵢ ▷ tⱼ` (slot `i` reaches slot `j`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not a live slot.
    pub fn reaches(&self, i: usize, j: usize) -> bool {
        assert!(i < self.len && j < self.len, "slot out of range");
        self.rows[i].get(j)
    }

    /// Validates a candidate transaction with forward vector `f` and
    /// backward vector `b` (both over live slots; bits at or beyond
    /// [`len`](Self::len) must be clear).
    ///
    /// Returns the [`Closure`] on success. Allocates it; a caller on a hot
    /// path keeps one and calls [`validate_into`](Self::validate_into).
    ///
    /// # Errors
    ///
    /// Returns [`CycleDetected`] if `p ∧ s ≠ 0`, i.e. some committed
    /// transaction both reaches and is reached by the candidate.
    ///
    /// # Panics
    ///
    /// Panics if `f`/`b` capacities don't match the window capacity, or if a
    /// dependency bit refers to a dead slot.
    pub fn validate(&self, f: &DepVec, b: &DepVec) -> Result<Closure, CycleDetected> {
        let mut closure = Closure::new(self.cap);
        self.validate_into(f, b, &mut closure)?;
        Ok(closure)
    }

    /// [`validate`](Self::validate) writing `p`/`s` into a closure the
    /// caller owns (whatever it held is overwritten; after an error its
    /// contents are unspecified).
    ///
    /// # Errors
    ///
    /// Returns [`CycleDetected`] if `p ∧ s ≠ 0`.
    ///
    /// # Panics
    ///
    /// As [`validate`](Self::validate), and if `out`'s capacity does not
    /// match the window capacity.
    pub fn validate_into(
        &self,
        f: &DepVec,
        b: &DepVec,
        out: &mut Closure,
    ) -> Result<(), CycleDetected> {
        assert_eq!(f.capacity(), self.cap, "f capacity mismatch");
        assert_eq!(b.capacity(), self.cap, "b capacity mismatch");
        debug_assert!(
            f.iter_ones().all(|i| i < self.len) && b.iter_ones().all(|i| i < self.len),
            "dependency on a slot outside the live window"
        );

        // p = f | R^T f : candidate reaches slot i directly (f[i]) or
        // through any j with f[j] and r[j][i] (row j read whole).
        out.p.copy_from(f);
        for j in f.iter_ones() {
            out.p.or_with(&self.rows[j]);
        }

        // s = b | R b : slot i reaches the candidate directly (b[i]) or
        // through any j with r[i][j] and b[j] (test row i against b).
        out.s.copy_from(b);
        for i in 0..self.len {
            if self.rows[i].intersects(b) {
                out.s.set(i);
            }
        }

        if out.p.intersects(&out.s) {
            Err(CycleDetected)
        } else {
            Ok(())
        }
    }

    /// Commits the candidate whose closure was computed by
    /// [`validate`](Self::validate), appending it as the newest slot.
    /// Returns the slot index it occupies.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is full — callers must
    /// [`evict_oldest`](Self::evict_oldest) first — or if the closure's
    /// capacity does not match.
    pub fn commit(&mut self, closure: &Closure) -> usize {
        assert!(!self.is_full(), "matrix full; evict before committing");
        assert_eq!(closure.p.capacity(), self.cap, "closure capacity mismatch");
        let idx = self.len;

        // Close existing entries over the new element: every t_i that
        // reaches the candidate (s[i]) now also reaches everything the
        // candidate reaches (p), and the candidate itself (bit idx).
        for i in closure.s.iter_ones() {
            debug_assert!(i < idx);
            self.rows[i].or_with(&closure.p);
            self.rows[i].set(idx);
        }

        // New row: p plus self-reachability ("a vertex can always reach
        // itself" — R₁ = [1] in the paper).
        let row = &mut self.rows[idx];
        row.clear();
        row.or_with(&closure.p);
        row.set(idx);

        self.len = idx + 1;
        idx
    }

    /// Evicts the oldest transaction (slot 0): every slot decreases by one,
    /// modelling the 2D-register shift of Figure 5.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn evict_oldest(&mut self) {
        assert!(self.len > 0, "cannot evict from an empty matrix");
        // Drop row 0, move rows up, and drop column 0 from every row.
        self.rows.rotate_left(1);
        self.len -= 1;
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i < self.len {
                row.shift_down();
            } else {
                row.clear();
            }
        }
    }

    /// Checks the transitive-closure invariant by recomputing reachability
    /// from scratch (Warshall) and comparing. Intended for tests and debug
    /// assertions; `O(W³)`.
    pub fn closure_invariant_holds(&self) -> bool {
        let n = self.len;
        let mut ref_rows: Vec<DepVec> = self.rows[..n].to_vec();
        // The stored matrix *is* supposed to be transitively closed; closing
        // it again must be a no-op.
        for k in 0..n {
            for i in 0..n {
                if ref_rows[i].get(k) {
                    let rk = ref_rows[k].clone();
                    ref_rows[i].or_with(&rk);
                }
            }
        }
        ref_rows.iter().zip(&self.rows[..n]).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for ReachMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ReachMatrix[{}/{}]", self.len, self.cap)?;
        for i in 0..self.len {
            write!(f, "  {i:3}: ")?;
            for j in 0..self.len {
                write!(f, "{}", if self.rows[i].get(j) { '1' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(cap: usize, ones: &[usize]) -> DepVec {
        let mut v = DepVec::new(cap);
        for &i in ones {
            v.set(i);
        }
        v
    }

    /// Commits a transaction with the given direct dependencies, panicking
    /// on a cycle.
    fn commit(m: &mut ReachMatrix, f: &[usize], b: &[usize]) -> usize {
        let c = m
            .validate(&dv(m.capacity(), f), &dv(m.capacity(), b))
            .expect("unexpected cycle");
        m.commit(&c)
    }

    #[test]
    fn first_commit_reaches_itself() {
        let mut m = ReachMatrix::new(8);
        let idx = commit(&mut m, &[], &[]);
        assert_eq!(idx, 0);
        assert!(m.reaches(0, 0));
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn chain_is_transitively_closed() {
        // t0 -> t1 -> t2 (each new txn is after the previous: b on prev).
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[], &[0]);
        commit(&mut m, &[], &[1]);
        assert!(m.reaches(0, 2), "closure must include t0 -> t2");
        assert!(!m.reaches(2, 0));
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn forward_dep_orders_candidate_before() {
        // t0 commits; t1 has f = {0}: t1 ->rw t0 (t1 serialises BEFORE t0).
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[0], &[]);
        assert!(m.reaches(1, 0), "t1 must reach t0");
        assert!(!m.reaches(0, 1));
    }

    #[test]
    fn direct_cycle_rejected() {
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        let r = m.validate(&dv(8, &[0]), &dv(8, &[0]));
        assert_eq!(r.unwrap_err(), CycleDetected);
    }

    #[test]
    fn transitive_cycle_rejected() {
        // t0 -> t1 (b dep). Candidate t with f={1} (t -> t1) and b={0}
        // wait - that's fine: t0 -> t, t -> t1 requires t1 not reach t0.
        // Build the cyclic case: t0 -> t1; candidate with f={0} (t -> t0)
        // and b={1} (t1 -> t): then t -> t0 -> t1 -> t is a cycle.
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[], &[0]); // t0 -> t1
        let r = m.validate(&dv(8, &[0]), &dv(8, &[1]));
        assert_eq!(r.unwrap_err(), CycleDetected, "t -> t0 -> t1 -> t");
    }

    #[test]
    fn reordering_allowed_without_cycle() {
        // The phantom-ordering scenario of Fig. 2(a): candidate reads a
        // version overwritten by t0, so candidate ->rw t0 is NOT required;
        // rather t0 overwrote what candidate read: candidate -> t0 (f).
        // TOCC with start timestamps would abort; ROCoCo commits.
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        let c = m.validate(&dv(8, &[0]), &dv(8, &[])).expect("no cycle");
        let idx = m.commit(&c);
        assert!(m.reaches(idx, 0));
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn eviction_shifts_slots() {
        let mut m = ReachMatrix::new(4);
        commit(&mut m, &[], &[]); // t0
        commit(&mut m, &[], &[0]); // t1, t0 -> t1
        commit(&mut m, &[], &[1]); // t2, chain
        m.evict_oldest();
        assert_eq!(m.len(), 2);
        // Old t1 is now slot 0, old t2 slot 1; t1 -> t2 must survive.
        assert!(m.reaches(0, 1));
        assert!(!m.reaches(1, 0));
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn fill_evict_refill() {
        let mut m = ReachMatrix::new(4);
        for _ in 0..4 {
            let prev: Vec<usize> = if m.is_empty() {
                vec![]
            } else {
                vec![m.len() - 1]
            };
            commit(&mut m, &[], &prev);
        }
        assert!(m.is_full());
        m.evict_oldest();
        assert!(!m.is_full());
        commit(&mut m, &[], &[2]);
        assert!(m.is_full());
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn diamond_no_false_cycle() {
        // t0 -> t1, t0 -> t2, candidate after both: no cycle.
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[], &[0]);
        commit(&mut m, &[], &[0]);
        let c = m
            .validate(&dv(8, &[]), &dv(8, &[1, 2]))
            .expect("diamond join");
        m.commit(&c);
        assert!(m.reaches(0, 3));
        assert!(m.closure_invariant_holds());
    }

    #[test]
    fn concurrent_transactions_stay_unrelated() {
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[], &[]); // no deps: concurrent with t0
        assert!(!m.reaches(0, 1));
        assert!(!m.reaches(1, 0));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn commit_into_full_matrix_panics() {
        let mut m = ReachMatrix::new(1);
        commit(&mut m, &[], &[]);
        m.commit(&Closure::new(1));
    }

    #[test]
    fn validate_into_overwrites_a_reused_closure() {
        // t0 -> t1 -> t2; the same closure serves a cycle, then a commit.
        let mut m = ReachMatrix::new(8);
        commit(&mut m, &[], &[]);
        commit(&mut m, &[], &[0]);
        commit(&mut m, &[], &[1]);
        let mut kept = Closure::new(8);
        assert_eq!(
            m.validate_into(&dv(8, &[0]), &dv(8, &[2]), &mut kept),
            Err(CycleDetected)
        );
        for (f, b) in [(&[1usize][..], &[0usize][..]), (&[], &[2]), (&[0, 2], &[])] {
            let (f, b) = (dv(8, f), dv(8, b));
            m.validate_into(&f, &b, &mut kept).expect("no cycle");
            assert_eq!(Ok(&kept), m.validate(&f, &b).as_ref());
        }
    }
}
