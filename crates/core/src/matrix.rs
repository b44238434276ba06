//! The reachability matrix (Figure 4) — incremental transitive closure.

use crate::depvec::ones;
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

/// The reachability matrix `R` of the ROCoCo manager: `r[i][j]` ⇔ `tᵢ ▷ tⱼ`
/// (the transaction in position `i` reaches the one in position `j`),
/// maintained as the transitive closure of the committed window DAG — the
/// paper's "2D registers".
///
/// Rows *and* columns are indexed by **ring position**: the commit with
/// sequence number `seq` owns row and column `seq % W` from its commit until
/// commit `seq + W` takes them over, and nothing moves when the window
/// slides. A position no live commit owns holds no bits, neither in its row
/// nor in its column; a live position `i` has `r[i][i]` set ("a vertex can
/// always reach itself", `R₁ = [1]` in the paper).
///
/// Every vector this type takes or fills (`f`, `b`, `p`, `s`, `pinned`) is
/// `ceil(W / 64)` words over the same ring positions, bit `i % 64` of word
/// `i / 64` for position `i`. The two operations map to the bit-parallel
/// structures of Figures 4 and 5:
///
/// * [`validate`](Self::validate) — `p = f ∨ Rᵀf`, `s = b ∨ Rb`, cycle iff
///   `p ∧ s ≠ 0`; `O(W)` word operations (O(1) clock cycles in hardware).
/// * [`commit`](Self::commit) — one pass that evicts whatever held the new
///   entry's position (clears that one row and that one column) and closes
///   every row over the new entry: `r[i][j] |= s[i] ∧ p[j]`.
#[derive(Clone, PartialEq, Eq)]
pub struct ReachMatrix {
    cap: usize,
    /// Word-major planes: `rows[k * cap + i]` is word `k` of row `i`, so a
    /// pass over word `k` of every row is contiguous for any `W`.
    rows: Vec<u64>,
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
            rows: vec![0; cap.div_ceil(64) * cap],
        }
    }

    /// Window capacity `W`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Words per vector over the ring positions, `ceil(W / 64)`.
    pub fn words(&self) -> usize {
        self.rows.len() / self.cap
    }

    /// Whether `tᵢ ▷ tⱼ` (position `i` reaches position `j`); `false` when
    /// either position is dead, and `reaches(i, i)` says whether `i` is live.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below the capacity.
    pub fn reaches(&self, i: usize, j: usize) -> bool {
        assert!(i < self.cap && j < self.cap, "position out of range");
        self.rows[(j / 64) * self.cap + i] >> (j % 64) & 1 == 1
    }

    /// Validates a candidate transaction with forward vector `f` and
    /// backward vector `b` (bits on live positions only), filling `p` with
    /// what the candidate reaches and `s` with what reaches it. After an
    /// error `p` and `s` still hold the closure that showed the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CycleDetected`] if `p ∧ s ≠ 0`, i.e. some committed
    /// transaction both reaches and is reached by the candidate.
    ///
    /// # Panics
    ///
    /// Panics if a vector is not [`words`](Self::words) long or `f` names a
    /// position at or beyond the capacity.
    pub fn validate(
        &self,
        f: &[u64],
        b: &[u64],
        p: &mut [u64],
        s: &mut [u64],
    ) -> Result<(), CycleDetected> {
        let widths = [f.len(), b.len(), p.len(), s.len()];
        assert_eq!(widths, [self.words(); 4], "vector width mismatch");

        // p = f | R^T f : the candidate reaches position i directly (f[i])
        // or through any j with f[j] and r[j][i] (row j read whole).
        p.copy_from_slice(f);
        for (k, &word) in f.iter().enumerate() {
            for j in ones(word).map(|bit| k * 64 + bit) {
                for (p, plane) in p.iter_mut().zip(self.rows.chunks_exact(self.cap)) {
                    *p |= plane[j];
                }
            }
        }

        // s = b | R b : position i reaches the candidate directly (b[i]) or
        // through any j with r[i][j] and b[j] (word k of row i against word
        // k of b, one plane at a time, packed 64 rows to a word of s).
        s.copy_from_slice(b);
        for (plane, &b) in self.rows.chunks_exact(self.cap).zip(b) {
            for (s, rows) in s.iter_mut().zip(plane.chunks(64)) {
                for (bit, row) in rows.iter().enumerate() {
                    *s |= u64::from(row & b != 0) << bit;
                }
            }
        }

        if p.iter().zip(s.iter()).any(|(p, s)| p & s != 0) {
            Err(CycleDetected)
        } else {
            Ok(())
        }
    }

    /// Commits the candidate whose closure `p`/`s` was computed by
    /// [`validate`](Self::validate) into ring position `pos`, in one pass
    /// over the planes: whatever held `pos` is evicted — its row is
    /// replaced, its column cleared in every row, and every row that
    /// reached it is OR-ed into `pinned` — and every row that reaches the
    /// candidate (`s[i]`) gains everything the candidate reaches (`p`) and
    /// the candidate itself. The candidate's own `pinned` bit says whether
    /// it reached the entry it evicted.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not below the capacity or a vector is not
    /// [`words`](Self::words) long.
    pub fn commit(&mut self, pos: usize, p: &[u64], s: &[u64], pinned: &mut [u64]) {
        assert!(pos < self.cap, "position {pos} out of range {}", self.cap);
        let widths = [p.len(), s.len(), pinned.len()];
        assert_eq!(widths, [self.words(); 3], "vector width mismatch");

        let (own, shift) = (pos / 64, pos % 64);
        for (k, plane) in self.rows.chunks_exact_mut(self.cap).enumerate() {
            // Word k of the column being replaced, and of the new row: `pos`
            // stops meaning the evicted entry and starts meaning this one.
            let column = u64::from(k == own) << shift;
            let gain = p[k] | column;
            for ((pinned, &s), rows) in pinned.iter_mut().zip(s).zip(plane.chunks_mut(64)) {
                for (bit, row) in rows.iter_mut().enumerate() {
                    *pinned |= u64::from(*row & column != 0) << bit;
                    let reaches_candidate = 0u64.wrapping_sub(s >> bit & 1);
                    *row = (*row & !column) | (reaches_candidate & gain);
                }
            }
            plane[pos] = gain;
        }
        pinned[own] = (pinned[own] & !(1 << shift)) | (p[own] & (1 << shift));
    }

    /// Checks the matrix invariants by recomputing reachability from
    /// scratch (Warshall) and comparing: the stored matrix is transitively
    /// closed, and a bit names two live positions (both reach themselves),
    /// so dead rows and columns are empty. Intended for tests and debug
    /// assertions; `O(W³)`.
    pub fn closure_invariant_holds(&self) -> bool {
        let mut closed = self.clone();
        for k in 0..self.cap {
            for i in 0..self.cap {
                if closed.reaches(i, k) {
                    for plane in closed.rows.chunks_exact_mut(self.cap) {
                        plane[i] |= plane[k];
                    }
                }
            }
        }
        let live = |i| self.reaches(i, i);
        let between_live = (0..self.cap)
            .all(|i| (0..self.cap).all(|j| !self.reaches(i, j) || (live(i) && live(j))));
        closed == *self && between_live
    }
}

impl fmt::Debug for ReachMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ReachMatrix[{}]", self.cap)?;
        for i in 0..self.cap {
            write!(f, "  {i:3}: ")?;
            for j in 0..self.cap {
                write!(f, "{}", if self.reaches(i, j) { '1' } else { '.' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepVec;

    /// The words of a `cap`-position vector with `ones` set.
    fn bits(cap: usize, ones: &[usize]) -> Vec<u64> {
        let mut v = DepVec::new(cap);
        ones.iter().for_each(|&i| v.set(i));
        v.as_words().to_vec()
    }

    /// A matrix with the scratch a caller keeps beside it.
    struct Manager {
        m: ReachMatrix,
        next: usize,
        pinned: Vec<u64>,
    }

    impl Manager {
        fn new(cap: usize) -> Self {
            Self {
                m: ReachMatrix::new(cap),
                next: 0,
                pinned: bits(cap, &[]),
            }
        }

        fn validate(&self, f: &[usize], b: &[usize]) -> Result<[Vec<u64>; 2], CycleDetected> {
            let cap = self.m.capacity();
            let (mut p, mut s) = (bits(cap, &[]), bits(cap, &[]));
            self.m
                .validate(&bits(cap, f), &bits(cap, b), &mut p, &mut s)?;
            Ok([p, s])
        }

        /// Commits a transaction with the given direct dependencies into
        /// the next ring position, panicking on a cycle.
        fn commit(&mut self, f: &[usize], b: &[usize]) -> usize {
            let [p, s] = self.validate(f, b).expect("unexpected cycle");
            let pos = self.next % self.m.capacity();
            self.m.commit(pos, &p, &s, &mut self.pinned);
            self.next += 1;
            assert!(self.m.closure_invariant_holds());
            pos
        }
    }

    #[test]
    fn first_commit_reaches_itself() {
        let mut m = Manager::new(8);
        assert!(!m.m.reaches(0, 0), "dead until committed");
        assert_eq!(m.commit(&[], &[]), 0);
        assert!(m.m.reaches(0, 0));
    }

    #[test]
    fn chain_is_transitively_closed() {
        // t0 -> t1 -> t2 (each new txn is after the previous: b on prev).
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        m.commit(&[], &[0]);
        m.commit(&[], &[1]);
        assert!(m.m.reaches(0, 2), "closure must include t0 -> t2");
        assert!(!m.m.reaches(2, 0));
    }

    #[test]
    fn forward_dep_orders_candidate_before() {
        // t0 commits; t1 has f = {0}: t1 ->rw t0 (t1 serialises BEFORE t0).
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        m.commit(&[0], &[]);
        assert!(m.m.reaches(1, 0), "t1 must reach t0");
        assert!(!m.m.reaches(0, 1));
    }

    #[test]
    fn direct_cycle_rejected() {
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        assert_eq!(m.validate(&[0], &[0]).unwrap_err(), CycleDetected);
    }

    #[test]
    fn transitive_cycle_rejected() {
        // t0 -> t1; a candidate with f = {0} (t -> t0) and b = {1}
        // (t1 -> t) closes t -> t0 -> t1 -> t.
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        m.commit(&[], &[0]);
        assert_eq!(m.validate(&[0], &[1]).unwrap_err(), CycleDetected);
        // f = {1}, b = {0} puts t between them: t0 -> t -> t1, no cycle.
        m.validate(&[1], &[0]).expect("t0 -> t -> t1");
    }

    #[test]
    fn reordering_allowed_without_cycle() {
        // The phantom-ordering scenario of Fig. 2(a): t0 overwrote what the
        // candidate read, so the candidate precedes t0 (f). TOCC with start
        // timestamps would abort; ROCoCo commits.
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        let pos = m.commit(&[0], &[]);
        assert!(m.m.reaches(pos, 0));
    }

    #[test]
    fn eviction_clears_one_row_and_one_column_and_moves_nothing() {
        let mut m = Manager::new(4);
        m.commit(&[], &[]); // t0
        m.commit(&[], &[0]); // t1, t0 -> t1
        m.commit(&[], &[1]); // t2, chain
        m.commit(&[], &[]); // t3, unrelated
        assert_eq!(m.commit(&[], &[3]), 0, "t4 takes over t0's position");
        // t1 -> t2 is where it was; nothing reaches or is reached by t0.
        assert!(m.m.reaches(1, 2) && !m.m.reaches(2, 1));
        assert!(m.m.reaches(3, 0), "t3 -> t4");
        for live in 1..3 {
            assert!(!m.m.reaches(0, live), "t0's row went with it");
            assert!(!m.m.reaches(live, 0), "t0's column went with it");
        }
        assert_eq!(m.pinned, [0], "nothing reached t0");
    }

    #[test]
    fn commit_pins_what_reached_the_evicted_entry() {
        let mut m = Manager::new(3);
        m.commit(&[], &[]); // t0
        m.commit(&[0], &[]); // t1 -> t0
        m.commit(&[], &[]); // t2
                            // t3 evicts t0 and itself precedes it: t1 and t3 are pinned.
        assert_eq!(m.commit(&[0], &[]), 0);
        assert_eq!(m.pinned, [0b011]);
        // t4 evicts t1; nothing live reached t1, and t1's pin goes with it.
        assert_eq!(m.commit(&[], &[]), 1);
        assert_eq!(m.pinned, [0b001]);
    }

    #[test]
    fn diamond_no_false_cycle() {
        // t0 -> t1, t0 -> t2, candidate after both: no cycle.
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        m.commit(&[], &[0]);
        m.commit(&[], &[0]);
        m.commit(&[], &[1, 2]);
        assert!(m.m.reaches(0, 3));
    }

    #[test]
    fn concurrent_transactions_stay_unrelated() {
        let mut m = Manager::new(8);
        m.commit(&[], &[]);
        m.commit(&[], &[]); // no deps: concurrent with t0
        assert!(!m.m.reaches(0, 1));
        assert!(!m.m.reaches(1, 0));
    }

    #[test]
    fn rows_wider_than_one_word_wrap_the_same_way() {
        // W = 130: three planes, the last 2 bits wide. A chain through
        // every position, twice round the ring.
        let mut m = Manager::new(130);
        m.commit(&[], &[]);
        for n in 1..300usize {
            let pos = m.commit(&[], &[(n - 1) % 130]);
            assert_eq!(pos, n % 130);
            let oldest = n.saturating_sub(129);
            assert!(m.m.reaches(oldest % 130, pos), "commit {n}");
            assert!(!m.m.reaches(pos, oldest % 130) || oldest == n);
        }
        assert_eq!(m.pinned, [0; 3], "a chain's head reaches no one older");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn vectors_of_another_window_are_rejected() {
        let m = Manager::new(65);
        let (mut p, mut s) = (vec![0; 2], vec![0; 2]);
        let _ = m.m.validate(&[0], &[0, 0], &mut p, &mut s);
    }
}
