//! The ROCoCo validator: matrix + window bundled behind a sequence-number
//! interface.

use crate::depvec::ones;
use crate::matrix::ReachMatrix;
use crate::window::{Seq, SlidingWindow};
use std::{fmt, mem};

/// Why a transaction was rejected by the validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Committing would create a cycle in `→rw` (a true serializability
    /// violation — every CC algorithm must abort this transaction).
    Cycle,
    /// The transaction's snapshot predates the sliding window: commits it
    /// has not observed were already evicted, so its dependencies can no
    /// longer be tracked ("transactions that neglect updates of `t_{k−W}`
    /// abort", section 4.2).
    WindowOverflow,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Cycle => write!(f, "dependency cycle detected"),
            RejectReason::WindowOverflow => write!(f, "snapshot older than the sliding window"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Validation outcome for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Commit granted; the transaction received this global sequence number.
    Committed(Seq),
    /// Commit denied.
    Rejected(RejectReason),
}

impl Verdict {
    /// Whether the verdict is a commit.
    pub fn is_commit(&self) -> bool {
        matches!(self, Verdict::Committed(_))
    }
}

/// The R/W dependencies of a candidate transaction, expressed against global
/// commit sequence numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnDeps {
    /// The candidate has observed every commit with `seq < snapshot` (the
    /// CPU side's `ValidTS`).
    pub snapshot: Seq,
    /// Commits the candidate must *precede* (`t →rw tᵢ`): transactions that
    /// overwrote data the candidate read from an older version. Only commits
    /// with `seq >= snapshot` can appear here.
    pub forward: Vec<Seq>,
    /// Commits the candidate must *succeed* (`tᵢ →rw t`): transactions whose
    /// updates the candidate read, whose reads the candidate overwrites, or
    /// whose writes the candidate overwrites.
    pub backward: Vec<Seq>,
}

/// A ROCoCo validator: the reachability matrix and the sliding window of
/// per-commit bookkeeping entries `T`, kept in lockstep.
///
/// This is the *algorithmic* validator used directly by the trace-driven CC
/// simulators; the FPGA pipeline model in `rococo-fpga` wraps it with
/// signature-based conflict detection and timing. Both drive the one
/// [`ReachMatrix`], over ring positions: the commit with sequence number
/// `seq` is position `seq % W` of every vector here.
#[derive(Debug, Clone)]
pub struct RococoValidator<T> {
    matrix: ReachMatrix,
    window: SlidingWindow<T>,
    /// Window commits that must precede every future candidate.
    ///
    /// When a transaction `tᵢ` is evicted, pairs involving `tᵢ` fall back to
    /// *strict* serializability (section 5.1): `tᵢ` is ordered before every
    /// future transaction. Any window transaction `tⱼ` that reaches `tᵢ`
    /// therefore also precedes every future candidate; recording `tⱼ` here
    /// (and OR-ing the vector into each candidate's backward vector)
    /// preserves those constraints after the matrix forgets `tᵢ`.
    pinned: Vec<u64>,
    /// Scratch of one validation, kept so that none allocates: the
    /// candidate's backward vector with `pinned` OR-ed in, its `p`/`s`, and
    /// the `f`/`b` the sequence-number adapter builds.
    backward: Vec<u64>,
    p: Vec<u64>,
    s: Vec<u64>,
    f: Vec<u64>,
    b: Vec<u64>,
}

impl<T> RococoValidator<T> {
    /// Creates a validator with window capacity `w` (the paper uses 64).
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        let matrix = ReachMatrix::new(w);
        let zero = vec![0; matrix.words()];
        Self {
            matrix,
            window: SlidingWindow::new(w),
            pinned: zero.clone(),
            backward: zero.clone(),
            p: zero.clone(),
            s: zero.clone(),
            f: zero.clone(),
            b: zero,
        }
    }

    /// Window capacity `W`.
    pub fn capacity(&self) -> usize {
        self.matrix.capacity()
    }

    /// The sliding window of bookkeeping entries (oldest first).
    pub fn window(&self) -> &SlidingWindow<T> {
        &self.window
    }

    /// The reachability matrix, indexed by ring position.
    pub fn matrix(&self) -> &ReachMatrix {
        &self.matrix
    }

    /// The window commits that reached a commit at its eviction, as a bit
    /// vector over ring positions.
    pub fn pinned(&self) -> &[u64] {
        &self.pinned
    }

    /// Sequence number the next committed transaction will receive.
    pub fn next_seq(&self) -> Seq {
        self.window.next_seq()
    }

    /// Oldest sequence still tracked, if any.
    pub fn oldest_seq(&self) -> Option<Seq> {
        self.window.oldest_seq()
    }

    /// Ring position of commit `seq` (`seq % W`), if it is still tracked.
    pub fn position_of(&self, seq: Seq) -> Option<usize> {
        let live = self.window.slot_of(seq).is_some();
        live.then(|| (seq % self.capacity() as Seq) as usize)
    }

    /// Checks whether a transaction with the given snapshot could still be
    /// validated, or would be rejected for window overflow.
    pub fn snapshot_in_window(&self, snapshot: Seq) -> bool {
        match self.window.oldest_seq() {
            Some(oldest) => snapshot >= oldest,
            None => true,
        }
    }

    /// Validates a candidate and, on success, commits it with bookkeeping
    /// `entry`, returning its sequence number. An adapter for callers that
    /// hold their dependencies as sequence numbers: it sets each one's ring
    /// position in kept scratch (allocating nothing) and calls
    /// [`validate_and_commit_vectors`](Self::validate_and_commit_vectors).
    ///
    /// # Errors
    ///
    /// * [`RejectReason::WindowOverflow`] if the snapshot predates the
    ///   window or a forward dependency targets an evicted commit;
    /// * [`RejectReason::Cycle`] if committing would create a dependency
    ///   cycle.
    pub fn validate_and_commit(&mut self, deps: &TxnDeps, entry: T) -> Result<Seq, RejectReason> {
        let (mut f, mut b) = (mem::take(&mut self.f), mem::take(&mut self.b));
        let verdict = self
            .ring_vectors(deps, &mut f, &mut b)
            .and_then(|()| self.validate_and_commit_vectors(deps.snapshot, &f, &b, entry));
        (self.f, self.b) = (f, b);
        verdict
    }

    /// The dependencies of `deps` as bit vectors over ring positions.
    fn ring_vectors(
        &self,
        deps: &TxnDeps,
        f: &mut [u64],
        b: &mut [u64],
    ) -> Result<(), RejectReason> {
        f.fill(0);
        for &seq in &deps.forward {
            // A forward dependency on an evicted commit can no longer be
            // ordered; with the snapshot check this should not occur, but a
            // caller racing the window must abort.
            let pos = self.position_of(seq).ok_or(RejectReason::WindowOverflow)?;
            f[pos / 64] |= 1 << (pos % 64);
        }
        b.fill(0);
        // A backward dependency on an evicted commit is satisfied by
        // construction: evicted transactions are strictly serialised before
        // every candidate. Transactions that *reach* evicted commits are
        // covered by the pinned vector.
        for pos in deps
            .backward
            .iter()
            .filter_map(|&seq| self.position_of(seq))
        {
            b[pos / 64] |= 1 << (pos % 64);
        }
        Ok(())
    }

    /// Validates a candidate whose dependencies are already adjacency
    /// vectors over ring positions — bit `seq % W` of `f`: the candidate
    /// must precede the live commit `seq`, of `b`: it must succeed it — and,
    /// on success, commits it with bookkeeping `entry`, returning its
    /// sequence number. This is the Detector→Manager hand-off of Figure 5;
    /// it allocates nothing and moves nothing: the commit takes over the
    /// ring position of the commit it evicts.
    ///
    /// # Errors
    ///
    /// * [`RejectReason::WindowOverflow`] if `snapshot` predates the window;
    /// * [`RejectReason::Cycle`] if committing would create a dependency
    ///   cycle.
    ///
    /// # Panics
    ///
    /// Panics if `f`/`b` are not `ceil(W / 64)` words; in debug builds, if
    /// a dependency bit names a position no live commit holds.
    pub fn validate_and_commit_vectors(
        &mut self,
        snapshot: Seq,
        f: &[u64],
        b: &[u64],
        entry: T,
    ) -> Result<Seq, RejectReason> {
        if !self.snapshot_in_window(snapshot) {
            return Err(RejectReason::WindowOverflow);
        }
        assert_eq!(b.len(), self.backward.len(), "vector width mismatch");
        let live = |v: &[u64]| {
            let named = |(k, &word)| ones(word).map(move |bit| k * 64 + bit);
            let mut named = v.iter().enumerate().flat_map(named);
            named.all(|i| i < self.capacity() && self.matrix.reaches(i, i))
        };
        debug_assert!(
            live(f) && live(b),
            "dependency on a position outside the live window"
        );

        // Everything that reaches an evicted commit precedes the candidate.
        for ((out, b), pinned) in self.backward.iter_mut().zip(b).zip(&self.pinned) {
            *out = b | pinned;
        }
        self.matrix
            .validate(f, &self.backward, &mut self.p, &mut self.s)
            .map_err(|_| RejectReason::Cycle)?;

        // The commit takes the ring position of the commit W before it.
        // Before that one is forgotten, everything that reaches it — the
        // candidate included — inherits its must-precede-the-future
        // constraint; `commit` collects exactly those into `pinned`.
        let pos = (self.next_seq() % self.capacity() as Seq) as usize;
        self.matrix.commit(pos, &self.p, &self.s, &mut self.pinned);
        let (seq, _evicted) = self.window.push(entry);
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepVec;

    fn deps(snapshot: Seq, forward: &[Seq], backward: &[Seq]) -> TxnDeps {
        TxnDeps {
            snapshot,
            forward: forward.to_vec(),
            backward: backward.to_vec(),
        }
    }

    /// The two entry points; every scenario below runs through both.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Adapter,
        Vectors,
    }

    const BOTH: [Path; 2] = [Path::Adapter, Path::Vectors];

    impl Path {
        fn commit<T>(
            self,
            v: &mut RococoValidator<T>,
            deps: &TxnDeps,
            entry: T,
        ) -> Result<Seq, RejectReason> {
            match self {
                Path::Adapter => v.validate_and_commit(deps, entry),
                // What a caller holding ring vectors does: an evicted commit
                // has no position, so a backward edge to it is not expressible.
                Path::Vectors => {
                    let (mut f, mut b) = (DepVec::new(v.capacity()), DepVec::new(v.capacity()));
                    for &seq in &deps.forward {
                        f.set(v.position_of(seq).expect("forward dep is live"));
                    }
                    for pos in deps.backward.iter().filter_map(|&s| v.position_of(s)) {
                        b.set(pos);
                    }
                    v.validate_and_commit_vectors(deps.snapshot, f.as_words(), b.as_words(), entry)
                }
            }
        }
    }

    #[test]
    fn independent_commits_get_sequential_seqs() {
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(4);
            for i in 0..3 {
                let seq = path.commit(&mut v, &deps(i, &[], &[]), ()).unwrap();
                assert_eq!(seq, i, "{path:?}");
            }
        }
    }

    #[test]
    fn cycle_is_rejected() {
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(4);
            path.commit(&mut v, &deps(0, &[], &[]), ()).unwrap();
            let err = path.commit(&mut v, &deps(0, &[0], &[0]), ()).unwrap_err();
            assert_eq!(err, RejectReason::Cycle, "{path:?}");
        }
    }

    #[test]
    fn stale_snapshot_overflows() {
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(2);
            for i in 0..3 {
                path.commit(&mut v, &deps(i, &[], &[]), ()).unwrap();
            }
            // Window now holds seqs {1, 2}; snapshot 0 predates it.
            let err = path.commit(&mut v, &deps(0, &[], &[]), ()).unwrap_err();
            assert_eq!(err, RejectReason::WindowOverflow, "{path:?}");
            // Snapshot 1 is still fine.
            path.commit(&mut v, &deps(1, &[], &[1]), ()).unwrap();
        }
    }

    #[test]
    fn forward_dep_on_evicted_commit_overflows() {
        // Only sequence numbers can name an evicted commit.
        let mut v: RococoValidator<()> = RococoValidator::new(2);
        for i in 0..3 {
            v.validate_and_commit(&deps(i, &[], &[]), ()).unwrap();
        }
        let err = v.validate_and_commit(&deps(1, &[0], &[]), ()).unwrap_err();
        assert_eq!(err, RejectReason::WindowOverflow);
    }

    #[test]
    fn backward_dep_on_evicted_commit_is_dropped() {
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(2);
            for i in 0..3 {
                path.commit(&mut v, &deps(i, &[], &[]), ()).unwrap();
            }
            // seq 0 is evicted; a backward edge to it is harmless.
            let seq = path.commit(&mut v, &deps(3, &[], &[0, 2]), ()).unwrap();
            assert_eq!(seq, 3, "{path:?}");
        }
    }

    #[test]
    fn transitive_cycle_across_commits() {
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(8);
            path.commit(&mut v, &deps(0, &[], &[]), ()).unwrap(); // t0
            path.commit(&mut v, &deps(0, &[], &[0]), ()).unwrap(); // t0 -> t1
                                                                   // Candidate: t -> t0 (forward), t1 -> t (backward): cycle.
            let err = path.commit(&mut v, &deps(0, &[0], &[1]), ()).unwrap_err();
            assert_eq!(err, RejectReason::Cycle, "{path:?}");
            // But t -> t0 alone is the phantom-ordering case ROCoCo admits.
            path.commit(&mut v, &deps(0, &[0], &[]), ()).unwrap();
        }
    }

    #[test]
    fn bookkeeping_entries_follow_commits() {
        for path in BOTH {
            let mut v: RococoValidator<&'static str> = RococoValidator::new(2);
            path.commit(&mut v, &deps(0, &[], &[]), "a").unwrap();
            path.commit(&mut v, &deps(1, &[], &[]), "b").unwrap();
            path.commit(&mut v, &deps(2, &[], &[]), "c").unwrap();
            assert_eq!(v.window().get_seq(1), Some(&"b"));
            assert_eq!(v.window().get_seq(2), Some(&"c"));
            assert_eq!(v.window().get_seq(0), None);
        }
    }

    #[test]
    fn cycle_through_evicted_commit_is_still_caught() {
        // W = 2. t1 serialises BEFORE t0 (forward edge); t0 is then
        // evicted. A later candidate with a forward edge to t1 would close
        // the cycle candidate -> t1 -> t0 -> (strict order) -> candidate;
        // the pinned vector must catch it even though t0 is forgotten.
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(2);
            path.commit(&mut v, &deps(0, &[], &[]), ()).unwrap(); // t0
            path.commit(&mut v, &deps(0, &[0], &[]), ()).unwrap(); // t1 -> t0
            path.commit(&mut v, &deps(1, &[], &[]), ()).unwrap(); // t2 evicts t0
            let err = path.commit(&mut v, &deps(1, &[1], &[]), ()).unwrap_err();
            assert_eq!(err, RejectReason::Cycle, "{path:?}");
        }
    }

    #[test]
    fn pinning_does_not_block_forward_progress() {
        // After heavy eviction, ordinary transactions with fresh snapshots
        // still commit.
        for path in BOTH {
            let mut v: RococoValidator<()> = RococoValidator::new(2);
            for i in 0..20 {
                path.commit(&mut v, &deps(i, &[], &[i.saturating_sub(1)]), ())
                    .unwrap();
            }
            assert_eq!(v.next_seq(), 20, "{path:?}");
        }
    }

    #[test]
    fn a_rejection_leaves_no_trace_in_the_kept_scratch() {
        // The p/s and backward scratch survive between calls; a cycle
        // abort's leftovers must not leak into the next verdict.
        let mut v: RococoValidator<()> = RococoValidator::new(4);
        let mut fresh = v.clone();
        Path::Vectors
            .commit(&mut v, &deps(0, &[], &[]), ())
            .unwrap();
        Path::Vectors
            .commit(&mut fresh, &deps(0, &[], &[]), ())
            .unwrap();
        Path::Vectors
            .commit(&mut v, &deps(0, &[0], &[0]), ())
            .unwrap_err();
        for d in [deps(0, &[0], &[]), deps(1, &[], &[1]), deps(0, &[1], &[0])] {
            assert_eq!(
                Path::Vectors.commit(&mut v, &d, ()),
                Path::Adapter.commit(&mut fresh, &d, ())
            );
            assert_eq!(v.matrix(), fresh.matrix());
        }
    }

    #[test]
    fn mixed_adapter_and_vector_calls_keep_the_closure_invariant() {
        // The shape of matrix_props.rs's random histories (snapshot and
        // dependencies as offsets back from the newest commit), through a
        // validator whose callers alternate at random between the two entry
        // points, against one driven through the adapter alone.
        let mut state = 0x0dd_ba11u64;
        let mut rand = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for window in [1usize, 2, 3, 8, 64, 65] {
            let mut mixed: RococoValidator<()> = RococoValidator::new(window);
            let mut plain = mixed.clone();
            let (mut commits, mut cycles) = (0, 0);
            for _ in 0..600 {
                let next = mixed.next_seq();
                let oldest = mixed.oldest_seq().unwrap_or(0);
                // Sometimes one short of the window, to overflow.
                let snapshot = next.saturating_sub(rand(window as u64 + 2));
                let live = |back: u64| next.checked_sub(1 + back).filter(|&s| s >= oldest);
                let forward: Vec<Seq> = (0..rand(3))
                    .filter_map(|_| live(rand(8)).filter(|&s| s >= snapshot))
                    .collect();
                let backward: Vec<Seq> = (0..rand(4)).filter_map(|_| live(rand(12))).collect();
                let d = deps(snapshot, &forward, &backward);
                let path = BOTH[rand(2) as usize];
                let got = path.commit(&mut mixed, &d, ());
                assert_eq!(got, plain.validate_and_commit(&d, ()), "W={window} {d:?}");
                match got {
                    Ok(_) => commits += 1,
                    Err(RejectReason::Cycle) => cycles += 1,
                    Err(RejectReason::WindowOverflow) => {}
                }
                assert!(mixed.matrix().closure_invariant_holds(), "W={window}");
                assert_eq!(mixed.matrix(), plain.matrix());
            }
            assert!(commits > 100, "W={window}: {commits} commits");
            assert!(window == 1 || cycles > 0, "W={window}: no cycle exercised");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn a_short_backward_vector_is_rejected_not_padded_with_the_last_call() {
        let mut v: RococoValidator<()> = RococoValidator::new(65);
        let _ = v.validate_and_commit_vectors(0, &[0, 0], &[0], ());
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Committed(3).is_commit());
        assert!(!Verdict::Rejected(RejectReason::Cycle).is_commit());
    }
}
