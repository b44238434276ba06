//! Property tests: the ROCoCo validator against a brute-force oracle.
//!
//! The oracle maintains the *full* dependency graph over every committed
//! transaction (never forgetting evicted ones, and adding the strict
//! edges `evicted → future` the sliding window imposes). Soundness:
//! whenever the validator admits a transaction, the oracle graph must
//! remain acyclic.
//!
//! And the ring layout against itself: `ring_positions_survive_the_wrap`
//! laps the ring three times per window size and, after every commit,
//! compares every bit of the matrix and of `pinned` with a from-scratch
//! closure over the live commits — a dead row or column holding a stale
//! bit is the bug a layout that never shifts can have.

use proptest::prelude::*;
use rococo_core::order::DiGraph;
use rococo_core::{DepVec, RejectReason, RococoValidator, TxnDeps};
use std::collections::BTreeSet;

/// One randomly-shaped candidate: which recent commits it precedes /
/// succeeds, as offsets from the newest commit.
#[derive(Debug, Clone)]
struct Candidate {
    snapshot_back: u64,
    forward_back: Vec<u64>,
    backward_back: Vec<u64>,
}

fn candidate() -> impl Strategy<Value = Candidate> {
    (
        0u64..6,
        prop::collection::vec(0u64..8, 0..3),
        prop::collection::vec(0u64..12, 0..4),
    )
        .prop_map(|(snapshot_back, forward_back, backward_back)| Candidate {
            snapshot_back,
            forward_back,
            backward_back,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn validator_is_sound_under_random_histories(
        window in 2usize..10,
        cands in prop::collection::vec(candidate(), 1..60),
    ) {
        let mut v: RococoValidator<()> = RococoValidator::new(window);
        // Oracle: global graph over commit sequence numbers. Node i is
        // commit seq i; extra strict edges evicted -> all later commits.
        let cap = cands.len() + 1;
        let mut oracle = DiGraph::new(cap);
        let mut committed: Vec<(Vec<u64>, Vec<u64>)> = Vec::new(); // (f,b) per seq

        for cand in &cands {
            let next = v.next_seq();
            if next == 0 {
                let seq = v
                    .validate_and_commit(&TxnDeps::default(), ())
                    .expect("first commit is unconditional");
                assert_eq!(seq, 0);
                committed.push((vec![], vec![]));
                continue;
            }
            let newest = next - 1;
            let snapshot = newest.saturating_sub(cand.snapshot_back) + 1;
            // Forward deps must target unobserved commits (seq >= snapshot).
            let forward: Vec<u64> = cand
                .forward_back
                .iter()
                .map(|&b| newest.saturating_sub(b))
                .filter(|&s| s >= snapshot)
                .collect();
            let backward: Vec<u64> = cand
                .backward_back
                .iter()
                .map(|&b| newest.saturating_sub(b))
                .collect();
            let deps = TxnDeps { snapshot, forward: forward.clone(), backward: backward.clone() };
            // Strict order applies to commits already evicted when the
            // candidate validates (its own commit may evict a transaction
            // it legitimately precedes, so capture `oldest` first).
            let oldest_before = v.oldest_seq().unwrap_or(0);
            match v.validate_and_commit(&deps, ()) {
                Ok(seq) => {
                    let me = seq as usize;
                    for old in 0..oldest_before {
                        oracle.add_edge(old as usize, me);
                    }
                    for &f in &forward {
                        oracle.add_edge(me, f as usize);
                    }
                    for &b in &backward {
                        oracle.add_edge(b as usize, me);
                    }
                    committed.push((forward, backward));
                    prop_assert!(
                        oracle.is_acyclic(),
                        "validator admitted a transaction that closes a cycle \
                         (seq {seq}, window {window})"
                    );
                }
                Err(RejectReason::Cycle | RejectReason::WindowOverflow) => {
                    // Rejections are always safe; completeness is bounded
                    // by the window and the pinned-vector conservatism.
                }
            }
        }

        // The matrix invariant must hold at the end as well.
        prop_assert!(v.matrix().closure_invariant_holds());
    }

    #[test]
    fn matrix_matches_bruteforce_reachability(
        // Chain/jump structure: each new txn depends backward on a random
        // subset of live positions.
        deps in prop::collection::vec(prop::collection::vec(0usize..6, 0..3), 1..12),
    ) {
        use rococo_core::ReachMatrix;
        let w = 16;
        let mut m = ReachMatrix::new(w);
        let (mut p, mut s, mut pinned) = ([0], [0], [0]);
        let mut edges: Vec<(usize, usize)> = Vec::new(); // no eviction (n < w): position = index
        for (i, ds) in deps.iter().enumerate() {
            let mut b = DepVec::new(w);
            for &d in ds {
                if d < i {
                    b.set(d);
                    edges.push((d, i));
                }
            }
            m.validate(&[0], b.as_words(), &mut p, &mut s)
                .expect("backward-only deps are acyclic");
            m.commit(i, &p, &s, &mut pinned);
        }
        prop_assert_eq!(pinned, [0], "nothing was evicted");
        // Brute-force closure.
        let n = deps.len();
        let mut g = DiGraph::new(n);
        for &(u, vtx) in &edges {
            g.add_edge(u, vtx);
        }
        for i in 0..n {
            for j in 0..n {
                let expect = i == j || g.reaches(i, j);
                prop_assert_eq!(
                    m.reaches(i, j),
                    expect,
                    "reachability mismatch at ({}, {})", i, j
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ring_positions_survive_the_wrap(
        // Per candidate: forward and backward dependencies as offsets back
        // from the newest commit (taken modulo the live count).
        picks in prop::collection::vec(
            (prop::collection::vec(0usize..130, 0..3), prop::collection::vec(0usize..130, 0..4)),
            200..400,
        ),
    ) {
        for window in [1usize, 2, 4, 8, 63, 64, 65, 130] {
            // Three times round the ring, however many candidates that takes.
            let mut wrap = Wrap::new(window);
            let mut candidates = picks.iter().cycle().take(40 * window + 200);
            while wrap.v.next_seq() < 3 * window as u64 {
                let (forward_back, backward_back) = candidates.next().expect("too many cycles");
                wrap.drive(forward_back, backward_back);
            }
            prop_assert!(window == 1 || wrap.cycles > 0, "W {}: no cycle exercised", window);
        }
    }
}

/// A validator driven through ring-position vectors beside an oracle that
/// keeps only what a from-scratch computation needs: the direct edges among
/// the live commits, the edges a commit left to its neighbours when it was
/// evicted, and which live commits reached a commit at its eviction (the
/// evicting candidate by its own closure, the others as the window stood
/// before it: one that reaches the evicted commit only *through* the
/// candidate is covered by reaching the pinned candidate).
struct Wrap {
    v: RococoValidator<()>,
    /// Direct and inherited edges between live commits, by sequence number.
    edges: BTreeSet<(u64, u64)>,
    /// Live commits that must precede every future one.
    pinned: BTreeSet<u64>,
    /// Reachability among the live commits after the last commit.
    reach: Vec<DepVec>,
    cycles: usize,
}

impl Wrap {
    fn new(window: usize) -> Self {
        Self {
            v: RococoValidator::new(window),
            edges: BTreeSet::new(),
            pinned: BTreeSet::new(),
            reach: Vec::new(),
            cycles: 0,
        }
    }

    /// Reachability (by one or more edges) among the commits `base..base + n`
    /// over `edges`, by Warshall from nothing; row and bit `seq − base`.
    fn closure(base: u64, n: usize, edges: &BTreeSet<(u64, u64)>) -> Vec<DepVec> {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge((u - base) as usize, (v - base) as usize);
        }
        g.transitive_closure()
    }

    /// One candidate through both, then every bit of the validator against
    /// the oracle.
    fn drive(&mut self, forward_back: &[usize], backward_back: &[usize]) {
        let window = self.v.capacity();
        let me = self.v.next_seq();
        let oldest = self.v.oldest_seq().unwrap_or(me);
        let live = (me - oldest) as usize;
        let pick = |back: &[usize]| -> Vec<u64> {
            let picked = back.iter().filter(|_| live > 0);
            picked.map(|&b| me - 1 - (b % live) as u64).collect()
        };
        let (forward, backward) = (pick(forward_back), pick(backward_back));
        let vector = |seqs: &[u64]| {
            let mut v = DepVec::new(window);
            for &seq in seqs {
                v.set((seq % window as u64) as usize);
            }
            v
        };

        // The oracle's verdict: the candidate with its direct edges and the
        // inherited `pinned → candidate` ones, among the live commits.
        let mut edges = self.edges.clone();
        edges.extend(forward.iter().map(|&f| (me, f)));
        edges.extend(backward.iter().chain(&self.pinned).map(|&b| (b, me)));
        let reach = Self::closure(oldest, live + 1, &edges);
        let cyclic = reach[live].get(live);

        let (f, b) = (vector(&forward), vector(&backward));
        let verdict = self
            .v
            .validate_and_commit_vectors(oldest, f.as_words(), b.as_words(), ());
        if cyclic {
            assert_eq!(verdict, Err(RejectReason::Cycle), "W {window} commit {me}");
            self.cycles += 1;
            return;
        }
        assert_eq!(verdict, Ok(me), "W {window}");
        self.edges = edges;
        if live == window {
            // `oldest` went: whoever reached it is pinned, and its
            // neighbours inherit the paths that ran through it.
            self.pinned.remove(&oldest);
            let before = &self.reach;
            let reached = |i: usize| if i == live { &reach } else { before }[i].get(0);
            let pinned = (1..=live).filter(|&i| reached(i));
            self.pinned.extend(pinned.map(|i| oldest + i as u64));
            let through = |edge: &&(u64, u64)| edge.0 == oldest || edge.1 == oldest;
            let (into, out): (Vec<_>, Vec<_>) = self
                .edges
                .iter()
                .filter(through)
                .partition(|edge| edge.1 == oldest);
            for (&(u, _), &(_, v)) in into.iter().flat_map(|i| out.iter().map(move |o| (i, o))) {
                self.edges.insert((u, v));
            }
            self.edges.retain(|edge| !through(&edge));
        }

        // (i) reachability over the live window, (ii) pinned, (iii) nothing
        // on a dead position — every bit of the matrix and of `pinned`.
        let oldest = self.v.oldest_seq().expect("just committed");
        let reach = Self::closure(oldest, (me + 1 - oldest) as usize, &self.edges);
        let mut seq_at = vec![None; window];
        for seq in oldest..=me {
            seq_at[(seq % window as u64) as usize] = Some(seq);
        }
        let at = |seq: u64| (seq - oldest) as usize;
        let m = self.v.matrix();
        let pinned = self.v.pinned();
        for i in 0..pinned.len() * 64 {
            let expect = seq_at
                .get(i)
                .copied()
                .flatten()
                .is_some_and(|seq| self.pinned.contains(&seq));
            let got = pinned[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(got, expect, "W {window} after commit {me}: pinned[{i}]");
        }
        for (i, j) in (0..window).flat_map(|i| (0..window).map(move |j| (i, j))) {
            let expect = match (seq_at[i], seq_at[j]) {
                (Some(a), Some(b)) => a == b || reach[at(a)].get(at(b)),
                _ => false,
            };
            assert_eq!(
                m.reaches(i, j),
                expect,
                "W {window} after commit {me}: ({i}, {j})"
            );
        }
        assert!(m.closure_invariant_holds());
        self.reach = reach;
    }
}
