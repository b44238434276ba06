//! The functional model of the FPGA validation pipeline: Detector + Manager.

use rococo_core::{RejectReason, RococoValidator, Seq};
use rococo_sigs::{PrehashedAddr, Sig, SigScheme};

/// Configuration of the validation engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Sliding-window capacity `W` (64 on HARP2; bounded by the 2D register
    /// file holding the reachability matrix).
    pub window: usize,
    /// Signature geometry (the paper uses `m = 512`, `k = 8`).
    pub scheme: SigScheme,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            window: 64,
            scheme: SigScheme::paper_default(),
        }
    }
}

/// A validation request sent from a CPU worker to the FPGA: the
/// transaction's read/write sets "transferred in terms of address rather
/// than signature, so that the query operation on signatures can be used to
/// minimize the possibility of false positivity" (section 5.3), plus its
/// `ValidTS` snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidateRequest {
    /// Caller-chosen transaction identifier, echoed in the verdict.
    pub tx_id: u64,
    /// The transaction has observed every commit with `seq < valid_ts`.
    pub valid_ts: Seq,
    /// Deduplicated read-set addresses.
    pub read_addrs: Vec<u64>,
    /// Deduplicated write-set addresses.
    pub write_addrs: Vec<u64>,
}

/// The verdict pushed back to the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpgaVerdict {
    /// The transaction may commit; it was assigned this global commit
    /// sequence number (the order in which the Manager admitted it).
    Commit {
        /// Global commit sequence number.
        seq: Seq,
    },
    /// The transaction must abort: committing it would create a dependency
    /// cycle.
    AbortCycle,
    /// The transaction must abort: its snapshot slid out of the window
    /// ("transactions that neglect updates of `t_{k−W}` abort").
    AbortWindowOverflow,
    /// No verdict was produced: the validation service stopped (shutdown
    /// or validator-thread death) while the request was outstanding. The
    /// engine itself never emits this — the service synthesizes it so a
    /// worker blocked in `validate` sees a clean abort instead of a
    /// panic. Callers must treat it as "abort, and do not assume the
    /// request was observed".
    ServiceStopped,
}

impl FpgaVerdict {
    /// Whether the verdict grants a commit.
    pub fn is_commit(&self) -> bool {
        matches!(self, FpgaVerdict::Commit { .. })
    }
}

rococo_telemetry::stats_block! {
    /// Aggregate statistics of the engine: plain counters, bumped by the
    /// one thread that owns the engine.
    #[derive(Copy)]
    pub struct EngineStats;

    counters {
        requests: "rococo_fpga_requests_total", "Validation requests processed by the FPGA engine";
        commits: "rococo_fpga_commits_total", "Commit verdicts granted by the FPGA engine";
    }
    groups {
        "rococo_fpga_aborts_total", "Abort verdicts by cause" {
            /// Aborts due to dependency cycles.
            aborts_cycle: kind = "cycle";
            /// Aborts due to window overflow.
            aborts_window: kind = "window";
        }
    }
}

impl EngineStats {
    /// Total aborts.
    pub fn aborts(&self) -> u64 {
        self.aborts_cycle + self.aborts_window
    }

    /// FPGA-side abort rate (the dotted series of Figure 10).
    pub fn abort_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.aborts() as f64 / self.requests as f64
        }
    }
}

/// The bookkeeping of one kind of signature (read sets, or write sets) of
/// the last `W` commits, stored twice: by entry, and bit-sliced by
/// signature bit.
///
/// The commit with sequence `seq` sits in *ring position* `seq % W` from
/// its commit until commit `seq + W` overwrites it; nothing moves when the
/// window slides.
#[derive(Debug, Clone)]
struct History {
    /// Signature size `m` in bits.
    m_bits: usize,
    /// The column table: bit `p % 64` of `cols[(p / 64) * m + c]` says "the
    /// commit in ring position `p` has bit `c` set in its signature" — one
    /// column of `ceil(W / 64)` words per signature bit, laid out word-major
    /// so that one pass over word `j` of every column is contiguous.
    cols: Vec<u64>,
    /// The signatures themselves, `m / 64` words per ring position: what
    /// eviction reads to know which column bits to clear. All zero for a
    /// position no commit has occupied.
    sigs: Vec<u64>,
}

impl History {
    fn new(window: usize, m_bits: usize) -> Self {
        Self {
            m_bits,
            cols: vec![0; window.div_ceil(64) * m_bits],
            sigs: vec![0; window * (m_bits / 64)],
        }
    }

    /// Which of ring positions `[64 * word, 64 * word + 64)` hold a
    /// signature that may contain one of `addrs`.
    ///
    /// An address is in a signature iff the signature has all `k` of the
    /// address's bits set; ANDing the `k` columns of those bits does that
    /// test for 64 window entries at once, so this is the OR over `addrs`
    /// of `W` `query_prehashed` calls in `k` word loads per address.
    fn hits(&self, addrs: &[PrehashedAddr], word: usize) -> u64 {
        let plane = &self.cols[word * self.m_bits..][..self.m_bits];
        addrs.iter().fold(0, |any, addr| {
            let all = |all, &bit: &u16| all & plane[usize::from(bit)];
            any | addr.bit_indices().iter().fold(u64::MAX, all)
        })
    }

    /// Replaces the entry in ring position `pos` with `sig`: flips the
    /// position's bit in exactly the columns where the outgoing signature
    /// (its words are still stored here, and the columns agree with them, so
    /// no other column can hold a stale bit) and `sig` differ.
    fn replace(&mut self, pos: usize, sig: &Sig) {
        let words = self.m_bits / 64;
        let plane = &mut self.cols[(pos / 64) * self.m_bits..][..self.m_bits];
        let stored = &mut self.sigs[pos * words..][..words];
        let here = 1u64 << (pos % 64);
        for ((old, &new), columns) in stored
            .iter_mut()
            .zip(sig.as_words())
            .zip(plane.chunks_mut(64))
        {
            for bit in ones(*old ^ new) {
                columns[bit] ^= here;
            }
            *old = new;
        }
    }
}

/// Indices of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Bits `[64 * word, 64 * word + 64)` of the mask over `window` ring
/// positions that selects the `len` positions from `start` on, wrapping
/// past `window − 1` to 0.
fn ring_range(word: usize, start: usize, len: usize, window: usize) -> u64 {
    let linear = |lo: usize, hi: usize| {
        let base = word * 64;
        let lo = lo.clamp(base, base + 64) - base;
        let hi = hi.clamp(base, base + 64) - base;
        if lo < hi {
            (u64::MAX >> (64 - (hi - lo))) << lo
        } else {
            0
        }
    };
    let end = start + len;
    linear(start, end.min(window)) | linear(0, end.saturating_sub(window))
}

/// The functional FPGA model: conflict Detector plus ROCoCo Manager.
///
/// Processing one request mirrors the hardware datapath of Figure 5, one
/// explicit step per stage, each working on state the engine keeps (no
/// step allocates):
///
/// 1. **Prehash** — the signature bit indices of every read and write
///    address, computed once at the pipeline's front.
/// 2. **Detector** — the hardware compares each address with the read and
///    write signatures of all `W` window entries in parallel. The software
///    shadow of that comparator array is a pair of bit-sliced column
///    tables (`History`): the AND of an address's `k` columns is its hit
///    mask over every window entry at once. The three hit masks
///    (reads × write signatures, writes × read signatures, writes × write
///    signatures) become the `f` and `b` adjacency vectors by mask
///    arithmetic against the entries the request's `ValidTS` observed (an
///    overlapping writer the transaction already observed is a backward
///    read-after-write dependency, an unobserved one is a forward
///    write-after-read dependency), over the same ring positions.
/// 3. **Manager** — takes the two vectors as they are
///    ([`RococoValidator::validate_and_commit_vectors`]: the reachability
///    matrix is indexed by ring position too), computes `p`/`s`, detects
///    cycles in O(1) cycles, and on commit closes the matrix over the new
///    entry in the row and column of the entry it evicts.
/// 4. **Bookkeeping** — on commit, the new entry's two signatures are
///    built from the step-1 prehashes and replace the evicted entry's, in
///    the stored signatures and in the columns ("two signatures (one for
///    read set and the other for write set) per transaction so that an
///    upper bound of required resources can be determined a priori",
///    section 5.3).
///
/// The engine is deterministic and single-threaded; the crate's
/// `ValidationService` runs it for live TM use on whichever thread waits
/// for a verdict, and
/// [`PipelinedValidator`](crate::PipelinedValidator) adds model timing.
#[derive(Debug, Clone)]
pub struct ValidationEngine {
    scheme: SigScheme,
    validator: RococoValidator<()>,
    stats: EngineStats,
    /// Read-set signatures of the window's commits.
    reads: History,
    /// Write-set signatures of the window's commits.
    writes: History,
    // The request in flight: what each step leaves for the next.
    req_reads: Vec<PrehashedAddr>,
    req_writes: Vec<PrehashedAddr>,
    /// `f`/`b` over ring positions.
    ring_f: Vec<u64>,
    ring_b: Vec<u64>,
    /// The signature being built for the commit.
    sig: Sig,
}

impl ValidationEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.window == 0`.
    pub fn new(config: EngineConfig) -> Self {
        let window = config.window;
        let history = History::new(window, config.scheme.m_bits());
        Self {
            validator: RococoValidator::new(window),
            stats: EngineStats::default(),
            reads: history.clone(),
            writes: history,
            req_reads: Vec::new(),
            req_writes: Vec::new(),
            ring_f: vec![0; window.div_ceil(64)],
            ring_b: vec![0; window.div_ceil(64)],
            sig: config.scheme.new_sig(),
            scheme: config.scheme,
        }
    }

    /// The signature scheme shared with the CPU side.
    pub fn scheme(&self) -> &SigScheme {
        &self.scheme
    }

    /// Window capacity `W`.
    pub fn window(&self) -> usize {
        self.validator.capacity()
    }

    /// Engine statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sequence number the next committed transaction will receive.
    pub fn next_seq(&self) -> Seq {
        self.validator.next_seq()
    }

    /// Step 1: the signature positions of the request's addresses, hashed
    /// once for both the Detector's queries and the commit's signatures.
    fn prehash(&mut self, req: &ValidateRequest) {
        let scheme = &self.scheme;
        self.req_reads.clear();
        self.req_reads
            .extend(req.read_addrs.iter().map(|&a| scheme.prehash(a)));
        self.req_writes.clear();
        self.req_writes
            .extend(req.write_addrs.iter().map(|&a| scheme.prehash(a)));
    }

    /// Step 2, the Detector: derives the prehashed request's `f`/`b`
    /// vectors. `valid_ts` must not predate the window.
    fn detect(&mut self, valid_ts: Seq) {
        let window = self.window();
        let next = self.validator.next_seq();
        let oldest = self.validator.oldest_seq().unwrap_or(next);
        // The window's commits sit in ring positions `oldest % W` onwards
        // (wrapping), oldest first; the request observed the first
        // `valid_ts − oldest` of them.
        let start = (oldest % window as u64) as usize;
        let observed = (valid_ts.min(next) - oldest) as usize;
        for word in 0..self.ring_f.len() {
            // Read-set vs committed write-sets: RAW if observed, forward
            // (the candidate read the overwritten version) otherwise.
            let raw = self.writes.hits(&self.req_reads, word);
            // Write-set vs committed read-sets (WAR) and write-sets (WAW):
            // both order the committed transaction before the candidate.
            let war = self.reads.hits(&self.req_writes, word);
            let waw = self.writes.hits(&self.req_writes, word);
            let seen = ring_range(word, start, observed, window);
            // Positions outside the live window hold no signature bits, so
            // they never hit: the vectors name live commits only.
            self.ring_f[word] = raw & !seen;
            self.ring_b[word] = (raw & seen) | war | waw;
        }
    }

    /// Step 4: the commit `seq` takes over ring position `seq % W` from
    /// commit `seq − W`, which the Manager just evicted.
    fn record(&mut self, seq: Seq) {
        let pos = (seq % self.window() as u64) as usize;
        for (history, addrs) in [
            (&mut self.reads, &self.req_reads),
            (&mut self.writes, &self.req_writes),
        ] {
            self.sig.clear();
            for addr in addrs {
                self.scheme.insert_prehashed(&mut self.sig, addr);
            }
            history.replace(pos, &self.sig);
        }
    }

    /// Processes one validation request end to end and returns the verdict.
    pub fn process(&mut self, req: &ValidateRequest) -> FpgaVerdict {
        self.stats.requests += 1;

        if !self.validator.snapshot_in_window(req.valid_ts) {
            self.stats.aborts_window += 1;
            return FpgaVerdict::AbortWindowOverflow;
        }

        self.prehash(req);
        self.detect(req.valid_ts);
        // Step 3, the Manager.
        let verdict = self.validator.validate_and_commit_vectors(
            req.valid_ts,
            &self.ring_f,
            &self.ring_b,
            (),
        );
        match verdict {
            Ok(seq) => {
                self.record(seq);
                self.stats.commits += 1;
                FpgaVerdict::Commit { seq }
            }
            Err(RejectReason::Cycle) => {
                self.stats.aborts_cycle += 1;
                FpgaVerdict::AbortCycle
            }
            Err(RejectReason::WindowOverflow) => {
                self.stats.aborts_window += 1;
                FpgaVerdict::AbortWindowOverflow
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rococo_core::TxnDeps;
    use rococo_trace::{eigen_trace, EigenConfig};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    fn req(tx_id: u64, valid_ts: Seq, reads: &[u64], writes: &[u64]) -> ValidateRequest {
        ValidateRequest {
            tx_id,
            valid_ts,
            read_addrs: reads.to_vec(),
            write_addrs: writes.to_vec(),
        }
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut e = ValidationEngine::new(EngineConfig::default());
        for i in 0..100u64 {
            let v = e.process(&req(i, e.next_seq(), &[i * 2 + 10_000], &[i * 2 + 10_001]));
            assert!(v.is_commit(), "txn {i}: {v:?}");
        }
        assert_eq!(e.stats().commits, 100);
    }

    #[test]
    fn stale_read_is_reordered_not_aborted() {
        // t0 writes A. t1 read A's OLD version (valid_ts = 0, i.e. it did
        // not observe t0). ROCoCo orders t1 before t0 and commits both.
        let mut e = ValidationEngine::new(EngineConfig::default());
        assert!(e.process(&req(0, 0, &[], &[100])).is_commit());
        assert!(e.process(&req(1, 0, &[100], &[200])).is_commit());
    }

    #[test]
    fn write_skew_cycle_aborts() {
        // t0: reads Y writes X (commits). t1: read X's old version, writes
        // Y -> t1 must precede t0 (forward) AND succeed t0 (t0 read Y which
        // t1 writes): cycle.
        let mut e = ValidationEngine::new(EngineConfig::default());
        assert!(e.process(&req(0, 0, &[7], &[8])).is_commit());
        let v = e.process(&req(1, 0, &[8], &[7]));
        assert_eq!(v, FpgaVerdict::AbortCycle);
        assert_eq!(e.stats().aborts_cycle, 1);
    }

    #[test]
    fn observed_commit_is_backward_dependency() {
        // t1 observed t0 (valid_ts = 1) and read what t0 wrote: plain RAW,
        // commits.
        let mut e = ValidationEngine::new(EngineConfig::default());
        assert!(e.process(&req(0, 0, &[], &[100])).is_commit());
        assert!(e.process(&req(1, 1, &[100], &[300])).is_commit());
    }

    #[test]
    fn window_overflow_rejected_fast() {
        let mut e = ValidationEngine::new(EngineConfig {
            window: 4,
            ..EngineConfig::default()
        });
        for i in 0..6u64 {
            assert!(e
                .process(&req(i, e.next_seq(), &[], &[i + 50_000]))
                .is_commit());
        }
        // Oldest tracked seq is 2; a snapshot of 1 predates the window.
        let v = e.process(&req(99, 1, &[1], &[2]));
        assert_eq!(v, FpgaVerdict::AbortWindowOverflow);
        assert_eq!(e.stats().aborts_window, 1);
    }

    #[test]
    fn ww_order_recorded() {
        // Two writers to the same address commit in order; a reader that
        // observed only the first but reads the address again must be
        // ordered between them (forward to the second writer) — allowed.
        let mut e = ValidationEngine::new(EngineConfig::default());
        assert!(e.process(&req(0, 0, &[], &[500])).is_commit()); // seq 0
        assert!(e.process(&req(1, 1, &[], &[500])).is_commit()); // seq 1 (WAW)
        assert!(e.process(&req(2, 1, &[500], &[600])).is_commit());
    }

    #[test]
    fn cycle_after_reorder_chain() {
        // t0 writes A (seq0). t1 reads old A, writes B (forward to t0,
        // commits; serialised before t0). t2 observed both, reads B... and
        // writes A: t2 after t1 (RAW on B), t2 after t0 (WAW on A): fine.
        // t3 with valid_ts=0 reads A-old and B-old? reads old B written by
        // t1 (forward t3->t1) and writes... something t0 read? t0 read
        // nothing. Build explicit cycle: t3 reads old B (f: t3->t1) and
        // writes C where C was read by t1? t1 read A only. Use A: t3
        // writes A: WAW with t0 and t2 (backward), so t3 after t2 after t1,
        // but t3 before t1: cycle.
        let mut e = ValidationEngine::new(EngineConfig::default());
        assert!(e.process(&req(0, 0, &[], &[1000])).is_commit()); // t0: W A
        assert!(e.process(&req(1, 0, &[1000], &[2000])).is_commit()); // t1: R A(old), W B
        assert!(e.process(&req(2, 2, &[2000], &[1000])).is_commit()); // t2
        let v = e.process(&req(3, 0, &[2000], &[1000])); // reads old B, writes A
        assert_eq!(v, FpgaVerdict::AbortCycle);
    }

    #[test]
    fn stats_accumulate() {
        let mut e = ValidationEngine::new(EngineConfig::default());
        e.process(&req(0, 0, &[1], &[2]));
        e.process(&req(1, 0, &[2], &[1]));
        let s = e.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.commits + s.aborts(), 2);
        assert!(s.abort_rate() >= 0.0);
    }

    #[test]
    fn ring_range_matches_its_definition() {
        for window in [1usize, 2, 5, 63, 64, 65, 128, 130] {
            for start in [0, 1, window / 2, window - 1] {
                for len in [0, 1, window / 3, window - 1, window] {
                    for pos in 0..window.div_ceil(64) * 64 {
                        let selected = (0..len).any(|i| (start + i) % window == pos);
                        let word = ring_range(pos / 64, start, len, window);
                        assert_eq!(
                            word >> (pos % 64) & 1 == 1,
                            selected,
                            "W {window} start {start} len {len} pos {pos}"
                        );
                    }
                }
            }
        }
    }

    /// What the window kept per commit before the column tables: "two
    /// signatures (one for read set and the other for write set) per
    /// transaction" (section 5.3).
    #[derive(Debug, Clone)]
    struct HistoryEntry {
        read_sig: Sig,
        write_sig: Sig,
    }

    /// The reference model: the engine as it was before the column tables,
    /// its Detector verbatim — one pass over the window entry by entry, one
    /// `query_prehashed` per (address, entry), the dependencies handed to
    /// the validator as sequence numbers. Slow and plainly the paper's
    /// definition; the differential tests hold the engine to it verdict for
    /// verdict.
    struct Reference {
        scheme: SigScheme,
        validator: RococoValidator<HistoryEntry>,
        stats: EngineStats,
    }

    impl Reference {
        fn new(config: EngineConfig) -> Self {
            Self {
                scheme: config.scheme,
                validator: RococoValidator::new(config.window),
                stats: EngineStats::default(),
            }
        }

        fn detect(
            &self,
            req: &ValidateRequest,
            reads: &[PrehashedAddr],
            writes: &[PrehashedAddr],
        ) -> TxnDeps {
            let mut deps = TxnDeps {
                snapshot: req.valid_ts,
                forward: Vec::new(),
                backward: Vec::new(),
            };
            for (slot, entry) in self.validator.window().iter() {
                let seq = self.validator.window().seq_of(slot);
                let observed = seq < req.valid_ts;

                // Read-set vs committed write-set: RAW if observed, forward
                // (the candidate read the overwritten version) otherwise.
                let their_write_hits_my_read = reads
                    .iter()
                    .any(|a| self.scheme.query_prehashed(&entry.write_sig, a));
                if their_write_hits_my_read {
                    if observed {
                        deps.backward.push(seq);
                    } else {
                        deps.forward.push(seq);
                    }
                }

                // Write-set vs committed read-set (WAR) and write-set (WAW):
                // both order the committed transaction before the candidate.
                let war = writes
                    .iter()
                    .any(|a| self.scheme.query_prehashed(&entry.read_sig, a));
                let waw = !war
                    && writes
                        .iter()
                        .any(|a| self.scheme.query_prehashed(&entry.write_sig, a));
                if war || waw {
                    deps.backward.push(seq);
                }
            }
            deps
        }

        fn process(&mut self, req: &ValidateRequest) -> FpgaVerdict {
            self.stats.requests += 1;

            if !self.validator.snapshot_in_window(req.valid_ts) {
                self.stats.aborts_window += 1;
                return FpgaVerdict::AbortWindowOverflow;
            }

            let prehash = |addrs: &[u64]| -> Vec<PrehashedAddr> {
                addrs.iter().map(|&a| self.scheme.prehash(a)).collect()
            };
            let deps = self.detect(req, &prehash(&req.read_addrs), &prehash(&req.write_addrs));
            let entry = HistoryEntry {
                read_sig: self.scheme.sig_of(req.read_addrs.iter().copied()),
                write_sig: self.scheme.sig_of(req.write_addrs.iter().copied()),
            };
            match self.validator.validate_and_commit(&deps, entry) {
                Ok(seq) => {
                    self.stats.commits += 1;
                    FpgaVerdict::Commit { seq }
                }
                Err(RejectReason::Cycle) => {
                    self.stats.aborts_cycle += 1;
                    FpgaVerdict::AbortCycle
                }
                Err(RejectReason::WindowOverflow) => {
                    self.stats.aborts_window += 1;
                    FpgaVerdict::AbortWindowOverflow
                }
            }
        }
    }

    impl History {
        /// The column table rebuilt from nothing but the stored signatures.
        fn rebuilt_cols(&self) -> Vec<u64> {
            let words = self.m_bits / 64;
            let mut cols = vec![0; self.cols.len()];
            for (i, &word) in self.sigs.iter().enumerate() {
                let (pos, w) = (i / words, i % words);
                for bit in ones(word) {
                    cols[(pos / 64) * self.m_bits + w * 64 + bit] |= 1 << (pos % 64);
                }
            }
            cols
        }
    }

    /// The engine and the reference model fed the same requests.
    struct Pair {
        engine: ValidationEngine,
        reference: Reference,
    }

    impl Pair {
        fn new(window: usize) -> Self {
            let config = EngineConfig {
                window,
                ..EngineConfig::default()
            };
            Self {
                engine: ValidationEngine::new(config.clone()),
                reference: Reference::new(config),
            }
        }

        /// One request through both: same verdict, same statistics, and
        /// after a commit the bookkeeping holds the reference's window and
        /// nothing else.
        fn process(&mut self, req: &ValidateRequest) -> FpgaVerdict {
            let window = self.engine.window();
            let verdict = self.engine.process(req);
            assert_eq!(verdict, self.reference.process(req), "W {window} {req:?}");
            assert_eq!(self.engine.stats(), self.reference.stats, "W {window}");
            if verdict.is_commit() {
                self.check_bookkeeping();
            }
            verdict
        }

        fn check_bookkeeping(&self) {
            let window = self.engine.window();
            let live = self.reference.validator.window();
            let sig_words = |of: fn(&HistoryEntry) -> &Sig| {
                // Ring position by ring position; no commit, no bits.
                let mut sigs = vec![0; self.engine.reads.sigs.len()];
                let words = sigs.len() / window;
                for (slot, entry) in live.iter() {
                    let pos = (live.seq_of(slot) % window as u64) as usize;
                    sigs[pos * words..][..words].copy_from_slice(of(entry).as_words());
                }
                sigs
            };
            for (history, of) in [
                (
                    &self.engine.reads,
                    (|e| &e.read_sig) as fn(&HistoryEntry) -> &Sig,
                ),
                (&self.engine.writes, |e| &e.write_sig),
            ] {
                assert_eq!(history.sigs, sig_words(of), "W {window}: stored signatures");
                assert_eq!(history.cols, history.rebuilt_cols(), "W {window}: columns");
            }
        }
    }

    const WINDOWS: [usize; 8] = [1, 2, 4, 8, 63, 64, 65, 130];

    #[test]
    fn eigen_traces_decide_as_the_reference_model() {
        let mut seen = EngineStats::default();
        for window in WINDOWS {
            // `concurrency` commits are in flight, unseen, when a request
            // validates (section 6.1; `tests/fpga_engine.rs`): 16 overflows
            // the small windows, 1 lets them commit.
            for (seed, concurrency, accesses) in [(1, 16, 16), (2, 1, 4), (3, 4, 16)] {
                let transactions = 3 * window + 200;
                let trace = eigen_trace(
                    &EigenConfig {
                        accesses,
                        transactions,
                        ..EigenConfig::default()
                    },
                    seed,
                );
                let mut pair = Pair::new(window);
                let mut seq_of_arrival = vec![None; trace.len()];
                for (arrival, txn) in trace.iter().enumerate() {
                    let seen = &seq_of_arrival[..arrival.saturating_sub(concurrency)];
                    let request = ValidateRequest {
                        tx_id: arrival as u64,
                        valid_ts: seen.iter().flatten().max().map_or(0, |&s: &Seq| s + 1),
                        read_addrs: txn.read_set(),
                        write_addrs: txn.write_set(),
                    };
                    if let FpgaVerdict::Commit { seq } = pair.process(&request) {
                        seq_of_arrival[arrival] = Some(seq);
                    }
                }
                let stats = pair.engine.stats();
                seen.commits += stats.commits;
                seen.aborts_cycle += stats.aborts_cycle;
                seen.aborts_window += stats.aborts_window;
                if concurrency < window {
                    // Every ring position was reused at least once.
                    assert!(
                        stats.commits as usize > 2 * window,
                        "W {window} seed {seed}: {stats:?}"
                    );
                }
            }
        }
        assert!(
            seen.commits > 0 && seen.aborts_cycle > 0 && seen.aborts_window > 0,
            "a verdict the traces never produced: {seen:?}"
        );
    }

    /// Where a generated request puts its `ValidTS`.
    #[derive(Debug, Clone)]
    enum Snapshot {
        /// The oldest commit still in the window.
        Oldest,
        /// Everything committed so far.
        Next,
        /// Commits that have not happened yet.
        Beyond(u64),
        /// This many commits behind `Next`: inside the window, at its edge
        /// or before it.
        Back(u64),
    }

    fn generated_request() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Snapshot)> {
        // 24 addresses: empty sets, duplicates inside a set and addresses in
        // both sets all come up, and most requests conflict with the window.
        let addrs = || prop::collection::vec(0u64..24, 0..6);
        let snapshot = prop_oneof![
            Just(Snapshot::Oldest),
            Just(Snapshot::Next),
            (1u64..4).prop_map(Snapshot::Beyond),
            Just(Snapshot::Beyond(u64::MAX)),
            (0u64..20).prop_map(Snapshot::Back),
            (0u64..140).prop_map(Snapshot::Back),
        ];
        (addrs(), addrs(), snapshot)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_requests_decide_as_the_reference_model(
            requests in prop::collection::vec(generated_request(), 1..450),
        ) {
            for window in WINDOWS {
                let mut pair = Pair::new(window);
                for (tx_id, (reads, writes, snapshot)) in requests.iter().enumerate() {
                    let next = pair.engine.next_seq();
                    let valid_ts = match *snapshot {
                        Snapshot::Oldest => pair.engine.validator.oldest_seq().unwrap_or(0),
                        Snapshot::Next => next,
                        Snapshot::Beyond(by) => next.saturating_add(by),
                        Snapshot::Back(by) => next.saturating_sub(by),
                    };
                    pair.process(&req(tx_id as u64, valid_ts, reads, writes));
                }
            }
        }
    }

    /// The stage budget of `process` on the `engine-replay` trace shape (16
    /// accesses over 1 024 locations, 16 commits in flight, W = 64):
    ///
    /// `cargo test --release -p rococo-fpga --lib stage_budget -- --ignored --nocapture`
    ///
    /// Each stage is the engine's own step, timed in place on every request
    /// of the trace. "Manager validate" is `ReachMatrix::validate` replayed
    /// read-only on the vectors the Manager is about to get (without the
    /// pinned bits, which cost no extra word operations); "commit + evict"
    /// is the Manager's whole step less that.
    #[test]
    #[ignore = "a measurement, not a check: run in release with --nocapture"]
    fn stage_budget() {
        const PASSES: u32 = 40;
        const CONCURRENCY: usize = 16;
        let trace = eigen_trace(
            &EigenConfig {
                accesses: 16,
                transactions: 20_000,
                ..EigenConfig::default()
            },
            1,
        );
        let mut requests: Vec<ValidateRequest> = trace
            .iter()
            .enumerate()
            .map(|(arrival, txn)| req(arrival as u64, 0, &txn.read_set(), &txn.write_set()))
            .collect();
        // One pass under the section 6.1 visibility model; `step` decides
        // each request and returns the commit's sequence number.
        let mut pass =
            |step: &mut dyn FnMut(&mut ValidationEngine, &ValidateRequest) -> Option<Seq>| {
                let mut engine = ValidationEngine::new(EngineConfig::default());
                let mut seq_of_arrival = vec![None; requests.len()];
                let mut valid_ts = 0;
                for arrival in 0..requests.len() {
                    if let Some(seq) = arrival
                        .checked_sub(CONCURRENCY + 1)
                        .and_then(|seen| seq_of_arrival[seen])
                    {
                        valid_ts = seq + 1;
                    }
                    requests[arrival].valid_ts = valid_ts;
                    seq_of_arrival[arrival] = step(&mut engine, &requests[arrival]);
                }
                engine.stats()
            };

        let started = Instant::now();
        let mut whole = EngineStats::default();
        for _ in 0..PASSES {
            whole = pass(&mut |engine, request| match engine.process(request) {
                FpgaVerdict::Commit { seq } => Some(seq),
                _ => None,
            });
        }
        let process = started.elapsed();

        // What one `Instant::now()` costs: every stage boundary pays it once.
        let started = Instant::now();
        for _ in 0..1_000_000 {
            black_box(Instant::now());
        }
        let now_cost = started.elapsed() / 1_000_000;

        let mut stages = [Duration::ZERO; 5];
        let (mut p, mut s) = ([0], [0]);
        let mut staged = EngineStats::default();
        for _ in 0..PASSES {
            staged = pass(&mut |engine, request| {
                engine.stats.requests += 1;
                assert!(engine.validator.snapshot_in_window(request.valid_ts));
                let t0 = Instant::now();
                engine.prehash(request);
                let t1 = Instant::now();
                engine.detect(request.valid_ts);
                let t2 = Instant::now();
                let (f, b) = (&engine.ring_f, &engine.ring_b);
                let _ = black_box(engine.validator.matrix().validate(f, b, &mut p, &mut s));
                let t3 = Instant::now();
                let verdict =
                    engine
                        .validator
                        .validate_and_commit_vectors(request.valid_ts, f, b, ());
                let t4 = Instant::now();
                if let Ok(seq) = verdict {
                    engine.record(seq);
                    engine.stats.commits += 1;
                } else {
                    engine.stats.aborts_cycle += 1;
                }
                let t5 = Instant::now();
                for (stage, (from, to)) in
                    stages
                        .iter_mut()
                        .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
                {
                    *stage += (to - from).saturating_sub(now_cost);
                }
                verdict.ok()
            });
        }
        assert_eq!(staged, whole, "the staged passes decide as `process` does");

        let verdicts = f64::from(PASSES) * requests.len() as f64;
        let ns = |d: Duration| d.as_nanos() as f64 / verdicts;
        let [prehash, detect, validate, manager, record] = stages.map(ns);
        println!("{whole:?}");
        println!(
            "Instant::now() {} ns, subtracted once per stage",
            now_cost.as_nanos()
        );
        println!("stage                          ns/verdict");
        println!("prehash                        {prehash:>10.0}");
        println!("column AND (Detector)          {detect:>10.0}");
        println!("Manager validate               {validate:>10.0}");
        println!(
            "Manager commit + evict         {:>10.0}",
            manager - validate
        );
        println!("signature + column update      {record:>10.0}");
        println!(
            "sum of stages                  {:>10.0}",
            prehash + detect + manager + record
        );
        println!("process, uninstrumented        {:>10.0}", ns(process));
    }
}
