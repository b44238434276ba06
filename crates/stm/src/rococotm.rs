//! ROCoCoTM: the hybrid TM of section 5.
//!
//! The CPU side implements Algorithm 1 and the snapshot machinery of
//! Figure 8; validation of read-write transactions is offloaded to the
//! simulated FPGA pipeline (`rococo-fpga`), which decides each commit on
//! the committing thread:
//!
//! * a global timestamp `GlobalTS` counts committed read-write
//!   transactions and doubles as the FPGA's commit sequence;
//! * every commit publishes its write-set bloom signature in the
//!   **commit queue** indexed by its sequence number; executing
//!   transactions drain the queue into a `TempSet` to detect snapshot
//!   breaks and maintain `ValidTS` (the newest sequence their whole read
//!   set is consistent with);
//! * the **update set** holds the signatures of transactions currently
//!   writing back, serving as commit-time locking: an executor reading one
//!   of those addresses backs off (or aborts if it already missed
//!   updates);
//! * a transaction with writes sends `(read addresses, write addresses,
//!   ValidTS)` to the validator and, when granted sequence `s`, waits for
//!   its turn (`GlobalTS == s`), publishes its update-set entry, writes
//!   back its redo log, publishes the commit-queue signature and bumps
//!   `GlobalTS`. Read-only transactions commit directly on the CPU.

use crate::api::{Abort, AbortKind, TmConfig, TmStats, TmSystem, Transaction};
use crate::heap::{Addr, TmHeap, Word};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use rococo_fpga::{
    EngineConfig, EngineStats, FaultConfig, FaultSnapshot, FpgaVerdict, ServiceHandle, TimingModel,
    ValidationService,
};
use rococo_sigs::{splitmix64, ChunkedSig, PrehashedAddr, Sig, SigScheme};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// ROCoCoTM-specific configuration.
#[derive(Debug, Clone)]
pub struct RococoConfig {
    /// Common TM parameters.
    pub tm: TmConfig,
    /// FPGA sliding-window capacity `W`.
    pub window: usize,
    /// Commit-queue length (must exceed the number of commits that can
    /// happen while one transaction executes; overruns abort the laggard).
    pub queue_len: usize,
    /// Bounded back-off iterations when a read hits the update set before
    /// the conflict is treated as an abort.
    pub update_spin: usize,
    /// Consecutive aborts after which a thread's next attempt runs
    /// *irrevocably*: it takes the commit gate exclusively, so no other
    /// transaction can commit underneath it and it is guaranteed to
    /// succeed. This is the escape hatch the paper sketches for long
    /// transactions starved by the sliding window ("to ensure long
    /// transactions can eventually commit, irrevocability may be
    /// required", section 4.2).
    pub irrevocable_after: u32,
    /// Fault injection applied to the spawned validation service (chaos
    /// testing). Disabled by default; the `rococo-chaos` harness enables
    /// it to exercise the commit path under pathological FPGA timing.
    pub faults: FaultConfig,
}

impl Default for RococoConfig {
    fn default() -> Self {
        Self {
            tm: TmConfig::default(),
            window: 64,
            queue_len: 1024,
            update_spin: 1 << 14,
            irrevocable_after: 16,
            faults: FaultConfig::disabled(),
        }
    }
}

/// One slot of the update set: the write signature of a transaction that is
/// currently writing back, used as commit-time locking. Empty (it then
/// matches no address) while its thread is not writing back; the signature
/// is copied in and cleared in place, never allocated.
#[derive(Debug)]
struct UpdateSlot {
    sig: RwLock<Sig>,
}

/// The redo log: the words a transaction wrote, by address. Every read of
/// a transaction that has written probes it, so it hashes with one
/// `splitmix64` ([`AddrHasher`]) rather than SipHash.
type Redo = HashMap<Addr, Word, BuildHasherDefault<AddrHasher>>;

/// [`Redo`]'s hasher, a plain mixer: the keys are heap addresses, bounded
/// by the heap, and one map holds one transaction's writes, so a set of
/// colliding addresses slows only the transaction that wrote them.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = addr as u64;
    }

    fn finish(&self) -> u64 {
        splitmix64(&mut self.0.clone())
    }
}

/// One thread's transaction buffers (the same index space as the update
/// slots). `begin` takes them under the thread's lock and clears them, and
/// the open transaction holds the guard until it commits or is dropped, so
/// a thread's transactions allocate nothing once the buffers have grown,
/// whether they commit, abort or are abandoned.
#[derive(Debug)]
struct Buffers {
    /// Chunked read-set summary (whole-set + per-8-address signatures +
    /// raw addresses).
    read_set: ChunkedSig,
    /// Write-set signature.
    write_sig: Sig,
    /// Write-set addresses in first-write order, as the validator takes
    /// them.
    write_addrs: Vec<u64>,
    /// Redo log.
    redo: Redo,
    /// Union of committed write signatures this transaction failed to
    /// observe (Figure 8(c)); non-empty means `valid_ts` is frozen.
    miss_set: Sig,
    /// The `TempSet` of the last drain: the union of the write signatures
    /// committed since the drain before it (empty when there were none).
    temp: Sig,
}

impl Buffers {
    fn new(scheme: &SigScheme) -> Self {
        Self {
            read_set: ChunkedSig::new(scheme),
            write_sig: scheme.new_sig(),
            write_addrs: Vec::new(),
            redo: Redo::default(),
            miss_set: scheme.new_sig(),
            temp: scheme.new_sig(),
        }
    }

    /// Empties every buffer, keeping its capacity.
    fn clear(&mut self) {
        self.read_set.clear();
        self.write_sig.clear();
        self.write_addrs.clear();
        self.redo.clear();
        self.miss_set.clear();
        self.temp.clear();
    }
}

/// The ROCoCoTM runtime.
#[derive(Debug)]
pub struct RococoTm {
    heap: Arc<TmHeap>,
    stats: TmStats,
    config: RococoConfig,
    /// Signature geometry shared between CPU and FPGA: the paper's m/k.
    scheme: SigScheme,
    /// Count of committed read-write transactions; also the next FPGA
    /// commit sequence to be published.
    global_ts: AtomicU64,
    /// Ring buffer of committed write-set signatures, indexed by
    /// `seq % queue_len`. Slot contents are valid for `seq < global_ts`.
    commit_queue: Vec<RwLock<Sig>>,
    /// Per-thread update-set slots plus a fast-path occupancy bitmap
    /// (bit `t` of word `t / 64` set while thread `t`'s slot is
    /// published), so the read path only locks slots that are in use.
    update_slots: Vec<UpdateSlot>,
    update_occupancy: Vec<AtomicU64>,
    /// Commit gate: committers hold it shared; an irrevocable transaction
    /// holds it exclusively for its whole lifetime, freezing `GlobalTS` so
    /// nothing can invalidate its snapshot.
    commit_gate: RwLock<()>,
    /// Consecutive aborts per thread (irrevocability escalation).
    consecutive_aborts: Vec<AtomicU32>,
    /// One set of transaction buffers per thread, held by its open
    /// transaction (see [`Buffers`]).
    scratch: Vec<Mutex<Buffers>>,
    /// The simulated platform's validation latency, charged as model
    /// time for every verdict.
    timing: TimingModel,
    /// The simulated FPGA; kept alive for the runtime's lifetime (dropping
    /// it stops the validation service).
    _service: ValidationService,
    handle: ServiceHandle,
}

impl RococoTm {
    /// Creates a ROCoCoTM with default ROCoCo parameters.
    pub fn with_config(tm: TmConfig) -> Self {
        Self::with_configs(RococoConfig {
            tm,
            ..RococoConfig::default()
        })
    }

    /// Creates a ROCoCoTM with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `queue_len < window` or any size is zero.
    pub fn with_configs(config: RococoConfig) -> Self {
        let heap = Arc::new(TmHeap::new(config.tm.heap_words));
        Self::with_shared_heap(config, heap)
    }

    /// Creates a ROCoCoTM over a caller-provided heap. The hybrid
    /// scheduler uses this so the ROCoCoTM slow path shares its words
    /// with the HTM fast path (the hybrid's mode gate keeps the two
    /// engines from validating concurrently).
    ///
    /// # Panics
    ///
    /// Panics if `queue_len < window` or any size is zero.
    pub fn with_shared_heap(config: RococoConfig, heap: Arc<TmHeap>) -> Self {
        assert!(
            config.queue_len >= config.window,
            "commit queue must cover at least one window"
        );
        let scheme = SigScheme::paper_default();
        let service = ValidationService::spawn_with_faults(
            EngineConfig {
                window: config.window,
                scheme: scheme.clone(),
            },
            config.faults.clone(),
        );
        let handle = service.handle();
        Self {
            heap,
            stats: TmStats::default(),
            global_ts: AtomicU64::new(0),
            commit_queue: (0..config.queue_len)
                .map(|_| RwLock::new(scheme.new_sig()))
                .collect(),
            update_slots: (0..config.tm.max_threads)
                .map(|_| UpdateSlot {
                    sig: RwLock::new(scheme.new_sig()),
                })
                .collect(),
            update_occupancy: (0..config.tm.max_threads.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            commit_gate: RwLock::new(()),
            consecutive_aborts: (0..config.tm.max_threads)
                .map(|_| AtomicU32::new(0))
                .collect(),
            scratch: (0..config.tm.max_threads)
                .map(|_| Mutex::new(Buffers::new(&scheme)))
                .collect(),
            timing: TimingModel::default(),
            _service: service,
            handle,
            config,
            scheme,
        }
    }

    /// Statistics of the FPGA-side engine (requests, commits, cycle and
    /// window aborts — the dotted series of Figure 10).
    pub fn fpga_stats(&self) -> EngineStats {
        self.handle.stats()
    }

    /// Marks thread `t`'s update slot occupied in the fast-path bitmap.
    fn mark_update_slot(&self, t: usize) {
        self.update_occupancy[t / 64].fetch_or(1 << (t % 64), Ordering::SeqCst);
    }

    /// Clears thread `t`'s update-slot occupancy bit.
    fn clear_update_slot(&self, t: usize) {
        self.update_occupancy[t / 64].fetch_and(!(1 << (t % 64)), Ordering::SeqCst);
    }

    /// Whether `addr` is currently claimed by a committing transaction's
    /// update-set entry (commit-time locking, Algorithm 1 line 5).
    ///
    /// The occupancy bitmap keeps the common zero-committer case to a
    /// handful of atomic loads — the old implementation read-locked every
    /// slot whenever *any* committer was active, serialising every
    /// transactional read behind unrelated commits. The bitmap is a hint
    /// with the same race window the old occupancy counter had: a
    /// committer that publishes between our load and the heap read is
    /// caught by the commit-queue drain and the re-check in `tm_read`.
    fn update_set_hits(&self, pre: &PrehashedAddr) -> bool {
        for (wi, word) in self.update_occupancy.iter().enumerate() {
            let mut bits = word.load(Ordering::SeqCst);
            while bits != 0 {
                let t = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let sig = self.update_slots[t].sig.read();
                if self.scheme.query_prehashed(&sig, pre) {
                    return true;
                }
            }
        }
        false
    }

    /// Publishes a validated commit at its FPGA-granted sequence: waits
    /// for the turn (`GlobalTS == seq`), installs the update-set entry,
    /// writes back the redo log, publishes the commit-queue signature and
    /// bumps `GlobalTS`.
    ///
    /// Every sequence before `seq` was granted to some committer that
    /// will publish it; write-backs are thereby ordered, which subsumes
    /// the paper's write-write commit ordering. Spin briefly, then yield:
    /// the committer we are waiting on may not be running (oversubscribed
    /// or single-core hosts), and a full timeslice of spinning would
    /// stall the whole commit chain.
    fn publish_commit(&self, thread: usize, seq: u64, write_sig: &Sig, redo: &Redo) {
        let mut spins = 0u32;
        while self.global_ts.load(Ordering::SeqCst) != seq {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }

        // Publish the update-set entry (commit-time locking), write back,
        // publish the commit-queue signature, bump GlobalTS, release.
        self.update_slots[thread].sig.write().clone_from(write_sig);
        self.mark_update_slot(thread);

        for (&addr, &val) in redo {
            self.heap.store_direct(addr, val);
        }

        {
            let mut qslot =
                self.commit_queue[(seq % self.config.queue_len as u64) as usize].write();
            qslot.clone_from(write_sig);
        }
        self.global_ts.store(seq + 1, Ordering::SeqCst);

        self.update_slots[thread].sig.write().clear();
        self.clear_update_slot(thread);
    }

    /// Does the bookkeeping every verdict gets once it is in hand — the
    /// model time of the simulated round-trip (Figure 11) and the
    /// `Verdict` flight-recorder event. Returns the granted commit
    /// sequence, or the kind of abort the verdict means. The wall clock is
    /// the caller's: `commit_seq` posts through
    /// [`TmStats::time_validation`].
    fn settle_verdict(&self, verdict: FpgaVerdict, n_addrs: usize) -> Result<u64, AbortKind> {
        let timing = &self.timing;
        let model_ns = timing.latency_ns(n_addrs) as u64;
        self.stats
            .validation_model_ns
            .fetch_add(model_ns, Ordering::Relaxed);
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::Verdict {
            verdict: match verdict {
                FpgaVerdict::Commit { .. } => "commit",
                FpgaVerdict::AbortCycle => "abort-cycle",
                FpgaVerdict::AbortWindowOverflow => "abort-window",
                FpgaVerdict::ServiceStopped => "service-stopped",
            },
            model_ns,
            detector_ns: timing.detector_ns(n_addrs) as u64,
            manager_ns: timing.manager_ns() as u64,
        });
        match verdict {
            FpgaVerdict::Commit { seq } => Ok(seq),
            FpgaVerdict::AbortCycle => Err(AbortKind::FpgaCycle),
            FpgaVerdict::AbortWindowOverflow => Err(AbortKind::FpgaWindow),
            FpgaVerdict::ServiceStopped => Err(AbortKind::ServiceStopped),
        }
    }
}

/// A [`RococoTm`] transaction (the per-thread state of Algorithm 1).
pub struct RococoTx<'a> {
    tm: &'a RococoTm,
    thread: usize,
    /// All commits with `seq < local_ts` have been folded into the
    /// conflict checks so far.
    local_ts: u64,
    /// The read set is consistent as of this sequence.
    valid_ts: u64,
    /// The thread's buffers, held until the transaction ends.
    buf: MutexGuard<'a, Buffers>,
    /// Held exclusively when the transaction runs irrevocably.
    irrevocable: Option<RwLockWriteGuard<'a, ()>>,
}

impl std::fmt::Debug for RococoTx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RococoTx")
            .field("irrevocable", &self.irrevocable.is_some())
            .field("thread", &self.thread)
            .field("local_ts", &self.local_ts)
            .field("valid_ts", &self.valid_ts)
            .field("reads", &self.buf.read_set.len())
            .field("writes", &self.buf.write_addrs.len())
            .finish()
    }
}

impl RococoTx<'_> {
    /// Records an abort against this thread's escalation counter and
    /// builds the `Abort`. Every abort path must route through here:
    /// `consecutive_aborts` drives irrevocability escalation, and a path
    /// that skips the bump can starve a thread below the escalation
    /// threshold forever.
    fn count_abort(&self, kind: AbortKind) -> Abort {
        self.tm.consecutive_aborts[self.thread].fetch_add(1, Ordering::Relaxed);
        Abort::new(kind)
    }

    /// Drains the commit queue from `local_ts` to the current `GlobalTS`
    /// into `temp`, the `TempSet` (Algorithm 1 lines 9–13), and returns
    /// that `GlobalTS`.
    ///
    /// Returns `None` — meaning the transaction must abort — if the queue
    /// was overrun (the laggard cannot reconstruct what it missed).
    fn drain_temp_set(&mut self) -> Option<u64> {
        let queue_len = self.tm.config.queue_len as u64;
        let start_ts = self.local_ts;
        let gts = self.tm.global_ts.load(Ordering::SeqCst);
        let temp = &mut self.buf.temp;
        temp.clear();
        if gts == start_ts {
            return Some(gts);
        }
        // The committer at sequence `s` overwrites ring slot `s % queue_len`
        // the moment GlobalTS reaches `s`, so the oldest slot still intact is
        // `gts - queue_len`. A lag of exactly `queue_len` means slot
        // `start_ts % queue_len` is the one being clobbered *right now* —
        // only a strict inequality keeps the scan inside live history.
        if gts - start_ts >= queue_len {
            return None; // ring overrun: history lost
        }
        for seq in start_ts..gts {
            let slot = &self.tm.commit_queue[(seq % queue_len) as usize];
            temp.union_with(&slot.read());
        }
        // The scan itself takes time: committers may have advanced GlobalTS
        // while we were reading and recycled slots out from under us. The
        // per-slot locks only guarantee each read was not torn, not that the
        // slot still held the sequence we wanted. Re-check against the
        // *original* start before trusting the union.
        let gts_after = self.tm.global_ts.load(Ordering::SeqCst);
        if gts_after - start_ts >= queue_len {
            return None; // a scanned slot may have been recycled mid-scan
        }
        self.local_ts = gts;
        Some(gts)
    }

    /// Lines 9–19 of `TM_READ` plus the ValidTS extension of Figure 8(b):
    /// folds the commits published since the last look into the snapshot,
    /// then answers whether a value of the address `pre` was prehashed
    /// from, loaded *before this call*, is the value as of that snapshot.
    /// `Ok(false)` means reload and ask again; the abort is the CPU-side
    /// fast path.
    #[inline(always)]
    fn snapshot_covers(&mut self, pre: &PrehashedAddr) -> Result<bool, Abort> {
        let Some(gts) = self.drain_temp_set() else {
            return Err(self.count_abort(AbortKind::FpgaWindow));
        };
        let scheme = &self.tm.scheme;
        let buf = &mut *self.buf;

        // The drain advanced `local_ts`, so `temp` is folded in before any
        // reload is asked for: dropping it would extend the snapshot past
        // commits never checked against the read set.
        let mut stale = false;
        if !buf.temp.is_empty() {
            let conflict = buf.read_set.conflicts_with(scheme, &buf.temp);
            if buf.miss_set.is_empty() && !conflict {
                self.valid_ts = gts; // snapshot extends
            } else {
                buf.miss_set.union_with(&buf.temp);
            }
            // The caller's load came before the drain: a commit folded in
            // just now may have stored the address after it.
            stale = scheme.query_prehashed(&buf.temp, pre);
        } else if buf.miss_set.is_empty() {
            self.valid_ts = gts;
        }
        if !buf.miss_set.is_empty() && scheme.query_prehashed(&buf.miss_set, pre) {
            // The address we are reading was updated after ValidTS: the
            // snapshot cannot stay consistent (Figure 8(d)). This is the
            // CPU-side fast abort path — no out-of-core latency.
            return Err(self.count_abort(AbortKind::Conflict));
        }

        // A committer not yet in the queue may also have stored `addr`
        // before the caller's load. It published its update-set entry
        // before its first store and clears it only after bumping
        // `GlobalTS`, so the entry is looked at first and `GlobalTS`
        // second — one of the two still shows it.
        Ok(!stale
            && !self.tm.update_set_hits(pre)
            && self.tm.global_ts.load(Ordering::SeqCst) == gts)
    }

    /// The read path of Algorithm 1 (`TM_READ`). The address is hashed
    /// once, for every signature it meets.
    fn tm_read(&mut self, addr: Addr) -> Result<Word, Abort> {
        // Line 1–4: read-own-write.
        if !self.buf.redo.is_empty() {
            if let Some(&v) = self.buf.redo.get(&addr) {
                return Ok(v);
            }
        }

        let pre = self.tm.scheme.prehash(addr as u64);
        let mut spins = 0usize;
        loop {
            // Lines 5–7: back off while a committer's update set covers the
            // address; if we already missed updates, abort instead.
            while self.tm.update_set_hits(&pre) {
                if !self.buf.miss_set.is_empty() {
                    return Err(self.count_abort(AbortKind::Conflict));
                }
                spins += 1;
                if spins > self.tm.config.update_spin {
                    return Err(self.count_abort(AbortKind::Conflict));
                }
                std::hint::spin_loop();
            }

            // Line 8: speculative value read.
            let v = self.tm.heap.load_direct(addr);
            if !self.snapshot_covers(&pre)? {
                continue;
            }

            // Line 20.
            self.buf
                .read_set
                .insert_prehashed(&self.tm.scheme, addr as u64, &pre);
            // Flight-recorder sampling: record read-set growth at
            // power-of-two sizes so big transactions stay cheap to trace.
            if rococo_telemetry::enabled() {
                let len = self.buf.read_set.len();
                if len.is_power_of_two() {
                    rococo_telemetry::emit(rococo_telemetry::TxEvent::ReadSet { len: len as u32 });
                }
            }
            return Ok(v);
        }
    }
}

impl<'a> Transaction for RococoTx<'a> {
    fn read(&mut self, addr: Addr) -> Result<Word, Abort> {
        self.tm_read(addr)
    }

    fn write(&mut self, addr: Addr, val: Word) -> Result<(), Abort> {
        // TM_WRITE: signature insert + redo log (lines 21–22).
        let buf = &mut *self.buf;
        if buf.redo.insert(addr, val).is_none() {
            self.tm.scheme.insert(&mut buf.write_sig, addr as u64);
            buf.write_addrs.push(addr as u64);
            if rococo_telemetry::enabled() && buf.write_addrs.len().is_power_of_two() {
                rococo_telemetry::emit(rococo_telemetry::TxEvent::WriteSet {
                    len: buf.write_addrs.len() as u32,
                });
            }
        }
        Ok(())
    }

    /// The one commit. A read-only transaction commits on the CPU: its
    /// read set is consistent at `valid_ts` by construction. One with
    /// writes takes the commit gate, ships (read addresses, write
    /// addresses, `ValidTS`) to the FPGA — whose engine decides it on
    /// this thread — and publishes at the granted sequence before it
    /// returns. Nothing between the verdict and `publish_commit` may
    /// unwind: every later committer waits for the granted turn.
    fn commit_seq(self) -> Result<Option<u64>, Abort> {
        let tm = self.tm;
        let thread = self.thread;
        let buf = &*self.buf;
        if buf.write_addrs.is_empty() {
            tm.stats.read_only_commits.fetch_add(1, Ordering::Relaxed);
            tm.consecutive_aborts[thread].store(0, Ordering::Relaxed);
            return Ok(None);
        }

        // Ordinary committers share the gate; an irrevocable transaction
        // already holds it exclusively. Either guard is held to the end,
        // so an escalation cannot slip between a verdict and its
        // publication (§4).
        let _shared = self.irrevocable.is_none().then(|| tm.commit_gate.read());
        let reads = buf.read_set.addrs();
        let n_addrs = reads.len() + buf.write_addrs.len();
        rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::ValidateSubmit {
            reads: reads.len() as u32,
            writes: buf.write_addrs.len() as u32,
        });
        // The validator's lock is a leaf that never waits on the gate.
        let post = || {
            tm.handle
                .post(thread as u64, self.valid_ts, reads, &buf.write_addrs)
        };
        let verdict = tm.stats.time_validation(post);
        match tm.settle_verdict(verdict, n_addrs) {
            Ok(seq) => {
                tm.publish_commit(thread, seq, &buf.write_sig, &buf.redo);
                if self.irrevocable.is_some() {
                    tm.stats.fallback_commits.fetch_add(1, Ordering::Relaxed);
                }
                tm.consecutive_aborts[thread].store(0, Ordering::Relaxed);
                // The FPGA-granted sequence doubles as the durable
                // sequence: it is dense from 0 across update commits, and
                // the turn-wait inside `publish_commit` makes write-backs
                // publish in exactly this order.
                Ok(Some(seq))
            }
            Err(kind) => Err(self.count_abort(kind)),
        }
    }
}

impl TmSystem for RococoTm {
    type Tx<'a> = RococoTx<'a>;

    fn name(&self) -> &'static str {
        "ROCoCoTM"
    }

    fn heap(&self) -> &TmHeap {
        &self.heap
    }

    /// # Panics
    ///
    /// Panics if `thread_id` is out of range or already has a transaction
    /// open.
    fn begin(&self, thread_id: usize) -> RococoTx<'_> {
        assert!(
            thread_id < self.update_slots.len(),
            "thread id out of range"
        );
        // The thread's buffers first, without waiting: they are held only
        // while this thread id has a transaction open, and that one may
        // hold the gate exclusively, so waiting for either would never end.
        let Some(mut buf) = self.scratch[thread_id].try_lock() else {
            panic!("thread {thread_id} already has a transaction open");
        };
        buf.clear();
        // Escalate to irrevocability after repeated aborts: hold the
        // commit gate exclusively so GlobalTS freezes — no update-set
        // hits, no missed updates, no forward edges, guaranteed commit.
        // The thread holds no gate guard here: it has no transaction open
        // (it holds its buffers now), and its every earlier commit
        // released its own guard before returning.
        let aborts_so_far = self.consecutive_aborts[thread_id].load(Ordering::Relaxed);
        let irrevocable = if aborts_so_far >= self.config.irrevocable_after {
            // Escalation is the anomaly the flight recorder exists for:
            // record it and dump this thread's event history.
            if rococo_telemetry::enabled() {
                rococo_telemetry::emit(rococo_telemetry::TxEvent::Escalated {
                    consecutive_aborts: aborts_so_far,
                });
                rococo_telemetry::dump_anomaly("irrevocability-escalation");
            }
            Some(self.commit_gate.write())
        } else {
            None
        };
        let ts = self.global_ts.load(Ordering::SeqCst);
        RococoTx {
            tm: self,
            thread: thread_id,
            local_ts: ts,
            valid_ts: ts,
            buf,
            irrevocable,
        }
    }

    fn stats(&self) -> &TmStats {
        &self.stats
    }

    fn injected_faults(&self) -> Option<FaultSnapshot> {
        Some(self.handle.fault_stats())
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        Some(self.fpga_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::atomically;
    use std::sync::Arc;
    use std::time::Instant;

    fn tm(words: usize, threads: usize) -> RococoTm {
        RococoTm::with_config(TmConfig {
            heap_words: words,
            max_threads: threads,
        })
    }

    #[test]
    fn single_thread_semantics() {
        let tm = tm(64, 1);
        atomically(&tm, 0, |tx| {
            tx.write(3, 7)?;
            let v = tx.read(3)?;
            assert_eq!(v, 7);
            tx.write(4, v + 1)
        });
        assert_eq!(tm.heap().load_direct(3), 7);
        assert_eq!(tm.heap().load_direct(4), 8);
        assert_eq!(tm.fpga_stats().commits, 1);
    }

    #[test]
    fn read_only_txns_skip_the_fpga() {
        let tm = tm(64, 1);
        for _ in 0..5 {
            atomically(&tm, 0, |tx| tx.read(0));
        }
        assert_eq!(tm.stats().snapshot().read_only_commits, 5);
        assert_eq!(tm.fpga_stats().requests, 0);
    }

    #[test]
    fn concurrent_counters_are_exact() {
        let tm = Arc::new(tm(256, 8));
        let mut joins = Vec::new();
        for t in 0..8usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
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
        assert_eq!(tm.heap().load_direct(7), 8000);
    }

    #[test]
    fn bank_invariant_holds() {
        let tm = Arc::new(tm(1 << 10, 6));
        let accounts = 12usize;
        for a in 0..accounts {
            tm.heap().store_direct(a, 500);
        }
        let mut joins = Vec::new();
        for t in 0..6usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let mut x = (t as u64 + 7).wrapping_mul(0x2545f4914f6cdd1d);
                for _ in 0..1500 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize >> 5) % accounts;
                    let to = (x as usize >> 17) % accounts;
                    if from == to {
                        continue;
                    }
                    atomically(&*tm, t, |tx| {
                        let f = tx.read(from)?;
                        let g = tx.read(to)?;
                        if f >= 5 {
                            tx.write(from, f - 5)?;
                            tx.write(to, g + 5)?;
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
        assert_eq!(total, 6000);
    }

    #[test]
    fn disjoint_writers_commit_without_aborts() {
        let tm = Arc::new(tm(1 << 12, 4));
        let mut joins = Vec::new();
        for t in 0..4usize {
            let tm = tm.clone();
            joins.push(std::thread::spawn(move || {
                let base = 512 * t;
                for i in 0..400usize {
                    atomically(&*tm, t, |tx| {
                        let v = tx.read(base + i % 128)?;
                        tx.write(base + i % 128, v + 1)
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = tm.stats().snapshot();
        assert_eq!(snap.commits, 1600);
        // Bloom false positives may cause a few aborts; they must be rare.
        assert!(
            snap.total_aborts() < 50,
            "disjoint writers should almost never abort: {snap:?}"
        );
    }

    #[test]
    fn validation_is_instrumented() {
        let tm = tm(64, 1);
        atomically(&tm, 0, |tx| {
            let v = tx.read(0)?;
            tx.write(1, v + 1)
        });
        let snap = tm.stats().snapshot();
        assert_eq!(snap.validations, 1);
        assert!(snap.validation_model_ns > 0);
    }

    #[test]
    fn validation_time_covers_the_post() {
        // Every `post` stalls 1 ms under the engine's lock, before the
        // engine runs: the stall is validation time, in the statistics and
        // in the traced `ValidateSubmit → Verdict` window.
        const STALL_US: u64 = 1_000;
        let tm = RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: 64,
                max_threads: 1,
            },
            faults: FaultConfig {
                seed: 1,
                pause_prob: 1.0,
                pause_us: STALL_US,
                ..FaultConfig::disabled()
            },
            ..RococoConfig::default()
        });
        rococo_telemetry::enable(1024);
        let trace = rococo_telemetry::mint_trace();
        rococo_telemetry::set_current_trace(trace);
        for addr in 0..3 {
            atomically(&tm, 0, |tx| tx.write(addr, 1));
        }
        rococo_telemetry::clear_current_trace();
        let events = rococo_telemetry::drain_events();
        rococo_telemetry::disable();

        let mean_us = tm.stats().snapshot().mean_validation_us();
        assert!(mean_us >= STALL_US as f64, "validation {mean_us} µs");
        let mut submitted = None;
        let mut windows = 0;
        for e in events.iter().filter(|e| e.trace == trace) {
            match e.event {
                rococo_telemetry::TxEvent::ValidateSubmit { .. } => submitted = Some(e.ns),
                rococo_telemetry::TxEvent::Verdict { .. } => {
                    let window = e.ns - submitted.take().expect("a verdict answers a submit");
                    assert!(window >= STALL_US * 1_000, "traced window {window} ns");
                    windows += 1;
                }
                _ => {}
            }
        }
        assert_eq!(windows, 3, "one traced validation per commit");
    }

    #[test]
    fn irrevocability_guarantees_progress() {
        // A tiny window plus a busy writer starves a long transaction via
        // window-overflow aborts. With `irrevocable_after: 1`, the very
        // next attempt after any abort must take the gate exclusively and
        // commit irrevocably — so any abort at all implies at least one
        // fallback commit, independent of how the scheduler interleaves
        // the two threads.
        let tm = Arc::new(RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: 4096,
                max_threads: 2,
            },
            window: 4,
            queue_len: 16,
            irrevocable_after: 1,
            ..RococoConfig::default()
        }));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let tm = tm.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    i += 1;
                    atomically(&*tm, 1, |tx| {
                        let v = tx.read(1000 + (i % 512) as usize)?;
                        tx.write(1000 + (i % 512) as usize, v + 1)
                    });
                }
            })
        };
        // The "long" transaction reads many of the writer's locations and
        // takes its time, so its snapshot keeps going stale.
        for round in 0..5usize {
            atomically(&*tm, 0, |tx| {
                let mut acc = 0u64;
                for k in 0..64usize {
                    acc = acc.wrapping_add(tx.read(1000 + k * 7)?);
                    if k % 8 == 0 {
                        std::thread::yield_now();
                    }
                }
                tx.write(round, acc)
            });
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        // Progress happened (all five rounds committed); under this much
        // churn at least one attempt should have run irrevocably.
        let snap = tm.stats().snapshot();
        assert!(snap.commits >= 5);
        assert!(
            snap.fallback_commits > 0 || snap.total_aborts() < 2,
            "escalation expected under starvation: {snap:?}"
        );
    }

    #[test]
    fn write_skew_is_rejected() {
        // Two threads repeatedly attempt write skew on (x, y); the sum
        // constraint x + y <= 1 written as "if other is 0, set mine to 1"
        // must never end with both set.
        let tm = Arc::new(tm(64, 2));
        for round in 0..50 {
            tm.heap().store_direct(0, 0);
            tm.heap().store_direct(1, 0);
            let b = Arc::new(std::sync::Barrier::new(2));
            let mut joins = Vec::new();
            for t in 0..2usize {
                let tm = tm.clone();
                let b = b.clone();
                joins.push(std::thread::spawn(move || {
                    b.wait();
                    atomically(&*tm, t, |tx| {
                        let other = tx.read(1 - t)?;
                        if other == 0 {
                            tx.write(t, 1)?;
                        }
                        Ok(())
                    });
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            let x = tm.heap().load_direct(0);
            let y = tm.heap().load_direct(1);
            assert!(
                x + y <= 1,
                "round {round}: write skew committed (x={x}, y={y})"
            );
        }
    }

    #[test]
    fn read_path_aborts_count_toward_escalation() {
        // Regression: the update-set spin-exhaustion abort used to skip
        // `consecutive_aborts`, so a reader starved by busy committers
        // could never escalate to irrevocability.
        let tm = RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: 64,
                max_threads: 2,
            },
            update_spin: 0,
            ..RococoConfig::default()
        });
        // Pretend thread 1 is mid-write-back over address 5.
        let mut sig = tm.scheme.new_sig();
        tm.scheme.insert(&mut sig, 5);
        *tm.update_slots[1].sig.write() = sig;
        tm.mark_update_slot(1);

        let mut tx = tm.begin(0);
        let err = tx.read(5).unwrap_err();
        assert_eq!(err.kind, AbortKind::Conflict);
        assert_eq!(tm.consecutive_aborts[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_commit_between_load_and_drain_forces_a_reload() {
        // Regression (the torn read behind the hybrid bank failures, ~1 in
        // 200 runs, and the static-backend one, 2 in 1 200): `tm_read`
        // loads the value, *then* drains the commit queue. A commit that
        // lands in between was only checked against the earlier reads, so
        // a first read took the pre-commit value and still extended
        // ValidTS past the commit. The steps of `tm_read`, by hand:
        let tm = tm(64, 2);
        let mut tx = tm.begin(0);
        let stale = tm.heap().load_direct(5);
        atomically(&tm, 1, |other| other.write(5, 9));
        assert!(
            !tx.snapshot_covers(&tm.scheme.prehash(5)).unwrap(),
            "the folded commit wrote the address: the load must be redone"
        );
        assert_eq!(tx.valid_ts, 1, "nothing read yet, so the snapshot extends");
        assert!(
            tx.snapshot_covers(&tm.scheme.prehash(5)).unwrap(),
            "nothing new since the reload"
        );
        assert_eq!((stale, tx.read(5).unwrap()), (0, 9));
    }

    #[test]
    fn a_reload_keeps_the_commits_the_drain_already_folded() {
        // Regression: the retry on an update-set hit used to `continue`
        // past the fold, dropping a drained TempSet on the floor — the
        // next drain starts after it, so a commit that overwrote an
        // earlier read was never added to the miss set.
        let tm = tm(64, 3);
        let mut tx = tm.begin(0);
        assert_eq!(tx.read(5).unwrap(), 0);
        atomically(&tm, 1, |other| other.write(5, 9));
        // Pretend thread 2 is mid-write-back over address 6.
        let mut sig = tm.scheme.new_sig();
        tm.scheme.insert(&mut sig, 6);
        *tm.update_slots[2].sig.write() = sig;
        tm.mark_update_slot(2);
        assert!(
            !tx.snapshot_covers(&tm.scheme.prehash(6)).unwrap(),
            "a committer holds the address"
        );
        assert!(
            tm.scheme.query(&tx.buf.miss_set, 5),
            "the commit over address 5 was drained before the reload and must stay missed"
        );
        assert_eq!(tx.valid_ts, 0, "the snapshot cannot extend past it");
    }

    #[test]
    fn commit_queue_lag_of_exactly_queue_len_aborts_the_laggard() {
        // Regression: `drain_temp_set` accepted a lag equal to `queue_len`,
        // scanning the slot the next committer recycles concurrently.
        let tm = RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: 64,
                max_threads: 1,
            },
            window: 4,
            queue_len: 4,
            ..RococoConfig::default()
        });
        let mut tx = tm.begin(0);
        // Four commits elsewhere wrap the whole ring: the slot holding the
        // laggard's next sequence is exactly the one being reused.
        // rococo-lint: allow(commit-seq-outside-critical) -- test forges GlobalTS to simulate four foreign commits without running them
        tm.global_ts.store(4, Ordering::SeqCst);
        let err = tx.read(0).unwrap_err();
        assert_eq!(err.kind, AbortKind::FpgaWindow);
        assert_eq!(tm.consecutive_aborts[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "thread 0 already has a transaction open")]
    fn a_second_begin_on_one_thread_panics() {
        let tm = tm(64, 2);
        let mut open = tm.begin(0);
        open.read(1).unwrap();
        let _second = tm.begin(0);
    }

    #[test]
    #[should_panic(expected = "thread 0 already has a transaction open")]
    fn a_second_begin_behind_an_irrevocable_one_panics_instead_of_waiting() {
        // Every attempt runs irrevocably, so the open transaction holds the
        // commit gate exclusively: a `begin` that went for the gate before
        // the thread's buffers would wait on itself.
        let tm = RococoTm::with_configs(RococoConfig {
            tm: TmConfig {
                heap_words: 64,
                max_threads: 1,
            },
            irrevocable_after: 0,
            ..RococoConfig::default()
        });
        let _open = tm.begin(0);
        let _second = tm.begin(0);
    }

    /// The stage budget of one ROCoCoTM read-write transaction — the
    /// `Add` shape (read a word, write it back incremented) — committed the
    /// way a TxKV shard worker commits it, one `commit_seq` per
    /// transaction, beside the same transaction on TinySTM:
    ///
    /// `cargo test --release -p rococo-stm --lib stage_budget -- --ignored --nocapture`
    ///
    /// Each stage is the runtime's own step, timed in place: begin + gate
    /// (`begin`: the thread's buffers taken and cleared, the escalation
    /// check), reads (`tm_read`), writes (redo log and write signature),
    /// then the steps of `commit_seq`: dispatch + engine (the commit gate's
    /// shared guard and `post`, which runs the validation engine on this
    /// thread, through the sampled validation timer `commit_seq` uses),
    /// verdict (model time, the `Verdict` event, the sequence), publish
    /// (turn-wait, update set, write-back, commit queue, `GlobalTS`) and
    /// release (dropping the transaction, which hands its buffers back).
    /// TinySTM's commit is one stage.
    #[test]
    #[ignore = "a measurement, not a check: run in release with --nocapture"]
    fn stage_budget() {
        use crate::api::try_atomically_seq;
        use crate::tinystm::TinyStm;
        use std::hint::black_box;
        use std::time::Duration;

        const WORDS: usize = 4096;
        const TXNS: usize = 320_000;
        let txns = TXNS as f64;
        let addr = |i: usize| i % WORDS;
        fn add<T: Transaction>(tx: &mut T, addr: Addr) -> Result<(), Abort> {
            let v = tx.read(addr)?;
            tx.write(addr, v + 1)
        }

        // Uninstrumented, through the entry point the worker calls.
        let rococo = tm(WORDS, 1);
        let started = Instant::now();
        for i in 0..TXNS {
            try_atomically_seq(&rococo, 0, &mut |tx| add(tx, addr(i)))
                .expect("an uncontended Add commits");
        }
        let rococo_whole = started.elapsed();
        let tiny = TinyStm::with_config(TmConfig {
            heap_words: WORDS,
            max_threads: 1,
        });
        let started = Instant::now();
        for i in 0..TXNS {
            try_atomically_seq(&tiny, 0, &mut |tx| add(tx, addr(i)))
                .expect("an uncontended Add commits");
        }
        let tiny_whole = started.elapsed();

        // What one `Instant::now()` costs: every stage boundary pays it once.
        let started = Instant::now();
        for _ in 0..1_000_000 {
            black_box(Instant::now());
        }
        let now_cost = started.elapsed() / 1_000_000;
        let add_stages = |stages: &mut [Duration], marks: &[Instant]| {
            for (stage, pair) in stages.iter_mut().zip(marks.windows(2)) {
                *stage += (pair[1] - pair[0]).saturating_sub(now_cost);
            }
        };

        // ROCoCoTM, step by step: what `begin`, the body and `commit_seq` do.
        let rococo = tm(WORDS, 1);
        let mut stages = [Duration::ZERO; 7];
        for i in 0..TXNS {
            let t0 = Instant::now();
            let mut tx = rococo.begin(0);
            let t1 = Instant::now();
            let v = tx.read(addr(i)).expect("uncontended");
            let t2 = Instant::now();
            tx.write(addr(i), v + 1).expect("uncontended");
            let t3 = Instant::now();
            let gate = rococo.commit_gate.read();
            let buf = &*tx.buf;
            let reads = buf.read_set.addrs();
            let n_addrs = reads.len() + buf.write_addrs.len();
            let post = || rococo.handle.post(0, tx.valid_ts, reads, &buf.write_addrs);
            let verdict = rococo.stats.time_validation(post);
            let t4 = Instant::now();
            let seq = rococo.settle_verdict(verdict, n_addrs).expect("commits");
            let t5 = Instant::now();
            rococo.publish_commit(0, seq, &buf.write_sig, &buf.redo);
            rococo.consecutive_aborts[0].store(0, Ordering::Relaxed);
            let t6 = Instant::now();
            drop(tx);
            let t7 = Instant::now();
            drop(gate);
            add_stages(&mut stages, &[t0, t1, t2, t3, t4, t5, t6, t7]);
        }
        let engine = rococo.fpga_stats();
        assert_eq!(engine.commits, TXNS as u64);
        assert_eq!(engine.aborts(), 0);

        // How much of dispatch is the engine: the same requests straight
        // into a `ValidationEngine`, each at the newest snapshot.
        let mut alone = rococo_fpga::ValidationEngine::new(EngineConfig::default());
        let mut request = rococo_fpga::ValidateRequest {
            tx_id: 0,
            valid_ts: 0,
            read_addrs: vec![0],
            write_addrs: vec![0],
        };
        let started = Instant::now();
        for i in 0..TXNS {
            request.valid_ts = alone.next_seq();
            request.read_addrs[0] = addr(i) as u64;
            request.write_addrs[0] = addr(i) as u64;
            black_box(alone.process(&request));
        }
        let process = started.elapsed();

        // TinySTM, step by step.
        let tiny = TinyStm::with_config(TmConfig {
            heap_words: WORDS,
            max_threads: 1,
        });
        let mut tiny_stages = [Duration::ZERO; 4];
        for i in 0..TXNS {
            let t0 = Instant::now();
            let mut tx = tiny.begin(0);
            let t1 = Instant::now();
            let v = tx.read(addr(i)).expect("uncontended");
            let t2 = Instant::now();
            tx.write(addr(i), v + 1).expect("uncontended");
            let t3 = Instant::now();
            tx.commit().expect("uncontended");
            let t4 = Instant::now();
            add_stages(&mut tiny_stages, &[t0, t1, t2, t3, t4]);
        }

        let ns = |d: Duration| d.as_nanos() as f64 / txns;
        let [begin, reads, writes, dispatch, verdict, publish, release] = stages.map(ns);
        let [t_begin, t_reads, t_writes, t_commit] = tiny_stages.map(ns);
        println!(
            "Instant::now() {} ns, subtracted once per stage",
            now_cost.as_nanos()
        );
        println!("stage                     ROCoCoTM ns/txn   TinySTM ns/txn");
        println!("begin + gate              {begin:>15.0}   {t_begin:>14.0}");
        println!("reads                     {reads:>15.0}   {t_reads:>14.0}");
        println!("writes                    {writes:>15.0}   {t_writes:>14.0}");
        println!("dispatch + engine         {dispatch:>15.0}   {t_commit:>14.0} (commit)");
        println!("  of it, the engine alone {:>15.0}", ns(process));
        println!("verdict                   {verdict:>15.0}");
        println!("publish                   {publish:>15.0}");
        println!("release                   {release:>15.0}");
        println!(
            "sum of stages             {:>15.0}   {:>14.0}",
            begin + reads + writes + dispatch + verdict + publish + release,
            t_begin + t_reads + t_writes + t_commit
        );
        println!(
            "whole, uninstrumented     {:>15.0}   {:>14.0}",
            ns(rococo_whole),
            ns(tiny_whole)
        );
    }
}
