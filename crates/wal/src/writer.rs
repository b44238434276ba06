//! The group-commit WAL writer.
//!
//! The WAL has no thread of its own: it runs on the threads that use it.
//! Shard workers hand it committed write sets through one bounded ring
//! **indexed by the commit sequence itself**: record `seq` lives in slot
//! `seq % depth`. The TM already handed out a dense ticket inside its
//! commit critical section, so there is no tail to CAS and nothing to
//! re-order. Whoever needs a record on disk takes the **writer lock** —
//! the log file, the next sequence to write, the batch buffer and the
//! fsync counters — encodes the dense run of posted slots from `next` into
//! one `write(2)` + one fsync (per policy), and the file is in commit
//! order by construction. Nothing is allocated per record: a slot's vector
//! keeps its capacity from lap to lap.
//!
//! Acknowledgement is one monotone **durable watermark**: after each
//! batch's write (and its fsync, per [`FsyncPolicy`]) the lock holder
//! stores `next` into it. [`Wal::post`] fills a slot without taking the
//! lock and returns; a worker posts every commit of its batch as the
//! verdicts land and calls [`Wal::wait_durable`] once, for the last of
//! them. That call writes the batch itself, or finds that the thread it
//! napped behind already did: whatever is posted while one thread fsyncs
//! is the next one's batch. [`Wal::append`] is the two in a row.
//!
//! # Slot lifecycle
//!
//! | state | `turn` | entered by |
//! |---|---|---|
//! | free for `seq` | `seq` | [`Wal::open`] (first lap), or a flush consuming `seq − depth` |
//! | posted | `seq + 1` | the owner of `seq`, by the `SeqCst` store of `turn` in [`Wal::post`] — after it copied the write set in under the slot's lock |
//! | free for `seq + depth` | `seq + depth` | the writer lock's holder, once it has encoded the record into its batch buffer (before the `write(2)`: the slot is free while the batch is on its way to disk) |
//!
//! Only the owner of `seq` posts it and only the writer lock's holder
//! frees, so a slot's lock is never contended; it is there because this
//! crate forbids `unsafe`.
//!
//! # Waiting
//!
//! A thread that waits — for the watermark, or for a slot that still
//! holds the record one lap below its own — loops. If another thread holds
//! the writer lock (it is writing or fsyncing), it **naps** on a condition
//! variable until the holder releases the lock after a change — a batch, a
//! checkpoint, close or death — and then looks again: every napper wakes
//! at once, so none waits for another to take the lock and leave, and the
//! nappers whose records that batch covered return without touching it.
//! Otherwise it takes the lock, and if slot `next` is posted writes the
//! dense run from there; if not, a lower sequence is not posted yet, so it
//! drops the lock and yields to that sequence's owner, which is between
//! its commit and its `post`. The napping is not a spin budget: it costs
//! nothing while the lock is free, and a flush pays one atomic add and
//! load for it unless someone naps.
//!
//! This cannot deadlock. Let `L` be the lowest unposted sequence: every
//! sequence below it is posted or written, so the owner of `L` finds slot
//! `L % depth` either free for `L`, or holding `L − depth`, which is
//! posted, and then it frees the slot itself by writing the dense run
//! below `L`. So `L` gets posted, and a thread posts its own sequences in
//! ascending order, so nothing it waited for earlier is above `L`. Nor
//! does every waiter nap at once: a thread naps only while another holds
//! the lock, and a holder that changed nothing (it found the gap) goes on
//! looping awake, so someone always sees `L` posted and writes it.
//!
//! # Checkpoints
//!
//! The caller quiesces commits (TxKV holds its pause gate), snapshots the
//! key table and calls [`Wal::checkpoint`], which under the writer lock
//! writes any posted records, fsyncs the log, writes `ckpt.tmp`, fsyncs,
//! renames to `ckpt-<next_seq>.snap`, and only then truncates the log —
//! the rename-before-truncate order is what makes a crash anywhere in
//! between recoverable.
//!
//! # Close and death
//!
//! [`Wal::shutdown`] (or dropping the handle [`Wal::open`] returned)
//! writes the posted dense prefix under the writer lock, fsyncs and marks
//! the WAL closed. When an armed [`KillSwitch`] fires (or on an I/O
//! error, or when a panic poisoned the writer lock) the WAL **dies**: the
//! watermark stays where it was and nothing is cleaned up — the directory
//! holds exactly what a crash would leave. Either way every waiter sees
//! the state on its next loop: each outstanding and future
//! [`Wal::wait_durable`] above the watermark returns [`WalDead`].

use crate::kill::{KillPoint, KillSwitch};
use crate::record::{encode_frame, Checkpoint};
use crate::recover::{ckpt_file_name, recover, RecoveredState, CKPT_TMP, LOG_FILE};
use crate::stats::{WalSnapshot, WalStats};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// Slots of the ring, and so the most records one batch can hold. Twice
/// what the default service can have outstanding (8 workers × a 16-job
/// batch, each waiting for the watermark before its next batch), so no
/// worker of it ever waits for a slot; 256 slots of one cache line are
/// 16 KiB.
const RING_DEPTH: usize = 256;

/// `T` on a cache line of its own, so the watermark the writer lock's
/// holder stores does not share a line with what the posters write.
#[repr(align(64))]
struct Padded<T>(T);

/// When the writer acks an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every batch before acking: an ack means "on stable
    /// storage". The durable default.
    Always,
    /// fsync every `n`-th batch: bounded data loss under a real power
    /// cut, much cheaper on slow disks.
    EveryN(u32),
    /// Never fsync (the OS flushes when it likes): fastest, an ack only
    /// means "in the page cache".
    Never,
}

impl FsyncPolicy {
    /// Stable CLI name (`always`, `every8`, `never`).
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(n) => format!("every{n}"),
            FsyncPolicy::Never => "never".into(),
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => s
                .strip_prefix("every")?
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN),
        }
    }
}

/// WAL construction parameters.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal.log` and checkpoint files.
    pub dir: PathBuf,
    /// Ack durability policy.
    pub fsync: FsyncPolicy,
    /// Armed crash point (chaos testing only).
    pub kill: Option<Arc<KillSwitch>>,
}

impl WalConfig {
    /// A durable-default config for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            kill: None,
        }
    }
}

/// The WAL is dead (simulated crash, I/O error) or closed: the append was
/// **not** acked and may or may not be durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalDead;

impl fmt::Display for WalDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "durability lost: WAL writer stopped")
    }
}

impl std::error::Error for WalDead {}

/// The WAL takes posts and writes them.
const RUNNING: u8 = 0;
/// It was closed after writing the posted dense prefix and a final fsync.
const CLOSED: u8 = 1;
/// It died at a kill point, on an I/O error or in a panic.
const DEAD: u8 = 2;

#[repr(align(64))]
struct Slot {
    /// Which sequence the slot is free for (`seq`) or holds (`seq + 1`).
    turn: AtomicU64,
    /// The posted write set. Locked by the owner of `seq` before it posts
    /// and by the writer lock's holder after, never at once.
    writes: Mutex<Vec<(u64, u64)>>,
}

struct Shared {
    slots: Box<[Slot]>,
    mask: u64,
    /// Every record below this sequence has been written, and fsynced as
    /// far as the policy promises. Stored under the writer lock only.
    durable: Padded<AtomicU64>,
    /// [`RUNNING`] → [`CLOSED`] or [`DEAD`]; stored under the writer lock
    /// (or by the thread that found it poisoned).
    state: AtomicU8,
    /// The writer lock: the log file and where its dense prefix ends.
    writer: Mutex<WriterState>,
    /// Bumped each time the writer lock is released after a change a
    /// waiter may be waiting for: a batch, a checkpoint, close or death.
    released: AtomicU64,
    /// Threads napping on `wake` until `released` moves.
    nappers: AtomicUsize,
    nap: Mutex<()>,
    wake: Condvar,
    stats: WalStats,
}

/// Declared before a writer lock guard, so it drops after it: once the
/// lock is free, wakes the nappers, unless `changed` was cleared (or in a
/// panic, which poisons the lock).
struct Nudge<'a> {
    sh: &'a Shared,
    /// Cleared only by a holder that changed nothing and stays awake to
    /// look again: any other release may leave no one else awake.
    changed: bool,
}

impl Drop for Nudge<'_> {
    fn drop(&mut self) {
        if self.changed || std::thread::panicking() {
            let sh = self.sh;
            sh.released.fetch_add(1, Ordering::SeqCst);
            if sh.nappers.load(Ordering::SeqCst) > 0 {
                drop(locked(&sh.nap));
                sh.wake.notify_all();
            }
        }
    }
}

/// Every slot's critical section leaves its data whole at every step, so
/// a poisoned slot lock is taken over as it stands.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & self.mask) as usize]
    }

    fn is_posted(&self, seq: u64) -> bool {
        self.slot(seq).turn.load(Ordering::SeqCst) == seq + 1
    }

    /// The WAL is closed or dead.
    fn is_gone(&self) -> bool {
        self.state.load(Ordering::SeqCst) != RUNNING
    }

    /// Bind before taking the writer lock: see [`Nudge`].
    fn nudge(&self, changed: bool) -> Nudge<'_> {
        Nudge { sh: self, changed }
    }

    /// The writer lock, unless the WAL is gone. A panic under the lock may
    /// have left the file mid-batch, so a poisoned lock kills the WAL.
    fn writer(&self) -> Option<MutexGuard<'_, WriterState>> {
        let Ok(w) = self.writer.lock() else {
            self.state.store(DEAD, Ordering::SeqCst);
            return None;
        };
        (!self.is_gone()).then_some(w)
    }

    /// Writes batches until `ready()` holds or the WAL is gone; naps
    /// while another thread holds the writer lock, and yields while the
    /// next record to write is not posted yet (see the module doc for why
    /// its owner gets there). `ready()` is asked again under the lock: a
    /// holder may have done the work since, and whatever was posted
    /// meanwhile is the next waiter's batch.
    fn lead_until(&self, ready: impl Fn() -> bool) {
        while !ready() {
            let seen = self.released.load(Ordering::SeqCst);
            let mut nudge = self.nudge(true);
            let mut w = match self.writer.try_lock() {
                Ok(w) => w,
                Err(TryLockError::WouldBlock) => {
                    nudge.changed = false;
                    self.nap(seen, &ready);
                    continue;
                }
                Err(TryLockError::Poisoned(_)) => {
                    return self.state.store(DEAD, Ordering::SeqCst);
                }
            };
            if self.is_gone() || ready() {
                // Leaving: the nappers wake to write their own records.
                return;
            }
            if self.is_posted(w.next) {
                w.flush_batch(self);
            } else {
                // Nothing changed, and this thread stays awake to look
                // again, so it strands no napper.
                nudge.changed = false;
                drop(w);
                std::thread::yield_now();
            }
        }
    }

    /// Sleeps until `ready()` holds or the writer lock is released after a
    /// change made since `released` read `seen`. All the holder's waiters
    /// wake at once, so none waits for another to take the lock and leave.
    fn nap(&self, seen: u64, ready: &impl Fn() -> bool) {
        let mut g = locked(&self.nap);
        self.nappers.fetch_add(1, Ordering::SeqCst);
        while self.released.load(Ordering::SeqCst) == seen && !ready() {
            g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.nappers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle to the group-commit WAL. Clone freely with [`Wal::client`];
/// all handles write through the same writer lock. The [`Wal`] returned
/// by [`Wal::open`] owns the log: shutting it down or dropping it writes
/// what is posted and closes the WAL, and every other handle's later
/// appends fail with [`WalDead`].
pub struct Wal {
    shared: Arc<Shared>,
    /// Set only on the handle returned by `open`.
    owner: bool,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dead", &self.is_dead())
            .field("durable_seq", &self.durable_seq())
            .finish()
    }
}

impl Wal {
    /// Recovers `cfg.dir` (see [`recover`]) and opens the log for
    /// appending at the recovered `next_seq`. Returns the handle and the
    /// recovered state for the caller to rebuild its table from.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from recovery or opening the log.
    pub fn open(cfg: WalConfig) -> io::Result<(Wal, RecoveredState)> {
        Self::open_ring(cfg, RING_DEPTH)
    }

    /// [`Wal::open`] with a ring of `depth` slots (a power of two, at
    /// least 2: a posted slot must not look like the next lap's free one).
    fn open_ring(cfg: WalConfig, depth: usize) -> io::Result<(Wal, RecoveredState)> {
        assert!(depth >= 2 && depth.is_power_of_two(), "ring depth {depth}");
        let recovered = recover(&cfg.dir)?;
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(cfg.dir.join(LOG_FILE))?;
        let next = recovered.next_seq;
        let mask = depth as u64 - 1;
        let slots: Box<[Slot]> = (0..depth as u64)
            .map(|i| Slot {
                // The first sequence at or above `next` that maps here.
                turn: AtomicU64::new(next + (i.wrapping_sub(next) & mask)),
                writes: Mutex::new(Vec::new()),
            })
            .collect();
        let shared = Arc::new(Shared {
            slots,
            mask,
            durable: Padded(AtomicU64::new(next)),
            state: AtomicU8::new(RUNNING),
            released: AtomicU64::new(0),
            nappers: AtomicUsize::new(0),
            nap: Mutex::new(()),
            wake: Condvar::new(),
            writer: Mutex::new(WriterState {
                cfg,
                file,
                next,
                batches_since_fsync: 0,
                records_since_fsync: 0,
                buf: Vec::new(),
            }),
            stats: WalStats::default(),
        });
        Ok((
            Wal {
                shared,
                owner: true,
            },
            recovered,
        ))
    }

    /// A cheap clone for shard workers (does not close the WAL when
    /// dropped).
    pub fn client(&self) -> Wal {
        Wal {
            shared: Arc::clone(&self.shared),
            owner: false,
        }
    }

    /// Hands one committed transaction to the log and returns without
    /// waiting for it to reach the file. `seq` must be the dense commit
    /// sequence the TM handed out, rebased by the caller onto the
    /// recovered `next_seq`; each sequence is posted exactly once, and a
    /// thread must post its own sequences in ascending order. Waits only
    /// while slot `seq % depth` still holds the record one lap below: it
    /// then writes that lap itself, yielding while a sequence under it is
    /// unposted.
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the WAL is gone. An `Ok` promises nothing yet:
    /// [`Wal::wait_durable`] does.
    pub fn post(&self, seq: u64, writes: &[(u64, u64)]) -> Result<(), WalDead> {
        let sh = &*self.shared;
        let slot = sh.slot(seq);
        sh.lead_until(|| slot.turn.load(Ordering::SeqCst) == seq);
        if sh.is_gone() {
            sh.stats.failed_appends.fetch_add(1, Ordering::Relaxed);
            return Err(WalDead);
        }
        {
            let mut held = locked(&slot.writes);
            held.clear();
            held.extend_from_slice(writes);
        }
        slot.turn.store(seq + 1, Ordering::SeqCst);
        Ok(())
    }

    /// Blocks until the watermark has passed `seq`: its record is in the
    /// file, and fsynced if the policy says so. The calling thread writes
    /// the batch itself unless a thread that held the writer lock while it
    /// napped already did.
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the WAL went before it got there; the record may or
    /// may not have reached the disk.
    pub fn wait_durable(&self, seq: u64) -> Result<(), WalDead> {
        let sh = &*self.shared;
        sh.lead_until(|| self.durable_seq() > seq);
        if self.durable_seq() > seq {
            Ok(())
        } else {
            sh.stats.failed_appends.fetch_add(1, Ordering::Relaxed);
            Err(WalDead)
        }
    }

    /// The durable watermark: every record below this sequence is in the
    /// file (and fsynced, per policy). Starts at the recovered `next_seq`
    /// and only grows.
    pub fn durable_seq(&self) -> u64 {
        self.shared.durable.0.load(Ordering::SeqCst)
    }

    /// Appends one committed transaction and blocks until it is durable
    /// (after the policy's fsync): [`Wal::post`], then
    /// [`Wal::wait_durable`].
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the WAL has died; the record may or may not have
    /// reached the disk.
    pub fn append(&self, seq: u64, writes: Vec<(u64, u64)>) -> Result<(), WalDead> {
        self.post(seq, &writes)?;
        self.wait_durable(seq)
    }

    /// Writes a checkpoint of `values` (the full key table) and
    /// truncates the log. The caller **must** have quiesced commits: no
    /// sequence number may be fetched-but-unposted while this runs,
    /// or the checkpoint would capture state the log cannot reproduce.
    /// Returns the `next_seq` the checkpoint covers up to.
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the WAL is gone or died here (possibly
    /// mid-checkpoint; recovery handles every intermediate state).
    pub fn checkpoint(&self, values: Vec<u64>) -> Result<u64, WalDead> {
        let sh = &*self.shared;
        let _nudge = sh.nudge(true);
        let mut w = sh.writer().ok_or(WalDead)?;
        if !w.flush_posted(sh) {
            return Err(WalDead);
        }
        if !w.checkpoint(sh, values) {
            sh.state.store(DEAD, Ordering::SeqCst);
            return Err(WalDead);
        }
        Ok(w.next)
    }

    /// Whether the WAL has died (crash injection, I/O error).
    pub fn is_dead(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) == DEAD
    }

    /// Point-in-time WAL counters.
    pub fn stats(&self) -> WalSnapshot {
        self.shared.stats.snapshot()
    }

    /// Writes every posted record of the dense prefix, fsyncs, closes the
    /// WAL and returns the final counters. Dropping the opener handle does
    /// the same minus the snapshot.
    pub fn shutdown(self) -> WalSnapshot {
        self.close();
        self.shared.stats.snapshot()
    }

    fn close(&self) {
        let sh = &*self.shared;
        let _nudge = sh.nudge(true);
        let Some(mut w) = sh.writer() else { return };
        if !w.flush_posted(sh) {
            return;
        }
        let synced = w.file.sync_data().is_ok();
        sh.state
            .store(if synced { CLOSED } else { DEAD }, Ordering::SeqCst);
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.owner {
            self.close();
        }
    }
}

/// What the writer lock guards.
struct WriterState {
    cfg: WalConfig,
    file: File,
    /// The next sequence to write: where the dense prefix on file ends.
    next: u64,
    batches_since_fsync: u32,
    /// Records written since the last fsync: what the next one covers.
    records_since_fsync: u64,
    /// Batch scratch space, reused so a steady state allocates nothing.
    buf: Vec<u8>,
}

impl WriterState {
    fn fires(&self, point: KillPoint) -> bool {
        self.cfg.kill.as_ref().is_some_and(|k| k.should_fire(point))
    }

    fn maybe_fsync(&mut self, stats: &WalStats) -> io::Result<()> {
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.batches_since_fsync = (self.batches_since_fsync + 1) % n;
                self.batches_since_fsync == 0
            }
            FsyncPolicy::Never => false,
        };
        if due {
            let t0 = Instant::now();
            self.file.sync_data()?;
            let dt = t0.elapsed().as_nanos() as u64;
            stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            stats.fsync_ns.record(dt);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::WalFsync {
                records: self.records_since_fsync,
                ns: dt,
            });
            self.records_since_fsync = 0;
        }
        Ok(())
    }

    /// Writes the dense run of posted slots from `next` on as one batch
    /// and moves the watermark past it. Returns `false`, with the WAL
    /// marked dead, at a kill point or on an I/O error.
    fn flush_batch(&mut self, sh: &Shared) -> bool {
        let written = self.write_batch(sh);
        if !written {
            sh.state.store(DEAD, Ordering::SeqCst);
        }
        written
    }

    /// Writes every posted record of the dense prefix; `false` when the
    /// WAL died doing so.
    fn flush_posted(&mut self, sh: &Shared) -> bool {
        while sh.is_posted(self.next) {
            if !self.flush_batch(sh) {
                return false;
            }
        }
        true
    }

    fn write_batch(&mut self, sh: &Shared) -> bool {
        let depth = sh.slots.len() as u64;
        let first = self.next;
        self.buf.clear();
        while self.next - first < depth && sh.is_posted(self.next) {
            let slot = sh.slot(self.next);
            encode_frame(self.next, &locked(&slot.writes), &mut self.buf);
            slot.turn.store(self.next + depth, Ordering::SeqCst);
            self.next += 1;
        }
        let records = self.next - first;
        self.records_since_fsync += records;

        if self.fires(KillPoint::PreAppend) {
            return false;
        }
        if self.fires(KillPoint::MidAppend) {
            // Torn write: half the batch reaches the file, cutting
            // through the final record.
            let cut = self.buf.len() - (records as usize).min(self.buf.len() / 2).max(1);
            let _ = self.file.write_all(&self.buf[..cut]);
            let _ = self.file.sync_data();
            return false;
        }
        if self.file.write_all(&self.buf).is_err() || self.maybe_fsync(&sh.stats).is_err() {
            return false;
        }
        if self.fires(KillPoint::PostAppendPreAck) {
            // Data is durable; the watermark never says so.
            let _ = self.file.sync_data();
            return false;
        }
        let stats = &sh.stats;
        stats.appended_records.fetch_add(records, Ordering::Relaxed);
        stats
            .appended_bytes
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batch_sizes.record(records);
        stats.acked_records.fetch_add(records, Ordering::Relaxed);
        sh.durable.0.store(self.next, Ordering::SeqCst);
        true
    }

    /// Writes `ckpt-<next>.snap` (temp + fsync + rename) then truncates
    /// the log. Returns `false` at a kill point or on an I/O error.
    fn checkpoint(&mut self, sh: &Shared, values: Vec<u64>) -> bool {
        let dir = self.cfg.dir.clone();
        let ck = Checkpoint {
            next_seq: self.next,
            values,
        };
        let image = ck.encode();
        let run = || -> io::Result<bool> {
            // The snapshot reflects every applied record; make sure the
            // log that produced it is durable before superseding it.
            self.file.sync_data()?;
            if self.fires(KillPoint::MidCheckpoint) {
                // Crash mid-temp-write: a half checkpoint that never
                // validates and never renames.
                let mut f = File::create(dir.join(CKPT_TMP))?;
                f.write_all(&image[..image.len() / 2])?;
                f.sync_all()?;
                return Ok(false);
            }
            let tmp = dir.join(CKPT_TMP);
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, dir.join(ckpt_file_name(ck.next_seq)))?;
            // Persist the rename itself.
            if let Ok(d) = File::open(&dir) {
                let _ = d.sync_all();
            }
            if self.fires(KillPoint::MidTruncate) {
                // Checkpoint durable, log not truncated: recovery must
                // skip the stale records.
                return Ok(false);
            }
            self.file.set_len(0)?;
            self.file.sync_data()?;
            // Old checkpoints are superseded; best-effort cleanup.
            for entry in fs::read_dir(&dir)?.flatten() {
                if let Ok(name) = entry.file_name().into_string() {
                    if name.starts_with("ckpt-")
                        && name.ends_with(".snap")
                        && name != ckpt_file_name(ck.next_seq)
                    {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
            sh.stats.truncations.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        };
        match run() {
            Ok(true) => {
                sh.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                // The checkpoint's own sync covered them.
                self.records_since_fsync = 0;
                true
            }
            Ok(false) | Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn cleanup(dir: PathBuf) {
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn append_recover_roundtrip() {
        let dir = scratch_dir("wrt-roundtrip");
        let (wal, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st.next_seq, 0);
        wal.append(0, vec![(1, 10)]).unwrap();
        wal.append(1, vec![(2, 20), (3, 30)]).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appended_records, 2);
        assert_eq!(stats.acked_records, 2);
        wal.shutdown();

        let (wal2, st2) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st2.next_seq, 2);
        assert_eq!(st2.records.len(), 2);
        assert_eq!(st2.records[1].writes, vec![(2, 20), (3, 30)]);
        // Appending resumes where we left off.
        wal2.append(2, vec![(4, 40)]).unwrap();
        wal2.shutdown();
        let (_, st3) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st3.next_seq, 3);
        cleanup(dir);
    }

    #[test]
    fn out_of_order_appends_wait_for_the_gap() {
        let dir = scratch_dir("wrt-ooo");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let w2 = wal.client();
        // Submit seq 1 from another thread; it must not ack until seq 0
        // arrives.
        let h = std::thread::spawn(move || w2.append(1, vec![(7, 70)]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "seq 1 acked before seq 0 was appended");
        wal.append(0, vec![(6, 60)]).unwrap();
        h.join().unwrap().unwrap();
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(
            st.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1],
            "file order must be sequence order"
        );
        cleanup(dir);
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_it() {
        let dir = scratch_dir("wrt-ckpt");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append(0, vec![(0, 5)]).unwrap();
        wal.append(1, vec![(1, 6)]).unwrap();
        let covered = wal.checkpoint(vec![5, 6]).unwrap();
        assert_eq!(covered, 2);
        wal.append(2, vec![(0, 7)]).unwrap();
        assert_eq!(wal.stats().checkpoints, 1);
        wal.shutdown();

        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st.values, vec![5, 6]);
        assert_eq!(st.records.len(), 1);
        assert_eq!(st.records[0].seq, 2);
        assert_eq!(st.next_seq, 3);
        cleanup(dir);
    }

    #[test]
    fn second_checkpoint_removes_the_first() {
        let dir = scratch_dir("wrt-ckpt2");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append(0, vec![(0, 1)]).unwrap();
        wal.checkpoint(vec![1]).unwrap();
        wal.append(1, vec![(0, 2)]).unwrap();
        wal.checkpoint(vec![2]).unwrap();
        wal.shutdown();
        let snaps: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".snap"))
            .collect();
        assert_eq!(snaps, vec![ckpt_file_name(2)]);
        cleanup(dir);
    }

    #[test]
    fn fsync_policies_parse_and_count() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every0"), None);
        assert_eq!(FsyncPolicy::parse("bogus"), None);
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Never,
        ] {
            assert_eq!(FsyncPolicy::parse(&p.name()), Some(p));
        }

        let dir = scratch_dir("wrt-fsync");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Never;
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 1)]).unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        wal.shutdown();
        cleanup(dir);
    }

    #[test]
    fn kill_pre_append_loses_the_batch_but_nothing_acked() {
        let dir = scratch_dir("wrt-kill-pre");
        let kill = KillSwitch::arm(KillPoint::PreAppend, 2);
        let mut cfg = WalConfig::new(&dir);
        cfg.kill = Some(Arc::clone(&kill));
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 1)]).unwrap();
        let err = wal.append(1, vec![(1, 2)]).unwrap_err();
        assert_eq!(err, WalDead);
        assert!(kill.fired());
        assert!(wal.is_dead());
        // Subsequent appends fail fast.
        assert_eq!(wal.append(2, vec![(2, 3)]), Err(WalDead));
        assert!(wal.stats().failed_appends >= 2);
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st.records.len(), 1, "only the acked record survives");
        cleanup(dir);
    }

    #[test]
    fn kill_mid_append_leaves_a_recoverable_torn_tail() {
        let dir = scratch_dir("wrt-kill-mid");
        let kill = KillSwitch::arm(KillPoint::MidAppend, 2);
        let mut cfg = WalConfig::new(&dir);
        cfg.kill = Some(kill);
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 1)]).unwrap();
        assert_eq!(wal.append(1, vec![(1, 2)]), Err(WalDead));
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert!(st.report.torn_truncated_bytes > 0, "{:?}", st.report);
        assert_eq!(st.records.len(), 1);
        assert_eq!(st.next_seq, 1);
        cleanup(dir);
    }

    #[test]
    fn kill_post_append_pre_ack_keeps_the_unacked_write() {
        let dir = scratch_dir("wrt-kill-post");
        let kill = KillSwitch::arm(KillPoint::PostAppendPreAck, 2);
        let mut cfg = WalConfig::new(&dir);
        cfg.kill = Some(kill);
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 1)]).unwrap();
        // Not acked -> error; but the record IS durable.
        assert_eq!(wal.append(1, vec![(1, 2)]), Err(WalDead));
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st.records.len(), 2);
        assert_eq!(st.next_seq, 2);
        cleanup(dir);
    }

    #[test]
    fn kill_mid_checkpoint_keeps_the_old_state() {
        let dir = scratch_dir("wrt-kill-ckpt");
        let kill = KillSwitch::arm(KillPoint::MidCheckpoint, 1);
        let mut cfg = WalConfig::new(&dir);
        cfg.kill = Some(kill);
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 9)]).unwrap();
        assert_eq!(wal.checkpoint(vec![9]), Err(WalDead));
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert!(st.values.is_empty(), "half-written checkpoint must lose");
        assert_eq!(st.records.len(), 1);
        assert_eq!(st.next_seq, 1);
        cleanup(dir);
    }

    #[test]
    fn kill_mid_truncate_skips_stale_records() {
        let dir = scratch_dir("wrt-kill-trunc");
        let kill = KillSwitch::arm(KillPoint::MidTruncate, 1);
        let mut cfg = WalConfig::new(&dir);
        cfg.kill = Some(kill);
        let (wal, _) = Wal::open(cfg).unwrap();
        wal.append(0, vec![(0, 3)]).unwrap();
        wal.append(1, vec![(1, 4)]).unwrap();
        assert_eq!(wal.checkpoint(vec![3, 4]), Err(WalDead));
        wal.shutdown();
        let (_, st) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(st.values, vec![3, 4], "checkpoint renamed, so it wins");
        assert!(st.records.is_empty());
        assert_eq!(st.report.skipped_stale, 2);
        assert!(st.report.completed_truncation);
        assert_eq!(st.next_seq, 2);
        cleanup(dir);
    }
}

/// The ring and the watermark: laps, waits behind a gap, batches and death.
#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::scratch_dir;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::Duration;

    fn open_ring(dir: &PathBuf, depth: usize, kill: Option<Arc<KillSwitch>>) -> Wal {
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = FsyncPolicy::Never;
        cfg.kill = kill;
        Wal::open_ring(cfg, depth).expect("open the ring").0
    }

    #[test]
    fn shuffled_posts_through_a_tiny_ring_land_in_order() {
        const THREADS: u64 = 4;
        const RECORDS: u64 = 600;
        for depth in [2usize, 4] {
            let dir = scratch_dir("ring-shuffle");
            let wal = open_ring(&dir, depth, None);
            // Sequence `s` belongs to thread `owner[s]`: a fixed shuffle,
            // so each thread posts an ascending but ragged subsequence.
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ depth as u64;
            let owner: Vec<u64> = (0..RECORDS)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % THREADS
                })
                .collect();
            let released = AtomicUsize::new(0);
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                // The watermark only grows.
                let monitor = scope.spawn(|| {
                    let mut seen = wal.durable_seq();
                    while !done.load(Ordering::SeqCst) {
                        let now = wal.durable_seq();
                        assert!(now >= seen, "watermark went back: {seen} -> {now}");
                        seen = now;
                        std::thread::yield_now();
                    }
                });
                let producers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (wal, owner, released) = (wal.client(), &owner, &released);
                        scope.spawn(move || {
                            let mine = (0..RECORDS).filter(|&s| owner[s as usize] == t);
                            let mut unwaited = Vec::new();
                            for seq in mine {
                                wal.post(seq, &[(seq, seq * 3)]).expect("live writer");
                                unwaited.push(seq);
                                // Even threads wait per record, as `append`
                                // does; odd ones per run of three, as a
                                // worker's batch does.
                                if t % 2 == 0 || unwaited.len() == 3 {
                                    wal.wait_durable(seq).expect("live writer");
                                    for s in unwaited.drain(..) {
                                        assert!(wal.durable_seq() > s);
                                        released.fetch_add(1, Ordering::SeqCst);
                                    }
                                }
                            }
                            if let Some(&last) = unwaited.last() {
                                wal.wait_durable(last).expect("live writer");
                                released.fetch_add(unwaited.len(), Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                for p in producers {
                    p.join().expect("producer panicked");
                }
                done.store(true, Ordering::SeqCst);
                monitor.join().expect("monitor panicked");
            });
            assert_eq!(released.load(Ordering::SeqCst) as u64, RECORDS);
            assert_eq!(wal.durable_seq(), RECORDS);
            let stats = wal.shutdown();
            assert_eq!(stats.acked_records, RECORDS);
            assert_eq!(stats.failed_appends, 0);
            let st = recover(&dir).unwrap();
            assert_eq!(st.records.len() as u64, RECORDS);
            for (i, rec) in st.records.iter().enumerate() {
                let seq = i as u64;
                assert_eq!(rec.seq, seq, "file order must be sequence order");
                assert_eq!(rec.writes, vec![(seq, seq * 3)], "a lap mixed payloads");
            }
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// Gives `thread` a while to finish and checks that it has not: it is
    /// waiting for something the test has not done yet.
    fn still_waiting<T>(what: &str, thread: &std::thread::JoinHandle<T>) {
        std::thread::sleep(Duration::from_millis(20));
        assert!(!thread.is_finished(), "{what} returned early");
    }

    #[test]
    fn a_lapped_producer_writes_the_lap_below_it() {
        let dir = scratch_dir("ring-lap");
        let wal = open_ring(&dir, 2, None);
        // Slot 0 is free for sequence 0: sequence 2 has to wait a lap.
        let lapped = {
            let wal = wal.client();
            std::thread::spawn(move || wal.post(2, &[(2, 2)]))
        };
        still_waiting("the lapped post", &lapped);
        wal.post(1, &[(1, 1)]).unwrap();
        wal.post(0, &[(0, 0)]).unwrap();
        lapped.join().expect("producer panicked").unwrap();
        // Nobody else waited: the lapped producer wrote 0 and 1 itself.
        assert_eq!(wal.durable_seq(), 2);
        wal.wait_durable(2).unwrap();
        wal.shutdown();
        let seqs: Vec<u64> = recover(&dir)
            .unwrap()
            .records
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lone_appends_are_one_batch_each() {
        let dir = scratch_dir("ring-lone");
        let wal = open_ring(&dir, 4, None);
        for seq in 0..3u64 {
            wal.append(seq, vec![(seq, 1)]).unwrap();
        }
        assert_eq!(wal.shutdown().batches, 3);
        let _ = fs::remove_dir_all(dir);
    }

    /// Posted before anyone waits, the run is one write and one fsync: a
    /// post writes nothing, so no thread takes the first record alone.
    #[test]
    fn a_batch_posted_before_its_wait_is_one_write() {
        let dir = scratch_dir("ring-one-write");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        for seq in 0..8u64 {
            wal.post(seq, &[(seq, seq)]).unwrap();
            if seq == 0 {
                // Time for a thread that writes on a post to take it alone.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        wal.wait_durable(7).unwrap();
        let stats = wal.shutdown();
        assert_eq!((stats.batches, stats.fsyncs), (1, 1));
        let _ = fs::remove_dir_all(dir);
    }

    /// Between a waiter's look at the watermark and its taking the writer
    /// lock, another thread writes its record and a later one is posted:
    /// the waiter looks again under the lock and writes nothing.
    #[test]
    fn a_waiter_served_by_the_lock_holder_writes_nothing() {
        let dir = scratch_dir("ring-served");
        let wal = open_ring(&dir, 4, None);
        wal.post(0, &[(0, 1)]).unwrap();
        let sh = &*wal.shared;
        let looks = AtomicUsize::new(0);
        sh.lead_until(|| {
            if looks.fetch_add(1, Ordering::SeqCst) == 0 {
                // The other thread, between this look and the lock.
                let _nudge = sh.nudge(true);
                assert!(sh.writer.lock().unwrap().flush_batch(sh));
                wal.post(1, &[(1, 2)]).unwrap();
                return false;
            }
            wal.durable_seq() > 0
        });
        assert_eq!(looks.load(Ordering::SeqCst), 2);
        assert_eq!(wal.stats().batches, 1, "the waiter wrote seq 1");
        wal.shutdown();
        let _ = fs::remove_dir_all(dir);
    }

    /// A holder that leaves the lock without writing (what it waited for
    /// was done) still wakes a waiter that napped behind it: nobody else
    /// would write the waiter's record.
    #[test]
    fn a_holder_that_leaves_without_writing_wakes_its_nappers() {
        let dir = scratch_dir("ring-leaver");
        let wal = open_ring(&dir, 4, None);
        wal.post(0, &[(0, 1)]).unwrap();
        let sh = &*wal.shared;
        let (holding, held) = std::sync::mpsc::channel();
        let (tx, woke) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let looks = AtomicUsize::new(0);
                // Not done at the loop's top; done under the lock once a
                // waiter naps behind it.
                sh.lead_until(|| {
                    if looks.fetch_add(1, Ordering::SeqCst) == 0 {
                        return false;
                    }
                    holding.send(()).unwrap();
                    let patience = Instant::now() + Duration::from_secs(5);
                    while sh.nappers.load(Ordering::SeqCst) == 0 && Instant::now() < patience {
                        std::thread::yield_now();
                    }
                    true
                });
            });
            held.recv().unwrap();
            // Not scoped: a stranded waiter never returns.
            let client = wal.client();
            std::thread::spawn(move || tx.send(client.wait_durable(0)));
        });
        let woken = woke.recv_timeout(Duration::from_secs(5));
        assert_eq!(woken, Ok(Ok(())), "the napping waiter was stranded");
        wal.shutdown();
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_waiter_behind_a_gap_returns_once_its_owner_posts() {
        let dir = scratch_dir("ring-gap");
        let wal = open_ring(&dir, 4, None);
        for seq in 0..3u64 {
            let waiter = {
                let wal = wal.client();
                std::thread::spawn(move || wal.wait_durable(seq))
            };
            still_waiting("a wait behind the gap", &waiter);
            wal.post(seq, &[(seq, 1)]).unwrap();
            waiter.join().expect("waiter panicked").unwrap();
        }
        wal.shutdown();
        let _ = fs::remove_dir_all(dir);
    }

    /// Each append-path kill point, fired in whichever waiter writes the
    /// batch, releases every outstanding waiter with `WalDead` and leaves
    /// the directory the single-appender kill tests above expect.
    #[test]
    fn a_kill_in_any_flushing_thread_releases_every_waiter() {
        for point in [
            KillPoint::PreAppend,
            KillPoint::MidAppend,
            KillPoint::PostAppendPreAck,
        ] {
            let dir = scratch_dir("ring-kill");
            let kill = KillSwitch::arm(point, 2);
            let wal = open_ring(&dir, 4, Some(Arc::clone(&kill)));
            wal.append(0, vec![(0, 1)]).unwrap();
            let waiters: Vec<_> = (1..=3u64)
                .map(|seq| {
                    let wal = wal.client();
                    std::thread::spawn(move || wal.wait_durable(seq))
                })
                .collect();
            for w in &waiters {
                still_waiting("a wait behind the gap", w);
            }
            // The second batch: the switch fires on it.
            wal.post(1, &[(1, 2)]).unwrap();
            for w in waiters {
                assert_eq!(
                    w.join().expect("waiter panicked"),
                    Err(WalDead),
                    "{point:?}"
                );
            }
            assert!(kill.fired() && wal.is_dead());
            assert_eq!(wal.durable_seq(), 1, "the watermark stays where it was");
            // The door is shut: nothing more gets into the ring.
            assert_eq!(wal.post(2, &[(2, 3)]), Err(WalDead));
            assert_eq!(wal.checkpoint(vec![1]), Err(WalDead));
            assert_eq!(wal.shutdown().failed_appends, 4);

            let st = recover(&dir).unwrap();
            let (records, torn) = (st.records.len(), st.report.torn_truncated_bytes);
            match point {
                KillPoint::PreAppend => assert_eq!((records, torn), (1, 0)),
                KillPoint::MidAppend => assert!(records == 1 && torn > 0, "{:?}", st.report),
                _ => assert_eq!((records, st.next_seq), (2, 2)),
            }
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// A panic under the writer lock may have left the file mid-batch: the
    /// next thread to want the lock finds it poisoned and the WAL dead.
    #[test]
    fn a_poisoned_writer_lock_kills_the_wal() {
        let dir = scratch_dir("ring-poison");
        let wal = open_ring(&dir, 4, None);
        wal.append(0, vec![(0, 1)]).unwrap();
        let shared = Arc::clone(&wal.shared);
        let panicked = std::thread::spawn(move || {
            let _held = shared.writer.lock();
            panic!("a panic under the writer lock");
        });
        assert!(panicked.join().is_err());
        assert_eq!(wal.append(1, vec![(1, 2)]), Err(WalDead));
        assert!(wal.is_dead());
        assert_eq!(wal.checkpoint(vec![1]), Err(WalDead));
        assert_eq!(wal.durable_seq(), 1);
        wal.shutdown();
        assert_eq!(recover(&dir).unwrap().records.len(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_post_after_shutdown_fails_instead_of_hanging() {
        let dir = scratch_dir("ring-closed");
        let wal = open_ring(&dir, 2, None);
        let client = wal.client();
        client.append(0, vec![(0, 1)]).unwrap();
        wal.shutdown();
        assert!(!client.is_dead(), "a clean stop is not a death");
        assert_eq!(client.append(1, vec![(1, 2)]), Err(WalDead));
        assert_eq!(client.wait_durable(5), Err(WalDead));
        assert_eq!(client.wait_durable(0), Ok(()), "what was durable stays so");
        let _ = fs::remove_dir_all(dir);
    }
}
