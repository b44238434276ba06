//! The group-commit WAL writer.
//!
//! One writer thread owns the log file. Shard workers hand it committed
//! write sets through one bounded ring **indexed by the commit sequence
//! itself**: record `seq` lives in slot `seq % depth`. The TM already
//! handed out a dense ticket inside its commit critical section, so there
//! is no tail to CAS and nothing to re-order — the writer waits for slot
//! `next`, encodes the dense run of posted slots into one `write(2)` + one
//! fsync (per policy), and the file is in commit order by construction.
//! Nothing is allocated per record: a slot's vector keeps its capacity
//! from lap to lap.
//!
//! Acknowledgement is one monotone **durable watermark**: after each
//! batch's write (and its fsync, per [`FsyncPolicy`]) the writer stores
//! `next` into it. [`Wal::post`] fills a slot and returns; a worker posts
//! every commit of its batch as the verdicts land and calls
//! [`Wal::wait_durable`] once, for the last of them. [`Wal::append`] is the
//! two in a row.
//!
//! # Slot lifecycle
//!
//! | state | `turn` | entered by |
//! |---|---|---|
//! | free for `seq` | `seq` | [`Wal::open`] (first lap), or the writer consuming `seq − depth` |
//! | posted | `seq + 1` | the owner of `seq`, by the `SeqCst` store of `turn` in [`Wal::post`] — after it copied the write set in under the slot's lock |
//! | free for `seq + depth` | `seq + depth` | the writer, once it has encoded the record into its batch buffer (before the `write(2)`: the slot is free while the batch is on its way to disk) |
//!
//! Only the owner of `seq` posts it and only the writer frees, so a slot's
//! lock is never contended; it is there because this crate forbids
//! `unsafe`. A producer whose slot still holds the previous lap waits for
//! the writer to pass it. That cannot deadlock: the writer stalls only on
//! the lowest unposted sequence `L`, every slot below `L` is consumed, so
//! `L < next + depth` — the owner of `L` never waits on the ring, and it
//! posts its sequences in ascending order, so nothing it waits for earlier
//! is above `L`.
//!
//! # Waiting
//!
//! Both directions wait with `rococo-park`'s [`Parker::wait`] (spin, yield,
//! park, with the budgets swept for this ring). The writer has one
//! parking spot; a `post` wakes it. Producers — any number of threads,
//! waiting for the watermark, a lapped slot or a checkpoint — each claim
//! one of [`WAIT_SPOTS`] spots for the length of one wait, and the writer
//! wakes every claimed spot after each batch; a spurious wake re-checks
//! and parks again.
//!
//! # Checkpoints
//!
//! A checkpoint is a side mailbox, not a ring entry: the caller quiesces
//! commits (TxKV holds its pause gate), snapshots the key table, leaves it
//! in the mailbox and raises a flag the writer polls at a batch boundary
//! with nothing posted. The writer fsyncs the log, writes `ckpt.tmp`,
//! fsyncs, renames to `ckpt-<next_seq>.snap`, and only then truncates the
//! log — the rename-before-truncate order is what makes a crash anywhere
//! in between recoverable.
//!
//! # Stop and writer death
//!
//! [`Wal::shutdown`] (or dropping the handle [`Wal::open`] returned) asks
//! the writer to stop; it leaves once slot `next` is unposted, after a
//! final fsync. When an armed [`KillSwitch`] fires (or on an I/O error) the
//! writer **dies**: the watermark stays where it was and nothing is
//! cleaned up — the directory holds exactly what a crash would leave.
//! Either way a guard on the writer's stack marks the WAL closed or dead
//! and wakes every spot: each outstanding and future
//! [`Wal::wait_durable`] above the watermark returns [`WalDead`]. A waiter
//! re-checks the state after it published `sleeping` and the guard wakes
//! after it stored the state, both `SeqCst`, so one sees the other.

use crate::kill::{KillPoint, KillSwitch};
use crate::record::{encode_frame, Checkpoint};
use crate::recover::{ckpt_file_name, recover, RecoveredState, CKPT_TMP, LOG_FILE};
use crate::stats::{WalSnapshot, WalStats};
use rococo_park::{spin_on_this_host, Padded, Parker, CONSUMER_SPIN, PARK_AFTER, PRODUCER_SPIN};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Slots of the ring, and so the most records one batch can hold. Twice
/// what the default service can have outstanding (8 workers × a 16-job
/// batch, each waiting for the watermark before its next batch), so no
/// worker of it ever waits for a slot; 256 slots of one cache line are
/// 16 KiB.
const RING_DEPTH: usize = 256;

/// Producer threads that can be parked at once; a thread that finds every
/// spot taken polls with a yield instead. Twice the default service's 8
/// workers.
const WAIT_SPOTS: usize = 16;

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

/// The writer is dead (simulated crash, I/O error, or shutdown): the
/// append was **not** acked and may or may not be durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalDead;

impl fmt::Display for WalDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "durability lost: WAL writer stopped")
    }
}

impl std::error::Error for WalDead {}

/// The writer serves the ring.
const RUNNING: u8 = 0;
/// [`Wal::shutdown`] asked it to leave once the ring is drained.
const STOPPING: u8 = 1;
/// It left after a clean drain and a final fsync.
const CLOSED: u8 = 2;
/// It died at a kill point, on an I/O error or in a panic.
const DEAD: u8 = 3;

#[repr(align(64))]
struct Slot {
    /// Which sequence the slot is free for (`seq`) or holds (`seq + 1`).
    turn: AtomicU64,
    /// The posted write set. Locked by the owner of `seq` before it posts
    /// and by the writer after, never at once.
    writes: Mutex<Vec<(u64, u64)>>,
}

/// One producer's parking spot, claimed for the length of one wait.
#[derive(Default)]
struct Spot {
    taken: AtomicBool,
    parker: Parker,
}

struct Shared {
    slots: Box<[Slot]>,
    mask: u64,
    /// Every record below this sequence has been written, and fsynced as
    /// far as the policy promises. The writer alone stores it.
    durable: Padded<AtomicU64>,
    /// [`RUNNING`] → [`STOPPING`] → [`CLOSED`], or → [`DEAD`] from either.
    state: AtomicU8,
    /// Where the writer sleeps for work.
    writer: Parker,
    spots: [Spot; WAIT_SPOTS],
    /// [`CONSUMER_SPIN`] and [`PRODUCER_SPIN`], zero on a one-CPU host.
    writer_spin: Duration,
    producer_spin: Duration,
    /// The checkpoint mailbox: one request at a time (`ckpt_turn`), the
    /// table image in `ckpt_values`, served once the writer lowers
    /// `ckpt_wanted`.
    ckpt_wanted: AtomicBool,
    ckpt_turn: Mutex<()>,
    ckpt_values: Mutex<Vec<u64>>,
    stats: WalStats,
}

/// Every critical section here leaves its data whole at every step, so a
/// poisoned lock is taken over as it stands.
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

    /// The writer thread has left, cleanly or not.
    fn is_gone(&self) -> bool {
        self.state.load(Ordering::SeqCst) >= CLOSED
    }

    /// Blocks a producer until `ready()`, which must read with `SeqCst`
    /// what the writer stores before [`Shared::wake_producers`].
    fn wait_for(&self, ready: impl Fn() -> bool) {
        while !ready() {
            let free = self
                .spots
                .iter()
                .find(|s| !s.taken.swap(true, Ordering::SeqCst));
            match free {
                Some(spot) => {
                    spot.parker
                        .wait(self.producer_spin, PARK_AFTER, None, &ready);
                    spot.taken.store(false, Ordering::SeqCst);
                }
                None => std::thread::yield_now(),
            }
        }
    }

    fn wake_producers(&self) {
        for spot in &self.spots {
            spot.parker.wake();
        }
    }
}

/// A handle to the group-commit WAL. Clone freely with [`Wal::client`];
/// all handles feed the same writer thread. The [`Wal`] returned by
/// [`Wal::open`] owns the writer: shutting it down or dropping it drains
/// the ring, stops the writer and joins it, and every other handle's
/// later appends fail with [`WalDead`].
pub struct Wal {
    shared: Arc<Shared>,
    /// Present only on the handle returned by `open`.
    writer: Option<JoinHandle<()>>,
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
    /// Recovers `cfg.dir` (see [`recover`]) and starts the writer thread
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
            writer: Parker::default(),
            spots: Default::default(),
            writer_spin: spin_on_this_host(CONSUMER_SPIN),
            producer_spin: spin_on_this_host(PRODUCER_SPIN),
            ckpt_wanted: AtomicBool::new(false),
            ckpt_turn: Mutex::new(()),
            ckpt_values: Mutex::new(Vec::new()),
            stats: WalStats::default(),
        });
        let st = WriterState {
            cfg,
            file,
            next,
            batches_since_fsync: 0,
            records_since_fsync: 0,
            shared: Arc::clone(&shared),
            buf: Vec::new(),
        };
        let writer = std::thread::Builder::new()
            .name("wal-writer".into())
            .spawn(move || writer_loop(st))
            .expect("failed to spawn wal writer");
        Ok((
            Wal {
                shared,
                writer: Some(writer),
            },
            recovered,
        ))
    }

    /// A cheap clone for shard workers (does not own the writer join
    /// handle).
    pub fn client(&self) -> Wal {
        Wal {
            shared: Arc::clone(&self.shared),
            writer: None,
        }
    }

    /// Hands one committed transaction to the writer and returns without
    /// waiting for it to reach the file. `seq` must be the dense commit
    /// sequence the TM handed out, rebased by the caller onto the
    /// recovered `next_seq`; each sequence is posted exactly once. Waits
    /// only while slot `seq % depth` still holds the record one lap
    /// below — never for the owner of the lowest unposted sequence, and a
    /// thread must post its own sequences in ascending order.
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the writer is gone. An `Ok` promises nothing yet:
    /// [`Wal::wait_durable`] does.
    pub fn post(&self, seq: u64, writes: &[(u64, u64)]) -> Result<(), WalDead> {
        let sh = &*self.shared;
        let slot = sh.slot(seq);
        sh.wait_for(|| slot.turn.load(Ordering::SeqCst) == seq || sh.is_gone());
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
        sh.writer.wake();
        Ok(())
    }

    /// Blocks until the watermark has passed `seq`: its record is in the
    /// file, and fsynced if the policy says so.
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the writer went before it got there; the record may
    /// or may not have reached the disk.
    pub fn wait_durable(&self, seq: u64) -> Result<(), WalDead> {
        let sh = &*self.shared;
        sh.wait_for(|| self.durable_seq() > seq || sh.is_gone());
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

    /// Appends one committed transaction and blocks until the writer
    /// acks it (after the policy's fsync): [`Wal::post`], then
    /// [`Wal::wait_durable`].
    ///
    /// # Errors
    ///
    /// [`WalDead`] if the writer has died; the record may or may not
    /// have reached the disk.
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
    /// [`WalDead`] if the writer died (possibly mid-checkpoint; recovery
    /// handles every intermediate state).
    pub fn checkpoint(&self, values: Vec<u64>) -> Result<u64, WalDead> {
        let sh = &*self.shared;
        let _turn = locked(&sh.ckpt_turn);
        if sh.is_gone() {
            return Err(WalDead);
        }
        *locked(&sh.ckpt_values) = values;
        sh.ckpt_wanted.store(true, Ordering::SeqCst);
        sh.writer.wake();
        // `ckpt_turn` is held across this wait on purpose: it only orders
        // checkpointers among themselves (the mailbox holds one request),
        // and the writer never takes it.
        sh.wait_for(|| !sh.ckpt_wanted.load(Ordering::SeqCst) || sh.is_gone());
        if sh.ckpt_wanted.load(Ordering::SeqCst) {
            Err(WalDead)
        } else {
            // Commits are quiesced and the ring drained, so the watermark
            // is where the writer stands: the checkpoint's `next_seq`.
            Ok(self.durable_seq())
        }
    }

    /// Whether the writer has died (crash injection, I/O error).
    pub fn is_dead(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) == DEAD
    }

    /// Point-in-time WAL counters.
    pub fn stats(&self) -> WalSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops the writer (it flushes every posted record of the dense
    /// prefix first), joins it, and returns the final counters. Dropping
    /// the opener handle does the same minus the snapshot.
    pub fn shutdown(mut self) -> WalSnapshot {
        self.stop_and_join();
        self.shared.stats.snapshot()
    }

    fn stop_and_join(&mut self) {
        if let Some(h) = self.writer.take() {
            let _ = self.shared.state.compare_exchange(
                RUNNING,
                STOPPING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            self.shared.writer.wake();
            let _ = h.join();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

struct WriterState {
    cfg: WalConfig,
    file: File,
    /// The next sequence to write: the writer's place in the ring.
    next: u64,
    batches_since_fsync: u32,
    /// Records written since the last fsync: what the next one covers.
    records_since_fsync: u64,
    shared: Arc<Shared>,
    /// Batch scratch space, reused so a steady state allocates nothing.
    buf: Vec<u8>,
}

impl WriterState {
    fn fires(&self, point: KillPoint) -> bool {
        self.cfg.kill.as_ref().is_some_and(|k| k.should_fire(point))
    }

    fn maybe_fsync(&mut self) -> io::Result<()> {
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.batches_since_fsync += 1;
                if self.batches_since_fsync >= n {
                    self.batches_since_fsync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Never => false,
        };
        if due {
            let t0 = Instant::now();
            self.file.sync_data()?;
            let dt = t0.elapsed().as_nanos() as u64;
            self.shared.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.fsync_ns.record(dt);
            rococo_telemetry::tlm_event!(rococo_telemetry::TxEvent::WalFsync {
                records: self.records_since_fsync,
                ns: dt,
            });
            self.records_since_fsync = 0;
        }
        Ok(())
    }

    /// Writes the dense run of posted slots from `next` on as one batch
    /// and moves the watermark past it. Returns `false` when the writer
    /// died (kill point or I/O error).
    fn flush_batch(&mut self) -> bool {
        let depth = self.shared.slots.len() as u64;
        let first = self.next;
        self.buf.clear();
        while self.next - first < depth && self.shared.is_posted(self.next) {
            let slot = self.shared.slot(self.next);
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
        if self.file.write_all(&self.buf).is_err() || self.maybe_fsync().is_err() {
            return false;
        }
        if self.fires(KillPoint::PostAppendPreAck) {
            // Data is durable; the watermark never says so.
            let _ = self.file.sync_data();
            return false;
        }
        let shared = &*self.shared;
        let stats = &shared.stats;
        stats.appended_records.fetch_add(records, Ordering::Relaxed);
        stats
            .appended_bytes
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batch_sizes.record(records);
        stats.acked_records.fetch_add(records, Ordering::Relaxed);
        shared.durable.0.store(self.next, Ordering::SeqCst);
        shared.wake_producers();
        true
    }

    /// Serves the checkpoint mailbox. Returns `false` when the writer
    /// died.
    fn serve_checkpoint(&mut self) -> bool {
        let values = std::mem::take(&mut *locked(&self.shared.ckpt_values));
        if !self.do_checkpoint(values) {
            return false;
        }
        self.shared.ckpt_wanted.store(false, Ordering::SeqCst);
        self.shared.wake_producers();
        true
    }

    /// Writes `ckpt-<next>.snap` (temp + fsync + rename) then truncates
    /// the log. Returns `false` when the writer died.
    fn do_checkpoint(&mut self, values: Vec<u64>) -> bool {
        debug_assert!(
            !self.shared.is_posted(self.next),
            "checkpoint requires quiesced commits"
        );
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
            self.shared
                .stats
                .truncations
                .fetch_add(1, Ordering::Relaxed);
            Ok(true)
        };
        match run() {
            Ok(true) => {
                self.shared
                    .stats
                    .checkpoints
                    .fetch_add(1, Ordering::Relaxed);
                // The checkpoint's own sync covered them.
                self.records_since_fsync = 0;
                true
            }
            Ok(false) | Err(_) => false,
        }
    }
}

/// Lives on the writer thread's stack: whichever way the thread ends, no
/// producer is left waiting.
struct ExitGuard {
    shared: Arc<Shared>,
    /// The ring was drained and the tail fsynced.
    clean: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let state = if self.clean { CLOSED } else { DEAD };
        self.shared.state.store(state, Ordering::SeqCst);
        self.shared.wake_producers();
        rococo_telemetry::flush_thread();
    }
}

fn writer_loop(mut st: WriterState) {
    let shared = Arc::clone(&st.shared);
    let mut exit = ExitGuard {
        shared: Arc::clone(&shared),
        clean: false,
    };
    loop {
        shared
            .writer
            .wait(shared.writer_spin, PARK_AFTER, None, || {
                shared.is_posted(st.next)
                    || shared.ckpt_wanted.load(Ordering::SeqCst)
                    || shared.state.load(Ordering::SeqCst) != RUNNING
            });
        // Posted records first: a checkpoint or a stop is served at a
        // batch boundary with nothing posted behind it.
        if shared.is_posted(st.next) {
            if !st.flush_batch() {
                return;
            }
        } else if shared.ckpt_wanted.load(Ordering::SeqCst) {
            if !st.serve_checkpoint() {
                return;
            }
        } else {
            // Stop requested and the ring drained: make the tail durable.
            exit.clean = st.file.sync_data().is_ok();
            return;
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

/// The ring and the watermark: laps, waits, wake-ups and death.
#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::scratch_dir;
    use std::sync::atomic::AtomicUsize;

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let started = Instant::now();
        while !cond() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "timed out: {what}"
            );
            std::thread::yield_now();
        }
    }

    fn open_ring(dir: &PathBuf, depth: usize, kill: Option<Arc<KillSwitch>>) -> Wal {
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = FsyncPolicy::Never;
        cfg.kill = kill;
        Wal::open_ring(cfg, depth).expect("open the ring").0
    }

    fn parked_producers(wal: &Wal) -> usize {
        let spots = wal.shared.spots.iter();
        spots.filter(|s| s.parker.is_sleeping()).count()
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

    #[test]
    fn a_lapped_producer_unblocks_when_the_writer_passes_it() {
        let dir = scratch_dir("ring-lap");
        let wal = open_ring(&dir, 2, None);
        // Slot 0 is free for sequence 0: sequence 2 has to wait a lap.
        let lapped = {
            let wal = wal.client();
            std::thread::spawn(move || wal.post(2, &[(2, 2)]))
        };
        spin_until("the lapped producer parks", || parked_producers(&wal) == 1);
        assert_eq!(wal.durable_seq(), 0);
        wal.post(1, &[(1, 1)]).unwrap();
        wal.post(0, &[(0, 0)]).unwrap();
        lapped.join().expect("producer panicked").unwrap();
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
    fn a_parked_writer_is_woken_by_a_lone_post() {
        let dir = scratch_dir("ring-wake-writer");
        let wal = open_ring(&dir, 4, None);
        for seq in 0..3u64 {
            // Idle past its whole budget: it has published `sleeping`.
            spin_until("writer parks", || wal.shared.writer.is_sleeping());
            wal.post(seq, &[(seq, 1)]).unwrap();
            wal.wait_durable(seq).unwrap();
        }
        assert_eq!(wal.shutdown().batches, 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_parked_waiter_is_woken_by_the_watermark() {
        let dir = scratch_dir("ring-wake-waiter");
        let wal = open_ring(&dir, 4, None);
        for seq in 0..3u64 {
            let waiter = {
                let wal = wal.client();
                std::thread::spawn(move || wal.wait_durable(seq))
            };
            spin_until("waiter parks", || parked_producers(&wal) == 1);
            wal.post(seq, &[(seq, 1)]).unwrap();
            waiter.join().expect("waiter panicked").unwrap();
        }
        wal.shutdown();
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_checkpoint_is_served_by_a_parked_writer() {
        let dir = scratch_dir("ring-ckpt-parked");
        let wal = open_ring(&dir, 4, None);
        wal.append(0, vec![(0, 7)]).unwrap();
        spin_until("writer parks", || wal.shared.writer.is_sleeping());
        assert_eq!(wal.checkpoint(vec![7]), Ok(1));
        wal.shutdown();
        let st = recover(&dir).unwrap();
        assert_eq!((st.values, st.next_seq), (vec![7], 1));
        let _ = fs::remove_dir_all(dir);
    }

    /// Each append-path kill point releases every outstanding waiter with
    /// `WalDead` and leaves the directory the single-appender kill tests
    /// above expect.
    #[test]
    fn a_dying_writer_releases_every_waiter() {
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
            spin_until("three waiters park", || parked_producers(&wal) == 3);
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
