//! The service workload of the crash ([`crate::recovery`]) and fail-over
//! ([`crate::cluster`]) harnesses: one seeded client stream, one
//! per-client ledger, one bank oracle and one backend factory.
//!
//! * **Ledger keys** — one per client, written only by that client with
//!   strictly ascending values (`Put k=c, v=1,2,3,...`). Whatever table
//!   survives the run — a recovered node, a failed-over primary — must
//!   hold a value in `[last_acked, last_submitted]` there: every
//!   acknowledged write survives, and nothing the client never submitted
//!   appears.
//! * **Bank keys** — preloaded through the service (so the preload is
//!   itself logged and replicated), then shuffled by `Transfer`s. Every
//!   transfer conserves the total, so any prefix of the serialization
//!   order sums to the preload.

use crate::driver::BackendKind;
use rococo_sched::HybridTm;
use rococo_server::Request;
use rococo_stm::{GlobalLockTm, RococoTm, TinyStm, TmConfig, TmSystem, TsxHtm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Bank keys all start at this balance.
pub const BANK_BALANCE: u64 = 1_000;

/// Backends the service tiers cover (Seq cannot back a multi-worker
/// service).
pub const SERVICE_BACKENDS: [BackendKind; 3] =
    [BackendKind::Tiny, BackendKind::Htm, BackendKind::Rococo];

/// A harness run generic over the backend [`on_backend`] picks.
pub(crate) trait OnBackend {
    /// The run's report.
    type Out;
    /// Runs with `make` as the backend's constructor.
    fn on<S: TmSystem + 'static>(self, make: fn(TmConfig) -> S) -> Self::Out;
}

/// The backend factory of the service harnesses: runs `run` with the
/// default-configured constructor of `kind`. Recovery and fail-over
/// rebuild onto a backend that has never committed, so a harness calls
/// the constructor once per (re)start.
///
/// # Panics
///
/// On [`BackendKind::Seq`], which has no synchronisation and cannot back
/// a multi-worker service.
pub(crate) fn on_backend<R: OnBackend>(kind: BackendKind, run: R) -> R::Out {
    match kind {
        BackendKind::Rococo => run.on(RococoTm::with_config),
        BackendKind::Tiny => run.on(TinyStm::with_config),
        BackendKind::Htm => run.on(TsxHtm::with_config),
        BackendKind::Lock => run.on(GlobalLockTm::with_config),
        BackendKind::Hybrid => run.on(HybridTm::with_config),
        BackendKind::Seq => panic!("the sequential backend cannot run a multi-worker service"),
    }
}

/// The client load: ledger keys `0..clients`, then `bank_keys` bank keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Workload {
    /// Seed of every client's stream.
    pub(crate) seed: u64,
    /// Client threads, one ledger key each.
    pub(crate) clients: usize,
    /// Operations per client: one ledger put, then one transfer.
    pub(crate) ops_per_client: usize,
    /// Bank keys the transfers shuffle (at least 2).
    pub(crate) bank_keys: u64,
}

impl Workload {
    /// Keys the service must hold.
    pub(crate) fn keys(&self) -> u64 {
        self.clients as u64 + self.bank_keys
    }

    /// The next transfer between two distinct bank keys.
    fn transfer(&self, rng: &mut u64) -> Request {
        let bank = self.clients as u64;
        let from = xorshift(rng) % self.bank_keys;
        let to = (from + 1 + xorshift(rng) % (self.bank_keys - 1)) % self.bank_keys;
        Request::Transfer {
            from: bank + from,
            to: bank + to,
            amount: 1 + xorshift(rng) % 5,
        }
    }
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Acknowledged, with its commit sequence when the service reports
    /// one.
    Acked(Option<u64>),
    /// Known not committed.
    NotCommitted,
    /// The service went down under it: it may or may not have committed,
    /// and the load stops.
    Lost,
}

/// The service under load: a durable node or a replicated cluster.
pub(crate) trait Service: Sync {
    /// Issues `req`, retrying admission sheds (a full queue is
    /// backpressure, not an outcome). Errors the oracle must report go to
    /// `errors`.
    fn issue(&self, req: &Request, errors: &mut Vec<String>) -> Reply;

    /// Client `c`'s put of ledger value `value` was acknowledged at `seq`.
    fn acked_put(&self, _c: usize, _value: u64, _seq: Option<u64>, _ledger: &mut Ledger) {}
}

/// One client's ledger, filled in during the load.
#[derive(Debug, Default, Clone)]
pub(crate) struct Ledger {
    /// Highest ledger value whose `Put` was acknowledged.
    pub(crate) last_acked: u64,
    /// Highest ledger value ever submitted.
    pub(crate) last_submitted: u64,
    /// Acknowledged requests.
    pub(crate) acked: u64,
    /// Requests the service went down under.
    pub(crate) lost: u64,
    /// Follower reads that returned a value and passed the check.
    pub(crate) reads_checked: u64,
    /// Follower reads refused while the follower lagged or was down.
    pub(crate) reads_tolerated: u64,
    /// What this client saw go wrong, live.
    pub(crate) violations: Vec<String>,
}

impl Ledger {
    /// Issues `req` through `svc` and counts its reply.
    fn issue(&mut self, svc: &impl Service, req: &Request) -> Reply {
        let reply = svc.issue(req, &mut self.violations);
        match reply {
            Reply::Acked(_) => self.acked += 1,
            Reply::NotCommitted => {}
            Reply::Lost => self.lost += 1,
        }
        reply
    }
}

/// What the load left for the oracle.
#[derive(Debug)]
pub(crate) struct Load {
    /// Whether every bank key's preload was acknowledged; clients run
    /// only then.
    pub(crate) preload_complete: bool,
    /// The preload's own ledger.
    pub(crate) preload: Ledger,
    /// One ledger per client.
    pub(crate) clients: Vec<Ledger>,
}

impl Load {
    /// `field` summed over the preload and every client.
    pub(crate) fn total(&self, field: impl Fn(&Ledger) -> u64) -> u64 {
        field(&self.preload) + self.clients.iter().map(field).sum::<u64>()
    }

    /// What the preload and the clients saw go wrong, one line each.
    pub(crate) fn violations(&self) -> Vec<String> {
        let preload = self
            .preload
            .violations
            .iter()
            .map(|v| format!("preload: {v}"));
        let clients = self.clients.iter().enumerate().flat_map(|(c, ledger)| {
            ledger
                .violations
                .iter()
                .map(move |v| format!("client {c}: {v}"))
        });
        preload.chain(clients).collect()
    }
}

/// Preloads the bank through `svc`, then runs every client's stream
/// against it, all clients released at once. A preload the service went
/// down under runs no client: each bank key is then untouched or holds
/// its preload.
pub(crate) fn run_load(svc: &impl Service, w: &Workload) -> Load {
    let mut preload = Ledger::default();
    for b in 0..w.bank_keys {
        let put = Request::Put {
            key: w.clients as u64 + b,
            value: BANK_BALANCE,
        };
        if preload.issue(svc, &put) == Reply::Lost {
            break;
        }
    }
    let preload_complete = preload.acked == w.bank_keys;

    let mut clients = vec![Ledger::default(); w.clients];
    if preload_complete {
        let barrier = Barrier::new(w.clients);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for (c, ledger) in clients.iter_mut().enumerate() {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut rng = w.seed ^ ((c as u64 + 1) << 32) | 1;
                    barrier.wait();
                    for i in 1..=w.ops_per_client as u64 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        ledger.last_submitted = i;
                        let put = Request::Put {
                            key: c as u64,
                            value: i,
                        };
                        match ledger.issue(svc, &put) {
                            Reply::Acked(seq) => {
                                ledger.last_acked = i;
                                svc.acked_put(c, i, seq, ledger);
                            }
                            Reply::NotCommitted => {}
                            Reply::Lost => break,
                        }
                        if ledger.issue(svc, &w.transfer(&mut rng)) == Reply::Lost {
                            break;
                        }
                    }
                    if ledger.lost > 0 {
                        stop.store(true, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    Load {
        preload_complete,
        preload,
        clients,
    }
}

/// The ledger and bank oracle over a table that survived the run, named
/// `place` in its violations: every client's ledger key within
/// `[last_acked, last_submitted]` — exactly `last_acked` when `exact` —
/// and the bank conserved.
pub(crate) fn check_table(
    table: &[u64],
    load: &Load,
    exact: bool,
    place: &str,
    out: &mut Vec<String>,
) {
    for (c, ledger) in load.clients.iter().enumerate() {
        let v = table[c];
        if v < ledger.last_acked {
            out.push(format!(
                "client {c}: acked ledger write lost — {place} has {v}, acked up to {}",
                ledger.last_acked
            ));
        }
        if v > ledger.last_submitted {
            out.push(format!(
                "client {c}: {place} has ledger value {v}, never submitted (max {})",
                ledger.last_submitted
            ));
        }
        if exact && v != ledger.last_acked {
            out.push(format!(
                "client {c}: {place} must hold exactly the last ack — has {v}, acked {}",
                ledger.last_acked
            ));
        }
    }
    check_bank(
        &table[load.clients.len()..],
        load.preload_complete,
        place,
        out,
    );
}

/// The bank oracle: `balances` sum to the preload's total — or, when the
/// preload never completed and no transfer ran, each key is untouched or
/// holds its preload.
pub(crate) fn check_bank(
    balances: &[u64],
    preload_complete: bool,
    place: &str,
    out: &mut Vec<String>,
) {
    if preload_complete {
        let total: u128 = balances.iter().map(|&b| u128::from(b)).sum();
        let expected = u128::from(BANK_BALANCE) * balances.len() as u128;
        if total != expected {
            out.push(format!(
                "bank conservation broken on {place}: balances sum to {total}, expected {expected}"
            ));
        }
    } else {
        for (b, &v) in balances.iter().enumerate() {
            if v != 0 && v != BANK_BALANCE {
                out.push(format!(
                    "bank key {b} on {place}: impossible balance {v} (the preload never finished)"
                ));
            }
        }
    }
}

/// The clients' generator: a pinned seed replays the same streams in both
/// harnesses.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(preload_complete: bool, last_acked: u64, last_submitted: u64) -> Load {
        Load {
            preload_complete,
            preload: Ledger::default(),
            clients: vec![Ledger {
                last_acked,
                last_submitted,
                ..Ledger::default()
            }],
        }
    }

    fn violations(table: &[u64], load: &Load, exact: bool) -> Vec<String> {
        let mut out = Vec::new();
        check_table(table, load, exact, "the table", &mut out);
        out
    }

    #[test]
    fn the_oracle_accepts_a_surviving_prefix() {
        let table = [6, BANK_BALANCE - 7, BANK_BALANCE + 7];
        // The unacked suffix 6..=7 may survive a crash, not a clean stop.
        assert!(violations(&table, &load(true, 5, 7), false).is_empty());
        assert_eq!(violations(&table, &load(true, 5, 7), true).len(), 1);
        // A preload cut short: untouched or preloaded bank keys only.
        assert!(violations(&[0, BANK_BALANCE, 0], &load(false, 0, 0), false).is_empty());
    }

    #[test]
    fn the_oracle_names_a_lost_ack_a_phantom_and_a_drifted_bank() {
        let b = BANK_BALANCE;
        for (table, preload_complete, expected) in [
            ([4, b, b], true, "acked ledger write lost"),
            ([8, b, b], true, "never submitted"),
            ([5, b, b + 1], true, "bank conservation broken"),
            ([5, b - 1, 0], false, "impossible balance"),
        ] {
            let found = violations(&table, &load(preload_complete, 5, 7), false);
            assert!(
                found.len() == 1 && found[0].contains(expected),
                "{table:?}: {found:?}"
            );
        }
    }

    #[test]
    fn transfers_move_between_two_distinct_bank_keys() {
        let w = Workload {
            seed: 3,
            clients: 4,
            ops_per_client: 0,
            bank_keys: 2,
        };
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..100 {
            let Request::Transfer { from, to, amount } = w.transfer(&mut rng) else {
                panic!("a transfer");
            };
            assert!(from != to && (4..6).contains(&from) && (4..6).contains(&to));
            assert!((1..=5).contains(&amount));
        }
    }
}
