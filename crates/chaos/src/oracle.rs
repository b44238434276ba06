//! The serializability oracle.
//!
//! General serializability checking is NP-hard because the write order of
//! each address is unobservable. The chaos workloads sidestep this: every
//! *versioned* address obeys the RMW discipline (each writer first reads
//! the address, and all written values are unique), so the version order
//! is uniquely recoverable — the writer of version `k+1` is the committed
//! transaction that read version `k`. The serialization constraints then
//! form an ordinary digraph:
//!
//! * chain edges `writer(v_k) → writer(v_{k+1})` (write-write order),
//! * read-from edges `writer(v_k) → reader(v_k)`,
//! * anti-dependency edges `reader(v_k) → writer(v_{k+1})`,
//!
//! and **acyclicity is sound and complete**: the history is serializable
//! with respect to the versioned reads iff the graph is acyclic.
//!
//! A topological replay then closes the remaining gap: executing the
//! committed transactions in topological order over a model heap checks
//! *every* recorded read — including payload words whose values repeat —
//! and the final heap state. Payload words are only written by
//! transactions that also RMW a sibling version word, so all their writers
//! are totally ordered by chain edges and the replay outcome does not
//! depend on which topological order is chosen.
//!
//! Violation taxonomy produced here:
//!
//! * `lost update` — two committed transactions consumed the same version
//!   (a fork in a chain);
//! * `duplicate version value` — the unique-value discipline broke, which
//!   in practice means two commits of the same logical increment;
//! * `torn read` — a committed read observed a value no committed
//!   transaction ever wrote (e.g. a half-published write-back);
//! * `stale read in aborted attempt` — same, in an attempt that later
//!   aborted (opacity, not just serializability);
//! * `serialization cycle` — the dependency graph is cyclic;
//! * `replay mismatch` / `final state mismatch` — payload reads or the
//!   final heap disagree with the recovered serial order.

use rococo_stm::{Addr, TxnHistory, Word};
use std::collections::{HashMap, HashSet};

/// Everything the oracle needs to judge one run.
#[derive(Debug)]
pub struct OracleInput {
    /// Every recorded attempt (committed and aborted).
    pub histories: Vec<TxnHistory>,
    /// Initial value of every tracked address.
    pub initial: HashMap<Addr, Word>,
    /// Final heap value of every tracked address (read after all workers
    /// joined).
    pub final_heap: HashMap<Addr, Word>,
    /// Addresses under the versioned RMW discipline.
    pub versioned: HashSet<Addr>,
    /// Also require the serial order to respect real time (an attempt
    /// whose response preceded another's invocation must serialize before
    /// it). Sound for every backend in this repo: each commits at a point
    /// within the transaction's lifetime.
    pub strict: bool,
}

/// Checks one run's history; returns human-readable violations (empty
/// means the history passed).
pub fn check_history(input: &OracleInput) -> Vec<String> {
    let mut v = Violations::default();
    let committed: Vec<&TxnHistory> = input
        .histories
        .iter()
        .filter(|t| t.outcome.committed())
        .collect();

    let chains = build_chains(input, &committed, &mut v);
    if v.out.len() >= Violations::CAP {
        return v.out;
    }
    let graph = build_graph(input, &committed, &chains, &mut v);
    check_aborted_reads(input, &chains, &mut v);
    if let Some(order) = topo_sort(&committed, &graph, &mut v) {
        replay(input, &committed, &order, &mut v);
    }
    v.out
}

#[derive(Default)]
struct Violations {
    out: Vec<String>,
}

impl Violations {
    /// Reporting every instance of a systemic failure is noise; cap it.
    const CAP: usize = 20;

    fn push(&mut self, msg: String) {
        if self.out.len() < Self::CAP {
            self.out.push(msg);
        }
    }
}

/// The recovered version chain of one versioned address.
struct Chain {
    /// `values[k]` is version `k` (version 0 is the initial value).
    values: Vec<Word>,
    /// `writers[k]` (index into `committed`) wrote `values[k + 1]`.
    writers: Vec<usize>,
    /// Version position by value, for O(1) read classification.
    pos: HashMap<Word, usize>,
}

fn fmt_txn(t: &TxnHistory) -> String {
    format!(
        "txn(thread {}, inv {}, {} reads, {} writes)",
        t.thread,
        t.inv,
        t.reads.len(),
        t.writes.len()
    )
}

/// Step 1: recover the version chain of every versioned address.
fn build_chains(
    input: &OracleInput,
    committed: &[&TxnHistory],
    v: &mut Violations,
) -> HashMap<Addr, Chain> {
    // Per versioned address: writer txn index -> (prev value read, value written).
    let mut per_addr: HashMap<Addr, Vec<(usize, Word, Word)>> = HashMap::new();
    for (idx, txn) in committed.iter().enumerate() {
        for &(addr, val) in &txn.writes {
            if !input.versioned.contains(&addr) {
                continue;
            }
            // The RMW discipline: the writer must have read the address.
            let Some(&(_, prev)) = txn.reads.iter().find(|&&(a, _)| a == addr) else {
                v.push(format!(
                    "blind write to versioned addr {addr}: {} wrote {val} without reading",
                    fmt_txn(txn)
                ));
                continue;
            };
            per_addr.entry(addr).or_default().push((idx, prev, val));
        }
    }

    let mut chains = HashMap::new();
    for (&addr, writers) in &per_addr {
        // Unique written values, or the chain is ambiguous.
        let mut written = HashSet::new();
        for &(idx, _, val) in writers {
            if !written.insert(val) {
                v.push(format!(
                    "duplicate version value {val} at addr {addr} (second writer {}): \
                     two commits of the same logical update",
                    fmt_txn(committed[idx])
                ));
            }
        }
        // Forks: two committed writers consumed the same previous version.
        let mut by_prev: HashMap<Word, usize> = HashMap::new();
        let mut forked = false;
        for &(idx, prev, _) in writers {
            if let Some(&other) = by_prev.get(&prev) {
                v.push(format!(
                    "lost update at addr {addr}: {} and {} both consumed version value {prev}",
                    fmt_txn(committed[other]),
                    fmt_txn(committed[idx])
                ));
                forked = true;
            } else {
                by_prev.insert(prev, idx);
            }
        }
        if forked {
            continue; // no unique chain to build
        }

        // Follow the chain from the initial value.
        let initial = *input.initial.get(&addr).unwrap_or(&0);
        let mut chain = Chain {
            values: vec![initial],
            writers: Vec::new(),
            pos: HashMap::from([(initial, 0)]),
        };
        let mut cur = initial;
        let writes_of = |idx: usize, a: Addr| {
            committed[idx]
                .writes
                .iter()
                .find(|&&(wa, _)| wa == a)
                .map(|&(_, val)| val)
                .expect("writer recorded for this address")
        };
        while let Some(idx) = by_prev.remove(&cur) {
            cur = writes_of(idx, addr);
            chain.pos.insert(cur, chain.values.len());
            chain.values.push(cur);
            chain.writers.push(idx);
        }
        // Writers left over read a value outside the chain from the
        // initial state: they consumed a version that never existed.
        for (&prev, &idx) in &by_prev {
            v.push(format!(
                "broken version chain at addr {addr}: {} consumed value {prev}, \
                 which is not reachable from the initial value",
                fmt_txn(committed[idx])
            ));
        }
        // The final heap must hold the last version.
        if let Some(&fin) = input.final_heap.get(&addr) {
            if by_prev.is_empty() && fin != *chain.values.last().unwrap() {
                v.push(format!(
                    "final state mismatch at versioned addr {addr}: heap holds {fin}, \
                     version chain ends at {}",
                    chain.values.last().unwrap()
                ));
            }
        }
        chains.insert(addr, chain);
    }
    chains
}

/// Step 2: build the serialization digraph over committed transactions
/// (adjacency list by `committed` index, plus optional real-time edges).
fn build_graph(
    input: &OracleInput,
    committed: &[&TxnHistory],
    chains: &HashMap<Addr, Chain>,
    v: &mut Violations,
) -> Vec<Vec<usize>> {
    let n = committed.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let edge = |adj: &mut Vec<Vec<usize>>, from: usize, to: usize| {
        if from != to {
            adj[from].push(to);
        }
    };

    for (addr, chain) in chains {
        // Write-write chain order.
        for w in chain.writers.windows(2) {
            edge(&mut adj, w[0], w[1]);
        }
        // Read-from and anti-dependency edges for every committed read.
        for (ridx, txn) in committed.iter().enumerate() {
            for &(a, val) in &txn.reads {
                if a != *addr {
                    continue;
                }
                let Some(&k) = chain.pos.get(&val) else {
                    v.push(format!(
                        "torn read at addr {a}: {} observed {val}, which no committed \
                         transaction wrote",
                        fmt_txn(txn)
                    ));
                    continue;
                };
                if k > 0 {
                    edge(&mut adj, chain.writers[k - 1], ridx); // read-from
                }
                if k < chain.writers.len() {
                    edge(&mut adj, ridx, chain.writers[k]); // anti-dependency
                }
            }
        }
    }

    if input.strict && n > 1 {
        // Real-time edges, linear encoding: a timeline of auxiliary nodes,
        // one per invocation/response event, chained in stamp order. Each
        // transaction feeds its response event and is fed by its
        // invocation event, so a txn-to-txn path through the timeline
        // exists exactly when `resp(A) < inv(B)` — all real-time
        // precedence pairs, without the O(n^2) edge blow-up.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * n);
        for (i, txn) in committed.iter().enumerate() {
            events.push((txn.inv, true, i));
            events.push((txn.resp, false, i));
        }
        events.sort_unstable();
        // Aux node k gets graph index n + k.
        adj.resize(n + events.len(), Vec::new());
        for (k, &(_, is_inv, i)) in events.iter().enumerate() {
            if k + 1 < events.len() {
                adj[n + k].push(n + k + 1);
            }
            if is_inv {
                adj[n + k].push(i);
            } else {
                adj[i].push(n + k);
            }
        }
    }
    adj
}

/// Step 3: opacity spot-check on attempts that aborted — even a doomed
/// attempt must never observe a value that no committed transaction wrote
/// (that would be a torn or half-published read).
fn check_aborted_reads(input: &OracleInput, chains: &HashMap<Addr, Chain>, v: &mut Violations) {
    for txn in input.histories.iter().filter(|t| !t.outcome.committed()) {
        for &(addr, val) in &txn.reads {
            if !input.versioned.contains(&addr) {
                continue;
            }
            let known = match chains.get(&addr) {
                Some(chain) => chain.pos.contains_key(&val),
                // No committed writer: only the initial value exists.
                None => input.initial.get(&addr) == Some(&val),
            };
            if !known {
                v.push(format!(
                    "stale read in aborted attempt at addr {addr}: {} observed {val}, \
                     which no committed transaction wrote",
                    fmt_txn(txn)
                ));
            }
        }
    }
}

/// Step 4: Kahn's algorithm over the full graph (transaction nodes plus
/// any timeline nodes). Returns the transaction nodes in topological
/// order, or `None` (plus a violation) if the graph is cyclic.
fn topo_sort(
    committed: &[&TxnHistory],
    adj: &[Vec<usize>],
    v: &mut Violations,
) -> Option<Vec<usize>> {
    let total = adj.len();
    let n = committed.len();
    let mut indeg = vec![0usize; total];
    for out in adj {
        for &t in out {
            indeg[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..total).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut visited = 0usize;
    while let Some(i) = queue.pop() {
        visited += 1;
        if i < n {
            order.push(i);
        }
        for &t in &adj[i] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if visited != total {
        let stuck: Vec<String> = (0..n)
            .filter(|&i| indeg[i] > 0)
            .take(4)
            .map(|i| fmt_txn(committed[i]))
            .collect();
        v.push(format!(
            "serialization cycle among committed transactions, e.g. {}",
            stuck.join(" <-> ")
        ));
        return None;
    }
    Some(order)
}

/// Step 5: replay the committed transactions in topological order over a
/// model heap, checking every recorded read (payload words included) and
/// the final state.
fn replay(input: &OracleInput, committed: &[&TxnHistory], order: &[usize], v: &mut Violations) {
    let mut model = input.initial.clone();
    for &i in order {
        let txn = committed[i];
        for &(addr, val) in &txn.reads {
            let expect = *model.get(&addr).unwrap_or(&0);
            if expect != val {
                v.push(format!(
                    "replay mismatch at addr {addr}: {} read {val}, but the serial \
                     order implies {expect}",
                    fmt_txn(txn)
                ));
            }
        }
        for &(addr, val) in &txn.writes {
            model.insert(addr, val);
        }
    }
    for (&addr, &fin) in &input.final_heap {
        let expect = *model.get(&addr).unwrap_or(&0);
        if expect != fin {
            v.push(format!(
                "final state mismatch at addr {addr}: heap holds {fin}, serial replay \
                 ends at {expect}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rococo_stm::{AbortKind, Outcome};

    fn txn(
        thread: usize,
        inv: u64,
        resp: u64,
        reads: Vec<(Addr, Word)>,
        writes: Vec<(Addr, Word)>,
    ) -> TxnHistory {
        TxnHistory {
            thread,
            inv,
            resp,
            outcome: Outcome::Committed,
            reads,
            writes,
            exec_ns: 0.0,
            epoch: 0,
        }
    }

    /// Two accounts: addr 0 = payload, addr 1 = its version word.
    fn base_input(histories: Vec<TxnHistory>) -> OracleInput {
        OracleInput {
            histories,
            initial: HashMap::from([(0, 100), (1, 7)]),
            final_heap: HashMap::new(),
            versioned: HashSet::from([1]),
            strict: false,
        }
    }

    #[test]
    fn clean_rmw_chain_passes() {
        // T1: reads (0:100, 1:7), writes (0:90, 1:1000)
        // T2: reads (0:90, 1:1000), writes (0:80, 1:2000)
        let mut input = base_input(vec![
            txn(0, 0, 1, vec![(1, 7), (0, 100)], vec![(0, 90), (1, 1000)]),
            txn(1, 2, 3, vec![(1, 1000), (0, 90)], vec![(0, 80), (1, 2000)]),
        ]);
        input.final_heap = HashMap::from([(0, 80), (1, 2000)]);
        assert_eq!(check_history(&input), Vec::<String>::new());
    }

    #[test]
    fn lost_update_is_a_fork() {
        // Both T1 and T2 consumed version 7: classic lost update.
        let input = base_input(vec![
            txn(0, 0, 1, vec![(1, 7), (0, 100)], vec![(0, 90), (1, 1000)]),
            txn(1, 0, 2, vec![(1, 7), (0, 100)], vec![(0, 95), (1, 2000)]),
        ]);
        let viols = check_history(&input);
        assert!(viols.iter().any(|m| m.contains("lost update")), "{viols:?}");
    }

    #[test]
    fn torn_read_is_detected() {
        let mut input = base_input(vec![
            txn(0, 0, 1, vec![(1, 7)], vec![(1, 1000)]),
            // Reads version 555 which nobody wrote.
            txn(1, 2, 3, vec![(1, 555)], vec![]),
        ]);
        input.final_heap = HashMap::from([(1, 1000)]);
        let viols = check_history(&input);
        assert!(viols.iter().any(|m| m.contains("torn read")), "{viols:?}");
    }

    #[test]
    fn inconsistent_snapshot_is_a_cycle() {
        // Writer W1 sets (payload 0 -> 90, ver 1 -> 1000);
        // writer W2 sets (payload 2 -> 40, ver 3 -> 5000).
        // Reader R sees W1's ver but the OLD payload 2 with W2's ver 3:
        // R reads (1:1000, 3:5000, 2:50) while W2 wrote 2:40 before 3:5000.
        let mut input = OracleInput {
            histories: vec![
                txn(0, 0, 1, vec![(1, 7), (0, 100)], vec![(0, 90), (1, 1000)]),
                txn(1, 2, 3, vec![(3, 9), (2, 50)], vec![(2, 40), (3, 5000)]),
                // R: saw ver 3 = 5000 (after W2) but payload 2 = 50 (before W2).
                txn(2, 4, 5, vec![(1, 1000), (3, 5000), (2, 50)], vec![]),
            ],
            initial: HashMap::from([(0, 100), (1, 7), (2, 50), (3, 9)]),
            final_heap: HashMap::from([(0, 90), (1, 1000), (2, 40), (3, 5000)]),
            versioned: HashSet::from([1, 3]),
            strict: false,
        };
        let viols = check_history(&input);
        assert!(
            viols
                .iter()
                .any(|m| m.contains("replay mismatch") || m.contains("cycle")),
            "{viols:?}"
        );
        // Sanity: drop the stale payload read and the history passes.
        input.histories[2].reads = vec![(1, 1000), (3, 5000), (2, 40)];
        assert_eq!(check_history(&input), Vec::<String>::new());
    }

    #[test]
    fn strict_mode_rejects_time_travel() {
        // T2 begins strictly after T1 responded, yet reads the initial
        // version — serializable (T2 before T1) but not strictly so.
        let mut input = base_input(vec![
            txn(0, 0, 1, vec![(1, 7)], vec![(1, 1000)]),
            txn(1, 5, 6, vec![(1, 7)], vec![]),
        ]);
        input.final_heap = HashMap::from([(1, 1000)]);
        assert_eq!(check_history(&input), Vec::<String>::new());
        input.strict = true;
        let viols = check_history(&input);
        assert!(!viols.is_empty(), "strict mode must flag time travel");
    }

    #[test]
    fn aborted_attempts_must_not_see_unwritten_values() {
        let mut input = base_input(vec![txn(0, 0, 1, vec![(1, 7)], vec![(1, 1000)])]);
        input.final_heap = HashMap::from([(1, 1000)]);
        input.histories.push(TxnHistory {
            thread: 1,
            inv: 2,
            resp: 3,
            outcome: Outcome::Aborted(AbortKind::Conflict),
            reads: vec![(1, 4242)],
            writes: vec![],
            exec_ns: 0.0,
            epoch: 0,
        });
        let viols = check_history(&input);
        assert!(
            viols.iter().any(|m| m.contains("stale read in aborted")),
            "{viols:?}"
        );
    }

    #[test]
    fn final_state_must_match_the_chain() {
        let mut input = base_input(vec![txn(0, 0, 1, vec![(1, 7)], vec![(1, 1000)])]);
        input.final_heap = HashMap::from([(1, 7)]); // write lost on the heap
        let viols = check_history(&input);
        assert!(
            viols.iter().any(|m| m.contains("final state mismatch")),
            "{viols:?}"
        );
    }
}
