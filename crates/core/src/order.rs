//! Order-theoretic foundations of section 3: conflict graphs, the
//! acyclicity ⟺ serializability axiom, interval orders and the phantom
//! ordering.
//!
//! These types are the *specification* side of the repository: the
//! trace-driven CC simulators and the STM runtimes are checked against the
//! oracles here (e.g. "every set of transactions committed by policy X has
//! an acyclic `→rw` graph").

use crate::depvec::DepVec;
use std::collections::VecDeque;

/// A directed graph over `n` vertices with bitset adjacency rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    adj: Vec<DepVec>,
}

impl DiGraph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        let cap = n.max(1);
        Self {
            n,
            adj: vec![DepVec::new(cap); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds edge `u → v`. Self-loops are allowed and make the graph cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        self.adj[u].set(v);
    }

    /// Whether edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.adj[u].get(v)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Kahn's topological sort. Returns a linear extension if the graph is
    /// acyclic, `None` otherwise.
    ///
    /// (Section 4 observes that Kahn's algorithm underlies TOCC-equivalent
    /// validation: it commits to *one* linear order during traversal.)
    pub fn topo_sort(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            for v in self.adj[u].iter_ones() {
                if v == u {
                    return None; // self-loop
                }
                indeg[v] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for v in self.adj[u].iter_ones() {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Whether the graph is acyclic — by the theorem of section 3.2, the
    /// if-and-only-if condition for the transactions to be serializable.
    pub fn is_acyclic(&self) -> bool {
        self.topo_sort().is_some()
    }

    /// The transitive closure as adjacency rows (Warshall's algorithm,
    /// `O(n³/64)`). Row `u` contains `v` iff `u` can reach `v` via one or
    /// more edges.
    pub fn transitive_closure(&self) -> Vec<DepVec> {
        let mut rows = self.adj.clone();
        for k in 0..self.n {
            for i in 0..self.n {
                if rows[i].get(k) {
                    let rk = rows[k].clone();
                    rows[i].or_with(&rk);
                }
            }
        }
        rows
    }

    /// Whether `u` can reach `v` through one or more edges.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        // BFS; cheap enough for test-oracle use.
        let mut seen = DepVec::new(self.n.max(1));
        let mut queue = VecDeque::from([u]);
        while let Some(x) = queue.pop_front() {
            for y in self.adj[x].iter_ones() {
                if y == v {
                    return true;
                }
                if !seen.get(y) {
                    seen.set(y);
                    queue.push_back(y);
                }
            }
        }
        false
    }

    /// Checks a linear order (a permutation of vertices) for consistency
    /// with every edge: `u → v` implies `u` appears before `v`.
    pub fn is_linear_extension(&self, order: &[usize]) -> bool {
        if order.len() != self.n {
            return false;
        }
        let mut pos = vec![usize::MAX; self.n];
        for (i, &v) in order.iter().enumerate() {
            if v >= self.n || pos[v] != usize::MAX {
                return false;
            }
            pos[v] = i;
        }
        (0..self.n).all(|u| self.adj[u].iter_ones().all(|v| pos[u] < pos[v]))
    }
}

/// The read/write footprint of a committed transaction, with the snapshot
/// it executed against, expressed in commit order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Objects read.
    pub reads: Vec<u64>,
    /// Objects written.
    pub writes: Vec<u64>,
    /// The transaction observed the updates of every transaction with
    /// commit index `< observed` (and of no later one).
    pub observed: usize,
}

/// Builds the `→rw` dependency graph over transactions listed in commit
/// order, using the three rules of section 3.1:
///
/// * **read-after-write** — `b` read `a`'s update (`a` committed within
///   `b`'s snapshot and `reads(b) ∩ writes(a) ≠ ∅`): `a →rw b`;
/// * **write-after-read** — `a` overwrote a version `b` had read (`a`
///   committed *outside* `b`'s snapshot): `b →rw a`;
/// * **write-after-read / write-after-write towards later commits** — a
///   later commit `b` overwrites what `a` read or wrote: `a →rw b`.
pub fn rw_graph(txns: &[Footprint]) -> DiGraph {
    let mut g = DiGraph::new(txns.len());
    for b in 0..txns.len() {
        for a in 0..b {
            let wa_rb = intersects(&txns[a].writes, &txns[b].reads);
            let wb_ra = intersects(&txns[b].writes, &txns[a].reads);
            let wa_wb = intersects(&txns[a].writes, &txns[b].writes);
            if wa_rb {
                if a < txns[b].observed {
                    g.add_edge(a, b); // read-after-write: a -> b
                } else {
                    g.add_edge(b, a); // b read the version a overwrote
                }
            }
            if wb_ra {
                g.add_edge(a, b); // a read the version b overwrites
            }
            if wa_wb {
                g.add_edge(a, b); // commit order dictates overwrite order
            }
        }
    }
    g
}

fn intersects(xs: &[u64], ys: &[u64]) -> bool {
    xs.iter().any(|x| ys.contains(x))
}

/// A transaction's lifetime on the real-time axis, for interval-order
/// analysis (section 3.2, "strict serializability and interval order").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    /// Start time.
    pub start: u64,
    /// End time (exclusive; must be `> start`).
    pub end: u64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "interval must have positive length");
        Self { start, end }
    }

    /// Whether `self` wholly precedes `other` on the real axis.
    pub fn precedes(&self, other: &Interval) -> bool {
        self.end <= other.start
    }
}

/// The real-time precedence graph `→rt` of a set of transaction lifetimes:
/// `i → j` iff interval `i` ends before interval `j` starts.
pub fn realtime_order(intervals: &[Interval]) -> DiGraph {
    let mut g = DiGraph::new(intervals.len());
    for i in 0..intervals.len() {
        for j in 0..intervals.len() {
            if i != j && intervals[i].precedes(&intervals[j]) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Whether a precedence graph is **2+2-free** — Fishburn's characterisation
/// of interval orders: there is no pair of related pairs `a → b`, `c → d`
/// with `a ↛ d` and `c ↛ b`.
///
/// Every real-time order of intervals is 2+2-free; this is exactly why
/// timestamp-based (strict-serializability) validation suffers *phantom
/// orderings*: for any two related pairs it forces a cross relation
/// (`t1 → t4` in the paper's Figure 3(b)) that has no `→rw` justification.
pub fn is_two_plus_two_free(g: &DiGraph) -> bool {
    let n = g.len();
    for a in 0..n {
        for b in 0..n {
            if a == b || !g.has_edge(a, b) {
                continue;
            }
            for c in 0..n {
                for d in 0..n {
                    if c == d || !g.has_edge(c, d) {
                        continue;
                    }
                    if (a, b) == (c, d) {
                        continue;
                    }
                    if !g.has_edge(a, d) && !g.has_edge(c, b) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Finds a *phantom ordering* a strict-serializable (interval-order based)
/// validator would impose on top of `rw`: a pair `(x, y)` such that the
/// real-time order relates `x → y` but `→rw` (even transitively) does not
/// relate them at all. Returns the first such pair.
pub fn phantom_orderings(rw: &DiGraph, rt: &DiGraph) -> Vec<(usize, usize)> {
    assert_eq!(rw.len(), rt.len(), "graph size mismatch");
    let closure = rw.transitive_closure();
    let mut out = Vec::new();
    for x in 0..rw.len() {
        for y in 0..rw.len() {
            if x != y && rt.has_edge(x, y) && !closure[x].get(y) && !closure[y].get(x) {
                out.push((x, y));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_sorts() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        let order = g.topo_sort().expect("acyclic");
        assert!(g.is_linear_extension(&order));
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycle_detected() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
        assert_eq!(g.topo_sort(), None);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn closure_and_reaches_agree() {
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let c = g.transitive_closure();
        for (u, row) in c.iter().enumerate() {
            for v in 0..5 {
                assert_eq!(row.get(v), g.reaches(u, v), "({u},{v})");
            }
        }
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(0, 4));
    }

    #[test]
    fn write_skew_is_not_serializable() {
        // Figure 1: t1 reads y, writes x; t2 reads x, writes y. Each ran
        // against a snapshot excluding the other.
        let t1 = Footprint {
            reads: vec![1],  // y
            writes: vec![0], // x
            observed: 0,
        };
        let t2 = Footprint {
            reads: vec![0],
            writes: vec![1],
            observed: 0,
        };
        let g = rw_graph(&[t1, t2]);
        assert!(!g.is_acyclic(), "write skew must form a cycle in ->rw");
    }

    #[test]
    fn disjoint_transactions_serializable() {
        let t1 = Footprint {
            reads: vec![0],
            writes: vec![1],
            observed: 0,
        };
        let t2 = Footprint {
            reads: vec![2],
            writes: vec![3],
            observed: 0,
        };
        assert!(rw_graph(&[t1, t2]).is_acyclic());
    }

    #[test]
    fn fig2b_trace_is_serializable_despite_timestamps() {
        // Figure 2(b): serialisable as t2 -> t3 -> t1 even though commit
        // timestamps would order t1 before t2. Model: t1 commits first
        // having read x's old version that t2 later writes (t1 -> t2 ...
        // no: t1 ->rw nothing forward). Concretely:
        //   t1: reads {a}, writes {b}, observed nothing.
        //   t2: writes {a}, observed nothing          => t1 ->rw t2? No:
        //       t2 overwrites what t1 read and commits later => t1 -> t2.
        //   t3: reads {a} with t2 observed, writes {c} => t2 -> t3.
        // Graph t1 -> t2 -> t3 is acyclic: all three commit under ROCoCo,
        // while TOCC (commit order t1, t2, t3 with t3 reading t2's update
        // but timestamped after... ) aborts one — exercised in rococo-cc.
        let t1 = Footprint {
            reads: vec![10],
            writes: vec![20],
            observed: 0,
        };
        let t2 = Footprint {
            reads: vec![],
            writes: vec![10],
            observed: 0,
        };
        let t3 = Footprint {
            reads: vec![10],
            writes: vec![30],
            observed: 2,
        };
        let g = rw_graph(&[t1, t2, t3]);
        assert!(g.is_acyclic());
        assert!(g.has_edge(0, 1), "t1 before t2 (write-after-read)");
        assert!(g.has_edge(1, 2), "t2 before t3 (read-after-write)");
    }

    #[test]
    fn realtime_orders_are_interval_orders() {
        let intervals = vec![
            Interval::new(0, 10),
            Interval::new(5, 15),
            Interval::new(12, 20),
            Interval::new(21, 30),
            Interval::new(2, 25),
        ];
        let rt = realtime_order(&intervals);
        assert!(is_two_plus_two_free(&rt));
    }

    #[test]
    fn two_plus_two_poset_is_not_interval_order() {
        // a -> b, c -> d with no cross edges: the forbidden suborder of
        // Figure 3(b).
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!is_two_plus_two_free(&g));
    }

    #[test]
    fn phantom_ordering_exists_for_concurrent_unrelated_txns() {
        // Two rw-related pairs executing in two real-time batches: the
        // real-time order relates t0 -> t3 although ->rw does not.
        let mut rw = DiGraph::new(4);
        rw.add_edge(0, 1);
        rw.add_edge(2, 3);
        let intervals = vec![
            Interval::new(0, 10),
            Interval::new(11, 20),
            Interval::new(0, 10),
            Interval::new(11, 20),
        ];
        let rt = realtime_order(&intervals);
        let phantoms = phantom_orderings(&rw, &rt);
        assert!(
            phantoms.contains(&(0, 3)),
            "t0 -> t3 is a phantom ordering: {phantoms:?}"
        );
    }

    #[test]
    fn linear_extension_rejects_bad_orders() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        assert!(g.is_linear_extension(&[0, 1, 2]));
        assert!(g.is_linear_extension(&[2, 0, 1]));
        assert!(!g.is_linear_extension(&[1, 0, 2]));
        assert!(!g.is_linear_extension(&[0, 1])); // wrong length
        assert!(!g.is_linear_extension(&[0, 0, 1])); // not a permutation
    }

    #[test]
    fn edge_count() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        assert_eq!(g.edge_count(), 2);
    }
}
