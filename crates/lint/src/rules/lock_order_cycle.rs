//! `lock-order-cycle`: the cross-crate acquisition-order graph for the
//! four named blocking primitives must stay acyclic.
//!
//! The canonical order (DESIGN.md §7.5) is
//!
//! > mode-gate < state-mutex < commit-gate < shard-queue
//!
//! — the gate is acquired at begin, the gate's state mutex inside the
//! gate, the commit gate at the first commit step (or, escalating, at
//! the slow path's own begin), and the shard queue is only ever
//! *waited on* with nothing held. Every blocking acquisition of a ranked primitive while
//! another ranked guard is live records an edge `held → acquired`; an
//! edge that does not strictly descend the order (same rank counts:
//! re-acquiring a non-reentrant primitive self-deadlocks) is a
//! back-edge, i.e. a potential cycle with the forward-ordered rest of
//! the workspace, and is flagged. `try_*` acquisitions never block and
//! make no edges.

use crate::diag::Diagnostic;
use crate::rules::WorkspaceRule;
use crate::summary::Event;
use crate::Workspace;

/// See the module docs.
pub struct LockOrderCycle;

impl WorkspaceRule for LockOrderCycle {
    fn id(&self) -> &'static str {
        "lock-order-cycle"
    }

    fn description(&self) -> &'static str {
        "blocking primitive acquisitions must follow the canonical order \
         (mode-gate < state-mutex < commit-gate < shard-queue)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let mut seen: Vec<(usize, u32, u32, &'static str, &'static str)> = Vec::new();
        for (fi, m) in ws.models.iter().enumerate() {
            for events in &ws.events[fi] {
                for ev in events {
                    let Event::Edge {
                        held,
                        held_line,
                        acquired,
                        line,
                        col,
                    } = ev
                    else {
                        continue;
                    };
                    let (Some(held_rank), Some(acq_rank)) = (held.rank(), acquired.rank()) else {
                        continue;
                    };
                    if acq_rank > held_rank {
                        continue; // forward edge: consistent with the order
                    }
                    let key = (fi, *line, *col, held.name(), acquired.name());
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    out.push(Diagnostic {
                        file: m.path.clone(),
                        line: *line,
                        col: *col,
                        rule: self.id(),
                        message: format!(
                            "`{}` (rank {acq_rank}) acquired while `{}` (rank {held_rank}, \
                             acquired on line {held_line}) is held — back-edge in the \
                             canonical acquisition order mode-gate < state-mutex < \
                             commit-gate < shard-queue",
                            acquired.name(),
                            held.name(),
                        ),
                    });
                }
            }
        }
    }
}
