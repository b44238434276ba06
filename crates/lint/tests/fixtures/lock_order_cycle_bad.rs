//! Fixture: acquisition-order back-edges. The canonical order is
//! mode-gate < state-mutex < commit-gate < shard-queue; two back-edges
//! and one same-rank re-entry must fire, the forward and `try_*` shapes
//! must not. (Line numbers are pinned by `tests/lint_rules.rs`.)
//!

pub struct Router {
    gate: ModeGate,
    state: Mutex<GateState>,
    commit_gate: RwLock<()>,
}

impl Router {
    /// commit-gate then mode-gate: back-edge (2 -> 0).
    fn commit_then_gate(&self) {
        let shared = self.commit_gate.read();
        let g = self.gate.enter(true); // line 17: must fire
        drop(g);
        drop(shared);
    }

    /// commit-gate then state-mutex: back-edge (2 -> 1).
    fn gate_then_state(&self) {
        let shared = self.commit_gate.read();
        let st = self.state.lock(); // line 25: must fire
        drop(st);
        drop(shared);
    }

    /// Same rank re-acquired: self-deadlock for a non-reentrant lock.
    fn state_then_state(&self, other: &Router) {
        let a = self.state.lock();
        let b = other.state.lock(); // line 33: must fire
        drop(b);
        drop(a);
    }

    /// Clean: strictly ascending the canonical order.
    fn forward_order(&self) {
        let g = self.gate.enter(true);
        let st = self.state.lock();
        let shared = self.commit_gate.read();
        drop(shared);
        drop(st);
        drop(g);
    }

    /// Clean: `try_*` acquisitions never block, so they make no edge.
    fn try_descent(&self) {
        let shared = self.commit_gate.read();
        if let Some(st) = self.state.try_lock() {
            drop(st);
        }
        drop(shared);
    }
}
