//! Fixture: a justified acquisition-order back-edge. Must lint clean
//! with the suppression consumed.

pub struct Router {
    gate: ModeGate,
}

impl Router {
    fn join_own_epoch(&self) {
        let first = self.gate.enter(true);
        // rococo-lint: allow(lock-order-cycle) -- same-mode joiners are admitted without blocking, so re-entering the epoch this thread already pins cannot wedge
        let second = self.gate.enter(true);
        drop(second);
        drop(first);
    }
}
