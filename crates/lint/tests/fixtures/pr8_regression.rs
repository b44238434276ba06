//! Regression fixture: the PR-8 hybrid-router deadlock, reduced to its
//! essential shape.
//!
//! The router took a guard and then entered ROCoCoTM's dense
//! commit-sequence turn-wait still holding it. A worker that owned an
//! *earlier* sequence number and needed the *same* guard could then
//! never advance the sequence, and the spinner never reached its turn:
//! a two-party cycle the linter could not see across the call
//! boundary. (The guard was the router's conflict-serialization lock,
//! since deleted; the state mutex stands in for it.) The wait here is
//! one call away from the acquisition on purpose — the blocking fact
//! must propagate over the call graph for the rule to fire.

pub struct Router {
    state: Mutex<RouterState>,
    next_turn: AtomicU64,
}

impl Router {
    /// The dense-sequence turn-wait: spin until `next_turn` reaches us.
    fn await_commit_turn(&self, seq: u64) {
        while self.next_turn.load(Ordering::Acquire) != seq {
            std::thread::yield_now();
        }
    }

    /// The PR-8 bug: guard held across the turn-wait. Must fire
    /// `guard-across-wait` at the `await_commit_turn` call.
    pub fn commit_serialized(&self, seq: u64) {
        let held = self.state.lock();
        self.await_commit_turn(seq); // line 31: must fire
        self.publish(seq);
        drop(held);
    }

    /// The PR-8 fix: release the guard before waiting for the turn.
    pub fn commit_fixed(&self, seq: u64) {
        let held = self.state.lock();
        drop(held);
        self.await_commit_turn(seq);
        self.publish(seq);
    }

    fn publish(&self, seq: u64) {
        self.next_turn.store(seq + 1, Ordering::Release);
    }
}
