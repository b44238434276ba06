//! `guard-across-wait`: a held guard flows into a blocking operation.
//!
//! This is the PR-8 deadlock class: a guard (then the hybrid router's
//! conflict-serialization lock, since deleted with its mechanism) was
//! held across ROCoCoTM's dense commit-sequence turn-wait, so a worker
//! spinning for its turn could wedge the workers that owned the earlier
//! sequence numbers and happened to need the same guard. The fix
//! (release it at the first commit step) lived only in a commit
//! message until this rule; now any `let`-bound
//! guard from the [annotation registry](crate::summary::guard_sources)
//! that is still live when the function reaches a blocking operation —
//! a channel `recv`, a verdict/condvar `wait`, a `park`/`sleep`, or a
//! turn-wait spin/yield — is an error, directly or through any chain of
//! calls (the blocking fact propagates over the call graph).
//!
//! Condvar waits that name the guard in their argument list release it
//! (that is their contract) and are exempt. Intentional holds carry a
//! justified `// rococo-lint: allow(guard-across-wait)`.

use crate::diag::Diagnostic;
use crate::rules::WorkspaceRule;
use crate::summary::Event;
use crate::Workspace;

/// See the module docs.
pub struct GuardAcrossWait;

impl WorkspaceRule for GuardAcrossWait {
    fn id(&self) -> &'static str {
        "guard-across-wait"
    }

    fn description(&self) -> &'static str {
        "a held guard must not flow into a blocking operation (the PR-8 deadlock class)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for (fi, m) in ws.models.iter().enumerate() {
            for events in &ws.events[fi] {
                for ev in events {
                    let Event::Blocked {
                        guard,
                        primitive,
                        acq_line,
                        line,
                        col,
                        what,
                    } = ev
                    else {
                        continue;
                    };
                    out.push(Diagnostic {
                        file: m.path.clone(),
                        line: *line,
                        col: *col,
                        rule: self.id(),
                        message: format!(
                            "{} guard `{guard}` (acquired on line {acq_line}) is still \
                             held across {what}; release it before blocking",
                            primitive.name(),
                        ),
                    });
                }
            }
        }
    }
}
