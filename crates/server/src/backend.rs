//! Backend selection by name.
//!
//! [`TxKv`](crate::TxKv) is generic over the TM backend; harnesses (the
//! load driver, the pinned benchmark) pick the backend by *name* at
//! runtime. [`BackendChoice`] is that name, carried on
//! [`TxKvConfig::backend`](crate::TxKvConfig::backend); the harness
//! matches on it once to build the system it hands to
//! [`TxKv::start`](crate::TxKv::start).

/// Which TM runtime the service executes transactions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// TinySTM-style LSA word-based STM (the software baseline).
    TinyStm,
    /// Best-effort TSX-style HTM emulation with a global-lock fallback.
    Htm,
    /// ROCoCoTM with the shared FPGA validation engine (the default).
    #[default]
    Rococo,
    /// The adaptive hybrid router: HTM fast path under a limited-set
    /// bound, ROCoCoTM slow path, contention-aware conflict
    /// serialization (`rococo-sched`).
    Hybrid,
}

impl BackendChoice {
    /// Every choice, in display order.
    pub const ALL: [BackendChoice; 4] = [
        BackendChoice::TinyStm,
        BackendChoice::Htm,
        BackendChoice::Rococo,
        BackendChoice::Hybrid,
    ];

    /// The backend's canonical CLI name (what [`BackendChoice::parse`]
    /// accepts). Note the constructed system's
    /// [`TmSystem::name`](rococo_stm::TmSystem::name) is a *display*
    /// name ("TinySTM", "ROCoCoTM", ...), not this.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::TinyStm => "tinystm",
            BackendChoice::Htm => "htm",
            BackendChoice::Rococo => "rococo",
            BackendChoice::Hybrid => "hybrid",
        }
    }

    /// Parses a backend name (the inverse of [`BackendChoice::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for b in BackendChoice::ALL {
            assert_eq!(BackendChoice::parse(b.name()), Some(b));
        }
        assert_eq!(BackendChoice::parse("nope"), None);
        assert_eq!(BackendChoice::default(), BackendChoice::Rococo);
    }
}
