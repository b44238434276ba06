//! The typed request/response model of TxKV.

use rococo_stm::{AbortKind, Word};
use std::fmt;

/// A key in the service's keyspace (`0 .. TxKvConfig::keys`). Keys map
/// 1:1 onto words of a contiguous table on the TM heap.
pub type Key = u64;

/// One client request. Every variant executes as a single transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point read of one key.
    Get {
        /// The key to read.
        key: Key,
    },
    /// Point write of one key.
    Put {
        /// The key to write.
        key: Key,
        /// The value stored.
        value: Word,
    },
    /// Read-modify-write: atomically add `delta` (wrapping) and return
    /// the new value.
    Add {
        /// The key to update.
        key: Key,
        /// Added to the current value (wrapping).
        delta: Word,
    },
    /// Multi-key transfer: move `amount` from `from` to `to` if the
    /// source balance covers it; the two updates commit atomically.
    Transfer {
        /// Source key.
        from: Key,
        /// Destination key.
        to: Key,
        /// Units moved.
        amount: Word,
    },
    /// Snapshot multi-get: read all `keys` in one transaction, so the
    /// returned values form a consistent snapshot.
    MultiGet {
        /// The keys to read (at most [`Request::MAX_MULTI_GET`]).
        keys: Vec<Key>,
    },
}

impl Request {
    /// Upper bound on `MultiGet` fan-out: long read sets both starve
    /// under contention and overflow HTM capacity; the service rejects
    /// larger requests up front.
    pub const MAX_MULTI_GET: usize = 64;

    /// The key used for shard routing (first/primary key).
    pub fn primary_key(&self) -> Key {
        match self {
            Request::Get { key }
            | Request::Put { key, .. }
            | Request::Add { key, .. }
            | Request::Transfer { from: key, .. } => *key,
            Request::MultiGet { keys } => keys.first().copied().unwrap_or(0),
        }
    }

    /// Every key the request touches, for the bounds check.
    pub(crate) fn for_each_key(&self, mut f: impl FnMut(Key)) {
        match self {
            Request::Get { key } | Request::Put { key, .. } | Request::Add { key, .. } => f(*key),
            Request::Transfer { from, to, .. } => {
                f(*from);
                f(*to);
            }
            Request::MultiGet { keys } => keys.iter().copied().for_each(&mut f),
        }
    }

    /// Whether the request performs no writes (commits on the CPU under
    /// ROCoCoTM, never visiting the FPGA).
    pub fn is_read_only(&self) -> bool {
        matches!(self, Request::Get { .. } | Request::MultiGet { .. })
    }

    /// Distinct scheduling classes [`Request::class`] can return.
    pub const CLASSES: usize = 5;

    /// The request's scheduling class — one per operation type, the tag a
    /// hybrid router keys its footprint prediction on
    /// ([`TmSystem::set_tx_class`](rococo_stm::TmSystem::set_tx_class)).
    /// Op types make good classes because each has a characteristic
    /// read/write-set shape: a `Get` touches one word, a `Transfer` four,
    /// a `MultiGet` up to [`Request::MAX_MULTI_GET`].
    pub fn class(&self) -> u32 {
        match self {
            Request::Get { .. } => 0,
            Request::Put { .. } => 1,
            Request::Add { .. } => 2,
            Request::Transfer { .. } => 3,
            Request::MultiGet { .. } => 4,
        }
    }
}

/// A successful request's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `Get` / `Add`: the (new) value of the key.
    Value(Word),
    /// `Put`: the write committed.
    Done,
    /// `Transfer`: whether the funds moved (`false` = insufficient
    /// balance; the transaction still committed, changing nothing).
    Transferred(bool),
    /// `MultiGet`: the values, in request-key order, from one snapshot.
    Values(Vec<Word>),
}

/// A typed service error. Requests never hang: overload and invalid
/// input surface here instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxKvError {
    /// Admission control shed the request: the target shard's queue was
    /// full. Back off and retry later.
    Overloaded {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// A key is outside the configured keyspace.
    KeyOutOfRange {
        /// The offending key.
        key: Key,
        /// The keyspace size (valid keys are `0..keys`).
        keys: u64,
    },
    /// A `MultiGet` asked for more than [`Request::MAX_MULTI_GET`] keys.
    TooManyKeys {
        /// Keys requested.
        requested: usize,
    },
    /// The retry policy gave up before the transaction committed.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last abort's cause.
        last: AbortKind,
    },
    /// The transaction committed in memory but the write-ahead log could
    /// not acknowledge it (the WAL died — simulated crash or I/O
    /// error). The write may or may not survive a restart; the service
    /// stops accepting further writes on this log.
    DurabilityLost,
    /// The request's transaction panicked inside the backend. The worker
    /// survived and the shard keeps serving; the request's effects (if
    /// any) were discarded by the backend's abort path.
    Internal,
    /// The service is shutting down; the request was not executed.
    ShuttingDown,
    /// The service could not start with the given configuration.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
}

impl TxKvError {
    /// Short stable label for this error, used as the trace `Reply`
    /// outcome so sampled chains can be grouped by failure mode.
    pub fn label(&self) -> &'static str {
        match self {
            TxKvError::Overloaded { .. } => "shed",
            TxKvError::KeyOutOfRange { .. } => "key-out-of-range",
            TxKvError::TooManyKeys { .. } => "too-many-keys",
            TxKvError::RetriesExhausted { .. } => "retries-exhausted",
            TxKvError::DurabilityLost => "durability-lost",
            TxKvError::Internal => "internal",
            TxKvError::ShuttingDown => "shutting-down",
            TxKvError::InvalidConfig { .. } => "invalid-config",
        }
    }
}

impl fmt::Display for TxKvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxKvError::Overloaded { shard } => {
                write!(
                    f,
                    "shard {shard} overloaded: request shed by admission control"
                )
            }
            TxKvError::KeyOutOfRange { key, keys } => {
                write!(f, "key {key} outside keyspace 0..{keys}")
            }
            TxKvError::TooManyKeys { requested } => write!(
                f,
                "multi-get of {requested} keys exceeds the {} key limit",
                Request::MAX_MULTI_GET
            ),
            TxKvError::RetriesExhausted { attempts, last } => write!(
                f,
                "transaction still aborting after {attempts} attempts (last cause: {})",
                last.as_label()
            ),
            TxKvError::DurabilityLost => write!(
                f,
                "durability lost: the write-ahead log stopped before acknowledging the commit"
            ),
            TxKvError::Internal => {
                write!(f, "internal error: the request's transaction panicked")
            }
            TxKvError::ShuttingDown => write!(f, "service is shutting down"),
            TxKvError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for TxKvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_key_routes_by_first_key() {
        assert_eq!(Request::Get { key: 9 }.primary_key(), 9);
        assert_eq!(
            Request::Transfer {
                from: 3,
                to: 8,
                amount: 1
            }
            .primary_key(),
            3
        );
        assert_eq!(Request::MultiGet { keys: vec![5, 6] }.primary_key(), 5);
        assert_eq!(Request::MultiGet { keys: vec![] }.primary_key(), 0);
    }

    #[test]
    fn read_only_classification() {
        assert!(Request::Get { key: 0 }.is_read_only());
        assert!(Request::MultiGet { keys: vec![1] }.is_read_only());
        assert!(!Request::Put { key: 0, value: 1 }.is_read_only());
        assert!(!Request::Add { key: 0, delta: 1 }.is_read_only());
        assert!(!Request::Transfer {
            from: 0,
            to: 1,
            amount: 1
        }
        .is_read_only());
    }

    #[test]
    fn errors_display() {
        let e = TxKvError::Overloaded { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        let e = TxKvError::RetriesExhausted {
            attempts: 5,
            last: AbortKind::FpgaWindow,
        };
        assert!(e.to_string().contains("fpga-window"));
    }
}
