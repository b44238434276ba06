//! The sliding window of committed transactions (Figure 5).

use std::collections::VecDeque;

/// Global commit sequence number. The `n`-th transaction to commit
/// system-wide gets sequence `n` (starting at 0); sequence numbers never
/// wrap in practice (`u64`).
pub type Seq = u64;

/// A sliding window of bookkeeping entries for the last `W` committed
/// transactions, keyed by global [`Seq`] and addressable by window slot
/// (slot 0 is the oldest tracked commit).
///
/// When the window is full, pushing a new entry evicts slot 0; in the
/// [`ReachMatrix`](crate::ReachMatrix) the new commit then takes over the
/// evicted one's ring position `seq % W` (see
/// [`RococoValidator`](crate::RococoValidator), which bundles the two).
#[derive(Debug, Clone)]
pub struct SlidingWindow<T> {
    entries: VecDeque<T>,
    cap: usize,
    next_seq: Seq,
}

impl<T> SlidingWindow<T> {
    /// Creates an empty window of capacity `cap` (the paper's `W`; 64 on
    /// HARP2).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(cap),
            cap,
            next_seq: 0,
        }
    }

    /// Window capacity `W`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the window is full (the next push evicts).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.cap
    }

    /// Sequence number the next pushed entry will receive.
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Sequence number of the oldest tracked entry, if any.
    pub fn oldest_seq(&self) -> Option<Seq> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.next_seq - self.entries.len() as Seq)
        }
    }

    /// Pushes a newly committed entry, returning its sequence number and the
    /// evicted oldest entry if the window was full.
    pub fn push(&mut self, entry: T) -> (Seq, Option<T>) {
        let evicted = if self.is_full() {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(entry);
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, evicted)
    }

    /// Window slot of sequence `seq`, if it is still tracked.
    pub fn slot_of(&self, seq: Seq) -> Option<usize> {
        let oldest = self.oldest_seq()?;
        if seq < oldest || seq >= self.next_seq {
            None
        } else {
            Some((seq - oldest) as usize)
        }
    }

    /// Sequence number of window slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live.
    pub fn seq_of(&self, slot: usize) -> Seq {
        assert!(slot < self.entries.len(), "slot {slot} not live");
        self.oldest_seq().expect("non-empty") + slot as Seq
    }

    /// Entry at window slot `slot`.
    pub fn get(&self, slot: usize) -> Option<&T> {
        self.entries.get(slot)
    }

    /// Entry with sequence `seq`, if still tracked.
    pub fn get_seq(&self, seq: Seq) -> Option<&T> {
        self.slot_of(seq).and_then(|s| self.entries.get(s))
    }

    /// Iterates `(slot, entry)` pairs from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.entries.iter().enumerate()
    }

    /// Iterates `(slot, entry)` pairs for entries with `seq > after`, i.e.
    /// the commits a transaction with snapshot `after` has not observed.
    pub fn iter_after(&self, after: Seq) -> impl Iterator<Item = (usize, &T)> {
        let start = match self.oldest_seq() {
            Some(oldest) if after + 1 > oldest => (after + 1 - oldest) as usize,
            Some(_) => 0,
            None => 0,
        };
        self.entries.iter().enumerate().skip(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_increasing_seqs() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push("a"), (0, None));
        assert_eq!(w.push("b"), (1, None));
        assert_eq!(w.oldest_seq(), Some(0));
        assert_eq!(w.next_seq(), 2);
    }

    #[test]
    fn eviction_when_full() {
        let mut w = SlidingWindow::new(2);
        w.push(10);
        w.push(20);
        let (seq, evicted) = w.push(30);
        assert_eq!(seq, 2);
        assert_eq!(evicted, Some(10));
        assert_eq!(w.oldest_seq(), Some(1));
        assert_eq!(w.get_seq(1), Some(&20));
        assert_eq!(w.get_seq(0), None, "seq 0 fell out of the window");
    }

    #[test]
    fn slot_seq_mapping() {
        let mut w = SlidingWindow::new(2);
        w.push('a');
        w.push('b');
        w.push('c'); // evicts 'a'
        assert_eq!(w.slot_of(1), Some(0));
        assert_eq!(w.slot_of(2), Some(1));
        assert_eq!(w.slot_of(0), None);
        assert_eq!(w.slot_of(3), None);
        assert_eq!(w.seq_of(0), 1);
        assert_eq!(w.seq_of(1), 2);
    }

    #[test]
    fn iter_after_skips_observed() {
        let mut w = SlidingWindow::new(8);
        for i in 0..5 {
            w.push(i * 100);
        }
        // Snapshot at seq 2: should see seqs 3 and 4.
        let seen: Vec<_> = w.iter_after(2).map(|(_, &v)| v).collect();
        assert_eq!(seen, vec![300, 400]);
        // Snapshot at newest: sees nothing.
        assert!(w.iter_after(4).next().is_none());
    }

    #[test]
    fn iter_after_older_than_window_sees_everything() {
        let mut w = SlidingWindow::new(2);
        for i in 0..5 {
            w.push(i);
        }
        let seen: Vec<_> = w.iter_after(0).map(|(_, &v)| v).collect();
        assert_eq!(seen, vec![3, 4]);
    }

    #[test]
    fn empty_window() {
        let w: SlidingWindow<u8> = SlidingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.oldest_seq(), None);
        assert_eq!(w.slot_of(0), None);
    }
}
