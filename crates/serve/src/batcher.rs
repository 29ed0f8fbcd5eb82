//! Dynamic request batching: the max-batch-size + max-linger-delay policy.
//!
//! Batches are formed at *dispatch time*: while the server is free, the
//! oldest pending request is dispatched no later than `max_linger_ns`
//! after it arrived (the linger bound), and the dispatched batch coalesces
//! every pending request up to `max_batch` (the size bound). Forming the
//! batch at pick-up rather than at linger expiry is what lets batch size
//! adapt to load — under pressure the backlog rides out in `max_batch`
//! chunks instead of freezing into whatever happened to arrive within one
//! linger window. Larger batches amortize per-batch launch overheads
//! (higher service capacity) at the price of lingering — the
//! batch-size-vs-latency tradeoff the `srv_*` bench scenarios measure.

use std::collections::VecDeque;

/// The two-knob batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// A batch never holds more than this many requests.
    pub max_batch: usize,
    /// The oldest pending request is released at most this long after it
    /// arrived, full batch or not.
    pub max_linger_ns: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_linger_ns: 1_000_000, // 1 ms
        }
    }
}

/// One admitted request waiting for (or riding in) a batch. Its embedding
/// IDs wait in the replica's ID ring, in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Admission sequence number (deterministic tiebreaker).
    pub seq: u64,
    /// Arrival time in virtual nanoseconds.
    pub at_ns: u64,
}

/// A formed batch, ready for service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The coalesced requests, in arrival order.
    pub requests: Vec<QueuedRequest>,
}

impl Batch {
    /// Number of coalesced requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True for an (impossible by construction) empty batch.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The dynamic batcher: a FIFO of pending requests plus the policy.
#[derive(Debug, Clone)]
pub struct Batcher {
    policy: BatchPolicy,
    pending: VecDeque<QueuedRequest>,
}

impl Batcher {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Batcher {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        Batcher {
            policy,
            pending: VecDeque::new(),
        }
    }

    /// Requests currently waiting.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Admit one request. Requests must arrive in nondecreasing `at_ns`
    /// order (the event loop's virtual clock guarantees this).
    pub fn push(&mut self, req: QueuedRequest) {
        debug_assert!(self
            .pending
            .back()
            .map(|b| b.at_ns <= req.at_ns)
            .unwrap_or(true));
        self.pending.push_back(req);
    }

    /// The virtual time at which the oldest pending request's linger bound
    /// expires — the batcher's next self-imposed deadline. `None` when
    /// nothing is pending.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.pending
            .front()
            .map(|r| r.at_ns + self.policy.max_linger_ns)
    }

    /// True when a full batch can form right now.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.policy.max_batch
    }

    /// True when the policy mandates a dispatch at `now` (to a free
    /// server): a full batch is waiting, or the oldest pending request's
    /// linger bound has expired.
    pub fn ready(&self, now: u64) -> bool {
        self.is_full() || self.deadline_ns().map(|d| now >= d).unwrap_or(false)
    }

    /// Form a batch right now from the oldest pending requests (at most
    /// `max_batch` of them), regardless of readiness. The replica calls
    /// this the moment its server is free and [`Batcher::ready`] holds, so
    /// the batch coalesces everything that queued up while the server was
    /// busy. `None` when nothing is pending.
    pub fn take(&mut self) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let n = self.pending.len().min(self.policy.max_batch);
        Some(Batch {
            requests: self.pending.drain(..n).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, at_ns: u64) -> QueuedRequest {
        QueuedRequest { seq, at_ns }
    }

    #[test]
    fn full_batch_releases_immediately_and_never_exceeds_max() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 4,
            max_linger_ns: 1_000_000,
        });
        for i in 0..9 {
            b.push(req(i, 10 * i));
        }
        assert!(b.ready(90), "full");
        let batch = b.take().unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.requests[0].seq, 0);
        assert!(b.ready(90), "still full");
        assert_eq!(b.take().unwrap().len(), 4);
        // One request left: not full, linger not expired.
        assert!(!b.ready(90));
        assert_eq!(b.pending_len(), 1);
    }

    #[test]
    fn linger_expiry_releases_a_partial_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_linger_ns: 500,
        });
        b.push(req(0, 100));
        b.push(req(1, 300));
        assert_eq!(b.deadline_ns(), Some(600));
        assert!(!b.ready(599));
        assert!(b.ready(600), "linger expired");
        assert_eq!(b.take().unwrap().len(), 2);
        assert!(b.deadline_ns().is_none());
        assert!(b.take().is_none(), "nothing pending");
    }

    #[test]
    fn gather_ids_flatten_in_arrival_order() {
        // The replica keeps every admitted request's IDs in one FIFO ring
        // and drains `len · ids_per_request` of them per batch; that is
        // the batch's flattened IDs only if `take` hands out the oldest
        // requests, in arrival order.
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_linger_ns: 1,
        });
        let mut ring = std::collections::VecDeque::new();
        for seq in [7, 9, 4] {
            b.push(req(seq, 0));
            ring.extend([seq, 100 + seq]);
        }
        assert!(b.ready(0));
        let batch = b.take().unwrap();
        let gathered: Vec<u64> = ring.drain(..batch.len() * 2).collect();
        assert_eq!(gathered, vec![7, 107, 9, 109]);
        let from_requests: Vec<u64> = batch
            .requests
            .iter()
            .flat_map(|r| [r.seq, 100 + r.seq])
            .collect();
        assert_eq!(gathered, from_requests);
    }

    #[test]
    fn drain_all_chunks_by_max_batch() {
        // End-of-stream drain: repeated `take` empties the queue in
        // `max_batch` chunks, in arrival order.
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 3,
            max_linger_ns: u64::MAX / 2,
        });
        for i in 0..7 {
            b.push(req(i, i));
        }
        let batches: Vec<Batch> = std::iter::from_fn(|| b.take()).collect();
        assert_eq!(
            batches.iter().map(Batch::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let seqs: Vec<u64> = batches
            .iter()
            .flat_map(|b| &b.requests)
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
        assert_eq!(b.pending_len(), 0);
    }
}
