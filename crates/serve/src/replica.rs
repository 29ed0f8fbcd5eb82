//! The deterministic event-loop replica serving model.
//!
//! One replica = one admission gate, one dynamic batcher, one server.
//! Batches are formed at dispatch time — the instant the server is free
//! and the batcher is ready — so batch size adapts to load instead of
//! freezing at linger expiry. Virtual time advances from event to event
//! (arrival, linger deadline, batch completion) with a fixed tie-break
//! order, so a seeded traffic plan produces a bit-identical report every
//! run.
//!
//! Per-batch service time is the analytic forward latency of the serving
//! plan ([`picasso_exec::forward_latency_ns`]), memoized per batch size.
//! Each batch's IDs also run through Algorithm 1's hit policy
//! ([`HotSetPolicy`]) so cache hit/miss statistics reflect the actual Zipf
//! request stream rather than an analytic estimate. The policy runs without
//! rows: the service time never reads gathered values, and hit counts
//! depend only on which IDs are hot, so the replica pays for no cold-row
//! index, row initialisation or hot-arena rebuild.
//!
//! The traffic stream is open-loop: no arrival time or ID depends on the
//! replica's state, so the generator runs ahead of the event loop on a
//! producer thread of its own, and two cores split a replay that one core
//! would otherwise run end to end. The producer fills chunks of
//! consecutive arrivals (their times, and their IDs back to back) and
//! hands each over through a bounded channel. The event loop reads
//! arrivals from its current chunk and sends each emptied chunk back for
//! refilling. A chunk closes once it holds [`CHUNK_IDS`] IDs' worth of
//! requests, and always holds at least one. The generator draws the same
//! requests in the same order whichever thread drives it, and the event
//! loop consumes them in that order, so every report, latency sample and
//! queue-depth timeline is bit for bit what inline generation gives. The
//! generator and every chunk buffer are built on the calling thread; the
//! producer only fills buffers that already exist.
//!
//! A request's IDs never get a heap allocation of their own. An admitted
//! request's IDs are copied from its chunk into one FIFO ring of IDs, and
//! a shed request's are skipped. Every request of a plan looks up the same
//! number of IDs, so a dispatched batch of `n` requests drains the ring's
//! oldest `n · ids_per_request` IDs into one reused buffer for the policy:
//! the same IDs, in the same arrival order, as flattening the batch's
//! requests.

use crate::batcher::{Batch, BatchPolicy, Batcher, QueuedRequest};
use crate::report::ServeReport;
use picasso_embedding::{HotSetPolicy, HybridHashConfig};
use picasso_exec::{forward_latency_ns, ServingPlan};
use picasso_obs::{LatencyRecorder, SloTracker};
use picasso_sim::{TrafficGen, TrafficPlan};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;

/// IDs a handoff chunk holds before it closes: a chunk takes as many whole
/// requests as fit, 256 at the usual eight IDs each, and at least one. A
/// request with more IDs than this grows its chunk's buffer on first use.
pub const CHUNK_IDS: usize = 2048;

/// Chunks in circulation between the producer and the event loop: one
/// being filled, one being read, and two queued between them.
const CHUNKS: usize = 4;

/// Stack of the producer thread. Filling a chunk needs only the
/// generator's few frames, and a small stack keeps the thread's resident
/// memory small.
const PRODUCER_STACK: usize = 64 * 1024;

/// Configuration of one serving replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Dynamic batching policy.
    pub policy: BatchPolicy,
    /// Admission bound: maximum admitted-but-unserved requests (pending in
    /// the batcher or in service). Arrivals past the bound are shed
    /// deterministically. `None` = unbounded (draws the
    /// `run.serve-no-admission` lint).
    pub queue_capacity: Option<usize>,
    /// Latency SLO budget in nanoseconds.
    pub slo_ns: u64,
    /// Serving-cache (Algorithm 1) configuration. Warm-up/flush intervals
    /// count *batches* here, not training iterations.
    pub cache: HybridHashConfig,
    /// Embedding dimension of the cached rows: with `cache.hot_bytes` it
    /// sets how many IDs the hot set holds.
    pub cache_dim: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            policy: BatchPolicy::default(),
            queue_capacity: Some(4096),
            slo_ns: 5_000_000, // 5 ms
            cache: HybridHashConfig {
                warmup_iters: 10,
                flush_iters: 50,
                hot_bytes: 1 << 22, // 4 MB
            },
            cache_dim: 32,
        }
    }
}

/// A finished serving run: the report plus the raw latency recorder (for
/// metrics export and timeline inspection).
#[derive(Debug)]
pub struct ServeRun {
    /// The summary report.
    pub report: ServeReport,
    /// Every recorded latency and queue-depth sample.
    pub latency: LatencyRecorder,
}

/// Memoized analytic service times per batch size.
struct ServiceModel<'a> {
    plan: &'a ServingPlan,
    memo: Vec<Option<u64>>,
}

impl<'a> ServiceModel<'a> {
    fn new(plan: &'a ServingPlan, max_batch: usize) -> Self {
        ServiceModel {
            plan,
            memo: vec![None; max_batch + 1],
        }
    }

    fn service_ns(&mut self, batch: usize) -> u64 {
        let slot = batch.min(self.memo.len() - 1);
        *self.memo[slot].get_or_insert_with(|| {
            forward_latency_ns(&self.plan.spec, self.plan.strategy, &self.plan.cfg, batch)
        })
    }
}

/// Consecutive arrivals of one traffic stream: their times, and their IDs
/// back to back in the same order.
struct Chunk {
    at_ns: Vec<u64>,
    ids: Vec<u64>,
}

/// Fills chunks from `gen` until the stream ends or the event loop has
/// gone, and sends each down `full`. Chunks come from `spare` first, then
/// back from the event loop through `free`.
fn produce(
    mut gen: TrafficGen,
    per_chunk: usize,
    mut spare: Vec<Chunk>,
    free: Receiver<Chunk>,
    full: SyncSender<Chunk>,
) {
    while gen.emitted() < gen.plan().requests {
        let Some(mut chunk) = spare.pop().or_else(|| free.recv().ok()) else {
            return;
        };
        chunk.at_ns.clear();
        chunk.ids.clear();
        while chunk.at_ns.len() < per_chunk {
            let Some(at_ns) = gen.next_into(&mut chunk.ids) else {
                break;
            };
            chunk.at_ns.push(at_ns);
        }
        if full.send(chunk).is_err() {
            return;
        }
    }
}

/// The event loop's end of the handoff: a cursor over the current chunk.
struct Arrivals {
    full: Receiver<Chunk>,
    free: SyncSender<Chunk>,
    chunk: Option<Chunk>,
    pos: usize,
    per_request: usize,
}

impl Arrivals {
    /// Steps to the next arrival and returns its time, or `None` once the
    /// producer has sent its last chunk and gone.
    fn advance(&mut self) -> Option<u64> {
        self.pos += 1;
        if self
            .chunk
            .as_ref()
            .is_none_or(|chunk| self.pos == chunk.at_ns.len())
        {
            if let Some(spent) = self.chunk.take() {
                // Fails only once the producer has finished; the chunk is
                // then dropped here.
                let _ = self.free.send(spent);
            }
            self.chunk = self.full.recv().ok();
            self.pos = 0;
        }
        self.chunk.as_ref().map(|chunk| chunk.at_ns[self.pos])
    }

    /// The IDs of the arrival [`Arrivals::advance`] last returned.
    fn ids(&self) -> &[u64] {
        self.chunk.as_ref().map_or(&[], |chunk| {
            &chunk.ids[self.pos * self.per_request..][..self.per_request]
        })
    }
}

/// Drives `traffic` through a replica serving `plan` under `cfg`,
/// returning the deterministic run summary labeled `scenario`.
///
/// The traffic generator runs on a scoped producer thread ahead of the
/// event loop (see the module docs); the result does not depend on how
/// the two threads interleave.
///
/// # Panics
///
/// Panics if the operating system cannot spawn the producer thread, and
/// re-raises a panic of the producer thread once the event loop is done.
pub fn serve(
    plan: &ServingPlan,
    traffic: &TrafficPlan,
    cfg: &ReplicaConfig,
    scenario: &str,
) -> ServeRun {
    let gen = traffic.generator();
    let per_request = traffic.ids_per_request as usize;
    let per_chunk = (CHUNK_IDS / per_request.max(1)).max(1);
    let spare: Vec<Chunk> = (0..CHUNKS)
        .map(|_| Chunk {
            at_ns: Vec::with_capacity(per_chunk),
            ids: Vec::with_capacity(CHUNK_IDS),
        })
        .collect();
    // Neither send ever blocks: each channel has room for every chunk.
    let (full_tx, full_rx) = mpsc::sync_channel(CHUNKS);
    let (free_tx, free_rx) = mpsc::sync_channel(CHUNKS);
    thread::scope(|scope| {
        let producer = thread::Builder::new()
            .name("serve-traffic".into())
            .stack_size(PRODUCER_STACK)
            .spawn_scoped(scope, move || {
                produce(gen, per_chunk, spare, free_rx, full_tx)
            })
            .unwrap_or_else(|e| panic!("cannot spawn the traffic producer thread: {e}"));
        let arrivals = Arrivals {
            full: full_rx,
            free: free_tx,
            chunk: None,
            pos: 0,
            per_request,
        };
        let run = replay(plan, traffic, cfg, scenario, arrivals);
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
        run
    })
}

/// The event loop of [`serve`], fed by `arrivals`. Owning `arrivals`
/// means that a panic here drops both channel ends, which releases a
/// producer waiting for an emptied chunk.
fn replay(
    plan: &ServingPlan,
    traffic: &TrafficPlan,
    cfg: &ReplicaConfig,
    scenario: &str,
    mut arrivals: Arrivals,
) -> ServeRun {
    let per_request = traffic.ids_per_request as usize;
    let mut next_arrival = arrivals.advance();
    // Every admitted, undispatched request's IDs, oldest first.
    let mut ring: VecDeque<u64> = VecDeque::new();
    let mut batch_ids: Vec<u64> = Vec::new();

    let mut batcher = Batcher::new(cfg.policy);
    let mut in_service: Option<(u64, Batch)> = None;
    let mut admitted_unserved: usize = 0;

    let mut svc = ServiceModel::new(plan, cfg.policy.max_batch);
    let mut recorder = LatencyRecorder::new();
    let mut slo = SloTracker::new(cfg.slo_ns);
    // Sparse: user IDs are open-ended, and a dense bound of
    // `traffic.users` would allocate one counter per possible user.
    let mut cache = HotSetPolicy::new(&cfg.cache, cfg.cache_dim.max(1), None);

    let mut seq: u64 = 0;
    let mut shed: u64 = 0;
    let mut served: u64 = 0;
    let mut batches: u64 = 0;
    let mut total_service_ns: u64 = 0;
    let mut last_completion_ns: u64 = 0;
    let mut now: u64 = 0;

    // Dispatches a batch if the server is idle and the policy mandates one
    // (full batch waiting, or the oldest request's linger bound expired).
    // The batch is formed here, at pick-up, from everything pending.
    macro_rules! maybe_dispatch {
        ($now:expr) => {
            if in_service.is_none() && batcher.ready($now) {
                if let Some(batch) = batcher.take() {
                    batch_ids.clear();
                    batch_ids.extend(ring.drain(..batch.len() * per_request));
                    cache.measure_batch(&batch_ids);
                    let t = svc.service_ns(batch.len());
                    total_service_ns += t;
                    in_service = Some(($now + t, batch));
                }
            }
        };
    }

    loop {
        let t_done = in_service.as_ref().map(|&(end, _)| end);
        // The linger deadline only drives dispatch while the server is
        // idle; when it is busy, expired requests ride the next batch
        // formed at completion time.
        let t_deadline = if in_service.is_none() {
            batcher.deadline_ns()
        } else {
            None
        };
        // Next event; fixed tie-break order: completion, then linger
        // deadline, then arrival.
        let Some(t) = [t_done, t_deadline, next_arrival]
            .iter()
            .flatten()
            .min()
            .copied()
        else {
            break;
        };
        now = now.max(t);

        if let Some((end, batch)) = in_service.take_if(|&mut (end, _)| end == t) {
            for req in &batch.requests {
                let latency = end - req.at_ns;
                recorder.observe(latency);
                slo.observe(latency);
            }
            served += batch.len() as u64;
            batches += 1;
            admitted_unserved -= batch.len();
            last_completion_ns = end;
            maybe_dispatch!(now);
        } else if t_deadline == Some(t) {
            maybe_dispatch!(now);
        } else {
            let over = cfg
                .queue_capacity
                .map(|cap| admitted_unserved >= cap)
                .unwrap_or(false);
            if over {
                shed += 1;
            } else {
                admitted_unserved += 1;
                ring.extend(arrivals.ids());
                batcher.push(QueuedRequest { seq, at_ns: t });
                seq += 1;
                maybe_dispatch!(now);
            }
            next_arrival = arrivals.advance();
        }
        recorder.sample_queue_depth(now, batcher.pending_len().min(u32::MAX as usize) as u32);
    }

    let stats = cache.stats();
    let sorted = recorder.sorted_ns();
    let report = ServeReport {
        scenario: scenario.to_string(),
        traffic: traffic.to_string(),
        max_batch: cfg.policy.max_batch as u64,
        max_linger_ns: cfg.policy.max_linger_ns,
        queue_capacity: cfg.queue_capacity.map(|c| c as u64),
        slo_ns: cfg.slo_ns,
        requests: traffic.requests,
        served,
        shed,
        batches,
        p50_ns: picasso_obs::exact_quantile(&sorted, 0.50),
        p95_ns: picasso_obs::exact_quantile(&sorted, 0.95),
        p99_ns: picasso_obs::exact_quantile(&sorted, 0.99),
        mean_ns: recorder.mean_ns().round() as u64,
        max_queue_depth: recorder.max_queue_depth() as u64,
        slo_violations: slo.violations,
        cache_hot_hits: stats.hot_hits,
        cache_cold_hits: stats.cold_hits,
        duration_ns: last_completion_ns,
        service_ns: total_service_ns,
    };
    ServeRun {
        report,
        latency: recorder,
    }
}
