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
//! A request's IDs never get a heap allocation of their own. The generator
//! appends the next arrival's IDs to one reused buffer; an admitted
//! request's IDs move into one FIFO ring of IDs, and a shed request's are
//! dropped. Every request of a plan looks up the same number of IDs, so a
//! dispatched batch of `n` requests drains the ring's oldest
//! `n · ids_per_request` IDs into one reused buffer for the policy: the
//! same IDs, in the same arrival order, as flattening the batch's
//! requests.

use crate::batcher::{Batch, BatchPolicy, Batcher, QueuedRequest};
use crate::report::ServeReport;
use picasso_embedding::{HotSetPolicy, HybridHashConfig};
use picasso_exec::{forward_latency_ns, ServingPlan};
use picasso_obs::{LatencyRecorder, SloTracker};
use picasso_sim::TrafficPlan;
use std::collections::VecDeque;

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

/// Drives `traffic` through a replica serving `plan` under `cfg`,
/// returning the deterministic run summary labeled `scenario`.
pub fn serve(
    plan: &ServingPlan,
    traffic: &TrafficPlan,
    cfg: &ReplicaConfig,
    scenario: &str,
) -> ServeRun {
    let mut gen = traffic.generator();
    let per_request = traffic.ids_per_request as usize;
    // The next arrival's time and IDs, drawn ahead of its admission.
    let mut arrival_ids: Vec<u64> = Vec::new();
    let mut next_arrival = gen.next_into(&mut arrival_ids);
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
                ring.extend(&arrival_ids);
                batcher.push(QueuedRequest { seq, at_ns: t });
                seq += 1;
                maybe_dispatch!(now);
            }
            arrival_ids.clear();
            next_arrival = gen.next_into(&mut arrival_ids);
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
