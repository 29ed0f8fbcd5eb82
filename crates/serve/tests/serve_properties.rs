//! Property and end-to-end tests of the serving subsystem: batcher
//! invariants under random arrival sequences, replica determinism, the
//! batch-size-vs-latency tradeoff, deterministic shedding, and the
//! replica against a plain reference loop over random small plans.

use picasso_data::DatasetSpec;
use picasso_embedding::{HotSetPolicy, HybridHashConfig};
use picasso_exec::{
    capacity_rps, forward_latency_ns, prepare_serving, slo_floor_ns, ModelKind, ServingPlan,
    TrainerOptions,
};
use picasso_obs::{exact_quantile, LatencyRecorder, SloTracker};
use picasso_serve::replica::CHUNK_IDS;
use picasso_serve::{
    serve, BatchPolicy, Batcher, QueuedRequest, ReplicaConfig, ServeReport, ServeRun,
};
use picasso_sim::TrafficPlan;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// One dispatched request as observed by [`drive`]: `(seq, arrival,
/// dispatched_at, batch_len, server_free_at)`, where `server_free_at` is
/// the time the server last became free before this dispatch.
type DriveRow = (u64, u64, u64, usize, u64);

/// Drives a batcher through a full arrival sequence the way the replica
/// event loop does: batches are formed at dispatch time, the instant the
/// (simulated) server is idle and the batcher is ready. `service_ns`
/// models the server occupancy per dispatched batch.
fn drive(policy: BatchPolicy, arrivals: &[(u64, u64)], service_ns: u64) -> Vec<DriveRow> {
    let mut b = Batcher::new(policy);
    let mut out = Vec::new();
    let mut busy_until: Option<u64> = None;
    let mut free_at = 0u64; // when the server last became free
    let mut i = 0;
    loop {
        let t_done = busy_until;
        let t_deadline = if busy_until.is_none() {
            b.deadline_ns()
        } else {
            None
        };
        let t_arrival = arrivals.get(i).map(|&(_, at)| at);
        let Some(t) = [t_done, t_deadline, t_arrival]
            .iter()
            .flatten()
            .min()
            .copied()
        else {
            break;
        };
        // Completion before deadline before arrival on ties, mirroring the
        // replica loop.
        if t_done == Some(t) {
            busy_until = None;
            free_at = t;
        } else if t_deadline != Some(t) {
            let (seq, at) = arrivals[i];
            i += 1;
            b.push(QueuedRequest { seq, at_ns: at });
        }
        if busy_until.is_none() && b.ready(t) {
            let batch = b.take().expect("ready implies pending");
            for r in &batch.requests {
                out.push((r.seq, r.at_ns, t, batch.len(), free_at));
            }
            busy_until = Some(t + service_ns);
        }
    }
    out
}

fn arrival_strategy() -> impl Strategy<Value = Vec<u64>> {
    // Inter-arrival gaps; cumulative sum gives nondecreasing arrival times.
    proptest::collection::vec(0u64..2_000, 1..300)
}

proptest! {
    /// Batcher invariants: a batch never exceeds `max_batch`; no request
    /// is dispatched before it arrived; once the server is free, no
    /// request lingers beyond its bound (with an always-free server —
    /// `service_ns == 0` is in range — that is exactly "no request waits
    /// longer than the linger bound"); every request is dispatched exactly
    /// once, in arrival order.
    #[test]
    fn batcher_honors_size_and_linger_bounds(
        gaps in arrival_strategy(),
        max_batch in 1usize..32,
        linger in 1u64..5_000,
        service_ns in 0u64..20_000,
    ) {
        let mut at = 0u64;
        let arrivals: Vec<(u64, u64)> = gaps
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                at += g;
                (i as u64, at)
            })
            .collect();
        let rows = drive(
            BatchPolicy { max_batch, max_linger_ns: linger },
            &arrivals,
            service_ns,
        );
        prop_assert_eq!(rows.len(), arrivals.len(), "every request dispatched once");
        let mut seen: Vec<u64> = rows.iter().map(|&(seq, ..)| seq).collect();
        let sorted = { let mut s = seen.clone(); s.sort_unstable(); s };
        prop_assert_eq!(&seen, &sorted, "dispatched in arrival order");
        seen.dedup();
        prop_assert_eq!(seen.len(), arrivals.len());
        for &(seq, arrived, dispatched, n, free_at) in &rows {
            prop_assert!(n <= max_batch, "batch of {n} exceeds max {max_batch}");
            prop_assert!(dispatched >= arrived, "request {seq} dispatched before arrival");
            let bound = (arrived + linger).max(free_at);
            prop_assert!(
                dispatched <= bound,
                "request {seq} (arrived {}) dispatched at {} past its bound {} \
                 (linger {}, server free at {})",
                arrived,
                dispatched,
                bound,
                linger,
                free_at
            );
        }
    }
}

fn plan(queue_capacity: Option<usize>) -> ServingPlan {
    let data = DatasetSpec::criteo().shared();
    let opts = TrainerOptions {
        batch_per_executor: Some(256),
        ..Default::default()
    };
    prepare_serving(
        ModelKind::WideDeep,
        &data,
        picasso_exec::Strategy::Hybrid,
        &opts,
        queue_capacity,
    )
    .expect("serving plan")
}

fn traffic(seed: u64) -> TrafficPlan {
    format!("seed={seed};poisson@20000;users=200000;zipf=105;ids=8;reqs=4000")
        .parse()
        .expect("valid plan")
}

#[test]
fn same_seed_runs_produce_bit_identical_reports() {
    let plan = plan(Some(4096));
    let cfg = ReplicaConfig::default();
    let a = serve(&plan, &traffic(7), &cfg, "det");
    let b = serve(&plan, &traffic(7), &cfg, "det");
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.digest(), b.report.digest());
    assert_eq!(
        a.report.to_json().to_string(),
        b.report.to_json().to_string()
    );
    let c = serve(&plan, &traffic(8), &cfg, "det");
    assert_ne!(a.report.digest(), c.report.digest(), "seed must matter");
}

#[test]
fn larger_batches_raise_tail_latency_and_service_capacity() {
    let plan = plan(Some(4096));
    // The analytic forward latency has a ~46 ms per-batch launch-overhead
    // floor, so capacity ≈ batch / 46 ms. At 2 500 rps both operating
    // points below are queue-stable (capacities ~5 500 and ~21 000 rps),
    // which is what makes the comparison meaningful: the long-linger
    // config trades tail latency for bigger batches rather than simply
    // melting down.
    let tradeoff_traffic: TrafficPlan =
        "seed=17;poisson@2500;users=200000;zipf=105;ids=8;reqs=6000"
            .parse()
            .unwrap();
    let small = ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 256,
            max_linger_ns: 1_000_000, // 1 ms
        },
        ..ReplicaConfig::default()
    };
    let large = ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 1024,
            max_linger_ns: 100_000_000, // 100 ms
        },
        ..ReplicaConfig::default()
    };
    let s = serve(&plan, &tradeoff_traffic, &small, "small").report;
    let l = serve(&plan, &tradeoff_traffic, &large, "large").report;
    assert!(
        l.p99_ns > s.p99_ns,
        "large-batch p99 {} must exceed small-batch p99 {}",
        l.p99_ns,
        s.p99_ns
    );
    assert!(
        l.capacity_rps() > s.capacity_rps(),
        "large-batch capacity {:.0} rps must exceed small-batch {:.0} rps",
        l.capacity_rps(),
        s.capacity_rps()
    );
    assert!(l.mean_batch() > s.mean_batch());
    assert_eq!(s.shed, 0);
    assert_eq!(l.shed, 0);
}

#[test]
fn tiny_admission_bound_sheds_deterministically_and_caps_the_queue() {
    let plan = plan(Some(16));
    let cfg = ReplicaConfig {
        queue_capacity: Some(16),
        policy: BatchPolicy {
            max_batch: 4,
            max_linger_ns: 1_000_000,
        },
        ..ReplicaConfig::default()
    };
    // Offered load far above capacity at this batch size.
    let t: TrafficPlan = "seed=3;poisson@200000;users=50000;zipf=105;ids=8;reqs=4000"
        .parse()
        .unwrap();
    let a = serve(&plan, &t, &cfg, "shed").report;
    let b = serve(&plan, &t, &cfg, "shed").report;
    assert_eq!(a, b, "shedding must be deterministic");
    assert!(a.shed > 0, "overload must shed");
    assert_eq!(a.served + a.shed, a.requests);
    assert!(
        a.max_queue_depth <= 16,
        "queue depth {} exceeded admission bound",
        a.max_queue_depth
    );
    assert_eq!(a.slo_ns, cfg.slo_ns);
}

#[test]
fn serving_cache_serves_hot_traffic_from_hot_storage() {
    let plan = plan(Some(4096));
    let cfg = ReplicaConfig::default();
    // Heavily skewed users: the hot set fits the 4 MB cache easily.
    let t: TrafficPlan = "seed=11;poisson@20000;users=1000000;zipf=120;ids=8;reqs=6000"
        .parse()
        .unwrap();
    let r = serve(&plan, &t, &cfg, "cache").report;
    assert!(r.cache_hot_hits + r.cache_cold_hits > 0, "cache exercised");
    assert!(
        r.cache_hit_ratio() > 0.3,
        "skewed traffic should hit hot storage, got {:.3}",
        r.cache_hit_ratio()
    );
}

#[test]
fn srv_b256_floor_exceeds_its_slo_and_its_capacity_bounds_the_queue() {
    // The bench suite's srv_b256 replica.
    let plan = plan(Some(4096));
    let cfg = ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 256,
            max_linger_ns: 1_000_000,
        },
        queue_capacity: Some(4096),
        ..ReplicaConfig::default()
    };
    // A lone request lingers 1 ms, then its batch of one takes ~4.1 ms:
    // past the 5 ms SLO, so no swept rate meets it.
    let floor = slo_floor_ns(&plan, cfg.policy.max_linger_ns);
    assert_eq!(floor, 5_101_196);
    assert!(floor > cfg.slo_ns);
    let capacity = capacity_rps(&plan, cfg.policy.max_batch);
    assert!(
        (capacity - 58_100.0).abs() < 100.0,
        "capacity {capacity:.0}"
    );
    // Below capacity the queue stays within two full batches; past it,
    // the backlog grows.
    let max_depth = |rate: u64| {
        let traffic: TrafficPlan =
            format!("seed=101;poisson@{rate};users=200000;zipf=105;ids=8;reqs=6000")
                .parse()
                .unwrap();
        serve(&plan, &traffic, &cfg, "capacity")
            .report
            .max_queue_depth
    };
    let bound = 2 * cfg.policy.max_batch as u64;
    assert!(max_depth(56_000) <= bound, "{}", max_depth(56_000));
    assert!(max_depth(80_000) > bound, "{}", max_depth(80_000));
}

/// The serving plan every replica-oracle case prices, planned once.
fn oracle_plan() -> &'static ServingPlan {
    static PLAN: OnceLock<ServingPlan> = OnceLock::new();
    PLAN.get_or_init(|| plan(Some(4096)))
}

/// A request admitted to the reference loop: its arrival and its IDs.
type Admitted = (u64, Vec<u64>);

/// The replica loop written plainly: every admitted request keeps its own
/// `Vec` of IDs, a dispatched batch flattens them in arrival order for the
/// cache, and every service time is computed afresh.
fn reference_serve(
    plan: &ServingPlan,
    traffic: &TrafficPlan,
    cfg: &ReplicaConfig,
    scenario: &str,
) -> ServeRun {
    let BatchPolicy {
        max_batch,
        max_linger_ns,
    } = cfg.policy;
    let mut gen = traffic.generator();
    let mut next_arrival = gen.next();
    let mut pending: VecDeque<Admitted> = VecDeque::new();
    let mut in_service: Option<(u64, Vec<Admitted>)> = None;
    let mut unserved = 0usize;
    let mut cache = HotSetPolicy::new(&cfg.cache, cfg.cache_dim.max(1), None);
    let mut recorder = LatencyRecorder::new();
    let mut slo = SloTracker::new(cfg.slo_ns);
    let (mut shed, mut served, mut batches) = (0u64, 0u64, 0u64);
    let (mut service_ns, mut last_end, mut now) = (0u64, 0u64, 0u64);
    loop {
        let t_done = in_service.as_ref().map(|&(end, _)| end);
        let t_deadline = if in_service.is_none() {
            pending.front().map(|&(at, _)| at + max_linger_ns)
        } else {
            None
        };
        let t_arrival = next_arrival.as_ref().map(|r| r.at_ns);
        let Some(t) = [t_done, t_deadline, t_arrival]
            .iter()
            .flatten()
            .min()
            .copied()
        else {
            break;
        };
        now = now.max(t);
        if t_done == Some(t) {
            let (end, batch) = in_service.take().unwrap();
            for &(at, _) in &batch {
                recorder.observe(end - at);
                slo.observe(end - at);
            }
            served += batch.len() as u64;
            batches += 1;
            unserved -= batch.len();
            last_end = end;
        } else if t_deadline != Some(t) {
            let req = next_arrival.take().unwrap();
            next_arrival = gen.next();
            if cfg.queue_capacity.is_some_and(|cap| unserved >= cap) {
                shed += 1;
                recorder.sample_queue_depth(now, pending.len() as u32);
                continue;
            }
            unserved += 1;
            pending.push_back((req.at_ns, req.ids));
        }
        // Dispatch to an idle server once a batch is full or the oldest
        // request's linger bound has passed.
        let ready = pending.len() >= max_batch
            || pending
                .front()
                .is_some_and(|&(at, _)| now >= at + max_linger_ns);
        if in_service.is_none() && ready {
            let n = pending.len().min(max_batch);
            let batch: Vec<Admitted> = pending.drain(..n).collect();
            let ids: Vec<u64> = batch.iter().flat_map(|(_, ids)| ids.clone()).collect();
            cache.measure_batch(&ids);
            let t = forward_latency_ns(&plan.spec, plan.strategy, &plan.cfg, n);
            service_ns += t;
            in_service = Some((now + t, batch));
        }
        recorder.sample_queue_depth(now, pending.len() as u32);
    }

    let stats = cache.stats();
    let sorted = recorder.sorted_ns();
    let report = ServeReport {
        scenario: scenario.to_string(),
        traffic: traffic.to_string(),
        max_batch: max_batch as u64,
        max_linger_ns,
        queue_capacity: cfg.queue_capacity.map(|c| c as u64),
        slo_ns: cfg.slo_ns,
        requests: traffic.requests,
        served,
        shed,
        batches,
        p50_ns: exact_quantile(&sorted, 0.50),
        p95_ns: exact_quantile(&sorted, 0.95),
        p99_ns: exact_quantile(&sorted, 0.99),
        mean_ns: recorder.mean_ns().round() as u64,
        max_queue_depth: recorder.max_queue_depth() as u64,
        slo_violations: slo.violations,
        cache_hot_hits: stats.hot_hits,
        cache_cold_hits: stats.cold_hits,
        duration_ns: last_end,
        service_ns,
    };
    ServeRun {
        report,
        latency: recorder,
    }
}

/// A random small traffic plan: Poisson or MMPP arrivals around the
/// replica's capacity, over one to a million users. Up to 1 500 requests
/// cross several handoff chunks (128 to 2 048 requests each at these ID
/// counts), and zero requests is the empty stream.
fn oracle_traffic() -> impl Strategy<Value = TrafficPlan> {
    (
        0u64..1_000_000,
        proptest::bool::ANY,
        (0u32..3, 1u64..1_000_000),
        0u32..150,
        1u32..16,
        0u64..1_500,
        (500u64..200_000, 1u64..20),
    )
        .prop_map(
            |(seed, mmpp, (scale, users), zipf, ids, reqs, (rate, dwell))| {
                // Users on three scales: a handful, thousands, up to a
                // million.
                let users = match scale {
                    0 => 1 + users % 16,
                    1 => 1 + users % 5_000,
                    _ => users,
                };
                let process = if mmpp {
                    format!("mmpp@{}:b{}:d{dwell}", rate / 4 + 1, rate * 2)
                } else {
                    format!("poisson@{rate}")
                };
                format!("seed={seed};{process};users={users};zipf={zipf};ids={ids};reqs={reqs}")
                    .parse()
                    .expect("valid plan")
            },
        )
}

/// A random small replica: batch and linger bounds, an admission bound of
/// none, zero or a few requests, and a cache of at most a few dozen rows,
/// so that both the promote-all and the top-k flush occur.
fn oracle_replica() -> impl Strategy<Value = ReplicaConfig> {
    (
        1usize..64,
        0u64..8_000_000,
        (0u32..3, 1usize..40),
        (0u64..4, 1u64..5, 0u64..48),
        1_000_000u64..20_000_000,
    )
        .prop_map(
            |(max_batch, max_linger_ns, (bound, cap), (warmup, flush, rows), slo_ns)| {
                ReplicaConfig {
                    policy: BatchPolicy {
                        max_batch,
                        max_linger_ns,
                    },
                    queue_capacity: match bound {
                        0 => None,
                        1 => Some(0),
                        _ => Some(cap),
                    },
                    slo_ns,
                    cache: HybridHashConfig {
                        warmup_iters: warmup,
                        flush_iters: flush,
                        hot_bytes: rows * 4,
                    },
                    cache_dim: 1,
                }
            },
        )
}

proptest! {
    /// Over random small plans the replica reproduces the plain
    /// reference loop exactly: the report, every latency sample (their
    /// order shows in the mean's bits) and the queue-depth timeline.
    #[test]
    fn replica_matches_the_reference_loop(
        traffic in oracle_traffic(),
        cfg in oracle_replica(),
    ) {
        let plan = oracle_plan();
        let got = serve(plan, &traffic, &cfg, "oracle");
        let want = reference_serve(plan, &traffic, &cfg, "oracle");
        prop_assert_eq!(&got.report, &want.report, "{} under {:?}", traffic, cfg);
        prop_assert_eq!(got.latency.sorted_ns(), want.latency.sorted_ns());
        prop_assert_eq!(
            got.latency.mean_ns().to_bits(),
            want.latency.mean_ns().to_bits()
        );
        prop_assert_eq!(got.latency.queue_depth(), want.latency.queue_depth());
    }
}

/// Runs `traffic` through the replica and the reference loop under `cfg`
/// and asserts what the oracle above asserts, returning the replica's run.
fn assert_matches_reference(traffic: &str, cfg: &ReplicaConfig) -> ServeRun {
    let traffic: TrafficPlan = traffic.parse().expect("valid plan");
    let plan = oracle_plan();
    let got = serve(plan, &traffic, cfg, "handoff");
    let want = reference_serve(plan, &traffic, cfg, "handoff");
    assert_eq!(got.report, want.report, "{traffic}");
    assert_eq!(
        got.latency.sorted_ns(),
        want.latency.sorted_ns(),
        "{traffic}"
    );
    assert_eq!(
        got.latency.mean_ns().to_bits(),
        want.latency.mean_ns().to_bits(),
        "{traffic}"
    );
    assert_eq!(
        got.latency.queue_depth(),
        want.latency.queue_depth(),
        "{traffic}"
    );
    got
}

/// A replica small enough that a few thousand requests keep it busy.
fn handoff_replica() -> ReplicaConfig {
    ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 16,
            max_linger_ns: 500_000,
        },
        queue_capacity: Some(64),
        ..ReplicaConfig::default()
    }
}

#[test]
fn handoff_matches_the_reference_at_chunk_boundaries() {
    let ids = 8;
    let chunk = (CHUNK_IDS / ids) as u64;
    for reqs in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk] {
        let run = assert_matches_reference(
            &format!("seed=5;poisson@60000;users=5000;zipf=105;ids={ids};reqs={reqs}"),
            &handoff_replica(),
        );
        assert_eq!(run.report.served + run.report.shed, reqs);
    }
}

#[test]
fn handoff_of_one_request_per_chunk_matches_the_reference() {
    // Past half a chunk of IDs every chunk holds one request; past a whole
    // chunk, the request outgrows the chunk's preallocated buffer.
    for ids in [CHUNK_IDS / 2 + 1, CHUNK_IDS + 1] {
        assert_matches_reference(
            &format!("seed=6;mmpp@4000:b40000:d2;users=100000;zipf=90;ids={ids};reqs=9"),
            &handoff_replica(),
        );
    }
}

#[test]
fn handoff_drains_a_stream_that_is_all_shed() {
    let cfg = ReplicaConfig {
        queue_capacity: Some(0),
        ..handoff_replica()
    };
    let reqs = 3 * (CHUNK_IDS / 8) as u64 + 1;
    let run = assert_matches_reference(
        &format!("seed=7;poisson@60000;users=5000;zipf=105;ids=8;reqs={reqs}"),
        &cfg,
    );
    assert_eq!(run.report.shed, reqs);
    assert_eq!(run.report.served, 0);
}

#[test]
#[should_panic(expected = "max_batch must be at least 1")]
fn handoff_releases_the_producer_when_the_event_loop_panics() {
    // The event loop panics on its invalid batch policy while the producer
    // waits for an emptied chunk; the panic must reach the caller instead
    // of leaving the producer blocked.
    let cfg = ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 0,
            max_linger_ns: 0,
        },
        ..ReplicaConfig::default()
    };
    let traffic: TrafficPlan = "seed=8;poisson@60000;users=5000;zipf=105;ids=8;reqs=100000"
        .parse()
        .expect("valid plan");
    serve(oracle_plan(), &traffic, &cfg, "panic");
}
