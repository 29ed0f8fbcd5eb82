//! The `serve_sweep` workload: the `srv_b256` replica policy under a fixed
//! sweep of open-loop traffic, one `serve::serve` replay per op.
//!
//! Arrivals run in virtual time inside the replica, so the generator is
//! never late; what the host pays for is the event loop, the batcher and
//! the HybridHash reads of every batch.

use crate::trace::Tracer;
use crate::{Sim, Workload};
use picasso_bench::scenarios::serve_scenarios;
use picasso_bench::serve::{replica_config, serving_plan};
use picasso_core::exec::ServingPlan;
use picasso_core::serve::{serve, ReplicaConfig, ServeReport};
use picasso_core::sim::{ArrivalProcess, TrafficPlan};
use std::time::Instant;

/// Requests per replay of the rate sweep and the bursty mix.
const REQUESTS: u64 = 6000;
/// Requests of the long overloaded replay: enough at [`OVERLOAD_RATE`] to
/// fill the 4 096-request admission bound, so the replica sheds.
const OVERLOAD_REQUESTS: u64 = 40000;
/// Offered rate of the long overloaded replay, requests per second.
const OVERLOAD_RATE: u64 = 80000;

/// Poisson rates of the sweep, requests per second: below, near and above
/// the ~55 000 rps the policy sustains on this plan (256-request batches).
const RATES: [u64; 5] = [1000, 8000, 32000, 56000, 80000];

/// Serving-sweep state.
pub struct Serving {
    plan: ServingPlan,
    replica: ReplicaConfig,
    traffic: Vec<(String, TrafficPlan)>,
    refs: Vec<Option<ServeReport>>,
    plan_ms: f64,
    last: Option<ServeReport>,
}

impl Serving {
    /// Plans the forward-only model and the traffic mixes of the sweep.
    pub fn new(seed: u64) -> Result<Serving, String> {
        let sc = serve_scenarios()
            .into_iter()
            .find(|s| s.name == "srv_b256")
            .ok_or("serving suite lacks srv_b256")?;
        let t = Instant::now();
        let plan = serving_plan(sc.queue_capacity)?;
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let traffic: Vec<(String, TrafficPlan)> = RATES
            .iter()
            .map(|&rate| {
                let text = format!(
                    "seed={seed};poisson@{rate};users=200000;zipf=105;ids=8;reqs={REQUESTS}"
                );
                (format!("poisson@{rate}"), text)
            })
            .chain([
                (
                    // Bursty traffic over three million users at a flatter
                    // skew: a working set far past the replica's 4 MB hot
                    // cache.
                    "mmpp".to_string(),
                    format!(
                        "seed={seed};mmpp@2000:b12000:d20;users=3000000;zipf=80;ids=8;reqs={REQUESTS}"
                    ),
                ),
                (
                    // A long replay past capacity: the queue fills and the
                    // admission bound sheds.
                    "overload".to_string(),
                    format!(
                        "seed={seed};poisson@{OVERLOAD_RATE};users=200000;zipf=105;ids=8;reqs={OVERLOAD_REQUESTS}"
                    ),
                ),
            ])
            .map(|(name, text)| TrafficPlan::parse(&text).map(|p| (name, p)))
            .collect::<Result<_, _>>()?;
        Ok(Serving {
            refs: vec![None; traffic.len()],
            plan,
            replica: replica_config(&sc),
            traffic,
            plan_ms,
            last: None,
        })
    }

    /// Planning time of the forward-only graph (a set-up layer).
    pub fn plan_ms(&self) -> f64 {
        self.plan_ms
    }
}

impl Workload for Serving {
    fn cycle(&self) -> usize {
        self.traffic.len()
    }

    fn name(&self, i: usize) -> String {
        self.traffic[i].0.clone()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (name, plan) = &self.traffic[i];
        let run = tr.outer("serve", || serve(&self.plan, plan, &self.replica, name));
        self.last = Some(run.report);
        Ok(())
    }

    fn check(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let report = self.last.take().ok_or("op left no output")?;
        let (name, plan) = &self.traffic[i];
        if report.served + report.shed != report.requests || report.requests != plan.requests {
            return Err(format!(
                "{name}: served {} + shed {} != offered {}",
                report.served, report.shed, plan.requests
            ));
        }
        if plan.requests == OVERLOAD_REQUESTS && report.shed == 0 {
            return Err(format!("{name}: the overloaded replay shed nothing"));
        }
        match &self.refs[i] {
            None => self.refs[i] = Some(report.clone()),
            Some(want) if want.digest() != report.digest() => {
                return Err(format!("{name}: repeat differs from the first replay"))
            }
            Some(_) => {}
        }
        if tr.on() {
            // Arrival generation runs inside the replica; replaying the
            // generator alone times it.
            let (n, traffic_ms) = tr.probe(|| plan.generator().count());
            if n as u64 != plan.requests {
                return Err(format!("{name}: generator emitted {n} requests"));
            }
            let serve_ms = tr.carve(
                "serve",
                &[("sim.traffic.ms", traffic_ms)],
                "serve.replica.ms",
            );
            tr.detail(
                "serve.ns_per_request",
                serve_ms * 1e6 / plan.requests as f64,
            );
            tr.detail("serve.batches", report.batches as f64);
            tr.detail("serve.cache_hit_ratio", report.cache_hit_ratio());
            tr.detail("serve.mean_batch", report.mean_batch());
            // Shedding and queue build-up happen on the overloaded replays
            // only, so a median over ops would hide them: these two are per
            // sweep cycle, from the reference replays this one just matched.
            let cycle = self.refs.iter().flatten();
            tr.detail(
                "serve.shed",
                cycle.clone().map(|r| r.shed).sum::<u64>() as f64,
            );
            tr.detail(
                "serve.max_queue_depth",
                cycle.map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
            );
        }
        Ok(())
    }

    fn sim(&self) -> Sim {
        let reports: Vec<&ServeReport> = self.refs.iter().flatten().collect();
        let offered: u64 = reports.iter().map(|r| r.requests).sum();
        let missed: u64 = reports.iter().map(|r| r.shed + r.slo_violations).sum();
        let max_rate = self
            .traffic
            .iter()
            .zip(&self.refs)
            .filter_map(|((_, plan), r)| match (plan.process, r) {
                (ArrivalProcess::Poisson { rate_hz }, Some(r))
                    if r.shed == 0 && r.p99_ns <= r.slo_ns =>
                {
                    Some(rate_hz as f64)
                }
                _ => None,
            })
            .fold(0.0, f64::max);
        Sim {
            slo_miss_frac: (offered > 0).then(|| missed as f64 / offered as f64),
            max_rate_rps: Some(max_rate),
            ..Sim::default()
        }
    }
}
