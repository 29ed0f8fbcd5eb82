//! Golden digests of the serving replica.
//!
//! Pins `ServeReport::digest()` for the seven traffic mixes of hostbench's
//! `serve_sweep` workload at seed 101: a Poisson rate sweep below, near and
//! above capacity, a bursty MMPP mix over three million users, and a long
//! overloaded replay that sheds. The replica is the `srv_b256` policy
//! (batches of at most 256, 1 ms linger, a 4 096-request admission bound)
//! over the Criteo W&D serving plan. Every latency quantile, queue depth,
//! shed count and cache hit count is in the digest, so any change to what
//! the replica serves, or to which IDs its cache counts as hot, moves one
//! of these pins. The scenario label is part of the digest: the rates are
//! labelled `p1k` … `p80k`, the bursty mix `mmpp` and the overload `over`.

use picasso::data::DatasetSpec;
use picasso::exec::{prepare_serving, ModelKind, ServingPlan, TrainerOptions};
use picasso::serve::{serve, BatchPolicy, ReplicaConfig};
use picasso::sim::TrafficPlan;
use picasso::Strategy;

fn plan() -> ServingPlan {
    let opts = TrainerOptions {
        batch_per_executor: Some(256),
        ..Default::default()
    };
    prepare_serving(
        ModelKind::WideDeep,
        &DatasetSpec::criteo().shared(),
        Strategy::Hybrid,
        &opts,
        Some(4096),
    )
    .unwrap()
}

fn replica() -> ReplicaConfig {
    ReplicaConfig {
        policy: BatchPolicy {
            max_batch: 256,
            max_linger_ns: 1_000_000,
        },
        queue_capacity: Some(4096),
        ..ReplicaConfig::default()
    }
}

fn digest(plan: &ServingPlan, name: &str, traffic: &str) -> String {
    let traffic: TrafficPlan = traffic.parse().unwrap();
    let report = serve(plan, &traffic, &replica(), name).report;
    assert_eq!(report.served + report.shed, report.requests, "{name}");
    format!("{:016x}", report.digest())
}

#[test]
fn poisson_sweep_is_pinned() {
    let plan = plan();
    let pins = [
        (1, "cb2dd2b63428a3a9"),
        (8, "e37505a61b224ccc"),
        (32, "576e1f2069710357"),
        (56, "64ec974174964cda"),
        (80, "ddd32ca94cc4f725"),
    ];
    for (krps, want) in pins {
        let traffic = format!("seed=101;poisson@{krps}000;users=200000;zipf=105;ids=8;reqs=6000");
        assert_eq!(
            digest(&plan, &format!("p{krps}k"), &traffic),
            want,
            "p{krps}k"
        );
    }
}

#[test]
fn bursty_mix_over_three_million_users_is_pinned() {
    let traffic = "seed=101;mmpp@2000:b12000:d20;users=3000000;zipf=80;ids=8;reqs=6000";
    assert_eq!(digest(&plan(), "mmpp", traffic), "60ccfdcda393f57f");
}

#[test]
fn shedding_overload_is_pinned() {
    let traffic = "seed=101;poisson@80000;users=200000;zipf=105;ids=8;reqs=40000";
    assert_eq!(digest(&plan(), "over", traffic), "8d1f2643ef0702ef");
}
