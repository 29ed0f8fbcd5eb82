//! Property test of the one-pass run measurement.
//!
//! `measure` groups the records once and samples every resource once per
//! bucket. This oracle answers each question separately instead — one
//! filter over the records per resource, kind and category, and one bucket
//! loop per timeline — and checks on random engine runs that every sample,
//! fraction and breakdown duration agrees bit for bit. The runs mix several
//! GPU-SM devices, PCIe, NVLink and network links, multi-channel resources,
//! every task category and zero-work tasks, and include runs with no GPU
//! (whose SM samples are the `-0.0` of an empty sum) and with no tasks.

use picasso_sim::{
    measure, Engine, IntervalSet, ResourceKind, ResourceSpec, RunResult, SimDuration, SimTime,
    Task, TaskCategory,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random run: resources, a task DAG over them, and the bucket choice.
#[derive(Debug, Clone)]
struct RunSpec {
    /// `(kind index, channels, launch overhead in 2 µs units, node)`.
    resources: Vec<(usize, usize, u64, usize)>,
    /// `(resource, zero-work unless nonzero, work, category index, deps)`.
    tasks: Vec<(usize, u64, f64, usize, Vec<usize>)>,
    /// Turn every GPU-SM resource into a host CPU (one run in four).
    no_gpu: bool,
    /// The bucket is `makespan / divisor + jitter` nanoseconds (at least 1).
    divisor: u64,
    jitter: u64,
}

fn run_strategy() -> impl Strategy<Value = RunSpec> {
    (0usize..9, 0usize..80).prop_flat_map(|(n_res, n_tasks)| {
        let resources = proptest::collection::vec(
            (
                0usize..ResourceKind::ALL.len(),
                1usize..4,
                0u64..3,
                0usize..3,
            ),
            n_res..n_res + 1,
        );
        let tasks: Vec<_> = (0..n_tasks)
            .map(|i| {
                (
                    0..n_res.max(1),
                    0u64..4,
                    0.0f64..1e7,
                    0usize..TaskCategory::ALL.len(),
                    proptest::collection::vec(0..i.max(1), 0..3),
                )
            })
            .collect();
        (resources, tasks, 0u8..4, 1u64..400, 0u64..1000).prop_map(
            |(resources, tasks, gpu_draw, divisor, jitter)| RunSpec {
                resources,
                tasks,
                no_gpu: gpu_draw == 0,
                divisor,
                jitter,
            },
        )
    })
}

fn run(spec: &RunSpec) -> RunResult {
    let mut e = Engine::new();
    let rids: Vec<_> = spec
        .resources
        .iter()
        .enumerate()
        .map(|(i, &(kind, channels, overhead, node))| {
            let kind = match ResourceKind::ALL[kind] {
                ResourceKind::GpuSm if spec.no_gpu => ResourceKind::HostCpu,
                kind => kind,
            };
            e.add_resource(
                ResourceSpec::new(format!("r{i}"), kind, 1e9, node)
                    .with_channels(channels)
                    .with_launch_overhead(SimDuration::from_nanos(overhead * 2_000)),
            )
        })
        .collect();
    if rids.is_empty() {
        return e.run().unwrap();
    }
    let mut tids = Vec::new();
    for (i, (r, nonzero, work, cat, deps)) in spec.tasks.iter().enumerate() {
        let work = if *nonzero == 0 { 0.0 } else { *work };
        let deps: Vec<_> = deps.iter().filter(|&&d| d < i).map(|&d| tids[d]).collect();
        let task = Task::new(rids[*r], work, TaskCategory::ALL[*cat]);
        tids.push(e.add_task(task, &deps).unwrap());
    }
    e.run().unwrap()
}

// The reference: one question per function, each with its own filter over
// the records and its own bucket loop, in the float order `measure` keeps.

fn ref_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn ref_utilization_avg(result: &RunResult, kind: ResourceKind, bucket: SimDuration) -> Vec<f64> {
    let per_resource: Vec<IntervalSet> = result
        .resources
        .iter()
        .enumerate()
        .filter(|(_, r)| r.spec.kind == kind)
        .map(|(i, _)| {
            IntervalSet::from_spans(
                result
                    .records
                    .iter()
                    .filter(|rec| rec.resource.0 == i)
                    .map(|rec| (rec.start, rec.end))
                    .collect(),
            )
        })
        .collect();
    let makespan = result.makespan;
    let n_buckets = makespan.as_nanos().div_ceil(bucket.as_nanos());
    let mut samples = Vec::with_capacity(n_buckets as usize);
    let n = per_resource.len().max(1) as f64;
    for b in 0..n_buckets {
        let s = SimTime(b * bucket.as_nanos());
        let e = SimTime(((b + 1) * bucket.as_nanos()).min(makespan.as_nanos()));
        let width = e - s;
        if width == SimDuration::ZERO {
            break;
        }
        let busy: f64 = per_resource
            .iter()
            .map(|set| set.overlap_with(s, e).as_secs_f64())
            .sum();
        samples.push(busy / (width.as_secs_f64() * n));
    }
    samples
}

/// `(busy_fraction, samples)` per resource in declaration order.
fn ref_resource_timelines(result: &RunResult, bucket: SimDuration) -> Vec<(f64, Vec<f64>)> {
    let makespan = result.makespan;
    let makespan_secs = makespan.as_secs_f64();
    let n_buckets = makespan.as_nanos().div_ceil(bucket.as_nanos());
    (0..result.resources.len())
        .map(|i| {
            let busy = IntervalSet::from_spans(
                result
                    .records
                    .iter()
                    .filter(|rec| rec.resource.0 == i)
                    .map(|rec| (rec.start, rec.end))
                    .collect(),
            );
            let mut samples = Vec::with_capacity(n_buckets as usize);
            for b in 0..n_buckets {
                let s = SimTime(b * bucket.as_nanos());
                let e = SimTime(((b + 1) * bucket.as_nanos()).min(makespan.as_nanos()));
                let width = e - s;
                if width == SimDuration::ZERO {
                    break;
                }
                samples.push(busy.overlap_with(s, e).as_secs_f64() / width.as_secs_f64());
            }
            let busy_fraction = if makespan_secs > 0.0 {
                busy.measure().as_secs_f64() / makespan_secs
            } else {
                0.0
            };
            (busy_fraction, samples)
        })
        .collect()
}

fn ref_bandwidth(result: &RunResult, kind: ResourceKind, bucket: SimDuration) -> Vec<f64> {
    let makespan = result.makespan;
    let n_buckets = makespan.as_nanos().div_ceil(bucket.as_nanos()) as usize;
    let mut bytes = vec![0.0f64; n_buckets];
    for r in &result.records {
        if result.resources[r.resource.0].spec.kind != kind {
            continue;
        }
        let dur = (r.end - r.start).as_secs_f64();
        if dur <= 0.0 || r.work <= 0.0 {
            continue;
        }
        let rate = r.work / dur;
        let first = (r.start.as_nanos() / bucket.as_nanos()) as usize;
        let last = ((r.end.as_nanos().saturating_sub(1)) / bucket.as_nanos()) as usize;
        for (b, slot) in bytes.iter_mut().enumerate().take(last + 1).skip(first) {
            let bs = SimTime(b as u64 * bucket.as_nanos());
            let be = SimTime((b as u64 + 1) * bucket.as_nanos());
            let lo = bs.max(r.start);
            let hi = be.min(r.end);
            if hi > lo {
                *slot += rate * (hi - lo).as_secs_f64();
            }
        }
    }
    let bucket_secs = bucket.as_secs_f64();
    bytes.into_iter().map(|b| b / bucket_secs).collect()
}

type Durations = BTreeMap<TaskCategory, SimDuration>;

/// `(busy, exposed)` per category.
fn ref_breakdown(result: &RunResult) -> (Durations, Durations) {
    let mut busy = BTreeMap::new();
    let mut sets: BTreeMap<TaskCategory, IntervalSet> = BTreeMap::new();
    for cat in TaskCategory::ALL {
        let set = IntervalSet::from_spans(
            result
                .records
                .iter()
                .filter(|r| r.category == cat)
                .map(|r| (r.start, r.end))
                .collect(),
        );
        busy.insert(cat, set.measure());
        sets.insert(cat, set);
    }
    let mut exposed = BTreeMap::new();
    for cat in TaskCategory::ALL {
        let mut others = IntervalSet::new();
        for (other_cat, set) in &sets {
            if *other_cat != cat {
                others = others.union(set);
            }
        }
        exposed.insert(cat, sets[&cat].subtract(&others).measure());
    }
    (busy, exposed)
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: sample count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:?} vs {w:?}");
    }
}

proptest! {
    /// Every sample, fraction and duration of `measure` equals the
    /// reference's bit for bit.
    #[test]
    fn measure_matches_the_reference(spec in run_strategy()) {
        let result = run(&spec);
        let bucket =
            SimDuration::from_nanos((result.makespan.as_nanos() / spec.divisor).max(1) + spec.jitter);
        let m = measure(&result, bucket);
        prop_assert_eq!(m.bucket, bucket);

        let sm = ref_utilization_avg(&result, ResourceKind::GpuSm, bucket);
        assert_bits("sm", &m.sm.samples, &sm);
        assert_bits("sm mean", &[m.sm.mean()], &[ref_mean(&sm)]);
        for (kind, got) in [
            (ResourceKind::Pcie, &m.pcie),
            (ResourceKind::NvLink, &m.nvlink),
            (ResourceKind::Network, &m.network),
        ] {
            let want = ref_bandwidth(&result, kind, bucket);
            assert_bits(kind.name(), &got.samples, &want);
            assert_bits(kind.name(), &[got.mean()], &[ref_mean(&want)]);
        }

        let lanes = ref_resource_timelines(&result, bucket);
        prop_assert_eq!(m.resources.len(), lanes.len());
        for ((got, (busy_fraction, samples)), res) in
            m.resources.iter().zip(&lanes).zip(&result.resources)
        {
            prop_assert_eq!(&got.resource, &res.spec.name);
            prop_assert_eq!(got.kind, res.spec.kind);
            prop_assert_eq!(got.node, res.spec.node);
            assert_bits(&got.resource, &[got.busy_fraction], &[*busy_fraction]);
            assert_bits(&got.resource, &got.timeline.samples, samples);
        }

        let (busy, exposed) = ref_breakdown(&result);
        prop_assert_eq!(&m.breakdown.busy, &busy);
        prop_assert_eq!(&m.breakdown.exposed, &exposed);
        prop_assert_eq!(m.breakdown.makespan, result.makespan);
        for cat in TaskCategory::ALL {
            let want = if result.makespan == SimTime::ZERO {
                0.0
            } else {
                exposed[&cat].as_secs_f64() / result.makespan.as_secs_f64()
            };
            assert_bits(cat.name(), &[m.breakdown.exposed_fraction(cat)], &[want]);
        }
    }
}
