//! DCGM-style measurement of a finished run.
//!
//! The paper inspects GPU SM utilization and PCIe/NVLink bandwidth at a
//! 10-millisecond granularity (Figs. 11 and 12) and reports worker-side time
//! breakdowns (Fig. 5). [`measure`] derives all of those from the engine's
//! task records in one pass. The run report keeps the [`Measurement`], and
//! the metrics exporters publish it rather than measuring the run again.

use crate::engine::{RunResult, TaskCategory};
use crate::intervals::IntervalSet;
use crate::resource::ResourceKind;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Per-bucket samples of one quantity over schedule time.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// One sample per bucket, in time order.
    pub samples: Vec<f64>,
}

impl Timeline {
    /// Mean over all buckets.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Empirical CDF as `(value, cumulative fraction)` points, sorted by
    /// value in [`f64::total_cmp`] order (a NaN sample sorts last).
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        v.into_iter()
            .enumerate()
            .map(|(i, x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// Busy/idle profile of one concrete resource (one device, link, or thread
/// pool) over schedule time: the Fig. 5-style per-resource breakdown for any
/// run. Multi-channel resources report the union over channels, so
/// `busy_fraction` is "was anything in flight", not channel-weighted load.
#[derive(Debug, Clone)]
pub struct ResourceTimeline {
    /// Resource name, e.g. `node0/gpu0/sm`.
    pub resource: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Machine the resource belongs to.
    pub node: usize,
    /// Fraction of the makespan the resource was busy, in `[0, 1]`.
    pub busy_fraction: f64,
    /// Per-bucket busy fraction.
    pub timeline: Timeline,
}

impl ResourceTimeline {
    /// Fraction of the makespan the resource sat idle.
    pub fn idle_fraction(&self) -> f64 {
        (1.0 - self.busy_fraction).max(0.0)
    }
}

/// Worker-side time breakdown by task category (Fig. 5).
///
/// `exposed` counts, per category, the time during which *only* that category
/// was active — the period when the operation blocks all the others, per the
/// paper's definition — plus the share of fully-idle gaps attributed nowhere.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Total busy (possibly overlapped) time per category.
    pub busy: BTreeMap<TaskCategory, SimDuration>,
    /// Exposed (blocking) time per category.
    pub exposed: BTreeMap<TaskCategory, SimDuration>,
    /// Run makespan.
    pub makespan: SimTime,
}

impl Breakdown {
    /// Exposed fraction of the makespan for a category.
    pub fn exposed_fraction(&self, cat: TaskCategory) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.exposed
            .get(&cat)
            .map(|d| d.as_secs_f64() / self.makespan.as_secs_f64())
            .unwrap_or(0.0)
    }
}

/// Everything measured of one run, every timeline sampled at `bucket`.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Bucket width of every timeline.
    pub bucket: SimDuration,
    /// Per-bucket GPU SM busy fraction, averaged over the GPU-SM devices
    /// (what DCGM reports when averaging over GPUs).
    pub sm: Timeline,
    /// Per-bucket PCIe throughput over all PCIe links, bytes/s.
    pub pcie: Timeline,
    /// Per-bucket NVLink throughput over all NVLinks, bytes/s.
    pub nvlink: Timeline,
    /// Per-bucket network throughput over all NICs, bytes/s.
    pub network: Timeline,
    /// Busy and exposed time per task category.
    pub breakdown: Breakdown,
    /// Busy/idle profile of every resource in declaration order, idle ones
    /// included.
    pub resources: Vec<ResourceTimeline>,
}

/// Measures a finished run in `bucket` windows (the paper uses 10 ms).
///
/// One pass over the records groups their spans by resource and by category
/// and spreads each link task's bytes uniformly over its service interval.
/// One pass over the buckets then takes each resource's overlap once, for
/// both its own lane and the GPU-SM average.
pub fn measure(result: &RunResult, bucket: SimDuration) -> Measurement {
    let width = bucket.as_nanos();
    assert!(width > 0, "bucket must be nonzero");
    let makespan = result.makespan;
    let n_buckets = makespan.as_nanos().div_ceil(width) as usize;

    let mut by_resource = vec![Vec::new(); result.resources.len()];
    // Indexed by discriminant, which is the order of `TaskCategory::ALL`.
    let mut by_category: [Vec<(SimTime, SimTime)>; 5] = Default::default();
    // Bytes per bucket on PCIe, NVLink and network links, in that order.
    let mut link_bytes = [0; 3].map(|_| vec![0.0f64; n_buckets]);
    for r in &result.records {
        by_resource[r.resource.0].push((r.start, r.end));
        by_category[r.category as usize].push((r.start, r.end));
        let bytes = match result.resources[r.resource.0].spec.kind {
            ResourceKind::Pcie => &mut link_bytes[0],
            ResourceKind::NvLink => &mut link_bytes[1],
            ResourceKind::Network => &mut link_bytes[2],
            _ => continue,
        };
        let dur = (r.end - r.start).as_secs_f64();
        if dur <= 0.0 || r.work <= 0.0 {
            continue;
        }
        let rate = r.work / dur;
        let first = (r.start.as_nanos() / width) as usize;
        let last = (r.end.as_nanos().saturating_sub(1) / width) as usize;
        for (b, slot) in bytes.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = SimTime(b as u64 * width).max(r.start);
            let hi = SimTime((b as u64 + 1) * width).min(r.end);
            if hi > lo {
                *slot += rate * (hi - lo).as_secs_f64();
            }
        }
    }

    let sets: Vec<IntervalSet> = by_resource
        .into_iter()
        .map(IntervalSet::from_spans)
        .collect();
    let gpus: Vec<usize> = (0..sets.len())
        .filter(|&i| result.resources[i].spec.kind == ResourceKind::GpuSm)
        .collect();
    let n_gpus = gpus.len().max(1) as f64;
    let mut sm = Vec::with_capacity(n_buckets);
    let mut lanes = vec![Vec::with_capacity(n_buckets); sets.len()];
    let mut overlap = vec![0.0f64; sets.len()];
    for b in 0..n_buckets as u64 {
        let s = SimTime(b * width);
        let e = SimTime(((b + 1) * width).min(makespan.as_nanos()));
        let width_secs = (e - s).as_secs_f64();
        for (i, set) in sets.iter().enumerate() {
            overlap[i] = set.overlap_with(s, e).as_secs_f64();
            lanes[i].push(overlap[i] / width_secs);
        }
        let busy: f64 = gpus.iter().map(|&i| overlap[i]).sum();
        sm.push(busy / (width_secs * n_gpus));
    }

    let makespan_secs = makespan.as_secs_f64();
    let resources = result
        .resources
        .iter()
        .zip(&sets)
        .zip(lanes)
        .map(|((res, set), samples)| ResourceTimeline {
            resource: res.spec.name.clone(),
            kind: res.spec.kind,
            node: res.spec.node,
            busy_fraction: if makespan_secs > 0.0 {
                set.measure().as_secs_f64() / makespan_secs
            } else {
                0.0
            },
            timeline: Timeline { samples },
        })
        .collect();

    let bucket_secs = bucket.as_secs_f64();
    let [pcie, nvlink, network] = link_bytes.map(|bytes| Timeline {
        samples: bytes.into_iter().map(|b| b / bucket_secs).collect(),
    });

    Measurement {
        bucket,
        sm: Timeline { samples: sm },
        pcie,
        nvlink,
        network,
        breakdown: breakdown(by_category, makespan),
        resources,
    }
}

/// Busy time per category, and the time each category runs alone.
fn breakdown(spans: [Vec<(SimTime, SimTime)>; 5], makespan: SimTime) -> Breakdown {
    let sets = spans.map(IntervalSet::from_spans);
    let mut busy = BTreeMap::new();
    let mut exposed = BTreeMap::new();
    for (i, cat) in TaskCategory::ALL.into_iter().enumerate() {
        let mut others = IntervalSet::new();
        for (j, set) in sets.iter().enumerate() {
            if j != i {
                others = others.union(set);
            }
        }
        busy.insert(cat, sets[i].measure());
        exposed.insert(cat, sets[i].subtract(&others).measure());
    }
    Breakdown {
        busy,
        exposed,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task};
    use crate::resource::ResourceSpec;

    fn two_phase_run() -> RunResult {
        // A communication phase [0, 1ms] followed by a compute phase [1, 2ms]:
        // the classic pulse-like pattern PICASSO's interleaving diffuses.
        let mut e = Engine::new();
        let g = e.add_resource(ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0));
        let nw = e.add_resource(ResourceSpec::new("net", ResourceKind::Network, 1e9, 0));
        let comm = e
            .add_task(Task::new(nw, 1e6, TaskCategory::Communication), &[])
            .unwrap();
        e.add_task(Task::new(g, 1e6, TaskCategory::Computation), &[comm])
            .unwrap();
        e.run().unwrap()
    }

    #[test]
    fn utilization_shows_pulse() {
        let r = two_phase_run();
        let u = measure(&r, SimDuration::from_micros(100)).sm;
        assert_eq!(u.samples.len(), 20);
        // GPU idle in first 10 buckets, busy in last 10.
        assert!(u.samples[..10].iter().all(|&s| s == 0.0));
        assert!(u.samples[10..].iter().all(|&s| (s - 1.0).abs() < 1e-9));
        assert!((u.mean() - 0.5).abs() < 1e-9);
        assert_eq!(u.samples.iter().filter(|&&s| s < 0.5).count(), 10);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let r = two_phase_run();
        let cdf = measure(&r, SimDuration::from_micros(100)).sm.cdf();
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_of_a_nan_sample_sorts_it_last() {
        let t = Timeline {
            samples: vec![0.5, f64::NAN, 0.25],
        };
        let cdf = t.cdf();
        assert_eq!((cdf[0].0, cdf[1].0), (0.25, 0.5));
        assert!(cdf[2].0.is_nan());
        assert_eq!(cdf[2].1, 1.0);
    }

    #[test]
    fn bandwidth_attributes_bytes_to_buckets() {
        let r = two_phase_run();
        let bw = measure(&r, SimDuration::from_micros(500)).network;
        // 1e6 bytes in the first 1 ms: both first two 0.5 ms buckets at 1 GB/s.
        assert!((bw.samples[0] - 1e9).abs() < 1.0);
        assert!((bw.samples[1] - 1e9).abs() < 1.0);
        assert!(bw.samples[2] < 1.0);
        let peak = bw.samples.iter().copied().fold(0.0, f64::max);
        assert!((peak - 1e9).abs() < 1.0);
        // Total bytes conserved.
        let total: f64 = bw.samples.iter().sum::<f64>() * 500e-6;
        assert!((total - 1e6).abs() < 1.0);
    }

    #[test]
    fn breakdown_exposes_serial_phases() {
        let r = two_phase_run();
        let b = measure(&r, SimDuration::from_micros(100)).breakdown;
        // Fully serial: each phase is 100% exposed, 50% of the makespan.
        assert!((b.exposed_fraction(TaskCategory::Communication) - 0.5).abs() < 1e-9);
        assert!((b.exposed_fraction(TaskCategory::Computation) - 0.5).abs() < 1e-9);
        assert_eq!(
            b.busy[&TaskCategory::Communication],
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn utilization_avg_averages_over_devices() {
        // Two GPUs: one busy the whole run, one idle -> avg 50%, while each
        // lane shows its own device.
        let mut e = Engine::new();
        let g0 = e.add_resource(ResourceSpec::new("gpu0", ResourceKind::GpuSm, 1e9, 0));
        let _g1 = e.add_resource(ResourceSpec::new("gpu1", ResourceKind::GpuSm, 1e9, 0));
        e.add_task(Task::new(g0, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let r = e.run().unwrap();
        let m = measure(&r, SimDuration::from_micros(100));
        assert!((m.sm.mean() - 0.5).abs() < 1e-9, "avg {}", m.sm.mean());
        assert!((m.resources[0].timeline.mean() - 1.0).abs() < 1e-9);
        assert_eq!(m.resources[1].timeline.mean(), 0.0);
    }

    #[test]
    fn resource_timelines_profile_every_resource() {
        let r = two_phase_run();
        let lanes = measure(&r, SimDuration::from_micros(100)).resources;
        assert_eq!(lanes.len(), 2);
        let gpu = lanes.iter().find(|l| l.resource == "gpu").unwrap();
        let net = lanes.iter().find(|l| l.resource == "net").unwrap();
        assert_eq!(gpu.kind, ResourceKind::GpuSm);
        // Each resource busy for exactly half the 2 ms makespan.
        assert!((gpu.busy_fraction - 0.5).abs() < 1e-9);
        assert!((net.busy_fraction - 0.5).abs() < 1e-9);
        assert!((gpu.idle_fraction() - 0.5).abs() < 1e-9);
        // The net lane pulses first, the gpu lane second.
        assert!(net.timeline.samples[..10]
            .iter()
            .all(|&s| (s - 1.0).abs() < 1e-9));
        assert!(net.timeline.samples[10..].iter().all(|&s| s == 0.0));
        assert!(gpu.timeline.samples[..10].iter().all(|&s| s == 0.0));
        assert!(gpu.timeline.samples[10..]
            .iter()
            .all(|&s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn resource_timelines_include_idle_resources() {
        let mut e = Engine::new();
        let g0 = e.add_resource(ResourceSpec::new("gpu0", ResourceKind::GpuSm, 1e9, 0));
        let _g1 = e.add_resource(ResourceSpec::new("gpu1", ResourceKind::GpuSm, 1e9, 0));
        e.add_task(Task::new(g0, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let r = e.run().unwrap();
        let lanes = measure(&r, SimDuration::from_micros(100)).resources;
        assert_eq!(lanes.len(), 2);
        assert!((lanes[0].busy_fraction - 1.0).abs() < 1e-9);
        assert_eq!(lanes[1].busy_fraction, 0.0);
        assert!(lanes[1].timeline.samples.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn overlapped_phases_have_no_exposure() {
        let mut e = Engine::new();
        let g = e.add_resource(ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0));
        let nw = e.add_resource(ResourceSpec::new("net", ResourceKind::Network, 1e9, 0));
        e.add_task(Task::new(nw, 1e6, TaskCategory::Communication), &[])
            .unwrap();
        e.add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let r = e.run().unwrap();
        let b = measure(&r, SimDuration::from_micros(100)).breakdown;
        assert_eq!(b.exposed[&TaskCategory::Communication], SimDuration::ZERO);
        assert_eq!(b.exposed[&TaskCategory::Computation], SimDuration::ZERO);
    }
}
