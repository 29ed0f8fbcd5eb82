//! Simulated hardware resources.
//!
//! A [`ResourceSpec`] describes a server (or a small pool of identical server *channels*)
//! with a service rate expressed in abstract work units per second — FLOPS for
//! compute resources, bytes/s for memory and interconnect resources. Every
//! operation dispatched onto a resource first pays the per-launch overhead
//! (the CUDA-kernel-launch / DMA-setup cost that PICASSO's packing
//! optimization amortizes) and then `work / rate` seconds of service time.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of hardware a resource belongs to.
///
/// The paper's low-level projection (Fig. 4) groups operators by the dominant
/// hardware resource they are bounded by; kernel-packing only fuses kernels
/// within one class, and interleaving overlaps work across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// GPU streaming multiprocessors (compute, FLOPS).
    GpuSm,
    /// GPU device memory bandwidth (HBM, bytes/s).
    GpuMem,
    /// Host DRAM bandwidth (bytes/s).
    DramBw,
    /// Host CPU cores (FLOPS; also serves hashmap/host-side work).
    HostCpu,
    /// PCIe link between host and device (bytes/s).
    Pcie,
    /// NVLink between devices in one machine (bytes/s).
    NvLink,
    /// Inter-machine network (Ethernet TCP or RDMA, bytes/s).
    Network,
}

impl ResourceKind {
    /// All resource kinds, in a fixed display order.
    pub const ALL: [ResourceKind; 7] = [
        ResourceKind::GpuSm,
        ResourceKind::GpuMem,
        ResourceKind::DramBw,
        ResourceKind::HostCpu,
        ResourceKind::Pcie,
        ResourceKind::NvLink,
        ResourceKind::Network,
    ];

    /// The kind's display name, e.g. `gpu-sm`.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::GpuSm => "gpu-sm",
            ResourceKind::GpuMem => "gpu-mem",
            ResourceKind::DramBw => "dram",
            ResourceKind::HostCpu => "cpu",
            ResourceKind::Pcie => "pcie",
            ResourceKind::NvLink => "nvlink",
            ResourceKind::Network => "network",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies a resource within an [`crate::engine::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Burst-congestion behaviour of a resource.
///
/// Real interconnects lose efficiency when many transfers are issued at
/// once (TCP incast on Ethernet, DMA contention on PCIe): a transfer that
/// has been queued behind a burst for `backlog` time is served at a rate
/// degraded by `1 + alpha * backlog / (backlog + tau)`. This is the
/// mechanism PICASSO's interleaving exploits — pacing operations through
/// control dependencies keeps backlogs (and therefore the penalty) small,
/// while the unoptimized graph issues everything upfront and throttles
/// itself (§III-C: "the packed operations ... still race for the same
/// hardware resource").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CongestionSpec {
    /// Maximum fractional slowdown under a deep backlog.
    pub alpha: f64,
    /// Backlog scale at which half the penalty applies.
    pub tau: SimDuration,
}

impl CongestionSpec {
    /// Service-time multiplier for a task that waited `backlog` in queue.
    pub fn slowdown(&self, backlog: SimDuration) -> f64 {
        let b = backlog.as_secs_f64();
        let t = self.tau.as_secs_f64();
        if b <= 0.0 || t <= 0.0 {
            return 1.0;
        }
        1.0 + self.alpha * b / (b + t)
    }
}

/// Static description of one resource.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Human-readable name, e.g. `"node3/gpu-sm"`.
    pub name: String,
    /// Hardware class.
    pub kind: ResourceKind,
    /// Service rate in work units per second (FLOPS or bytes/s).
    pub rate: f64,
    /// Number of identical parallel channels (e.g. CUDA streams); operations
    /// queue FIFO across channels.
    pub channels: usize,
    /// Fixed overhead paid by every operation before service starts.
    pub launch_overhead: SimDuration,
    /// Burst-congestion behaviour (None = ideally work-conserving).
    pub congestion: Option<CongestionSpec>,
    /// Which machine in the cluster this resource belongs to.
    pub node: usize,
}

impl ResourceSpec {
    /// Creates a single-channel resource.
    pub fn new(name: impl Into<String>, kind: ResourceKind, rate: f64, node: usize) -> Self {
        assert!(rate > 0.0, "resource rate must be positive");
        ResourceSpec {
            name: name.into(),
            kind,
            rate,
            channels: 1,
            launch_overhead: SimDuration::ZERO,
            congestion: None,
            node,
        }
    }

    /// Sets the number of parallel channels.
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(channels > 0, "a resource needs at least one channel");
        self.channels = channels;
        self
    }

    /// Sets the per-operation launch overhead.
    pub fn with_launch_overhead(mut self, overhead: SimDuration) -> Self {
        self.launch_overhead = overhead;
        self
    }

    /// Sets (or clears) burst-congestion behaviour.
    pub fn with_congestion_opt(mut self, congestion: Option<CongestionSpec>) -> Self {
        self.congestion = congestion;
        self
    }

    /// Time to serve `work` units on one channel, excluding launch overhead.
    pub fn service_time(&self, work: f64) -> SimDuration {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be finite and non-negative, got {work}"
        );
        SimDuration::from_secs_f64(work / self.rate)
    }
}

/// Runtime accounting of a resource inside the engine. The per-channel
/// next-free times live in the engine's flat channel arena, not here; this
/// struct carries only the spec and the served-work totals.
#[derive(Debug, Clone)]
pub(crate) struct ResourceState {
    pub spec: ResourceSpec,
    /// Total busy time summed over channels.
    pub busy: SimDuration,
    /// Total work units served.
    pub work_served: f64,
    /// Number of operations served (for launch-overhead accounting).
    pub ops_served: u64,
}

/// Index of the channel in `channel_free` that frees up earliest (ties broken
/// by index for determinism).
///
/// `channel_free` is never empty: `Engine::add_task` refuses a task on a
/// resource with no channels, so every dispatched resource has one.
#[allow(clippy::expect_used)]
pub(crate) fn earliest_channel(channel_free: &[SimTime]) -> usize {
    channel_free
        .iter()
        .enumerate()
        .min_by_key(|&(i, &t)| (t, i))
        .map(|(i, _)| i)
        .expect("resource has at least one channel")
}

impl ResourceState {
    pub fn new(spec: ResourceSpec) -> Self {
        ResourceState {
            spec,
            busy: SimDuration::ZERO,
            work_served: 0.0,
            ops_served: 0,
        }
    }

    /// Dispatches an operation that became ready at `ready` onto the earliest
    /// of `channel_free` (one slot per channel), returning the chosen channel
    /// and the `(start, end)` interval. Tasks that queued behind a burst are
    /// served slower per the resource's congestion model.
    ///
    /// `channel_free` is passed in rather than read from `self` so the engine
    /// can keep every resource's channels in one flat arena and hand this
    /// method a subslice; this struct then carries only the accounting.
    pub fn dispatch_on(
        &mut self,
        channel_free: &mut [SimTime],
        ready: SimTime,
        work: f64,
    ) -> (usize, SimTime, SimTime) {
        let ch = earliest_channel(channel_free);
        let start = ready.max(channel_free[ch]);
        let mut service = self.spec.service_time(work);
        if let Some(c) = self.spec.congestion {
            service = SimDuration::from_secs_f64(service.as_secs_f64() * c.slowdown(start - ready));
        }
        let dur = self.spec.launch_overhead + service;
        let end = start + dur;
        channel_free[ch] = end;
        self.busy += dur;
        self.work_served += work;
        self.ops_served += 1;
        (ch, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64) -> ResourceSpec {
        ResourceSpec::new("test", ResourceKind::GpuSm, rate, 0)
    }

    #[test]
    fn service_time_scales_with_rate() {
        let s = spec(1e9); // 1 GFLOPS
        assert_eq!(s.service_time(1e9), SimDuration::from_secs_f64(1.0));
        assert_eq!(s.service_time(0.0), SimDuration::ZERO);
    }

    /// Allocates the channel slice a test engine would hold for this spec.
    fn channels_for(spec: &ResourceSpec) -> Vec<SimTime> {
        vec![SimTime::ZERO; spec.channels]
    }

    #[test]
    fn dispatch_is_fifo_on_single_channel() {
        let mut st =
            ResourceState::new(spec(1e9).with_launch_overhead(SimDuration::from_micros(10)));
        let mut free = channels_for(&st.spec);
        let (_, s1, e1) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6); // 1 ms + 10 us
        let (_, s2, e2) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.as_nanos(), 1_010_000);
        assert_eq!(s2, e1, "second op waits for the channel");
        assert_eq!(e2.as_nanos(), 2_020_000);
        assert_eq!(st.ops_served, 2);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut st = ResourceState::new(spec(1e9).with_channels(2));
        let mut free = channels_for(&st.spec);
        let (c1, _, e1) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        let (c2, s2, _) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        assert_eq!(s2, SimTime::ZERO, "second channel is free");
        assert_ne!(c1, c2);
        let (c3, s3, _) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        assert_eq!(s3, e1, "third op waits for the earliest channel");
        assert_eq!(c3, c1);
    }

    #[test]
    fn dispatch_respects_ready_time() {
        let mut st = ResourceState::new(spec(1e9));
        let mut free = channels_for(&st.spec);
        let (_, s, _) = st.dispatch_on(&mut free, SimTime(500), 1.0);
        assert_eq!(s, SimTime(500));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut st = ResourceState::new(spec(1e9));
        let mut free = channels_for(&st.spec);
        st.dispatch_on(&mut free, SimTime::ZERO, 2e9);
        assert_eq!(st.busy, SimDuration::from_secs_f64(2.0));
        assert_eq!(st.work_served, 2e9);
    }

    #[test]
    fn earliest_channel_breaks_ties_by_index() {
        assert_eq!(earliest_channel(&[SimTime(5), SimTime(3), SimTime(3)]), 1);
        assert_eq!(earliest_channel(&[SimTime::ZERO]), 0);
    }

    #[test]
    fn kind_classification() {
        assert_eq!(ResourceKind::ALL.len(), 7);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = spec(0.0);
    }

    #[test]
    fn congestion_slows_backlogged_tasks() {
        let c = CongestionSpec {
            alpha: 1.0,
            tau: SimDuration::from_millis(1),
        };
        assert_eq!(c.slowdown(SimDuration::ZERO), 1.0);
        assert!((c.slowdown(SimDuration::from_millis(1)) - 1.5).abs() < 1e-9);
        assert!(c.slowdown(SimDuration::from_millis(100)) < 2.0);

        let mut st = ResourceState::new(spec(1e9).with_congestion_opt(Some(c)));
        let mut free = channels_for(&st.spec);
        // A burst of 3 tasks, all ready at t=0, 1 ms of work each.
        let (_, _, e1) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        assert_eq!(e1.as_nanos(), 1_000_000, "first task is uncongested");
        let (_, _, e2) = st.dispatch_on(&mut free, SimTime::ZERO, 1e6);
        assert!(e2.as_nanos() > 2_400_000, "queued task slows down: {e2:?}");
        // The same work paced (ready when the channel frees) stays fast.
        let mut paced = ResourceState::new(spec(1e9).with_congestion_opt(Some(c)));
        let mut pfree = channels_for(&paced.spec);
        let (_, _, p1) = paced.dispatch_on(&mut pfree, SimTime::ZERO, 1e6);
        let (_, _, p2) = paced.dispatch_on(&mut pfree, p1, 1e6);
        assert_eq!(p2.as_nanos(), 2_000_000, "paced tasks pay no penalty");
    }
}
