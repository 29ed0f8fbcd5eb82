//! Fault-tolerant training: checkpoint cadence, deterministic fault
//! injection, heartbeat-based crash detection, restore, and batch-cursor
//! rewind.
//!
//! Production WDL jobs run for days on preemptible clusters; XDL2 (the
//! productized PICASSO) survives worker crashes by restoring the last
//! valid checkpoint and replaying the input stream. This module drives the
//! real CPU trainer ([`CtrModel`]) through a simulated-time fault schedule
//! ([`FaultPlan`]) and proves the recovery invariant end to end: a run
//! that crashes and restores finishes with **bit-identical** model state
//! (dense parameters, optimizer accumulators, and embedding rows) to an
//! uninterrupted run of the same seed.
//!
//! The determinism argument has three legs:
//!
//! 1. checkpoints capture the exact materialized-row set and dense bits
//!    ([`TableSnapshot`] / `CtrModel::dense_snapshot`), and restore ends by
//!    marking tables clean — the same dirty-set state an uninterrupted run
//!    has right after writing that checkpoint;
//! 2. the batch cursor is rewound by recreating the seeded
//!    [`BatchGenerator`] and replaying it to the restored step, so every
//!    post-restore batch is identical;
//! 3. wall-clock effects (detection latency, restore time, retry backoff)
//!    live on a simulated clock that never feeds back into the math.

use crate::trainer::TrainError;
use picasso_ckpt::{CheckpointKind, CheckpointStore, Manifest};
use picasso_data::{BatchGenerator, DatasetSpec};
use picasso_embedding::TableSnapshot;
use picasso_lint::{Diagnostic, Severity, Span};
use picasso_obs::checksum::splitmix64;
use picasso_obs::detect::{
    Anomaly, AnomalyKind, QueueDepthDetector, SlopeDetector, StragglerDetector,
};
use picasso_obs::flight::{FlightConfig, FlightDump, FlightRecorder, FlightStats};
use picasso_obs::json::Json;
use picasso_obs::{ChromeTrace, MetricKind, MetricsRegistry};
use picasso_sim::{FaultKind, FaultPlan};
use picasso_train::{CtrModel, Variant};
use std::sync::Arc;

/// Simulated compute time of one training step.
const STEP_S: f64 = 0.05;
/// Simulated time of the per-step gradient collective.
const COLLECTIVE_S: f64 = 0.01;
/// Checkpoint write bandwidth (bytes/s) on the simulated clock.
const CKPT_WRITE_BPS: f64 = 2e9;
/// Checkpoint read bandwidth (bytes/s) during restore.
const RESTORE_BPS: f64 = 4e9;
/// Fixed restore latency (manifest scan, process respawn).
const RESTORE_LATENCY_S: f64 = 0.005;
/// How much simulated time one iteration of NIC outage covers.
const NIC_ITER_S: f64 = STEP_S + COLLECTIVE_S;
/// Base delay of the exponential backoff for failed collectives.
const BACKOFF_BASE_S: f64 = 0.05;

/// Configuration of one fault-tolerant training run.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Training iterations to run.
    pub iterations: u64,
    /// Instances per batch.
    pub batch_size: usize,
    /// Seed for the model init and the batch stream.
    pub seed: u64,
    /// Which CTR model variant to train.
    pub variant: Variant,
    /// Learning rate.
    pub lr: f32,
    /// Checkpoint every this many iterations; `0` disables checkpointing.
    pub ckpt_every: u64,
    /// Every `full_every`-th checkpoint is full; the rest are incremental
    /// deltas chained to the previous checkpoint.
    pub full_every: u64,
    /// How many full checkpoints retention keeps (chains included).
    pub keep_full: usize,
    /// The deterministic fault schedule.
    pub fault_plan: FaultPlan,
    /// How long the heartbeat monitor waits before declaring a worker dead.
    pub heartbeat_timeout_s: f64,
    /// Bounded retry budget for failed collectives.
    pub max_retries: u32,
    /// Synchronous workers the anomaly detectors compare across. Only the
    /// detection layer reads this; the training math is single-trainer.
    pub workers: usize,
    /// Flight-recorder shape (ring capacity, post-mortem window, sampling).
    /// The recorder observes the simulated clock and never feeds back into
    /// the run.
    pub flight: FlightConfig,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions {
            iterations: 20,
            batch_size: 32,
            seed: 17,
            variant: Variant::Deep,
            lr: 0.05,
            ckpt_every: 0,
            full_every: 4,
            keep_full: 2,
            fault_plan: FaultPlan::none(),
            heartbeat_timeout_s: 0.25,
            max_retries: 6,
            workers: 4,
            flight: FlightConfig::default(),
        }
    }
}

/// One observed crash-and-restore cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration the worker crashed at (work of this iteration is lost).
    pub at_iter: u64,
    /// Step the restored checkpoint captured (`0` for a scratch restart).
    pub restored_step: u64,
    /// Iterations of work lost: `at_iter - restored_step`.
    pub lost_iterations: u64,
    /// Detection + restore time on the simulated clock.
    pub time_to_recover_s: f64,
    /// Shard bytes read during restore.
    pub restored_bytes: u64,
    /// Whether no usable checkpoint existed and training restarted fresh.
    pub from_scratch: bool,
    /// Simulated time the crash was detected at.
    pub at_s: f64,
}

/// One committed checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptRecord {
    /// Step the checkpoint captures.
    pub step: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Total shard payload bytes.
    pub bytes: u64,
    /// Shard count.
    pub shards: usize,
    /// Simulated write duration (`bytes / CKPT_WRITE_BPS`).
    pub duration_s: f64,
    /// Simulated time the write started at.
    pub at_s: f64,
}

/// Everything a fault-tolerant run produced.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Iterations the run was configured for.
    pub iterations: u64,
    /// FNV-1a digest of the final model state (dense + embedding rows).
    pub final_digest: u64,
    /// Mean BCE loss of the last completed step.
    pub final_loss: f64,
    /// Total simulated wall-clock of the run.
    pub sim_time_s: f64,
    /// Every crash-and-restore cycle, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Every committed checkpoint, in order (re-writes after a restore
    /// appear again).
    pub checkpoints: Vec<CkptRecord>,
    /// Collective retries spent waiting out NIC outages.
    pub collective_retries: u64,
    /// Manifests `latest_valid` rejected during restores (corruption
    /// fallback evidence).
    pub rejected_manifests: Vec<String>,
    /// Online anomaly detections (straggler z-score, NIC-degradation
    /// slope, queue-depth runaway), deduplicated across crash rewinds.
    pub detections: Vec<Anomaly>,
    /// Flight-recorder lifetime accounting.
    pub flight: FlightStats,
    /// One checksummed post-mortem per detected crash, captured at the
    /// moment of detection (before the restore rewinds anything).
    pub post_mortems: Vec<FlightDump>,
    /// The recorder's trailing window at the end of the run.
    pub flight_dump: FlightDump,
}

impl RecoveryRun {
    /// Total checkpoint shard bytes written.
    pub fn ckpt_bytes(&self) -> u64 {
        self.checkpoints.iter().map(|c| c.bytes).sum()
    }

    /// Total iterations lost to crashes.
    pub fn lost_iterations(&self) -> u64 {
        self.recoveries.iter().map(|r| r.lost_iterations).sum()
    }

    /// Total time spent detecting crashes and restoring state.
    pub fn time_to_recover_s(&self) -> f64 {
        self.recoveries.iter().map(|r| r.time_to_recover_s).sum()
    }

    /// Publishes the recovery counters into a metrics registry.
    pub fn export_metrics(&self, m: &MetricsRegistry) {
        m.describe(
            "recovery_events_total",
            MetricKind::Counter,
            "Worker crashes detected and recovered from",
        );
        m.describe(
            "recovery_lost_iterations_total",
            MetricKind::Counter,
            "Iterations of training work lost to crashes",
        );
        m.describe(
            "recovery_time_to_recover_seconds",
            MetricKind::Gauge,
            "Cumulative detection + restore time on the simulated clock",
        );
        m.describe(
            "ckpt_writes_total",
            MetricKind::Counter,
            "Committed checkpoints by kind",
        );
        m.describe(
            "ckpt_bytes_total",
            MetricKind::Counter,
            "Checkpoint shard bytes written",
        );
        m.describe(
            "ckpt_write_seconds",
            MetricKind::Gauge,
            "Cumulative simulated checkpoint write time",
        );
        m.describe(
            "collective_retries_total",
            MetricKind::Counter,
            "Collective retries spent backing off through NIC outages",
        );
        m.counter_add("recovery_events_total", &[], self.recoveries.len() as u64);
        m.counter_add(
            "recovery_lost_iterations_total",
            &[],
            self.lost_iterations(),
        );
        m.gauge_set(
            "recovery_time_to_recover_seconds",
            &[],
            self.time_to_recover_s(),
        );
        for kind in [CheckpointKind::Full, CheckpointKind::Incremental] {
            let of_kind: Vec<_> = self.checkpoints.iter().filter(|c| c.kind == kind).collect();
            if of_kind.is_empty() {
                continue;
            }
            let labels = [("kind", kind.name())];
            m.counter_add("ckpt_writes_total", &labels, of_kind.len() as u64);
            m.counter_add(
                "ckpt_bytes_total",
                &labels,
                of_kind.iter().map(|c| c.bytes).sum(),
            );
        }
        m.gauge_set(
            "ckpt_write_seconds",
            &[],
            self.checkpoints.iter().map(|c| c.duration_s).sum(),
        );
        m.counter_add("collective_retries_total", &[], self.collective_retries);
        m.describe(
            "flight_post_mortems_total",
            MetricKind::Counter,
            "Post-mortem dumps captured at crash detection",
        );
        m.counter_add(
            "flight_post_mortems_total",
            &[],
            self.post_mortems.len() as u64,
        );
        self.flight.export_metrics(m);
        m.describe(
            "anomalies_detected_total",
            MetricKind::Counter,
            "Online anomaly detections by detector kind",
        );
        for kind in [
            AnomalyKind::Straggler,
            AnomalyKind::NicDegradation,
            AnomalyKind::QueueRunaway,
        ] {
            let n = self.detections.iter().filter(|a| a.kind == kind).count();
            if n > 0 {
                let label = kind.to_string();
                m.counter_add("anomalies_detected_total", &[("kind", &label)], n as u64);
            }
        }
    }

    /// Renders the run as a Chrome trace: checkpoint-write and restore
    /// spans plus crash instants.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let ns = |s: f64| (s * 1e9) as u64;
        let mut trace = ChromeTrace::new();
        for c in &self.checkpoints {
            trace.complete(
                "checkpoint",
                &format!("ckpt@{} ({})", c.step, c.kind.name()),
                "checkpoint",
                ns(c.at_s),
                ns(c.at_s + c.duration_s),
                &[
                    ("bytes", &c.bytes.to_string()),
                    ("shards", &c.shards.to_string()),
                ],
            );
        }
        for r in &self.recoveries {
            trace.instant("recovery", &format!("crash@{}", r.at_iter), ns(r.at_s));
            trace.complete(
                "recovery",
                &format!("restore->{}", r.restored_step),
                "recovery",
                ns(r.at_s),
                ns(r.at_s + r.time_to_recover_s),
                &[
                    ("lost_iterations", &r.lost_iterations.to_string()),
                    ("restored_bytes", &r.restored_bytes.to_string()),
                    (
                        "from_scratch",
                        if r.from_scratch { "true" } else { "false" },
                    ),
                ],
            );
        }
        for a in &self.detections {
            trace.instant(
                "anomaly",
                &format!("{}@{}", a.kind, a.at_iter),
                a.at_iter * 1_000_000,
            );
        }
        trace
    }

    /// The JSON payload embedded in the run report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str("recovery_run")),
            ("iterations", Json::UInt(self.iterations)),
            (
                "final_digest",
                Json::str(format!("{:016x}", self.final_digest)),
            ),
            ("final_loss", Json::Num(self.final_loss)),
            ("sim_time_s", Json::Num(self.sim_time_s)),
            ("time_to_recover_s", Json::Num(self.time_to_recover_s())),
            ("lost_iterations", Json::UInt(self.lost_iterations())),
            ("ckpt_bytes", Json::UInt(self.ckpt_bytes())),
            ("collective_retries", Json::UInt(self.collective_retries)),
            (
                "recoveries",
                Json::Arr(
                    self.recoveries
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("at_iter", Json::UInt(r.at_iter)),
                                ("restored_step", Json::UInt(r.restored_step)),
                                ("lost_iterations", Json::UInt(r.lost_iterations)),
                                ("time_to_recover_s", Json::Num(r.time_to_recover_s)),
                                ("restored_bytes", Json::UInt(r.restored_bytes)),
                                ("from_scratch", Json::Bool(r.from_scratch)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "checkpoints",
                Json::Arr(
                    self.checkpoints
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("step", Json::UInt(c.step)),
                                ("snapshot", Json::str(c.kind.name())),
                                ("bytes", Json::UInt(c.bytes)),
                                ("shards", Json::UInt(c.shards as u64)),
                                ("duration_s", Json::Num(c.duration_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rejected_manifests",
                Json::Arr(
                    self.rejected_manifests
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "detections",
                Json::Arr(
                    self.detections
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("kind", Json::str(a.kind.to_string())),
                                ("at_iter", Json::UInt(a.at_iter)),
                                (
                                    "worker",
                                    match a.worker {
                                        Some(w) => Json::UInt(w as u64),
                                        None => Json::Null,
                                    },
                                ),
                                ("value", Json::Num(a.value)),
                                ("threshold", Json::Num(a.threshold)),
                            ])
                        })
                        .collect(),
                ),
            ),
            // Deterministic flight fields only: the volatile overhead
            // counter stays out so the report is reproducible.
            (
                "flight",
                Json::obj([
                    ("capacity", Json::UInt(self.flight.capacity as u64)),
                    ("occupancy", Json::UInt(self.flight.occupancy as u64)),
                    ("recorded", Json::UInt(self.flight.recorded)),
                    ("overwritten", Json::UInt(self.flight.overwritten)),
                    ("sampled_out", Json::UInt(self.flight.sampled_out_total())),
                ]),
            ),
            (
                "post_mortems",
                Json::Arr(self.post_mortems.iter().map(FlightDump::to_json).collect()),
            ),
        ])
    }
}

/// Lints a run configuration before training starts.
///
/// Emits the two `run.*` rules from the registry: a fault plan that
/// schedules a crash while checkpointing is disabled, and a checkpoint
/// interval longer than the run itself.
pub fn lint_recovery(opts: &RecoveryOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let schedules_crash = opts
        .fault_plan
        .events
        .iter()
        .any(|e| matches!(e.kind, FaultKind::WorkerCrash { .. }));
    if schedules_crash && opts.ckpt_every == 0 {
        out.push(
            Diagnostic::new(
                "run.fault-without-ckpt",
                Severity::Warn,
                Span::Run("fault-plan".into()),
                "the fault plan schedules a worker crash but checkpointing is disabled",
            )
            .with_hint("pass --ckpt-dir and --ckpt-every so crashes restore instead of restarting"),
        );
    }
    if opts.ckpt_every > opts.iterations {
        out.push(
            Diagnostic::new(
                "run.ckpt-beyond-horizon",
                Severity::Warn,
                Span::Run("ckpt-every".into()),
                format!(
                    "checkpoint interval {} exceeds the {}-iteration run; no checkpoint will ever be written",
                    opts.ckpt_every, opts.iterations
                ),
            )
            .with_hint("lower --ckpt-every below the iteration count"),
        );
    }
    out
}

/// Lints a finished run's flight-recorder accounting: fires
/// `run.flight-overflow` when ring wraparound overwrote admitted events,
/// meaning a post-mortem would be missing history.
pub fn lint_flight(stats: &FlightStats) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if stats.overwritten > 0 {
        out.push(
            Diagnostic::new(
                "run.flight-overflow",
                Severity::Warn,
                Span::Run("flight-recorder".into()),
                format!(
                    "flight recorder overwrote {} of {} admitted events (capacity {}); \
                     post-mortems lose the overwritten history",
                    stats.overwritten, stats.recorded, stats.capacity
                ),
            )
            .with_hint("raise the flight-recorder capacity or sample noisy categories harder"),
        );
    }
    out
}

fn unrec(what: &str, e: impl std::fmt::Display) -> TrainError {
    TrainError::Unrecoverable(format!("{what}: {e}"))
}

/// Writes one checkpoint of `model` at `step` and marks tables clean.
fn write_checkpoint(
    store: &CheckpointStore,
    model: &mut CtrModel,
    step: u64,
    kind: CheckpointKind,
    parent: Option<u64>,
) -> Result<(u64, usize), TrainError> {
    let mut w = store
        .begin(step, kind, parent)
        .map_err(|e| unrec("checkpoint begin", e))?;
    w.add_shard("dense", &model.dense_snapshot())
        .map_err(|e| unrec("checkpoint dense shard", e))?;
    for group in model.table_groups() {
        let table = model.table(group).expect("group came from table_groups");
        let snap = match kind {
            CheckpointKind::Full => TableSnapshot::full(table),
            CheckpointKind::Incremental => TableSnapshot::dirty(table),
        };
        w.add_shard(&format!("table{group}"), &snap.encode())
            .map_err(|e| unrec("checkpoint table shard", e))?;
    }
    let summary = w.commit().map_err(|e| unrec("checkpoint commit", e))?;
    model.mark_tables_clean();
    Ok((summary.bytes, summary.shards))
}

/// Restores `model` from `manifest` (base-first `chain` of table deltas,
/// dense bits from the final manifest). Returns shard bytes read.
fn restore_model(
    store: &CheckpointStore,
    model: &mut CtrModel,
    manifest: &Manifest,
    chain: &[Manifest],
) -> Result<u64, TrainError> {
    let mut bytes = 0u64;
    for (i, link) in chain.iter().enumerate() {
        for group in model.table_groups() {
            let name = format!("table{group}");
            let payload = store
                .read_shard(link, &name)
                .map_err(|e| unrec("restore table shard", e))?;
            bytes += payload.len() as u64;
            let snap =
                TableSnapshot::decode(&payload).map_err(|e| unrec("decode table shard", e))?;
            let table = model
                .table_mut(group)
                .expect("group came from table_groups");
            if i == 0 {
                snap.restore_full(table);
            } else {
                snap.apply(table);
            }
        }
    }
    let dense = store
        .read_shard(manifest, "dense")
        .map_err(|e| unrec("restore dense shard", e))?;
    bytes += dense.len() as u64;
    model
        .restore_dense(&dense)
        .map_err(|e| unrec("decode dense shard", e))?;
    Ok(bytes)
}

/// Runs the fault-tolerant training loop.
///
/// With `store: None` checkpointing is disabled; a crash then restarts
/// training from scratch (iteration 0) with the identical seeded init, so
/// the run still finishes — it just loses all progress.
///
/// Errors with [`TrainError::Unrecoverable`] when the checkpoint store is
/// unusable or a NIC outage outlasts the bounded retry budget.
pub fn run_recovery(
    data: &Arc<DatasetSpec>,
    store: Option<&CheckpointStore>,
    opts: &RecoveryOptions,
) -> Result<RecoveryRun, TrainError> {
    let plan = &opts.fault_plan;
    let full_every = opts.full_every.max(1);
    let mut fired = vec![false; plan.events.len()];

    let mut model = CtrModel::new(data, opts.variant, opts.lr, opts.seed);
    let mut gen = BatchGenerator::new(Arc::clone(data), opts.seed);
    let mut step: u64 = 0;
    let mut t = 0.0f64;
    let mut last_loss = f64::NAN;

    // Active degradation windows: (first_iter, one_past_last_iter, slowdown)
    // — straggler windows also carry the slow worker's index so the
    // detection layer can attribute per-worker latencies.
    let mut nic_windows: Vec<(u64, u64, f64)> = Vec::new();
    let mut slow_windows: Vec<(u64, u64, usize, f64)> = Vec::new();
    let mut nic_outage_until: Option<f64> = None;

    let mut recoveries = Vec::new();
    let mut checkpoints = Vec::new();
    let mut collective_retries = 0u64;
    let mut rejected_manifests = Vec::new();

    // The always-on flight recorder: bounded, fed from the simulated
    // clock, write-only — crashing leaves its trailing window behind as a
    // checksummed post-mortem without perturbing the run.
    let mut flight = FlightRecorder::with_config(&opts.flight);
    let mut post_mortems: Vec<FlightDump> = Vec::new();
    let ns = |s: f64| (s * 1e9).round() as u64;

    // Online anomaly detection over the per-step metrics stream. Detectors
    // only *observe* the simulated latencies — nothing they produce feeds
    // back into timing or the model, so the run stays bit-identical with
    // detection on. Crash rewinds replay iterations, so detections dedup
    // on (kind, worker, iteration).
    let straggler_det = StragglerDetector::default();
    let mut slope_det = SlopeDetector::new(4, 0.5 * COLLECTIVE_S);
    let queue_det = QueueDepthDetector::new(2);
    let mut detections: Vec<Anomaly> = Vec::new();
    let mut seen_detections: std::collections::BTreeSet<(AnomalyKind, Option<usize>, u64)> =
        std::collections::BTreeSet::new();
    let mut record = |detections: &mut Vec<Anomaly>, a: Anomaly| {
        if seen_detections.insert((a.kind, a.worker, a.at_iter)) {
            detections.push(a);
        }
    };
    // The detector panel compares at least every worker a straggler event
    // targets, even if the configured panel is smaller.
    let panel = plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::Straggler { worker, .. } => Some(worker + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
        .max(opts.workers.max(2));

    while step < opts.iterations {
        // Inject faults scheduled for the iteration about to execute. Each
        // event fires exactly once: rewinding the cursor past its iteration
        // must not re-trigger it.
        let mut crashed = false;
        for (i, event) in plan.events.iter().enumerate() {
            if fired[i] || event.at_iter != step {
                continue;
            }
            fired[i] = true;
            match event.kind {
                FaultKind::WorkerCrash { .. } => crashed = true,
                FaultKind::NicDegrade { factor_pct, iters } => {
                    flight.fault("nic-degrade", step, ns(t));
                    if factor_pct == 0 {
                        // Full outage: no collective completes until the
                        // window has passed on the simulated clock.
                        nic_outage_until = Some(t + iters as f64 * NIC_ITER_S);
                    } else {
                        nic_windows.push((step, step + iters as u64, 100.0 / factor_pct as f64));
                    }
                }
                FaultKind::Straggler {
                    worker,
                    factor_pct,
                    iters,
                } => {
                    flight.fault("straggler", step, ns(t));
                    slow_windows.push((
                        step,
                        step + iters as u64,
                        worker,
                        100.0 / factor_pct as f64,
                    ));
                }
            }
        }

        if crashed {
            // Heartbeat detection: timeout plus deterministic jitter.
            let jitter_ms = splitmix64(plan.seed ^ step) % 100;
            let mut ttr = opts.heartbeat_timeout_s + jitter_ms as f64 * 1e-3;
            let crashed_at = step;
            // Crash detection is the flight recorder's moment: record the
            // fault and freeze the trailing window — which still ends with
            // the last causal task executed before the crash — into a
            // checksummed post-mortem before the restore rewinds anything.
            flight.fault("crash", crashed_at, ns(t));
            post_mortems.push(flight.post_mortem());
            let mut restored_step = 0u64;
            let mut restored_bytes = 0u64;
            let mut from_scratch = true;
            if let Some(store) = store {
                match store.latest_valid().map_err(|e| unrec("scan store", e))? {
                    Some((manifest, chain, rejected)) => {
                        rejected_manifests.extend(rejected);
                        model = CtrModel::new(data, opts.variant, opts.lr, opts.seed);
                        restored_bytes = restore_model(store, &mut model, &manifest, &chain)?;
                        restored_step = manifest.step;
                        from_scratch = false;
                    }
                    None => model = CtrModel::new(data, opts.variant, opts.lr, opts.seed),
                }
            } else {
                model = CtrModel::new(data, opts.variant, opts.lr, opts.seed);
            }
            ttr += restored_bytes as f64 / RESTORE_BPS + RESTORE_LATENCY_S;
            // Rewind the deterministic batch cursor to the restored step.
            gen = BatchGenerator::new(Arc::clone(data), opts.seed);
            for _ in 0..restored_step {
                gen.next_batch(opts.batch_size);
            }
            step = restored_step;
            t += ttr;
            // The rewind replays iterations whose collective latencies the
            // slope detector already saw; a stale window would manufacture
            // a phantom trend across the discontinuity.
            slope_det.reset();
            flight.recovery("restore", restored_step, ns(t), ttr);
            recoveries.push(RecoveryEvent {
                at_iter: crashed_at,
                restored_step,
                lost_iterations: crashed_at - restored_step,
                time_to_recover_s: ttr,
                restored_bytes,
                from_scratch,
                at_s: t - ttr,
            });
            continue;
        }

        // The real training step (synchronous semantics).
        let step_start = t;
        flight.span_open("iteration", step, ns(step_start));
        let batch = gen.next_batch(opts.batch_size);
        let (stats, grads) = model.step(&batch, data);
        model.apply(&grads);
        last_loss = stats.loss;

        // Simulated-clock accounting: compute, then the collective.
        let slow_mult: f64 = slow_windows
            .iter()
            .filter(|(a, b, _, _)| (*a..*b).contains(&step))
            .map(|(_, _, _, m)| m)
            .product();
        let nic_mult: f64 = nic_windows
            .iter()
            .filter(|(a, b, _)| (*a..*b).contains(&step))
            .map(|(_, _, m)| m)
            .product();
        let compute_end = t + STEP_S * slow_mult;
        let mut collective_start = compute_end;
        let mut backoff_attempts = 0u32;
        if let Some(outage_end) = nic_outage_until {
            if collective_start < outage_end {
                // Bounded exponential backoff until the outage passes.
                let mut attempt = 0u32;
                while collective_start < outage_end {
                    if attempt >= opts.max_retries {
                        return Err(TrainError::Unrecoverable(format!(
                            "collective at iteration {step} failed {attempt} retries; \
                             NIC outage outlasts the retry budget"
                        )));
                    }
                    collective_start += BACKOFF_BASE_S * f64::powi(2.0, attempt as i32);
                    attempt += 1;
                    collective_retries += 1;
                }
                backoff_attempts = attempt;
                nic_outage_until = None;
            }
        }
        t = collective_start + COLLECTIVE_S * nic_mult;

        // The step's causal tasks and metrics, on the simulated clock.
        flight.task("compute", step, ns(compute_end), compute_end - step_start);
        flight.task("collective", step, ns(t), t - compute_end);
        flight.metric("loss", step, ns(t), stats.loss);
        flight.span_close("iteration", step, ns(t), t - step_start);

        // Feed the anomaly detectors the same latencies the simulated
        // clock just charged. The straggler detector sees the synchronous
        // panel's per-worker step times (only the faulted worker carries
        // its window's slowdown); the slope detector sees the end-to-end
        // collective latency; the queue detector sees how deep the backoff
        // queue went on this iteration.
        let worker_latencies: Vec<f64> = (0..panel)
            .map(|w| {
                let m: f64 = slow_windows
                    .iter()
                    .filter(|(a, b, sw, _)| (*a..*b).contains(&step) && *sw == w)
                    .map(|(_, _, _, m)| m)
                    .product();
                STEP_S * m
            })
            .collect();
        for a in straggler_det.observe(step, &worker_latencies) {
            record(&mut detections, a);
        }
        if let Some(a) = slope_det.observe(step, t - compute_end) {
            record(&mut detections, a);
        }
        if let Some(a) = queue_det.observe(step, backoff_attempts as u64) {
            record(&mut detections, a);
        }

        step += 1;

        // Checkpoint cadence. The kind is derived purely from the step so
        // a post-restore re-write classifies identically to the first run.
        if let Some(store) = store {
            if opts.ckpt_every > 0 && step.is_multiple_of(opts.ckpt_every) {
                let ordinal = step / opts.ckpt_every;
                let kind = if (ordinal - 1).is_multiple_of(full_every) {
                    CheckpointKind::Full
                } else {
                    CheckpointKind::Incremental
                };
                let parent = match kind {
                    CheckpointKind::Full => None,
                    CheckpointKind::Incremental => Some(step - opts.ckpt_every),
                };
                let (bytes, shards) = write_checkpoint(store, &mut model, step, kind, parent)?;
                let duration_s = bytes as f64 / CKPT_WRITE_BPS;
                checkpoints.push(CkptRecord {
                    step,
                    kind,
                    bytes,
                    shards,
                    duration_s,
                    at_s: t,
                });
                flight.recovery("checkpoint", step, ns(t), duration_s);
                t += duration_s;
                if kind == CheckpointKind::Full {
                    store.gc(opts.keep_full).map_err(|e| unrec("gc", e))?;
                }
            }
        }
    }

    Ok(RecoveryRun {
        iterations: opts.iterations,
        final_digest: model.state_digest(),
        final_loss: last_loss,
        sim_time_s: t,
        recoveries,
        checkpoints,
        collective_retries,
        rejected_manifests,
        detections,
        flight: flight.stats(),
        flight_dump: flight.post_mortem(),
        post_mortems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_train::trainer::auc_datasets;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("picasso-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).expect("open temp store")
    }

    fn opts(ckpt_every: u64, plan: &str) -> RecoveryOptions {
        RecoveryOptions {
            iterations: 12,
            batch_size: 16,
            seed: 23,
            ckpt_every,
            full_every: 3,
            fault_plan: FaultPlan::parse(plan).expect("plan parses"),
            ..RecoveryOptions::default()
        }
    }

    #[test]
    fn crash_recover_matches_uninterrupted_run_bit_for_bit() {
        let data = auc_datasets::criteo_like();
        let baseline = run_recovery(&data, None, &opts(0, "seed=1")).expect("baseline");
        assert!(baseline.recoveries.is_empty());

        let store = temp_store("bitident");
        let faulty =
            run_recovery(&data, Some(&store), &opts(2, "seed=1;crash@7")).expect("faulty run");
        assert_eq!(faulty.recoveries.len(), 1);
        let rec = &faulty.recoveries[0];
        assert_eq!(rec.at_iter, 7);
        assert_eq!(
            rec.restored_step, 6,
            "crash@7 restores the step-6 checkpoint"
        );
        assert_eq!(rec.lost_iterations, 1);
        assert!(!rec.from_scratch);
        assert!(rec.time_to_recover_s > 0.0);
        assert_eq!(
            faulty.final_digest, baseline.final_digest,
            "recovered run must end in bit-identical model state"
        );
        assert!(faulty.sim_time_s > baseline.sim_time_s);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn crash_without_checkpoints_restarts_from_scratch_and_still_converges_identically() {
        let data = auc_datasets::criteo_like();
        let baseline = run_recovery(&data, None, &opts(0, "seed=2")).expect("baseline");
        let faulty = run_recovery(&data, None, &opts(0, "seed=2;crash@5")).expect("faulty");
        let rec = &faulty.recoveries[0];
        assert!(rec.from_scratch);
        assert_eq!(rec.restored_step, 0);
        assert_eq!(rec.lost_iterations, 5);
        assert_eq!(faulty.final_digest, baseline.final_digest);
    }

    #[test]
    fn repeated_crashes_each_fire_once() {
        let data = auc_datasets::criteo_like();
        let store = temp_store("twice");
        let run =
            run_recovery(&data, Some(&store), &opts(2, "seed=3;crash@4;crash@9")).expect("run");
        assert_eq!(run.recoveries.len(), 2);
        assert_eq!(run.recoveries[0].at_iter, 4);
        assert_eq!(run.recoveries[1].at_iter, 9);
        let clean = run_recovery(&data, None, &opts(0, "seed=3")).expect("clean");
        assert_eq!(run.final_digest, clean.final_digest);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn incremental_checkpoints_are_strictly_smaller_than_full_on_skewed_ids() {
        // Same training run twice: one all-full cadence, one delta-chained.
        // At every shared step the delta (rows touched since the previous
        // checkpoint) must be strictly smaller than the full (every
        // materialized row so far) — the Zipf stream keeps revisiting hot
        // ids without materializing many new ones.
        let data = auc_datasets::criteo_like();
        let full_store = temp_store("allfull");
        let mut all_full = opts(2, "seed=4");
        all_full.full_every = 1;
        let fulls = run_recovery(&data, Some(&full_store), &all_full).expect("full run");

        let delta_store = temp_store("deltachain");
        let mut chained = opts(2, "seed=4");
        chained.full_every = 1000;
        let deltas = run_recovery(&data, Some(&delta_store), &chained).expect("delta run");

        assert_eq!(fulls.final_digest, deltas.final_digest);
        let mut compared = 0;
        for (f, d) in fulls.checkpoints.iter().zip(&deltas.checkpoints) {
            assert_eq!(f.step, d.step);
            if d.kind != CheckpointKind::Incremental {
                continue;
            }
            assert!(
                d.bytes < f.bytes,
                "step {}: delta ({} B) must undercut the full ({} B)",
                d.step,
                d.bytes,
                f.bytes
            );
            compared += 1;
        }
        assert!(compared >= 4, "expected several delta/full pairs");
        let _ = std::fs::remove_dir_all(full_store.dir());
        let _ = std::fs::remove_dir_all(delta_store.dir());
    }

    #[test]
    fn nic_outage_exhausting_the_retry_budget_is_unrecoverable() {
        let data = auc_datasets::criteo_like();
        let mut o = opts(0, "seed=5;nic@3:p0:i40");
        o.max_retries = 2;
        let err = run_recovery(&data, None, &o).expect_err("outage must exhaust retries");
        assert!(matches!(err, TrainError::Unrecoverable(_)));
        assert!(err.to_string().contains("retry budget"));
    }

    #[test]
    fn nic_outage_within_the_retry_budget_is_absorbed_by_backoff() {
        let data = auc_datasets::criteo_like();
        let clean = run_recovery(&data, None, &opts(0, "seed=6")).expect("clean");
        let degraded = run_recovery(&data, None, &opts(0, "seed=6;nic@3:p0:i2")).expect("run");
        assert!(degraded.collective_retries > 0);
        assert!(degraded.sim_time_s > clean.sim_time_s);
        assert_eq!(degraded.final_digest, clean.final_digest);
    }

    #[test]
    fn stragglers_and_nic_degradation_stretch_time_without_changing_math() {
        let data = auc_datasets::criteo_like();
        let clean = run_recovery(&data, None, &opts(0, "seed=7")).expect("clean");
        let slow = run_recovery(
            &data,
            None,
            &opts(0, "seed=7;slow@2:w0:p50:i4;nic@6:p25:i2"),
        )
        .expect("slow");
        assert!(slow.sim_time_s > clean.sim_time_s);
        assert_eq!(slow.final_digest, clean.final_digest);
    }

    #[test]
    fn recovery_metrics_land_in_registry_report_and_trace() {
        let data = auc_datasets::criteo_like();
        let store = temp_store("obs");
        let run = run_recovery(&data, Some(&store), &opts(2, "seed=8;crash@5")).expect("run");

        let m = MetricsRegistry::new();
        run.export_metrics(&m);
        assert_eq!(m.counter_value("recovery_events_total", &[]), 1);
        assert_eq!(
            m.counter_value("recovery_lost_iterations_total", &[]),
            run.lost_iterations()
        );
        assert!(m.counter_value("ckpt_bytes_total", &[("kind", "full")]) > 0);

        let doc = run.to_json();
        assert!(doc.get("time_to_recover_s").is_some());
        assert_eq!(
            doc.get("lost_iterations").and_then(Json::as_u64),
            Some(run.lost_iterations())
        );
        assert_eq!(
            doc.get("ckpt_bytes").and_then(Json::as_u64),
            Some(run.ckpt_bytes())
        );

        let trace = run.chrome_trace().to_json();
        assert!(trace.contains("restore->"));
        assert!(trace.contains("crash@5"));
        assert!(trace.contains("ckpt@"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn lint_flags_faults_without_ckpt_and_oversized_intervals() {
        let o = opts(0, "seed=9;crash@3");
        let diags = lint_recovery(&o);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "run.fault-without-ckpt");
        assert_eq!(diags[0].span, Span::Run("fault-plan".into()));

        let o = opts(99, "seed=9");
        let diags = lint_recovery(&o);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "run.ckpt-beyond-horizon");

        assert!(lint_recovery(&opts(4, "seed=9;crash@3")).is_empty());
    }

    #[test]
    fn retention_never_breaks_the_chain_a_restore_needs() {
        let data = auc_datasets::criteo_like();
        let store = temp_store("gc");
        let mut o = opts(1, "seed=10;crash@11");
        o.keep_full = 1;
        let run = run_recovery(&data, Some(&store), &o).expect("run");
        // crash@11 restores the step-11 incremental whose chain bottoms at
        // the step-10 full — the one chain GC is obliged to keep.
        assert_eq!(run.recoveries[0].restored_step, 11);
        let clean = run_recovery(&data, None, &opts(0, "seed=10")).expect("clean");
        assert_eq!(run.final_digest, clean.final_digest);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fault_free_run_raises_no_anomalies() {
        let data = auc_datasets::criteo_like();
        let run = run_recovery(&data, None, &opts(0, "seed=20")).expect("clean");
        assert!(
            run.detections.is_empty(),
            "zero false positives on the fault-free run, got {:?}",
            run.detections
        );
    }

    #[test]
    fn seeded_straggler_fires_the_zscore_detector_on_the_right_worker() {
        let data = auc_datasets::criteo_like();
        let run = run_recovery(&data, None, &opts(0, "seed=21;slow@3:w1:p50")).expect("run");
        let hits: Vec<_> = run
            .detections
            .iter()
            .filter(|a| a.kind == AnomalyKind::Straggler)
            .collect();
        assert!(!hits.is_empty(), "slow@3 must trip the straggler detector");
        assert!(
            hits.iter().all(|a| a.worker == Some(1)),
            "every straggler detection must name worker 1: {hits:?}"
        );
        assert!(
            hits.iter().all(|a| (3..7).contains(&a.at_iter)),
            "detections must land inside the fault window: {hits:?}"
        );
        assert!(!run
            .detections
            .iter()
            .any(|a| a.kind != AnomalyKind::Straggler));
    }

    #[test]
    fn seeded_nic_degradation_fires_the_slope_detector() {
        let data = auc_datasets::criteo_like();
        let run = run_recovery(&data, None, &opts(0, "seed=22;nic@4:p25")).expect("run");
        let hits: Vec<_> = run
            .detections
            .iter()
            .filter(|a| a.kind == AnomalyKind::NicDegradation)
            .collect();
        assert!(!hits.is_empty(), "nic@4:p25 must trip the slope detector");
        assert!(
            hits.iter().all(|a| a.at_iter >= 4),
            "the slope can only trend up once the window opens: {hits:?}"
        );
        assert!(!run
            .detections
            .iter()
            .any(|a| a.kind == AnomalyKind::Straggler));
    }

    #[test]
    fn nic_outage_backoff_fires_the_queue_depth_detector() {
        let data = auc_datasets::criteo_like();
        // A two-iteration outage needs two exponential-backoff attempts
        // (0.05 s then 0.10 s) to clear, reaching the depth limit of 2.
        let run = run_recovery(&data, None, &opts(0, "seed=23;nic@5:p0:i2")).expect("run");
        assert!(
            run.detections
                .iter()
                .any(|a| a.kind == AnomalyKind::QueueRunaway),
            "a full outage's backoff queue must trip the depth detector: {:?}",
            run.detections
        );
    }

    #[test]
    fn crash_post_mortem_validates_and_ends_with_the_final_causal_task() {
        use picasso_obs::flight::{FlightCategory, FlightDump};
        let data = auc_datasets::criteo_like();
        let store = temp_store("postmortem");
        let run = run_recovery(&data, Some(&store), &opts(2, "seed=30;crash@7")).expect("run");

        assert_eq!(run.post_mortems.len(), 1, "one dump per detected crash");
        let dump = &run.post_mortems[0];
        // The artifact round-trips through serialization + checksum check.
        let text = dump.to_json().to_json();
        let back = FlightDump::from_text(&text).expect("post-mortem validates");
        assert_eq!(&back, dump);
        // Its last fault event is the crash itself...
        let fault = back.last_of(FlightCategory::Fault).expect("crash recorded");
        assert_eq!(fault.code, "crash");
        assert_eq!(fault.iter, 7);
        // ...preceded by the final causal task executed before the crash:
        // the collective that closed iteration 6.
        let task = back.last_of(FlightCategory::Task).expect("tasks recorded");
        assert_eq!(task.code, "collective");
        assert_eq!(task.iter, 6);

        // Deterministic: an identical run digests identically.
        let store2 = temp_store("postmortem2");
        let again = run_recovery(&data, Some(&store2), &opts(2, "seed=30;crash@7")).expect("run");
        assert_eq!(again.post_mortems[0].digest(), dump.digest());
        assert_eq!(again.flight_dump.digest(), run.flight_dump.digest());
        let _ = std::fs::remove_dir_all(store.dir());
        let _ = std::fs::remove_dir_all(store2.dir());
    }

    #[test]
    fn flight_recording_is_observation_only_and_overflow_lints() {
        let data = auc_datasets::criteo_like();
        let baseline = run_recovery(&data, None, &opts(0, "seed=31")).expect("baseline");
        assert!(lint_flight(&baseline.flight).is_empty(), "no overflow");

        // A two-event ring must overflow, fire the lint — and still leave
        // the training math bit-identical.
        let mut tiny = opts(0, "seed=31");
        tiny.flight = FlightConfig {
            capacity: 2,
            ..FlightConfig::default()
        };
        let cramped = run_recovery(&data, None, &tiny).expect("cramped");
        assert_eq!(cramped.final_digest, baseline.final_digest);
        assert_eq!(cramped.sim_time_s, baseline.sim_time_s);
        assert!(cramped.flight.overwritten > 0);
        let diags = lint_flight(&cramped.flight);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "run.flight-overflow");
        assert_eq!(diags[0].span, Span::Run("flight-recorder".into()));
    }

    #[test]
    fn flight_accounting_lands_in_report_and_metrics() {
        let data = auc_datasets::criteo_like();
        let store = temp_store("flightobs");
        let run = run_recovery(&data, Some(&store), &opts(2, "seed=32;crash@5")).expect("run");

        let doc = run.to_json();
        let flight = doc.get("flight").expect("flight section");
        assert!(flight.get("recorded").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            flight.get("overhead_ns").is_none(),
            "volatile overhead stays out of the report"
        );
        let dumps = doc.get("post_mortems").and_then(Json::items).unwrap();
        assert_eq!(dumps.len(), 1);
        assert!(dumps[0].get("checksum").is_some());

        let m = MetricsRegistry::new();
        run.export_metrics(&m);
        assert_eq!(m.counter_value("flight_post_mortems_total", &[]), 1);
        assert!(m.gauge_value("flight_occupancy", &[]).unwrap() > 0.0);
        assert!(m.counter_value("flight_events_seen_total", &[("category", "task")]) > 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn detection_is_observation_only_and_survives_crash_rewinds() {
        // Timing and model state must be bit-identical whether or not the
        // detectors fire, and a crash mid-window must not double-report
        // the replayed iterations.
        let data = auc_datasets::criteo_like();
        let plain = run_recovery(&data, None, &opts(0, "seed=24;slow@2:w0:p50")).expect("plain");
        let store = temp_store("detrewind");
        let crashed = run_recovery(
            &data,
            Some(&store),
            &opts(2, "seed=24;slow@2:w0:p50;crash@5"),
        )
        .expect("crashed");
        assert_eq!(plain.final_digest, crashed.final_digest);
        let mut keys: Vec<_> = crashed
            .detections
            .iter()
            .map(|a| (a.kind, a.worker, a.at_iter))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len(), "rewind must not duplicate detections");
        let json = crashed.to_json().to_json();
        assert!(json.contains("\"detections\""));
        assert!(json.contains("straggler"));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
