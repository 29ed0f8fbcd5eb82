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
//! 2. the batch cursor is rewound by respawning the batch producer with a
//!    new seeded [`BatchGenerator`] skipped to the restored step
//!    ([`BatchGenerator::skip_batches`] steps past exactly the words the
//!    skipped batches draw), so every post-restore batch is identical;
//! 3. wall-clock effects (detection latency, restore time, retry backoff)
//!    live on a simulated clock that never feeds back into the math.
//!
//! The run is pipelined over three threads: a producer draws batches ahead
//! of the trainer, and a writer checksums and writes each checkpoint the
//! trainer encodes while training goes on. Nothing flows back to the
//! trainer but drawn batches and the writer's first error, and the trainer
//! waits for the writer (a drain) before it scans the store and before it
//! returns, so the outputs are those of one thread doing everything in
//! order.

use crate::trainer::TrainError;
use picasso_ckpt::{ChainLink, CheckpointKind, CheckpointStore, CheckpointWriter};
use picasso_data::{Batch, BatchGenerator, DatasetSpec};
use picasso_embedding::TableSnapshot;
use picasso_lint::{Diagnostic, Severity, Span};
use picasso_obs::checksum::splitmix64;
use picasso_obs::detect::{queue_runaway, stragglers, Anomaly, AnomalyKind, SlopeDetector};
use picasso_obs::flight::{FlightDump, FlightRecorder, FlightStats};
use picasso_obs::json::Json;
use picasso_obs::ChromeTrace;
use picasso_sim::{FaultKind, FaultPlan};
use picasso_train::{CtrModel, Variant};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, Scope, ScopedJoinHandle};

/// The CTR model variant a recovery run trains.
const VARIANT: Variant = Variant::Deep;
/// Learning rate of the trained model.
const LR: f32 = 0.05;
/// How long the heartbeat monitor waits before declaring a worker dead.
const HEARTBEAT_TIMEOUT_S: f64 = 0.25;
/// Bounded retry budget for failed collectives.
const MAX_RETRIES: u32 = 6;
/// Synchronous workers the anomaly detectors compare across. Only the
/// detection layer reads this; the training math is single-trainer.
const WORKERS: usize = 4;
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
/// Batches circulating between the producer thread and the trainer: one
/// trained on while the next is drawn.
const BATCHES: usize = 2;
/// Stack of the batch producer thread.
const PRODUCER_STACK: usize = 64 * 1024;
/// Stack of the checkpoint writer thread: file I/O and manifest rendering.
const WRITER_STACK: usize = 256 * 1024;

/// Configuration of one fault-tolerant training run.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Training iterations to run.
    pub iterations: u64,
    /// Instances per batch.
    pub batch_size: usize,
    /// Seed for the model init and the batch stream.
    pub seed: u64,
    /// Checkpoint every this many iterations; `0` disables checkpointing.
    pub ckpt_every: u64,
    /// Every `full_every`-th checkpoint is full; the rest are incremental
    /// deltas chained to the previous checkpoint.
    pub full_every: u64,
    /// How many full checkpoints retention keeps (chains included).
    pub keep_full: usize,
    /// The deterministic fault schedule.
    pub fault_plan: FaultPlan,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions {
            iterations: 20,
            batch_size: 32,
            seed: 17,
            ckpt_every: 0,
            full_every: 4,
            keep_full: 2,
            fault_plan: FaultPlan::none(),
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

/// One online anomaly detection and when it was raised.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// What fired, at which iteration, against which threshold.
    pub anomaly: Anomaly,
    /// Simulated time the detectors observed the iteration at: the end of
    /// its collective.
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
    pub detections: Vec<Detection>,
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

    /// Renders the run as a Chrome trace: checkpoint-write and restore
    /// spans plus crash instants.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let ns = |s: f64| (s * 1e9) as u64;
        // Only lanes that get events are declared (an empty one would still
        // take a tid), and each track is named at its first event.
        let lanes = [
            ("checkpoint", !self.checkpoints.is_empty()),
            ("recovery", !self.recoveries.is_empty()),
            ("anomaly", !self.detections.is_empty()),
        ];
        let mut trace = ChromeTrace::new(lanes.into_iter().filter(|l| l.1).map(|l| l.0));
        for c in &self.checkpoints {
            let track = trace.track("checkpoint");
            trace.complete(
                track,
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
            let track = trace.track("recovery");
            trace.instant(track, &format!("crash@{}", r.at_iter), ns(r.at_s));
            trace.complete(
                track,
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
        for d in &self.detections {
            let track = trace.track("anomaly");
            let a = &d.anomaly;
            trace.instant(track, &format!("{}@{}", a.kind, a.at_iter), ns(d.at_s));
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
                        .map(|Detection { anomaly: a, .. }| {
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
/// Emits three `run.*` rules from the registry: a fault plan that
/// schedules a crash while checkpointing is disabled, a checkpoint
/// interval longer than the run itself, and checkpointing whose retention
/// keeps fewer than two full checkpoints.
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
    // `CheckpointStore::gc` counts a full checkpoint by its manifest and
    // never reads its data: with one kept, a torn newest full would cost
    // the previous full and every chain that bottoms out in it.
    if opts.ckpt_every > 0 && opts.keep_full < 2 {
        out.push(
            Diagnostic::new(
                "run.ckpt-keep-one",
                Severity::Warn,
                Span::Run("keep-full".into()),
                format!(
                    "retention keeps {} full checkpoint(s); a torn newest full would leave \
                     no restorable chain",
                    opts.keep_full
                ),
            )
            .with_hint("keep at least two full checkpoints"),
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
            .with_hint(
                "the ring keeps only the newest events: read each post-mortem as the run's \
                 tail, or run fewer iterations",
            ),
        );
    }
    out
}

fn unrec(what: &str, e: impl std::fmt::Display) -> TrainError {
    TrainError::Unrecoverable(format!("{what}: {e}"))
}

/// The trainer's ends of a batch producer's two channels.
///
/// The producer thread owns the seeded [`BatchGenerator`] and refills, in
/// place, each batch the trainer hands back. [`BATCHES`] batches circulate,
/// and both channels have room for all of them, so no send blocks.
struct Batches<'scope> {
    full: Receiver<Batch>,
    free: SyncSender<Batch>,
    producer: ScopedJoinHandle<'scope, ()>,
}

impl<'scope> Batches<'scope> {
    /// Spawns a producer that draws the run's seeded stream from batch
    /// `step` on.
    fn spawn(
        scope: &'scope Scope<'scope, '_>,
        data: &Arc<DatasetSpec>,
        opts: &RecoveryOptions,
        step: u64,
    ) -> Batches<'scope> {
        let (full_tx, full) = mpsc::sync_channel(BATCHES);
        let (free, free_rx) = mpsc::sync_channel(BATCHES);
        // The generator and the batches are built here rather than on the
        // producer, so that their memory comes from the trainer's heap, not
        // from a heap of the producer's own that would stay resident after
        // the thread exits.
        let mut gen = BatchGenerator::new(Arc::clone(data), opts.seed);
        let size = opts.batch_size;
        for _ in 0..BATCHES {
            let _ = free.send(gen.empty_batch(size));
        }
        let producer = thread::Builder::new()
            .name("recovery-batches".into())
            .stack_size(PRODUCER_STACK)
            .spawn_scoped(scope, move || {
                gen.skip_batches(step as usize, size);
                for mut batch in free_rx {
                    gen.next_batch_into(size, &mut batch);
                    if full_tx.send(batch).is_err() {
                        break;
                    }
                }
            })
            .unwrap_or_else(|e| panic!("cannot spawn the batch producer thread: {e}"));
        Batches {
            full,
            free,
            producer,
        }
    }

    /// The next batch of the stream.
    fn next(&self) -> Batch {
        self.full
            .recv()
            .unwrap_or_else(|_| panic!("the batch producer thread exited early"))
    }

    /// Hands a spent batch back to be refilled.
    fn recycle(&self, batch: Batch) {
        let _ = self.free.send(batch);
    }

    /// Stops the producer, frees its batches and waits for it to exit,
    /// re-raising its panic if it had one.
    fn stop(self) {
        let Batches {
            full,
            free,
            producer,
        } = self;
        drop((free, full));
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// One request to the checkpoint writer thread, applied in order.
enum Submit {
    /// Opens the data file of the checkpoint at `step`.
    Begin {
        step: u64,
        kind: CheckpointKind,
        parent: Option<u64>,
    },
    /// Checksums and appends one encoded shard.
    Shard { name: String, bytes: Vec<u8> },
    /// Commits the open checkpoint, then collects garbage if `gc`.
    Commit { gc: bool },
    /// Answers with the first error so far, once everything before is done.
    Drain,
}

/// The trainer's ends of the checkpoint writer thread's channels.
///
/// The trainer encodes each shard and streams it through a one-slot
/// channel; the writer checksums, writes, commits and collects garbage in
/// submission order, and frees each shard once it is written. The trainer
/// may count on a checkpoint being in the store only after a barrier
/// ([`WriteBehind::drain`] or [`WriteBehind::finish`]).
struct WriteBehind<'s> {
    store: &'s CheckpointStore,
    submit: SyncSender<Submit>,
    drained: Receiver<Result<(), TrainError>>,
    writer: ScopedJoinHandle<'s, Result<(), TrainError>>,
}

impl<'s> WriteBehind<'s> {
    /// Spawns the writer thread for `store`; retention keeps `keep_full`.
    fn spawn(scope: &'s Scope<'s, '_>, store: &'s CheckpointStore, keep_full: usize) -> Self {
        let (submit, submit_rx) = mpsc::sync_channel(1);
        let (drained_tx, drained) = mpsc::sync_channel(1);
        let writer = thread::Builder::new()
            .name("recovery-ckpt".into())
            .stack_size(WRITER_STACK)
            .spawn_scoped(scope, move || {
                write_behind(store, keep_full, submit_rx, drained_tx)
            })
            .unwrap_or_else(|e| panic!("cannot spawn the checkpoint writer thread: {e}"));
        WriteBehind {
            store,
            submit,
            drained,
            writer,
        }
    }

    fn send(&self, submit: Submit) {
        if self.submit.send(submit).is_err() {
            panic!("the checkpoint writer thread exited early");
        }
    }

    /// Encodes one checkpoint of `model` at `step`, hands its shards to the
    /// writer and marks the tables clean. Each table shard is encoded
    /// straight from the table's arena: the bytes of
    /// `TableSnapshot::{full,dirty}(table).encode()`, with no snapshot
    /// built. Returns the shard bytes and count the manifest will record.
    fn checkpoint(
        &self,
        model: &mut CtrModel,
        step: u64,
        kind: CheckpointKind,
        parent: Option<u64>,
    ) -> Result<(u64, usize), TrainError> {
        self.send(Submit::Begin { step, kind, parent });
        let dense = model.dense_snapshot();
        let mut bytes = dense.len() as u64;
        let mut shards = 1;
        self.send(Submit::Shard {
            name: "dense".into(),
            bytes: dense,
        });
        for group in model.table_groups() {
            let table = model
                .table(group)
                .ok_or_else(|| unrec("checkpoint table shard", format!("no table {group}")))?;
            let payload = match kind {
                CheckpointKind::Full => TableSnapshot::encode_full(table),
                CheckpointKind::Incremental => TableSnapshot::encode_dirty(table),
            };
            bytes += payload.len() as u64;
            shards += 1;
            self.send(Submit::Shard {
                name: format!("table{group}"),
                bytes: payload,
            });
        }
        self.send(Submit::Commit {
            gc: kind == CheckpointKind::Full,
        });
        model.mark_tables_clean();
        Ok((bytes, shards))
    }

    /// The barrier: waits until everything submitted so far is committed,
    /// and returns the writer's first error.
    fn drain(&self) -> Result<(), TrainError> {
        self.send(Submit::Drain);
        self.drained
            .recv()
            .unwrap_or_else(|_| panic!("the checkpoint writer thread exited early"))
    }

    /// The last barrier: closes the writer's queue, waits for the thread to
    /// exit, and returns its first error (re-raising its panic).
    fn finish(self) -> Result<(), TrainError> {
        let WriteBehind { submit, writer, .. } = self;
        drop(submit);
        writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// The newest valid restore chain, scanned after a barrier, so that
    /// every checkpoint taken before the call can be found.
    #[allow(clippy::type_complexity)]
    fn latest_valid(&self) -> Result<Option<(Vec<ChainLink>, Vec<String>)>, TrainError> {
        self.drain()?;
        self.store
            .latest_valid()
            .map_err(|e| unrec("scan store", e))
    }
}

/// The checkpoint writer thread: applies every submission in order. After
/// the first error it applies nothing more, but still answers drains, so
/// the trainer never waits on it forever.
fn write_behind(
    store: &CheckpointStore,
    keep_full: usize,
    submits: Receiver<Submit>,
    drained: SyncSender<Result<(), TrainError>>,
) -> Result<(), TrainError> {
    let mut status = Ok(());
    let mut open: Option<CheckpointWriter<'_>> = None;
    for submit in submits {
        match submit {
            Submit::Drain => {
                let _ = drained.send(status.clone());
            }
            _ if status.is_err() => {}
            Submit::Begin { step, kind, parent } => match store.begin(step, kind, parent) {
                Ok(w) => open = Some(w),
                Err(e) => status = Err(unrec("checkpoint begin", e)),
            },
            Submit::Shard { name, bytes } => {
                if let Some(w) = open.as_mut() {
                    let what = if name == "dense" {
                        "checkpoint dense shard"
                    } else {
                        "checkpoint table shard"
                    };
                    status = w.add_shard(&name, &bytes).map_err(|e| unrec(what, e));
                }
            }
            Submit::Commit { gc } => {
                if let Some(w) = open.take() {
                    status = w
                        .commit()
                        .map(drop)
                        .map_err(|e| unrec("checkpoint commit", e));
                    if gc && status.is_ok() {
                        status = store.gc(keep_full).map(drop).map_err(|e| unrec("gc", e));
                    }
                }
            }
        }
    }
    status
}

/// Restores `model` from a validated restore `chain` (base first): the
/// table shards of every link in turn, then the dense shard of the last.
/// Each payload is decoded in place from its link's data file. Returns
/// shard bytes read; a shard that is missing, does not decode, or decodes
/// to another shape than the model's, is unrecoverable.
fn restore_model(model: &mut CtrModel, chain: &[ChainLink]) -> Result<u64, TrainError> {
    let mut bytes = 0u64;
    for (i, link) in chain.iter().enumerate() {
        for group in model.table_groups() {
            let payload = link
                .payload(&format!("table{group}"))
                .map_err(|e| unrec("restore table shard", e))?;
            bytes += payload.len() as u64;
            let snap =
                TableSnapshot::decode(payload).map_err(|e| unrec("decode table shard", e))?;
            let table = model
                .table_mut(group)
                .ok_or_else(|| unrec("restore table shard", format!("no table {group}")))?;
            if i == 0 {
                snap.restore_full(table)
            } else {
                snap.apply(table)
            }
            .map_err(|e| unrec("restore table shard", e))?;
        }
        if i + 1 == chain.len() {
            let dense = link
                .payload("dense")
                .map_err(|e| unrec("restore dense shard", e))?;
            bytes += dense.len() as u64;
            model
                .restore_dense(dense)
                .map_err(|e| unrec("decode dense shard", e))?;
        }
    }
    Ok(bytes)
}

/// Runs the fault-tolerant training loop.
///
/// With `store: None` checkpointing is disabled; a crash then restarts
/// training from scratch (iteration 0) with the identical seeded init, so
/// the run still finishes — it just loses all progress.
///
/// The run is a three-stage pipeline inside one thread scope: a producer
/// thread draws the batches, the calling thread trains and encodes each
/// checkpoint, and a writer thread writes it behind training. Outputs do
/// not depend on how the threads interleave: the caller drains the writer
/// before every store scan, before returning, and before returning an
/// error, so an error writing a checkpoint wins over any error met after
/// it.
///
/// Errors with [`TrainError::Unrecoverable`] when the checkpoint store is
/// unusable or a NIC outage outlasts the bounded retry budget, and before
/// the first step when the batch size is zero or a straggler event targets
/// a worker outside the detector panel.
///
/// # Panics
///
/// Panics if the operating system cannot spawn the producer or writer
/// thread.
pub fn run_recovery(
    data: &Arc<DatasetSpec>,
    store: Option<&CheckpointStore>,
    opts: &RecoveryOptions,
) -> Result<RecoveryRun, TrainError> {
    if opts.batch_size == 0 {
        return Err(TrainError::Unrecoverable(
            "batch size 0: a training step needs at least one instance".into(),
        ));
    }
    // The detector panel compares every synchronous worker; a straggler
    // event must target one of them.
    for e in &opts.fault_plan.events {
        if let FaultKind::Straggler {
            worker,
            factor_pct,
            iters,
        } = e.kind
        {
            if worker >= WORKERS {
                return Err(TrainError::Unrecoverable(format!(
                    "fault event 'slow@{}:w{worker}:p{factor_pct}:i{iters}' targets worker \
                     {worker}, but the run has {WORKERS} workers",
                    e.at_iter
                )));
            }
        }
    }
    thread::scope(|scope| {
        let ckpt = store.map(|store| WriteBehind::spawn(scope, store, opts.keep_full));
        let run = train(scope, data, opts, ckpt.as_ref());
        // The last barrier: every checkpoint is committed before the run
        // returns, and a write error wins over the trainer's later one.
        let written = ckpt.map_or(Ok(()), WriteBehind::finish);
        written.and(run)
    })
}

/// The trainer stage of [`run_recovery`], on the calling thread.
fn train<'scope>(
    scope: &'scope Scope<'scope, '_>,
    data: &Arc<DatasetSpec>,
    opts: &RecoveryOptions,
    ckpt: Option<&WriteBehind<'_>>,
) -> Result<RecoveryRun, TrainError> {
    let plan = &opts.fault_plan;
    let full_every = opts.full_every.max(1);
    let mut fired = vec![false; plan.events.len()];

    let mut batches = Batches::spawn(scope, data, opts, 0);
    let mut model = CtrModel::new(data, VARIANT, LR, opts.seed);
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
    let mut flight = FlightRecorder::default();
    let mut post_mortems: Vec<FlightDump> = Vec::new();
    let ns = |s: f64| (s * 1e9).round() as u64;

    // Online anomaly detection over the per-step metrics stream. Detectors
    // only *observe* the simulated latencies — nothing they produce feeds
    // back into timing or the model, so the run stays bit-identical with
    // detection on. Crash rewinds replay iterations, so detections dedup
    // on (kind, worker, iteration).
    let mut slope_det = SlopeDetector::new(0.5 * COLLECTIVE_S);
    let mut detections: Vec<Detection> = Vec::new();
    let mut seen_detections: std::collections::BTreeSet<(AnomalyKind, Option<usize>, u64)> =
        std::collections::BTreeSet::new();
    let mut record = |detections: &mut Vec<Detection>, anomaly: Anomaly, at_s: f64| {
        if seen_detections.insert((anomaly.kind, anomaly.worker, anomaly.at_iter)) {
            detections.push(Detection { anomaly, at_s });
        }
    };
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
            let mut ttr = HEARTBEAT_TIMEOUT_S + jitter_ms as f64 * 1e-3;
            let crashed_at = step;
            // Crash detection is the flight recorder's moment: record the
            // fault and freeze the trailing window — which still ends with
            // the last causal task executed before the crash — into a
            // checksummed post-mortem before the restore rewinds anything.
            flight.fault("crash", crashed_at, ns(t));
            post_mortems.push(flight.post_mortem());
            batches.stop();
            let mut restored_step = 0u64;
            let mut restored_bytes = 0u64;
            let mut from_scratch = true;
            model = CtrModel::new(data, VARIANT, LR, opts.seed);
            if let Some(ckpt) = ckpt {
                if let Some((chain, rejected)) = ckpt.latest_valid()? {
                    rejected_manifests.extend(rejected);
                    restored_step = chain.last().map_or(0, |link| link.manifest().step);
                    restored_bytes = restore_model(&mut model, &chain)?;
                    from_scratch = false;
                }
            }
            ttr += restored_bytes as f64 / RESTORE_BPS + RESTORE_LATENCY_S;
            // Rewind the deterministic batch cursor: a new producer draws
            // the stream from the restored step on.
            batches = Batches::spawn(scope, data, opts, restored_step);
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
        let batch = batches.next();
        let (stats, grads) = model.step(&batch, data);
        batches.recycle(batch);
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
                    if attempt >= MAX_RETRIES {
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
        let worker_latencies: Vec<f64> = (0..WORKERS)
            .map(|w| {
                let m: f64 = slow_windows
                    .iter()
                    .filter(|(a, b, sw, _)| (*a..*b).contains(&step) && *sw == w)
                    .map(|(_, _, _, m)| m)
                    .product();
                STEP_S * m
            })
            .collect();
        for a in stragglers(step, &worker_latencies) {
            record(&mut detections, a, t);
        }
        if let Some(a) = slope_det.observe(step, t - compute_end) {
            record(&mut detections, a, t);
        }
        if let Some(a) = queue_runaway(step, backoff_attempts as u64) {
            record(&mut detections, a, t);
        }

        step += 1;

        // Checkpoint cadence. The kind is derived purely from the step so
        // a post-restore re-write classifies identically to the first run.
        if let Some(ckpt) = ckpt {
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
                let (bytes, shards) = ckpt.checkpoint(&mut model, step, kind, parent)?;
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
            }
        }
    }

    batches.stop();
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
    fn a_table_shard_of_another_dim_is_unrecoverable_not_a_panic() {
        // A checksum-valid full checkpoint at step 4 whose dense shard fits
        // the model but whose table shards hold dim-4 rows.
        let data = auc_datasets::criteo_like();
        let o = opts(0, "seed=6;crash@6");
        let model = CtrModel::new(&data, VARIANT, LR, o.seed);
        let store = temp_store("wrongdim");
        let mut w = store.begin(4, CheckpointKind::Full, None).expect("begin");
        w.add_shard("dense", &model.dense_snapshot())
            .expect("dense");
        for group in model.table_groups() {
            let mut narrow = picasso_embedding::EmbeddingTable::new(4, group as u64);
            narrow.slot(1);
            w.add_shard(
                &format!("table{group}"),
                &TableSnapshot::full(&narrow).encode(),
            )
            .expect("table shard");
        }
        w.commit().expect("commit");
        let err = run_recovery(&data, Some(&store), &o).expect_err("wrong dim must not restore");
        let _ = std::fs::remove_dir_all(store.dir());
        match err {
            TrainError::Unrecoverable(msg) => {
                assert!(msg.contains("restore table shard"), "{msg}");
                assert!(msg.contains("dim 4"), "{msg}");
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
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
        // Six backoff attempts wait 0.05 * (2^6 - 1) = 3.15 s; a 60-iteration
        // outage lasts 3.6 s.
        let data = auc_datasets::criteo_like();
        let o = opts(0, "seed=5;nic@3:p0:i60");
        let err = run_recovery(&data, None, &o).expect_err("outage must exhaust retries");
        assert!(matches!(err, TrainError::Unrecoverable(_)));
        assert!(err.to_string().contains("retry budget"));
    }

    #[test]
    fn a_zero_batch_size_is_rejected_before_the_first_step() {
        let data = auc_datasets::criteo_like();
        let mut o = opts(0, "seed=5;crash@1");
        o.batch_size = 0;
        let err = run_recovery(&data, None, &o).expect_err("batch size 0");
        assert!(matches!(err, TrainError::Unrecoverable(_)), "{err}");
        assert!(err.to_string().contains("batch size 0"), "{err}");
    }

    #[test]
    fn a_straggler_outside_the_worker_panel_is_rejected_before_the_first_step() {
        let data = auc_datasets::criteo_like();
        for plan in [
            "seed=5;slow@1:w4:p50",
            "seed=5;slow@1:w4000000000:p50",
            "seed=5;slow@1:w18446744073709551615:p50",
        ] {
            let err = run_recovery(&data, None, &opts(0, plan)).expect_err(plan);
            assert!(matches!(err, TrainError::Unrecoverable(_)), "{plan}: {err}");
            let event = plan.trim_start_matches("seed=5;");
            assert!(err.to_string().contains(event), "{plan}: {err}");
        }
        // The last worker of the panel is still a valid target.
        run_recovery(&data, None, &opts(0, "seed=5;slow@1:w3:p50")).expect("in-panel straggler");
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
        assert_eq!(run.recoveries.len(), 1);
        assert!(run.ckpt_bytes() > 0);

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
    fn anomaly_instants_sit_between_the_checkpoints_around_their_iteration() {
        let data = auc_datasets::criteo_like();
        let store = temp_store("anomalyclock");
        let o = RecoveryOptions {
            iterations: 24,
            ..opts(4, "seed=5;slow@10:w1:p50:i4;crash@14")
        };
        let run = run_recovery(&data, Some(&store), &o).expect("run");
        let _ = std::fs::remove_dir_all(store.dir());
        let doc = picasso_obs::json::parse(&run.chrome_trace().to_json()).expect("trace parses");
        let at = |name: &str, prefix: &str| -> Option<u64> {
            let rest = name.strip_prefix(prefix)?;
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        // Each checkpoint step's first write, as (start, end) in µs.
        let mut ckpts: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
        let mut instants = Vec::new();
        for e in doc
            .get("traceEvents")
            .and_then(Json::items)
            .expect("events")
        {
            let name = e.get("name").and_then(Json::as_str).unwrap_or("");
            let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            match e.get("ph").and_then(Json::as_str) {
                Some("X") => {
                    if let Some(step) = at(name, "ckpt@") {
                        let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                        ckpts.entry(step).or_insert((ts, ts + dur));
                    }
                }
                Some("i") => {
                    if let Some(iter) = at(name, "straggler@") {
                        instants.push((name.to_string(), iter, ts));
                    }
                }
                _ => {}
            }
        }
        assert_eq!(instants.len(), 4, "slow@10 for 4 iterations: {instants:?}");
        for (name, iter, ts) in instants {
            // The checkpoint at step s is taken once iteration s - 1 ends.
            let (_, before_end) = ckpts.range(..=iter).next_back().expect("ckpt before").1;
            let (after_start, _) = ckpts.range(iter + 1..).next().expect("ckpt after").1;
            assert!(
                *before_end <= ts && ts <= *after_start,
                "{name} at {ts} µs lies outside [{before_end}, {after_start}]"
            );
        }
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
    fn lint_flags_retention_of_fewer_than_two_fulls() {
        for keep_full in [0, 1] {
            let o = RecoveryOptions {
                keep_full,
                ..opts(4, "seed=9;crash@3")
            };
            let diags = lint_recovery(&o);
            assert_eq!(diags.len(), 1, "keep_full {keep_full}");
            assert_eq!(diags[0].rule, "run.ckpt-keep-one");
            assert_eq!(diags[0].severity, Severity::Warn);
            assert_eq!(diags[0].span, Span::Run("keep-full".into()));
            assert!(picasso_lint::rules::rule(&diags[0].rule).is_some());
        }
        // Without checkpointing nothing is retained, so nothing to warn of.
        let o = RecoveryOptions {
            keep_full: 1,
            ..opts(0, "seed=9")
        };
        assert!(lint_recovery(&o).is_empty());
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
    fn an_unparseable_old_manifest_neither_stops_gc_nor_moves_the_run() {
        let data = auc_datasets::criteo_like();
        let baseline = run_recovery(&data, None, &opts(0, "seed=1")).expect("baseline");
        let store = temp_store("garbage");
        // Step 3 lies between the step-2 full and the step-4 incremental:
        // every gc after a full meets it, and the step-6 restore skips it.
        let garbage = store.dir().join("MANIFEST_3.json");
        std::fs::write(&garbage, "{\"kind\": \x00 not a manifest").expect("write garbage");
        let faulty =
            run_recovery(&data, Some(&store), &opts(2, "seed=1;crash@7")).expect("faulty run");
        assert_eq!(faulty.recoveries.len(), 1);
        assert_eq!(faulty.recoveries[0].restored_step, 6);
        assert_eq!(faulty.final_digest, baseline.final_digest);
        assert_eq!(faulty.final_loss.to_bits(), baseline.final_loss.to_bits());
        assert!(
            garbage.exists(),
            "gc leaves the unreadable manifest on disk"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_directory_in_the_store_neither_stops_gc_nor_moves_the_run() {
        let data = auc_datasets::criteo_like();
        let baseline = run_recovery(&data, None, &opts(0, "seed=1")).expect("baseline");
        let store = temp_store("archive");
        let archive = store.dir().join("ckpt-archive");
        std::fs::create_dir(&archive).expect("create archive dir");
        std::fs::write(archive.join("old.bin"), b"kept").expect("write into archive");
        let faulty =
            run_recovery(&data, Some(&store), &opts(2, "seed=1;crash@7")).expect("faulty run");
        assert_eq!(faulty.recoveries[0].restored_step, 6);
        assert_eq!(faulty.final_digest, baseline.final_digest);
        assert!(archive.join("old.bin").exists(), "gc leaves the directory");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Runs `o` against a store whose first checkpoint (step 4) cannot
    /// begin, because a directory squats on its temporary data file. The
    /// run goes on a thread of its own, so that a run which never returns
    /// fails the test instead of hanging it.
    fn run_with_unwritable_step_4(tag: &str, o: &RecoveryOptions) -> TrainError {
        let store = temp_store(tag);
        std::fs::create_dir(store.dir().join("ckpt-00000004.bin.tmp")).expect("squat");
        let dir = store.dir().to_path_buf();
        let o = o.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let data = auc_datasets::criteo_like();
            let _ = tx.send(run_recovery(&data, Some(&store), &o));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the run returns");
        runner.join().expect("the run does not panic");
        let _ = std::fs::remove_dir_all(dir);
        result.expect_err("step 4 cannot be written")
    }

    #[test]
    fn an_unwritable_checkpoint_wins_over_what_the_run_meets_later() {
        let plans = [
            ("begin-clean", opts(4, "seed=5")),
            ("begin-crash", opts(4, "seed=5;crash@6")),
            ("begin-outage", opts(4, "seed=5;nic@5:p0:i60")),
        ];
        for (tag, o) in plans {
            match run_with_unwritable_step_4(tag, &o) {
                TrainError::Unrecoverable(msg) => {
                    assert!(msg.starts_with("checkpoint begin: "), "{tag}: {msg}");
                    assert!(msg.contains("ckpt-00000004.bin.tmp"), "{tag}: {msg}");
                }
                other => panic!("{tag}: expected Unrecoverable, got {other:?}"),
            }
        }
    }

    fn anomalies(run: &RecoveryRun) -> impl Iterator<Item = &Anomaly> {
        run.detections.iter().map(|d| &d.anomaly)
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
        let hits: Vec<_> = anomalies(&run)
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
        assert!(!anomalies(&run).any(|a| a.kind != AnomalyKind::Straggler));
    }

    #[test]
    fn seeded_nic_degradation_fires_the_slope_detector() {
        let data = auc_datasets::criteo_like();
        let run = run_recovery(&data, None, &opts(0, "seed=22;nic@4:p25")).expect("run");
        let hits: Vec<_> = anomalies(&run)
            .filter(|a| a.kind == AnomalyKind::NicDegradation)
            .collect();
        assert!(!hits.is_empty(), "nic@4:p25 must trip the slope detector");
        assert!(
            hits.iter().all(|a| a.at_iter >= 4),
            "the slope can only trend up once the window opens: {hits:?}"
        );
        assert!(!anomalies(&run).any(|a| a.kind == AnomalyKind::Straggler));
    }

    #[test]
    fn nic_outage_backoff_fires_the_queue_depth_detector() {
        let data = auc_datasets::criteo_like();
        // A two-iteration outage needs two exponential-backoff attempts
        // (0.05 s then 0.10 s) to clear, reaching the depth limit of 2.
        let run = run_recovery(&data, None, &opts(0, "seed=23;nic@5:p0:i2")).expect("run");
        assert!(
            anomalies(&run).any(|a| a.kind == AnomalyKind::QueueRunaway),
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

        // Five events an iteration: 110 iterations wrap the 512-event ring,
        // which must fire the lint and still leave the training math and
        // the clock those of plain training.
        let long = RecoveryOptions {
            iterations: 110,
            ..opts(0, "seed=31")
        };
        let wrapped = run_recovery(&data, None, &long).expect("wrapped");
        let mut model = CtrModel::new(&data, VARIANT, LR, long.seed);
        let mut gen = BatchGenerator::new(Arc::clone(&data), long.seed);
        let mut t = 0.0;
        for _ in 0..long.iterations {
            let (_, grads) = model.step(&gen.next_batch(long.batch_size), &data);
            model.apply(&grads);
            t = t + STEP_S + COLLECTIVE_S;
        }
        assert_eq!(wrapped.final_digest, model.state_digest());
        assert_eq!(wrapped.sim_time_s, t);
        assert!(wrapped.flight.overwritten > 0);
        let diags = lint_flight(&wrapped.flight);
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
        let mut keys: Vec<_> = anomalies(&crashed)
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
