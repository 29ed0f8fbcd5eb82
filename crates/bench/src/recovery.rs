//! The crash-and-recover bench scenario.
//!
//! Runs one [`RecoveryScenario`] twice through the real trainer: once
//! uninterrupted (no store, no faults) and once under its fault plan with
//! checkpointing enabled. The two runs must finish in **bit-identical**
//! model state — dense parameters, optimizer accumulators, and embedding
//! rows — which is the end-to-end proof that checkpoint/restore plus the
//! deterministic batch-cursor rewind lose no information. The `recovery`
//! CI job runs this and uploads [`RecoveryOutcome::report_json`] as its
//! artifact.

use crate::scenarios::RecoveryScenario;
use picasso_core::ckpt::CheckpointStore;
use picasso_core::exec::{run_recovery, RecoveryRun};
use picasso_core::obs::flight::FlightDump;
use picasso_core::obs::json::Json;
use picasso_core::sim::FaultPlan;
use picasso_core::train::auc_datasets;
use picasso_core::{TextTable, TrainError};
use std::path::Path;

/// Schema identifier of the recovery report document.
pub const RECOVERY_REPORT_KIND: &str = "picasso.recovery_report";

/// Both halves of one crash-and-recover comparison.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The uninterrupted reference run (no store, no faults).
    pub baseline: RecoveryRun,
    /// The faulty run that checkpointed, crashed, and recovered.
    pub recovered: RecoveryRun,
}

impl RecoveryOutcome {
    /// Whether the recovered run ended in exactly the baseline's model
    /// state (the acceptance invariant).
    pub fn bit_identical(&self) -> bool {
        self.baseline.final_digest == self.recovered.final_digest
    }

    /// The JSON artifact the `recovery` CI job uploads.
    pub fn report_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(RECOVERY_REPORT_KIND)),
            ("scenario", Json::str(&self.scenario)),
            ("bit_identical", Json::Bool(self.bit_identical())),
            (
                "baseline",
                Json::obj([
                    (
                        "final_digest",
                        Json::str(format!("{:016x}", self.baseline.final_digest)),
                    ),
                    ("sim_time_s", Json::Num(self.baseline.sim_time_s)),
                ]),
            ),
            ("recovered", self.recovered.to_json()),
        ])
    }

    /// The post-mortem artifact `repro recover --flight-out` exports: the flight
    /// ring captured at the first crash when one fired, otherwise the
    /// end-of-run trailing window.
    pub fn post_mortem(&self) -> &FlightDump {
        self.recovered
            .post_mortems
            .first()
            .unwrap_or(&self.recovered.flight_dump)
    }

    /// Human-readable summary (printed by `repro recover`).
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("Crash-and-recover: {}", self.scenario),
            &["metric", "value"],
        );
        let row = |t: &mut TextTable, k: &str, v: String| t.row(vec![k.to_string(), v]);
        row(
            &mut t,
            "recoveries",
            self.recovered.recoveries.len().to_string(),
        );
        row(
            &mut t,
            "lost_iterations",
            self.recovered.lost_iterations().to_string(),
        );
        row(
            &mut t,
            "time_to_recover_s",
            format!("{:.3}", self.recovered.time_to_recover_s()),
        );
        row(
            &mut t,
            "checkpoints",
            self.recovered.checkpoints.len().to_string(),
        );
        row(
            &mut t,
            "ckpt_bytes",
            self.recovered.ckpt_bytes().to_string(),
        );
        row(
            &mut t,
            "sim_time_s (recovered)",
            format!("{:.3}", self.recovered.sim_time_s),
        );
        row(
            &mut t,
            "sim_time_s (baseline)",
            format!("{:.3}", self.baseline.sim_time_s),
        );
        row(
            &mut t,
            "final_digest (recovered)",
            format!("{:016x}", self.recovered.final_digest),
        );
        row(
            &mut t,
            "final_digest (baseline)",
            format!("{:016x}", self.baseline.final_digest),
        );
        row(
            &mut t,
            "bit_identical",
            if self.bit_identical() { "yes" } else { "NO" }.to_string(),
        );
        t
    }
}

/// Runs one recovery scenario: the faulty run against `ckpt_dir` (no
/// checkpointing when `None`) and the uninterrupted baseline with the same
/// seed and iteration count.
pub fn run_scenario(
    sc: &RecoveryScenario,
    ckpt_dir: Option<&Path>,
) -> Result<RecoveryOutcome, TrainError> {
    let data = auc_datasets::criteo_like();

    let mut base_opts = sc.opts.clone();
    base_opts.fault_plan = FaultPlan::none();
    base_opts.ckpt_every = 0;
    let baseline = run_recovery(&data, None, &base_opts)?;

    let store = match ckpt_dir {
        Some(dir) => Some(CheckpointStore::open(dir).map_err(|e| {
            TrainError::Unrecoverable(format!("checkpoint store {}: {e}", dir.display()))
        })?),
        None => None,
    };
    let recovered = run_recovery(&data, store.as_ref(), &sc.opts)?;

    Ok(RecoveryOutcome {
        scenario: sc.name.clone(),
        baseline,
        recovered,
    })
}
