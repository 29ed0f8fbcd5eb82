//! The `ckpt_recover` workload: the registered `crash_recover` run,
//! lengthened, against a fresh checkpoint store per op.
//!
//! One op trains the uninterrupted baseline (no store, no faults) and then
//! the faulty run, which checkpoints, crashes, restores the latest valid
//! checkpoint chain and finishes. It is the only workload that exercises
//! `train`, `ckpt` and `exec::recovery`. The store lives in a directory
//! under the working directory; it is emptied after every op, outside the
//! op's timed window, and removed when the workload ends.

use crate::trace::Tracer;
use crate::{Sim, Workload};
use picasso_bench::scenarios::recovery_scenarios;
use picasso_core::ckpt::CheckpointStore;
use picasso_core::data::DatasetSpec;
use picasso_core::exec::{run_recovery, RecoveryOptions, RecoveryRun};
use picasso_core::sim::FaultPlan;
use picasso_core::train::auc_datasets;
use std::path::PathBuf;
use std::sync::Arc;

/// Training iterations per run: twice the registered 24.
const ITERATIONS: u64 = 48;
/// Instances per batch: 16x the registered 16, so training rather than the
/// store's file operations takes most of the op.
const BATCH: usize = 256;
/// The store's directory, relative to the working directory.
const STORE_DIR: &str = ".hostbench-ckpt";

/// Digests of an op's outputs that a repeat must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reference {
    digest: u64,
    loss_bits: u64,
    ttr_bits: u64,
    bytes: u64,
    checkpoints: usize,
}

/// Crash-and-recover state.
pub struct Recovery {
    data: Arc<DatasetSpec>,
    base: RecoveryOptions,
    faulty: RecoveryOptions,
    dir: PathBuf,
    store: CheckpointStore,
    reference: Option<Reference>,
    last: Option<(RecoveryRun, RecoveryRun)>,
}

fn fresh_store(dir: &PathBuf) -> Result<CheckpointStore, String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
    }
    CheckpointStore::open(dir.clone()).map_err(|e| e.to_string())
}

impl Recovery {
    /// The registered scenario with the workload's seed, lengthened, and
    /// an empty store.
    pub fn new(seed: u64) -> Result<Recovery, String> {
        let sc = recovery_scenarios()
            .into_iter()
            .find(|s| s.name == "crash_recover")
            .ok_or("recovery suite lacks crash_recover")?;
        let plan = format!("seed={seed};crash@13");
        let faulty = RecoveryOptions {
            iterations: ITERATIONS,
            batch_size: BATCH,
            seed,
            fault_plan: FaultPlan::parse(&plan).map_err(|e| format!("{plan}: {e}"))?,
            ..sc.opts
        };
        let base = RecoveryOptions {
            fault_plan: FaultPlan::none(),
            ckpt_every: 0,
            ..faulty.clone()
        };
        let dir = PathBuf::from(STORE_DIR);
        Ok(Recovery {
            data: auc_datasets::criteo_like(),
            base,
            faulty,
            store: fresh_store(&dir)?,
            dir,
            reference: None,
            last: None,
        })
    }
}

impl Drop for Recovery {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Recovery {
    fn cycle(&self) -> usize {
        1
    }

    fn name(&self, _i: usize) -> String {
        "crash_recover".into()
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let base = tr
            .layer("train.baseline.ms", || {
                run_recovery(&self.data, None, &self.base)
            })
            .map_err(|e| format!("baseline run: {e}"))?;
        let run = tr
            .layer("exec.recovery.ms", || {
                run_recovery(&self.data, Some(&self.store), &self.faulty)
            })
            .map_err(|e| format!("faulty run: {e}"))?;
        self.last = Some((base, run));
        Ok(())
    }

    fn check(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (base, run) = self.last.take().ok_or("op left no output")?;
        if run.final_digest != base.final_digest {
            return Err(format!(
                "recovered digest {:016x} != uninterrupted {:016x}",
                run.final_digest, base.final_digest
            ));
        }
        if run.recoveries.len() != 1 {
            return Err(format!("{} recoveries, expected 1", run.recoveries.len()));
        }
        let got = Reference {
            digest: run.final_digest,
            loss_bits: run.final_loss.to_bits(),
            ttr_bits: run.time_to_recover_s().to_bits(),
            bytes: run.ckpt_bytes(),
            checkpoints: run.checkpoints.len(),
        };
        match self.reference {
            None => self.reference = Some(got),
            Some(want) if want != got => {
                return Err(format!(
                    "repeat differs from the first run: {got:?} vs {want:?}"
                ))
            }
            Some(_) => {}
        }
        if tr.on() {
            let (latest, validate_ms) = tr.probe(|| self.store.latest_valid());
            match latest {
                Ok(Some(_)) => {}
                Ok(None) => return Err("store holds no valid checkpoint".into()),
                Err(e) => return Err(format!("latest_valid: {e}")),
            }
            tr.detail("ckpt.validate.ms", validate_ms);
            tr.detail("ckpt.bytes", got.bytes as f64);
            tr.detail("ckpt.checkpoints", got.checkpoints as f64);
            tr.detail("train.lost_iterations", run.lost_iterations() as f64);
            tr.detail("train.collective_retries", run.collective_retries as f64);
        }
        self.store = fresh_store(&self.dir)?;
        Ok(())
    }

    fn sim(&self) -> Sim {
        let r = self.reference;
        Sim {
            time_to_recover_s: r.map(|r| f64::from_bits(r.ttr_bits)),
            train_loss: r.map(|r| f64::from_bits(r.loss_bits)),
            ..Sim::default()
        }
    }
}
