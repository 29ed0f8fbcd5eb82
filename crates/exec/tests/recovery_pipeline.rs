//! Recovery pipeline oracle.
//!
//! `run_recovery` draws batches on a producer thread and writes checkpoints
//! on a writer thread behind training. Its outputs must not depend on how
//! those threads interleave with the trainer. The reference here is the
//! loop it replaced, on one thread, built from the public API only: draw
//! the batch, train, encode, checksum and write the checkpoint, commit, and
//! collect garbage, each in turn. On random run shapes with zero to three
//! crashes (some right after a checkpoint is taken, where a restore finds
//! that checkpoint only if it is committed by then), both must leave
//! byte-identical store files and report the same checkpoints, recoveries,
//! rejected manifests, final digest and final loss bits.
//!
//! CI runs it with `PROPTEST_CASES=1024`.

use picasso_ckpt::{ChainLink, CheckpointKind, CheckpointStore};
use picasso_data::{BatchGenerator, DatasetSpec};
use picasso_embedding::TableSnapshot;
use picasso_exec::recovery::{run_recovery, CkptRecord, RecoveryEvent, RecoveryOptions};
use picasso_obs::checksum::splitmix64;
use picasso_sim::FaultPlan;
use picasso_train::{auc_datasets, CtrModel, Variant};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// `run_recovery`'s model and simulated-clock constants.
const VARIANT: Variant = Variant::Deep;
const LR: f32 = 0.05;
const HEARTBEAT_TIMEOUT_S: f64 = 0.25;
const STEP_S: f64 = 0.05;
const COLLECTIVE_S: f64 = 0.01;
const CKPT_WRITE_BPS: f64 = 2e9;
const RESTORE_BPS: f64 = 4e9;
const RESTORE_LATENCY_S: f64 = 0.005;

/// What the oracle compares of a run.
#[derive(Debug, PartialEq)]
struct Outcome {
    checkpoints: Vec<CkptRecord>,
    recoveries: Vec<RecoveryEvent>,
    rejected_manifests: Vec<String>,
    digest: u64,
    loss_bits: u64,
    sim_time_bits: u64,
}

/// Restores `model` from a restore chain, base first.
fn restore(model: &mut CtrModel, chain: &[ChainLink]) -> u64 {
    let mut bytes = 0;
    for (i, link) in chain.iter().enumerate() {
        for group in model.table_groups() {
            let payload = link.payload(&format!("table{group}")).expect("table shard");
            bytes += payload.len() as u64;
            let snap = TableSnapshot::decode(payload).expect("decodes");
            let table = model.table_mut(group).expect("table");
            if i == 0 {
                snap.restore_full(table).expect("same dim");
            } else {
                snap.apply(table).expect("same dim");
            }
        }
        if i + 1 == chain.len() {
            let dense = link.payload("dense").expect("dense shard");
            bytes += dense.len() as u64;
            model.restore_dense(dense).expect("dense decodes");
        }
    }
    bytes
}

/// The serial recovery loop for plans of crashes only: every stage of an
/// iteration runs to completion on this thread before the next begins.
fn serial_run(data: &Arc<DatasetSpec>, store: &CheckpointStore, o: &RecoveryOptions) -> Outcome {
    let plan = &o.fault_plan;
    let full_every = o.full_every.max(1);
    let mut fired = vec![false; plan.events.len()];
    let mut model = CtrModel::new(data, VARIANT, LR, o.seed);
    let mut gen = BatchGenerator::new(Arc::clone(data), o.seed);
    let (mut step, mut t, mut loss) = (0u64, 0.0f64, f64::NAN);
    let mut checkpoints = Vec::new();
    let mut recoveries = Vec::new();
    let mut rejected_manifests = Vec::new();
    while step < o.iterations {
        let mut crashed = false;
        for (i, event) in plan.events.iter().enumerate() {
            if !fired[i] && event.at_iter == step {
                fired[i] = true;
                crashed = true;
            }
        }
        if crashed {
            let jitter_ms = splitmix64(plan.seed ^ step) % 100;
            let mut ttr = HEARTBEAT_TIMEOUT_S + jitter_ms as f64 * 1e-3;
            let crashed_at = step;
            model = CtrModel::new(data, VARIANT, LR, o.seed);
            let (mut restored_step, mut restored_bytes, mut from_scratch) = (0, 0, true);
            if let Some((chain, rejected)) = store.latest_valid().expect("scan store") {
                rejected_manifests.extend(rejected);
                restored_step = chain.last().map_or(0, |link| link.manifest().step);
                restored_bytes = restore(&mut model, &chain);
                from_scratch = false;
            }
            ttr += restored_bytes as f64 / RESTORE_BPS + RESTORE_LATENCY_S;
            gen = BatchGenerator::new(Arc::clone(data), o.seed);
            gen.skip_batches(restored_step as usize, o.batch_size);
            step = restored_step;
            t += ttr;
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
        let batch = gen.next_batch(o.batch_size);
        let (stats, grads) = model.step(&batch, data);
        model.apply(&grads);
        loss = stats.loss;
        t = t + STEP_S + COLLECTIVE_S;
        step += 1;
        if step.is_multiple_of(o.ckpt_every) {
            let ordinal = step / o.ckpt_every;
            let (kind, parent) = if (ordinal - 1).is_multiple_of(full_every) {
                (CheckpointKind::Full, None)
            } else {
                (CheckpointKind::Incremental, Some(step - o.ckpt_every))
            };
            let mut w = store.begin(step, kind, parent).expect("begin");
            w.add_shard("dense", &model.dense_snapshot())
                .expect("dense shard");
            for group in model.table_groups() {
                let table = model.table(group).expect("table");
                let bytes = match kind {
                    CheckpointKind::Full => TableSnapshot::encode_full(table),
                    CheckpointKind::Incremental => TableSnapshot::encode_dirty(table),
                };
                w.add_shard(&format!("table{group}"), &bytes)
                    .expect("table shard");
            }
            let summary = w.commit().expect("commit");
            model.mark_tables_clean();
            let duration_s = summary.bytes as f64 / CKPT_WRITE_BPS;
            checkpoints.push(CkptRecord {
                step,
                kind,
                bytes: summary.bytes,
                shards: summary.shards,
                duration_s,
                at_s: t,
            });
            t += duration_s;
            if kind == CheckpointKind::Full {
                store.gc(o.keep_full).expect("gc");
            }
        }
    }
    Outcome {
        checkpoints,
        recoveries,
        rejected_manifests,
        digest: model.state_digest(),
        loss_bits: loss.to_bits(),
        sim_time_bits: t.to_bits(),
    }
}

/// Every file in `dir` with its bytes, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read store file"))
        })
        .collect();
    out.sort();
    out
}

/// A fresh, empty store directory of its own.
fn fresh_dir(side: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "picasso-recovery-pipeline-{}-{}-{side}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run shape: iterations, batch size, checkpoint interval, full
/// interval, fulls kept, seed, and crash points. A crash point
/// `(true, k)` lands on a checkpoint step, `(false, k)` anywhere.
fn case_strategy() -> impl Strategy<Value = (RecoveryOptions, String)> {
    (
        (1u64..25, 1usize..25, 1u64..7, 1u64..5),
        (2usize..4, 0u64..u64::MAX),
        proptest::collection::vec((proptest::bool::ANY, 0u64..1_000), 0..4),
    )
        .prop_map(
            |((iterations, batch_size, ckpt_every, full_every), (keep_full, seed), crashes)| {
                let mut at: Vec<u64> = crashes
                    .into_iter()
                    .map(|(on_ckpt, k)| {
                        let ckpts = iterations / ckpt_every;
                        if on_ckpt && ckpts > 0 {
                            ckpt_every * (1 + k % ckpts)
                        } else {
                            k % iterations
                        }
                    })
                    .collect();
                at.sort_unstable();
                at.dedup();
                let mut plan = format!("seed={}", seed % 1_000);
                for a in &at {
                    plan += &format!(";crash@{a}");
                }
                let o = RecoveryOptions {
                    iterations,
                    batch_size,
                    seed,
                    ckpt_every,
                    full_every,
                    keep_full,
                    fault_plan: FaultPlan::parse(&plan).expect("plan parses"),
                };
                (o, plan)
            },
        )
}

proptest! {
    #[test]
    fn the_pipeline_matches_the_serial_loop(case in case_strategy()) {
        let (o, plan) = case;
        let data = auc_datasets::criteo_like();
        let (serial_dir, piped_dir) = (fresh_dir("serial"), fresh_dir("piped"));
        let serial_store = CheckpointStore::open(&serial_dir).expect("open store");
        let piped_store = CheckpointStore::open(&piped_dir).expect("open store");
        let want = serial_run(&data, &serial_store, &o);
        let run = run_recovery(&data, Some(&piped_store), &o).expect("pipelined run");
        let got = Outcome {
            checkpoints: run.checkpoints,
            recoveries: run.recoveries,
            rejected_manifests: run.rejected_manifests,
            digest: run.final_digest,
            loss_bits: run.final_loss.to_bits(),
            sim_time_bits: run.sim_time_s.to_bits(),
        };
        let (want_files, got_files) = (files(&serial_dir), files(&piped_dir));
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&piped_dir);
        prop_assert_eq!(&got, &want, "{:?} under {}", o, plan);
        let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        prop_assert_eq!(names(&got_files), names(&want_files), "{}", plan);
        for (g, w) in got_files.iter().zip(&want_files) {
            prop_assert!(g.1 == w.1, "{} differs under {}", g.0, plan);
        }
    }
}
