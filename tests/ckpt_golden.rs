//! Golden bytes of the checkpoint files a crash-and-recover run leaves.
//!
//! Runs the registered `crash_recover` scenario (`crash@13`, a checkpoint
//! every 4 iterations, every 2nd one full, two fulls retained) at batch 64
//! against a fresh store, then pins the FNV-1a of every file left in the
//! store (a manifest and a data file per kept checkpoint), the run's total
//! checkpoint bytes, its final model digest and the bits of its time to
//! recover. A change to the checkpoint capture that moves a single byte of
//! a shard — row order, dirty-set membership, the dense encoding — or to
//! the store's format or GC moves one of these pins.

use picasso::ckpt::CheckpointStore;
use picasso::exec::{run_recovery, RecoveryOptions, RecoveryRun};
use picasso::obs::checksum::fnv1a64;
use picasso::sim::FaultPlan;
use picasso::train::auc_datasets;

/// `(file name, FNV-1a of its bytes)` for every file in `dir`, by name.
fn file_digests(dir: &std::path::Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&path).expect("read store file");
            (name, format!("{:016x}", fnv1a64(&bytes)))
        })
        .collect();
    out.sort();
    out
}

/// Runs the `crash_recover` configuration at batch 64 under `plan`
/// against a fresh store, returning the run and the store's file digests.
fn pinned_run(tag: &str, plan: &str) -> (RecoveryRun, Vec<(String, String)>) {
    let dir =
        std::env::temp_dir().join(format!("picasso-ckpt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open temp store");
    let opts = RecoveryOptions {
        iterations: 24,
        batch_size: 64,
        seed: 41,
        ckpt_every: 4,
        full_every: 2,
        keep_full: 2,
        fault_plan: FaultPlan::parse(plan).expect("plan parses"),
    };
    let run = run_recovery(&auc_datasets::criteo_like(), Some(&store), &opts).expect("run");
    let files = file_digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (run, files)
}

#[test]
fn crash_recover_checkpoint_files_are_pinned() {
    let (run, files) = pinned_run("one", "seed=41;crash@13");
    assert_eq!(run.recoveries.len(), 1, "one crash, one restore");
    let got: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_str()))
        .collect();
    let want: &[(&str, &str)] = &[
        ("MANIFEST_12.json", "43312bd4498a605f"),
        ("MANIFEST_16.json", "c877f2bf38d0b4be"),
        ("MANIFEST_20.json", "b3ea6c9b141f978f"),
        ("MANIFEST_24.json", "e88984aca8604e8f"),
        ("ckpt-00000012.bin", "966d899742abdd0c"),
        ("ckpt-00000016.bin", "93e51800125dd9a4"),
        ("ckpt-00000020.bin", "bdadb826aef4a98a"),
        ("ckpt-00000024.bin", "df92f37dd27f7774"),
    ];
    assert_eq!(got, want, "store files and their FNV-1a");
    assert_eq!(run.ckpt_bytes(), 588_960, "ckpt_bytes");
    assert_eq!(run.final_digest, 0x2a9c_e9ce_9aa9_1603, "final digest");
    assert_eq!(
        run.time_to_recover_s().to_bits(),
        0x3fd4_ddbb_9688_5bf4,
        "time_to_recover_s bits (0.326033494 s)"
    );
}

/// `crash@12` fires right after the step-12 checkpoint is taken, so its
/// restore finds that checkpoint only if it is committed by then; the
/// second crash then restores the step-16 incremental on top of it.
#[test]
fn two_crashes_restore_the_checkpoint_just_taken_and_then_a_delta() {
    let (run, files) = pinned_run("two", "seed=41;crash@12;crash@19");
    let restores: Vec<(u64, u64, u64)> = run
        .recoveries
        .iter()
        .map(|r| (r.at_iter, r.restored_step, r.lost_iterations))
        .collect();
    assert_eq!(
        restores,
        [(12, 12, 0), (19, 16, 3)],
        "(crash, restored, lost)"
    );
    let got: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_str()))
        .collect();
    let want: &[(&str, &str)] = &[
        ("MANIFEST_12.json", "43312bd4498a605f"),
        ("MANIFEST_16.json", "c877f2bf38d0b4be"),
        ("MANIFEST_20.json", "b3ea6c9b141f978f"),
        ("MANIFEST_24.json", "e88984aca8604e8f"),
        ("ckpt-00000012.bin", "966d899742abdd0c"),
        ("ckpt-00000016.bin", "93e51800125dd9a4"),
        ("ckpt-00000020.bin", "bdadb826aef4a98a"),
        ("ckpt-00000024.bin", "df92f37dd27f7774"),
    ];
    assert_eq!(got, want, "store files and their FNV-1a");
    assert_eq!(run.ckpt_bytes(), 588_960, "ckpt_bytes");
    assert_eq!(run.final_digest, 0x2a9c_e9ce_9aa9_1603, "final digest");
    assert_eq!(
        run.final_loss.to_bits(),
        0x3fe6_7a5e_700d_48cb,
        "final loss bits"
    );
    assert_eq!(
        run.time_to_recover_s().to_bits(),
        0x3fe3_cf7f_849a_83fb,
        "time_to_recover_s bits (0.61907936 s)"
    );
}
