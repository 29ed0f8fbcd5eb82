//! Golden bytes of the checkpoint files a crash-and-recover run leaves.
//!
//! Runs the registered `crash_recover` scenario (`crash@13`, a checkpoint
//! every 4 iterations, every 2nd one full, two fulls retained) at batch 64
//! against a fresh store, then pins the FNV-1a of every manifest and shard
//! file left in the store, the run's total checkpoint bytes, its final
//! model digest and the bits of its time to recover. A change to the
//! checkpoint capture that moves a single byte of a shard — row order,
//! dirty-set membership, the dense encoding — or to the store's GC moves
//! one of these pins.

use picasso::ckpt::CheckpointStore;
use picasso::exec::{run_recovery, RecoveryOptions};
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

#[test]
fn crash_recover_checkpoint_files_are_pinned() {
    let dir = std::env::temp_dir().join(format!("picasso-ckpt-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open temp store");
    let opts = RecoveryOptions {
        iterations: 24,
        batch_size: 64,
        seed: 41,
        ckpt_every: 4,
        full_every: 2,
        keep_full: 2,
        fault_plan: FaultPlan::parse("seed=41;crash@13").expect("plan parses"),
        ..RecoveryOptions::default()
    };
    let run = run_recovery(&auc_datasets::criteo_like(), Some(&store), &opts).expect("run");
    let files = file_digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(run.recoveries.len(), 1, "one crash, one restore");
    let got: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_str()))
        .collect();
    let want: &[(&str, &str)] = &[
        ("MANIFEST_12.json", "343d9a1d564eb1a9"),
        ("MANIFEST_16.json", "f5fb00abedc67e40"),
        ("MANIFEST_20.json", "f1f9014e51bdd7af"),
        ("MANIFEST_24.json", "1ffa7994a142d9aa"),
        ("ckpt-00000012-dense.bin", "ce326ff7d3623df3"),
        ("ckpt-00000012-table0.bin", "f7a557d169356cc8"),
        ("ckpt-00000012-table1.bin", "94b761861c674ac1"),
        ("ckpt-00000012-table2.bin", "2ed3489b4e5417bb"),
        ("ckpt-00000012-table3.bin", "c18ddb13c5c06aaa"),
        ("ckpt-00000012-table4.bin", "11c385adbae1ffb9"),
        ("ckpt-00000012-table5.bin", "7dbfbacf6644c8a2"),
        ("ckpt-00000012-table6.bin", "53a791fba875d62a"),
        ("ckpt-00000012-table7.bin", "f9439c2bcd69f376"),
        ("ckpt-00000016-dense.bin", "d4e1f31954685815"),
        ("ckpt-00000016-table0.bin", "2f7ccb88054b99c0"),
        ("ckpt-00000016-table1.bin", "0885b397a540ab16"),
        ("ckpt-00000016-table2.bin", "b428d3d5b1109624"),
        ("ckpt-00000016-table3.bin", "0d59b3ba468448d1"),
        ("ckpt-00000016-table4.bin", "621b96856e330140"),
        ("ckpt-00000016-table5.bin", "c845452d529c43a5"),
        ("ckpt-00000016-table6.bin", "fe41c9f82038cb85"),
        ("ckpt-00000016-table7.bin", "3c53ca2d9be3ef3a"),
        ("ckpt-00000020-dense.bin", "d21bf2c780a0a4e4"),
        ("ckpt-00000020-table0.bin", "cb5cfaac47b78af5"),
        ("ckpt-00000020-table1.bin", "d9c1712f77c90e15"),
        ("ckpt-00000020-table2.bin", "1629b475c0dfa1d2"),
        ("ckpt-00000020-table3.bin", "cb95795594c5a8cb"),
        ("ckpt-00000020-table4.bin", "3dcd044be10acfac"),
        ("ckpt-00000020-table5.bin", "155fda03276de786"),
        ("ckpt-00000020-table6.bin", "054a4ffce095da2c"),
        ("ckpt-00000020-table7.bin", "118ec25014cf9f01"),
        ("ckpt-00000024-dense.bin", "e52f6d5e6c157376"),
        ("ckpt-00000024-table0.bin", "cc2bcac4c4976a1e"),
        ("ckpt-00000024-table1.bin", "b93c854025a0feca"),
        ("ckpt-00000024-table2.bin", "212e540d87642fa7"),
        ("ckpt-00000024-table3.bin", "9a528f0b4fa7cdb5"),
        ("ckpt-00000024-table4.bin", "fbe52082449b78f4"),
        ("ckpt-00000024-table5.bin", "1b6145659c231f7d"),
        ("ckpt-00000024-table6.bin", "17f2bf2924b9063f"),
        ("ckpt-00000024-table7.bin", "15f152576303e632"),
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
