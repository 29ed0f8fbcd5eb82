//! Torn checkpoint writes: a commit cut at any byte never costs the
//! previous checkpoint.
//!
//! Commits step N, then step N+1 on top of it, and then truncates each file
//! the second commit left at every byte offset in turn (the others intact).
//! At every cut `latest_valid` must return step N's restore chain byte for
//! byte, with the torn checkpoint rejected, and `gc` must succeed without
//! costing step N. The test knows nothing of the file layout: the torn
//! commit's files are whatever its commit added to the directory.

use picasso_ckpt::{CheckpointKind, CheckpointStore};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Every file in `dir`, by name, with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

fn commit(store: &CheckpointStore, step: u64, parent: Option<u64>, shards: &[(&str, &[u8])]) {
    let kind = match parent {
        Some(_) => CheckpointKind::Incremental,
        None => CheckpointKind::Full,
    };
    let mut w = store.begin(step, kind, parent).unwrap();
    for (name, payload) in shards {
        w.add_shard(name, payload).unwrap();
    }
    w.commit().unwrap();
}

/// Cuts every file of step 8's commit at every offset, with step 8 an
/// incremental on step 7 (`Some(7)`) or a full of its own (`None`).
fn torn_commit_falls_back(tag: &str, parent: Option<u64>) {
    let dir = std::env::temp_dir().join(format!("picasso-ckpt-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    commit(
        &store,
        7,
        None,
        &[("dense", b"dense state at seven"), ("table0", b"rows@7")],
    );
    let (want, rejected) = store.latest_valid().unwrap().unwrap();
    assert!(rejected.is_empty());
    let before = snapshot(&dir);

    commit(
        &store,
        8,
        parent,
        &[("dense", b"dense state at eight!"), ("table0", b"delta@8")],
    );
    let (whole, _) = store.latest_valid().unwrap().unwrap();
    assert_eq!(whole.last().unwrap().manifest().step, 8);
    let after = snapshot(&dir);
    let torn: Vec<&String> = after.keys().filter(|n| !before.contains_key(*n)).collect();
    assert!(!torn.is_empty());
    let mut cuts = 0;
    for name in &torn {
        let full = &after[*name];
        for cut in 0..full.len() {
            for (file, bytes) in &after {
                fs::write(dir.join(file), bytes).unwrap();
            }
            fs::write(dir.join(name), &full[..cut]).unwrap();
            let (chain, rejected) = store.latest_valid().unwrap().expect("step 7 survives");
            // A manifest cut only in its trailing newline is still whole.
            let whitespace_only =
                name.ends_with(".json") && full[cut..].iter().all(u8::is_ascii_whitespace);
            if whitespace_only {
                assert_eq!(chain, whole, "{name} cut at {cut}");
                continue;
            }
            assert_eq!(chain, want, "{name} cut at {cut}");
            assert_eq!(rejected.len(), 1, "{name} cut at {cut}: {rejected:?}");
            // gc counts full checkpoints by manifest without reading their
            // data, so a torn full counts towards `keep_full`; the recovery
            // driver's default of two keeps the full before it.
            store
                .gc(2)
                .unwrap_or_else(|e| panic!("{name} cut at {cut}: gc: {e}"));
            let (chain, _) = store.latest_valid().unwrap().expect("gc kept step 7");
            assert_eq!(chain, want, "{name} cut at {cut}, after gc");
            cuts += 1;
        }
    }
    assert!(cuts > 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_incremental_commit_falls_back_to_its_parent() {
    torn_commit_falls_back("incremental", Some(7));
}

#[test]
fn a_torn_full_commit_falls_back_to_the_previous_full() {
    torn_commit_falls_back("full", None);
}
