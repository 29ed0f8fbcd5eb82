//! The directory-level checkpoint store.
//!
//! Write protocol: every shard is written to a `.tmp` file and renamed into
//! place, then the manifest itself is written the same way — the manifest
//! rename is the commit point, so a crash mid-checkpoint leaves at worst
//! orphaned shard files (reclaimed by [`CheckpointStore::gc`]) and never a
//! manifest describing missing data. Read protocol: [`CheckpointStore::latest_valid`]
//! walks manifests newest-first, reads and checksums every shard in the
//! manifest's parent chain once, handing the payloads to the caller, and
//! falls back to the previous manifest when validation fails, so a
//! corrupted newest checkpoint degrades recovery instead of breaking it.

use crate::codec::fnv1a64;
use crate::manifest::{CheckpointKind, Manifest, ShardEntry};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (path and OS error text).
    Io(String),
    /// A manifest or shard failed integrity validation.
    Corrupt(String),
    /// A referenced checkpoint or shard does not exist.
    NotFound(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "checkpoint io error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            StoreError::NotFound(msg) => write!(f, "checkpoint not found: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

/// Summary of one committed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// Step the checkpoint captures.
    pub step: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Total shard payload bytes.
    pub bytes: u64,
    /// Number of shard files.
    pub shards: usize,
}

/// What [`CheckpointStore::gc`] removed and kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Steps of checkpoints kept.
    pub kept: Vec<u64>,
    /// Steps of checkpoints removed.
    pub removed: Vec<u64>,
    /// Orphaned shard files (no committed manifest references them) removed.
    pub orphans_removed: usize,
}

/// One link of a validated restore chain: a manifest and the payload of
/// each of its shards, in manifest order, each read and checksummed once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// The link's manifest.
    pub manifest: Manifest,
    /// `payloads[i]` is the payload of `manifest.shards[i]`.
    pub payloads: Vec<Vec<u8>>,
}

impl ChainLink {
    /// Moves the payload of shard `name` out of the link, leaving it
    /// empty.
    pub fn take(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        match self.manifest.shards.iter().position(|s| s.name == name) {
            Some(i) => Ok(std::mem::take(&mut self.payloads[i])),
            None => Err(StoreError::NotFound(format!(
                "step {} has no shard '{name}'",
                self.manifest.step
            ))),
        }
    }
}

/// A checkpoint directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(CheckpointStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Begins writing a checkpoint for `step`. Shards are staged as they are
    /// added; nothing is visible until [`CheckpointWriter::commit`].
    pub fn begin(
        &self,
        step: u64,
        kind: CheckpointKind,
        parent: Option<u64>,
    ) -> Result<CheckpointWriter<'_>, StoreError> {
        if kind == CheckpointKind::Incremental && parent.is_none() {
            return Err(StoreError::Corrupt(format!(
                "incremental checkpoint at step {step} needs a parent"
            )));
        }
        Ok(CheckpointWriter {
            store: self,
            manifest: Manifest {
                step,
                kind,
                parent,
                shards: Vec::new(),
            },
        })
    }

    /// Steps of every committed manifest, ascending.
    pub fn steps(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(step) = name
                .strip_prefix("MANIFEST_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|num| num.parse::<u64>().ok())
            {
                out.push(step);
            }
        }
        out.sort_unstable();
        out
    }

    /// Loads (without validating shards) the manifest for `step`. A
    /// document that describes another step than its file name is
    /// corrupt.
    pub fn manifest(&self, step: u64) -> Result<Manifest, StoreError> {
        let path = self.dir.join(Manifest::file_name(step));
        let text = fs::read_to_string(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => {
                StoreError::NotFound(format!("no manifest for step {step}"))
            }
            _ => io_err(&path, e),
        })?;
        let manifest =
            Manifest::parse(&text).map_err(|e| StoreError::Corrupt(format!("step {step}: {e}")))?;
        if manifest.step != step {
            return Err(StoreError::Corrupt(format!(
                "{} describes step {}",
                Manifest::file_name(step),
                manifest.step
            )));
        }
        Ok(manifest)
    }

    /// Reads one shard's payload, verifying length and checksum.
    fn read_entry(&self, step: u64, entry: &ShardEntry) -> Result<Vec<u8>, StoreError> {
        let path = self.dir.join(&entry.file);
        let payload = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if payload.len() as u64 != entry.bytes {
            return Err(StoreError::Corrupt(format!(
                "step {step} shard '{}': {} bytes on disk, manifest says {}",
                entry.name,
                payload.len(),
                entry.bytes
            )));
        }
        let sum = fnv1a64(&payload);
        if sum != entry.checksum {
            return Err(StoreError::Corrupt(format!(
                "step {step} shard '{}': checksum {sum:#x} != manifest {:#x}",
                entry.name, entry.checksum
            )));
        }
        Ok(payload)
    }

    /// Resolves the restore chain for `manifest`: the nearest full ancestor
    /// first, then every incremental up to and including `manifest` itself.
    /// Every shard of every link is read and validated once, and its
    /// payload returned with the link.
    pub fn chain(&self, manifest: &Manifest) -> Result<Vec<ChainLink>, StoreError> {
        let mut chain = vec![manifest.clone()];
        let mut cursor = manifest.clone();
        while cursor.kind == CheckpointKind::Incremental {
            let Some(parent_step) = cursor.parent else {
                return Err(StoreError::Corrupt(format!(
                    "incremental step {} has no parent",
                    cursor.step
                )));
            };
            if parent_step >= cursor.step {
                return Err(StoreError::Corrupt(format!(
                    "step {} claims parent {parent_step} (parents must be older)",
                    cursor.step
                )));
            }
            cursor = self.manifest(parent_step)?;
            chain.push(cursor.clone());
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|manifest| {
                let payloads = manifest
                    .shards
                    .iter()
                    .map(|entry| self.read_entry(manifest.step, entry))
                    .collect::<Result<_, _>>()?;
                Ok(ChainLink { manifest, payloads })
            })
            .collect()
    }

    /// The newest checkpoint whose full parent chain validates, as its
    /// restore chain (base first, the checkpoint itself last, with every
    /// shard's payload), together with one reason per rejected newer
    /// checkpoint. `Ok(None)` when the store holds no usable checkpoint at
    /// all.
    #[allow(clippy::type_complexity)]
    pub fn latest_valid(&self) -> Result<Option<(Vec<ChainLink>, Vec<String>)>, StoreError> {
        let mut rejected = Vec::new();
        for &step in self.steps().iter().rev() {
            let manifest = match self.manifest(step) {
                Ok(m) => m,
                Err(e) => {
                    rejected.push(format!("step {step}: {e}"));
                    continue;
                }
            };
            match self.chain(&manifest) {
                Ok(chain) => return Ok(Some((chain, rejected))),
                Err(e) => rejected.push(format!("step {step}: {e}")),
            }
        }
        Ok(None)
    }

    /// Retention: keeps the newest `keep_full` full checkpoints, every
    /// checkpoint whose restore chain reaches a kept manifest, and nothing
    /// else. Orphaned shard files (from aborted writes) are deleted too.
    /// Chains are preserved by construction: the keep set is closed under
    /// the parent relation.
    pub fn gc(&self, keep_full: usize) -> Result<GcReport, StoreError> {
        let steps = self.steps();
        let mut manifests = Vec::new();
        for &step in &steps {
            manifests.push(self.manifest(step)?);
        }
        // Newest keep_full full snapshots seed the keep set.
        let mut keep: BTreeSet<u64> = manifests
            .iter()
            .filter(|m| m.kind == CheckpointKind::Full)
            .rev()
            .take(keep_full.max(1))
            .map(|m| m.step)
            .collect();
        // Close over parent chains: a checkpoint survives when its chain
        // bottoms out in a kept full snapshot.
        for m in &manifests {
            let mut path = vec![m.step];
            let mut cursor = m;
            let reaches_kept = loop {
                if keep.contains(&cursor.step) {
                    break true;
                }
                match cursor.parent {
                    Some(p) => match manifests.iter().find(|c| c.step == p) {
                        Some(parent) => {
                            path.push(parent.step);
                            cursor = parent;
                        }
                        None => break false,
                    },
                    None => break false,
                }
            };
            if reaches_kept {
                keep.extend(path);
            }
        }

        let mut report = GcReport::default();
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for m in &manifests {
            if keep.contains(&m.step) {
                report.kept.push(m.step);
                referenced.extend(m.shards.iter().map(|s| s.file.clone()));
                referenced.insert(Manifest::file_name(m.step));
            }
        }
        for m in &manifests {
            if !keep.contains(&m.step) {
                report.removed.push(m.step);
                let path = self.dir.join(Manifest::file_name(m.step));
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        // Sweep unreferenced shard/tmp files.
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let sweepable = name.starts_with("ckpt-") || name.ends_with(".tmp");
            if sweepable && !referenced.contains(name) {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                report.orphans_removed += 1;
            }
        }
        Ok(report)
    }

    fn write_atomic(&self, file: &str, payload: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("{file}.tmp"));
        let dst = self.dir.join(file);
        fs::write(&tmp, payload).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        Ok(())
    }
}

/// Stages shards for one checkpoint; the manifest write in
/// [`CheckpointWriter::commit`] makes them visible. Dropping the writer
/// without committing leaves only orphaned shard files, which the next
/// [`CheckpointStore::gc`] reclaims.
#[derive(Debug)]
pub struct CheckpointWriter<'a> {
    store: &'a CheckpointStore,
    manifest: Manifest,
}

impl CheckpointWriter<'_> {
    /// Writes one shard atomically and records it in the pending manifest.
    pub fn add_shard(&mut self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        if self.manifest.shard(name).is_some() {
            return Err(StoreError::Corrupt(format!(
                "duplicate shard '{name}' at step {}",
                self.manifest.step
            )));
        }
        let file = format!("ckpt-{:08}-{name}.bin", self.manifest.step);
        self.store.write_atomic(&file, payload)?;
        self.manifest.shards.push(ShardEntry {
            name: name.to_string(),
            file,
            bytes: payload.len() as u64,
            checksum: fnv1a64(payload),
        });
        Ok(())
    }

    /// Commits: writes the manifest atomically, making the checkpoint
    /// restorable.
    pub fn commit(self) -> Result<CheckpointSummary, StoreError> {
        let text = self.manifest.to_json().to_json() + "\n";
        self.store
            .write_atomic(&Manifest::file_name(self.manifest.step), text.as_bytes())?;
        Ok(CheckpointSummary {
            step: self.manifest.step,
            kind: self.manifest.kind,
            bytes: self.manifest.total_bytes(),
            shards: self.manifest.shards.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("picasso-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir).unwrap()
    }

    fn write_full(store: &CheckpointStore, step: u64, payload: &[u8]) -> CheckpointSummary {
        let mut w = store.begin(step, CheckpointKind::Full, None).unwrap();
        w.add_shard("dense", payload).unwrap();
        w.commit().unwrap()
    }

    fn write_incr(store: &CheckpointStore, step: u64, parent: u64, payload: &[u8]) {
        let mut w = store
            .begin(step, CheckpointKind::Incremental, Some(parent))
            .unwrap();
        w.add_shard("dense", payload).unwrap();
        w.commit().unwrap();
    }

    #[test]
    fn write_read_round_trip() {
        let store = temp_store("rw");
        let summary = write_full(&store, 3, b"hello world");
        assert_eq!(summary.step, 3);
        assert_eq!(summary.bytes, 11);
        assert_eq!(summary.shards, 1);
        let m = store.manifest(3).unwrap();
        let mut chain = store.chain(&m).unwrap();
        assert_eq!(chain[0].take("dense").unwrap(), b"hello world");
        assert!(matches!(
            chain[0].take("nope"),
            Err(StoreError::NotFound(_))
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn uncommitted_checkpoints_are_invisible() {
        let store = temp_store("atomic");
        let mut w = store.begin(1, CheckpointKind::Full, None).unwrap();
        w.add_shard("dense", b"staged").unwrap();
        drop(w); // no commit
        assert!(store.steps().is_empty(), "no manifest, no checkpoint");
        assert!(store.latest_valid().unwrap().is_none());
        // The orphaned shard is reclaimed by gc.
        let report = store.gc(1).unwrap();
        assert_eq!(report.orphans_removed, 1);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn duplicate_shard_names_are_rejected() {
        let store = temp_store("dup");
        let mut w = store.begin(1, CheckpointKind::Full, None).unwrap();
        w.add_shard("dense", b"a").unwrap();
        assert!(matches!(
            w.add_shard("dense", b"b"),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn corrupted_shard_fails_validation_and_falls_back() {
        let store = temp_store("corrupt");
        write_full(&store, 1, b"good old state");
        write_full(&store, 2, b"shiny new state");
        // Flip a byte in the newest shard file.
        let m2 = store.manifest(2).unwrap();
        let path = store.dir().join(&m2.shards[0].file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(store.chain(&m2), Err(StoreError::Corrupt(_))));
        let (chain, rejected) = store.latest_valid().unwrap().expect("step 1 still valid");
        assert_eq!(chain.len(), 1);
        assert_eq!(
            chain[0].manifest.step, 1,
            "fell back past the corrupted checkpoint"
        );
        assert_eq!(chain[0].payloads, [b"good old state".to_vec()]);
        assert_eq!(rejected.len(), 1);
        assert!(
            rejected[0].contains("checksum"),
            "reason names the cause: {rejected:?}"
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn truncated_shard_is_rejected_by_length_check() {
        let store = temp_store("trunc");
        write_full(&store, 1, b"0123456789");
        let m = store.manifest(1).unwrap();
        let path = store.dir().join(&m.shards[0].file);
        fs::write(&path, b"01234").unwrap();
        let err = store.chain(&m).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        assert!(err.to_string().contains("bytes"));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn chains_resolve_base_first_and_validate_every_link() {
        let store = temp_store("chain");
        write_full(&store, 10, b"base");
        write_incr(&store, 12, 10, b"d1");
        write_incr(&store, 14, 12, b"d2");
        let m = store.manifest(14).unwrap();
        let mut chain = store.chain(&m).unwrap();
        assert_eq!(
            chain.iter().map(|c| c.manifest.step).collect::<Vec<_>>(),
            [10, 12, 14]
        );
        assert_eq!(chain[1].take("dense").unwrap(), b"d1");
        assert!(chain[1].take("dense").unwrap().is_empty(), "taken once");
        assert!(matches!(
            chain[1].take("table0"),
            Err(StoreError::NotFound(_))
        ));
        // Corrupting the *base* invalidates the whole chain.
        let base = store.manifest(10).unwrap();
        let path = store.dir().join(&base.shards[0].file);
        fs::write(&path, b"XXXX").unwrap();
        assert!(store.chain(&m).is_err());
        assert!(store.latest_valid().unwrap().is_none());
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn missing_parent_invalidates_an_incremental() {
        let store = temp_store("orphan");
        write_full(&store, 1, b"base");
        write_incr(&store, 3, 2, b"points at nothing");
        let m = store.manifest(3).unwrap();
        assert!(matches!(store.chain(&m), Err(StoreError::NotFound(_))));
        let (chain, rejected) = store.latest_valid().unwrap().unwrap();
        assert_eq!(chain.last().unwrap().manifest.step, 1);
        assert_eq!(rejected.len(), 1);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    /// Writes `text` as the manifest file of `step`, bypassing the writer.
    fn forge_manifest(store: &CheckpointStore, step: u64, text: &str) {
        fs::write(store.dir().join(Manifest::file_name(step)), text).unwrap();
    }

    /// An incremental manifest document for `step` with parent `parent`.
    fn incremental_doc(step: u64, parent: u64) -> String {
        format!(
            r#"{{"schema_version":1,"kind":"picasso.checkpoint_manifest","step":{step},"snapshot":"incremental","parent":{parent},"shards":[]}}"#
        )
    }

    #[test]
    fn a_manifest_that_is_its_own_parent_is_corrupt_and_gc_returns() {
        let store = temp_store("selfparent");
        write_full(&store, 4, b"base");
        forge_manifest(&store, 8, &incremental_doc(8, 8));
        assert!(matches!(store.manifest(8), Err(StoreError::Corrupt(_))));
        // gc reads every manifest; it refuses the store instead of chasing
        // the parent link forever.
        assert!(matches!(store.gc(1), Err(StoreError::Corrupt(_))));
        let (chain, rejected) = store.latest_valid().unwrap().expect("step 4 still valid");
        assert_eq!(chain.last().unwrap().manifest.step, 4);
        assert_eq!(rejected.len(), 1);
        assert!(
            rejected[0].contains("parents must be older"),
            "{rejected:?}"
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn a_manifest_filed_under_another_step_is_corrupt() {
        let store = temp_store("misfiled");
        write_full(&store, 4, b"base");
        write_full(&store, 8, b"older");
        // Step 12's document (parent 8) lands in MANIFEST_8.json: the
        // chain from step 12 would revisit it forever.
        forge_manifest(&store, 8, &incremental_doc(12, 8));
        forge_manifest(&store, 12, &incremental_doc(12, 8));
        let err = store.manifest(8).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("describes step 12"), "{err}");
        // Both newer checkpoints are rejected; restore falls back to step 4.
        let (chain, rejected) = store.latest_valid().unwrap().expect("step 4 still valid");
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].manifest.step, 4);
        assert_eq!(chain[0].payloads, [b"base".to_vec()]);
        assert_eq!(rejected.len(), 2, "{rejected:?}");
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_keeps_parent_chains_intact() {
        let store = temp_store("gc");
        write_full(&store, 10, b"f10");
        write_incr(&store, 12, 10, b"i12");
        write_full(&store, 20, b"f20");
        write_incr(&store, 22, 20, b"i22");
        write_incr(&store, 24, 22, b"i24");
        let report = store.gc(1).unwrap();
        assert_eq!(report.kept, [20, 22, 24]);
        assert_eq!(report.removed, [10, 12]);
        assert_eq!(store.steps(), [20, 22, 24]);
        // Everything kept still restores.
        let m = store.manifest(24).unwrap();
        assert_eq!(store.chain(&m).unwrap().len(), 3);
        // Removed checkpoints' shard files are gone too.
        let files: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!files.iter().any(|f| f.contains("00000010")), "{files:?}");
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_keeps_at_least_one_full_snapshot() {
        let store = temp_store("gc-min");
        write_full(&store, 1, b"only");
        let report = store.gc(0).unwrap();
        assert_eq!(report.kept, [1], "keep_full is clamped to >= 1");
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn incremental_without_parent_is_rejected_at_begin() {
        let store = temp_store("begin");
        assert!(matches!(
            store.begin(5, CheckpointKind::Incremental, None),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }
}
