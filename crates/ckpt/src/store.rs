//! The directory-level checkpoint store.
//!
//! Layout: each checkpoint is two files, its manifest `MANIFEST_<step>.json`
//! and one data file `ckpt-<step:08>.bin` holding the shard payloads
//! concatenated in manifest order, with no header and no padding.
//!
//! Write protocol: [`CheckpointStore::begin`] opens `ckpt-<step:08>.bin.tmp`,
//! [`CheckpointWriter::add_shard`] appends each payload to it as it arrives
//! and checksums it on the way, and [`CheckpointWriter::commit`] renames the
//! data file into place and then writes the manifest to a `.tmp` file and
//! renames it. The manifest rename is the commit point, so a crash
//! mid-checkpoint leaves at worst orphaned files (reclaimed by
//! [`CheckpointStore::gc`]) and never a manifest describing missing data.
//!
//! Read protocol: [`CheckpointStore::latest_valid`] walks manifests
//! newest-first and reads each data file of the manifest's parent chain
//! once. A data file whose length is not the sum of its shard lengths, or a
//! shard whose checksum does not match, rejects the manifest, and the walk
//! falls back to the previous one, so a corrupted newest checkpoint
//! degrades recovery instead of breaking it. The validated payloads are
//! handed to the caller without reading the files again.

use crate::codec::fnv1a64_words;
use crate::manifest::{CheckpointKind, Manifest, ShardEntry};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io::Write;
use std::ops::Range;
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
    /// Total shard payload bytes: the data file's length.
    pub bytes: u64,
    /// Number of shards.
    pub shards: usize,
}

/// What [`CheckpointStore::gc`] removed and kept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Steps of checkpoints kept.
    pub kept: Vec<u64>,
    /// Steps of checkpoints removed.
    pub removed: Vec<u64>,
    /// Orphaned files (data files no committed manifest describes, and
    /// `.tmp` files) removed.
    pub orphans_removed: usize,
    /// Steps whose manifest could not be read; left on disk untouched.
    pub unreadable: Vec<u64>,
}

/// One link of a validated restore chain: a manifest and its data file,
/// read once, whose length and shard checksums have been checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    manifest: Manifest,
    data: Vec<u8>,
}

impl ChainLink {
    /// The link's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The payload of shard `name`.
    pub fn payload(&self, name: &str) -> Result<&[u8], StoreError> {
        shard_ranges(&self.manifest)
            .find(|(entry, _)| entry.name == name)
            .map(|(_, range)| &self.data[range])
            .ok_or_else(|| {
                StoreError::NotFound(format!("step {} has no shard '{name}'", self.manifest.step))
            })
    }
}

/// Each shard of `manifest` with its byte range in the data file: the
/// prefix sums of the shard lengths. Once the data file's length is known
/// to equal the manifest's checked total, every sum fits and every range
/// is in bounds.
fn shard_ranges(manifest: &Manifest) -> impl Iterator<Item = (&ShardEntry, Range<usize>)> {
    manifest.shards.iter().scan(0usize, |start, entry| {
        let range = *start..*start + entry.bytes as usize;
        *start = range.end;
        Some((entry, range))
    })
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

    /// Begins writing a checkpoint for `step`: opens its data file under a
    /// `.tmp` name. Nothing is visible until [`CheckpointWriter::commit`].
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
        let tmp = self
            .dir
            .join(format!("{}.tmp", Manifest::data_file_name(step)));
        let data = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        Ok(CheckpointWriter {
            store: self,
            manifest: Manifest {
                step,
                kind,
                parent,
                shards: Vec::new(),
            },
            tmp,
            data,
            bytes: 0,
        })
    }

    /// Steps of every committed manifest, ascending. A store directory
    /// that cannot be listed is an error, not an empty store.
    pub fn steps(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
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
        Ok(out)
    }

    /// Loads (without validating shards) the manifest for `step`. A
    /// document that is not UTF-8, does not parse, or describes another
    /// step than its file name is corrupt.
    pub fn manifest(&self, step: u64) -> Result<Manifest, StoreError> {
        let path = self.dir.join(Manifest::file_name(step));
        let bytes = fs::read(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => {
                StoreError::NotFound(format!("no manifest for step {step}"))
            }
            _ => io_err(&path, e),
        })?;
        let manifest = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(Manifest::parse)
            .map_err(|e| StoreError::Corrupt(format!("step {step}: {e}")))?;
        if manifest.step != step {
            return Err(StoreError::Corrupt(format!(
                "{} describes step {}",
                Manifest::file_name(step),
                manifest.step
            )));
        }
        Ok(manifest)
    }

    /// Reads `manifest`'s data file once and validates it: its length must
    /// be the sum of the shard lengths, and each shard's checksum must match.
    fn read_link(&self, manifest: Manifest) -> Result<ChainLink, StoreError> {
        let step = manifest.step;
        let total = manifest.total_bytes().ok_or_else(|| {
            StoreError::Corrupt(format!("step {step}: shard lengths overflow u64"))
        })?;
        let path = self.dir.join(Manifest::data_file_name(step));
        let data = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if data.len() as u64 != total {
            return Err(StoreError::Corrupt(format!(
                "step {step} data file: {} bytes on disk, manifest says {total}",
                data.len()
            )));
        }
        for (entry, range) in shard_ranges(&manifest) {
            let sum = fnv1a64_words(&data[range]);
            if sum != entry.checksum {
                return Err(StoreError::Corrupt(format!(
                    "step {step} shard '{}': checksum {sum:#x} != manifest {:#x}",
                    entry.name, entry.checksum
                )));
            }
        }
        Ok(ChainLink { manifest, data })
    }

    /// Resolves the restore chain for `manifest`: the nearest full ancestor
    /// first, then every incremental up to and including `manifest` itself.
    /// Every link's data file is read and validated once, and returned with
    /// the link.
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
            .map(|manifest| self.read_link(manifest))
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
        for &step in self.steps()?.iter().rev() {
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
    /// else. Orphaned data and `.tmp` files (from aborted writes) are
    /// deleted too; entries that are not regular files are left in place.
    /// Chains are preserved by construction: the keep set is closed under
    /// the parent relation. A manifest that cannot be read is skipped, as
    /// [`CheckpointStore::latest_valid`] skips it: it stays on disk with
    /// its files and is listed in [`GcReport::unreadable`].
    pub fn gc(&self, keep_full: usize) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        let mut manifests = Vec::new();
        for step in self.steps()? {
            match self.manifest(step) {
                Ok(m) => manifests.push(m),
                Err(_) => {
                    report.unreadable.push(step);
                    referenced.insert(Manifest::file_name(step));
                    referenced.insert(Manifest::data_file_name(step));
                }
            }
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

        for m in &manifests {
            if keep.contains(&m.step) {
                report.kept.push(m.step);
                referenced.insert(Manifest::file_name(m.step));
                referenced.insert(Manifest::data_file_name(m.step));
            }
        }
        for m in &manifests {
            if !keep.contains(&m.step) {
                report.removed.push(m.step);
                let path = self.dir.join(Manifest::file_name(m.step));
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        // Sweep unreferenced data and tmp files. Only regular files: a
        // directory or link that happens to match is not ours to remove.
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries.flatten() {
            if !entry.file_type().is_ok_and(|t| t.is_file()) {
                continue;
            }
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

/// Streams one checkpoint's shards into its data file; the manifest write
/// in [`CheckpointWriter::commit`] makes them visible. Dropping the writer
/// without committing leaves only an orphaned `.tmp` data file, which the
/// next [`CheckpointStore::gc`] reclaims.
#[derive(Debug)]
pub struct CheckpointWriter<'a> {
    store: &'a CheckpointStore,
    manifest: Manifest,
    tmp: PathBuf,
    data: fs::File,
    bytes: u64,
}

impl CheckpointWriter<'_> {
    /// Appends one shard's payload to the data file and records its length
    /// and checksum in the pending manifest.
    pub fn add_shard(&mut self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        if self.manifest.shard(name).is_some() {
            return Err(StoreError::Corrupt(format!(
                "duplicate shard '{name}' at step {}",
                self.manifest.step
            )));
        }
        self.data
            .write_all(payload)
            .map_err(|e| io_err(&self.tmp, e))?;
        self.bytes += payload.len() as u64;
        self.manifest.shards.push(ShardEntry {
            name: name.to_string(),
            bytes: payload.len() as u64,
            checksum: fnv1a64_words(payload),
        });
        Ok(())
    }

    /// Commits: renames the data file into place, then writes the manifest
    /// atomically, making the checkpoint restorable.
    pub fn commit(self) -> Result<CheckpointSummary, StoreError> {
        let CheckpointWriter {
            store,
            manifest,
            tmp,
            data,
            bytes,
        } = self;
        drop(data);
        let dst = store.dir.join(Manifest::data_file_name(manifest.step));
        fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        let text = manifest.to_json().to_json() + "\n";
        store.write_atomic(&Manifest::file_name(manifest.step), text.as_bytes())?;
        Ok(CheckpointSummary {
            step: manifest.step,
            kind: manifest.kind,
            bytes,
            shards: manifest.shards.len(),
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
        let chain = store.chain(&m).unwrap();
        assert_eq!(chain[0].payload("dense").unwrap(), b"hello world");
        assert!(matches!(
            chain[0].payload("nope"),
            Err(StoreError::NotFound(_))
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn a_checkpoint_is_a_manifest_and_its_shards_concatenated() {
        let store = temp_store("layout");
        let mut w = store.begin(5, CheckpointKind::Full, None).unwrap();
        w.add_shard("dense", b"dense!").unwrap();
        w.add_shard("table0", b"").unwrap();
        w.add_shard("table1", b"rows").unwrap();
        let summary = w.commit().unwrap();
        assert_eq!((summary.bytes, summary.shards), (10, 3));
        let mut files: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["MANIFEST_5.json", "ckpt-00000005.bin"]);
        let data = fs::read(store.dir().join("ckpt-00000005.bin")).unwrap();
        assert_eq!(data, b"dense!rows", "no header, no padding");
        let m = store.manifest(5).unwrap();
        assert_eq!(m.total_bytes(), Some(10));
        let chain = store.chain(&m).unwrap();
        assert_eq!(chain[0].manifest(), &m);
        assert_eq!(chain[0].payload("dense").unwrap(), b"dense!");
        assert_eq!(chain[0].payload("table0").unwrap(), b"");
        assert_eq!(chain[0].payload("table1").unwrap(), b"rows");
        for (entry, payload) in m.shards.iter().zip([&b"dense!"[..], b"", b"rows"]) {
            assert_eq!(entry.checksum, fnv1a64_words(payload), "{}", entry.name);
        }
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn uncommitted_checkpoints_are_invisible() {
        let store = temp_store("atomic");
        let mut w = store.begin(1, CheckpointKind::Full, None).unwrap();
        w.add_shard("dense", b"staged").unwrap();
        drop(w); // no commit
        assert!(
            store.steps().unwrap().is_empty(),
            "no manifest, no checkpoint"
        );
        assert!(store.latest_valid().unwrap().is_none());
        // The orphaned data file is reclaimed by gc.
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
        // Flip a byte in the newest data file.
        let m2 = store.manifest(2).unwrap();
        let path = store.dir().join(Manifest::data_file_name(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(store.chain(&m2), Err(StoreError::Corrupt(_))));
        let (chain, rejected) = store.latest_valid().unwrap().expect("step 1 still valid");
        assert_eq!(chain.len(), 1);
        assert_eq!(
            chain[0].manifest().step,
            1,
            "fell back past the corrupted checkpoint"
        );
        assert_eq!(chain[0].payload("dense").unwrap(), b"good old state");
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
        let path = store.dir().join(Manifest::data_file_name(1));
        fs::write(&path, b"01234").unwrap();
        let err = store.chain(&m).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        assert!(err.to_string().contains("bytes"));
        // A data file longer than its shards is corrupt too.
        fs::write(&path, b"0123456789!").unwrap();
        let err = store.chain(&m).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        assert!(err.to_string().contains("11 bytes on disk"), "{err}");
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn chains_resolve_base_first_and_validate_every_link() {
        let store = temp_store("chain");
        write_full(&store, 10, b"base");
        write_incr(&store, 12, 10, b"d1");
        write_incr(&store, 14, 12, b"d2");
        let m = store.manifest(14).unwrap();
        let chain = store.chain(&m).unwrap();
        assert_eq!(
            chain.iter().map(|c| c.manifest().step).collect::<Vec<_>>(),
            [10, 12, 14]
        );
        assert_eq!(chain[1].payload("dense").unwrap(), b"d1");
        assert!(matches!(
            chain[1].payload("table0"),
            Err(StoreError::NotFound(_))
        ));
        // Corrupting the *base* invalidates the whole chain.
        let path = store.dir().join(Manifest::data_file_name(10));
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
        assert_eq!(chain.last().unwrap().manifest().step, 1);
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
            r#"{{"schema_version":2,"kind":"picasso.checkpoint_manifest","step":{step},"snapshot":"incremental","parent":{parent},"shards":[]}}"#
        )
    }

    #[test]
    fn a_manifest_that_is_its_own_parent_is_corrupt_and_gc_returns() {
        let store = temp_store("selfparent");
        write_full(&store, 4, b"base");
        forge_manifest(&store, 8, &incremental_doc(8, 8));
        assert!(matches!(store.manifest(8), Err(StoreError::Corrupt(_))));
        // gc skips the unreadable manifest instead of chasing the parent
        // link forever, and leaves it on disk.
        let report = store.gc(1).unwrap();
        assert_eq!(report.unreadable, [8]);
        assert_eq!(report.kept, [4]);
        assert!(store.dir().join(Manifest::file_name(8)).exists());
        let (chain, rejected) = store.latest_valid().unwrap().expect("step 4 still valid");
        assert_eq!(chain.last().unwrap().manifest().step, 4);
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
        assert_eq!(chain[0].manifest().step, 4);
        assert_eq!(chain[0].payload("dense").unwrap(), b"base");
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
        assert_eq!(store.steps().unwrap(), [20, 22, 24]);
        // Everything kept still restores.
        let m = store.manifest(24).unwrap();
        assert_eq!(store.chain(&m).unwrap().len(), 3);
        // Removed checkpoints' data files are gone too.
        let files: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!files.iter().any(|f| f.contains("00000010")), "{files:?}");
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_skips_and_keeps_a_manifest_it_cannot_parse() {
        let store = temp_store("gc-garbage");
        write_full(&store, 4, b"old");
        write_full(&store, 8, b"new");
        let original = fs::read(store.dir().join(Manifest::file_name(4))).unwrap();
        forge_manifest(&store, 4, "{\"schema_version\": garbage");
        let report = store.gc(1).unwrap();
        assert_eq!(report.kept, [8]);
        assert!(report.removed.is_empty(), "{report:?}");
        assert_eq!(report.unreadable, [4]);
        assert_eq!(
            report.orphans_removed, 0,
            "the unreadable step's files stay"
        );
        assert_eq!(store.steps().unwrap(), [4, 8]);
        // Repairing the manifest makes the checkpoint whole again.
        fs::write(store.dir().join(Manifest::file_name(4)), original).unwrap();
        let m4 = store.manifest(4).unwrap();
        assert_eq!(
            store.chain(&m4).unwrap()[0].payload("dense").unwrap(),
            b"old"
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn an_unlistable_store_is_an_io_error_not_an_empty_store() {
        let store = temp_store("notadir");
        write_full(&store, 1, b"state");
        fs::remove_dir_all(store.dir()).unwrap();
        fs::write(store.dir(), b"a plain file where the store was").unwrap();
        assert!(matches!(store.steps(), Err(StoreError::Io(_))));
        assert!(matches!(store.latest_valid(), Err(StoreError::Io(_))));
        assert!(matches!(store.gc(1), Err(StoreError::Io(_))));
        fs::remove_file(store.dir()).unwrap();
    }

    #[test]
    fn a_version_1_store_is_refused_by_its_schema_version() {
        let store = temp_store("v1");
        forge_manifest(
            &store,
            4,
            r#"{"schema_version":1,"kind":"picasso.checkpoint_manifest","step":4,"snapshot":"full","parent":null,"shards":[{"name":"dense","file":"ckpt-00000004-dense.bin","bytes":4,"checksum":0}]}"#,
        );
        fs::write(store.dir().join("ckpt-00000004-dense.bin"), b"base").unwrap();
        let err = store.manifest(4).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(
            err.to_string()
                .contains("schema_version 1 is not supported"),
            "{err}"
        );
        assert!(
            store.latest_valid().unwrap().is_none(),
            "a v1 checkpoint must not restore"
        );
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gc_sweeps_regular_files_only() {
        let store = temp_store("gc-dirs");
        write_full(&store, 4, b"base");
        for dir in ["ckpt-archive", "old.tmp"] {
            fs::create_dir(store.dir().join(dir)).unwrap();
            fs::write(store.dir().join(dir).join("inner.bin"), b"kept").unwrap();
        }
        fs::write(store.dir().join("ckpt-00000002.bin"), b"orphan").unwrap();
        let report = store.gc(1).unwrap();
        assert_eq!(report.kept, [4]);
        assert_eq!(report.orphans_removed, 1, "only the orphaned data file");
        assert!(!store.dir().join("ckpt-00000002.bin").exists());
        for dir in ["ckpt-archive", "old.tmp"] {
            assert!(store.dir().join(dir).join("inner.bin").exists(), "{dir}");
        }
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
