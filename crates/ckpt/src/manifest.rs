//! Checkpoint manifests.
//!
//! A manifest is the small JSON document that makes a checkpoint *exist*:
//! the checkpoint's one data file is written and renamed into place first,
//! and the atomic rename of the manifest is the commit point. It records
//! the training step, whether the snapshot is full or incremental (with a
//! parent link for the chain), and the name, byte length and checksum of
//! every shard. The data file is the shard payloads concatenated in
//! manifest order, so a shard's offset is the sum of the lengths before
//! it, and the file's name follows from the step
//! ([`Manifest::data_file_name`]).

use picasso_obs::json::{self, Json};
use std::collections::BTreeSet;

/// Version of the manifest layout; bump when a required field changes shape.
/// Version 2 holds every shard in one data file per checkpoint; version 1
/// (one file per shard) is refused.
pub const CKPT_SCHEMA_VERSION: u64 = 2;

/// Identifies checkpoint manifests among other JSON artifacts.
pub const CKPT_MANIFEST_KIND: &str = "picasso.checkpoint_manifest";

/// Whether a checkpoint stands alone or extends a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Complete model state; restores without reading any other checkpoint.
    Full,
    /// Only state touched since the parent checkpoint; restoring requires
    /// the parent chain down to the nearest full snapshot.
    Incremental,
}

impl CheckpointKind {
    /// Stable lowercase name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointKind::Full => "full",
            CheckpointKind::Incremental => "incremental",
        }
    }

    /// Parses the stable name back (inverse of [`CheckpointKind::name`]).
    pub fn parse(name: &str) -> Option<CheckpointKind> {
        match name {
            "full" => Some(CheckpointKind::Full),
            "incremental" => Some(CheckpointKind::Incremental),
            _ => None,
        }
    }
}

/// One shard of a checkpoint: a slice of its data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Logical shard name (e.g. `dense`, `table3`), unique per manifest.
    pub name: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// [`fnv1a64_words`](crate::codec::fnv1a64_words) of the payload.
    pub checksum: u64,
}

/// The manifest of one committed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Training step (completed iterations) the checkpoint captures.
    pub step: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Step of the parent checkpoint (`None` for full snapshots).
    pub parent: Option<u64>,
    /// Shards, in write order: their order in the data file.
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    /// Sum of shard payload bytes: the data file's length. `None` when the
    /// lengths overflow `u64`, which no parsed manifest does.
    pub fn total_bytes(&self) -> Option<u64> {
        self.shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.bytes))
    }

    /// Looks up a shard by logical name.
    pub fn shard(&self, name: &str) -> Option<&ShardEntry> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// The manifest's file name for `step` (`MANIFEST_<step>.json`).
    pub fn file_name(step: u64) -> String {
        format!("MANIFEST_{step}.json")
    }

    /// The data file's name for `step` (`ckpt-<step:08>.bin`).
    pub fn data_file_name(step: u64) -> String {
        format!("ckpt-{step:08}.bin")
    }

    /// Serializes the manifest document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::UInt(CKPT_SCHEMA_VERSION)),
            ("kind", Json::str(CKPT_MANIFEST_KIND)),
            ("step", Json::UInt(self.step)),
            ("snapshot", Json::str(self.kind.name())),
            (
                "parent",
                match self.parent {
                    Some(p) => Json::UInt(p),
                    None => Json::Null,
                },
            ),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(&s.name)),
                                ("bytes", Json::UInt(s.bytes)),
                                ("checksum", Json::UInt(s.checksum)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a manifest document (inverse of [`Manifest::to_json`]). A
    /// document of another schema version, a repeated shard name, or shard
    /// lengths whose sum overflows `u64` is an error.
    pub fn from_json(doc: &Json) -> Result<Manifest, String> {
        match doc.get("kind").and_then(Json::as_str) {
            Some(CKPT_MANIFEST_KIND) => {}
            other => return Err(format!("not a checkpoint manifest (kind {other:?})")),
        }
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != CKPT_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} is not supported (this build reads version {CKPT_SCHEMA_VERSION})"
            ));
        }
        let step = doc
            .get("step")
            .and_then(Json::as_u64)
            .ok_or("missing step")?;
        let kind = doc
            .get("snapshot")
            .and_then(Json::as_str)
            .and_then(CheckpointKind::parse)
            .ok_or("missing or bad snapshot kind")?;
        let parent = match doc.get("parent") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or("bad parent")?),
        };
        if kind == CheckpointKind::Incremental && parent.is_none() {
            return Err("incremental manifest without a parent".into());
        }
        if let Some(p) = parent.filter(|&p| p >= step) {
            return Err(format!(
                "step {step} claims parent {p} (parents must be older)"
            ));
        }
        let mut shards = Vec::new();
        let mut names = BTreeSet::new();
        let mut total = 0u64;
        for s in doc
            .get("shards")
            .and_then(Json::items)
            .ok_or("missing shards")?
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or("shard missing name")?;
            if !names.insert(name) {
                return Err(format!("duplicate shard '{name}'"));
            }
            let bytes = s
                .get("bytes")
                .and_then(Json::as_u64)
                .ok_or("shard missing bytes")?;
            total = total
                .checked_add(bytes)
                .ok_or("shard lengths overflow u64")?;
            shards.push(ShardEntry {
                name: name.to_string(),
                bytes,
                checksum: s
                    .get("checksum")
                    .and_then(Json::as_u64)
                    .ok_or("shard missing checksum")?,
            });
        }
        Ok(Manifest {
            step,
            kind,
            parent,
            shards,
        })
    }

    /// Parses manifest text (file contents).
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        Manifest::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            step: 42,
            kind: CheckpointKind::Incremental,
            parent: Some(40),
            shards: vec![
                ShardEntry {
                    name: "dense".into(),
                    bytes: 128,
                    checksum: 0xdead_beef,
                },
                ShardEntry {
                    name: "table0".into(),
                    bytes: 64,
                    checksum: 7,
                },
            ],
        }
    }

    #[test]
    fn manifest_json_round_trips() {
        let m = sample();
        let text = m.to_json().to_json();
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bytes(), Some(192));
        assert_eq!(Manifest::data_file_name(42), "ckpt-00000042.bin");
        assert_eq!(back.shard("dense").unwrap().bytes, 128);
        assert!(back.shard("missing").is_none());
    }

    #[test]
    fn full_manifests_have_no_parent() {
        let m = Manifest {
            step: 0,
            kind: CheckpointKind::Full,
            parent: None,
            shards: vec![],
        };
        let back = Manifest::parse(&m.to_json().to_json()).unwrap();
        assert_eq!(back.parent, None);
        assert_eq!(back.kind, CheckpointKind::Full);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Manifest::parse("not json").is_err());
        assert!(Manifest::parse(r#"{"kind":"other"}"#).is_err());
        // Wrong schema version.
        let mut m = sample().to_json();
        if let Json::Obj(pairs) = &mut m {
            pairs[0].1 = Json::UInt(999);
        }
        assert!(Manifest::from_json(&m)
            .unwrap_err()
            .contains("schema_version"));
        // Incremental without parent.
        let orphan = r#"{"schema_version":2,"kind":"picasso.checkpoint_manifest","step":5,"snapshot":"incremental","parent":null,"shards":[]}"#;
        assert!(Manifest::parse(orphan).unwrap_err().contains("parent"));
    }

    #[test]
    fn a_parent_not_older_than_its_child_is_rejected() {
        for parent in [8, 9, u64::MAX] {
            let doc = format!(
                r#"{{"schema_version":2,"kind":"picasso.checkpoint_manifest","step":8,"snapshot":"incremental","parent":{parent},"shards":[]}}"#
            );
            let err = Manifest::parse(&doc).unwrap_err();
            assert!(err.contains("parents must be older"), "{parent}: {err}");
        }
        let older = r#"{"schema_version":2,"kind":"picasso.checkpoint_manifest","step":8,"snapshot":"incremental","parent":7,"shards":[]}"#;
        assert_eq!(Manifest::parse(older).unwrap().parent, Some(7));
    }

    /// The sample document with its shard list replaced by `shards`.
    fn with_shards(shards: &str) -> String {
        format!(
            r#"{{"schema_version":2,"kind":"picasso.checkpoint_manifest","step":3,"snapshot":"full","parent":null,"shards":[{shards}]}}"#
        )
    }

    #[test]
    fn shard_lengths_that_overflow_u64_are_rejected() {
        let max = u64::MAX;
        let doc = with_shards(&format!(
            r#"{{"name":"a","bytes":{max},"checksum":0}},{{"name":"b","bytes":1,"checksum":0}}"#
        ));
        let err = Manifest::parse(&doc).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        let fits = with_shards(&format!(r#"{{"name":"a","bytes":{max},"checksum":0}}"#));
        assert_eq!(Manifest::parse(&fits).unwrap().total_bytes(), Some(max));
    }

    #[test]
    fn duplicate_shard_names_are_rejected() {
        let doc = with_shards(
            r#"{"name":"dense","bytes":1,"checksum":0},{"name":"dense","bytes":2,"checksum":0}"#,
        );
        let err = Manifest::parse(&doc).unwrap_err();
        assert!(err.contains("duplicate shard 'dense'"), "{err}");
    }

    #[test]
    fn a_version_1_manifest_is_refused_by_its_version() {
        let v1 = r#"{"schema_version":1,"kind":"picasso.checkpoint_manifest","step":3,"snapshot":"full","parent":null,"shards":[{"name":"dense","file":"ckpt-00000003-dense.bin","bytes":1,"checksum":0}]}"#;
        let err = Manifest::parse(v1).unwrap_err();
        assert!(err.contains("schema_version 1 is not supported"), "{err}");
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [CheckpointKind::Full, CheckpointKind::Incremental] {
            assert_eq!(CheckpointKind::parse(k.name()), Some(k));
        }
        assert_eq!(CheckpointKind::parse("diff"), None);
    }
}
