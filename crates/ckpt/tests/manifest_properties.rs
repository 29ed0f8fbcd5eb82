//! The v2 manifest decoder and the store's read path are total.
//!
//! Valid manifests are generated from a seed and then mutated: random byte
//! edits of the JSON text, and the structured corruptions the decoder must
//! name (shard lengths whose sum overflows `u64`, a repeated shard name, a
//! version 1 document). Every input must parse to a manifest that
//! re-encodes to itself, or fail with an error; nothing may panic. Against
//! a real store, a mutated manifest or data file must either restore
//! payloads whose lengths and checksums match the manifest or be rejected,
//! and a data file with one byte changed, cut short or extended is always
//! rejected.

use picasso_ckpt::{fnv1a64_words, CheckpointKind, CheckpointStore, Manifest, ShardEntry};
use picasso_obs::checksum::splitmix64;
use proptest::prelude::*;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A seeded stream of random words.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A valid manifest: 0 to 5 uniquely named shards whose lengths sum within
/// `u64`, full or incremental.
fn valid_manifest(r: &mut Words) -> Manifest {
    let step = 1 + r.below(1000);
    let incremental = r.below(2) == 1;
    let shards = (0..r.below(6))
        .map(|i| ShardEntry {
            name: if i == 0 {
                "dense".to_string()
            } else {
                format!("table{}", i - 1)
            },
            bytes: r.below(1 << 40),
            checksum: r.next(),
        })
        .collect();
    Manifest {
        step,
        kind: if incremental {
            CheckpointKind::Incremental
        } else {
            CheckpointKind::Full
        },
        parent: incremental.then(|| r.below(step)),
        shards,
    }
}

/// One to three random edits: overwrite, delete or insert a byte, or cut
/// the text short.
fn mutate_bytes(r: &mut Words, bytes: &mut Vec<u8>) {
    for _ in 0..1 + r.below(3) {
        let at = r.below(bytes.len() as u64 + 1) as usize;
        match r.below(4) {
            0 if at < bytes.len() => bytes[at] = r.next() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, b"{}[],:\"0123456789-e.x "[r.below(22) as usize]),
            _ => bytes.truncate(at),
        }
    }
}

/// What a manifest that parsed must satisfy: a checked total, unique shard
/// names, and an exact round trip.
fn check_parsed(m: &Manifest) {
    assert!(m.total_bytes().is_some());
    for (i, s) in m.shards.iter().enumerate() {
        assert!(m.shards[..i].iter().all(|t| t.name != s.name));
    }
    assert_eq!(Manifest::parse(&m.to_json().to_json()), Ok(m.clone()));
}

proptest! {
    /// Byte edits of a valid manifest parse to a manifest that satisfies
    /// the decoder's invariants, or fail; they never panic.
    #[test]
    fn mutated_manifests_parse_or_fail_cleanly(seed in 0u64..u64::MAX) {
        let mut r = Words(seed);
        let m = valid_manifest(&mut r);
        let text = m.to_json().to_json();
        prop_assert_eq!(Manifest::parse(&text), Ok(m));
        let mut bytes = text.into_bytes();
        mutate_bytes(&mut r, &mut bytes);
        if let Ok(m) = Manifest::parse(&String::from_utf8_lossy(&bytes)) {
            check_parsed(&m);
        }
    }

    /// Overflowing shard lengths, a repeated shard name and a version 1
    /// document are each refused with an error that names the cause.
    #[test]
    fn structured_corruptions_are_refused_by_name(seed in 0u64..u64::MAX) {
        let mut r = Words(seed);
        let mut m = valid_manifest(&mut r);
        let extra = ShardEntry {
            name: "extra".to_string(),
            bytes: u64::MAX - r.below(1 << 40),
            checksum: r.next(),
        };
        let at = r.below(m.shards.len() as u64 + 1) as usize;
        let (text, cause) = match r.below(3) {
            0 => {
                m.shards.push(ShardEntry { bytes: 1 << 40, ..extra.clone() });
                m.shards.insert(at, ShardEntry { name: "big".into(), ..extra });
                (m.to_json().to_json(), "overflow")
            }
            1 => {
                m.shards.insert(at, ShardEntry { bytes: 1, ..extra });
                let twin = m.shards[r.below(m.shards.len() as u64) as usize].clone();
                m.shards.push(twin);
                (m.to_json().to_json(), "duplicate shard")
            }
            _ => (
                m.to_json()
                    .to_json()
                    .replacen("\"schema_version\":2", "\"schema_version\":1", 1),
                "schema_version 1 is not supported",
            ),
        };
        let err = Manifest::parse(&text).unwrap_err();
        prop_assert!(err.contains(cause), "{} for {}", err, text);
    }

    /// A committed checkpoint whose manifest or data file is then edited
    /// restores payloads that match the manifest, or is rejected. Editing
    /// the data file alone always rejects it.
    #[test]
    fn a_store_with_an_edited_file_restores_or_rejects(seed in 0u64..u64::MAX) {
        let mut r = Words(seed);
        let dir = std::env::temp_dir().join(format!(
            "picasso-ckpt-manifest-prop-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let step = 1 + r.below(100);
        let mut w = store.begin(step, CheckpointKind::Full, None).unwrap();
        for i in 0..1 + r.below(4) {
            let payload: Vec<u8> = (0..r.below(40)).map(|_| r.next() as u8).collect();
            w.add_shard(&format!("shard{i}"), &payload).unwrap();
        }
        let summary = w.commit().unwrap();
        let data_path = dir.join(Manifest::data_file_name(step));
        let data_edit = r.below(2) == 0;
        let path = if data_edit {
            data_path.clone()
        } else {
            dir.join(Manifest::file_name(step))
        };
        let mut bytes = fs::read(&path).unwrap();
        if data_edit {
            let len = bytes.len() as u64;
            match r.below(3) {
                0 if len > 0 => bytes[r.below(len) as usize] ^= 1 + r.below(255) as u8,
                1 if len > 0 => bytes.truncate(r.below(len) as usize),
                _ => bytes.push(r.next() as u8),
            }
        } else {
            mutate_bytes(&mut r, &mut bytes);
        }
        fs::write(&path, &bytes).unwrap();

        match store.latest_valid().unwrap() {
            None => {}
            Some((chain, rejected)) => {
                prop_assert!(!data_edit, "an edited data file restored");
                prop_assert!(rejected.is_empty());
                let m = chain[0].manifest();
                check_parsed(m);
                let data = fs::read(&data_path).unwrap();
                prop_assert_eq!(m.total_bytes(), Some(summary.bytes));
                prop_assert_eq!(data.len() as u64, summary.bytes);
                for s in &m.shards {
                    let payload = chain[0].payload(&s.name).unwrap();
                    prop_assert_eq!(payload.len() as u64, s.bytes);
                    prop_assert_eq!(fnv1a64_words(payload), s.checksum);
                }
            }
        }
        prop_assert!(store.gc(2).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
