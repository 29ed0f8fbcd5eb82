//! The effect grammar: typed resources, access modes, and conflict
//! classification.
//!
//! PICASSO's whole value proposition is aggressive overlap — D/K-packing
//! and D/K-interleaving deliberately run embedding gathers, collectives,
//! and dense compute concurrently — which is exactly where silent
//! lost-update and write-write hazards hide. This module gives every
//! lowered stage a *declared effect set*: which shared resources it
//! touches and how. The MHP analyzer ([`crate::mhp`]) then flags every
//! conflicting pair with no ordering path between them.
//!
//! Effects are derived mechanically in `picasso-exec` from the op kind,
//! hardware target, and pass plan — they are not hand-annotated, so the
//! grammar stays small: three access modes over seven resource kinds,
//! keyed by the packed chain (Eq. 1 shard) or the dense tower they
//! belong to.

use serde::{Deserialize, Serialize};

/// How a stage accesses a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccessMode {
    /// Reads the resource; any number of concurrent readers is safe.
    Read,
    /// Accumulates into the resource with a commutative, associative
    /// reduction (scatter-add). Concurrent `ReduceAdd`s to the same
    /// resource commute *if* the resource kind is on the commutative
    /// allowlist; against a `Read` or `Write` they conflict like a write.
    ReduceAdd,
    /// Overwrites the resource; conflicts with every concurrent access.
    Write,
}

impl AccessMode {
    /// Stable lowercase name used in rendering and JSON.
    pub fn name(self) -> &'static str {
        match self {
            AccessMode::Read => "read",
            AccessMode::ReduceAdd => "reduce-add",
            AccessMode::Write => "write",
        }
    }
}

/// The kinds of shared state a lowered stage can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// A packed embedding table shard (Eq. 1), keyed by chain.
    EmbeddingShard,
    /// The HybridHash hot (device-resident) storage of a cached chain.
    CacheHot,
    /// Dense tower parameters (interaction + MLP weights).
    DenseParams,
    /// Dense optimizer state (moments, step counters).
    OptimizerState,
    /// The incremental-checkpoint dirty-ID set of a chain.
    CkptDirty,
    /// A collective's staging buffer (shuffle / all-to-all / all-reduce).
    CollectiveBuffer,
    /// The input sample stream handed out by the data loader.
    InputStream,
}

impl ResourceKind {
    /// Stable short name (also the resource-key prefix).
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::EmbeddingShard => "shard",
            ResourceKind::CacheHot => "cache",
            ResourceKind::DenseParams => "params",
            ResourceKind::OptimizerState => "opt",
            ResourceKind::CkptDirty => "dirty",
            ResourceKind::CollectiveBuffer => "coll",
            ResourceKind::InputStream => "stream",
        }
    }
}

/// One concrete resource instance: a kind plus an instance key
/// (`c3` for chain 3's shard, `dense` for the shared tower).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Resource {
    /// What kind of state this is.
    pub kind: ResourceKind,
    /// Which instance (chain key or `dense`).
    pub key: String,
}

impl Resource {
    /// A new resource instance.
    pub fn new(kind: ResourceKind, key: impl Into<String>) -> Resource {
        Resource {
            kind,
            key: key.into(),
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind.name(), self.key)
    }
}

/// One declared access: a mode over a resource.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Effect {
    /// How the resource is accessed.
    pub mode: AccessMode,
    /// Which resource.
    pub resource: Resource,
}

/// The declared effect set of one stage. Most stages are pure with
/// respect to shared state (per-micro-batch scratch is private) and
/// carry an empty set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffectSet {
    /// The declared accesses, in derivation order.
    pub effects: Vec<Effect>,
}

impl EffectSet {
    /// The empty (pure) effect set.
    pub fn empty() -> EffectSet {
        EffectSet::default()
    }

    /// Builder: adds a `Read` of `resource`.
    pub fn read(mut self, resource: Resource) -> EffectSet {
        self.effects.push(Effect {
            mode: AccessMode::Read,
            resource,
        });
        self
    }

    /// Builder: adds a `Write` of `resource`.
    pub fn write(mut self, resource: Resource) -> EffectSet {
        self.effects.push(Effect {
            mode: AccessMode::Write,
            resource,
        });
        self
    }

    /// Builder: adds a `ReduceAdd` into `resource`.
    pub fn reduce(mut self, resource: Resource) -> EffectSet {
        self.effects.push(Effect {
            mode: AccessMode::ReduceAdd,
            resource,
        });
        self
    }

    /// True when the stage declares no shared-state access.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }
}

/// How two unordered effects on the same resource conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Two overwrites, or an overwrite against a reduction: last writer
    /// wins nondeterministically (`race.write-write`).
    WriteWrite,
    /// A read that may observe a concurrent mutation in either order
    /// (`race.read-after-unordered-write`).
    ReadWrite,
    /// Any unordered mutation of a checkpoint dirty-ID set: a sweep that
    /// races an update can persist a shard while dropping its dirty mark
    /// (`race.ckpt-dirty-unordered`).
    CkptDirty,
    /// Two commutative reductions into an allowlisted resource: the final
    /// value is order-independent (`race.benign-commutative`, Info).
    BenignCommutative,
}

impl ConflictKind {
    /// The registered rule id this conflict is reported under.
    pub fn rule_id(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "race.write-write",
            ConflictKind::ReadWrite => "race.read-after-unordered-write",
            ConflictKind::CkptDirty => "race.ckpt-dirty-unordered",
            ConflictKind::BenignCommutative => "race.benign-commutative",
        }
    }
}

/// The explicit allowlist of resource kinds whose `ReduceAdd`s commute.
///
/// Gradient scatter-adds into embedding shards and cache-hot rows are
/// order-independent (sparse SGD sums per-micro-batch gradients); dirty-ID
/// sets are deliberately *not* on the list so checkpoint bookkeeping stays
/// strictly ordered against sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceAllowlist {
    /// Resource kinds whose concurrent `ReduceAdd`s are benign.
    pub commutative: Vec<ResourceKind>,
}

impl Default for RaceAllowlist {
    fn default() -> RaceAllowlist {
        RaceAllowlist {
            commutative: vec![ResourceKind::EmbeddingShard, ResourceKind::CacheHot],
        }
    }
}

impl RaceAllowlist {
    /// True when concurrent `ReduceAdd`s into `kind` commute.
    pub fn allows(&self, kind: ResourceKind) -> bool {
        self.commutative.contains(&kind)
    }
}

/// Classifies one pair of effects on the *same* resource. Returns `None`
/// for compatible pairs (e.g. two reads) or effects on distinct resources.
pub fn classify(a: &Effect, b: &Effect, allow: &RaceAllowlist) -> Option<ConflictKind> {
    if a.resource != b.resource {
        return None;
    }
    use AccessMode::*;
    let conflict = match (a.mode, b.mode) {
        (Read, Read) => return None,
        (Write, Write) | (Write, ReduceAdd) | (ReduceAdd, Write) => ConflictKind::WriteWrite,
        (ReduceAdd, ReduceAdd) => {
            if allow.allows(a.resource.kind) {
                ConflictKind::BenignCommutative
            } else {
                ConflictKind::WriteWrite
            }
        }
        (Read, Write) | (Write, Read) | (Read, ReduceAdd) | (ReduceAdd, Read) => {
            ConflictKind::ReadWrite
        }
    };
    // Dirty-ID sets get their own rule: any non-benign conflict on them is
    // a checkpoint-consistency hazard regardless of the mode pair.
    if a.resource.kind == ResourceKind::CkptDirty && conflict != ConflictKind::BenignCommutative {
        return Some(ConflictKind::CkptDirty);
    }
    Some(conflict)
}

/// One conflicting resource between two effect sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// How the pair conflicts.
    pub kind: ConflictKind,
    /// The contended resource.
    pub resource: Resource,
    /// The two access modes involved (in `(a, b)` argument order).
    pub modes: (AccessMode, AccessMode),
}

/// All conflicts between two effect sets, deduplicated by resource with
/// the most severe conflict kind kept (`BenignCommutative` is the least
/// severe and only survives when nothing harder contends the resource).
pub fn conflicts(a: &EffectSet, b: &EffectSet, allow: &RaceAllowlist) -> Vec<Conflict> {
    let mut out: Vec<Conflict> = Vec::new();
    for ea in &a.effects {
        for eb in &b.effects {
            let Some(kind) = classify(ea, eb, allow) else {
                continue;
            };
            let severity = conflict_rank(kind);
            match out.iter_mut().find(|c| c.resource == ea.resource) {
                Some(existing) if conflict_rank(existing.kind) >= severity => {}
                Some(existing) => {
                    existing.kind = kind;
                    existing.modes = (ea.mode, eb.mode);
                }
                None => out.push(Conflict {
                    kind,
                    resource: ea.resource.clone(),
                    modes: (ea.mode, eb.mode),
                }),
            }
        }
    }
    out
}

/// Severity ordering for dedup: hard races outrank the benign downgrade.
fn conflict_rank(kind: ConflictKind) -> u8 {
    match kind {
        ConflictKind::BenignCommutative => 0,
        ConflictKind::ReadWrite => 1,
        ConflictKind::WriteWrite => 2,
        ConflictKind::CkptDirty => 3,
    }
}

/// A stable order-independent signature for a conflicting pair, used to
/// match static findings against observed trace overlap: the rule, the
/// contended resource, and the two op kinds (sorted).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceSig {
    /// Rule id the conflict reports under.
    pub rule: String,
    /// `kind:key` of the contended resource.
    pub resource: String,
    /// Op-kind names of the two stages, lexicographically sorted.
    pub ops: (String, String),
}

impl RaceSig {
    /// Builds a signature; `op_a`/`op_b` are op-kind names in any order.
    pub fn new(rule: &str, resource: &Resource, op_a: &str, op_b: &str) -> RaceSig {
        let (lo, hi) = if op_a <= op_b {
            (op_a, op_b)
        } else {
            (op_b, op_a)
        };
        RaceSig {
            rule: rule.to_string(),
            resource: resource.to_string(),
            ops: (lo.to_string(), hi.to_string()),
        }
    }
}

impl std::fmt::Display for RaceSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} ({} vs {})",
            self.rule, self.resource, self.ops.0, self.ops.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(key: &str) -> Resource {
        Resource::new(ResourceKind::EmbeddingShard, key)
    }

    #[test]
    fn reads_never_conflict() {
        let a = EffectSet::empty().read(shard("c0"));
        let b = EffectSet::empty().read(shard("c0"));
        assert!(conflicts(&a, &b, &RaceAllowlist::default()).is_empty());
    }

    #[test]
    fn distinct_resources_never_conflict() {
        let a = EffectSet::empty().write(shard("c0"));
        let b = EffectSet::empty().write(shard("c1"));
        assert!(conflicts(&a, &b, &RaceAllowlist::default()).is_empty());
        let c = EffectSet::empty().write(Resource::new(ResourceKind::CacheHot, "c0"));
        assert!(conflicts(&a, &c, &RaceAllowlist::default()).is_empty());
    }

    #[test]
    fn write_write_and_write_reduce_are_hard_races() {
        let allow = RaceAllowlist::default();
        let w = EffectSet::empty().write(shard("c0"));
        let r = EffectSet::empty().reduce(shard("c0"));
        for pair in [(&w, &w), (&w, &r), (&r, &w)] {
            let cs = conflicts(pair.0, pair.1, &allow);
            assert_eq!(cs.len(), 1);
            assert_eq!(cs[0].kind, ConflictKind::WriteWrite);
        }
    }

    #[test]
    fn read_against_mutation_is_read_write() {
        let allow = RaceAllowlist::default();
        let rd = EffectSet::empty().read(shard("c0"));
        let wr = EffectSet::empty().write(shard("c0"));
        let ra = EffectSet::empty().reduce(shard("c0"));
        assert_eq!(conflicts(&rd, &wr, &allow)[0].kind, ConflictKind::ReadWrite);
        assert_eq!(conflicts(&ra, &rd, &allow)[0].kind, ConflictKind::ReadWrite);
    }

    #[test]
    fn commutative_reduce_is_benign_only_when_allowlisted() {
        let allow = RaceAllowlist::default();
        let a = EffectSet::empty().reduce(shard("c0"));
        assert_eq!(
            conflicts(&a, &a, &allow)[0].kind,
            ConflictKind::BenignCommutative
        );
        let strict = RaceAllowlist {
            commutative: vec![],
        };
        assert_eq!(conflicts(&a, &a, &strict)[0].kind, ConflictKind::WriteWrite);
    }

    #[test]
    fn dirty_set_conflicts_report_under_their_own_rule() {
        let allow = RaceAllowlist::default();
        let sweep = EffectSet::empty().write(Resource::new(ResourceKind::CkptDirty, "c0"));
        let mark = EffectSet::empty().reduce(Resource::new(ResourceKind::CkptDirty, "c0"));
        let cs = conflicts(&sweep, &mark, &allow);
        assert_eq!(cs[0].kind, ConflictKind::CkptDirty);
        assert_eq!(cs[0].kind.rule_id(), "race.ckpt-dirty-unordered");
        // Dirty sets are off the commutative allowlist: even two marks
        // stay a checkpoint hazard.
        let cs = conflicts(&mark, &mark, &allow);
        assert_eq!(cs[0].kind, ConflictKind::CkptDirty);
    }

    #[test]
    fn dedup_keeps_the_most_severe_conflict_per_resource() {
        let allow = RaceAllowlist::default();
        // a reads and writes c0; b reduces into c0: ReadWrite and
        // WriteWrite both apply; only WriteWrite survives.
        let a = EffectSet::empty().read(shard("c0")).write(shard("c0"));
        let b = EffectSet::empty().reduce(shard("c0"));
        let cs = conflicts(&a, &b, &allow);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ConflictKind::WriteWrite);
    }

    #[test]
    fn race_sig_is_order_independent() {
        let r = shard("c0");
        let s1 = RaceSig::new("race.write-write", &r, "Gather", "EmbeddingScatter");
        let s2 = RaceSig::new("race.write-write", &r, "EmbeddingScatter", "Gather");
        assert_eq!(s1, s2);
        assert_eq!(s1.resource, "shard:c0");
    }
}
