//! Logical operator kinds and their lowering characteristics.
//!
//! Every logical stage of a WDL graph (a `Unique`, a `Shuffle`, a matmul…)
//! corresponds, in a real TensorFlow graph, to a small constellation of
//! framework operations (casts, reshapes, control edges, hash-table lookups).
//! We capture that with a per-kind *micro-op multiplicity*: a stage lowers to
//! one simulator task that pays `micro_ops` launch overheads. Table V's
//! operation counts are sums of these multiplicities.

use picasso_sim::TaskCategory;
use serde::{Deserialize, Serialize};

/// The dominant hardware class of an operator (Fig. 4's projection).
///
/// Kernel-packing only fuses kernels within one class; interleaving aims to
/// overlap work across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Bound by data ingestion (network from remote storage).
    Io,
    /// Bound by host memory bandwidth (hashmap/DRAM traffic).
    HostMemory,
    /// Bound by device memory bandwidth (HBM traffic).
    DeviceMemory,
    /// Bound by the host-device interconnect (PCIe).
    IntraComm,
    /// Bound by the inter-node network (or NVLink within a node).
    InterComm,
    /// Bound by GPU SM arithmetic throughput.
    Compute,
    /// Bound by host CPU.
    HostCompute,
}

impl OpClass {
    /// The breakdown category tasks of this class are attributed to.
    pub fn category(self) -> TaskCategory {
        match self {
            OpClass::Io => TaskCategory::DataIo,
            OpClass::HostMemory | OpClass::DeviceMemory | OpClass::IntraComm => {
                TaskCategory::Memory
            }
            OpClass::InterComm => TaskCategory::Communication,
            OpClass::Compute | OpClass::HostCompute => TaskCategory::Computation,
        }
    }
}

/// Logical operator kinds appearing in WDL training graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Stream and decode a batch of training data.
    DataLoad,
    /// Per-table feature preprocessing (hashing, bucketizing, ragged
    /// assembly).
    Preprocess,
    /// Deduplicate categorical IDs.
    Unique,
    /// Split IDs into local/remote partitions.
    Partition,
    /// Fused Unique + Partition (K-packing, Fig. 7).
    UniquePartition,
    /// Query embedding rows from the local table partition.
    Gather,
    /// Exchange remote rows between executors.
    Shuffle,
    /// Concatenate local and remote rows.
    Stitch,
    /// Fused Shuffle + Stitch (K-packing, Fig. 7).
    ShuffleStitch,
    /// Pool per-position rows by segment.
    SegmentReduce,
    /// Host-to-device copy of embedding activations.
    HostToDevice,
    /// Dense feature-interaction arithmetic (module-specific).
    InteractionCompute,
    /// MLP forward/backward matmuls.
    MlpCompute,
    /// Gradient AllReduce of dense parameters.
    AllReduce,
    /// AllToAllv exchange of embedding activations/gradients.
    AllToAll,
    /// Parameter-server pull of parameters.
    PsPull,
    /// Parameter-server push of gradients.
    PsPush,
    /// Sparse gradient scatter back into embedding tables.
    EmbeddingScatter,
    /// Optimizer application to dense parameters.
    OptimizerApply,
    /// Control/synchronization barrier.
    Sync,
}

impl OpKind {
    /// The variant's name, exactly its `Debug` text: stage labels, race
    /// signatures and rendered diagnostics carry it.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::DataLoad => "DataLoad",
            OpKind::Preprocess => "Preprocess",
            OpKind::Unique => "Unique",
            OpKind::Partition => "Partition",
            OpKind::UniquePartition => "UniquePartition",
            OpKind::Gather => "Gather",
            OpKind::Shuffle => "Shuffle",
            OpKind::Stitch => "Stitch",
            OpKind::ShuffleStitch => "ShuffleStitch",
            OpKind::SegmentReduce => "SegmentReduce",
            OpKind::HostToDevice => "HostToDevice",
            OpKind::InteractionCompute => "InteractionCompute",
            OpKind::MlpCompute => "MlpCompute",
            OpKind::AllReduce => "AllReduce",
            OpKind::AllToAll => "AllToAll",
            OpKind::PsPull => "PsPull",
            OpKind::PsPush => "PsPush",
            OpKind::EmbeddingScatter => "EmbeddingScatter",
            OpKind::OptimizerApply => "OptimizerApply",
            OpKind::Sync => "Sync",
        }
    }

    /// The dominant hardware class of this operator.
    pub fn class(self) -> OpClass {
        match self {
            OpKind::DataLoad => OpClass::Io,
            OpKind::Preprocess => OpClass::HostCompute,
            OpKind::Unique | OpKind::Partition | OpKind::UniquePartition => OpClass::HostMemory,
            OpKind::Gather | OpKind::EmbeddingScatter => OpClass::HostMemory,
            OpKind::Shuffle | OpKind::ShuffleStitch | OpKind::AllToAll => OpClass::InterComm,
            OpKind::Stitch => OpClass::DeviceMemory,
            OpKind::SegmentReduce => OpClass::DeviceMemory,
            OpKind::HostToDevice => OpClass::IntraComm,
            OpKind::InteractionCompute | OpKind::MlpCompute | OpKind::OptimizerApply => {
                OpClass::Compute
            }
            OpKind::AllReduce | OpKind::PsPull | OpKind::PsPush => OpClass::InterComm,
            OpKind::Sync => OpClass::HostCompute,
        }
    }

    /// TensorFlow-level graph operations this logical stage expands to (the
    /// Table V accounting unit). Fused kinds cost less than the sum of their
    /// parts — that is K-packing's launch-overhead saving.
    pub fn micro_ops(self) -> u32 {
        match self {
            OpKind::DataLoad => 12,
            OpKind::Preprocess => 58,
            OpKind::Unique => 8,
            OpKind::Partition => 7,
            OpKind::UniquePartition => 9,
            OpKind::Gather => 11,
            OpKind::Shuffle => 13,
            OpKind::Stitch => 6,
            OpKind::ShuffleStitch => 14,
            OpKind::SegmentReduce => 8,
            OpKind::HostToDevice => 3,
            OpKind::InteractionCompute => 1, // modules carry their own count
            OpKind::MlpCompute => 12,
            OpKind::AllReduce => 5,
            OpKind::AllToAll => 7,
            OpKind::PsPull => 8,
            OpKind::PsPush => 8,
            OpKind::EmbeddingScatter => 9,
            OpKind::OptimizerApply => 6,
            OpKind::Sync => 1,
        }
    }

    /// Ratio of backward-pass graph operations to forward ones. The backward
    /// pass mirrors the forward (§II-D) with extra gradient bookkeeping.
    pub const BACKWARD_OP_FACTOR: f64 = 1.8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_kinds_are_cheaper_than_parts() {
        assert!(
            OpKind::UniquePartition.micro_ops()
                < OpKind::Unique.micro_ops() + OpKind::Partition.micro_ops()
        );
        assert!(
            OpKind::ShuffleStitch.micro_ops()
                < OpKind::Shuffle.micro_ops() + OpKind::Stitch.micro_ops()
        );
    }

    #[test]
    fn classes_map_to_sensible_categories() {
        assert_eq!(
            OpKind::Shuffle.class().category(),
            TaskCategory::Communication
        );
        assert_eq!(OpKind::Gather.class().category(), TaskCategory::Memory);
        assert_eq!(
            OpKind::MlpCompute.class().category(),
            TaskCategory::Computation
        );
        assert_eq!(OpKind::DataLoad.class().category(), TaskCategory::DataIo);
        assert_eq!(OpKind::HostToDevice.class(), OpClass::IntraComm);
    }

    /// Every variant, in declaration order.
    const KINDS: [OpKind; 20] = [
        OpKind::DataLoad,
        OpKind::Preprocess,
        OpKind::Unique,
        OpKind::Partition,
        OpKind::UniquePartition,
        OpKind::Gather,
        OpKind::Shuffle,
        OpKind::Stitch,
        OpKind::ShuffleStitch,
        OpKind::SegmentReduce,
        OpKind::HostToDevice,
        OpKind::InteractionCompute,
        OpKind::MlpCompute,
        OpKind::AllReduce,
        OpKind::AllToAll,
        OpKind::PsPull,
        OpKind::PsPush,
        OpKind::EmbeddingScatter,
        OpKind::OptimizerApply,
        OpKind::Sync,
    ];

    #[test]
    fn every_kind_has_positive_micro_ops() {
        for k in KINDS {
            assert!(k.micro_ops() >= 1, "{k:?}");
        }
    }

    #[test]
    fn every_kind_name_is_its_debug_text() {
        for k in KINDS {
            assert_eq!(k.name(), format!("{k:?}"));
        }
    }
}
