//! Cost models of the collective-communication primitives.
//!
//! These return per-executor byte volumes; the scheduler turns them into
//! simulator tasks on the right interconnect resources. Formulas follow the
//! standard algorithm analyses (ring AllReduce, pairwise AllToAllv) used by
//! NCCL-class libraries.

/// Bytes each worker moves through its NIC for a ring AllReduce of `bytes`
/// of gradient data across `n` participants: `2 * (n-1)/n * bytes`
/// (reduce-scatter + all-gather).
pub fn allreduce_bytes_per_worker(bytes: f64, n: usize) -> f64 {
    assert!(n >= 1);
    if n == 1 {
        return 0.0;
    }
    2.0 * (n as f64 - 1.0) / n as f64 * bytes
}

/// Bytes each worker sends remotely in an AllToAllv exchange where it owns
/// `1/n` of the data and needs `bytes` of activations per iteration:
/// `(n-1)/n * bytes` leave the device.
pub fn alltoall_remote_bytes(bytes: f64, n: usize) -> f64 {
    assert!(n >= 1);
    (n as f64 - 1.0) / n as f64 * bytes
}

/// Splits remote traffic between the intra-node fabric (NVLink) and the NIC
/// for a cluster with `per_node` executors per machine and `n` executors in
/// total. Returns `(nvlink_bytes, nic_bytes)`.
pub fn split_intra_inter(remote_bytes: f64, n: usize, per_node: usize) -> (f64, f64) {
    assert!(n >= 1 && per_node >= 1);
    if n <= 1 {
        return (0.0, 0.0);
    }
    // Of the n-1 peers, per_node-1 are reachable via NVLink.
    let intra = (per_node.min(n) as f64 - 1.0) / (n as f64 - 1.0);
    (remote_bytes * intra, remote_bytes * (1.0 - intra))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_follows_ring_formula() {
        assert_eq!(allreduce_bytes_per_worker(1000.0, 1), 0.0);
        assert_eq!(allreduce_bytes_per_worker(1000.0, 2), 1000.0);
        let b4 = allreduce_bytes_per_worker(1000.0, 4);
        assert!((b4 - 1500.0).abs() < 1e-9);
        // Asymptotically approaches 2x the payload.
        assert!(allreduce_bytes_per_worker(1000.0, 128) < 2000.0);
    }

    #[test]
    fn alltoall_keeps_local_share() {
        assert_eq!(alltoall_remote_bytes(800.0, 1), 0.0);
        assert_eq!(alltoall_remote_bytes(800.0, 4), 600.0);
    }

    #[test]
    fn intra_inter_split_respects_topology() {
        // 16 executors, 8 per node: 7 of 15 peers are local.
        let (nv, nic) = split_intra_inter(1500.0, 16, 8);
        assert!((nv - 1500.0 * 7.0 / 15.0).abs() < 1e-9);
        assert!((nv + nic - 1500.0).abs() < 1e-9);
        // Single-GPU nodes: everything crosses the network.
        let (nv, nic) = split_intra_inter(1000.0, 4, 1);
        assert_eq!(nv, 0.0);
        assert_eq!(nic, 1000.0);
        // Single executor: no remote traffic at all.
        assert_eq!(split_intra_inter(1000.0, 1, 8), (0.0, 0.0));
    }
}
