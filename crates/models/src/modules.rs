//! Constructors for feature-interaction modules.
//!
//! Each constructor derives per-instance FLOPs, activation bytes, parameter
//! counts, and kernel-launch multiplicities from the module's architectural
//! shape, following the published architectures (FM, DCN cross layers, CIN,
//! DIN attention, DIEN GRU, Transformer blocks, CAN co-action units, MoE
//! experts and gates, ATBRG graph aggregation).

use picasso_graph::{InteractionModule, ModuleKind};

/// A plain linear (LR / wide) term over concatenated inputs.
pub fn linear(input_fields: Vec<u32>, width: usize) -> InteractionModule {
    InteractionModule {
        kind: ModuleKind::Linear,
        input_fields,
        flops_per_instance: 2.0 * width as f64,
        bytes_per_instance: width as f64 * 4.0,
        params: width as f64 + 1.0,
        output_width: 1,
        micro_ops_forward: 8,
    }
}

/// A DNN tower: fully-connected layers over a concatenated input.
pub fn dnn_tower(
    input_fields: Vec<u32>,
    input_width: usize,
    widths: &[usize],
) -> InteractionModule {
    assert!(!widths.is_empty());
    let mut flops = 0.0;
    let mut params = 0.0;
    let mut bytes = input_width as f64 * 4.0;
    let mut prev = input_width;
    for &w in widths {
        flops += 2.0 * prev as f64 * w as f64;
        params += (prev * w + w) as f64;
        bytes += w as f64 * 8.0;
        prev = w;
    }
    InteractionModule {
        kind: ModuleKind::DnnTower,
        input_fields,
        flops_per_instance: flops,
        bytes_per_instance: bytes,
        params,
        output_width: prev,
        micro_ops_forward: 12 * widths.len() as u32,
    }
}

/// Factorization-machine second-order interaction over `n_fields` embeddings
/// of dimension `dim` (the O(n·d) sum-of-squares formulation).
pub fn fm(input_fields: Vec<u32>, n_fields: usize, dim: usize) -> InteractionModule {
    let nd = n_fields as f64 * dim as f64;
    InteractionModule {
        kind: ModuleKind::Fm,
        input_fields,
        flops_per_instance: 4.0 * nd + 2.0 * dim as f64,
        bytes_per_instance: nd * 8.0,
        params: 0.0,
        output_width: dim,
        micro_ops_forward: 14,
    }
}

/// DCN cross network of `depth` layers over width `width`.
pub fn cross(input_fields: Vec<u32>, width: usize, depth: usize) -> InteractionModule {
    assert!(depth >= 1);
    InteractionModule {
        kind: ModuleKind::Cross,
        input_fields,
        flops_per_instance: depth as f64 * 4.0 * width as f64,
        bytes_per_instance: depth as f64 * width as f64 * 8.0,
        params: depth as f64 * 2.0 * width as f64,
        output_width: width,
        micro_ops_forward: 10 * depth as u32,
    }
}

/// xDeepFM compressed interaction network: `layers` CIN layers with `maps`
/// feature maps over `n_fields` embeddings of dimension `dim`.
pub fn cin(
    input_fields: Vec<u32>,
    n_fields: usize,
    dim: usize,
    layers: usize,
    maps: usize,
) -> InteractionModule {
    assert!(layers >= 1 && maps >= 1);
    let per_layer = 2.0 * (n_fields * maps * dim) as f64 * maps as f64;
    InteractionModule {
        kind: ModuleKind::Cin,
        input_fields,
        flops_per_instance: layers as f64 * per_layer,
        bytes_per_instance: layers as f64 * (maps * dim) as f64 * 8.0,
        params: layers as f64 * (n_fields * maps * maps) as f64,
        output_width: layers * maps,
        micro_ops_forward: 22 * layers as u32,
    }
}

/// DIN target attention over a behaviour sequence of average length
/// `seq_len` with embedding dimension `dim` (per-position scoring MLP
/// 4d → 80 → 40 → 1).
pub fn attention(input_fields: Vec<u32>, dim: usize, seq_len: f64) -> InteractionModule {
    let d = dim as f64;
    let per_pos = 2.0 * (4.0 * d * 80.0 + 80.0 * 40.0 + 40.0);
    InteractionModule {
        kind: ModuleKind::Attention,
        input_fields,
        flops_per_instance: seq_len * per_pos,
        bytes_per_instance: seq_len * d * 8.0,
        params: 4.0 * d * 80.0 + 80.0 * 40.0 + 40.0,
        output_width: dim,
        micro_ops_forward: 36,
    }
}

/// DIEN interest-evolution GRU over a sequence: `seq_len` recurrent steps of
/// hidden size `dim`. Recurrence launches kernels per step, making this the
/// most fragmentary module in the zoo.
pub fn gru(input_fields: Vec<u32>, dim: usize, seq_len: f64) -> InteractionModule {
    let d = dim as f64;
    InteractionModule {
        kind: ModuleKind::Gru,
        input_fields,
        flops_per_instance: seq_len * 6.0 * d * d * 2.0,
        bytes_per_instance: seq_len * d * 12.0,
        params: 6.0 * d * d,
        output_width: dim,
        micro_ops_forward: (5.0 * seq_len.max(1.0)) as u32,
    }
}

/// A Transformer block (DSIN session interest extractor) over `seq_len`
/// positions of width `dim`.
pub fn transformer(input_fields: Vec<u32>, dim: usize, seq_len: f64) -> InteractionModule {
    let d = dim as f64;
    let t = seq_len;
    let qkv = 3.0 * 2.0 * t * d * d;
    let attn = 2.0 * 2.0 * t * t * d;
    let ffn = 2.0 * 2.0 * t * d * 4.0 * d;
    InteractionModule {
        kind: ModuleKind::Transformer,
        input_fields,
        flops_per_instance: qkv + attn + ffn,
        bytes_per_instance: t * d * 16.0 + t * t * 4.0,
        params: 3.0 * d * d + 8.0 * d * d,
        output_width: dim,
        micro_ops_forward: 30,
    }
}

/// A CAN feature co-action unit between a behaviour sequence (length
/// `seq_len`, dim `dim`) and a target feature: the target embedding is
/// reshaped into micro-MLP weights applied to every sequence position.
pub fn co_action(input_fields: Vec<u32>, dim: usize, seq_len: f64) -> InteractionModule {
    let d = dim as f64;
    InteractionModule {
        kind: ModuleKind::CoAction,
        input_fields,
        flops_per_instance: seq_len * 2.0 * d * d * 2.0,
        bytes_per_instance: seq_len * d * 8.0,
        params: 0.0, // weights come from embeddings, not dense parameters
        output_width: dim,
        micro_ops_forward: 24,
    }
}

/// One MoE expert tower.
pub fn expert(input_fields: Vec<u32>, input_width: usize, widths: &[usize]) -> InteractionModule {
    let mut m = dnn_tower(input_fields, input_width, widths);
    m.kind = ModuleKind::Expert;
    m
}

/// An MoE/STAR gating network over `n_experts` experts.
pub fn gate(input_fields: Vec<u32>, input_width: usize, n_experts: usize) -> InteractionModule {
    InteractionModule {
        kind: ModuleKind::Gate,
        input_fields,
        flops_per_instance: 2.0 * input_width as f64 * n_experts as f64 + 3.0 * n_experts as f64,
        bytes_per_instance: (input_width + n_experts) as f64 * 4.0,
        params: (input_width * n_experts + n_experts) as f64,
        output_width: n_experts,
        micro_ops_forward: 10,
    }
}

/// ATBRG adaptive target-behaviour relational graph aggregation: samples
/// `neighbors` graph neighbours per instance and aggregates their
/// embeddings; dominated by irregular memory access and host-side graph
/// walking.
pub fn graph_agg(input_fields: Vec<u32>, dim: usize, neighbors: usize) -> InteractionModule {
    let d = dim as f64;
    let n = neighbors as f64;
    InteractionModule {
        kind: ModuleKind::GraphAgg,
        input_fields,
        flops_per_instance: n * 2.0 * d * d,
        bytes_per_instance: n * d * 12.0,
        params: 2.0 * d * d,
        output_width: dim,
        micro_ops_forward: 60,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnn_tower_matches_manual_count() {
        let m = dnn_tower(vec![0], 100, &[50, 10]);
        assert_eq!(m.flops_per_instance, 2.0 * (100.0 * 50.0 + 50.0 * 10.0));
        assert_eq!(m.params, (100 * 50 + 50 + 50 * 10 + 10) as f64);
        assert_eq!(m.output_width, 10);
        assert_eq!(m.micro_ops_forward, 24);
    }

    #[test]
    fn gru_is_fragmentary() {
        let g = gru(vec![0], 16, 100.0);
        let a = attention(vec![0], 16, 100.0);
        assert!(
            g.micro_ops_forward > 10 * a.micro_ops_forward,
            "recurrence launches per-step kernels"
        );
    }

    #[test]
    fn attention_flops_scale_with_seq_len() {
        let short = attention(vec![0], 8, 10.0);
        let long = attention(vec![0], 8, 100.0);
        assert!((long.flops_per_instance / short.flops_per_instance - 10.0).abs() < 1e-9);
    }

    #[test]
    fn co_action_has_no_dense_params() {
        let m = co_action(vec![0, 1], 16, 50.0);
        assert_eq!(m.params, 0.0);
        assert!(m.flops_per_instance > 0.0);
    }

    #[test]
    fn transformer_has_quadratic_attention_term() {
        let t10 = transformer(vec![0], 8, 10.0);
        let t100 = transformer(vec![0], 8, 100.0);
        // More than linear growth in seq_len.
        assert!(t100.flops_per_instance > 10.0 * t10.flops_per_instance);
    }

    #[test]
    fn gate_output_is_expert_count() {
        let g = gate(vec![0], 64, 71);
        assert_eq!(g.output_width, 71);
        assert!(g.params > 0.0);
    }

    #[test]
    fn cross_scales_linearly_in_depth() {
        let c1 = cross(vec![0], 128, 1);
        let c3 = cross(vec![0], 128, 3);
        assert!((c3.flops_per_instance / c1.flops_per_instance - 3.0).abs() < 1e-9);
        assert_eq!(c3.micro_ops_forward, 30);
    }

    #[test]
    fn cin_and_graph_agg_are_positive() {
        let c = cin(vec![0], 26, 16, 3, 100);
        assert!(c.flops_per_instance > 0.0 && c.params > 0.0);
        let g = graph_agg(vec![0], 16, 20);
        assert!(g.bytes_per_instance > 0.0);
        assert_eq!(g.micro_ops_forward, 60);
    }
}
