//! Golden plans the pass planners derive themselves.
//!
//! Every other golden fixes `batch_per_executor`; this one leaves it to the
//! planners. Each run is one model of the zoo under one pass list, with the
//! Eq. 2 batch, the micro-batch count and the Eq. 3 group count all derived,
//! and one iteration simulated. Per run it pins:
//!
//! - the derived per-executor batch, micro-batch count and group count;
//! - the chain count of the post-pass spec;
//! - an FNV-1a digest of the post-pass spec, rendered field by field with
//!   every `f64` as its bits.
//!
//! The grid is the 14 models × the five Table IV pipelines (`all`, `none`,
//! `without_packing`, `without_interleaving`, `without_caching`) on four
//! EFLOPS nodes and on one Gn6e node, plus one run whose derived batch hits
//! a `max_batch` of 4096. Any change to the planners, the pass rewrites or
//! the batch sizing moves one of these lines.

use picasso::data::DatasetSpec;
use picasso::exec::{run, RunArtifacts, Strategy, TrainerOptions, WarmupConfig};
use picasso::graph::WdlSpec;
use picasso::obs::checksum::Fnv1a;
use picasso::sim::MachineSpec;
use picasso::{ModelKind, PipelineConfig};
use std::sync::Arc;

/// The five Table IV pipelines, by name.
fn pipelines() -> [(&'static str, PipelineConfig); 5] {
    [
        ("all", PipelineConfig::all()),
        ("none", PipelineConfig::none()),
        ("without_packing", PipelineConfig::without_packing()),
        (
            "without_interleaving",
            PipelineConfig::without_interleaving(),
        ),
        ("without_caching", PipelineConfig::without_caching()),
    ]
}

/// One iteration, everything derived, a small seeded warm-up.
fn options(machines: usize, machine: MachineSpec) -> TrainerOptions {
    TrainerOptions {
        machines,
        machine,
        iterations: 1,
        batch_per_executor: None,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 17,
        },
        ..TrainerOptions::default()
    }
}

struct SpecHash(Fnv1a);

impl SpecHash {
    fn bytes(&mut self, b: &[u8]) {
        self.0.write(&(b.len() as u64).to_le_bytes());
        self.0.write(b);
    }
    fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usizes(&mut self, vs: impl ExactSizeIterator<Item = u64>) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v);
        }
    }
}

/// FNV-1a over every field of `spec`.
fn spec_digest(spec: &WdlSpec) -> String {
    let mut h = SpecHash(Fnv1a::default());
    h.bytes(spec.name.as_bytes());
    h.f64(spec.io_bytes_per_instance);
    h.u64(spec.chains.len() as u64);
    for c in &spec.chains {
        h.usizes(c.fields.iter().map(|&f| u64::from(f)));
        h.usizes(c.tables.iter().map(|&t| t as u64));
        h.u64(c.dim as u64);
        h.f64(c.ids_per_instance);
        h.f64(c.pooled_rows_per_instance);
        h.f64(c.unique_ratio);
        h.u64(u64::from(c.fused_unique_partition));
        h.u64(u64::from(c.fused_shuffle_stitch));
        h.u64(u64::from(c.group));
        h.f64(c.cache_hit_ratio);
        h.u64(u64::from(c.interleave_excluded));
    }
    h.u64(spec.modules.len() as u64);
    for m in &spec.modules {
        h.bytes(format!("{:?}", m.kind).as_bytes());
        h.usizes(m.input_fields.iter().map(|&f| u64::from(f)));
        h.f64(m.flops_per_instance);
        h.f64(m.bytes_per_instance);
        h.f64(m.params);
        h.u64(m.output_width as u64);
        h.u64(u64::from(m.micro_ops_forward));
    }
    h.usizes(spec.mlp.widths.iter().map(|&w| w as u64));
    h.f64(spec.mlp.flops_per_instance);
    h.f64(spec.mlp.bytes_per_instance);
    h.f64(spec.mlp.params);
    h.u64(spec.micro_batches as u64);
    h.u64(spec.group_deps.len() as u64);
    for &(from, to) in &spec.group_deps {
        h.u64(u64::from(from));
        h.u64(u64::from(to));
    }
    format!("{:016x}", h.0.finish())
}

fn line(cell: &str, arts: &RunArtifacts) -> String {
    format!(
        "{cell} batch={} micro={} groups={} chains={} spec={}",
        arts.report.batch_per_executor,
        arts.report.micro_batches,
        arts.report.groups,
        arts.spec.chains.len(),
        spec_digest(&arts.spec)
    )
}

fn plan(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    pipeline: PipelineConfig,
    opts: &TrainerOptions,
) -> RunArtifacts {
    run(model, data, Strategy::Hybrid, pipeline, "plan", opts)
        .unwrap_or_else(|e| panic!("{model:?} plans: {e}"))
}

fn check(actual: &[String], expected: &[&str]) {
    for (a, e) in actual.iter().zip(expected) {
        assert_eq!(a, e);
    }
    assert_eq!(actual.len(), expected.len(), "{actual:#?}");
}

#[test]
fn derived_plans_on_four_eflops_nodes_are_pinned() {
    let opts = options(4, MachineSpec::eflops());
    let mut lines = Vec::new();
    for model in ModelKind::ALL {
        let data = model.default_dataset().shared();
        for (name, pipeline) in pipelines() {
            let arts = plan(model, &data, pipeline, &opts);
            lines.push(line(&format!("{model:?}/{name}"), &arts));
        }
    }
    check(&lines, EFLOPS4);
}

#[test]
fn derived_plans_on_one_gn6e_node_are_pinned() {
    let opts = options(1, MachineSpec::gn6e());
    let mut lines = Vec::new();
    for model in ModelKind::ALL {
        let data = model.default_dataset().shared();
        for (name, pipeline) in pipelines() {
            let arts = plan(model, &data, pipeline, &opts);
            lines.push(line(&format!("{model:?}/{name}"), &arts));
        }
    }
    check(&lines, GN6E1);
}

#[test]
fn a_derived_batch_over_max_batch_is_capped() {
    let opts = TrainerOptions {
        max_batch: 4096,
        ..options(4, MachineSpec::eflops())
    };
    let model = ModelKind::WideDeep;
    let data = model.default_dataset().shared();
    let arts = plan(model, &data, PipelineConfig::all(), &opts);
    check(&[line("WideDeep/all/max_batch=4096", &arts)], CAPPED);
}

const EFLOPS4: &[&str] = &[
    "Lr/all batch=61435 micro=2 groups=11 chains=15 spec=8af1ffb92f5eade5",
    "Lr/none batch=35232 micro=1 groups=1 chains=204 spec=55d391a5f5dc7ca2",
    "Lr/without_packing batch=61435 micro=2 groups=11 chains=204 spec=0983c83d46ecda53",
    "Lr/without_interleaving batch=34131 micro=1 groups=1 chains=15 spec=3db29b0f70f9bce1",
    "Lr/without_caching batch=63417 micro=2 groups=11 chains=15 spec=64d183bbd0e1781a",
    "WideDeep/all batch=52563 micro=3 groups=11 chains=15 spec=ffbe09aeb4658f4b",
    "WideDeep/none batch=20097 micro=1 groups=1 chains=204 spec=7f57898cf8417d01",
    "WideDeep/without_packing batch=35042 micro=2 groups=11 chains=204 spec=a27953532696c740",
    "WideDeep/without_interleaving batch=19468 micro=1 groups=1 chains=15 spec=95d43ec1045fc4e2",
    "WideDeep/without_caching batch=54261 micro=3 groups=11 chains=15 spec=021c3eea77dd66ce",
    "TwoTowerDnn/all batch=3297 micro=4 groups=11 chains=24 spec=72f53e200240d8a1",
    "TwoTowerDnn/none batch=947 micro=1 groups=1 chains=364 spec=84c389a0b885101f",
    "TwoTowerDnn/without_packing batch=1648 micro=2 groups=11 chains=364 spec=8a3e23839d678c8a",
    "TwoTowerDnn/without_interleaving batch=916 micro=1 groups=1 chains=24 spec=fb61740c9fd700fb",
    "TwoTowerDnn/without_caching batch=3409 micro=4 groups=11 chains=24 spec=a3d701d6e68c7868",
    "Dlrm/all batch=42479 micro=3 groups=2 chains=2 spec=e80c913a3399f4d2",
    "Dlrm/none batch=16241 micro=1 groups=1 chains=26 spec=344e10417da21f51",
    "Dlrm/without_packing batch=42479 micro=3 groups=9 chains=26 spec=8ccf6ef7fe307c43",
    "Dlrm/without_interleaving batch=15733 micro=1 groups=1 chains=2 spec=761c649eec9e8a29",
    "Dlrm/without_caching batch=43850 micro=3 groups=2 chains=2 spec=c8e0e90e2f8917c6",
    "DeepFm/all batch=42862 micro=3 groups=2 chains=2 spec=fa242f067b562452",
    "DeepFm/none batch=16388 micro=1 groups=1 chains=26 spec=49e867dca06655a3",
    "DeepFm/without_packing batch=42862 micro=3 groups=9 chains=26 spec=9843573b24a62b39",
    "DeepFm/without_interleaving batch=15875 micro=1 groups=1 chains=2 spec=7622d99429591935",
    "DeepFm/without_caching batch=44247 micro=3 groups=2 chains=2 spec=dd5ad9f43888d412",
    "Dcn/all batch=921 micro=4 groups=6 chains=24 spec=f9c1970aa706c522",
    "Dcn/none batch=256 micro=1 groups=1 chains=364 spec=11e50add75a1f787",
    "Dcn/without_packing batch=460 micro=2 groups=6 chains=364 spec=eddc6d9038f0e417",
    "Dcn/without_interleaving batch=256 micro=1 groups=1 chains=24 spec=730398ae24822e8b",
    "Dcn/without_caching batch=921 micro=4 groups=6 chains=24 spec=e8f8afa95e7ca59f",
    "XDeepFm/all batch=3254 micro=4 groups=11 chains=24 spec=669aab96fe08293b",
    "XDeepFm/none batch=934 micro=1 groups=1 chains=364 spec=022f4b15d258df41",
    "XDeepFm/without_packing batch=1627 micro=2 groups=11 chains=364 spec=767cb48c191adbb2",
    "XDeepFm/without_interleaving batch=904 micro=1 groups=1 chains=24 spec=122fc2d614530950",
    "XDeepFm/without_caching batch=3362 micro=4 groups=11 chains=24 spec=61dd22546209f2e0",
    "Atbrg/all batch=1854 micro=4 groups=11 chains=24 spec=4c4fe362e258a312",
    "Atbrg/none batch=532 micro=1 groups=1 chains=364 spec=6b7039cb64eebc74",
    "Atbrg/without_packing batch=927 micro=2 groups=11 chains=364 spec=4214b554135ef107",
    "Atbrg/without_interleaving batch=515 micro=1 groups=1 chains=24 spec=16bdce2515d0cebb",
    "Atbrg/without_caching batch=1915 micro=4 groups=11 chains=24 spec=28c4a036b1661c0d",
    "Din/all batch=56084 micro=4 groups=2 chains=2 spec=9da5cff9f10d0da4",
    "Din/none batch=16082 micro=1 groups=1 chains=19 spec=9a5100d7f5875dd5",
    "Din/without_packing batch=56084 micro=4 groups=11 chains=19 spec=ea622f3c45bcc7ae",
    "Din/without_interleaving batch=15579 micro=1 groups=1 chains=2 spec=e99bd297194441e7",
    "Din/without_caching batch=57895 micro=4 groups=2 chains=2 spec=41a0a3ea0ff879c9",
    "Dien/all batch=30060 micro=4 groups=2 chains=2 spec=9a8806d06d1197ea",
    "Dien/none batch=8620 micro=1 groups=1 chains=19 spec=13d28005ff71b61b",
    "Dien/without_packing batch=30060 micro=4 groups=7 chains=19 spec=d32cd66703704e01",
    "Dien/without_interleaving batch=8350 micro=1 groups=1 chains=2 spec=795d014393833f70",
    "Dien/without_caching batch=31032 micro=4 groups=2 chains=2 spec=bc26a9409b280843",
    "Dsin/all batch=1015 micro=4 groups=7 chains=24 spec=9d5fae22e74bac8a",
    "Dsin/none batch=291 micro=1 groups=1 chains=364 spec=0434620b921c04e5",
    "Dsin/without_packing batch=507 micro=2 groups=7 chains=364 spec=a7effbbde53d9f6c",
    "Dsin/without_interleaving batch=282 micro=1 groups=1 chains=24 spec=b4e3e6f890285874",
    "Dsin/without_caching batch=1047 micro=4 groups=7 chains=24 spec=07ba9dea0590907a",
    "Can/all batch=1774 micro=4 groups=11 chains=24 spec=82bf216f9426e537",
    "Can/none batch=509 micro=1 groups=1 chains=364 spec=6c676c5e763075dc",
    "Can/without_packing batch=887 micro=2 groups=11 chains=364 spec=37fd2abbed05816c",
    "Can/without_interleaving batch=493 micro=1 groups=1 chains=24 spec=2788623cf5e25690",
    "Can/without_caching batch=1832 micro=4 groups=11 chains=24 spec=9894db3e8efd50fd",
    "Star/all batch=921 micro=4 groups=6 chains=24 spec=9f8fb0099e3d43c2",
    "Star/none batch=256 micro=1 groups=1 chains=364 spec=b4660232e4c7273b",
    "Star/without_packing batch=460 micro=2 groups=6 chains=364 spec=daa8868599b21f55",
    "Star/without_interleaving batch=256 micro=1 groups=1 chains=24 spec=f41b3b6d2e2eb683",
    "Star/without_caching batch=921 micro=4 groups=6 chains=24 spec=4a729e2f6db76ca1",
    "MMoe/all batch=2602 micro=4 groups=4 chains=8 spec=f7177800ee5a584e",
    "MMoe/none batch=747 micro=1 groups=1 chains=94 spec=76a6148773fec05b",
    "MMoe/without_packing batch=1301 micro=2 groups=4 chains=94 spec=2f460a8f1d495295",
    "MMoe/without_interleaving batch=723 micro=1 groups=1 chains=8 spec=d0668685cb3cd81c",
    "MMoe/without_caching batch=2689 micro=4 groups=4 chains=8 spec=890a2f7d77a93d4b",
];

const GN6E1: &[&str] = &[
    "Lr/all batch=61435 micro=2 groups=11 chains=15 spec=8af1ffb92f5eade5",
    "Lr/none batch=35232 micro=1 groups=1 chains=204 spec=55d391a5f5dc7ca2",
    "Lr/without_packing batch=61435 micro=2 groups=11 chains=204 spec=0983c83d46ecda53",
    "Lr/without_interleaving batch=34131 micro=1 groups=1 chains=15 spec=3db29b0f70f9bce1",
    "Lr/without_caching batch=63417 micro=2 groups=11 chains=15 spec=64d183bbd0e1781a",
    "WideDeep/all batch=52563 micro=3 groups=11 chains=15 spec=ffbe09aeb4658f4b",
    "WideDeep/none batch=20097 micro=1 groups=1 chains=204 spec=7f57898cf8417d01",
    "WideDeep/without_packing batch=35042 micro=2 groups=11 chains=204 spec=a27953532696c740",
    "WideDeep/without_interleaving batch=19468 micro=1 groups=1 chains=15 spec=95d43ec1045fc4e2",
    "WideDeep/without_caching batch=54261 micro=3 groups=11 chains=15 spec=021c3eea77dd66ce",
    "TwoTowerDnn/all batch=3297 micro=4 groups=11 chains=24 spec=72f53e200240d8a1",
    "TwoTowerDnn/none batch=947 micro=1 groups=1 chains=364 spec=84c389a0b885101f",
    "TwoTowerDnn/without_packing batch=1648 micro=2 groups=11 chains=364 spec=8a3e23839d678c8a",
    "TwoTowerDnn/without_interleaving batch=916 micro=1 groups=1 chains=24 spec=fb61740c9fd700fb",
    "TwoTowerDnn/without_caching batch=3409 micro=4 groups=11 chains=24 spec=a3d701d6e68c7868",
    "Dlrm/all batch=42479 micro=3 groups=2 chains=2 spec=e80c913a3399f4d2",
    "Dlrm/none batch=16241 micro=1 groups=1 chains=26 spec=344e10417da21f51",
    "Dlrm/without_packing batch=42479 micro=3 groups=11 chains=26 spec=cfa152679fcfa638",
    "Dlrm/without_interleaving batch=15733 micro=1 groups=1 chains=2 spec=761c649eec9e8a29",
    "Dlrm/without_caching batch=43850 micro=3 groups=2 chains=2 spec=c8e0e90e2f8917c6",
    "DeepFm/all batch=42862 micro=3 groups=2 chains=2 spec=fa242f067b562452",
    "DeepFm/none batch=16388 micro=1 groups=1 chains=26 spec=49e867dca06655a3",
    "DeepFm/without_packing batch=42862 micro=3 groups=11 chains=26 spec=7f18212f953b983e",
    "DeepFm/without_interleaving batch=15875 micro=1 groups=1 chains=2 spec=7622d99429591935",
    "DeepFm/without_caching batch=44247 micro=3 groups=2 chains=2 spec=dd5ad9f43888d412",
    "Dcn/all batch=921 micro=4 groups=11 chains=24 spec=adf4d194a74737e1",
    "Dcn/none batch=256 micro=1 groups=1 chains=364 spec=11e50add75a1f787",
    "Dcn/without_packing batch=460 micro=2 groups=11 chains=364 spec=62d7c76336b7c457",
    "Dcn/without_interleaving batch=256 micro=1 groups=1 chains=24 spec=730398ae24822e8b",
    "Dcn/without_caching batch=921 micro=4 groups=11 chains=24 spec=5917a8b0f2a36b54",
    "XDeepFm/all batch=3254 micro=4 groups=11 chains=24 spec=669aab96fe08293b",
    "XDeepFm/none batch=934 micro=1 groups=1 chains=364 spec=022f4b15d258df41",
    "XDeepFm/without_packing batch=1627 micro=2 groups=11 chains=364 spec=767cb48c191adbb2",
    "XDeepFm/without_interleaving batch=904 micro=1 groups=1 chains=24 spec=122fc2d614530950",
    "XDeepFm/without_caching batch=3362 micro=4 groups=11 chains=24 spec=61dd22546209f2e0",
    "Atbrg/all batch=1854 micro=4 groups=11 chains=24 spec=4c4fe362e258a312",
    "Atbrg/none batch=532 micro=1 groups=1 chains=364 spec=6b7039cb64eebc74",
    "Atbrg/without_packing batch=927 micro=2 groups=11 chains=364 spec=4214b554135ef107",
    "Atbrg/without_interleaving batch=515 micro=1 groups=1 chains=24 spec=16bdce2515d0cebb",
    "Atbrg/without_caching batch=1915 micro=4 groups=11 chains=24 spec=28c4a036b1661c0d",
    "Din/all batch=56084 micro=4 groups=2 chains=2 spec=9da5cff9f10d0da4",
    "Din/none batch=16082 micro=1 groups=1 chains=19 spec=9a5100d7f5875dd5",
    "Din/without_packing batch=56084 micro=4 groups=11 chains=19 spec=ea622f3c45bcc7ae",
    "Din/without_interleaving batch=15579 micro=1 groups=1 chains=2 spec=e99bd297194441e7",
    "Din/without_caching batch=57895 micro=4 groups=2 chains=2 spec=41a0a3ea0ff879c9",
    "Dien/all batch=30060 micro=4 groups=2 chains=2 spec=9a8806d06d1197ea",
    "Dien/none batch=8620 micro=1 groups=1 chains=19 spec=13d28005ff71b61b",
    "Dien/without_packing batch=30060 micro=4 groups=11 chains=19 spec=f7bfea213a6acb87",
    "Dien/without_interleaving batch=8350 micro=1 groups=1 chains=2 spec=795d014393833f70",
    "Dien/without_caching batch=31032 micro=4 groups=2 chains=2 spec=bc26a9409b280843",
    "Dsin/all batch=1015 micro=4 groups=11 chains=24 spec=36af36d21b949e94",
    "Dsin/none batch=291 micro=1 groups=1 chains=364 spec=0434620b921c04e5",
    "Dsin/without_packing batch=507 micro=2 groups=11 chains=364 spec=f231715a7b10bf22",
    "Dsin/without_interleaving batch=282 micro=1 groups=1 chains=24 spec=b4e3e6f890285874",
    "Dsin/without_caching batch=1047 micro=4 groups=11 chains=24 spec=dcf710a6b3c74454",
    "Can/all batch=1774 micro=4 groups=11 chains=24 spec=82bf216f9426e537",
    "Can/none batch=509 micro=1 groups=1 chains=364 spec=6c676c5e763075dc",
    "Can/without_packing batch=887 micro=2 groups=11 chains=364 spec=37fd2abbed05816c",
    "Can/without_interleaving batch=493 micro=1 groups=1 chains=24 spec=2788623cf5e25690",
    "Can/without_caching batch=1832 micro=4 groups=11 chains=24 spec=9894db3e8efd50fd",
    "Star/all batch=921 micro=4 groups=11 chains=24 spec=1761cda3021c267f",
    "Star/none batch=256 micro=1 groups=1 chains=364 spec=b4660232e4c7273b",
    "Star/without_packing batch=460 micro=2 groups=11 chains=364 spec=2066781e342f61e5",
    "Star/without_interleaving batch=256 micro=1 groups=1 chains=24 spec=f41b3b6d2e2eb683",
    "Star/without_caching batch=921 micro=4 groups=11 chains=24 spec=7a28f6c4b7c62140",
    "MMoe/all batch=2602 micro=4 groups=8 chains=8 spec=59a815971823569a",
    "MMoe/none batch=747 micro=1 groups=1 chains=94 spec=76a6148773fec05b",
    "MMoe/without_packing batch=1301 micro=2 groups=11 chains=94 spec=9d8519d3142df483",
    "MMoe/without_interleaving batch=723 micro=1 groups=1 chains=8 spec=d0668685cb3cd81c",
    "MMoe/without_caching batch=2689 micro=4 groups=8 chains=8 spec=23bc2622340656a7",
];

const CAPPED: &[&str] =
    &["WideDeep/all/max_batch=4096 batch=4096 micro=3 groups=3 chains=15 spec=aa2489351a368ce5"];
