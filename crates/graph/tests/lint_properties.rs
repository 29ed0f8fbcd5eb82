//! Property-based tests of the spec-surface rules.
//!
//! `lint_spec` indexes fields and tables densely by id. Its findings must
//! be exactly those of the ordered-map traversal it replaced, which is
//! kept below as the reference: on random specs with duplicate, dangling
//! and unused fields, empty and zero-cardinality chains, mismatched and
//! unknown table dims, zero micro-batches and out-of-range group
//! dependencies, both return equal `Vec<Diagnostic>`s, element for
//! element (rule, severity, span, message and hint, in order).

use std::collections::{BTreeMap, BTreeSet};

use picasso_graph::{
    lint_spec, Diagnostic, EmbeddingChain, InteractionModule, MlpSpec, ModuleKind, Severity, Span,
    WdlSpec,
};
use proptest::prelude::*;

/// The spec rules over `BTreeMap`/`BTreeSet` field and table lookups,
/// as `lint_spec` computed them before it indexed by id.
fn reference_lint_spec(
    spec: &WdlSpec,
    table_dims: Option<&BTreeMap<usize, usize>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let mut owner: BTreeMap<u32, usize> = BTreeMap::new();
    for (ci, chain) in spec.chains.iter().enumerate() {
        for &f in &chain.fields {
            if let Some(&first) = owner.get(&f) {
                out.push(
                    Diagnostic::new(
                        "spec.duplicate-field",
                        Severity::Error,
                        Span::Chain(ci),
                        format!("field {f} is already produced by chain {first}"),
                    )
                    .with_hint("assign each feature field to exactly one chain"),
                );
            } else {
                owner.insert(f, ci);
            }
        }
    }

    for (ci, chain) in spec.chains.iter().enumerate() {
        if chain.fields.is_empty() {
            out.push(
                Diagnostic::new(
                    "spec.empty-chain",
                    Severity::Error,
                    Span::Chain(ci),
                    "chain produces no feature fields",
                )
                .with_hint("give the chain at least one field or remove it"),
            );
        }
        let mut zero = Vec::new();
        if chain.tables.is_empty() {
            zero.push("no embedding tables");
        }
        if chain.dim == 0 {
            zero.push("embedding dim is 0");
        }
        if chain.ids_per_instance <= 0.0 {
            zero.push("ids per instance is not positive");
        }
        if !zero.is_empty() {
            out.push(
                Diagnostic::new(
                    "spec.zero-cardinality",
                    Severity::Error,
                    Span::Chain(ci),
                    format!("chain has zero lookup volume: {}", zero.join(", ")),
                )
                .with_hint("chains must name tables with a positive dim and lookup rate"),
            );
        }
        if let Some(dims) = table_dims {
            let bad: Vec<String> = chain
                .tables
                .iter()
                .filter_map(|t| {
                    dims.get(t)
                        .filter(|&&d| d != chain.dim)
                        .map(|d| format!("table {t} has dim {d}"))
                })
                .collect();
            if !bad.is_empty() {
                out.push(
                    Diagnostic::new(
                        "spec.dim-mismatch",
                        Severity::Error,
                        Span::Chain(ci),
                        format!(
                            "chain dim is {} but {} (Eq. 1 packs only dim-homogeneous tables)",
                            chain.dim,
                            bad.join(", "),
                        ),
                    )
                    .with_hint("pack tables with equal dims, or split the chain"),
                );
            }
        }
    }

    let produced: BTreeSet<u32> = spec.chains.iter().flat_map(|c| c.fields.clone()).collect();
    let mut consumed: BTreeSet<u32> = BTreeSet::new();
    for (mi, module) in spec.modules.iter().enumerate() {
        if module.input_fields.is_empty() && module.kind != ModuleKind::DnnTower {
            out.push(
                Diagnostic::new(
                    "spec.no-input-module",
                    Severity::Error,
                    Span::Module(mi),
                    format!("module {:?} consumes zero fields", module.kind),
                )
                .with_hint(
                    "interaction modules must combine at least one embedding output \
                     (only dense DnnTowers may take zero)",
                ),
            );
        }
        for &f in &module.input_fields {
            consumed.insert(f);
            if !produced.contains(&f) {
                out.push(
                    Diagnostic::new(
                        "spec.dangling-input",
                        Severity::Error,
                        Span::Module(mi),
                        format!(
                            "module {:?} consumes field {f} not produced by any chain",
                            module.kind
                        ),
                    )
                    .with_hint("produce the field in a chain or drop it from the module"),
                );
            }
        }
    }

    if !spec.modules.is_empty() {
        for (ci, chain) in spec.chains.iter().enumerate() {
            let unused: Vec<String> = chain
                .fields
                .iter()
                .filter(|f| !consumed.contains(f))
                .map(|f| f.to_string())
                .collect();
            if !unused.is_empty() {
                out.push(
                    Diagnostic::new(
                        "spec.unused-field",
                        Severity::Warn,
                        Span::Chain(ci),
                        format!("field(s) {} are consumed by no module", unused.join(", ")),
                    )
                    .with_hint("drop dead fields to cut embedding-layer volume"),
                );
            }
        }
    }

    if spec.micro_batches == 0 {
        out.push(
            Diagnostic::new(
                "spec.zero-micro-batches",
                Severity::Error,
                Span::Spec,
                "micro_batches is 0; D-interleaving needs at least one micro-batch",
            )
            .with_hint("set micro_batches to 1 to disable D-interleaving"),
        );
    }

    let domain = spec.group_count() as u32;
    for &(from, to) in &spec.group_deps {
        if from >= domain || to >= domain {
            out.push(
                Diagnostic::new(
                    "spec.group-dep-range",
                    Severity::Warn,
                    Span::Spec,
                    format!(
                        "group dependency ({from} -> {to}) references a group outside \
                         the populated range 0..{domain} and has no effect",
                    ),
                )
                .with_hint("declare dependencies between assigned group ids only"),
            );
        }
    }

    out
}

/// Chain dims and table dims draw from the same small set, so mismatches
/// and matches are both common; 0 is a zero-cardinality chain.
const DIMS: [usize; 4] = [0, 4, 8, 16];
/// Lookup rates, the non-positive ones zero-cardinality.
const RATES: [f64; 4] = [0.0, -1.0, 1.0, 2.5];
const KINDS: [ModuleKind; 4] = [
    ModuleKind::DnnTower,
    ModuleKind::Attention,
    ModuleKind::Fm,
    ModuleKind::CoAction,
];

/// One chain: 0–3 fields out of 0..24 (repeats across chains are
/// duplicates; none is an empty chain), 0–2 tables out of 0..10, a dim, a
/// lookup rate, a group of 0..4, and whether it is interleave-excluded.
#[allow(clippy::type_complexity)]
fn chain_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<usize>, usize, usize, u32, bool)> {
    (
        proptest::collection::vec(0u32..24, 0..4),
        proptest::collection::vec(0usize..10, 0..3),
        0usize..DIMS.len(),
        0usize..RATES.len(),
        0u32..4,
        proptest::bool::ANY,
    )
}

/// One module: a kind and 0–4 input fields out of 0..30 (fields no chain
/// produces are dangling; chain fields no module reads are unused).
fn module_strategy() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (
        0usize..KINDS.len(),
        proptest::collection::vec(0u32..30, 0..5),
    )
}

/// A random spec and an optional table-dims oracle over tables 0..12
/// (tables 10 and 11 no chain uses; absent tables are unknown).
fn case_strategy() -> impl Strategy<Value = (WdlSpec, Option<BTreeMap<usize, usize>>)> {
    (
        proptest::collection::vec(chain_strategy(), 0..8),
        proptest::collection::vec(module_strategy(), 0..4),
        0usize..3,
        proptest::collection::vec((0u32..6, 0u32..6), 0..3),
        proptest::bool::ANY,
        proptest::collection::vec((0usize..12, 1usize..DIMS.len()), 0..12),
    )
        .prop_map(|(chains, modules, micro, group_deps, with_dims, dims)| {
            let chains = chains
                .into_iter()
                .map(|(fields, tables, dim, rate, group, excluded)| {
                    let mut c = EmbeddingChain::for_table(0, 8, fields, 1.0);
                    c.tables = tables;
                    c.dim = DIMS[dim];
                    c.ids_per_instance = RATES[rate];
                    c.group = group;
                    c.interleave_excluded = excluded;
                    c
                })
                .collect();
            let modules = modules
                .into_iter()
                .map(|(kind, input_fields)| InteractionModule {
                    kind: KINDS[kind],
                    input_fields,
                    flops_per_instance: 1000.0,
                    bytes_per_instance: 64.0,
                    params: 500.0,
                    output_width: 16,
                    micro_ops_forward: 20,
                })
                .collect();
            let spec = WdlSpec {
                name: "lint-oracle".into(),
                io_bytes_per_instance: 100.0,
                chains,
                modules,
                mlp: MlpSpec::new(16, vec![64, 1]),
                micro_batches: micro,
                group_deps,
            };
            let dims = with_dims.then(|| dims.into_iter().map(|(t, d)| (t, DIMS[d])).collect());
            (spec, dims)
        })
}

/// The table-indexed form of a dims map, with `pad` unknown tables past
/// its last key.
fn dense_dims(dims: &BTreeMap<usize, usize>, pad: usize) -> Vec<Option<usize>> {
    let n = dims.keys().next_back().map_or(0, |&t| t + 1);
    let mut out = vec![None; n + pad];
    for (&t, &d) in dims {
        out[t] = Some(d);
    }
    out
}

proptest! {
    #[test]
    fn lint_spec_matches_the_ordered_map_reference(
        case in case_strategy(),
        pad in 0usize..3,
    ) {
        let (spec, dims) = case;
        let dense = dims.as_ref().map(|d| dense_dims(d, pad));
        prop_assert_eq!(
            lint_spec(&spec, dense.as_deref()),
            reference_lint_spec(&spec, dims.as_ref())
        );
    }
}

#[test]
fn the_oracle_sees_every_spec_rule() {
    // One spec tripping every rule, so the property above compares real
    // findings and not only empty lists.
    let mut a = EmbeddingChain::for_table(0, 8, vec![0, 1], 1.0);
    a.tables = vec![0, 1];
    let mut b = EmbeddingChain::for_table(2, 8, vec![1], 1.0);
    b.dim = 0;
    let empty = EmbeddingChain::for_table(3, 8, Vec::new(), 1.0);
    let module = |kind, input_fields| InteractionModule {
        kind,
        input_fields,
        flops_per_instance: 1000.0,
        bytes_per_instance: 64.0,
        params: 500.0,
        output_width: 16,
        micro_ops_forward: 20,
    };
    let spec = WdlSpec {
        name: "every-rule".into(),
        io_bytes_per_instance: 100.0,
        chains: vec![a, b, empty],
        modules: vec![
            module(ModuleKind::Attention, Vec::new()),
            module(ModuleKind::DnnTower, vec![1, 9]),
        ],
        mlp: MlpSpec::new(16, vec![64, 1]),
        micro_batches: 0,
        group_deps: vec![(0, 3)],
    };
    let dims: BTreeMap<usize, usize> = [(0, 8), (1, 16)].into_iter().collect();
    let got = lint_spec(&spec, Some(&dense_dims(&dims, 1)));
    assert_eq!(got, reference_lint_spec(&spec, Some(&dims)));
    let rules: BTreeSet<&str> = got.iter().map(|d| d.rule.as_str()).collect();
    let every: BTreeSet<&str> = [
        "spec.duplicate-field",
        "spec.empty-chain",
        "spec.zero-cardinality",
        "spec.dim-mismatch",
        "spec.no-input-module",
        "spec.dangling-input",
        "spec.unused-field",
        "spec.zero-micro-batches",
        "spec.group-dep-range",
    ]
    .into_iter()
    .collect();
    assert_eq!(rules, every, "{got:?}");
}
