//! The two training workloads: `ablation_ladder` and `cluster_trace`.
//!
//! One op trains one scenario through `exec::run` (warm-up, passes, Eq. 1
//! planner, lint, simulation, report) and then runs the observability
//! overlays over the finished schedule, as `perfgate` and
//! `repro --analyze --trace-out` do. Scenarios are cycled in a fixed order.

use crate::stats;
use crate::trace::Tracer;
use crate::{Sim, Workload};
use picasso_bench::scenarios::{perf_scenarios, suite_config, Scenario};
use picasso_core::data::{BatchGenerator, DatasetSpec};
use picasso_core::exec::{
    analysis_report_json, analyze_run, chrome_trace, flight_record, run, run_warmup, simulate,
    stage_lints, RunArtifacts, SimConfig, TrainerOptions, TrainingReport,
};
use picasso_core::graph::graph_stats;
use picasso_core::obs::flight::{fnv1a64, FlightConfig, FlightRecorder};
use picasso_core::sim::TaskCategory;
use picasso_core::{PassId, Strategy};
use std::sync::Arc;

/// Which overlays an op runs after training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlays {
    /// `analyze_run` + `flight_record` (the perf-suite tap).
    Perfgate,
    /// The analysis report document, the flight tap and the serialized
    /// Chrome trace (`repro --analyze --trace-out`).
    AnalyzeAndTrace,
}

struct Rung {
    sc: Scenario,
    data: Arc<DatasetSpec>,
}

/// What the analysis overlay produced.
enum Analysis {
    /// The analyzer's own critical-path digest.
    Digest(u64),
    /// The serialized analysis report document.
    Document(String),
}

/// What a finished op leaves for its check.
struct Output {
    arts: RunArtifacts,
    analysis: Analysis,
    flight: FlightRecorder,
    chrome_bytes: usize,
}

/// Digests of an op's outputs that a repeat must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    report: u64,
    analysis: u64,
    flight: u64,
    chrome_bytes: usize,
}

/// A cycle of training scenarios under one session shape.
pub struct Training {
    rungs: Vec<Rung>,
    opts: TrainerOptions,
    overlays: Overlays,
    refs: Vec<Option<Reference>>,
    ips: Vec<f64>,
    last: Option<Output>,
}

impl Training {
    /// The eight perf-suite rungs (W&D and CAN x base/pack/inter/cache) on
    /// one node, each followed by the perf-suite overlays.
    pub fn ablation_ladder(seed: u64) -> Training {
        Training::new(perf_scenarios(), 1, seed, Overlays::Perfgate)
    }

    /// The unpacked W&D baseline and the interleaved W&D rung on four
    /// nodes, each followed by the analysis report and the Chrome trace.
    pub fn cluster_trace(seed: u64) -> Training {
        let scs = perf_scenarios()
            .into_iter()
            .filter(|s| s.name == "wdl_base" || s.name == "wdl_inter")
            .collect();
        Training::new(scs, 4, seed, Overlays::AnalyzeAndTrace)
    }

    fn new(scs: Vec<Scenario>, machines: usize, seed: u64, overlays: Overlays) -> Training {
        let mut cfg = suite_config().machines(machines);
        cfg.warmup.seed = seed;
        let rungs: Vec<Rung> = scs
            .into_iter()
            .map(|sc| Rung {
                data: sc.model.default_dataset().shared(),
                sc,
            })
            .collect();
        Training {
            refs: vec![None; rungs.len()],
            ips: vec![0.0; rungs.len()],
            rungs,
            opts: cfg.trainer_options(),
            overlays,
            last: None,
        }
    }

    /// The simulation shape `exec::run` derived for this op.
    fn sim_config(&self, arts: &RunArtifacts) -> SimConfig {
        SimConfig {
            batch_per_executor: arts.output.batch,
            iterations: self.opts.iterations,
            machines: self.opts.machines,
            machine: self.opts.machine.clone(),
            quantized_comm: self.opts.quantized_comm,
        }
    }

    /// Times the layers `exec::run` reaches internally by calling each
    /// one's public function again on the op's inputs, and checks the
    /// replayed simulation against the op's own.
    fn probe(&self, rung: &Rung, out: &Output, tr: &mut Tracer) -> Result<(), String> {
        let arts = &out.arts;
        let mut wcfg = self.opts.warmup.clone();
        wcfg.hot_bytes = if rung.sc.pipeline.enables(PassId::Caching) {
            self.opts.hot_bytes
        } else {
            0
        };
        let (warmup, warmup_ms) = tr.probe(|| run_warmup(&rung.data, &wcfg));
        if warmup.total_ids != arts.warmup.total_ids {
            return Err("warm-up probe drew a different ID stream".into());
        }
        let (_, batches_ms) = tr.probe(|| {
            let mut gen =
                BatchGenerator::with_max_vocab(Arc::clone(&rung.data), wcfg.seed, wcfg.max_vocab);
            (0..wcfg.batches)
                .map(|_| gen.next_batch(wcfg.batch_size).total_ids())
                .sum::<usize>()
        });
        let cfg = self.sim_config(arts);
        let (_, stage_ms) = tr.probe(|| stage_lints(&arts.spec, Strategy::Hybrid, &cfg));
        let (sim, simulate_ms) = tr.probe(|| simulate(&arts.spec, Strategy::Hybrid, &cfg));
        let sim = sim.map_err(|e| format!("replayed simulation failed: {e}"))?;
        let r = &arts.report;
        let (report, telemetry_ms) = tr.probe(|| {
            TrainingReport::from_simulation(
                r.framework.clone(),
                r.model.clone(),
                &sim,
                graph_stats(&arts.spec),
                r.micro_batches,
                r.groups,
                r.cache_hit_ratio,
            )
        });
        if sim.result.makespan != arts.output.result.makespan
            || report.ips_per_node.to_bits() != r.ips_per_node.to_bits()
        {
            return Err(format!(
                "{}: traced replay diverged (makespan {:?} vs {:?}, ips {} vs {})",
                rung.sc.name,
                sim.result.makespan,
                arts.output.result.makespan,
                report.ips_per_node,
                r.ips_per_node
            ));
        }
        tr.carve(
            "exec.run",
            &[
                ("exec.warmup.ms", warmup_ms),
                ("lint.stage.ms", stage_ms),
                ("exec.simulate.ms", simulate_ms),
                ("exec.telemetry.ms", telemetry_ms),
            ],
            "exec.prepare.self_ms",
        );
        let tasks = sim.result.records.len();
        tr.detail("data.batches.ms", batches_ms);
        tr.detail("exec.warmup.ids", warmup.total_ids as f64);
        let pass_ns: u64 = arts.pass_reports.iter().map(|p| p.duration_ns).sum();
        tr.detail("graph.pass.ms", pass_ns as f64 / 1e6);
        tr.detail("exec.simulate.tasks", tasks as f64);
        tr.detail(
            "exec.simulate.ns_per_task",
            simulate_ms * 1e6 / tasks.max(1) as f64,
        );
        tr.detail("obs.flight.events", out.flight.stats().recorded as f64);
        tr.detail("obs.chrome.bytes", out.chrome_bytes as f64);
        let exposed = [
            ("sim.exposed.data_io", TaskCategory::DataIo),
            ("sim.exposed.memory", TaskCategory::Memory),
            ("sim.exposed.communication", TaskCategory::Communication),
            ("sim.exposed.computation", TaskCategory::Computation),
            ("sim.exposed.sync", TaskCategory::Sync),
        ];
        for (name, cat) in exposed {
            tr.detail(name, r.exposed.get(&cat).copied().unwrap_or(0.0));
        }
        let (micro, groups) = planned_interleaving(arts);
        let dag = analyze_run(&arts.output, micro, groups);
        let overlap = dag.overlap("comm_under_compute").unwrap_or(0.0);
        tr.detail("sim.overlap.comm_under_compute", overlap);
        tr.detail("sim.cache_hit_ratio", r.cache_hit_ratio);
        tr.detail("graph.ops", r.op_stats.total_ops as f64);
        Ok(())
    }
}

fn planned_interleaving(arts: &RunArtifacts) -> (usize, usize) {
    (
        arts.spec.micro_batches.max(1),
        arts.spec.group_count().max(1),
    )
}

impl Workload for Training {
    fn cycle(&self) -> usize {
        self.rungs.len()
    }

    fn name(&self, i: usize) -> String {
        self.rungs[i].sc.name.clone()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let rung = &self.rungs[i];
        let sc = &rung.sc;
        let arts = tr
            .outer("exec.run", || {
                run(
                    sc.model,
                    &rung.data,
                    Strategy::Hybrid,
                    sc.pipeline.clone(),
                    &sc.name,
                    &self.opts,
                )
            })
            .map_err(|e| format!("{}: {e}", sc.name))?;
        let (micro, groups) = planned_interleaving(&arts);
        let analysis = tr.layer("obs.analysis.ms", || match self.overlays {
            Overlays::Perfgate => Analysis::Digest(analyze_run(&arts.output, micro, groups).digest),
            Overlays::AnalyzeAndTrace => Analysis::Document(
                analysis_report_json(&sc.name, &arts.output, micro, groups).to_string(),
            ),
        });
        let flight = tr.layer("obs.flight.ms", || {
            flight_record(&arts.output, &FlightConfig::default())
        });
        let chrome_bytes = match self.overlays {
            Overlays::Perfgate => 0,
            Overlays::AnalyzeAndTrace => tr.layer("obs.chrome.ms", || {
                chrome_trace(&arts.output).to_json().len()
            }),
        };
        self.last = Some(Output {
            arts,
            analysis,
            flight,
            chrome_bytes,
        });
        Ok(())
    }

    fn check(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let out = self.last.take().ok_or("op left no output")?;
        let got = Reference {
            report: fnv1a64(out.arts.report.to_json().to_string().as_bytes()),
            analysis: match &out.analysis {
                Analysis::Digest(d) => *d,
                Analysis::Document(doc) => fnv1a64(doc.as_bytes()),
            },
            flight: out.flight.post_mortem().digest(),
            chrome_bytes: out.chrome_bytes,
        };
        let name = &self.rungs[i].sc.name;
        match self.refs[i] {
            None => {
                self.refs[i] = Some(got);
                self.ips[i] = out.arts.report.ips_per_node;
            }
            Some(want) if want != got => {
                return Err(format!(
                    "{name}: repeat differs from the first run: {got:?} vs {want:?}"
                ))
            }
            Some(_) => {}
        }
        if tr.on() {
            self.probe(&self.rungs[i], &out, tr)?;
        }
        Ok(())
    }

    fn sim(&self) -> Sim {
        Sim {
            ips_per_node: stats::geomean(&self.ips),
            ..Sim::default()
        }
    }
}
