//! PICASSO configuration: the user-facing knobs of §III.

use picasso_exec::{Optimizations, TrainerOptions, WarmupConfig};
use picasso_graph::MAX_BATCH;
use picasso_sim::MachineSpec;

/// Builder-style configuration of a PICASSO training session.
#[derive(Debug, Clone)]
pub struct PicassoConfig {
    /// The optimization pass pipeline to apply.
    pub optimizations: Optimizations,
    /// Hot-storage budget in bytes (HybridHash).
    pub hot_bytes: u64,
    /// Explicit K-interleaving group count (None = Eq. 3 auto).
    pub groups: Option<usize>,
    /// Explicit micro-batch count (None = heuristic).
    pub micro_batches: Option<usize>,
    /// Explicit per-executor batch (None = Eq. 2 auto).
    pub batch_per_executor: Option<usize>,
    /// Worker machines.
    pub machines: usize,
    /// Machine preset.
    pub machine: MachineSpec,
    /// Iterations to simulate per run.
    pub iterations: usize,
    /// Warm-up configuration. Runs take the Hot-storage budget from
    /// `hot_bytes`, not from `warmup.hot_bytes` (see
    /// `TrainerOptions::warmup`).
    pub warmup: WarmupConfig,
    /// Embedding tables excluded from K-interleaving ordering (the paper's
    /// *preset excluded embedding*).
    pub excluded_tables: Vec<usize>,
    /// Half-precision quantized communication (precision-lossy extension).
    pub quantized_comm: bool,
    /// Extra control-dependency edges between K-interleaving groups
    /// (layered over the implicit Fig. 8c stagger). Self/backward edges
    /// are rejected by static analysis before scheduling.
    pub group_deps: Vec<(u32, u32)>,
}

impl Default for PicassoConfig {
    fn default() -> Self {
        PicassoConfig {
            optimizations: Optimizations::all(),
            hot_bytes: 1 << 30,
            groups: None,
            micro_batches: None,
            batch_per_executor: None,
            machines: 1,
            machine: MachineSpec::eflops(),
            iterations: 6,
            warmup: WarmupConfig::default(),
            excluded_tables: Vec::new(),
            quantized_comm: false,
            group_deps: Vec::new(),
        }
    }
}

impl PicassoConfig {
    /// Full optimizations on one EFLOPS node.
    pub fn new() -> Self {
        PicassoConfig::default()
    }

    /// Sets the worker machine count.
    pub fn machines(mut self, machines: usize) -> Self {
        assert!(machines >= 1);
        self.machines = machines;
        self
    }

    /// Sets the Hot-storage budget.
    pub fn hot_storage(mut self, bytes: u64) -> Self {
        self.hot_bytes = bytes;
        self
    }

    /// Overrides the K-interleaving group count.
    pub fn interleaving_groups(mut self, groups: usize) -> Self {
        self.groups = Some(groups);
        self
    }

    /// Overrides the micro-batch count.
    pub fn micro_batches(mut self, micro: usize) -> Self {
        self.micro_batches = Some(micro);
        self
    }

    /// Fixes the per-executor batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch_per_executor = Some(batch);
        self
    }

    /// Replaces the optimization pipeline (e.g. for ablations).
    pub fn optimizations(mut self, o: Optimizations) -> Self {
        self.optimizations = o;
        self
    }

    /// Excludes tables from K-interleaving control dependencies.
    pub fn exclude_tables(mut self, tables: Vec<usize>) -> Self {
        self.excluded_tables = tables;
        self
    }

    /// Enables half-precision quantized communication.
    pub fn quantized_communication(mut self, on: bool) -> Self {
        self.quantized_comm = on;
        self
    }

    /// Declares extra control-dependency edges between K-interleaving
    /// groups.
    pub fn group_dependencies(mut self, deps: Vec<(u32, u32)>) -> Self {
        self.group_deps = deps;
        self
    }

    /// Sets iterations simulated per run.
    pub fn iterations(mut self, iterations: usize) -> Self {
        assert!(iterations >= 1);
        self.iterations = iterations;
        self
    }

    /// Converts to the executor's option struct.
    pub fn trainer_options(&self) -> TrainerOptions {
        TrainerOptions {
            machines: self.machines,
            machine: self.machine.clone(),
            iterations: self.iterations,
            batch_per_executor: self.batch_per_executor,
            micro_batches: self.micro_batches,
            groups: self.groups,
            hot_bytes: self.hot_bytes,
            warmup: self.warmup.clone(),
            max_batch: MAX_BATCH,
            excluded_tables: self.excluded_tables.clone(),
            quantized_comm: self.quantized_comm,
            group_deps: self.group_deps.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = PicassoConfig::new()
            .machines(16)
            .hot_storage(2 << 30)
            .interleaving_groups(5)
            .micro_batches(3)
            .batch(4096)
            .iterations(4);
        assert_eq!(c.machines, 16);
        assert_eq!(c.hot_bytes, 2 << 30);
        let o = c.trainer_options();
        assert_eq!(o.groups, Some(5));
        assert_eq!(o.micro_batches, Some(3));
        assert_eq!(o.batch_per_executor, Some(4096));
        assert_eq!(o.iterations, 4);
    }

    #[test]
    fn extension_knobs_flow_through() {
        let c = PicassoConfig::new()
            .exclude_tables(vec![3, 7])
            .quantized_communication(true);
        let o = c.trainer_options();
        assert_eq!(o.excluded_tables, vec![3, 7]);
        assert!(o.quantized_comm);
    }

    #[test]
    fn defaults_enable_everything() {
        use picasso_exec::PassId;
        let c = PicassoConfig::default();
        assert!(c.optimizations.enables(PassId::DPacking));
        assert!(c.optimizations.enables(PassId::Caching));
        assert!(c.batch_per_executor.is_none());
    }
}
