//! Deterministic fault plans.
//!
//! Production WDL clusters lose workers, saturate NICs, and grow stragglers;
//! a reproduction has to inject those failures *deterministically* so a
//! crash-and-recover run can be compared bit for bit against an
//! uninterrupted one. A [`FaultPlan`] is a seeded schedule of
//! [`FaultEvent`]s pinned to iteration numbers — nothing samples at
//! runtime; the seed only perturbs detection latency downstream.
//!
//! Plans round-trip through a compact text grammar
//! (`repro recover --fault-plan`):
//!
//! ```text
//! seed=7;crash@3:w0;nic@5:p25:i2;slow@7:w1:p50:i3
//! ```
//!
//! * `seed=N` — optional, defaults to 0; feeds detection jitter.
//! * `crash@K[:wW]` — worker `W` (default 0) crashes at iteration `K`.
//! * `nic@K:pP[:iN]` — NIC bandwidth drops to `P`% for `N` iterations
//!   (default 1) starting at `K`; `p0` is a full outage.
//! * `slow@K:wW:pP[:iN]` — worker `W` computes at `P`% of nominal speed
//!   for `N` iterations (default 1); `p50` is a 2x straggler.

use std::fmt;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker process dies and must be replaced; training cannot continue
    /// past the iteration without a restore.
    WorkerCrash {
        /// Index of the crashing worker.
        worker: usize,
    },
    /// NIC bandwidth degrades to `factor_pct`% of nominal for `iters`
    /// iterations. `factor_pct == 0` models a partitioned network: every
    /// collective fails until the outage ends.
    NicDegrade {
        /// Remaining bandwidth, percent of nominal.
        factor_pct: u32,
        /// Affected iterations.
        iters: u32,
    },
    /// One worker computes at `factor_pct`% of nominal speed for `iters`
    /// iterations (a straggler slows every synchronous step it joins).
    Straggler {
        /// Index of the slow worker.
        worker: usize,
        /// Compute speed, percent of nominal.
        factor_pct: u32,
        /// Affected iterations.
        iters: u32,
    },
}

/// A fault pinned to an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Iteration (0-based) at which the fault fires.
    pub at_iter: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A seeded, deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed perturbing *detection* (heartbeat jitter), never the schedule.
    pub seed: u64,
    /// Scheduled faults, in parse order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses the `--fault-plan` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in text.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed '{seed}' in fault plan"))?;
                continue;
            }
            let (verb, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("bad fault event '{part}' (expected verb@iter...)"))?;
            let mut fields = rest.split(':');
            let at_iter: u64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad iteration in fault event '{part}'"))?;
            let mut worker: Option<usize> = None;
            let mut pct: Option<u32> = None;
            let mut iters: Option<u32> = None;
            for field in fields {
                if let Some(w) = field.strip_prefix('w') {
                    worker = Some(
                        w.parse()
                            .map_err(|_| format!("bad worker field '{field}' in '{part}'"))?,
                    );
                } else if let Some(p) = field.strip_prefix('p') {
                    pct = Some(
                        p.parse()
                            .map_err(|_| format!("bad percent field '{field}' in '{part}'"))?,
                    );
                } else if let Some(i) = field.strip_prefix('i') {
                    iters = Some(
                        i.parse()
                            .map_err(|_| format!("bad duration field '{field}' in '{part}'"))?,
                    );
                } else {
                    return Err(format!("unknown field '{field}' in fault event '{part}'"));
                }
            }
            let kind = match verb {
                "crash" => FaultKind::WorkerCrash {
                    worker: worker.unwrap_or(0),
                },
                "nic" => FaultKind::NicDegrade {
                    factor_pct: pct
                        .ok_or_else(|| format!("nic event '{part}' needs a pP field"))?,
                    iters: iters.unwrap_or(1).max(1),
                },
                "slow" => {
                    let factor_pct =
                        pct.ok_or_else(|| format!("slow event '{part}' needs a pP field"))?;
                    if factor_pct == 0 {
                        return Err(format!("slow event '{part}': p0 would never finish"));
                    }
                    FaultKind::Straggler {
                        worker: worker
                            .ok_or_else(|| format!("slow event '{part}' needs a wW field"))?,
                        factor_pct,
                        iters: iters.unwrap_or(1).max(1),
                    }
                }
                other => return Err(format!("unknown fault verb '{other}' in '{part}'")),
            };
            plan.events.push(FaultEvent { at_iter, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for e in &self.events {
            match e.kind {
                FaultKind::WorkerCrash { worker } => {
                    write!(f, ";crash@{}:w{worker}", e.at_iter)?;
                }
                FaultKind::NicDegrade { factor_pct, iters } => {
                    write!(f, ";nic@{}:p{factor_pct}:i{iters}", e.at_iter)?;
                }
                FaultKind::Straggler {
                    worker,
                    factor_pct,
                    iters,
                } => {
                    write!(f, ";slow@{}:w{worker}:p{factor_pct}:i{iters}", e.at_iter)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let text = "seed=7;crash@3:w0;nic@5:p25:i2;slow@7:w1:p50:i3";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.to_string(), text);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let plan = FaultPlan::parse("crash@2;nic@4:p0").unwrap();
        assert_eq!(plan.seed, 0);
        assert_eq!(plan.events[0].kind, FaultKind::WorkerCrash { worker: 0 });
        assert_eq!(
            plan.events[1].kind,
            FaultKind::NicDegrade {
                factor_pct: 0,
                iters: 1
            }
        );
    }

    #[test]
    fn events_keep_their_iteration_in_plan_order() {
        // The recovery loop fires each event whose `at_iter` is the step
        // about to run, scanning `events` in plan order.
        let plan = FaultPlan::parse("crash@3;nic@3:p50;slow@9:w2:p40").unwrap();
        let iters: Vec<u64> = plan.events.iter().map(|e| e.at_iter).collect();
        assert_eq!(iters, [3, 3, 9]);
        assert!(FaultPlan::none().events.is_empty());
    }

    #[test]
    fn malformed_plans_are_rejected_with_reasons() {
        for (text, needle) in [
            ("boom@3", "unknown fault verb"),
            ("crash3", "expected verb@iter"),
            ("crash@x", "bad iteration"),
            ("nic@3", "needs a pP field"),
            ("slow@3:p50", "needs a wW field"),
            ("slow@3:w0:p0", "never finish"),
            ("crash@3:z9", "unknown field"),
            ("seed=abc", "bad seed"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "'{text}' -> '{err}'");
        }
    }

    #[test]
    fn empty_and_whitespace_plans_parse_to_none() {
        assert!(FaultPlan::parse("").unwrap().events.is_empty());
        assert!(FaultPlan::parse(" ; ;").unwrap().events.is_empty());
    }
}
