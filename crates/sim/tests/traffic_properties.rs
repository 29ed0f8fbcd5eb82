//! Property test of the traffic generator against a plain reference.
//!
//! The reference below is the generator as it stood before its Zipf draw
//! gained a head table: the two splitmix streams, the Poisson/MMPP arrival
//! clock and Hörmann's rejection-inversion, one `powf` per draw and nothing
//! cached. `TrafficGen::next_into` must emit the same requests, arrival by
//! arrival and ID by ID, and stop at the same count, on random plans:
//! Poisson and MMPP arrivals, vocabularies log-scaled from 1 to 10⁹, Zipf
//! exponents from 0 (uniform) to 4 with exactly 1 (the `ln`/`exp` branch)
//! weighted in, and 1 to 16 IDs per request.

use picasso_obs::checksum::splitmix64;
use picasso_sim::{ArrivalProcess, TrafficPlan};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        let x = self.0;
        self.0 = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(x)
    }

    fn open_unit(&mut self) -> f64 {
        1.0 - (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[derive(Debug, Clone)]
struct ZipfSampler {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    reject_s: f64,
}

impl ZipfSampler {
    fn new(n: u64, s: f64) -> ZipfSampler {
        let nf = n as f64;
        let h_x1 = Self::h_integral(1.5, s) - 1.0;
        let h_n = Self::h_integral(nf + 0.5, s);
        let reject_s =
            2.0 - Self::h_integral_inverse(Self::h_integral(2.5, s) - Self::h(2.0, s), s);
        ZipfSampler {
            n: nf,
            s,
            h_x1,
            h_n,
            reject_s,
        }
    }

    fn h_integral(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    }

    fn h(x: f64, s: f64) -> f64 {
        x.powf(-s)
    }

    fn h_integral_inverse(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + (1.0 - s) * x).powf(1.0 / (1.0 - s))
        }
    }

    fn sample(&self, rng: &mut SplitMix) -> u64 {
        if self.s == 0.0 {
            return (rng.next_u64() % self.n as u64).min(self.n as u64 - 1);
        }
        loop {
            let u = self.h_n + rng.open_unit() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inverse(u, self.s);
            let k = x.clamp(1.0, self.n).round();
            if k - x <= self.reject_s || u >= Self::h_integral(k + 0.5, self.s) - Self::h(k, self.s)
            {
                return (k as u64 - 1).min(self.n as u64 - 1);
            }
        }
    }
}

/// The reference replay of one plan.
struct RefGen {
    plan: TrafficPlan,
    zipf: ZipfSampler,
    arrivals: SplitMix,
    ids: SplitMix,
    now_ns: u64,
    emitted: u64,
    bursting: bool,
    state_until_ns: u64,
}

impl RefGen {
    fn new(plan: TrafficPlan) -> RefGen {
        let zipf = ZipfSampler::new(plan.users, plan.zipf_s());
        let mut arrivals = SplitMix(plan.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let ids = SplitMix(arrivals.next_u64());
        RefGen {
            zipf,
            arrivals,
            ids,
            now_ns: 0,
            emitted: 0,
            bursting: false,
            state_until_ns: 0,
            plan,
        }
    }

    fn exp_ns(&mut self, rate_hz: u64) -> u64 {
        let u = self.arrivals.open_unit();
        let secs = -u.ln() / rate_hz as f64;
        ((secs * 1e9).round() as u64).max(1)
    }

    fn dwell_ns(&mut self, dwell_ms: u64) -> u64 {
        let u = self.arrivals.open_unit();
        ((-u.ln() * dwell_ms as f64 * 1e6).round() as u64).max(1)
    }

    fn advance_clock(&mut self) {
        match self.plan.process {
            ArrivalProcess::Poisson { rate_hz } => {
                self.now_ns += self.exp_ns(rate_hz);
            }
            ArrivalProcess::Mmpp {
                base_hz,
                burst_hz,
                dwell_ms,
            } => {
                if self.state_until_ns == 0 {
                    let dwell = self.dwell_ns(dwell_ms);
                    self.state_until_ns = self.now_ns + dwell;
                }
                loop {
                    let rate = if self.bursting { burst_hz } else { base_hz };
                    let dt = self.exp_ns(rate);
                    if self.now_ns + dt <= self.state_until_ns {
                        self.now_ns += dt;
                        return;
                    }
                    self.now_ns = self.state_until_ns;
                    self.bursting = !self.bursting;
                    let dwell = self.dwell_ns(dwell_ms);
                    self.state_until_ns = self.now_ns + dwell;
                }
            }
        }
    }

    fn next(&mut self) -> Option<(u64, Vec<u64>)> {
        if self.emitted >= self.plan.requests {
            return None;
        }
        self.advance_clock();
        let mut ids = Vec::with_capacity(self.plan.ids_per_request as usize);
        for _ in 0..self.plan.ids_per_request {
            ids.push(self.zipf.sample(&mut self.ids));
        }
        self.emitted += 1;
        Some((self.now_ns, ids))
    }
}

/// Vocabulary edges the log scale rarely lands on exactly.
const EDGE_USERS: [u64; 4] = [1, 2, 3, 1_000_000_000];

fn plan_strategy() -> impl Strategy<Value = TrafficPlan> {
    (
        (
            0u64..u64::MAX,
            0u8..2,
            1u64..200_000,
            1u64..400_000,
            1u64..100,
        ),
        (0u8..8, 0.0f64..9.0, 0u8..8, 0u32..401),
        (1u32..17, 1u64..4_000),
    )
        .prop_map(
            |(
                (seed, mmpp, rate, burst, dwell_ms),
                (edge, log_users, zipf_pick, zipf),
                (ids, requests),
            )| {
                let users = match EDGE_USERS.get(edge as usize) {
                    Some(&n) => n,
                    None => (10f64.powf(log_users).round() as u64).clamp(1, 1_000_000_000),
                };
                let zipf_centi = match zipf_pick {
                    0 => 0,
                    1 => 100,
                    _ => zipf,
                };
                let process = if mmpp == 0 {
                    ArrivalProcess::Poisson { rate_hz: rate }
                } else {
                    ArrivalProcess::Mmpp {
                        base_hz: rate / 8 + 1,
                        burst_hz: burst,
                        dwell_ms,
                    }
                };
                TrafficPlan {
                    seed,
                    process,
                    users,
                    zipf_centi,
                    ids_per_request: ids,
                    requests,
                }
            },
        )
}

proptest! {
    /// `TrafficGen::next_into` replays the reference request for request.
    #[test]
    fn generator_matches_the_reference(plan in plan_strategy()) {
        let mut reference = RefGen::new(plan.clone());
        let mut gen = plan.generator();
        let mut ids = Vec::new();
        let mut n = 0u64;
        loop {
            ids.clear();
            let got = gen.next_into(&mut ids);
            let want = reference.next();
            match want {
                Some((at_ns, want_ids)) => {
                    prop_assert_eq!(got, Some(at_ns), "{} request {}", plan, n);
                    prop_assert_eq!(&ids, &want_ids, "{} request {}", plan, n);
                }
                None => {
                    prop_assert_eq!(got, None, "{} runs past {} requests", plan, n);
                    prop_assert!(ids.is_empty());
                    break;
                }
            }
            n += 1;
        }
        prop_assert_eq!(n, plan.requests);
        prop_assert_eq!(gen.emitted(), plan.requests);
    }
}
