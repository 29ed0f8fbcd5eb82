//! The serving run report: tail latency, queue depth, cache effectiveness,
//! SLO violations, and throughput/capacity — with a bit-stable digest.

use picasso_obs::Json;

/// The `kind` discriminator of a serialized serve report.
pub const SERVE_REPORT_KIND: &str = "picasso.serve_report";

/// Schema version of [`ServeReport::to_json`].
pub const SERVE_REPORT_SCHEMA_VERSION: u64 = 1;

/// Everything one deterministic serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scenario label.
    pub scenario: String,
    /// The traffic plan, in its exact-round-trip grammar.
    pub traffic: String,
    /// Batching policy: size bound.
    pub max_batch: u64,
    /// Batching policy: linger bound in nanoseconds.
    pub max_linger_ns: u64,
    /// Admission bound on admitted-but-unserved requests; `None` when
    /// unbounded.
    pub queue_capacity: Option<u64>,
    /// Latency SLO budget in nanoseconds.
    pub slo_ns: u64,
    /// Requests the traffic plan generated.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Exact p50 end-to-end latency in nanoseconds.
    pub p50_ns: u64,
    /// Exact p95 end-to-end latency in nanoseconds.
    pub p95_ns: u64,
    /// Exact p99 end-to-end latency in nanoseconds.
    pub p99_ns: u64,
    /// Mean end-to-end latency in nanoseconds (rounded).
    pub mean_ns: u64,
    /// Highest sampled waiting-request count.
    pub max_queue_depth: u64,
    /// Requests whose latency exceeded the SLO budget.
    pub slo_violations: u64,
    /// Serving-cache hot hits (post-warm-up).
    pub cache_hot_hits: u64,
    /// Serving-cache cold hits (post-warm-up).
    pub cache_cold_hits: u64,
    /// Virtual time from first arrival to last completion, nanoseconds.
    pub duration_ns: u64,
    /// Total busy service time across all batches, nanoseconds.
    pub service_ns: u64,
}

impl ServeReport {
    /// Post-warm-up cache hit ratio in `[0, 1]`.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hot_hits + self.cache_cold_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hot_hits as f64 / total as f64
        }
    }

    /// Mean executed batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    /// Sustainable service capacity in requests/second: served requests
    /// over *busy* service time. Larger batches amortize per-batch launch
    /// overheads, so capacity grows with batch size — the other side of
    /// the latency tradeoff.
    pub fn capacity_rps(&self) -> f64 {
        if self.service_ns == 0 {
            0.0
        } else {
            self.served as f64 / (self.service_ns as f64 / 1e9)
        }
    }

    /// Achieved throughput in requests/second: served requests over the
    /// full run duration. In an open loop this tracks the offered rate
    /// (minus shed), regardless of batching.
    pub fn achieved_rps(&self) -> f64 {
        if self.duration_ns == 0 {
            0.0
        } else {
            self.served as f64 / (self.duration_ns as f64 / 1e9)
        }
    }

    /// Digest over every field — two runs of the same seeded scenario must
    /// agree bit-for-bit. It is FNV-1a's xor-multiply loop with multiplier
    /// `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3`, so it is not
    /// FNV-1a; it stays as is because the committed `srv_*` reports in
    /// `benchmarks/BENCH_2.json` pin its output.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.scenario.as_bytes());
        eat(self.traffic.as_bytes());
        for v in [
            self.max_batch,
            self.max_linger_ns,
            self.queue_capacity.map(|c| c + 1).unwrap_or(0),
            self.slo_ns,
            self.requests,
            self.served,
            self.shed,
            self.batches,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.mean_ns,
            self.max_queue_depth,
            self.slo_violations,
            self.cache_hot_hits,
            self.cache_cold_hits,
            self.duration_ns,
            self.service_ns,
        ] {
            eat(&v.to_le_bytes());
        }
        h
    }

    /// The versioned JSON document (`kind` = [`SERVE_REPORT_KIND`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(SERVE_REPORT_KIND)),
            ("schema_version", Json::UInt(SERVE_REPORT_SCHEMA_VERSION)),
            ("scenario", Json::str(&self.scenario)),
            ("traffic", Json::str(&self.traffic)),
            ("max_batch", Json::UInt(self.max_batch)),
            ("max_linger_ns", Json::UInt(self.max_linger_ns)),
            (
                "queue_capacity",
                match self.queue_capacity {
                    Some(c) => Json::UInt(c),
                    None => Json::Null,
                },
            ),
            ("slo_ns", Json::UInt(self.slo_ns)),
            ("requests", Json::UInt(self.requests)),
            ("served", Json::UInt(self.served)),
            ("shed", Json::UInt(self.shed)),
            ("batches", Json::UInt(self.batches)),
            ("p50_ns", Json::UInt(self.p50_ns)),
            ("p95_ns", Json::UInt(self.p95_ns)),
            ("p99_ns", Json::UInt(self.p99_ns)),
            ("mean_ns", Json::UInt(self.mean_ns)),
            ("max_queue_depth", Json::UInt(self.max_queue_depth)),
            ("slo_violations", Json::UInt(self.slo_violations)),
            ("cache_hot_hits", Json::UInt(self.cache_hot_hits)),
            ("cache_cold_hits", Json::UInt(self.cache_cold_hits)),
            ("cache_hit_ratio", Json::Num(self.cache_hit_ratio())),
            ("mean_batch", Json::Num(self.mean_batch())),
            ("capacity_rps", Json::Num(self.capacity_rps())),
            ("achieved_rps", Json::Num(self.achieved_rps())),
            ("duration_ns", Json::UInt(self.duration_ns)),
            ("service_ns", Json::UInt(self.service_ns)),
            ("digest", Json::str(format!("{:016x}", self.digest()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServeReport {
        ServeReport {
            scenario: "srv_test".into(),
            traffic: "seed=7;poisson@1000;users=10;zipf=0;ids=2;reqs=100".into(),
            max_batch: 16,
            max_linger_ns: 1_000_000,
            queue_capacity: Some(512),
            slo_ns: 5_000_000,
            requests: 100,
            served: 98,
            shed: 2,
            batches: 10,
            p50_ns: 900_000,
            p95_ns: 2_000_000,
            p99_ns: 4_000_000,
            mean_ns: 1_000_000,
            max_queue_depth: 17,
            slo_violations: 1,
            cache_hot_hits: 150,
            cache_cold_hits: 46,
            duration_ns: 100_000_000,
            service_ns: 40_000_000,
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = report();
        assert_eq!(r.digest(), r.digest());
        let mut r2 = r.clone();
        r2.p99_ns += 1;
        assert_ne!(r.digest(), r2.digest());
        // Unbounded vs zero-capacity queues must not collide.
        let mut r3 = r.clone();
        r3.queue_capacity = None;
        let mut r4 = r.clone();
        r4.queue_capacity = Some(0);
        assert_ne!(r3.digest(), r4.digest());
    }

    #[test]
    fn derived_rates_follow_their_definitions() {
        let r = report();
        assert!((r.mean_batch() - 9.8).abs() < 1e-12);
        assert!((r.capacity_rps() - 98.0 / 0.04).abs() < 1e-6);
        assert!((r.achieved_rps() - 980.0).abs() < 1e-6);
        assert!((r.cache_hit_ratio() - 150.0 / 196.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_the_kind_and_digest() {
        let r = report();
        let doc = r.to_json();
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some(SERVE_REPORT_KIND)
        );
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", r.digest()).as_str())
        );
        let text = doc.to_string();
        let back = picasso_obs::json::parse(&text).expect("valid json");
        assert_eq!(back.get("p99_ns").and_then(Json::as_u64), Some(4_000_000));
    }
}
