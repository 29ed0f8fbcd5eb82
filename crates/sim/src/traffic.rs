//! Deterministic open-loop traffic generation for the serving model.
//!
//! A production recommender replica sees an *open-loop* request stream: users
//! keep arriving whether or not the server keeps up, so queueing delay and
//! shed rate are consequences, never inputs. A [`TrafficPlan`] describes such
//! a stream — a seeded arrival process (Poisson, or a two-state MMPP for
//! bursty traffic) over Zipf-distributed user IDs drawn from a vocabulary of
//! millions — and [`TrafficGen`] replays it deterministically: the same plan
//! always produces the same arrival sequence, bit for bit, which is what lets
//! `repro serve` pin latency digests the way the fault plans pin recovery.
//!
//! Plans round-trip through a compact text grammar (`repro serve --plan`),
//! mirroring [`crate::fault::FaultPlan`]:
//!
//! ```text
//! seed=7;poisson@50000;users=3000000;zipf=105;ids=8;reqs=60000
//! seed=7;mmpp@20000:b160000:d40;users=3000000;zipf=105;ids=8;reqs=60000
//! ```
//!
//! * `seed=N` — optional, defaults to 0; seeds both arrivals and IDs.
//! * `poisson@R` — Poisson arrivals at `R` requests/second.
//! * `mmpp@R:bB:dD` — two-state Markov-modulated Poisson process: a calm
//!   state at `R` req/s and a burst state at `B` req/s, with exponentially
//!   distributed dwell times of mean `D` milliseconds in either state.
//! * `users=N` — user-ID vocabulary (rank 0 is the hottest user).
//! * `zipf=Z` — Zipf exponent in centi-units (`zipf=105` ⇒ s = 1.05);
//!   `zipf=0` is uniform.
//! * `ids=K` — embedding IDs looked up per request (the user ID plus K−1
//!   feature IDs drawn from the same skewed distribution).
//! * `reqs=N` — total requests the stream generates.
//!
//! Every field is an integer, so `parse` ∘ `Display` is exact.
//!
//! Each ID is one step of Hörmann's rejection-inversion, one `powf` per
//! draw, except in the skewed head (the paper's Fig. 3): there a small
//! table built per plan answers most draws with an integer lookup. Each
//! table entry is the range of draw words in which the exact path provably
//! accepts one rank, shrunk by a guard band far wider than the float
//! path's rounding error. So the table changes how fast a draw is and
//! never its result: ranks, the RNG stream and every digest downstream are
//! the exact path's.

use picasso_obs::checksum::splitmix64;
use std::fmt;

/// The arrival process of a [`TrafficPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate (requests/second).
    Poisson {
        /// Arrival rate, requests per second.
        rate_hz: u64,
    },
    /// A two-state Markov-modulated Poisson process: bursty traffic that
    /// alternates between a calm and a burst rate, dwelling in each state
    /// for an exponentially distributed time.
    Mmpp {
        /// Calm-state arrival rate, requests per second.
        base_hz: u64,
        /// Burst-state arrival rate, requests per second.
        burst_hz: u64,
        /// Mean dwell time in either state, milliseconds.
        dwell_ms: u64,
    },
}

/// A seeded, deterministic open-loop request stream description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficPlan {
    /// Seed for both the arrival clock and the ID draws.
    pub seed: u64,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// User-ID vocabulary size (rank 0 = hottest).
    pub users: u64,
    /// Zipf exponent in centi-units (`105` ⇒ s = 1.05; `0` = uniform).
    pub zipf_centi: u32,
    /// Embedding IDs looked up per request.
    pub ids_per_request: u32,
    /// Total requests in the stream.
    pub requests: u64,
}

impl Default for TrafficPlan {
    /// A moderate seeded Poisson stream over three million users — the
    /// default `repro serve` scenario shape.
    fn default() -> Self {
        TrafficPlan {
            seed: 0,
            process: ArrivalProcess::Poisson { rate_hz: 20_000 },
            users: 3_000_000,
            zipf_centi: 105,
            ids_per_request: 8,
            requests: 20_000,
        }
    }
}

impl TrafficPlan {
    /// The Zipf exponent as a float.
    pub fn zipf_s(&self) -> f64 {
        self.zipf_centi as f64 / 100.0
    }

    /// Builds the deterministic generator replaying this plan.
    pub fn generator(&self) -> TrafficGen {
        TrafficGen::new(self.clone())
    }

    /// Parses the `repro serve --plan` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<TrafficPlan, String> {
        let mut plan = TrafficPlan::default();
        let mut process: Option<ArrivalProcess> = None;
        for part in text.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((key, value)) = part.split_once('=') {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("bad value '{value}' for '{key}' in traffic plan"))?;
                let narrow = || {
                    u32::try_from(n).map_err(|_| {
                        format!("value {n} for '{key}' exceeds {} in traffic plan", u32::MAX)
                    })
                };
                match key {
                    "seed" => plan.seed = n,
                    "users" => plan.users = n,
                    "zipf" => plan.zipf_centi = narrow()?,
                    "ids" => plan.ids_per_request = narrow()?,
                    "reqs" => plan.requests = n,
                    other => return Err(format!("unknown field '{other}' in traffic plan")),
                }
                continue;
            }
            let (verb, rest) = part.split_once('@').ok_or_else(|| {
                format!("bad traffic term '{part}' (expected key=value or verb@rate)")
            })?;
            let mut fields = rest.split(':');
            let rate: u64 = fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad rate in traffic term '{part}'"))?;
            let mut burst: Option<u64> = None;
            let mut dwell: Option<u64> = None;
            for field in fields {
                if let Some(b) = field.strip_prefix('b') {
                    burst = Some(
                        b.parse()
                            .map_err(|_| format!("bad burst field '{field}' in '{part}'"))?,
                    );
                } else if let Some(d) = field.strip_prefix('d') {
                    dwell = Some(
                        d.parse()
                            .map_err(|_| format!("bad dwell field '{field}' in '{part}'"))?,
                    );
                } else {
                    return Err(format!("unknown field '{field}' in traffic term '{part}'"));
                }
            }
            process = Some(match verb {
                "poisson" => ArrivalProcess::Poisson { rate_hz: rate },
                "mmpp" => ArrivalProcess::Mmpp {
                    base_hz: rate,
                    burst_hz: burst
                        .ok_or_else(|| format!("mmpp term '{part}' needs a bB burst rate"))?,
                    dwell_ms: dwell.unwrap_or(50).max(1),
                },
                other => return Err(format!("unknown arrival process '{other}' in '{part}'")),
            });
        }
        if let Some(p) = process {
            plan.process = p;
        }
        if plan.users == 0 {
            return Err("traffic plan needs users >= 1".into());
        }
        if plan.ids_per_request == 0 {
            return Err("traffic plan needs ids >= 1".into());
        }
        match plan.process {
            ArrivalProcess::Poisson { rate_hz: 0 } => {
                return Err("poisson rate must be positive".into())
            }
            ArrivalProcess::Mmpp {
                base_hz, burst_hz, ..
            } if base_hz == 0 || burst_hz == 0 => return Err("mmpp rates must be positive".into()),
            _ => {}
        }
        Ok(plan)
    }
}

impl fmt::Display for TrafficPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        match self.process {
            ArrivalProcess::Poisson { rate_hz } => write!(f, ";poisson@{rate_hz}")?,
            ArrivalProcess::Mmpp {
                base_hz,
                burst_hz,
                dwell_ms,
            } => write!(f, ";mmpp@{base_hz}:b{burst_hz}:d{dwell_ms}")?,
        }
        write!(
            f,
            ";users={};zipf={};ids={};reqs={}",
            self.users, self.zipf_centi, self.ids_per_request, self.requests
        )
    }
}

impl std::str::FromStr for TrafficPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<TrafficPlan, String> {
        TrafficPlan::parse(s)
    }
}

/// One generated request: an arrival instant and the embedding IDs it needs
/// gathered (`ids[0]` is the user ID; all IDs share the plan's skew).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Arrival time, nanoseconds from stream start.
    pub at_ns: u64,
    /// Embedding IDs this request looks up (`ids[0]` = user ID, rank
    /// 0-based, hottest first).
    pub ids: Vec<u64>,
}

/// Deterministic splitmix64 stream (the generator the flight recorder
/// samples with).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let x = self.0;
        self.0 = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(x)
    }

    /// Uniform in `(0, 1]` — safe as a `ln` argument.
    fn open_unit(&mut self) -> f64 {
        open_unit(self.next_u64())
    }
}

/// The `(0, 1]` uniform of one draw word: `1 − m·2⁻⁵³` for its 53-bit draw
/// `m = word >> 11`. Both operations are exact, so the result is strictly
/// decreasing in `m`.
#[inline]
fn open_unit(word: u64) -> f64 {
    1.0 - (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranks a [`HeadTable`] holds at most. A plan expected to draw more
/// distinct ranks answers the rest on the exact path.
const MAX_HEAD_RANKS: usize = 1 << 12;

/// Cells of the draw space: cell `c` holds the words whose high 32 bits are
/// `c`, which are the 53-bit draws `m` in `[c·2²¹, (c + 1)·2²¹)`.
const CELLS: f64 = (1u64 << 32) as f64;

/// The guarded head of a [`ZipfSampler`]: for each of its hottest ranks,
/// the cells of the draw space in which the exact path accepts that rank on
/// its first step (see [`ZipfSampler`] for why).
#[derive(Debug, Clone, Default)]
struct HeadTable {
    /// `bounds[2i]..bounds[2i + 1]`: the cells of rank `i` (0-based).
    /// Ascending; a rank with no provable cell has equal bounds.
    bounds: Vec<u32>,
    /// One entry per `2^shift` cells, up to the last rank's cells.
    guide: Vec<GuideEntry>,
    shift: u32,
}

/// Where a lookup in one guide bucket starts counting bounds.
#[derive(Debug, Clone, Copy)]
struct GuideEntry {
    /// The bounds at or below the bucket's first cell.
    below: u32,
    /// The next bound, `bounds[below]`: a cell under it needs no scan.
    next: u32,
}

impl HeadTable {
    /// The rank whose cells hold `word`, if any. The count of bounds at or
    /// below the word's cell is odd exactly inside a rank's cells.
    #[inline]
    fn rank(&self, word: u64) -> Option<u64> {
        let cell = word >> 32;
        let entry = self.guide.get((cell >> self.shift) as usize)?;
        let mut p = entry.below as usize;
        if cell >= u64::from(entry.next) {
            p += 1;
            while self.bounds.get(p).is_some_and(|&b| u64::from(b) <= cell) {
                p += 1;
            }
        }
        (p % 2 == 1).then_some(p as u64 / 2)
    }
}

/// Zipf sampler over ranks `0..n` by Hörmann's rejection-inversion, with a
/// small table over the ranks a plan is expected to draw.
///
/// The exact path costs one `powf` per draw and O(1) memory, so
/// vocabularies of millions cost nothing to set up (an exact-CDF table at
/// this scale would be tens of megabytes; cf. `picasso_data::IdSampler`,
/// which serves the *training* side where vocabularies are clamped). Most
/// draws land in the skewed head, though, so a [`HeadTable`] over the
/// ranks the plan is expected to draw at least once — at most
/// [`MAX_HEAD_RANKS`], 64 KiB — answers them without a float operation,
/// and the exact path keeps the tail.
///
/// Why the table answers bit for bit: the exact path maps a draw word to
/// `u` through [`open_unit`] (exact), one product and one sum. A correctly
/// rounded product or sum never reverses order, so `u` is monotone in the
/// 53-bit draw `m`, and rank `k` is accepted on the first step whenever
/// `x = H⁻¹(u)` lies in `[k − reject_s, k + 0.5)`. In exact arithmetic
/// those `x` form one interval of `m`. The table stores it in cells of
/// `2²¹` draws, computed from `H(k − reject_s)` and `H(k + 0.5)`, rounded
/// inward to whole cells and then shrunk by one more cell on each side.
/// That guard band of at least `2²¹` draws dwarfs the combined rounding
/// error of the bound and of the exact path's `powf`, which in units of
/// `m` is a few over `|1 − s|·span` (the span of `u` is at least 1): a few
/// hundred draws at most for any plan exponent, a multiple of 0.01. Every
/// other word — the gaps between ranks and the tail past the table — runs
/// the exact path on the same word, and a rejection draws its next word as
/// before, so ranks and the RNG stream are the exact sampler's.
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: f64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    reject_s: f64,
    head: HeadTable,
}

impl ZipfSampler {
    /// A sampler tabulating the ranks that `draws` draws are expected to hit
    /// at least once.
    fn new(n: u64, s: f64, draws: f64) -> ZipfSampler {
        assert!(n >= 1, "zipf vocabulary must be nonempty");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let nf = n as f64;
        let h_x1 = Self::h_integral(1.5, s) - 1.0;
        let h_n = Self::h_integral(nf + 0.5, s);
        let reject_s =
            2.0 - Self::h_integral_inverse(Self::h_integral(2.5, s) - Self::h(2.0, s), s);
        let mut sampler = ZipfSampler {
            n: nf,
            s,
            h_x1,
            h_n,
            reject_s,
            head: HeadTable::default(),
        };
        sampler.head = sampler.head_table(draws);
        sampler
    }

    /// The guarded head table (see the type docs). Empty for uniform
    /// draws, and for exponents so close to 1 outside the `ln` branch that
    /// the error bound would not hold.
    fn head_table(&self, draws: f64) -> HeadTable {
        let s = self.s;
        let near_one = (s - 1.0).abs();
        if s == 0.0 || (1e-9..1e-3).contains(&near_one) || !(0.0..0.5).contains(&self.reject_s) {
            return HeadTable::default();
        }
        let span = self.h_n - self.h_x1;
        // Rank k takes about h(k) / span of the draws, so the plan is
        // expected to draw it at least once while k^s <= draws / span.
        let ranks = (draws / span)
            .powf(1.0 / s)
            .min(self.n)
            .min(MAX_HEAD_RANKS as f64) as usize;
        // The cell, as a real number, where the exact path's x reaches `x`.
        let cell_of = |x: f64| (Self::h_integral(x, s) - self.h_x1) / span * CELLS;
        let mut bounds = Vec::with_capacity(2 * ranks);
        let mut last = 0u32;
        for k in 1..=ranks {
            let k = k as f64;
            let lo = cell_of(k - self.reject_s).ceil() + 1.0;
            let hi = cell_of(k + 0.5).floor() - 1.0;
            if !(lo.is_finite() && hi.is_finite()) {
                break;
            }
            // `as` saturates, and every clamp here only shrinks a rank.
            let lo = (lo.max(0.0) as u32).max(last);
            let hi = (hi.max(0.0) as u32).max(lo);
            bounds.extend([lo, hi]);
            last = hi;
        }
        // At most one guide bucket per rank, covering the cells below the
        // last bound, so each bucket has a next bound.
        let end = u64::from(last);
        let mut shift = 0;
        while end >> shift >= ranks.max(1) as u64 {
            shift += 1;
        }
        let buckets = end.div_ceil(1 << shift) as usize;
        let mut guide = Vec::with_capacity(buckets);
        let mut p = 0;
        for j in 0..buckets {
            let first = (j as u64) << shift;
            while u64::from(bounds[p]) <= first {
                p += 1;
            }
            guide.push(GuideEntry {
                below: p as u32,
                next: bounds[p],
            });
        }
        HeadTable {
            bounds,
            guide,
            shift,
        }
    }

    /// ∫ x^-s dx with the s = 1 limit handled.
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

    /// Draws one rank in `0..n` (0 = hottest).
    fn sample(&self, rng: &mut SplitMix) -> u64 {
        if self.s == 0.0 {
            // Uniform: no rejection loop needed.
            return (rng.next_u64() % self.n as u64).min(self.n as u64 - 1);
        }
        loop {
            if let Some(rank) = self.draw(rng.next_u64()) {
                return rank;
            }
        }
    }

    /// One rejection-inversion step on one draw word: the head table's
    /// rank when it holds the word, else the exact path's.
    #[inline]
    fn draw(&self, word: u64) -> Option<u64> {
        self.head.rank(word).or_else(|| self.exact(word))
    }

    /// Hörmann's rejection-inversion step on one draw word: the accepted
    /// rank, or `None` when the word is rejected.
    fn exact(&self, word: u64) -> Option<u64> {
        let u = self.h_n + open_unit(word) * (self.h_x1 - self.h_n);
        let x = Self::h_integral_inverse(u, self.s);
        let k = x.clamp(1.0, self.n).round();
        (k - x <= self.reject_s || u >= Self::h_integral(k + 0.5, self.s) - Self::h(k, self.s))
            .then(|| (k as u64 - 1).min(self.n as u64 - 1))
    }
}

/// The deterministic replay of one [`TrafficPlan`].
#[derive(Debug, Clone)]
pub struct TrafficGen {
    plan: TrafficPlan,
    zipf: ZipfSampler,
    arrivals: SplitMix,
    ids: SplitMix,
    now_ns: u64,
    emitted: u64,
    /// MMPP state: true while in the burst state.
    bursting: bool,
    /// MMPP: virtual time at which the current state's dwell ends.
    state_until_ns: u64,
}

impl TrafficGen {
    /// Builds the generator (position 0, calm state).
    pub fn new(plan: TrafficPlan) -> TrafficGen {
        let draws = plan.requests as f64 * plan.ids_per_request as f64;
        let zipf = ZipfSampler::new(plan.users, plan.zipf_s(), draws);
        // Two decorrelated streams from one seed: arrival clock and ID draws
        // advance independently, so adding an ID per request never shifts
        // the arrival sequence.
        let mut arrivals = SplitMix(plan.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let ids = SplitMix(arrivals.next_u64());
        TrafficGen {
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

    /// The plan being replayed.
    pub fn plan(&self) -> &TrafficPlan {
        &self.plan
    }

    /// Requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn exp_ns(&mut self, rate_hz: u64) -> u64 {
        let u = self.arrivals.open_unit();
        let secs = -u.ln() / rate_hz as f64;
        ((secs * 1e9).round() as u64).max(1)
    }

    /// Exponential dwell with mean `dwell_ms` milliseconds.
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
                // Exponential dwell in each state; the memoryless property
                // makes "redraw the inter-arrival from the new rate at a
                // state boundary" exact, not an approximation.
                if self.state_until_ns == 0 {
                    // First call: start calm with a drawn dwell.
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
                    // The proposed arrival lands past the state switch:
                    // fast-forward to the boundary, toggle, and redraw.
                    self.now_ns = self.state_until_ns;
                    self.bursting = !self.bursting;
                    let dwell = self.dwell_ns(dwell_ms);
                    self.state_until_ns = self.now_ns + dwell;
                }
            }
        }
    }
}

impl TrafficGen {
    /// Generates the next request: appends its embedding IDs to `ids`
    /// (the user ID first) and returns its arrival time, or `None` once
    /// the plan's requests are all emitted. A replay that only needs the
    /// IDs for a moment reuses one buffer instead of allocating per
    /// request.
    pub fn next_into(&mut self, ids: &mut Vec<u64>) -> Option<u64> {
        if self.emitted >= self.plan.requests {
            return None;
        }
        self.advance_clock();
        for _ in 0..self.plan.ids_per_request {
            ids.push(self.zipf.sample(&mut self.ids));
        }
        self.emitted += 1;
        Some(self.now_ns)
    }
}

impl Iterator for TrafficGen {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.plan.requests {
            return None;
        }
        let mut ids = Vec::with_capacity(self.plan.ids_per_request as usize);
        let at_ns = self.next_into(&mut ids)?;
        Some(Request { at_ns, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_poisson_and_mmpp() {
        for text in [
            "seed=7;poisson@50000;users=3000000;zipf=105;ids=8;reqs=60000",
            "seed=3;mmpp@20000:b160000:d40;users=2000000;zipf=90;ids=4;reqs=1000",
        ] {
            let plan = TrafficPlan::parse(text).unwrap();
            assert_eq!(plan.to_string(), text);
            assert_eq!(TrafficPlan::parse(&plan.to_string()).unwrap(), plan);
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let plan = TrafficPlan::parse("poisson@1000").unwrap();
        assert_eq!(plan.seed, 0);
        assert_eq!(plan.users, TrafficPlan::default().users);
        let plan = TrafficPlan::parse("").unwrap();
        assert_eq!(plan, TrafficPlan::default());
    }

    #[test]
    fn malformed_plans_are_rejected_with_reasons() {
        for (text, needle) in [
            ("boom@3", "unknown arrival process"),
            ("poisson3000", "bad traffic term"),
            ("poisson@x", "bad rate"),
            ("mmpp@100", "needs a bB burst rate"),
            ("mmpp@100:z3", "unknown field"),
            ("seed=abc", "bad value"),
            ("warp=9", "unknown field"),
            ("poisson@0", "must be positive"),
            ("users=0", "users >= 1"),
            ("ids=0", "ids >= 1"),
        ] {
            let err = TrafficPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "'{text}' -> '{err}'");
        }
    }

    #[test]
    fn u32_fields_reject_values_they_cannot_hold() {
        // 2^32 + 1 and 2^32 + 105 must not wrap to ids=1 and zipf=105.
        for text in [
            "users=10;ids=4294967297;zipf=4294967401;poisson@100",
            "zipf=4294967401",
        ] {
            let err = TrafficPlan::parse(text).unwrap_err();
            assert!(err.contains("exceeds"), "'{text}' -> '{err}'");
        }
        let plan = TrafficPlan::parse("zipf=4294967295;ids=4294967295").unwrap();
        assert_eq!(plan.zipf_centi, u32::MAX);
        assert_eq!(plan.ids_per_request, u32::MAX);
    }

    #[test]
    fn same_seed_replays_identically() {
        let plan = TrafficPlan::parse("seed=11;poisson@50000;reqs=500").unwrap();
        let a: Vec<Request> = plan.generator().collect();
        let b: Vec<Request> = plan.generator().collect();
        assert_eq!(a, b, "same plan must replay bit-identically");
        assert_eq!(a.len(), 500);
        let mut c = TrafficPlan::parse("seed=12;poisson@50000;reqs=500")
            .unwrap()
            .generator();
        assert_ne!(a[0], c.next().unwrap(), "different seed, different stream");
    }

    #[test]
    fn next_into_appends_what_next_returns() {
        let plan =
            TrafficPlan::parse("seed=4;mmpp@3000:b40000:d5;users=5000;zipf=90;ids=3;reqs=300")
                .unwrap();
        let mut gen = plan.generator();
        let mut ids = vec![u64::MAX];
        for want in plan.generator() {
            ids.truncate(1);
            assert_eq!(gen.next_into(&mut ids), Some(want.at_ns));
            assert_eq!(ids[0], u64::MAX, "appends, never clears");
            assert_eq!(&ids[1..], &want.ids[..]);
        }
        ids.truncate(1);
        assert_eq!(gen.next_into(&mut ids), None);
        assert_eq!(ids.len(), 1, "an exhausted generator appends nothing");
    }

    #[test]
    fn head_cells_answer_what_the_exact_path_does_at_their_edges() {
        // (users, s, draws): the serving sweep's two skews, the `ln`/`exp`
        // branch, steep and nearly flat exponents, one- and two-rank
        // vocabularies, and heads just under, at and over the rank cap.
        let draws_for = |ranks: f64, n: u64, s: f64| {
            let z = ZipfSampler::new(n, s, 0.0);
            ranks.powf(s) * (z.h_n - z.h_x1) + 1e-6
        };
        let mut cases = vec![
            (200_000, 1.05, 320_000.0),
            (3_000_000, 0.8, 48_000.0),
            (1_000_000, 1.0, 1e6),
            (50_000, 3.0, 1e9),
            (1_000_000_000, 0.01, 1e12),
            (1_000_000_000, 1.01, 1e6),
            (1, 1.5, 1e3),
            (2, 0.5, 1e3),
        ];
        for ranks in [4095.0, 4096.0, 4097.0] {
            cases.push((100_000, 1.2, draws_for(ranks, 100_000, 1.2)));
        }
        for (n, s, draws) in cases {
            let z = ZipfSampler::new(n, s, draws);
            let head = &z.head;
            assert!(!head.bounds.is_empty(), "users={n} s={s}: empty head");
            let mut fast = 0;
            for (i, cells) in head.bounds.chunks_exact(2).enumerate() {
                let (lo, hi) = ((cells[0] as u64) << 21, (cells[1] as u64) << 21);
                if lo == hi {
                    continue;
                }
                fast += 1;
                for m in [lo.saturating_sub(1), lo, hi - 1, hi] {
                    let word = m << 11 | (m & 0x7ff);
                    let inside = (lo..hi).contains(&m);
                    assert_eq!(head.rank(word), inside.then_some(i as u64), "m={m}");
                    assert_eq!(z.draw(word), z.exact(word), "users={n} s={s} m={m}");
                    if inside {
                        assert_eq!(z.exact(word), Some(i as u64), "users={n} s={s} m={m}");
                    }
                }
            }
            assert!(fast > 0, "users={n} s={s}: no rank has cells");
        }
        let ranks = |draws| ZipfSampler::new(100_000, 1.2, draws).head.bounds.len() / 2;
        assert_eq!(ranks(draws_for(4095.0, 100_000, 1.2)), 4095);
        assert_eq!(ranks(draws_for(4096.0, 100_000, 1.2)), MAX_HEAD_RANKS);
        assert_eq!(ranks(draws_for(4097.0, 100_000, 1.2)), MAX_HEAD_RANKS);
        assert!(ZipfSampler::new(100_000, 0.0, 1e9).head.guide.is_empty());
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_near_rate() {
        let plan = TrafficPlan::parse("seed=5;poisson@100000;reqs=20000").unwrap();
        let arrivals: Vec<u64> = plan.generator().map(|r| r.at_ns).collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        // 20k arrivals at 100k/s should span roughly 0.2s (±25%).
        let span_s = *arrivals.last().unwrap() as f64 / 1e9;
        assert!((0.15..0.25).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn zipf_head_dominates_and_ids_stay_in_range() {
        let plan =
            TrafficPlan::parse("seed=2;poisson@10000;users=1000000;zipf=110;reqs=20000").unwrap();
        let mut head = 0u64;
        let mut total = 0u64;
        for r in plan.generator() {
            assert_eq!(r.ids.len(), 8);
            for &id in &r.ids {
                assert!(id < 1_000_000);
                total += 1;
                if id < 1000 {
                    head += 1;
                }
            }
        }
        // Under s=1.1 the hottest 0.1% of a 1M vocabulary draws the large
        // majority of lookups — the skew HybridHash feeds on (Fig. 3).
        let frac = head as f64 / total as f64;
        assert!(frac > 0.5, "head coverage {frac}");
    }

    #[test]
    fn uniform_traffic_spreads_ids() {
        let plan = TrafficPlan::parse("seed=2;poisson@10000;users=1000000;zipf=0;ids=1;reqs=5000")
            .unwrap();
        let head = plan.generator().filter(|r| r.ids[0] < 1000).count();
        assert!(head < 50, "uniform head draws {head}");
    }

    #[test]
    fn mmpp_bursts_raise_local_rates() {
        let plan = TrafficPlan::parse(
            "seed=9;mmpp@5000:b200000:d20;users=100000;zipf=100;ids=1;reqs=30000",
        )
        .unwrap();
        let arrivals: Vec<u64> = plan.generator().map(|r| r.at_ns).collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        // Count arrivals per 10ms window; a bursty process must show both
        // calm windows (few arrivals) and burst windows (hundreds).
        let mut windows = std::collections::BTreeMap::new();
        for &t in &arrivals {
            *windows.entry(t / 10_000_000).or_insert(0u64) += 1;
        }
        let max = windows.values().copied().max().unwrap();
        let min = windows.values().copied().min().unwrap();
        assert!(
            max > min.saturating_mul(4).max(100),
            "burstiness missing: min {min} max {max}"
        );
    }
}
