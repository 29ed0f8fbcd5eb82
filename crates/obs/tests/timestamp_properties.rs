//! Property tests of the Chrome exporter's integer number writers.
//!
//! `write_micros` prints a nanosecond time as microseconds from integer
//! digits below 2^43 µs and falls back to `write_f64` above. The oracle is
//! the float path every timestamp used to take, `write_f64(ns as f64 /
//! 1e3)`: the bytes must match over the whole `u64` range (stratified by
//! magnitude, so every bit length is drawn equally often), at every power
//! of ten, at multiples of 1000 and around the cutoff on both sides.
//! `write_u64`, which writes the integer digits, is checked against `{}`,
//! and `write_rounded`, which writes a task's `work` argument, against
//! `{:.0}`: on arbitrary `f64` bit patterns, on ties `k + 0.5`, on `-0.0`
//! and on values at or above 2^53, where it falls back to the formatter.

use picasso_obs::json::{write_f64, write_micros, write_rounded, write_u64};
use proptest::prelude::*;

/// 2^43 µs in nanoseconds: the first time `write_micros` formats as a float.
const CUTOFF_NS: u64 = (1 << 43) * 1000;

fn micros(ns: u64) -> String {
    let mut out = String::new();
    write_micros(ns, &mut out);
    out
}

fn rounded(x: f64) -> String {
    let mut out = String::new();
    write_rounded(x, &mut out);
    out
}

/// Checks `x` and its negation against `{:.0}`.
fn check_rounded(x: f64) {
    for v in [x, -x] {
        assert_eq!(
            rounded(v),
            format!("{v:.0}"),
            "x = {v:e} ({:#x})",
            v.to_bits()
        );
    }
}

fn float_micros(ns: u64) -> String {
    let mut out = String::new();
    write_f64(ns as f64 / 1e3, &mut out);
    out
}

/// Checks `ns` and its neighbours within one microsecond.
fn check_around(ns: u64) {
    let around = [
        ns.saturating_sub(1000),
        ns.saturating_sub(1),
        ns,
        ns.saturating_add(1),
        ns.saturating_add(1000),
    ];
    for t in around {
        assert_eq!(micros(t), float_micros(t), "ns = {t}");
    }
}

#[test]
fn matches_the_float_writer_at_powers_of_ten_and_the_cutoff() {
    for exp in 0..20 {
        check_around(10u64.pow(exp));
    }
    for ns in [0, 1, 999, 1000, 1001, CUTOFF_NS, u64::MAX] {
        check_around(ns);
    }
    // Both sides of the cutoff, a microsecond at a time.
    for us in 0..2000 {
        check_around(CUTOFF_NS - 1_000_000 + us * 1000);
    }
    assert_eq!(micros(CUTOFF_NS - 1), "8796093022207.999");
    assert_eq!(micros(1_500), "1.5");
    assert_eq!(micros(2_000), "2.0");
}

#[test]
fn rounding_matches_the_formatter_at_ties_zeros_and_past_2_pow_53() {
    for x in [0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 1e15 + 0.5, 1e300] {
        check_rounded(x);
    }
    for k in 0..2000u64 {
        check_rounded(k as f64 + 0.5);
    }
    // The largest ties below 2^53, then 2^53 and its neighbours.
    for e in 40..=52 {
        let top = (1u64 << e) as f64;
        check_rounded(top - 0.5);
        check_rounded(top + 0.5);
    }
    let two_53 = (1u64 << 53) as f64;
    for x in [two_53, two_53 + 2.0, two_53 - 1.0, f64::MAX] {
        check_rounded(x);
    }
    for x in [f64::INFINITY, f64::NAN, f64::MIN_POSITIVE, 5e-324] {
        check_rounded(x);
    }
    assert_eq!(rounded(-0.0), "-0");
    assert_eq!(rounded(-0.3), "-0");
    assert_eq!(rounded(2.5), "2");
    assert_eq!(rounded(3.5), "4");
}

proptest! {
    /// `write_rounded` prints any bit pattern as `{:.0}` does.
    #[test]
    fn rounding_matches_the_formatter_on_any_bits(bits in 0u64..u64::MAX) {
        check_rounded(f64::from_bits(bits));
    }

    /// Ties `k + 0.5` round to even at every magnitude below 2^53.
    #[test]
    fn rounding_matches_the_formatter_at_ties(k in 0u64..(1 << 52), shift in 0u32..52) {
        check_rounded((k >> shift) as f64 + 0.5);
    }

    /// Finite values of every magnitude: `k` scaled by a power of two.
    #[test]
    fn rounding_matches_the_formatter_at_every_scale(k in 0u32..u32::MAX, exp in -40i32..80) {
        check_rounded(k as f64 * 2f64.powi(exp));
    }

    /// One draw per bit length, each checked with its neighbours: half the
    /// magnitudes lie past the cutoff, on the fallback side.
    #[test]
    fn matches_the_float_writer_at_every_magnitude(bits in 0u64..u64::MAX) {
        for shift in 0..64 {
            check_around(bits >> shift);
        }
    }

    /// Whole microseconds print with `.0`, as the float writer does for
    /// integral values.
    #[test]
    fn matches_the_float_writer_at_multiples_of_1000(us in 0u64..u64::MAX / 1000) {
        for shift in 0..54 {
            check_around((us >> shift) * 1000);
        }
    }

    /// Integer digits print as `{}` does.
    #[test]
    fn integer_writer_matches_the_formatter(bits in 0u64..u64::MAX) {
        for shift in 0..64 {
            let n = bits >> shift;
            let mut out = String::new();
            write_u64(n, &mut out);
            prop_assert_eq!(out, n.to_string());
        }
    }
}
