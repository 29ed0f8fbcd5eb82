//! Property tests of the Chrome exporter's integer number writers.
//!
//! `write_micros` prints a nanosecond time as microseconds from integer
//! digits below 2^43 µs and falls back to `write_f64` above. The oracle is
//! the float path every timestamp used to take, `write_f64(ns as f64 /
//! 1e3)`: the bytes must match over the whole `u64` range (stratified by
//! magnitude, so every bit length is drawn equally often), at every power
//! of ten, at multiples of 1000 and around the cutoff on both sides.
//! `write_u64`, which writes the integer digits, is checked against `{}`.

use picasso_obs::json::{write_f64, write_micros, write_u64};
use proptest::prelude::*;

/// 2^43 µs in nanoseconds: the first time `write_micros` formats as a float.
const CUTOFF_NS: u64 = (1 << 43) * 1000;

fn micros(ns: u64) -> String {
    let mut out = String::new();
    write_micros(ns, &mut out);
    out
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

proptest! {
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
