//! Golden digests of the three overlays every perf scenario feeds: the
//! causal analyzer's critical path, a full-window flight-recorder tap, and
//! the race cross-check. All three inherit the simulator's determinism, so
//! each digest is pinned to one value; a drift means the shared scenario
//! runner, the simulation or the overlay itself changed behaviour.

use picasso_bench::scenarios::{self, perf_scenarios};
use picasso_bench::{analysis, races};
use picasso_core::exec::flight_record;
use picasso_core::obs::flight::FlightConfig;

/// Tap capacity: comfortably above the event count of any suite scenario
/// (the largest, `can_base`, records 15 554), so the digest covers the
/// complete stream.
const TAP_CAPACITY: usize = 1 << 14;

/// `(scenario, critical-path digest, flight-tap digest, race digest)`.
const GOLDEN: [(&str, u64, u64, u64); 8] = [
    (
        "wdl_base",
        0x48f5_1f2a_afdf_0dde,
        0x9170_f3f4_a012_6b30,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "wdl_pack",
        0xbd19_8bf4_87df_a6ae,
        0x29ab_8b4b_a502_fd08,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "wdl_inter",
        0x70b2_5658_a44d_ab81,
        0x85c1_661f_6e0a_71e4,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "wdl_cache",
        0xdbfd_c658_d119_b53b,
        0xfe11_9294_3a8e_7218,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "can_base",
        0x39c9_f648_789e_695b,
        0xd3b3_675b_26cd_0876,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "can_pack",
        0x20da_9e06_98f6_571c,
        0x6e66_48ac_4904_56e1,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "can_inter",
        0xfa19_11b3_7829_01f5,
        0xfd27_5a18_8688_aeca,
        0xd949_aa18_6c0c_4928,
    ),
    (
        "can_cache",
        0x3933_cd39_285b_b1a4,
        0x159f_83ac_c7f7_5431,
        0xd949_aa18_6c0c_4928,
    ),
];

#[test]
fn suite_overlay_digests_are_pinned() {
    let suite = perf_scenarios();
    assert_eq!(suite.len(), GOLDEN.len());
    for (sc, &(name, critical_path, flight, race)) in suite.iter().zip(&GOLDEN) {
        assert_eq!(sc.name, name, "the golden table follows suite order");

        let a = analysis::run_scenario(sc).expect("suite scenario runs");
        assert_eq!(a.scenario, format!("ana_{name}"));
        assert_eq!(
            a.digest, critical_path,
            "{name}: critical-path digest {:016x}",
            a.digest
        );

        let artifacts = scenarios::run(sc, 0).expect("suite scenario runs");
        let config = FlightConfig {
            capacity: TAP_CAPACITY,
            ..FlightConfig::default()
        };
        let rec = flight_record(&artifacts.output, &config);
        let stats = rec.stats();
        assert!(stats.recorded > 0, "{name}: the tap recorded events");
        assert_eq!(stats.overwritten, 0, "{name}: tap capacity holds the run");
        let digest = rec.dump(rec.occupancy()).digest();
        assert_eq!(digest, flight, "{name}: flight-tap digest {digest:016x}");

        let r = races::run_scenario(sc).expect("suite scenario runs");
        assert_eq!(r.scenario, format!("race_{name}"));
        assert!(r.is_clean(), "{name}: {:?}", r.diagnostics);
        assert_eq!(r.digest, race, "{name}: race digest {:016x}", r.digest);
    }
}
