//! Property-based tests across the whole stack: arbitrary workload
//! profiles and clock configurations must simulate without panicking and
//! uphold the architectural invariants.

use gals::clocks::{ClockSpec, Domain, PausibleClockModel, PausibleModel};
use gals::core::{simulate, simulate_with_engine, Clocking, DvfsPlan, ProcessorConfig, SimLimits};
use gals::events::Time;
use gals::workload::{generate_profile, WorkloadProfile};
use proptest::prelude::*;

/// A constrained-but-wide space of valid workload profiles.
fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.02f64..0.25, // frac_branch
        0.0f64..0.3,   // frac_load
        0.0f64..0.15,  // frac_store
        0.0f64..0.4,   // frac_fp
        0.5f64..0.98,  // branch_bias
        2u32..64,      // loop_trip
        16u64..4096,   // footprint in KB
        0.0f64..1.0,   // stride_frac
        0.0f64..0.5,   // random_frac
        1u32..14,      // dep_distance
        1u32..8,       // functions
    )
        .prop_filter_map("instruction mix must sum below 1", |t| {
            let (br, ld, st, fp, bias, trip, fp_kb, stride, random, dep, funcs) = t;
            if br + ld + st + fp > 0.95 {
                return None;
            }
            Some(WorkloadProfile {
                name: "prop",
                frac_branch: br,
                frac_load: ld,
                frac_store: st,
                frac_fp: fp,
                frac_int_mul: 0.0,
                frac_int_div: 0.0,
                branch_bias: bias,
                loop_trip: trip,
                footprint: fp_kb * 1024,
                stride_frac: stride,
                random_frac: random,
                dep_distance: dep,
                functions: funcs,
            })
        })
}

fn arb_domain_clocks() -> impl Strategy<Value = [ClockSpec; 5]> {
    (
        prop::array::uniform5(800_000u64..2_000_000),
        prop::array::uniform5(0u64..1_000_000),
    )
        .prop_map(|(periods, phases)| {
            std::array::from_fn(|i| ClockSpec {
                period: Time::from_fs(periods[i]),
                phase: Time::from_fs(phases[i] % periods[i]),
            })
        })
}

/// A random pausible clocking: arbitrary clocks, handshake duration and
/// transfer-capacity model (latched or rendezvous).
fn arb_pausible() -> impl Strategy<Value = Clocking> {
    (arb_domain_clocks(), 0u64..500_000, any::<bool>()).prop_map(
        |(clocks, handshake, rendezvous)| Clocking::Pausible {
            clocks,
            model: PausibleClockModel::new(Time::from_fs(handshake)),
            transfer: if rendezvous {
                PausibleModel::Rendezvous
            } else {
                PausibleModel::Latched
            },
        },
    )
}

fn arb_clocking() -> impl Strategy<Value = Clocking> {
    prop_oneof![
        (800_000u64..2_000_000)
            .prop_map(|p| Clocking::Synchronous(ClockSpec::new(Time::from_fs(p)))),
        arb_domain_clocks().prop_map(Clocking::Gals),
        arb_pausible(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid profile on any clocking commits exactly the requested
    /// budget, with sane statistics.
    #[test]
    fn any_profile_any_clocking_simulates(
        profile in arb_profile(),
        clocking in arb_clocking(),
        seed in 0u64..1_000,
    ) {
        let program = generate_profile(&profile, seed);
        let mut cfg = ProcessorConfig::synchronous_1ghz();
        cfg.clocking = clocking;
        let limits = SimLimits::insts(3_000).with_watchdog_cycles(300_000);
        let r = simulate(&program, cfg, limits).expect("simulation failed");
        prop_assert_eq!(r.committed, 3_000);
        prop_assert!(r.fetched >= r.committed);
        prop_assert!(r.issued >= r.committed);
        prop_assert!(r.exec_time > Time::ZERO);
        prop_assert!(r.total_energy() > 0.0);
        prop_assert!(r.mean_slip() > Time::ZERO);
        prop_assert!((0.0..1.0).contains(&r.misspeculation_rate()));
        // Slip must be at least the minimum pipeline transit (several ns at
        // ~1 GHz clocks).
        prop_assert!(r.mean_slip() >= Time::from_ns(4));
    }

    /// Per-domain DVFS never breaks correctness, and a slowed machine is
    /// never faster than the same machine unscaled.
    #[test]
    fn dvfs_slowdowns_are_monotonic(
        profile in arb_profile(),
        which in 0usize..5,
        factor in 1.0f64..3.0,
    ) {
        let program = generate_profile(&profile, 7);
        let limits = SimLimits::insts(2_000).with_watchdog_cycles(300_000);
        let nominal = simulate(&program, ProcessorConfig::gals_equal_1ghz(3), limits).expect("simulation failed");
        let plan = DvfsPlan::nominal().with_slowdown(Domain::ALL[which], factor);
        let cfg = ProcessorConfig::gals_equal_1ghz(3).with_dvfs(plan);
        let scaled = simulate(&program, cfg, limits).expect("simulation failed");
        prop_assert_eq!(scaled.committed, nominal.committed);
        // Strict monotonicity does not hold in a GALS machine: slowing
        // the fetch domain slightly can *help* by throttling wrong-path
        // fetch, and phase re-alignment adds sub-percent jitter (the paper
        // reports ~0.5% phase sensitivity). The property is: slowing one
        // domain never makes the machine significantly faster.
        prop_assert!(
            scaled.exec_time.as_fs() as f64 >= nominal.exec_time.as_fs() as f64 * 0.96,
            "slowing a domain cannot make the machine significantly faster ({} vs {})",
            scaled.exec_time, nominal.exec_time
        );
    }

    /// The two-scheduler contract under random *pausible* clockings —
    /// both transfer models. Random clocks, phases and handshake
    /// durations generate arbitrary clock-stretch streams, and the
    /// rendezvous arm additionally generates arbitrary producer-block /
    /// consumer-release (block-and-retry) streams on every single-entry
    /// port; the static `ClockSet` fast path and the general `Engine`
    /// oracle must still agree on every report field, bit for bit.
    #[test]
    fn schedulers_bit_identical_under_random_stretch_and_block_streams(
        profile in arb_profile(),
        clocking in arb_pausible(),
        seed in 0u64..1_000,
    ) {
        let program = generate_profile(&profile, seed);
        let mut cfg = ProcessorConfig::synchronous_1ghz();
        cfg.clocking = clocking;
        let limits = SimLimits::insts(1_200).with_watchdog_cycles(300_000);
        let fast = simulate(&program, cfg.clone(), limits).expect("simulation failed");
        let oracle = simulate_with_engine(&program, cfg, limits).expect("simulation failed");
        prop_assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    }

    /// The same (profile, seed, config) is bit-reproducible.
    #[test]
    fn simulation_reproducibility(profile in arb_profile(), seed in 0u64..100) {
        let program = generate_profile(&profile, seed);
        let limits = SimLimits::insts(1_500).with_watchdog_cycles(300_000);
        let a = simulate(&program, ProcessorConfig::gals_equal_1ghz(11), limits).expect("simulation failed");
        let b = simulate(&program, ProcessorConfig::gals_equal_1ghz(11), limits).expect("simulation failed");
        prop_assert_eq!(a.exec_time, b.exec_time);
        prop_assert_eq!(a.fetched, b.fetched);
        prop_assert_eq!(a.channel_ops, b.channel_ops);
    }
}
