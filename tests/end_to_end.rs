//! Cross-crate integration tests: the full simulator driven through the
//! facade crate, checking the paper's qualitative claims end to end.

use gals::clocks::Domain;
use gals::core::{simulate, simulate_with_engine, Clocking, DvfsPlan, ProcessorConfig, SimLimits};
use gals::events::Time;
use gals::workload::{generate, generate_workload, micro, Benchmark, ProgramKernel, Workload};

const LIMITS: SimLimits = SimLimits::insts(20_000);

#[test]
fn base_commits_exactly_the_requested_budget() {
    let program = generate(Benchmark::Perl, 1);
    let r =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    assert_eq!(r.committed, LIMITS.max_insts);
    assert!(r.exec_time > Time::ZERO);
    assert!(r.fetched >= r.committed);
}

#[test]
fn clockset_and_engine_schedulers_produce_identical_reports() {
    // The production `simulate` drives the pipeline through the static
    // ClockSet scheduler; `simulate_with_engine` is the original
    // general-engine oracle. Every field of the report — timing, per-domain
    // cycles, caches, energy — must match bit for bit, on all three clocking
    // styles (pausible mode additionally exercises the clock-stretch path of
    // both schedulers) and across distinct workloads.
    let limits = SimLimits::insts(8_000);
    for bench in [Benchmark::Gcc, Benchmark::Fpppp] {
        let program = generate(bench, 42);
        for cfg in [
            ProcessorConfig::synchronous_1ghz(),
            ProcessorConfig::gals_equal_1ghz(7),
            ProcessorConfig::pausible_equal_1ghz(7),
            ProcessorConfig::pausible_rendezvous_1ghz(7),
        ] {
            let fast = simulate(&program, cfg.clone(), limits).expect("simulation failed");
            let oracle =
                simulate_with_engine(&program, cfg.clone(), limits).expect("simulation failed");
            assert_eq!(
                format!("{fast:?}"),
                format!("{oracle:?}"),
                "scheduler divergence on {} / {:?}",
                bench.name(),
                cfg.clocking
            );
        }
    }
}

#[test]
fn program_kernels_are_bit_identical_across_schedulers_and_clockings() {
    // The program-driven workloads (checked-in `.gasm` kernels executed to
    // a trace) must flow through the exact same stream interface as the
    // synthetic programs: for every kernel, the ClockSet fast path and the
    // general-engine oracle must agree bit for bit on every report field,
    // under all four clocking styles.
    let limits = SimLimits::insts(6_000);
    for kernel in ProgramKernel::ALL {
        let program = generate_workload(Workload::Kernel(kernel), 42);
        for cfg in [
            ProcessorConfig::synchronous_1ghz(),
            ProcessorConfig::gals_equal_1ghz(7),
            ProcessorConfig::pausible_equal_1ghz(7),
            ProcessorConfig::pausible_rendezvous_1ghz(7),
        ] {
            let fast = simulate(&program, cfg.clone(), limits).expect("simulation failed");
            let oracle =
                simulate_with_engine(&program, cfg.clone(), limits).expect("simulation failed");
            assert_eq!(
                format!("{fast:?}"),
                format!("{oracle:?}"),
                "scheduler divergence on {kernel} / {:?}",
                cfg.clocking
            );
        }
    }
}

#[test]
fn program_kernels_reproduce_the_papers_clocking_ordering() {
    // The paper's qualitative ordering (sync faster than FIFO-GALS faster
    // than pausible at equal nominal clocks) must hold on the executed
    // kernels too, not just the synthetic profiles that were tuned for it.
    for kernel in ProgramKernel::ALL {
        let program = generate_workload(Workload::Kernel(kernel), 2);
        let limits = SimLimits::insts(6_000);
        let base = simulate(&program, ProcessorConfig::synchronous_1ghz(), limits)
            .expect("simulation failed");
        let gals = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), limits)
            .expect("simulation failed");
        let paus = simulate(&program, ProcessorConfig::pausible_equal_1ghz(1), limits)
            .expect("simulation failed");
        assert_eq!(base.committed, gals.committed, "{kernel}: unequal budgets");
        assert!(
            base.exec_time < gals.exec_time,
            "{kernel}: sync must outrun GALS"
        );
        assert!(
            gals.insts_per_ns() > paus.insts_per_ns(),
            "{kernel}: FIFO-GALS must outrun pausible"
        );
    }
}

#[test]
fn finite_program_drains_completely() {
    let program = micro::alu_loop(500, 4);
    let total = 500 * 5 + 1;
    let r = simulate(
        &program,
        ProcessorConfig::synchronous_1ghz(),
        SimLimits::insts(1_000_000),
    )
    .expect("simulation failed");
    assert_eq!(
        r.committed, total,
        "every architectural instruction commits"
    );
}

#[test]
fn simulation_is_deterministic() {
    let program = generate(Benchmark::Go, 3);
    let a =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(5), LIMITS).expect("simulation failed");
    let b =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(5), LIMITS).expect("simulation failed");
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.fetched, b.fetched);
    assert_eq!(a.wrong_path_fetched, b.wrong_path_fetched);
    assert_eq!(a.slip_total, b.slip_total);
    assert!((a.total_energy() - b.total_energy()).abs() < 1e-9);
}

#[test]
fn gals_is_slower_at_equal_clocks_across_the_suite() {
    for bench in [Benchmark::Gcc, Benchmark::Fpppp, Benchmark::Adpcm] {
        let program = generate(bench, 2);
        let base = simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS)
            .expect("simulation failed");
        let gals = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        assert!(
            gals.exec_time > base.exec_time,
            "{bench}: GALS must be slower (base {}, gals {})",
            base.exec_time,
            gals.exec_time
        );
    }
}

#[test]
fn pausible_clocking_is_slower_than_fifo_gals_on_every_benchmark() {
    // The paper's section-3.2 claim, *measured* rather than modelled: with
    // transactions nearly every cycle, pausible clocks stretch nearly every
    // cycle, so at equal nominal frequency the pausible machine's
    // throughput falls below the mixed-clock-FIFO GALS design on all four
    // benchmarks of the ablation.
    for bench in [
        Benchmark::Gcc,
        Benchmark::Fpppp,
        Benchmark::Ijpeg,
        Benchmark::Compress,
    ] {
        let program = generate(bench, 2);
        let gals = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        let paus = simulate(&program, ProcessorConfig::pausible_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        assert_eq!(gals.committed, paus.committed, "{bench}: unequal budgets");
        assert!(
            paus.insts_per_ns() < gals.insts_per_ns(),
            "{bench}: pausible must be slower than FIFO-GALS \
             ({} vs {} insts/ns)",
            paus.insts_per_ns(),
            gals.insts_per_ns()
        );
    }
}

#[test]
fn rendezvous_pausible_is_slower_than_latched_on_every_benchmark() {
    // Section 3.2, second half: the latched pausible machine charges only
    // the *timing* cost of handshakes; with rendezvous (unbuffered)
    // transfers every crossing is a single-entry port, producers block
    // until the consumer pops, and the *capacity* cost lands too — so the
    // rendezvous machine must measure slower than the latched one on all
    // four ablation benchmarks, at identical committed work.
    for bench in [
        Benchmark::Gcc,
        Benchmark::Fpppp,
        Benchmark::Ijpeg,
        Benchmark::Compress,
    ] {
        let program = generate(bench, 2);
        let latched = simulate(&program, ProcessorConfig::pausible_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        let rdv = simulate(
            &program,
            ProcessorConfig::pausible_rendezvous_1ghz(1),
            LIMITS,
        )
        .expect("simulation failed");
        assert_eq!(latched.committed, rdv.committed, "{bench}: unequal budgets");
        assert!(
            rdv.insts_per_ns() < latched.insts_per_ns(),
            "{bench}: rendezvous must be slower than latched pausible \
             ({} vs {} insts/ns)",
            rdv.insts_per_ns(),
            latched.insts_per_ns()
        );
        // The capacity cost is visible as producer cycles blocked on
        // occupied ports — and only the rendezvous machine pays it.
        assert!(
            rdv.total_rendezvous_blocked() > 0,
            "{bench}: rendezvous ports must block producers"
        );
        assert_eq!(latched.total_rendezvous_blocked(), 0);
    }
}

#[test]
fn rendezvous_reports_are_bit_identical_across_schedulers_on_all_benchmarks() {
    // The acceptance bar for the rendezvous mode: ClockSet and the Engine
    // oracle agree on every report field, with producers blocking and
    // retrying on occupied ports, on all four ablation benchmarks.
    let limits = SimLimits::insts(6_000);
    for bench in [
        Benchmark::Gcc,
        Benchmark::Fpppp,
        Benchmark::Ijpeg,
        Benchmark::Compress,
    ] {
        let program = generate(bench, 42);
        let cfg = ProcessorConfig::pausible_rendezvous_1ghz(7);
        let fast = simulate(&program, cfg.clone(), limits).expect("simulation failed");
        let oracle = simulate_with_engine(&program, cfg, limits).expect("simulation failed");
        assert_eq!(
            format!("{fast:?}"),
            format!("{oracle:?}"),
            "scheduler divergence in rendezvous mode on {}",
            bench.name()
        );
    }
}

#[test]
fn pausible_stretches_lower_the_effective_frequencies() {
    use gals::power::MacroBlock;
    let program = generate(Benchmark::Gcc, 2);
    let paus = simulate(&program, ProcessorConfig::pausible_equal_1ghz(1), LIMITS)
        .expect("simulation failed");
    assert!(paus.total_stretches() > 0, "transfers must stretch clocks");
    for d in Domain::ALL {
        let i = d.index();
        assert!(paus.stretches[i] > 0, "domain {d} never stretched");
        assert!(paus.stretch_time[i] > Time::ZERO);
        // Every domain communicates nearly every cycle, so its measured
        // effective frequency must fall below the 1 GHz nominal.
        let ghz = paus.effective_ghz(d);
        assert!(
            ghz < 0.95,
            "domain {d} effective frequency {ghz} GHz should be well below nominal"
        );
    }
    // No FIFOs and no global grid in the pausible machine.
    assert_eq!(paus.energy.block(MacroBlock::Fifos), 0.0);
    assert_eq!(paus.energy.global_clock, 0.0);
    // The other two machines never stretch.
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    let base =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    assert_eq!(gals.total_stretches(), 0);
    assert_eq!(base.total_stretches(), 0);
}

#[test]
fn wakeup_filter_cuts_channel_ops_without_changing_the_architecture() {
    // The producer-side cross-cluster dependence filter only suppresses
    // wakeup broadcasts to clusters that never renamed a consumer; the
    // committed work is identical and the timing essentially so (a consumer
    // renamed after its producer's writeback becomes ready at rename instead
    // of at wakeup arrival, which can only help).
    for bench in [Benchmark::Gcc, Benchmark::Fpppp] {
        let program = generate(bench, 2);
        let plain = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        let cfg = ProcessorConfig::gals_equal_1ghz(1).with_wakeup_filter(true);
        let filtered = simulate(&program, cfg, LIMITS).expect("simulation failed");
        assert_eq!(plain.committed, filtered.committed);
        assert!(
            filtered.channel_ops < plain.channel_ops,
            "{bench}: filter must drop consumerless remote wakeups ({} vs {})",
            filtered.channel_ops,
            plain.channel_ops
        );
        let ratio = filtered.exec_time.as_fs() as f64 / plain.exec_time.as_fs() as f64;
        assert!(
            ratio < 1.02,
            "{bench}: the filter must not slow the machine down ({ratio})"
        );
    }
}

#[test]
fn wakeup_filter_is_deadlock_free_on_dependence_heavy_workloads() {
    // The filter's risk is a consumer waiting for a wakeup that was never
    // sent; the deadlock watchdog in SimLimits turns that into a
    // SimError::Deadlock.
    // Cross-cluster chains maximise remote dependences, coin-flip branches
    // maximise squash/rename churn of the filter state.
    let cfg = || ProcessorConfig::gals_equal_1ghz(3).with_wakeup_filter(true);
    let chains = micro::cross_cluster(2_000);
    let r = simulate(&chains, cfg(), SimLimits::insts(10_000)).expect("simulation failed");
    assert_eq!(r.committed, 10_000);
    let branches = micro::random_branches(3_000);
    let r = simulate(&branches, cfg(), SimLimits::insts(8_000)).expect("simulation failed");
    assert_eq!(r.committed, 8_000);
    // Pausible machines share the filter path (stretch charges drop too).
    let paus = ProcessorConfig::pausible_equal_1ghz(3).with_wakeup_filter(true);
    let r = simulate(&chains, paus, SimLimits::insts(10_000)).expect("simulation failed");
    assert_eq!(r.committed, 10_000);
}

#[test]
fn wakeup_coalescing_softens_the_pausible_penalty() {
    for bench in [Benchmark::Gcc, Benchmark::Compress] {
        let program = generate(bench, 2);
        let plain = simulate(&program, ProcessorConfig::pausible_equal_1ghz(1), LIMITS)
            .expect("simulation failed");
        let cfg = ProcessorConfig::pausible_equal_1ghz(1).with_wakeup_coalescing(true);
        let coalesced = simulate(&program, cfg, LIMITS).expect("simulation failed");
        assert_eq!(plain.committed, coalesced.committed);
        assert!(
            coalesced.total_stretches() < plain.total_stretches(),
            "{bench}: coalescing must merge same-cycle wakeup handshakes \
             ({} vs {})",
            coalesced.total_stretches(),
            plain.total_stretches()
        );
        assert!(
            coalesced.exec_time < plain.exec_time,
            "{bench}: fewer handshakes must run faster ({} vs {})",
            coalesced.exec_time,
            plain.exec_time
        );
    }
    // Outside pausible mode the flag is inert: no handshakes to merge.
    let program = generate(Benchmark::Gcc, 2);
    let plain =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    let cfg = ProcessorConfig::gals_equal_1ghz(1).with_wakeup_coalescing(true);
    let flagged = simulate(&program, cfg, LIMITS).expect("simulation failed");
    assert_eq!(format!("{plain:?}"), format!("{flagged:?}"));
}

#[test]
fn schedulers_stay_bit_identical_with_wakeup_features_on() {
    // The two-scheduler contract extends to the new feature gates.
    let limits = SimLimits::insts(6_000);
    let program = generate(Benchmark::Gcc, 42);
    for cfg in [
        ProcessorConfig::gals_equal_1ghz(7).with_wakeup_filter(true),
        ProcessorConfig::pausible_equal_1ghz(7).with_wakeup_coalescing(true),
        ProcessorConfig::pausible_equal_1ghz(7)
            .with_wakeup_filter(true)
            .with_wakeup_coalescing(true),
    ] {
        let fast = simulate(&program, cfg.clone(), limits).expect("simulation failed");
        let oracle =
            simulate_with_engine(&program, cfg.clone(), limits).expect("simulation failed");
        assert_eq!(
            format!("{fast:?}"),
            format!("{oracle:?}"),
            "scheduler divergence with features on {:?}",
            cfg.clocking
        );
    }
}

#[test]
fn gals_raises_slip_and_misspeculation() {
    let program = generate(Benchmark::Gcc, 2);
    let base =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    assert!(
        gals.mean_slip() > base.mean_slip(),
        "slip must grow (Fig 6)"
    );
    assert!(
        gals.misspeculation_rate() > base.misspeculation_rate(),
        "longer recovery pipeline must raise mis-speculation (Fig 8)"
    );
}

#[test]
fn gals_average_power_is_lower() {
    let program = generate(Benchmark::Perl, 2);
    let base =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    assert!(
        gals.relative_power(&base) < 1.0,
        "per-cycle power drops without the global grid (Fig 9)"
    );
    assert_eq!(
        gals.energy.global_clock, 0.0,
        "GALS has no global grid energy"
    );
    assert!(base.energy.global_clock > 0.0);
}

#[test]
fn fifo_energy_appears_only_in_gals() {
    use gals::power::MacroBlock;
    let program = generate(Benchmark::Li, 2);
    let base =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    assert_eq!(base.energy.block(MacroBlock::Fifos), 0.0);
    assert!(gals.energy.block(MacroBlock::Fifos) > 0.0);
}

#[test]
fn slowing_an_idle_fp_domain_saves_energy_cheaply() {
    // perl has (virtually) no FP work: slowing the FP domain 3x must cost
    // almost nothing in time but save energy (paper section 5.2).
    let program = generate(Benchmark::Perl, 2);
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    let plan = DvfsPlan::nominal().with_slowdown(Domain::FpCluster, 3.0);
    let scaled_cfg = ProcessorConfig::gals_equal_1ghz(1).with_dvfs(plan);
    let scaled = simulate(&program, scaled_cfg, LIMITS).expect("simulation failed");
    let slowdown = scaled.exec_time.as_fs() as f64 / gals.exec_time.as_fs() as f64;
    assert!(slowdown < 1.05, "idle-domain slowdown cost {slowdown}");
    assert!(
        scaled.total_energy() < gals.total_energy(),
        "voltage-scaled idle domain must save energy"
    );
}

#[test]
fn slowing_the_integer_domain_hurts_integer_code() {
    let program = generate(Benchmark::Gcc, 2);
    let gals =
        simulate(&program, ProcessorConfig::gals_equal_1ghz(1), LIMITS).expect("simulation failed");
    let plan = DvfsPlan::nominal().with_slowdown(Domain::IntCluster, 2.0);
    let cfg = ProcessorConfig::gals_equal_1ghz(1).with_dvfs(plan);
    let slowed = simulate(&program, cfg, LIMITS).expect("simulation failed");
    let slowdown = slowed.exec_time.as_fs() as f64 / gals.exec_time.as_fs() as f64;
    assert!(
        slowdown > 1.1,
        "halving the integer cluster's clock must hurt gcc ({slowdown})"
    );
}

#[test]
fn uniformly_slowed_base_scales_time_linearly() {
    let program = generate(Benchmark::Mpeg2, 2);
    let base =
        simulate(&program, ProcessorConfig::synchronous_1ghz(), LIMITS).expect("simulation failed");
    let mut plan = DvfsPlan::nominal();
    plan.slowdown = [1.5; 5];
    let cfg = ProcessorConfig::synchronous_1ghz().with_dvfs(plan);
    let slowed = simulate(&program, cfg, LIMITS).expect("simulation failed");
    let ratio = slowed.exec_time.as_fs() as f64 / base.exec_time.as_fs() as f64;
    assert!(
        (ratio - 1.5).abs() < 0.01,
        "uniform slowdown must scale execution time by the factor ({ratio})"
    );
    assert!(
        slowed.total_energy() < base.total_energy(),
        "ideal voltage scaling must save energy"
    );
}

#[test]
fn phase_variation_is_small_but_nonzero() {
    let program = generate(Benchmark::Ijpeg, 2);
    let mut times = Vec::new();
    for seed in 1..=5 {
        let r = simulate(&program, ProcessorConfig::gals_equal_1ghz(seed), LIMITS)
            .expect("simulation failed");
        times.push(r.exec_time.as_fs());
    }
    let max = *times.iter().max().expect("non-empty");
    let min = *times.iter().min().expect("non-empty");
    assert!(max > min, "different phases must perturb timing");
    let spread = (max - min) as f64 / min as f64;
    // Short runs see a few percent; full-length runs land near the
    // paper's ~0.5% (see the phase_sensitivity binary).
    assert!(
        spread < 0.10,
        "phase-induced variation should be small ({spread})"
    );
}

#[test]
fn wrong_path_instructions_never_commit() {
    // A coin-flip branch stresses recovery; committed count must still be
    // exactly the architectural prefix.
    let program = micro::random_branches(3_000);
    let r = simulate(
        &program,
        ProcessorConfig::gals_equal_1ghz(3),
        SimLimits::insts(8_000),
    )
    .expect("simulation failed");
    assert_eq!(r.committed, 8_000);
    assert!(
        r.wrong_path_fetched > 0,
        "coin-flip branches must cause wrong-path fetch"
    );
}

#[test]
fn cross_cluster_chains_run_on_all_three_clusters() {
    let program = micro::cross_cluster(2_000);
    let r = simulate(
        &program,
        ProcessorConfig::gals_equal_1ghz(1),
        SimLimits::insts(10_000),
    )
    .expect("simulation failed");
    assert_eq!(r.committed, 10_000);
    for (i, iq) in r.iq.iter().enumerate() {
        assert!(iq.issued > 0, "cluster {i} must issue instructions");
    }
}

#[test]
fn clocking_accessors_are_consistent() {
    let cfg = ProcessorConfig::gals_equal_1ghz(9);
    if let Clocking::Gals(clocks) = &cfg.clocking {
        for d in Domain::ALL {
            assert_eq!(cfg.clocking.domain_clock(d), clocks[d.index()]);
        }
    } else {
        panic!("gals_equal_1ghz must build a GALS clocking");
    }
}
