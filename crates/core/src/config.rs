//! Processor configuration: clocking style, microarchitecture, energy
//! parameters and per-domain voltage/frequency scaling.

use gals_clocks::{ClockSpec, Domain, PausibleClockModel, PausibleModel, VoltageScaling};
use gals_events::Time;
use gals_power::EnergyParams;
use gals_uarch::UarchConfig;

/// Clocking style of a simulated processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clocking {
    /// The base machine: one clock drives all five regions; communication
    /// uses ordinary pipeline latches and the global clock grid burns power
    /// every cycle.
    Synchronous(ClockSpec),
    /// The GALS machine: five independent local clocks (period *and* phase),
    /// mixed-clock FIFOs on every domain crossing, no global grid.
    Gals([ClockSpec; 5]),
    /// The pausible-clock machine of the paper's section-3.2 ablation: five
    /// independent local clocks as in [`Clocking::Gals`], but domain
    /// crossings synchronise by *stretching both participating clocks* for
    /// one arbiter handshake instead of buffering through mixed-clock
    /// FIFOs. Channels behave as plain latches with no synchronisation
    /// delay; every inter-domain transfer delays the next edge of the
    /// producer's and consumer's clocks by the model's handshake time.
    ///
    /// The `transfer` field selects the capacity model of the crossings:
    /// [`PausibleModel::Latched`] keeps full latch capacity (only the
    /// handshake timing is charged), [`PausibleModel::Rendezvous`] strips
    /// every crossing to a single-entry rendezvous port, so producers
    /// block — retrying every cycle until the consuming pop — while a port
    /// is occupied, charging the capacity cost of unbuffered handshakes
    /// too (reported per domain in `SimReport::rendezvous_blocked`).
    Pausible {
        /// The five local clocks, indexed by [`Domain::index`].
        clocks: [ClockSpec; 5],
        /// Handshake timing of the pausible interface.
        model: PausibleClockModel,
        /// Capacity model of the inter-domain crossings.
        transfer: PausibleModel,
    },
}

impl Clocking {
    /// The clock of a domain (in the synchronous machine, every domain
    /// shares the single clock).
    pub fn domain_clock(&self, domain: Domain) -> ClockSpec {
        match self {
            Clocking::Synchronous(c) => *c,
            Clocking::Gals(clocks) | Clocking::Pausible { clocks, .. } => clocks[domain.index()],
        }
    }

    /// True for the single-clock base machine (the only variant with a
    /// global clock grid).
    pub fn is_synchronous(&self) -> bool {
        matches!(self, Clocking::Synchronous(_))
    }

    /// True for the GALS (mixed-clock FIFO) variant.
    pub fn is_gals(&self) -> bool {
        matches!(self, Clocking::Gals(_))
    }

    /// True for the pausible-clock variant.
    pub fn is_pausible(&self) -> bool {
        matches!(self, Clocking::Pausible { .. })
    }

    /// The slowest domain period (used for watchdogs and normalisation).
    pub fn max_period(&self) -> Time {
        match self {
            Clocking::Synchronous(c) => c.period,
            Clocking::Gals(clocks) | Clocking::Pausible { clocks, .. } => {
                clocks.iter().map(|c| c.period).max().expect("five clocks")
            }
        }
    }
}

/// A per-domain slowdown plan with the supply voltage tracking the clock
/// (the paper's multiple-clock, multiple-voltage experiments).
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsPlan {
    /// Slowdown factor per domain (1.0 = nominal), indexed by
    /// [`Domain::index`].
    pub slowdown: [f64; 5],
    /// The voltage/delay law used to derive per-domain energy factors.
    pub tech: VoltageScaling,
}

impl Default for DvfsPlan {
    fn default() -> Self {
        DvfsPlan {
            slowdown: [1.0; 5],
            tech: VoltageScaling::cmos_013um(),
        }
    }
}

impl DvfsPlan {
    /// A plan with no scaling.
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Sets one domain's slowdown (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    #[must_use]
    pub fn with_slowdown(mut self, domain: Domain, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown must be >= 1, got {factor}");
        self.slowdown[domain.index()] = factor;
        self
    }

    /// Dynamic-energy factor of one domain under ideal voltage tracking.
    pub fn energy_factor(&self, domain: Domain) -> f64 {
        self.tech
            .energy_factor_for_slowdown(self.slowdown[domain.index()])
    }

    /// True when any domain is scaled.
    pub fn is_active(&self) -> bool {
        self.slowdown.iter().any(|&s| s != 1.0)
    }
}

/// Full configuration of one simulated processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorConfig {
    /// Clocking style.
    pub clocking: Clocking,
    /// Microarchitecture (paper Table 3 defaults).
    pub uarch: UarchConfig,
    /// Energy parameters.
    pub energy: EnergyParams,
    /// Capacity of the inter-domain dataflow channels (fetch->decode,
    /// dispatch, completion).
    pub channel_capacity: usize,
    /// Capacity of wakeup/redirect side channels (sized generously; the
    /// bypass network is not a real queue).
    pub side_channel_capacity: usize,
    /// FIFO forward-synchronisation delay in *consumer periods* (the
    /// empty-flag synchroniser depth; 1.0 models the Chelcea–Nowick
    /// low-latency design).
    pub fifo_sync_periods: f64,
    /// Per-domain DVFS plan (applies per domain to the GALS and pausible
    /// machines; for the synchronous machine only a uniform plan is
    /// meaningful).
    pub dvfs: DvfsPlan,
    /// Pausible clocking only: coalesce the wakeup broadcasts of one
    /// writeback cycle into a single handshake per domain crossing instead
    /// of one per destination tag. Softens the pausible penalty (the
    /// ROADMAP follow-up to the section-3.2 ablation); `false` reproduces
    /// the paper's one-handshake-per-transaction machine. The tags still
    /// travel individually — only the clock-stretch charge is shared.
    pub coalesce_wakeup_stretch: bool,
    /// Producer-side cross-cluster wakeup filter: destination tags are
    /// broadcast only to remote clusters that renamed a consumer of the tag
    /// before the producer's writeback; consumers renamed later read the
    /// committed value through the rename-time busy-bit check instead (see
    /// the dependence-filter notes in `pipeline.rs`). Cuts the two
    /// per-instruction remote wakeup channel ops the paper's machine wastes
    /// when dependents are cluster-local. `false` reproduces the paper's
    /// broadcast-to-everyone design.
    pub cross_cluster_wakeup_filter: bool,
}

impl ProcessorConfig {
    /// The paper's base machine at 1 GHz.
    pub fn synchronous_1ghz() -> Self {
        ProcessorConfig {
            clocking: Clocking::Synchronous(ClockSpec::from_ghz(1.0)),
            uarch: UarchConfig::default(),
            energy: EnergyParams::default(),
            channel_capacity: 12,
            side_channel_capacity: 256,
            fifo_sync_periods: 1.25,
            dvfs: DvfsPlan::nominal(),
            coalesce_wakeup_stretch: false,
            cross_cluster_wakeup_filter: false,
        }
    }

    /// The paper's first GALS experiment: all five clocks at 1 GHz, each
    /// with an independent pseudo-random phase derived from `phase_seed`
    /// ("the starting phase of each clock was set to a random value at
    /// runtime").
    pub fn gals_equal_1ghz(phase_seed: u64) -> Self {
        let base = ClockSpec::from_ghz(1.0);
        let clocks: [ClockSpec; 5] =
            std::array::from_fn(|i| base.with_random_phase(phase_seed, i as u64 + 1));
        ProcessorConfig {
            clocking: Clocking::Gals(clocks),
            ..Self::synchronous_1ghz()
        }
    }

    /// The pausible-clock ablation machine: the same five 1 GHz clocks and
    /// pseudo-random phases as [`ProcessorConfig::gals_equal_1ghz`] (taken
    /// from it directly, so paired head-to-head comparisons share phases by
    /// construction), with a conservative 300 ps handshake (arbitration +
    /// data transfer against a 1 ns cycle) stretched into both endpoint
    /// clocks on every domain crossing.
    pub fn pausible_equal_1ghz(phase_seed: u64) -> Self {
        let gals = Self::gals_equal_1ghz(phase_seed);
        let Clocking::Gals(clocks) = gals.clocking else {
            unreachable!("gals_equal_1ghz builds a GALS clocking")
        };
        ProcessorConfig {
            clocking: Clocking::Pausible {
                clocks,
                model: PausibleClockModel::new(Time::from_ps(300)),
                transfer: PausibleModel::Latched,
            },
            ..gals
        }
    }

    /// The rendezvous (unbuffered) pausible machine: exactly
    /// [`ProcessorConfig::pausible_equal_1ghz`], but every inter-domain
    /// crossing is a single-entry rendezvous port instead of a latch —
    /// producers block until the consumer pops, charging the *capacity*
    /// cost of pausible handshakes on top of their timing cost.
    pub fn pausible_rendezvous_1ghz(phase_seed: u64) -> Self {
        Self::pausible_equal_1ghz(phase_seed).with_pausible_model(PausibleModel::Rendezvous)
    }

    /// Sets the pausible transfer-capacity model (builder style) — the
    /// latched-vs-rendezvous axis of the section-3.2 comparison.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not pausible: the transfer model is
    /// a property of the pausible interface, so setting it on a FIFO or
    /// synchronous machine would silently measure nothing.
    #[must_use]
    pub fn with_pausible_model(mut self, transfer: PausibleModel) -> Self {
        match &mut self.clocking {
            Clocking::Pausible { transfer: t, .. } => {
                *t = transfer;
                self
            }
            other => panic!("transfer model only applies to pausible clocking, not {other:?}"),
        }
    }

    /// Sets the pausible-interface handshake duration (builder style) —
    /// the independent variable of the handshake-duration sweep.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not pausible: the handshake is a
    /// property of the pausible arbiter, so setting it on a FIFO or
    /// synchronous machine would silently measure nothing.
    #[must_use]
    pub fn with_pausible_handshake(mut self, handshake: Time) -> Self {
        match &mut self.clocking {
            Clocking::Pausible { model, .. } => {
                *model = PausibleClockModel::new(handshake);
                self
            }
            other => panic!("handshake duration only applies to pausible clocking, not {other:?}"),
        }
    }

    /// Enables/disables one-handshake-per-cycle wakeup coalescing (builder
    /// style; meaningful only under pausible clocking).
    #[must_use]
    pub fn with_wakeup_coalescing(mut self, on: bool) -> Self {
        self.coalesce_wakeup_stretch = on;
        self
    }

    /// Enables/disables the producer-side cross-cluster wakeup filter
    /// (builder style).
    #[must_use]
    pub fn with_wakeup_filter(mut self, on: bool) -> Self {
        self.cross_cluster_wakeup_filter = on;
        self
    }

    /// Applies a DVFS plan: GALS domain clocks are slowed per the plan and
    /// supply-voltage energy factors are configured to match.
    ///
    /// # Panics
    ///
    /// Panics if called on a synchronous configuration with a non-uniform
    /// plan (a single clock cannot be split).
    #[must_use]
    pub fn with_dvfs(mut self, plan: DvfsPlan) -> Self {
        match &mut self.clocking {
            Clocking::Gals(clocks) | Clocking::Pausible { clocks, .. } => {
                for d in Domain::ALL {
                    let i = d.index();
                    *clocks.get_mut(i).expect("five clocks") = clocks[i].slowed(plan.slowdown[i]);
                }
            }
            Clocking::Synchronous(clock) => {
                let s = plan.slowdown[0];
                assert!(
                    plan.slowdown.iter().all(|&x| x == s),
                    "a synchronous machine cannot scale domains independently"
                );
                *clock = clock.slowed(s);
            }
        }
        self.dvfs = plan;
        self
    }

    /// A canonical string capturing everything about this configuration
    /// that can affect simulation output — the processor-config
    /// contribution to the sweep harness's `RunKey` content hash.
    ///
    /// Built on the derived `Debug` rendering (complete by construction:
    /// every field participates, including clock periods and phases,
    /// handshake duration, transfer model, microarchitecture and energy
    /// parameters), prefixed with an identity-format version tag. Any
    /// semantic change to a config therefore changes the identity; a
    /// field *rename* changes it too, which over-invalidates caches — the
    /// safe direction. Silent under-invalidation is impossible because
    /// `Debug` is derived and exhaustive.
    pub fn stable_identity(&self) -> String {
        format!("pcfg-v1|{self:?}")
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found in the microarchitecture,
    /// energy parameters or channel sizing.
    pub fn validate(&self) -> Result<(), String> {
        self.uarch.validate()?;
        self.energy.validate()?;
        if self.channel_capacity < 2 {
            return Err("channel capacity must be at least 2".into());
        }
        if self.side_channel_capacity < 16 {
            return Err("side channels must hold at least 16 messages".into());
        }
        if !(0.0..=8.0).contains(&self.fifo_sync_periods) {
            return Err(format!(
                "fifo_sync_periods {} outside [0, 8]",
                self.fifo_sync_periods
            ));
        }
        Ok(())
    }
}

/// Bounds on a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLimits {
    /// Stop after committing this many instructions (or at program exit,
    /// whichever is first).
    pub max_insts: u64,
    /// End the run with [`SimError::Deadlock`](crate::SimError) if no
    /// instruction commits for this many slow-domain periods — a deadlock
    /// watchdog; `0` disables it.
    pub watchdog_cycles: u64,
    /// Deterministic fault injection (chaos mode), for exercising the
    /// failure-handling layer end-to-end. Compiled in only with the
    /// `chaos` feature; defaults to no faults, under which the simulation
    /// is bit-identical to a build without the feature.
    #[cfg(feature = "chaos")]
    pub chaos: ChaosFaults,
}

/// Chaos-mode fault plan carried by [`SimLimits`] (feature `chaos`).
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosFaults {
    /// Withhold the writeback of every instruction with a sequence number
    /// at or past this one: the first correct-path instruction past the
    /// threshold never completes, commit wedges behind it, and the
    /// deadlock layer must surface a structured report. (A `>=` threshold
    /// rather than an exact seq match, so the wedge cannot be defused by
    /// the targeted seq landing on a squashed wrong path.) `None` injects
    /// nothing.
    pub withhold_writeback: Option<u64>,
}

impl Default for SimLimits {
    fn default() -> Self {
        Self::insts(100_000)
    }
}

impl SimLimits {
    /// Limits with the given committed-instruction budget and the default
    /// watchdog window.
    pub const fn insts(max_insts: u64) -> Self {
        SimLimits {
            max_insts,
            watchdog_cycles: 200_000,
            #[cfg(feature = "chaos")]
            chaos: ChaosFaults {
                withhold_writeback: None,
            },
        }
    }

    /// Same limits with the watchdog window replaced (`0` disables it).
    pub const fn with_watchdog_cycles(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_config_validates() {
        let c = ProcessorConfig::synchronous_1ghz();
        c.validate().unwrap();
        assert!(!c.clocking.is_gals());
        assert_eq!(
            c.clocking.domain_clock(Domain::Fetch).period,
            Time::from_ns(1)
        );
    }

    #[test]
    fn gals_phases_are_random_but_reproducible() {
        let a = ProcessorConfig::gals_equal_1ghz(7);
        let b = ProcessorConfig::gals_equal_1ghz(7);
        assert_eq!(a.clocking, b.clocking);
        let c = ProcessorConfig::gals_equal_1ghz(8);
        assert_ne!(a.clocking, c.clocking);
        if let Clocking::Gals(clocks) = &a.clocking {
            let phases: std::collections::HashSet<u64> =
                clocks.iter().map(|c| c.phase.as_fs()).collect();
            assert!(phases.len() >= 4, "phases should differ across domains");
            for c in clocks {
                assert_eq!(c.period, Time::from_ns(1));
            }
        }
    }

    #[test]
    fn dvfs_plan_slows_clocks_and_scales_energy() {
        let plan = DvfsPlan::nominal().with_slowdown(Domain::FpCluster, 2.0);
        let cfg = ProcessorConfig::gals_equal_1ghz(1).with_dvfs(plan.clone());
        if let Clocking::Gals(clocks) = &cfg.clocking {
            assert_eq!(clocks[Domain::FpCluster.index()].period, Time::from_ns(2));
            assert_eq!(clocks[Domain::Fetch.index()].period, Time::from_ns(1));
        }
        assert!(plan.energy_factor(Domain::FpCluster) < 1.0);
        assert_eq!(plan.energy_factor(Domain::Fetch), 1.0);
        assert!(plan.is_active());
    }

    #[test]
    fn uniform_dvfs_on_synchronous_machine() {
        let mut plan = DvfsPlan::nominal();
        plan.slowdown = [1.5; 5];
        let cfg = ProcessorConfig::synchronous_1ghz().with_dvfs(plan);
        if let Clocking::Synchronous(c) = &cfg.clocking {
            assert_eq!(c.period, Time::from_fs(1_500_000));
        }
    }

    #[test]
    #[should_panic(expected = "independently")]
    fn non_uniform_dvfs_on_sync_panics() {
        let plan = DvfsPlan::nominal().with_slowdown(Domain::FpCluster, 2.0);
        let _ = ProcessorConfig::synchronous_1ghz().with_dvfs(plan);
    }

    #[test]
    fn pausible_config_validates_and_matches_gals_clocks() {
        let p = ProcessorConfig::pausible_equal_1ghz(7);
        p.validate().unwrap();
        assert!(p.clocking.is_pausible());
        assert!(!p.clocking.is_gals());
        assert!(!p.clocking.is_synchronous());
        let g = ProcessorConfig::gals_equal_1ghz(7);
        for d in Domain::ALL {
            // Same phases as the GALS machine for paired comparisons.
            assert_eq!(p.clocking.domain_clock(d), g.clocking.domain_clock(d));
        }
        assert_eq!(p.clocking.max_period(), Time::from_ns(1));
    }

    #[test]
    fn dvfs_slows_pausible_clocks_per_domain() {
        let plan = DvfsPlan::nominal().with_slowdown(Domain::MemCluster, 2.0);
        let cfg = ProcessorConfig::pausible_equal_1ghz(1).with_dvfs(plan);
        if let Clocking::Pausible { clocks, model, .. } = &cfg.clocking {
            assert_eq!(clocks[Domain::MemCluster.index()].period, Time::from_ns(2));
            assert_eq!(clocks[Domain::Fetch.index()].period, Time::from_ns(1));
            assert_eq!(model.handshake, Time::from_ps(300));
        } else {
            panic!("pausible clocking expected");
        }
    }

    #[test]
    fn pausible_transfer_model_defaults_latched_and_builds_rendezvous() {
        let latched = ProcessorConfig::pausible_equal_1ghz(7);
        let Clocking::Pausible { transfer, .. } = latched.clocking else {
            panic!("pausible clocking expected");
        };
        assert_eq!(transfer, PausibleModel::Latched);

        let rdv = ProcessorConfig::pausible_rendezvous_1ghz(7);
        rdv.validate().unwrap();
        let Clocking::Pausible {
            clocks,
            model,
            transfer,
        } = rdv.clocking
        else {
            panic!("pausible clocking expected");
        };
        assert_eq!(transfer, PausibleModel::Rendezvous);
        // Everything except the transfer model matches the latched machine
        // (paired comparisons share clocks, phases and handshake).
        let Clocking::Pausible {
            clocks: lclocks,
            model: lmodel,
            ..
        } = latched.clocking
        else {
            unreachable!()
        };
        assert_eq!(clocks, lclocks);
        assert_eq!(model, lmodel);
    }

    #[test]
    #[should_panic(expected = "pausible")]
    fn transfer_model_builder_rejects_fifo_gals() {
        let _ = ProcessorConfig::gals_equal_1ghz(1).with_pausible_model(PausibleModel::Rendezvous);
    }

    #[test]
    fn handshake_builder_sets_the_pausible_model() {
        let cfg =
            ProcessorConfig::pausible_equal_1ghz(1).with_pausible_handshake(Time::from_ps(150));
        if let Clocking::Pausible { model, .. } = &cfg.clocking {
            assert_eq!(model.handshake, Time::from_ps(150));
        } else {
            panic!("pausible clocking expected");
        }
    }

    #[test]
    #[should_panic(expected = "pausible")]
    fn handshake_builder_rejects_fifo_gals() {
        let _ = ProcessorConfig::gals_equal_1ghz(1).with_pausible_handshake(Time::from_ps(150));
    }

    #[test]
    fn wakeup_feature_flags_default_off() {
        for cfg in [
            ProcessorConfig::synchronous_1ghz(),
            ProcessorConfig::gals_equal_1ghz(1),
            ProcessorConfig::pausible_equal_1ghz(1),
        ] {
            assert!(
                !cfg.coalesce_wakeup_stretch,
                "paper machine has no coalescing"
            );
            assert!(
                !cfg.cross_cluster_wakeup_filter,
                "paper machine broadcasts everywhere"
            );
        }
        let cfg = ProcessorConfig::gals_equal_1ghz(1)
            .with_wakeup_filter(true)
            .with_wakeup_coalescing(true);
        assert!(cfg.cross_cluster_wakeup_filter);
        assert!(cfg.coalesce_wakeup_stretch);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_channel_sizes() {
        let mut c = ProcessorConfig::synchronous_1ghz();
        c.channel_capacity = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn stable_identity_separates_semantic_points_and_repeats_exactly() {
        let base = ProcessorConfig::pausible_equal_1ghz(7);
        assert_eq!(base.stable_identity(), base.stable_identity());
        assert!(base.stable_identity().starts_with("pcfg-v1|"));
        // Every semantic axis must perturb the identity.
        for other in [
            ProcessorConfig::synchronous_1ghz(),
            ProcessorConfig::gals_equal_1ghz(7),
            ProcessorConfig::pausible_equal_1ghz(8),
            ProcessorConfig::pausible_rendezvous_1ghz(7),
            ProcessorConfig::pausible_equal_1ghz(7).with_pausible_handshake(Time::from_ps(999)),
            ProcessorConfig::pausible_equal_1ghz(7).with_wakeup_filter(true),
        ] {
            assert_ne!(base.stable_identity(), other.stable_identity());
        }
    }
}
