//! The power accountant: turns per-cycle activity into energy, with
//! per-domain voltage scaling and a Figure 10-style breakdown.

use gals_clocks::Domain;
use gals_events::Time;

use crate::blocks::MacroBlock;
use crate::params::EnergyParams;

/// Energy totals of one simulation, in relative energy units (EU).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdown {
    /// Per-block energy, indexed by [`MacroBlock::index`].
    pub blocks: [f64; MacroBlock::ALL.len()],
    /// Global clock grid energy (zero for GALS).
    pub global_clock: f64,
    /// Per-domain local grid energy, indexed by [`Domain::index`].
    pub local_clocks: [f64; 5],
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.blocks.iter().sum::<f64>() + self.global_clock + self.local_clocks.iter().sum::<f64>()
    }

    /// Total clock (grid) energy.
    pub fn clock_total(&self) -> f64 {
        self.global_clock + self.local_clocks.iter().sum::<f64>()
    }

    /// Energy of one block.
    pub fn block(&self, block: MacroBlock) -> f64 {
        self.blocks[block.index()]
    }

    /// Average power over a run of length `elapsed` (EU per second).
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn average_power(&self, elapsed: Time) -> f64 {
        assert!(elapsed > Time::ZERO, "cannot compute power over zero time");
        self.total() / elapsed.as_secs_f64()
    }
}

/// Accumulates energy as the pipeline simulation reports activity.
///
/// The owning simulator calls, per local clock edge of each domain:
/// 1. [`PowerAccountant::tick_domain`] — charges that domain's clock grid;
/// 2. [`PowerAccountant::block_cycle`] for each block in the domain —
///    charges active or idle (10 %) energy;
/// 3. [`PowerAccountant::fifo_access`] for each FIFO push/pop.
///
/// The base machine additionally calls [`PowerAccountant::tick_global`]
/// every cycle; the GALS machine never does ("since there is no global
/// clock, we eliminated the switching capacitance of the global clock
/// grid").
///
/// Internally the accountant stores exact integer *cycle counts* and
/// defers the energy arithmetic to [`PowerAccountant::breakdown`]: the
/// per-tick charge is a counter increment, not a float multiply-add.
/// Voltage factors must therefore be configured before simulation starts,
/// as the pipeline does.
///
/// # Examples
///
/// ```
/// use gals_power::{PowerAccountant, EnergyParams, MacroBlock};
/// use gals_clocks::Domain;
///
/// let mut acc = PowerAccountant::new(EnergyParams::default());
/// acc.tick_global();
/// acc.tick_domain(Domain::Fetch);
/// acc.block_cycle(MacroBlock::ICache, true);
/// acc.block_cycle(MacroBlock::BranchPredictor, false); // idle: 10%
/// let e = acc.breakdown();
/// assert!(e.global_clock > 0.0);
/// assert!(e.block(MacroBlock::ICache) > e.block(MacroBlock::BranchPredictor));
/// ```
#[derive(Debug, Clone)]
pub struct PowerAccountant {
    params: EnergyParams,
    /// Dynamic-energy multiplier per domain ((V/Vnom)², 1.0 at nominal).
    domain_factor: [f64; 5],
    /// Multiplier for the global grid (base machine's single supply).
    global_factor: f64,
    /// `(active, idle)` cycle counts per block.
    block_cycles: [(u64, u64); MacroBlock::ALL.len()],
    /// Stretched nominal-cycle equivalents per domain (pausible clocking).
    stretched_cycles: [f64; 5],
    /// Cycle counters per domain.
    domain_cycles: [u64; 5],
    global_cycles: u64,
    fifo_accesses: u64,
}

impl PowerAccountant {
    /// Creates an accountant with all voltage factors at nominal.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn new(params: EnergyParams) -> Self {
        params.validate().expect("invalid energy parameters");
        PowerAccountant {
            params,
            domain_factor: [1.0; 5],
            global_factor: 1.0,
            block_cycles: [(0, 0); MacroBlock::ALL.len()],
            stretched_cycles: [0.0; 5],
            domain_cycles: [0; 5],
            global_cycles: 0,
            fifo_accesses: 0,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Sets the dynamic-energy multiplier of one domain — `(V/Vnom)²` from
    /// [`gals_clocks::VoltageScaling::energy_factor_for_slowdown`]. Must be
    /// configured before activity is charged (factors apply to the whole
    /// run at [`PowerAccountant::breakdown`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`-ish sane range `(0, 4)`.
    pub fn set_domain_voltage_factor(&mut self, domain: Domain, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor < 4.0,
            "implausible voltage energy factor {factor}"
        );
        self.domain_factor[domain.index()] = factor;
    }

    /// Sets the global (base machine) voltage factor.
    pub fn set_global_voltage_factor(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0 && factor < 4.0);
        self.global_factor = factor;
        self.domain_factor = [factor; 5];
    }

    /// Charges one cycle of the global clock grid.
    #[inline]
    pub fn tick_global(&mut self) {
        self.global_cycles += 1;
    }

    /// Charges one cycle of a domain's local clock grid.
    #[inline]
    pub fn tick_domain(&mut self, domain: Domain) {
        self.domain_cycles[domain.index()] += 1;
    }

    /// Charges one local cycle of a block: full energy when `active`, the
    /// idle fraction otherwise (Wattch-style conditional clocking, the
    /// paper's "unused modules … consuming 10 % of their full power").
    #[inline]
    pub fn block_cycle(&mut self, block: MacroBlock, active: bool) {
        let slot = &mut self.block_cycles[block.index()];
        if active {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }

    /// Charges `extra_cycles` nominal-cycle equivalents of one domain's
    /// local clock grid. A pausible clock that stretches its phase keeps
    /// its local tree driven over the *effective* (stretched) period, so
    /// stretch time burns grid energy exactly as ordinary cycles do —
    /// pro-rated here in units of the nominal period.
    ///
    /// # Panics
    ///
    /// Panics if `extra_cycles` is negative or not finite.
    pub fn stretched_clock(&mut self, domain: Domain, extra_cycles: f64) {
        assert!(
            extra_cycles.is_finite() && extra_cycles >= 0.0,
            "implausible stretched-cycle count {extra_cycles}"
        );
        self.stretched_cycles[domain.index()] += extra_cycles;
    }

    /// Charges `count` FIFO push/pop operations.
    pub fn fifo_access(&mut self, count: u64) {
        self.fifo_accesses += count;
    }

    /// Cycles charged so far per domain.
    pub fn domain_cycles(&self) -> [u64; 5] {
        self.domain_cycles
    }

    /// Global clock cycles charged.
    pub fn global_cycles(&self) -> u64 {
        self.global_cycles
    }

    /// FIFO accesses charged.
    pub fn fifo_accesses(&self) -> u64 {
        self.fifo_accesses
    }

    /// The accumulated energy breakdown, computed from the exact cycle
    /// counts: `active·E_active + idle·E_idle` per block, `cycles·E_grid`
    /// per clock grid (the paper's Wattch-style model), voltage factors
    /// applied per domain. FIFOs straddle domains and charge at the
    /// nominal supply (level converters isolate them from scaled domains).
    pub fn breakdown(&self) -> EnergyBreakdown {
        let mut blocks = [0.0; MacroBlock::ALL.len()];
        for b in MacroBlock::ALL {
            let (active, idle) = self.block_cycles[b.index()];
            let factor = self.domain_factor[b.domain().index()];
            blocks[b.index()] = (active as f64 * self.params.active(b)
                + idle as f64 * self.params.idle(b))
                * factor;
        }
        blocks[MacroBlock::Fifos.index()] += self.params.fifo_access * self.fifo_accesses as f64;
        let local_clocks = std::array::from_fn(|i| {
            let d = Domain::ALL[i];
            (self.domain_cycles[i] as f64 + self.stretched_cycles[i])
                * self.params.grid(d)
                * self.domain_factor[i]
        });
        EnergyBreakdown {
            blocks,
            global_clock: self.global_cycles as f64 * self.params.global_grid * self.global_factor,
            local_clocks,
        }
    }

    /// Total energy so far.
    pub fn total_energy(&self) -> f64 {
        self.breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_vs_idle_ratio() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.block_cycle(MacroBlock::DCache, true);
        let active = acc.breakdown().block(MacroBlock::DCache);
        let mut acc2 = PowerAccountant::new(EnergyParams::default());
        acc2.block_cycle(MacroBlock::DCache, false);
        let idle = acc2.breakdown().block(MacroBlock::DCache);
        assert!((idle / active - 0.10).abs() < 1e-12);
    }

    #[test]
    fn gals_machine_skips_global_grid() {
        let p = EnergyParams::default();
        // Base: 100 cycles, everything idle, global + local grids.
        let mut base = PowerAccountant::new(p.clone());
        // GALS: same but no global grid.
        let mut gals = PowerAccountant::new(p);
        for _ in 0..100 {
            base.tick_global();
            for d in Domain::ALL {
                base.tick_domain(d);
                gals.tick_domain(d);
            }
        }
        let eb = base.breakdown();
        let eg = gals.breakdown();
        assert_eq!(eg.global_clock, 0.0);
        assert!((eb.total() - eg.total() - 100.0 * 14.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_factor_scales_domain_energy() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.set_domain_voltage_factor(Domain::FpCluster, 0.5);
        acc.block_cycle(MacroBlock::FpAlus, true);
        acc.block_cycle(MacroBlock::IntAlus, true);
        acc.tick_domain(Domain::FpCluster);
        let e = acc.breakdown();
        let p = EnergyParams::default();
        assert!((e.block(MacroBlock::FpAlus) - 0.5 * p.active(MacroBlock::FpAlus)).abs() < 1e-12);
        assert!((e.block(MacroBlock::IntAlus) - p.active(MacroBlock::IntAlus)).abs() < 1e-12);
        assert!(
            (e.local_clocks[Domain::FpCluster.index()] - 0.5 * p.grid(Domain::FpCluster)).abs()
                < 1e-12
        );
    }

    #[test]
    fn global_voltage_factor_applies_everywhere() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.set_global_voltage_factor(0.81);
        acc.tick_global();
        acc.block_cycle(MacroBlock::ICache, true);
        let e = acc.breakdown();
        let p = EnergyParams::default();
        assert!((e.global_clock - 0.81 * p.global_grid).abs() < 1e-12);
        assert!((e.block(MacroBlock::ICache) - 0.81 * p.active(MacroBlock::ICache)).abs() < 1e-12);
    }

    #[test]
    fn stretched_clock_charges_prorated_grid_energy() {
        let p = EnergyParams::default();
        let mut acc = PowerAccountant::new(p.clone());
        acc.tick_domain(Domain::Decode);
        acc.stretched_clock(Domain::Decode, 0.5);
        let e = acc.breakdown();
        let expect = p.grid(Domain::Decode) * 1.5;
        assert!((e.local_clocks[Domain::Decode.index()] - expect).abs() < 1e-12);
    }

    #[test]
    fn stretched_clock_respects_voltage_factor() {
        let p = EnergyParams::default();
        let mut acc = PowerAccountant::new(p.clone());
        acc.set_domain_voltage_factor(Domain::FpCluster, 0.5);
        acc.stretched_clock(Domain::FpCluster, 2.0);
        let e = acc.breakdown();
        let expect = p.grid(Domain::FpCluster) * 2.0 * 0.5;
        assert!((e.local_clocks[Domain::FpCluster.index()] - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "implausible stretched-cycle")]
    fn negative_stretch_cycles_rejected() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.stretched_clock(Domain::Fetch, -0.1);
    }

    #[test]
    fn fifo_energy_per_access() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.fifo_access(10);
        let e = acc.breakdown();
        let expect = EnergyParams::default().fifo_access * 10.0;
        assert!((e.block(MacroBlock::Fifos) - expect).abs() < 1e-12);
        assert_eq!(acc.fifo_accesses(), 10);
    }

    #[test]
    fn average_power_divides_by_time() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.tick_global();
        let e = acc.breakdown();
        let p = e.average_power(Time::from_ns(1));
        assert!((p - 14.0 / 1e-9).abs() / p < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero time")]
    fn power_over_zero_time_panics() {
        let acc = PowerAccountant::new(EnergyParams::default());
        let _ = acc.breakdown().average_power(Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "implausible")]
    fn bad_voltage_factor_rejected() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.set_domain_voltage_factor(Domain::Fetch, -1.0);
    }

    #[test]
    fn cycle_counters() {
        let mut acc = PowerAccountant::new(EnergyParams::default());
        acc.tick_global();
        acc.tick_global();
        acc.tick_domain(Domain::Fetch);
        assert_eq!(acc.global_cycles(), 2);
        assert_eq!(acc.domain_cycles()[0], 1);
    }
}
