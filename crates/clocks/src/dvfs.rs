//! Dynamic voltage scaling: the paper's equation (1).
//!
//! The delay of CMOS logic at supply voltage `Vdd` follows
//!
//! ```text
//! D ∝ Vdd / (Vdd - Vt)^α                                   (1)
//! ```
//!
//! with threshold voltage `Vt` and a technology exponent `α` (2.0 at
//! 0.35 µm, between 1 and 2 below; the paper uses α = 1.6 for 0.13 µm
//! devices). When a clock domain is slowed by a factor `s ≥ 1`, its supply
//! can be reduced to the voltage at which delay grows by exactly `s`;
//! dynamic energy then scales by `(V/Vnom)²`.

/// The voltage/delay law of one process technology.
///
/// # Examples
///
/// ```
/// use gals_clocks::VoltageScaling;
///
/// let tech = VoltageScaling::cmos_013um();
/// // Slowing a domain 2x lets Vdd drop well below nominal…
/// let v = tech.vdd_for_slowdown(2.0);
/// assert!(v < tech.vdd_nominal);
/// // …and dynamic energy falls quadratically.
/// let e = tech.energy_factor_for_slowdown(2.0);
/// assert!(e < 0.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageScaling {
    /// Nominal supply voltage (volts).
    pub vdd_nominal: f64,
    /// Threshold voltage (volts).
    pub vt: f64,
    /// Technology exponent α.
    pub alpha: f64,
}

impl VoltageScaling {
    /// The paper's evaluation technology: 0.13 µm, α = 1.6.
    pub fn cmos_013um() -> Self {
        VoltageScaling {
            vdd_nominal: 1.3,
            vt: 0.3,
            alpha: 1.6,
        }
    }

    /// Raw delay figure `Vdd / (Vdd - Vt)^α`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd <= vt` (the device does not switch).
    pub fn delay(&self, vdd: f64) -> f64 {
        assert!(vdd > self.vt, "vdd {vdd} must exceed vt {}", self.vt);
        vdd / (vdd - self.vt).powf(self.alpha)
    }

    /// Delay at `vdd` relative to delay at nominal voltage (1.0 at nominal,
    /// growing as the supply is lowered).
    pub fn delay_factor(&self, vdd: f64) -> f64 {
        self.delay(vdd) / self.delay(self.vdd_nominal)
    }

    /// The supply voltage at which logic is exactly `slowdown` times slower
    /// than at nominal (solved by bisection to sub-millivolt precision).
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1` (overdrive is out of scope).
    pub fn vdd_for_slowdown(&self, slowdown: f64) -> f64 {
        assert!(slowdown >= 1.0, "slowdown must be >= 1, got {slowdown}");
        if slowdown == 1.0 {
            return self.vdd_nominal;
        }
        // delay_factor is monotonically decreasing in vdd on (vt, vdd_nom]:
        // bisect for delay_factor(v) == slowdown.
        let mut lo = self.vt + 1e-6; // delay -> infinity
        let mut hi = self.vdd_nominal; // delay factor 1
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.delay_factor(mid) > slowdown {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Dynamic-energy multiplier at supply `vdd`: `(V/Vnom)²`.
    pub fn energy_factor(&self, vdd: f64) -> f64 {
        let r = vdd / self.vdd_nominal;
        r * r
    }

    /// Dynamic-energy multiplier for a domain slowed by `slowdown` with the
    /// supply reduced to match ("ideal" scaling — the paper notes real
    /// DC-DC conversion adds overhead on top).
    pub fn energy_factor_for_slowdown(&self, slowdown: f64) -> f64 {
        self.energy_factor(self.vdd_for_slowdown(slowdown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity() {
        let t = VoltageScaling::cmos_013um();
        assert!((t.delay_factor(t.vdd_nominal) - 1.0).abs() < 1e-12);
        assert!((t.vdd_for_slowdown(1.0) - t.vdd_nominal).abs() < 1e-12);
        assert!((t.energy_factor_for_slowdown(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_voltage_is_slower() {
        let t = VoltageScaling::cmos_013um();
        assert!(t.delay_factor(1.0) > 1.0);
        assert!(t.delay_factor(0.8) > t.delay_factor(1.0));
    }

    #[test]
    fn bisection_inverts_the_law() {
        let t = VoltageScaling::cmos_013um();
        for s in [1.1, 1.2, 1.5, 2.0, 3.0] {
            let v = t.vdd_for_slowdown(s);
            assert!(
                (t.delay_factor(v) - s).abs() < 1e-6,
                "slowdown {s}: got {}",
                t.delay_factor(v)
            );
        }
    }

    #[test]
    fn energy_savings_grow_with_slowdown() {
        let t = VoltageScaling::cmos_013um();
        let e11 = t.energy_factor_for_slowdown(1.1);
        let e15 = t.energy_factor_for_slowdown(1.5);
        let e30 = t.energy_factor_for_slowdown(3.0);
        assert!(e11 < 1.0);
        assert!(e15 < e11);
        assert!(e30 < e15);
        // At 3x slowdown the supply approaches Vt; energy drops steeply.
        assert!(e30 < 0.4, "3x slowdown energy factor {e30}");
    }

    #[test]
    fn smaller_alpha_gives_bigger_savings_at_a_given_delay() {
        // The paper: "savings arising out of dynamic voltage scaling for a
        // given delay value are higher for smaller technology generations"
        // (smaller alpha). Compare at equal vdd_nominal/vt so only alpha
        // differs.
        let a16 = VoltageScaling {
            vdd_nominal: 1.3,
            vt: 0.3,
            alpha: 1.6,
        };
        let a20 = VoltageScaling {
            vdd_nominal: 1.3,
            vt: 0.3,
            alpha: 2.0,
        };
        let e16 = a16.energy_factor_for_slowdown(1.5);
        let e20 = a20.energy_factor_for_slowdown(1.5);
        assert!(
            e16 < e20,
            "alpha 1.6 should save more than alpha 2.0: {e16} vs {e20}"
        );
    }

    #[test]
    #[should_panic(expected = "must exceed vt")]
    fn delay_below_threshold_panics() {
        let t = VoltageScaling::cmos_013um();
        let _ = t.delay(0.2);
    }
}
