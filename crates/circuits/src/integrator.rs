//! Performance equations of the CDS offset-compensated switched-capacitor
//! integrator (Fig. 1 of the paper) around the two-stage op-amp.
//!
//! The integrator is the first stage of a fourth-order Σ∆ modulator; the
//! analysis context therefore fixes a clock and oversampling ratio
//! ([`ClockContext`]) and evaluates:
//!
//! * **Settling Time (ST)** — slewing plus linear settling of the
//!   *two-pole-plus-zero* closed loop (the paper stresses that non-dominant
//!   poles and zeros are included, which makes ST/SE/DR strongly
//!   non-linear in the sizing);
//! * **Settling Error (SE)** — static loop-gain error plus the dynamic
//!   residue left at the end of the integration half-period;
//! * **Dynamic Range (DR)** — full-swing signal power over in-band
//!   kT/C + op-amp noise, with CDS double sampling accounted for;
//! * **Output Range (OR)** — differential peak-to-peak swing;
//! * **Power** — op-amp quiescent power plus capacitor switching power;
//! * **Area** — op-amp active area plus the sampled-capacitor network.

use crate::capacitor::IntegratedCapacitor;
use crate::opamp::{self, OpampReport};
use crate::process::Process;
use crate::sizing::DesignVector;
use crate::KT;

/// Sampling-clock / oversampling context shared by all analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockContext {
    /// Sampling frequency (Hz).
    pub fs: f64,
    /// Oversampling ratio of the Σ∆ modulator.
    pub osr: f64,
    /// Relative tolerance defining "settled" for the ST figure.
    pub settle_tolerance: f64,
}

impl ClockContext {
    /// The default context: 2 MHz clock, OSR 128, 0.01 % settling band —
    /// consistent with the paper's ST ≤ 0.24 µs class of specifications.
    pub fn standard() -> Self {
        ClockContext {
            fs: 2.0e6,
            osr: 128.0,
            settle_tolerance: 1e-4,
        }
    }

    /// Half clock period, the time available for integration (s).
    pub fn half_period(&self) -> f64 {
        0.5 / self.fs
    }
}

impl Default for ClockContext {
    fn default() -> Self {
        ClockContext::standard()
    }
}

/// Complete performance report of one integrator design at one process
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegratorReport {
    /// The op-amp analysis underneath.
    pub opamp: OpampReport,
    /// Feedback factor of the integration phase.
    pub beta: f64,
    /// Effective load at the op-amp output during integration (F).
    pub cl_total: f64,
    /// Loop unity-gain (crossover) angular frequency (rad/s).
    pub omega_c: f64,
    /// Non-dominant pole (rad/s).
    pub p2: f64,
    /// Right-half-plane zero (rad/s).
    pub zero: f64,
    /// Closed-loop damping ratio.
    pub zeta: f64,
    /// Slew-limited time (s).
    pub t_slew: f64,
    /// Linear settling time to the tolerance band (s).
    pub t_linear: f64,
    /// Total settling time ST (s).
    pub settling_time: f64,
    /// Settling error SE (relative).
    pub settling_error: f64,
    /// Dynamic range (dB) in the signal band.
    pub dynamic_range_db: f64,
    /// Output range OR: differential peak-to-peak swing (V).
    pub output_range: f64,
    /// Total power: op-amp + switching (W).
    pub power: f64,
    /// Total area: op-amp + capacitor network (m²).
    pub area: f64,
    /// Load capacitance this design drives (F) — the explored objective.
    pub cl: f64,
}

impl IntegratorReport {
    /// `true` when the underlying op-amp found a DC bias point.
    pub fn is_biased(&self) -> bool {
        self.opamp.is_biased()
    }
}

/// Analyzes the integrator built from `dv` in `process` under `clock`.
///
/// Like [`opamp::analyze`], this never panics on pathological sizing — the
/// report degrades gracefully (enormous ST/SE, zero DR) so constraint
/// machinery can grade arbitrary GA candidates.
///
/// This is [`prepare`] followed by [`IntegratorStage::at_load`] at
/// `dv.cl`; analyses of one design at many loads should prepare once.
pub fn analyze(dv: &DesignVector, process: &Process, clock: &ClockContext) -> IntegratorReport {
    prepare(dv, process, clock).at_load(dv.cl)
}

/// The load-independent half of the integrator analysis of one design at
/// one process point: the op-amp DC solve and every quantity that does not
/// read `C_L`. [`IntegratorStage::at_load`] finishes the analysis for a
/// load, so a search over loads solves the op-amp once.
#[derive(Debug, Clone)]
pub struct IntegratorStage {
    amp: OpampReport,
    beta: f64,
    omega_c: f64,
    zero: f64,
    dynamic_range_db: f64,
    output_range: f64,
    power: f64,
    area: f64,
    // Load-independent operands of the per-load equations.
    feedback_load: f64,
    cs_bottom: f64,
    c1: f64,
    cc: f64,
    v_step: f64,
    half_t: f64,
    eps: f64,
    static_error: f64,
}

/// Prepares the load-independent half of [`analyze`] for `dv` in `process`
/// under `clock`. Never reads `dv.cl`.
pub fn prepare(dv: &DesignVector, process: &Process, clock: &ClockContext) -> IntegratorStage {
    let amp = opamp::analyze(dv, process);

    let cs = IntegratedCapacitor::new(dv.cs);
    let cf = IntegratedCapacitor::new(dv.cf);
    let coc = IntegratedCapacitor::new(dv.coc());

    // Summing-node capacitance: sampling cap, CDS offset cap bottom plate,
    // and the amp input capacitance.
    let c_sum = dv.cs + amp.cin + coc.bottom_plate(process) + cf.bottom_plate(process);
    // Feedback factor of the integration phase.
    let beta = (dv.cf / (dv.cf + c_sum)).clamp(1e-6, 1.0);

    // The output load's fixed parts: the series feedback network and the
    // sampling-cap bottom plate on the output side of Cf.
    let feedback_load = dv.cf * c_sum / (dv.cf + c_sum);
    let cs_bottom = cs.bottom_plate(process);

    // Loop dynamics.
    let omega_u = amp.gm1 / amp.cc_eff.max(1e-18);
    let omega_c = beta * omega_u;
    let c1 = amp.c1.max(1e-18);
    let cc = amp.cc_eff.max(1e-18);
    let zero = amp.gm6 / cc;

    // Worst-case output step per integration: the sampled charge
    // transferred onto Cf with a quarter-supply differential input.
    let v_step = (dv.cs / dv.cf) * (process.vdd / 4.0);

    // Static part of the settling error.
    let loop_gain = beta * amp.a0;
    let static_error = 1.0 / (1.0 + loop_gain.max(0.0));

    // --- Dynamic range.
    let swing = amp.swing;
    let signal_power = swing * swing / 8.0; // full-scale sine, differential
                                            // CDS double-samples: 2 kT/C charges per period, differential halves
                                            // combine to an effective 4kT/Cs; oversampling divides the in-band
                                            // share.
    let ktc_noise = 4.0 * KT / dv.cs.max(1e-18) / clock.osr;
    // Op-amp broadband noise aliases into the band; the sampled noise
    // bandwidth is set by the closed-loop crossover.
    let f_u = omega_u / (2.0 * std::f64::consts::PI);
    let amp_noise = amp.noise_psd * f_u / (2.0 * clock.osr * beta.max(1e-6));
    let noise_power = (ktc_noise + amp_noise).max(1e-300);
    let dynamic_range_db = if signal_power > 0.0 {
        10.0 * (signal_power / noise_power).log10()
    } else {
        0.0
    };

    // --- Output range, power, area.
    let output_range = swing;
    let v_half = 0.5 * process.vdd;
    let switched_caps = dv.cs + dv.cf + dv.coc();
    let switching_power = 2.0 * clock.fs * switched_caps * v_half * v_half;
    let power = amp.power + switching_power;
    let cap_area = 2.0 * (cs.area(process) + cf.area(process) + coc.area(process));
    let area = amp.area + cap_area;

    IntegratorStage {
        amp,
        beta,
        omega_c,
        zero,
        dynamic_range_db,
        output_range,
        power,
        area,
        feedback_load,
        cs_bottom,
        c1,
        cc,
        v_step,
        half_t: clock.half_period(),
        eps: clock.settle_tolerance,
        static_error,
    }
}

impl IntegratorStage {
    /// Finishes the analysis at load capacitance `cl` (F): the load-
    /// dependent settling and stability figures, bit-identical to
    /// [`analyze`] of the same design with `C_L = cl`.
    pub fn at_load(&self, cl: f64) -> IntegratorReport {
        let amp = &self.amp;
        let (omega_c, c1, cc) = (self.omega_c, self.c1, self.cc);

        // Effective output load: external load + amp output parasitics + the
        // series feedback network + sampling-cap bottom plate on the output
        // side of Cf. Summed left to right starting from `cl`: pre-adding
        // the fixed terms in `prepare` would reassociate the sum and change
        // result bits.
        let cl_total = cl + amp.cout + self.feedback_load + self.cs_bottom;
        let p2 = amp.gm6 * cc / (c1 * cc + c1 * cl_total + cc * cl_total).max(1e-30);

        // Two-pole-plus-RHP-zero damping approximation: the zero erodes phase
        // margin, reducing the effective damping.
        let zeta_raw =
            0.5 * (p2 / omega_c.max(1e-3)).sqrt() * (1.0 - omega_c / self.zero.max(1e-3));
        let zeta = zeta_raw.clamp(0.02, 5.0);
        let omega_n = (omega_c * p2).max(0.0).sqrt();

        // --- Settling.
        let sr_out = 2.0 * amp.i2 / cl_total.max(1e-18);
        let sr = amp.sr_internal.min(sr_out).max(1e-3);
        let t_slew = (self.v_step / sr - 1.0 / omega_c.max(1e-3)).max(0.0);

        let t_linear = if amp.is_biased() {
            linear_settling_time(zeta, omega_n, self.eps)
        } else {
            1.0 // a full second: effectively never settles
        };
        let settling_time = t_slew + t_linear;

        // --- Settling error: static gain error + dynamic residue at the end
        // of the half-period.
        let t_lin_avail = (self.half_t - t_slew).max(0.0);
        let dynamic_error = if amp.is_biased() {
            (-zeta * omega_n * t_lin_avail).exp().min(1.0)
        } else {
            1.0
        };
        let settling_error = self.static_error + dynamic_error;

        IntegratorReport {
            opamp: amp.clone(),
            beta: self.beta,
            cl_total,
            omega_c,
            p2,
            zero: self.zero,
            zeta,
            t_slew,
            t_linear,
            settling_time,
            settling_error,
            dynamic_range_db: self.dynamic_range_db,
            output_range: self.output_range,
            power: self.power,
            area: self.area,
            cl,
        }
    }
}

/// Linear settling time of a two-pole system to relative tolerance `eps`.
///
/// Underdamped: envelope bound `exp(−ζω_n t)/√(1−ζ²) = eps`, with the
/// envelope factor floored at 0.1 — the exact bound diverges as ζ → 1
/// although the true response does not, and an unbounded factor would
/// make settling time (and hence drivable load) non-monotone around
/// critical damping.
/// Overdamped: dominated by the slow real pole `ω_n(ζ − √(ζ²−1))`.
fn linear_settling_time(zeta: f64, omega_n: f64, eps: f64) -> f64 {
    if omega_n <= 0.0 {
        return 1.0;
    }
    if zeta < 1.0 {
        let envelope = (1.0 - zeta * zeta).sqrt().max(0.1);
        (-(eps * envelope).ln() / (zeta * omega_n)).max(0.0)
    } else {
        let slow_pole = omega_n * (zeta - (zeta * zeta - 1.0).sqrt()).max(1e-9);
        -(eps.ln()) / slow_pole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Corner;

    fn reference() -> IntegratorReport {
        analyze(
            &DesignVector::reference(),
            &Process::nominal(),
            &ClockContext::standard(),
        )
    }

    #[test]
    fn reference_meets_featured_spec_shape() {
        let r = reference();
        assert!(r.is_biased());
        assert!(r.settling_time < 0.24e-6, "ST {}", r.settling_time);
        assert!(r.settling_error < 7e-4, "SE {}", r.settling_error);
        assert!(r.dynamic_range_db > 96.0, "DR {}", r.dynamic_range_db);
        assert!(r.output_range > 1.4, "OR {}", r.output_range);
    }

    #[test]
    fn beta_is_sensible_fraction() {
        let r = reference();
        assert!(r.beta > 0.2 && r.beta < 0.7, "beta {}", r.beta);
    }

    #[test]
    fn nondominant_pole_above_crossover() {
        let r = reference();
        assert!(
            r.p2 > r.omega_c,
            "p2 {} must exceed crossover {} for stability",
            r.p2,
            r.omega_c
        );
        assert!(r.zero > r.p2 * 0.1);
    }

    #[test]
    fn heavier_load_slows_settling() {
        let mut dv = DesignVector::reference();
        let light = analyze(&dv, &Process::nominal(), &ClockContext::standard());
        dv.cl = 5e-12;
        let heavy = analyze(&dv, &Process::nominal(), &ClockContext::standard());
        assert!(heavy.settling_time > light.settling_time);
        assert!(heavy.p2 < light.p2);
    }

    #[test]
    fn bigger_sampling_cap_improves_dr() {
        let mut dv = DesignVector::reference();
        let small = analyze(&dv, &Process::nominal(), &ClockContext::standard());
        dv.cs = 4e-12;
        dv.cf = 4e-12; // keep the gain ratio
        let big = analyze(&dv, &Process::nominal(), &ClockContext::standard());
        assert!(big.dynamic_range_db > small.dynamic_range_db);
    }

    #[test]
    fn settling_error_includes_static_floor() {
        let r = reference();
        let static_floor = 1.0 / (1.0 + r.beta * r.opamp.a0);
        assert!(r.settling_error >= static_floor);
    }

    #[test]
    fn unbiased_design_reports_pessimistically() {
        let mut dv = DesignVector::reference();
        dv.itail = 500e-6;
        dv.w5 = 2e-6;
        dv.l5 = 1.5e-6;
        let r = analyze(&dv, &Process::nominal(), &ClockContext::standard());
        assert!(!r.is_biased());
        assert!(r.settling_time >= 1.0);
        assert!(r.settling_error >= 1.0);
        assert!(r.dynamic_range_db <= 0.0);
    }

    #[test]
    fn switching_power_added() {
        let r = reference();
        assert!(r.power > r.opamp.power);
    }

    #[test]
    fn area_includes_cap_network() {
        let r = reference();
        assert!(r.area > r.opamp.area);
    }

    #[test]
    fn linear_settling_monotone_in_tolerance() {
        let t_loose = linear_settling_time(0.7, 1e9, 1e-2);
        let t_tight = linear_settling_time(0.7, 1e9, 1e-5);
        assert!(t_tight > t_loose);
    }

    #[test]
    fn linear_settling_overdamped_branch() {
        let t = linear_settling_time(2.0, 1e9, 1e-4);
        assert!(t.is_finite() && t > 0.0);
        // Much slower than critically damped at the same omega_n.
        assert!(t > linear_settling_time(0.9, 1e9, 1e-4));
    }

    #[test]
    fn corners_shift_performance() {
        let dv = DesignVector::reference();
        let clock = ClockContext::standard();
        let nom = analyze(&dv, &Process::nominal(), &clock);
        let ss = analyze(&dv, &Process::nominal().at_corner(Corner::Ss), &clock);
        assert!(ss.settling_time != nom.settling_time);
    }

    #[test]
    fn report_fields_finite_for_random_designs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let p = Process::nominal();
        let clock = ClockContext::standard();
        for _ in 0..200 {
            let genes: Vec<f64> = (0..15).map(|_| rng.gen::<f64>()).collect();
            let dv = DesignVector::from_genes(&genes);
            let r = analyze(&dv, &p, &clock);
            assert!(r.settling_time.is_finite());
            assert!(r.settling_error.is_finite());
            assert!(r.dynamic_range_db.is_finite());
            assert!(r.power.is_finite() && r.power > 0.0);
            assert!(r.area.is_finite() && r.area > 0.0);
        }
    }
}
