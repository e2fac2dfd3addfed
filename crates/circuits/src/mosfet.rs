//! Deep-submicron MOSFET model implementing eqn (1) of the reproduced
//! paper:
//!
//! ```text
//!        1        W   (V_GS − V_T)²
//! I_D = --- µC_ox --- ------------------------- (1 + λ V_DS) ·
//!        2        L   1 − (V_GS − V_T)/(E_sat·L)
//!
//!                       1
//!       · ---------------------------------------------------
//!         1 + θ₁(V_GS + V_T − V_K)^(1/3) + θ₂(V_GS + V_T − V_K)^n
//! ```
//!
//! with `n = 1` for NMOS and `n = 2` for PMOS. The velocity-saturation term
//! is used in the numerically robust form
//! `(V_ov)² / (1 + V_ov/(E_sat·L))` (equivalent first-order behaviour,
//! no pole at `V_ov = E_sat·L`), which is the standard way this family of
//! models is implemented. Channel-length modulation applies in saturation;
//! the triode region is modelled as the usual parabolic interpolation that
//! is current-continuous at `V_DS = V_Dsat`.
//!
//! Voltages are *magnitudes*: callers pass `|V_GS|`, `|V_DS|` for PMOS.

use crate::process::{DeviceType, Process, TransistorParams};

/// Thermal voltage `kT/q` at the nominal temperature (V).
pub const V_THERMAL: f64 = 0.0259;

/// Subthreshold slope factor `n` of the EKV-style inversion interpolation.
pub const SLOPE_FACTOR: f64 = 1.3;

/// Smooth effective overdrive implementing the EKV moderate/weak-inversion
/// interpolation: `V_ov,eff = 2nV_T · ln(1 + exp(V_ov / 2nV_T))`.
///
/// In strong inversion (`V_ov ≫ 2nV_T`) this is `V_ov`; below threshold it
/// decays exponentially, which caps the achievable `g_m/I_D` at the
/// physical subthreshold limit `1/(nV_T)` instead of letting the square law
/// promise unbounded transconductance efficiency at vanishing overdrive.
pub fn effective_overdrive(vov: f64) -> f64 {
    let scale = 2.0 * SLOPE_FACTOR * V_THERMAL;
    let u = vov / scale;
    // Numerically stable softplus.
    let q = if u > 30.0 {
        u
    } else if u < -30.0 {
        u.exp()
    } else {
        u.exp().ln_1p()
    };
    scale * q
}

/// [`Mosfet::vdsat`] from the effective overdrive and velocity factor.
fn saturation_voltage(vov_eff: f64, velocity: f64) -> f64 {
    (vov_eff / velocity).max(3.0 * V_THERMAL)
}

/// Operating regions of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `V_GS <= V_T`: no channel.
    Cutoff,
    /// `V_DS < V_Dsat`: resistive channel.
    Triode,
    /// `V_DS >= V_Dsat`: current source behaviour.
    Saturation,
}

/// A sized transistor of one polarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Polarity.
    pub device: DeviceType,
}

/// Full DC operating point of a [`Mosfet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Drain current magnitude (A).
    pub id: f64,
    /// Transconductance ∂I_D/∂V_GS (S).
    pub gm: f64,
    /// Output conductance ∂I_D/∂V_DS (S).
    pub gds: f64,
    /// Saturation voltage (V).
    pub vdsat: f64,
    /// Region of operation.
    pub region: Region,
    /// Gate-source voltage magnitude used (V).
    pub vgs: f64,
    /// Drain-source voltage magnitude used (V).
    pub vds: f64,
}

impl Mosfet {
    /// Creates a sized device.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    pub fn new(device: DeviceType, w: f64, l: f64) -> Self {
        assert!(w > 0.0 && l > 0.0, "device dimensions must be positive");
        Mosfet { w, l, device }
    }

    fn params<'p>(&self, process: &'p Process) -> &'p TransistorParams {
        process.transistor(self.device)
    }

    /// Threshold voltage magnitude in `process` (V).
    pub fn vt(&self, process: &Process) -> f64 {
        self.params(process).vt0
    }

    /// Saturation voltage for a gate overdrive `vov = V_GS − V_T` (V):
    /// the velocity-saturation-reduced effective overdrive, floored at the
    /// weak-inversion saturation voltage `≈ 3V_T`.
    pub fn vdsat(&self, process: &Process, vov: f64) -> f64 {
        let (vov_eff, velocity) = self.overdrive_terms(self.params(process), vov);
        saturation_voltage(vov_eff, velocity)
    }

    /// The EKV effective overdrive at `vov` and the velocity-saturation
    /// factor `1 + V_ov,eff/(E_sat·L)`, shared by the saturation voltage
    /// and the drain current so [`Mosfet::id`] computes them once.
    fn overdrive_terms(&self, p: &TransistorParams, vov: f64) -> (f64, f64) {
        let vov_eff = effective_overdrive(vov);
        let esat_l = p.esat * self.l;
        (vov_eff, 1.0 + vov_eff / esat_l)
    }

    /// Saturation drain current per eqn (1) with the EKV inversion
    /// interpolation, *without* channel-length modulation (A), from the
    /// [`overdrive_terms`](Self::overdrive_terms) at `vgs`.
    fn id_sat_core(&self, p: &TransistorParams, vgs: f64, vov_eff: f64, velocity: f64) -> f64 {
        if vov_eff <= 0.0 {
            return 0.0;
        }
        // Mobility degradation: the argument V_GS + V_T − V_K of the paper.
        let x = (vgs + p.vt0 - p.vk).max(0.0);
        let n = self.device.mobility_exponent();
        let mobility = 1.0 + p.theta1 * x.cbrt() + p.theta2 * x.powf(n);
        0.5 * p.kp * (self.w / self.l) * vov_eff * vov_eff / velocity / mobility
    }

    /// Effective channel-length-modulation coefficient (V⁻¹), scaled with
    /// drawn length.
    fn lambda_eff(&self, process: &Process) -> f64 {
        self.params(process).lambda / (self.l / 1e-6)
    }

    /// DC operating point at `(V_GS, V_DS)` magnitudes.
    ///
    /// Current is continuous across the triode/saturation boundary;
    /// derivatives (`gm`, `gds`) are obtained by central differences of the
    /// analytical current, which keeps them consistent with `id` by
    /// construction.
    pub fn operating_point(&self, process: &Process, vgs: f64, vds: f64) -> OperatingPoint {
        let id = self.id(process, vgs, vds);
        let p = self.params(process);
        let vov = vgs - p.vt0;
        let vdsat = self.vdsat(process, vov);
        let region = if vov <= 0.0 {
            Region::Cutoff
        } else if vds < vdsat {
            Region::Triode
        } else {
            Region::Saturation
        };
        let h = 1e-6;
        let gm = (self.id(process, vgs + h, vds) - self.id(process, vgs - h, vds)) / (2.0 * h);
        let gds = (self.id(process, vgs, vds + h) - self.id(process, vgs, (vds - h).max(0.0)))
            / (vds + h - (vds - h).max(0.0));
        OperatingPoint {
            id,
            gm: gm.max(0.0),
            gds: gds.max(0.0),
            vdsat,
            region,
            vgs,
            vds,
        }
    }

    /// Drain current magnitude at `(V_GS, V_DS)` magnitudes (A).
    ///
    /// Below threshold the EKV interpolation yields an exponentially
    /// decaying (but nonzero) subthreshold current.
    pub fn id(&self, process: &Process, vgs: f64, vds: f64) -> f64 {
        let p = self.params(process);
        let vov = vgs - p.vt0;
        if vds <= 0.0 {
            return 0.0;
        }
        let (vov_eff, velocity) = self.overdrive_terms(p, vov);
        let vdsat = saturation_voltage(vov_eff, velocity);
        let lambda = self.lambda_eff(process);
        let core = self.id_sat_core(p, vgs, vov_eff, velocity);
        if vds >= vdsat {
            core * (1.0 + lambda * (vds - vdsat))
        } else {
            // Parabolic triode interpolation, current-continuous at vdsat.
            let u = vds / vdsat;
            core * u * (2.0 - u)
        }
    }

    /// Solves for the `V_GS` magnitude that conducts `target_id` in
    /// saturation at `vds` (bisection; `None` when the device cannot carry
    /// the current below `vgs_max`).
    ///
    /// The bisection always runs its 44 steps: stopping early would change
    /// the result's bits, for two reasons. After `k` steps the bracket is
    /// still `(vgs_max − 0.01 V)/2^k` wide, ≥ 1.79 V/2^44 ≈ 1e-13 V at the
    /// op-amp's 1.8 V — about 900 ulp of a sub-volt `V_GS` — so every step
    /// still moves `lo` or `hi`, and with them the returned midpoint. And an
    /// exact `f(mid) == 0` only sets `hi = mid`; the remaining steps keep
    /// moving `lo`, so returning `mid` there would differ from the final
    /// midpoint.
    pub fn vgs_for_current(
        &self,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
    ) -> Option<f64> {
        if target_id <= 0.0 {
            return Some(self.vt(process));
        }
        let f = |vgs: f64| self.id(process, vgs, vds) - target_id;
        let lo0 = 0.01; // well into subthreshold
        if f(vgs_max) < 0.0 {
            return None;
        }
        if f(lo0) > 0.0 {
            // Even deep subthreshold leaks more than the target: report the
            // smallest representable bias.
            return Some(lo0);
        }
        let (mut lo, mut hi) = (lo0, vgs_max);
        // 44 bisection steps: |hi - lo| < 2 V / 2^44 ~ 1e-13 V, far below
        // any physical meaning, at half the cost of excess precision.
        for _ in 0..44 {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Gate-source capacitance in saturation:
    /// `(2/3)·W·L·C_ox + C_ov·W` (F).
    pub fn cgs(&self, process: &Process) -> f64 {
        (2.0 / 3.0) * self.w * self.l * process.cox + self.params(process).c_overlap * self.w
    }

    /// Gate-drain capacitance in saturation (overlap only) (F).
    pub fn cgd(&self, process: &Process) -> f64 {
        self.params(process).c_overlap * self.w
    }

    /// Drain-bulk junction capacitance: area + sidewall terms of the drain
    /// diffusion (F).
    pub fn cdb(&self, process: &Process) -> f64 {
        let p = self.params(process);
        p.cj * self.w * p.l_diff + p.cjsw * (self.w + 2.0 * p.l_diff)
    }

    /// Active gate area `W·L` (m²); diffusions add `2·W·L_diff`.
    pub fn area(&self, process: &Process) -> f64 {
        self.w * self.l + 2.0 * self.w * self.params(process).l_diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    fn nmos() -> Mosfet {
        Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6)
    }

    fn pmos() -> Mosfet {
        Mosfet::new(DeviceType::Pmos, 20e-6, 0.5e-6)
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_width() {
        let _ = Mosfet::new(DeviceType::Nmos, 0.0, 1e-6);
    }

    #[test]
    fn subthreshold_current_is_small_and_decays() {
        let p = Process::nominal();
        let m = nmos();
        // 150 mV below threshold: orders of magnitude below the on-current.
        let sub = m.id(&p, 0.3, 0.9);
        let on = m.id(&p, 0.9, 0.9);
        assert!(sub > 0.0 && sub < on * 1e-2, "sub {sub} vs on {on}");
        // Exponential decay: each 100 mV below VT costs > 10x.
        let deeper = m.id(&p, 0.2, 0.9);
        assert!(deeper < sub / 10.0);
        let op = m.operating_point(&p, 0.3, 0.9);
        assert_eq!(op.region, Region::Cutoff);
    }

    #[test]
    fn gm_over_id_capped_at_subthreshold_limit() {
        let p = Process::nominal();
        // Huge W/L at tiny current: the square law would promise unbounded
        // gm/id; the EKV interpolation must cap it near 1/(n·V_T) ≈ 30.
        let m = Mosfet::new(DeviceType::Nmos, 400e-6, 0.18e-6);
        let vgs = m.vgs_for_current(&p, 1e-6, 0.9, 1.8).expect("solvable");
        let op = m.operating_point(&p, vgs, 0.9);
        let gm_over_id = op.gm / op.id;
        assert!(
            gm_over_id < 1.05 / (SLOPE_FACTOR * V_THERMAL),
            "gm/id {gm_over_id} exceeds the subthreshold limit"
        );
        assert!(gm_over_id > 15.0, "gm/id {gm_over_id} suspiciously low");
    }

    #[test]
    fn current_increases_with_vgs() {
        let p = Process::nominal();
        let m = nmos();
        let i1 = m.id(&p, 0.7, 0.9);
        let i2 = m.id(&p, 0.9, 0.9);
        assert!(i2 > i1 && i1 > 0.0);
    }

    #[test]
    fn current_scales_with_aspect_ratio() {
        let p = Process::nominal();
        let narrow = Mosfet::new(DeviceType::Nmos, 5e-6, 0.5e-6);
        let wide = Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6);
        let (i1, i2) = (narrow.id(&p, 0.8, 0.9), wide.id(&p, 0.8, 0.9));
        assert!(
            (i2 / i1 - 2.0).abs() < 1e-9,
            "width scaling broken: {}",
            i2 / i1
        );
    }

    #[test]
    fn velocity_saturation_compresses_current() {
        // A short channel must deliver *less* than (W/L)-scaled long-channel
        // current at the same overdrive.
        let p = Process::nominal();
        let short = Mosfet::new(DeviceType::Nmos, 1.8e-6, 0.18e-6);
        let long = Mosfet::new(DeviceType::Nmos, 18e-6, 1.8e-6);
        // Same W/L = 10; compare at the same bias.
        let i_short = short.id(&p, 0.9, 1.2);
        let i_long = long.id(&p, 0.9, 1.2);
        assert!(
            i_short < i_long,
            "short-channel current {i_short} should be compressed vs {i_long}"
        );
    }

    #[test]
    fn continuity_at_saturation_boundary() {
        let p = Process::nominal();
        let m = nmos();
        let vgs = 0.9;
        let vdsat = m.vdsat(&p, vgs - m.vt(&p));
        let below = m.id(&p, vgs, vdsat * (1.0 - 1e-9));
        let above = m.id(&p, vgs, vdsat * (1.0 + 1e-9));
        assert!(
            ((below - above) / above).abs() < 1e-6,
            "current discontinuous at vdsat: {below} vs {above}"
        );
    }

    #[test]
    fn triode_current_below_saturation_current() {
        let p = Process::nominal();
        let m = nmos();
        let vgs = 0.9;
        let vdsat = m.vdsat(&p, vgs - m.vt(&p));
        assert!(m.id(&p, vgs, 0.3 * vdsat) < m.id(&p, vgs, vdsat));
    }

    #[test]
    fn lambda_gives_finite_output_conductance() {
        let p = Process::nominal();
        let m = nmos();
        let op = m.operating_point(&p, 0.9, 1.2);
        assert_eq!(op.region, Region::Saturation);
        assert!(op.gds > 0.0);
        assert!(op.gm > op.gds * 10.0, "gm/gds should be >> 1 in saturation");
    }

    #[test]
    fn longer_channel_reduces_lambda_effect() {
        let p = Process::nominal();
        let short = Mosfet::new(DeviceType::Nmos, 10e-6, 0.2e-6);
        let long = Mosfet::new(DeviceType::Nmos, 10e-6, 1.0e-6);
        let gds_ratio_short = {
            let op = short.operating_point(&p, 0.9, 1.2);
            op.gds / op.id
        };
        let gds_ratio_long = {
            let op = long.operating_point(&p, 0.9, 1.2);
            op.gds / op.id
        };
        assert!(gds_ratio_long < gds_ratio_short);
    }

    #[test]
    fn vdsat_below_overdrive() {
        let p = Process::nominal();
        let m = Mosfet::new(DeviceType::Nmos, 2e-6, 0.18e-6);
        let vov = 0.4;
        let vdsat = m.vdsat(&p, vov);
        assert!(vdsat > 0.0 && vdsat < vov);
    }

    #[test]
    fn pmos_is_weaker_than_nmos() {
        let p = Process::nominal();
        let n = nmos();
        let pm = Mosfet::new(DeviceType::Pmos, 10e-6, 0.5e-6);
        assert!(n.id(&p, 0.9, 0.9) > pm.id(&p, 0.9, 0.9));
    }

    #[test]
    fn vgs_for_current_round_trips() {
        let p = Process::nominal();
        let m = nmos();
        let target = 50e-6;
        let vgs = m.vgs_for_current(&p, target, 0.9, 1.8).expect("solvable");
        let achieved = m.id(&p, vgs, 0.9);
        assert!(
            ((achieved - target) / target).abs() < 1e-6,
            "bisection inaccurate: {achieved} vs {target}"
        );
    }

    #[test]
    fn vgs_for_current_detects_impossible() {
        let p = Process::nominal();
        let tiny = Mosfet::new(DeviceType::Nmos, 0.5e-6, 2e-6);
        assert!(tiny.vgs_for_current(&p, 10e-3, 0.9, 1.8).is_none());
    }

    #[test]
    fn vgs_for_zero_current_is_vt() {
        let p = Process::nominal();
        let m = nmos();
        assert_eq!(m.vgs_for_current(&p, 0.0, 0.9, 1.8), Some(m.vt(&p)));
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let p = Process::nominal();
        let small = Mosfet::new(DeviceType::Nmos, 2e-6, 0.2e-6);
        let big = Mosfet::new(DeviceType::Nmos, 20e-6, 0.2e-6);
        assert!(big.cgs(&p) > small.cgs(&p));
        assert!(big.cgd(&p) > small.cgd(&p));
        assert!(big.cdb(&p) > small.cdb(&p));
        assert!(big.area(&p) > small.area(&p));
        assert!((big.cgd(&p) / small.cgd(&p) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mobility_degradation_reduces_current_at_high_gate_drive() {
        // Compare against the same model with θ1 = θ2 = 0.
        let mut p_clean = Process::nominal();
        p_clean.nmos.theta1 = 0.0;
        p_clean.nmos.theta2 = 0.0;
        let p = Process::nominal();
        let m = nmos();
        let degraded = m.id(&p, 1.6, 1.2);
        let clean = m.id(&p_clean, 1.6, 1.2);
        assert!(degraded < clean);
        // and the gap must widen with VGS
        let gap_low = m.id(&p_clean, 0.8, 1.2) / m.id(&p, 0.8, 1.2);
        let gap_high = clean / degraded;
        assert!(gap_high > gap_low);
    }

    #[test]
    fn pmos_mobility_exponent_bites_harder() {
        // With equal θ2, the PMOS n = 2 term must degrade faster in VGS
        // than the NMOS n = 1 term. Compare normalized currents.
        let mut p = Process::nominal();
        p.pmos.kp = p.nmos.kp; // equalize strength
        p.pmos.esat = p.nmos.esat;
        p.pmos.theta1 = p.nmos.theta1;
        p.pmos.theta2 = p.nmos.theta2;
        p.pmos.lambda = p.nmos.lambda;
        let n = nmos();
        let pm = Mosfet::new(DeviceType::Pmos, 10e-6, 0.5e-6);
        let ratio_low = pm.id(&p, 0.8, 0.9) / n.id(&p, 0.8, 0.9);
        let ratio_high = pm.id(&p, 1.7, 0.9) / n.id(&p, 1.7, 0.9);
        assert!(ratio_high < ratio_low);
    }

    #[test]
    fn operating_point_reports_triode() {
        let p = Process::nominal();
        let m = pmos();
        let vdsat = m.vdsat(&p, 0.9 - m.vt(&p));
        let op = m.operating_point(&p, 0.9, vdsat * 0.5);
        assert_eq!(op.region, Region::Triode);
    }
}
