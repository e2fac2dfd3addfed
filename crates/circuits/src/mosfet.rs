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

use std::cell::RefCell;

use crate::process::{DeviceType, Process, TransistorParams};
use crate::work::{self, Work};

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
        self.overdrive(self.params(process), effective_overdrive(vov))
            .vdsat
    }

    /// The terms of the drain current that follow from the EKV effective
    /// overdrive `vov_eff` alone, shared by the saturation voltage, the
    /// drain current and the bounds of the bias solve.
    fn overdrive(&self, p: &TransistorParams, vov_eff: f64) -> Overdrive {
        let esat_l = p.esat * self.l;
        let velocity = 1.0 + vov_eff / esat_l;
        Overdrive {
            vov_eff,
            velocity,
            strength: 0.5 * p.kp * (self.w / self.l) * vov_eff * vov_eff / velocity,
            vdsat: saturation_voltage(vov_eff, velocity),
        }
    }

    /// [`Mosfet::overdrive`] at `vgs`.
    fn overdrive_at(&self, p: &TransistorParams, vgs: f64) -> Overdrive {
        self.overdrive(p, effective_overdrive(vgs - p.vt0))
    }

    /// Effective channel-length-modulation coefficient (V⁻¹), scaled with
    /// drawn length.
    fn lambda_eff(&self, process: &Process) -> f64 {
        self.params(process).lambda / (self.l / 1e-6)
    }

    /// Everything the drain current at `vgs` depends on besides V_DS. The
    /// drain current, the operating point and the bias solve all compute
    /// the current through [`GateTerms::current`], so they agree bit for
    /// bit.
    fn gate_terms(&self, p: &TransistorParams, lambda: f64, vgs: f64) -> GateTerms {
        work::count(Work::GateTerms);
        GateTerms::new(
            self.overdrive_at(p, vgs),
            mobility(p, self.device, vgs),
            lambda,
        )
    }

    /// DC operating point at `(V_GS, V_DS)` magnitudes.
    ///
    /// Current is continuous across the triode/saturation boundary;
    /// derivatives (`gm`, `gds`) are obtained by central differences of the
    /// analytical current, which keeps them consistent with `id` by
    /// construction. The V_GS-dependent terms are computed once for each of
    /// the three gate voltages involved: the DC part at `vgs`, and `gm`'s
    /// two neighbours.
    pub fn operating_point(&self, process: &Process, vgs: f64, vds: f64) -> OperatingPoint {
        let dc = self.dc_point(process, vgs, vds);
        let p = self.params(process);
        let lambda = self.lambda_eff(process);
        let h = DIFFERENCE_STEP;
        let up = self.gate_terms(p, lambda, vgs + h);
        let down = self.gate_terms(p, lambda, vgs - h);
        let gm = (up.current(vds) - down.current(vds)) / (2.0 * h);
        OperatingPoint {
            id: dc.id,
            gm: gm.max(0.0),
            gds: dc.gds,
            vdsat: dc.vdsat,
            region: dc.region,
            vgs,
            vds,
        }
    }

    /// The [`Mosfet::operating_point`] at `(V_GS, V_DS)` but for `gm`, from
    /// the V_GS-dependent terms at `vgs` alone: a third of the work where
    /// nothing reads `gm`.
    pub(crate) fn dc_point(&self, process: &Process, vgs: f64, vds: f64) -> DcPoint {
        let p = self.params(process);
        let h = DIFFERENCE_STEP;
        let at = self.gate_terms(p, self.lambda_eff(process), vgs);
        let vdsat = at.overdrive.vdsat;
        let region = if vgs - p.vt0 <= 0.0 {
            Region::Cutoff
        } else if vds < vdsat {
            Region::Triode
        } else {
            Region::Saturation
        };
        let gds =
            (at.current(vds + h) - at.current((vds - h).max(0.0))) / (vds + h - (vds - h).max(0.0));
        DcPoint {
            id: at.current(vds),
            gds: gds.max(0.0),
            vdsat,
            region,
            vds,
        }
    }

    /// Drain current magnitude at `(V_GS, V_DS)` magnitudes (A).
    ///
    /// Below threshold the EKV interpolation yields an exponentially
    /// decaying (but nonzero) subthreshold current.
    ///
    /// The current is not monotone in V_GS everywhere. The mobility term
    /// `θ₁·x^(1/3)`, with `x = V_GS + V_T0 − V_K`, has infinite slope at
    /// `x = 0`, so the current dips just above the kink
    /// `V_GS = V_K − V_T0` (0.35 V at nominal). A scan in 1e-7 V steps
    /// over every process of
    /// [`prepared_plan`](crate::yield_est::prepared_plan), both
    /// polarities, 34 drawn lengths and 14 V_DS values finds the current
    /// falling only within 0.27 mV above the kink, and at most 1.27% below
    /// its value there. Elsewhere the current rises with V_GS;
    /// [`Mosfet::vgs_for_current`] proves that for each solve before it
    /// relies on it.
    pub fn id(&self, process: &Process, vgs: f64, vds: f64) -> f64 {
        if vds <= 0.0 {
            return 0.0;
        }
        self.gate_terms(self.params(process), self.lambda_eff(process), vgs)
            .current(vds)
    }

    /// Solves for the `V_GS` magnitude that conducts `target_id` in
    /// saturation at `vds` (bisection; `None` when the device cannot carry
    /// the current below `vgs_max`).
    ///
    /// The result is that of a plain bisection on `f(v) = id(v) − I` over
    /// `[0.01 V, vgs_max]`: `None` when `f(vgs_max) < 0`, `0.01 V` when
    /// `f(0.01 V) > 0`, and otherwise the final midpoint of 44 halvings
    /// that move `lo` up where `f(mid) < 0` and `hi` down elsewhere. The
    /// loop always runs its 44 steps: stopping early would change the
    /// result's bits, for two reasons. After `k` steps the bracket is still
    /// `(vgs_max − 0.01 V)/2^k` wide, ≥ 1.79 V/2^44 ≈ 1e-13 V at the
    /// op-amp's 1.8 V — about 900 ulp of a sub-volt `V_GS` — so every step
    /// still moves `lo` or `hi`, and with them the returned midpoint. And an
    /// exact `f(mid) == 0` only sets `hi = mid`; the remaining steps keep
    /// moving `lo`, so returning `mid` there would differ from the final
    /// midpoint.
    ///
    /// # Certified replay
    ///
    /// The result is fixed by the sign of `f` at the 44 midpoints, so the
    /// solve runs the same loop but calls `id` only at midpoints inside a
    /// certified bracket `(a, b)` around the root, typically at most one:
    ///
    /// 1. Estimate the root `r`: the velocity-saturated square law solved
    ///    for `V_ov,eff` and the EKV softplus inverted give a start, and
    ///    Newton on the closed-form `∂I_D/∂V_GS` converges from it until a
    ///    step is below 1e-10 V, in at most 20 steps. A step computes one
    ///    `exp`, one `ln_1p` and one `cbrt` and takes the current and its
    ///    slope `s` from them. The estimate need not be exact: only the
    ///    certificate decides.
    /// 2. With `m = 1e-13·I`, take the first `δ` of `4m/s`, 3e-13, 1e-11
    ///    and 1e-9 V for which `a = r − δ ≥ 0.01 V`, `b = r + δ < vgs_max`,
    ///    `a < b`, `f(a) < −m` and `f(b) > m`. Where the current rises at
    ///    `s`, the first gives `f(a) ≈ −4m` and `f(b) ≈ 4m`, and a bracket
    ///    narrower than the bisection's last step.
    /// 3. Prove the sign of `f` outside `(a, b)`. Let `K = V_K − V_T0` be
    ///    the kink of the mobility term (see [`Mosfet::id`]), `c = K + 1 mV`,
    ///    `N` the saturation current before mobility degradation and
    ///    channel-length modulation, `µ` the mobility divisor and `g` the
    ///    V_DS factor, which falls as `V_dsat` rises. Both cases need `id`
    ///    to rise on `[c, vgs_max]`. With θ₁, θ₂, λ ≥ 0,
    ///    `d ln I_D/dV_GS ≥ σ/V_ov,eff − λ_eff − µ′/µ` in saturation and
    ///    triode, where `σ = dV_ov,eff/dV_GS`. The solve bounds
    ///    `σ/V_ov,eff − µ′/µ` from below on pieces of `[c, vgs_max]` and
    ///    compares the least bound with `λ_eff`. That floor depends only on
    ///    the polarity's V_T0, V_K, θ₁, θ₂, n and on `vgs_max`, so each
    ///    thread keeps the floors of its recent parameter sets, keyed on
    ///    their bits. Below the kink µ is 1 and `σ/V_ov,eff` is larger
    ///    than anywhere above it, so the same floor proves `id` rises on
    ///    `[0.01 V, K]`.
    ///    - *Root above the dip*, `a > c`. A midpoint in `[0.01 V, c]` has
    ///      `f < 0` because there `id ≤ N(c)·g(V_dsat(0.01 V)) < I − m`; one
    ///      in `[c, a]` because `id` rises there and `f(a) < −m`; one at or
    ///      above `b` has `f > 0` because `id` rises there and `f(b) > m`.
    ///    - *Root below the kink*, `b < K − 1 nV`, where `µ` is exactly 1.
    ///      There `id` rises, so a midpoint at or below `a` has `f < 0` and
    ///      one in `[b, K − 1 nV]` has `f > 0`. One in `[K − 1 nV, c]` has `f > 0`
    ///      because there `id ≥ N(K − 1 nV)/µ(c)·g(V_dsat(c)) > I + m`; one
    ///      above `c` because `id` rises there and `f(c) > m`.
    ///
    ///    The same facts settle the two guard evaluations at `0.01 V` and
    ///    `vgs_max`, which the replay skips. Every bound holds for each
    ///    floating-point `V_GS` in its interval; none rests on one
    ///    evaluation at the kink, where a rounding residue of `x` moves the
    ///    computed `id` by about 1e-6 relative. The margin `m` absorbs the
    ///    ~3e-16 relative wobble of the computed `id` between neighbouring
    ///    floating-point `V_GS` values.
    ///
    /// The solve falls back to the plain bisection, the same loop with an
    /// empty bracket, when `vds ≤ 0`, the target is not finite, `K` is not
    /// above 0.01 V, θ₁, θ₂ or λ is negative, Newton does not converge, or
    /// any step of the certificate fails — chiefly for roots in the dip.
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
        let certified = self.certified_bracket(process, target_id, vds, vgs_max);
        self.bisect(process, target_id, vds, vgs_max, certified)
    }

    /// The 44-step bisection of [`Mosfet::vgs_for_current`]. A midpoint at
    /// or below `a` of `certified = Some((a, b))` counts as `f < 0`, one at
    /// or above `b` as `f ≥ 0`, and `id` is called only in between. With
    /// `None` the bracket is empty: the loop checks both ends first and
    /// calls `id` at every midpoint — the plain bisection.
    fn bisect(
        &self,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
        certified: Option<(f64, f64)>,
    ) -> Option<f64> {
        let f = |vgs: f64| self.id(process, vgs, vds) - target_id;
        let (below, above) = match certified {
            Some(bracket) => bracket,
            None => {
                if f(vgs_max) < 0.0 {
                    return None;
                }
                if f(BISECTION_FLOOR) > 0.0 {
                    // Even deep subthreshold leaks more than the target:
                    // report the smallest representable bias.
                    return Some(BISECTION_FLOOR);
                }
                (f64::NEG_INFINITY, f64::INFINITY)
            }
        };
        let (mut lo, mut hi) = (BISECTION_FLOOR, vgs_max);
        // 44 bisection steps: |hi - lo| < 2 V / 2^44 ~ 1e-13 V, far below
        // any physical meaning, at half the cost of excess precision.
        for _ in 0..44 {
            let mid = 0.5 * (lo + hi);
            let short = if mid <= below {
                true
            } else if mid >= above {
                false
            } else {
                work::count(Work::MidpointId);
                f(mid) < 0.0
            };
            if short {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// The certified bracket `(a, b)` of [`Mosfet::vgs_for_current`], or
    /// `None` where the solve falls back to the plain bisection.
    fn certified_bracket(
        &self,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
    ) -> Option<(f64, f64)> {
        let p = self.params(process);
        let lambda = self.lambda_eff(process);
        let kink = p.vk - p.vt0;
        let above_dip = kink + DIP_WIDTH;
        // The bounds assume these signs; a NaN fails every comparison.
        let model_holds = [self.w, self.l, p.kp, p.esat].iter().all(|&v| v > 0.0)
            && [p.theta1, p.theta2, p.lambda].iter().all(|&v| v >= 0.0)
            && [
                self.w, self.l, p.vt0, p.kp, p.esat, p.lambda, p.theta1, p.theta2, p.vk,
            ]
            .iter()
            .all(|v| v.is_finite());
        if !(model_holds
            && vds > 0.0
            && target_id.is_finite()
            && kink > BISECTION_FLOOR
            && vgs_max.is_finite()
            && vgs_max > above_dip)
        {
            return None;
        }
        let (root, slope) = self.newton_root(p, lambda, target_id, vds)?;
        let f = |vgs: f64| self.id(process, vgs, vds) - target_id;
        let margin = CERTIFICATE_MARGIN * target_id;
        // Where `id` rises at `slope`, `f(r ± δ)` is about ±4m at the first
        // half-width: room for the estimate's error, in a bracket that
        // holds well under one midpoint of the 44 on average.
        let fitted = SLOPE_HALF_WIDTH * margin / slope;
        let (a, b) = std::iter::once(fitted)
            .chain(BRACKET_HALF_WIDTHS)
            .map(|delta| (root - delta, root + delta))
            .find(|&(a, b)| {
                a < b && a >= BISECTION_FLOOR && b < vgs_max && f(a) < -margin && f(b) > margin
            })?;
        let outside_holds = if a > above_dip {
            // Root above the dip: bound id on [0.01 V, c] from above.
            let top = self.overdrive_at(p, above_dip);
            let bottom = self.overdrive_at(p, BISECTION_FLOOR);
            top.strength * bottom.drain_factor(lambda, vds) < target_id - margin
        } else if b < kink - BELOW_KINK {
            // Root below the kink: id stays above the target across the
            // dip.
            let before = self.overdrive_at(p, kink - BELOW_KINK);
            let after = self.gate_terms(p, lambda, above_dip);
            before.strength / after.mobility * after.overdrive.drain_factor(lambda, vds)
                > target_id + margin
                && after.current(vds) - target_id > margin
        } else {
            false
        };
        // Both cases need id rising on [c, vgs_max], and below the kink.
        (outside_holds && rise_floor(p, self.device, vgs_max) > lambda).then_some((a, b))
    }

    /// Newton's root of `id(V_GS, vds) = target_id` from
    /// [`Mosfet::square_law_root`] and `∂I_D/∂V_GS` at the last step, or
    /// `None` unless a step falls below 1e-10 V within 20 steps.
    fn newton_root(
        &self,
        p: &TransistorParams,
        lambda: f64,
        target_id: f64,
        vds: f64,
    ) -> Option<(f64, f64)> {
        let mut vgs = self.square_law_root(p, target_id);
        for _ in 0..NEWTON_STEPS {
            work::count(Work::NewtonStep);
            let (id, slope) = self.newton_point(p, lambda, vgs, vds);
            let step = (id - target_id) / slope;
            vgs -= step;
            if !vgs.is_finite() {
                return None;
            }
            if step.abs() < NEWTON_TOLERANCE {
                return Some((vgs, slope));
            }
        }
        None
    }

    /// The drain current at `(vgs, vds)` and `∂I_D/∂V_GS` there in closed
    /// form, for the Newton estimate of [`Mosfet::vgs_for_current`]. One
    /// `exp`, one `ln_1p` and one `cbrt` serve both: the softplus slope is
    /// `e^u/(1 + e^u)` and the mobility power `x` or `x·x`. Only the
    /// estimate uses them, so neither need agree with [`Mosfet::id`] to the
    /// last bit.
    fn newton_point(&self, p: &TransistorParams, lambda: f64, vgs: f64, vds: f64) -> (f64, f64) {
        let scale = 2.0 * SLOPE_FACTOR * V_THERMAL;
        let u = (vgs - p.vt0) / scale;
        let (softplus, sigma) = if u > 30.0 {
            (u, 1.0)
        } else {
            let e = u.exp();
            let softplus = if u < -30.0 { e } else { e.ln_1p() };
            (softplus, e / (1.0 + e))
        };
        let od = self.overdrive(p, scale * softplus);
        let x = (vgs + p.vt0 - p.vk).max(0.0);
        let root3 = x.cbrt();
        // xⁿ and its derivative n·xⁿ⁻¹.
        let (power, power_slope) = match self.device {
            DeviceType::Nmos => (x, 1.0),
            DeviceType::Pmos => (x * x, 2.0 * x),
        };
        let mobility = 1.0 + p.theta1 * root3 + p.theta2 * power;
        let terms = GateTerms::new(od, mobility, lambda);
        let id = terms.current(vds);

        let strength = sigma * (2.0 / od.vov_eff - 1.0 / (p.esat * self.l * od.velocity));
        let d_vdsat = if od.vov_eff / od.velocity > 3.0 * V_THERMAL {
            sigma / (od.velocity * od.velocity)
        } else {
            0.0
        };
        let drain = if vds >= od.vdsat {
            -lambda * d_vdsat / (1.0 + lambda * (vds - od.vdsat))
        } else {
            let u = vds / od.vdsat;
            -(2.0 - 2.0 * u) / (2.0 - u) * d_vdsat / od.vdsat
        };
        let degradation = if x > 0.0 {
            (p.theta1 * root3 / (3.0 * x) + p.theta2 * power_slope) / mobility
        } else {
            0.0
        };
        (id, id * (strength + drain - degradation))
    }

    /// A closed-form estimate of the V_GS that conducts `target_id`: the
    /// velocity-saturated square law
    /// `I = ½β·V_ov,eff²/(1 + V_ov,eff/(E_sat·L))` solved for `V_ov,eff`
    /// and mapped back through the inverse softplus. It ignores mobility
    /// degradation and the V_DS factor, which Newton then takes up.
    fn square_law_root(&self, p: &TransistorParams, target_id: f64) -> f64 {
        let beta = p.kp * (self.w / self.l);
        let b = target_id / (p.esat * self.l);
        let vov_eff = (b + (b * b + 2.0 * beta * target_id).sqrt()) / beta;
        let scale = 2.0 * SLOPE_FACTOR * V_THERMAL;
        p.vt0 + vov_eff + scale * (-(-vov_eff / scale).exp_m1()).ln()
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

/// The bottom of the bias bisection's bracket (V), well into subthreshold.
const BISECTION_FLOOR: f64 = 0.01;

/// How far above the mobility kink the certified replay of
/// [`Mosfet::vgs_for_current`] takes the dip to end (V).
const DIP_WIDTH: f64 = 1e-3;

/// How far below the mobility kink a root must lie for the replay's
/// below-the-kink certificate (V).
const BELOW_KINK: f64 = 1e-9;

/// The replay's margin `m`, relative to the target current.
const CERTIFICATE_MARGIN: f64 = 1e-13;

/// The replay's first half-width `δ` around the Newton root, in margins
/// `m` per unit of `∂I_D/∂V_GS`.
const SLOPE_HALF_WIDTH: f64 = 4.0;

/// Half-widths `δ` of the replay's bracket around the Newton root, tried in
/// turn after the first (V).
const BRACKET_HALF_WIDTHS: [f64; 3] = [3e-13, 1e-11, 1e-9];

/// The step of the central differences that give `gm` and `gds` (V).
const DIFFERENCE_STEP: f64 = 1e-6;

/// Newton converges once a step is shorter than this (V): convergence is
/// quadratic, so the root is then good to far below the bracket's
/// half-width...
const NEWTON_TOLERANCE: f64 = 1e-10;

/// ...within this many steps.
const NEWTON_STEPS: usize = 20;

/// Pieces [`compute_rise_floor`] may split `[K + 1 mV, V_GS,max]` into.
const GUARD_PIECES: usize = 64;

/// How far below the least pointwise bound seen [`compute_rise_floor`]
/// may leave a piece's bound unsplit (V⁻¹).
const FLOOR_TOLERANCE: f64 = 1e-3;

/// Entries of each thread's table of rise floors.
const FLOOR_SLOTS: usize = 16;

/// The bits of every input of [`rise_floor`]: the mobility exponent,
/// `vt0`, `vk`, `theta1`, `theta2` and V_GS,max.
type FloorKey = [u64; 6];

/// Each thread's table of recent [`rise_floor`] results, keyed on the bits
/// of their inputs as the bias memo is, and refilled in turn. A corner
/// sweep uses a dozen parameter sets, so each floor is computed once per
/// set and a solve pays for a lookup. No key is all zeros, so empty
/// entries never match.
struct FloorTable {
    entries: [(FloorKey, f64); FLOOR_SLOTS],
    next: usize,
}

thread_local! {
    static RISE_FLOORS: RefCell<FloorTable> = const {
        RefCell::new(FloorTable {
            entries: [([0; 6], f64::NAN); FLOOR_SLOTS],
            next: 0,
        })
    };
}

/// [`compute_rise_floor`], from this thread's table when it holds the
/// result.
fn rise_floor(p: &TransistorParams, device: DeviceType, vgs_max: f64) -> f64 {
    let key = [
        device.mobility_exponent(),
        p.vt0,
        p.vk,
        p.theta1,
        p.theta2,
        vgs_max,
    ]
    .map(f64::to_bits);
    RISE_FLOORS.with(|table| {
        let mut table = table.borrow_mut();
        if let Some(&(_, floor)) = table.entries.iter().find(|(k, _)| *k == key) {
            return floor;
        }
        let floor = compute_rise_floor(p, device, vgs_max);
        let next = table.next;
        table.entries[next] = (key, floor);
        table.next = (next + 1) % FLOOR_SLOTS;
        floor
    })
}

/// A lower bound on `d ln I_D/dV_GS + λ_eff` over `[K + 1 mV, V_GS,max]`
/// that holds for every W, L and V_DS of one polarity, `K = V_K − V_T0`:
/// [`Mosfet::vgs_for_current`] proves the current rises there by finding
/// it above `λ_eff`.
///
/// With θ₁, θ₂, λ ≥ 0, `d ln I_D/dV_GS ≥ σ/V_ov,eff − λ_eff − µ′/µ` in
/// saturation and triode, where `σ = dV_ov,eff/dV_GS` and µ is the mobility
/// divisor; `σ/V_ov,eff` falls as V_GS rises. The floor is the least of a
/// lower bound on each piece of the interval: `σ/V_ov,eff` at the piece's
/// top, µ′ per [`mobility_slope`] and µ at its bottom. A piece is split at
/// the geometric mean of `x = V_GS − K` while its bound lies more than
/// [`FLOOR_TOLERANCE`] below the least pointwise value seen so far, up to
/// [`GUARD_PIECES`] pieces; the floor is a lower bound either way.
///
/// The floor also proves the current rises on `[0.01 V, K]`. There µ is 1,
/// so the bound is `σ/V_ov,eff − λ_eff`, least at `K`; and `σ/V_ov,eff` at
/// `K` exceeds it at every piece's top, from which the floor subtracts a
/// non-negative `µ′/µ`.
///
/// A NaN floor, from parameters far outside any process, proves nothing.
fn compute_rise_floor(p: &TransistorParams, device: DeviceType, vgs_max: f64) -> f64 {
    let kink = p.vk - p.vt0;
    let bound = |lo: f64, hi: f64| {
        let vov_eff = effective_overdrive(hi - p.vt0);
        softplus_slope(vov_eff) / vov_eff
            - mobility_slope(p, device, lo - kink, hi - kink) / mobility(p, device, lo)
    };
    let from = kink + DIP_WIDTH;
    let mut seen = bound(from, from).min(bound(vgs_max, vgs_max));
    let mut floor = f64::INFINITY;
    let mut pieces = [(0.0, 0.0); GUARD_PIECES + 1];
    pieces[0] = (from, vgs_max);
    let (mut open, mut made) = (1, 1);
    while open > 0 {
        open -= 1;
        let (lo, hi) = pieces[open];
        let piece = bound(lo, hi);
        if piece.is_nan() {
            return f64::NAN;
        }
        if piece >= seen - FLOOR_TOLERANCE || made == GUARD_PIECES {
            floor = floor.min(piece);
            continue;
        }
        let mid = kink + ((lo - kink) * (hi - kink)).sqrt();
        seen = seen.min(bound(mid, mid));
        pieces[open] = (mid, hi);
        pieces[open + 1] = (lo, mid);
        open += 2;
        made += 1;
    }
    floor
}

/// The mobility-degradation divisor of eqn (1) at `vgs`:
/// `1 + θ₁·x^(1/3) + θ₂·xⁿ` with `x = max(V_GS + V_T0 − V_K, 0)`.
fn mobility(p: &TransistorParams, device: DeviceType, vgs: f64) -> f64 {
    let x = (vgs + p.vt0 - p.vk).max(0.0);
    1.0 + p.theta1 * x.cbrt() + p.theta2 * x.powf(device.mobility_exponent())
}

/// The drain-current terms that follow from the effective overdrive alone
/// (see [`Mosfet::overdrive`]).
#[derive(Debug, Clone, Copy)]
struct Overdrive {
    vov_eff: f64,
    velocity: f64,
    /// `½·k'·(W/L)·V_ov,eff²/(1 + V_ov,eff/(E_sat·L))`: the saturation
    /// current of eqn (1) before mobility degradation and channel-length
    /// modulation (A).
    strength: f64,
    vdsat: f64,
}

impl Overdrive {
    /// The V_DS factor of the current at `vds`, the current over
    /// [`GateTerms::core`]; it falls as `vdsat` rises.
    fn drain_factor(&self, lambda: f64, vds: f64) -> f64 {
        drain_current(1.0, self.vdsat, lambda, vds)
    }
}

/// The V_GS-dependent terms of the drain current at one gate voltage (see
/// [`Mosfet::gate_terms`]).
#[derive(Debug, Clone, Copy)]
struct GateTerms {
    overdrive: Overdrive,
    /// The mobility-degradation divisor, see [`mobility`].
    mobility: f64,
    /// Saturation current before channel-length modulation (A).
    core: f64,
    lambda: f64,
}

impl GateTerms {
    fn new(overdrive: Overdrive, mobility: f64, lambda: f64) -> Self {
        let core = if overdrive.vov_eff <= 0.0 {
            0.0
        } else {
            overdrive.strength / mobility
        };
        GateTerms {
            overdrive,
            mobility,
            core,
            lambda,
        }
    }

    /// The drain current at `vds` (A).
    fn current(&self, vds: f64) -> f64 {
        drain_current(self.core, self.overdrive.vdsat, self.lambda, vds)
    }
}

/// The drain current at `vds` of a device whose saturation current before
/// channel-length modulation is `core` (A): channel-length modulation in
/// saturation, the parabolic triode interpolation below `vdsat`, which is
/// current-continuous at `vdsat`.
fn drain_current(core: f64, vdsat: f64, lambda: f64, vds: f64) -> f64 {
    if vds <= 0.0 {
        return 0.0;
    }
    if vds >= vdsat {
        core * (1.0 + lambda * (vds - vdsat))
    } else {
        let u = vds / vdsat;
        core * u * (2.0 - u)
    }
}

/// The DC part of an [`OperatingPoint`]: everything but `gm` (see
/// [`Mosfet::dc_point`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DcPoint {
    /// Drain current magnitude (A).
    pub id: f64,
    /// Output conductance ∂I_D/∂V_DS (S).
    pub gds: f64,
    /// Saturation voltage (V).
    pub vdsat: f64,
    /// Region of operation.
    pub region: Region,
    /// Drain-source voltage magnitude used (V).
    pub vds: f64,
}

/// `dV_ov,eff/dV_ov` of [`effective_overdrive`], from its value:
/// `1 − exp(−V_ov,eff / 2nV_T)`.
fn softplus_slope(vov_eff: f64) -> f64 {
    -(-vov_eff / (2.0 * SLOPE_FACTOR * V_THERMAL)).exp_m1()
}

/// An upper bound on the slope of the mobility divisor over `x ∈ [lo, hi]`,
/// `0 < lo ≤ hi`: the `θ₁·x^(1/3)/3x` term falls with `x`, so it is taken
/// at `lo`; the `n·θ₂·xⁿ⁻¹` term does not fall, so it is taken at `hi`.
/// With `lo == hi` it is the slope at that point.
fn mobility_slope(p: &TransistorParams, device: DeviceType, lo: f64, hi: f64) -> f64 {
    let n = device.mobility_exponent();
    p.theta1 * lo.cbrt() / (3.0 * lo) + n * p.theta2 * hi.powf(n - 1.0)
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

    // --- The certified replay of `vgs_for_current` ---------------------

    use crate::yield_est::prepared_plan;
    use proptest::prelude::*;

    /// The plain bisection, which the certified replay must match bit for
    /// bit: the loop of `vgs_for_current` with an empty bracket.
    fn oracle(m: &Mosfet, p: &Process, target: f64, vds: f64, vgs_max: f64) -> Option<f64> {
        if target <= 0.0 {
            return Some(m.vt(p));
        }
        m.bisect(p, target, vds, vgs_max, None)
    }

    fn solve_bits(solve: Option<f64>) -> Option<u64> {
        solve.map(f64::to_bits)
    }

    /// `(kink, λ_eff)` of `m` in `p`: the kink `K = V_K − V_T0` of the
    /// mobility term and the channel-length modulation coefficient.
    fn kink_and_lambda(m: &Mosfet, p: &Process) -> (f64, f64) {
        let t = p.transistor(m.device);
        (t.vk - t.vt0, m.lambda_eff(p))
    }

    /// The drawn lengths of the layout grid, 0.18–1.5 µm in 10 nm steps.
    fn grid_lengths() -> impl Iterator<Item = f64> {
        (18..=150).map(|k| f64::from(k) * 0.01e-6)
    }

    /// Scales each field of `t` by the matching factor.
    fn scaled(t: &TransistorParams, s: &[f64]) -> TransistorParams {
        TransistorParams {
            vt0: t.vt0 * s[0],
            kp: t.kp * s[1],
            esat: t.esat * s[2],
            lambda: t.lambda * s[3],
            theta1: t.theta1 * s[4],
            theta2: t.theta2 * s[5],
            vk: t.vk * s[6],
            c_overlap: t.c_overlap * s[7],
            cj: t.cj * s[8],
            cjsw: t.cjsw * s[9],
            l_diff: t.l_diff * s[10],
        }
    }

    /// A device of either polarity, W log-uniform over 1–1000 µm, L on the
    /// layout grid or anywhere in 0.18–1.5 µm, in one of the corner-sweep
    /// processes; half of the time every `TransistorParams` field of both
    /// polarities is also scaled by a factor within [0.5, 2].
    fn solve_setup() -> impl Strategy<Value = (Mosfet, Process)> {
        (
            (0u8..2, 0.0f64..1.0, 0.0f64..1.0, 0u8..2),
            (0usize..9, 0u8..2, prop::collection::vec(0.5f64..2.0, 22)),
        )
            .prop_map(|((polarity, w, l, on_grid), (point, scale, factors))| {
                let device = if polarity == 0 {
                    DeviceType::Nmos
                } else {
                    DeviceType::Pmos
                };
                let mut l = 0.18e-6 * (1.5f64 / 0.18).powf(l);
                if on_grid == 1 {
                    l = (l / 0.01e-6).round() * 0.01e-6;
                }
                let m = Mosfet::new(device, 1e-6 * 1000f64.powf(w), l);
                let mut p = prepared_plan(&Process::nominal())[point].1;
                if scale == 1 {
                    p.nmos = scaled(&p.nmos, &factors[..11]);
                    p.pmos = scaled(&p.pmos, &factors[11..]);
                }
                (m, p)
            })
    }

    /// A drain voltage: ≤ 0, deep triode or anywhere up to the supply.
    fn drain_voltage() -> impl Strategy<Value = f64> {
        prop_oneof![Just(-0.1), Just(0.0), 1e-4f64..0.05, 0.0f64..1.8]
    }

    /// The top of the bisection bracket: the supply, or anywhere in
    /// 0.3–3.3 V.
    fn gate_ceiling() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1.8), 0.3f64..3.3]
    }

    /// A target current: log-uniform over 1e-10–1e-2 A, or, one time in
    /// five, the current at a V_GS within −1…+2 mV of the kink, where the
    /// dip is.
    fn target(m: &Mosfet, p: &Process, vds: f64, (pick, log, offset): (f64, f64, f64)) -> f64 {
        if pick < 0.2 {
            let (kink, _) = kink_and_lambda(m, p);
            m.id(p, kink + 1e-3 * offset, vds)
        } else {
            10f64.powf(log)
        }
    }

    fn target_spec() -> impl Strategy<Value = (f64, f64, f64)> {
        (0.0f64..1.0, -10.0f64..-2.0, -1.0f64..2.0)
    }

    /// Checks `count` random solves against the oracle; returns how many
    /// the replay certified.
    fn check_random_solves(rng: &mut rand::rngs::StdRng, count: usize) -> usize {
        let (setup, vds, ceiling, spec) = (
            solve_setup(),
            drain_voltage(),
            gate_ceiling(),
            target_spec(),
        );
        let mut certified = 0;
        for _ in 0..count {
            let (m, p) = setup.generate(rng);
            let (vds, vgs_max) = (vds.generate(rng), ceiling.generate(rng));
            let target = target(&m, &p, vds, spec.generate(rng));
            let solve = m.vgs_for_current(&p, target, vds, vgs_max);
            let plain = oracle(&m, &p, target, vds, vgs_max);
            assert_eq!(
                solve_bits(solve),
                solve_bits(plain),
                "{m:?} in {p:?}: target {target:e} A at V_DS {vds}, V_GS,max {vgs_max}"
            );
            certified += usize::from(m.certified_bracket(&p, target, vds, vgs_max).is_some());
        }
        certified
    }

    proptest! {
        #[test]
        fn replay_matches_the_plain_bisection(
            (m, p) in solve_setup(),
            vds in drain_voltage(),
            vgs_max in gate_ceiling(),
            specs in prop::collection::vec(target_spec(), 24),
        ) {
            for spec in specs {
                let target = target(&m, &p, vds, spec);
                prop_assert_eq!(
                    solve_bits(m.vgs_for_current(&p, target, vds, vgs_max)),
                    solve_bits(oracle(&m, &p, target, vds, vgs_max)),
                    "{:?}: target {:e} A at V_DS {}, V_GS,max {}", m, target, vds, vgs_max
                );
            }
        }
    }

    /// The full-size exactness check: two million random solves.
    #[test]
    #[ignore = "full-size exactness check; run with --release -- --ignored"]
    fn two_million_solves_match_the_plain_bisection() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_b15e);
        let certified = check_random_solves(&mut rng, 2_000_000);
        // Half the inputs have V_DS ≤ 0, and many targets are out of reach.
        assert!(certified > 200_000, "only {certified} solves certified");
    }

    /// Solves like the op-amp's — a corner-sweep process, a grid length,
    /// V_DS in saturation or triode, V_GS,max at the supply — are nearly
    /// all certified: the replay does not quietly fall back.
    #[test]
    fn op_amp_like_solves_are_nearly_all_certified() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let plan = prepared_plan(&Process::nominal());
        let lengths: Vec<f64> = grid_lengths().collect();
        let (mut solved, mut certified) = (0, 0);
        for _ in 0..2000 {
            let p = plan[rng.gen_range(0..plan.len())].1;
            let device = [DeviceType::Nmos, DeviceType::Pmos][rng.gen_range(0usize..2)];
            let w = 1e-6 * 1000f64.powf(rng.gen_range(0.0..1.0));
            let m = Mosfet::new(device, w, lengths[rng.gen_range(0..lengths.len())]);
            let vds = rng.gen_range(0.05..1.8);
            let target = 10f64.powf(rng.gen_range(-9.0..-3.0));
            let solve = m.vgs_for_current(&p, target, vds, 1.8);
            assert_eq!(
                solve_bits(solve),
                solve_bits(oracle(&m, &p, target, vds, 1.8))
            );
            if solve.is_some() {
                solved += 1;
                certified += usize::from(m.certified_bracket(&p, target, vds, 1.8).is_some());
            }
        }
        assert!(
            certified * 100 > solved * 97,
            "{certified} of {solved} certified"
        );
    }

    /// Checks, by stepping V_GS over `[from, to]` from a step of 1e-7 V
    /// growing by `growth` per step up to `max_step`, that the computed
    /// current never falls by more than 1e-14 relative — far below the
    /// replay's margin of 1e-13. Returns the number of steps.
    fn assert_rises(
        m: &Mosfet,
        p: &Process,
        vds: f64,
        (from, to): (f64, f64),
        scan: (f64, f64),
    ) -> usize {
        let (growth, max_step) = scan;
        let (mut vgs, mut step, mut steps) = (from, 1e-7, 0);
        let mut prev = m.id(p, vgs, vds);
        while vgs < to {
            vgs = (vgs + step).min(to);
            step = (step * growth).min(max_step);
            let id = m.id(p, vgs, vds);
            assert!(
                id >= prev * (1.0 - 1e-14),
                "{m:?} in {p:?} at V_DS {vds}: id falls from {prev:e} to {id:e} at V_GS {vgs}"
            );
            prev = id;
            steps += 1;
        }
        steps
    }

    /// Wherever the replay's floor says the current rises — on
    /// `[0.01 V, K − 1 nV]` and on `[K + 1 mV, V_GS,max]` — a scan of the
    /// computed current finds it rising, for every process of the corner
    /// sweep, both polarities, the given lengths and V_DS values. Returns
    /// `(proved, steps)`: the intervals the floor proved and the scan steps
    /// taken.
    fn scan_guarded_intervals(
        lengths: &[f64],
        vds_grid: &[f64],
        scan: (f64, f64),
    ) -> (usize, usize) {
        let (mut proved, mut steps) = (0, 0);
        for (_, p) in prepared_plan(&Process::nominal()) {
            for device in [DeviceType::Nmos, DeviceType::Pmos] {
                for &l in lengths {
                    let m = Mosfet::new(device, 10e-6, l);
                    let t = p.transistor(device);
                    let (kink, lambda) = kink_and_lambda(&m, &p);
                    let above = (kink + DIP_WIDTH, p.vdd);
                    if compute_rise_floor(t, device, p.vdd) <= lambda {
                        continue;
                    }
                    for &vds in vds_grid {
                        let below = (BISECTION_FLOOR, kink - BELOW_KINK);
                        steps += assert_rises(&m, &p, vds, below, scan);
                        steps += assert_rises(&m, &p, vds, above, scan);
                        proved += 2;
                    }
                }
            }
        }
        (proved, steps)
    }

    #[test]
    fn guarded_intervals_rise_on_a_grid() {
        let lengths: Vec<f64> = grid_lengths().step_by(12).collect();
        let (proved, _) = scan_guarded_intervals(&lengths, &[1e-3, 0.1, 0.9, 1.8], (1.05, 2e-3));
        // Every interval of every configuration is proved.
        assert_eq!(proved, 9 * 2 * lengths.len() * 4 * 2);
    }

    /// The full dense scan: all 133 lengths, 14 drain voltages, steps from
    /// 1e-7 V growing by 1% up to 2e-4 V.
    #[test]
    #[ignore = "full dense scan; run with --release -- --ignored"]
    fn guarded_intervals_rise_on_the_full_grid() {
        let lengths: Vec<f64> = grid_lengths().collect();
        let vds_grid = [
            1e-3, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.2, 1.5, 1.8,
        ];
        let (proved, steps) = scan_guarded_intervals(&lengths, &vds_grid, (1.01, 2e-4));
        assert_eq!(proved, 9 * 2 * lengths.len() * vds_grid.len() * 2);
        assert!(steps > 200_000_000, "{steps} steps");
    }

    /// Targets between the bottom of the dip and the current's peak at the
    /// kink have several roots: one below the kink and others in or above
    /// the dip. With V_GS,max chosen so that the first midpoint lands at
    /// the kink, just above it or at the dip's bottom, the bisection's
    /// first step sees the dip, so the replay must not certify a bracket
    /// around another root. Above the dip it is the bound on
    /// `[0.01 V, K + 1 mV]` that refuses, where the dip has not recovered
    /// by `K + 1 mV` (short PMOS at small V_DS); below the kink, the bound
    /// across the dip.
    #[test]
    fn targets_in_the_dip_match_the_oracle() {
        let mut dips = 0;
        for (_, p) in prepared_plan(&Process::nominal()) {
            for device in [DeviceType::Nmos, DeviceType::Pmos] {
                for l in grid_lengths().step_by(4) {
                    let m = Mosfet::new(device, 10e-6, l);
                    let (kink, _) = kink_and_lambda(&m, &p);
                    for vds in [1e-3, 3e-3, 0.01, 0.05, 0.9] {
                        let peak = m.id(&p, kink, vds);
                        let (bottom, at) = (1..=30)
                            .map(|k| kink + 1e-5 * f64::from(k))
                            .map(|vgs| (m.id(&p, vgs, vds), vgs))
                            .fold(
                                (peak, kink),
                                |low, point| if point.0 < low.0 { point } else { low },
                            );
                        if bottom >= peak {
                            continue;
                        }
                        dips += 1;
                        let ceilings =
                            [1.8, kink, kink + 2e-5, at].map(|first| 2.0 * first - BISECTION_FLOOR);
                        for (k, vgs_max) in (1..8).flat_map(|k| ceilings.map(|c| (k, c))) {
                            let target = bottom + (peak - bottom) * f64::from(k) / 8.0;
                            assert_eq!(
                                solve_bits(m.vgs_for_current(&p, target, vds, vgs_max)),
                                solve_bits(oracle(&m, &p, target, vds, vgs_max)),
                                "{m:?} in {p:?}: target {target:e} A at V_DS {vds}, V_GS,max {vgs_max}"
                            );
                        }
                    }
                }
            }
        }
        assert!(dips > 0, "no dip found");
    }

    #[test]
    fn guard_refuses_negative_model_coefficients() {
        let m = nmos();
        for field in 0..3 {
            let mut p = Process::nominal();
            let t = &mut p.nmos;
            *[&mut t.theta1, &mut t.theta2, &mut t.lambda][field] = -0.01;
            for target in [1e-7, 1e-5, 1e-4] {
                assert_eq!(
                    m.certified_bracket(&p, target, 0.9, 1.8),
                    None,
                    "field {field}"
                );
                assert_eq!(
                    solve_bits(m.vgs_for_current(&p, target, 0.9, 1.8)),
                    solve_bits(oracle(&m, &p, target, 0.9, 1.8))
                );
            }
        }
        // The nominal process is certified at the same targets.
        let p = Process::nominal();
        assert!(m.certified_bracket(&p, 1e-5, 0.9, 1.8).is_some());
    }

    #[test]
    fn a_dip_wider_than_the_allowance_falls_back() {
        // θ₁ twenty times nominal stretches the dip past K + 1 mV.
        let mut p = Process::nominal();
        p.nmos.theta1 *= 20.0;
        let m = nmos();
        let (kink, lambda) = kink_and_lambda(&m, &p);
        let edge = kink + DIP_WIDTH;
        assert!(
            m.id(&p, edge + 1e-4, 0.9) < m.id(&p, edge, 0.9),
            "dip ends before K + 1 mV"
        );
        assert!(compute_rise_floor(&p.nmos, m.device, 1.8) <= lambda);
        let targets = (0..=16).map(|k| 10f64.powf(-10.0 + 0.5 * f64::from(k)));
        let at_kink = [-1.0, 0.0, 0.5, 1.0, 1.5, 3.0].map(|mv| m.id(&p, kink + 1e-3 * mv, 0.9));
        for target in targets.chain(at_kink) {
            assert_eq!(m.certified_bracket(&p, target, 0.9, 1.8), None);
            assert_eq!(
                solve_bits(m.vgs_for_current(&p, target, 0.9, 1.8)),
                solve_bits(oracle(&m, &p, target, 0.9, 1.8)),
                "target {target:e}"
            );
        }
    }
}
