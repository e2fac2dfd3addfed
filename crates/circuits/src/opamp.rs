//! DC and small-signal analysis of the standard two-stage Miller op-amp
//! used inside the CDS integrator.
//!
//! Topology (fully differential behaviour is modelled on the half-circuit,
//! as the analytical equations of the paper do):
//!
//! ```text
//!        VDD ────────┬─────────────┬──────────
//!                 M3 ⊣├──┐      M6 ⊣├   (PMOS)
//!                    │  │(mirror)  │
//!          stage-1   ├──┘          ├── V_out ── C_c to stage-1 out
//!            out ────┤             │
//!        M1 ⊣├───────┤  M2 ⊣├──────│   (NMOS diff pair)
//!             └──┬───┘       │  M7 ⊣├  (NMOS sink, gate shared with M5)
//!            M5 ⊣├ (tail)    │      │
//!        VSS ────┴───────────┴──────┴──────────
//! ```
//!
//! The analysis solves the DC bias sequentially (bisection on the eqn (1)
//! model), checks every transistor's operating region, and derives the
//! small-signal quantities the integrator equations need: `g_m1`, `g_m6`,
//! output resistances, node capacitances, DC gain, slew limits, swing,
//! noise and power.

use crate::bias::BiasMemo;
use crate::capacitor::IntegratedCapacitor;
use crate::mosfet::Mosfet;
use crate::process::{DeviceType, Process};
use crate::sizing::DesignVector;
use crate::KT;

/// Reasons a DC solution can fail outright (beyond soft margin violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DcFault {
    /// The input pair cannot conduct the programmed half-tail current.
    InputPairCurrent,
    /// The tail device cannot conduct the programmed tail current.
    TailCurrent,
    /// The mirror load cannot conduct the half-tail current.
    MirrorCurrent,
    /// The second-stage driver cannot conduct the second-stage current.
    DriverCurrent,
    /// The second-stage sink cannot conduct the second-stage current.
    SinkCurrent,
    /// Bias voltages leave no headroom (a node voltage left its rail
    /// interval).
    Headroom,
}

impl std::fmt::Display for DcFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            DcFault::InputPairCurrent => "input pair cannot conduct its bias current",
            DcFault::TailCurrent => "tail device cannot conduct the tail current",
            DcFault::MirrorCurrent => "mirror load cannot conduct its bias current",
            DcFault::DriverCurrent => "second-stage driver cannot conduct its current",
            DcFault::SinkCurrent => "second-stage sink cannot conduct its current",
            DcFault::Headroom => "bias point leaves no voltage headroom",
        };
        f.write_str(text)
    }
}

/// Small-signal + DC report of the op-amp at one process point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpampReport {
    /// First-stage input transconductance (S).
    pub gm1: f64,
    /// Second-stage transconductance (S).
    pub gm6: f64,
    /// First-stage output resistance (Ω).
    pub ro1: f64,
    /// Second-stage output resistance (Ω).
    pub ro2: f64,
    /// DC open-loop gain (V/V).
    pub a0: f64,
    /// Effective Miller capacitance `C_c + C_gd6` (F).
    pub cc_eff: f64,
    /// Parasitic capacitance at the first-stage output node (F).
    pub c1: f64,
    /// Parasitic capacitance at the op-amp output node (F).
    pub cout: f64,
    /// Input capacitance of the diff pair, `C_gs1` (F).
    pub cin: f64,
    /// Tail current (A).
    pub itail: f64,
    /// Second-stage quiescent current (A).
    pub i2: f64,
    /// Total quiescent power including the bias branch (W).
    pub power: f64,
    /// Active area of transistors + compensation capacitor (m²).
    pub area: f64,
    /// Differential peak-to-peak output swing (V).
    pub swing: f64,
    /// Internal slew rate `I_tail / C_c,eff` (V/s).
    pub sr_internal: f64,
    /// Worst-case (smallest) saturation margin over all devices (V);
    /// negative when some device has left saturation.
    pub sat_margin: f64,
    /// Systematic input-referred offset from first/second stage current
    /// imbalance (V).
    pub systematic_offset: f64,
    /// Input-referred thermal-noise power spectral density (V²/Hz).
    pub noise_psd: f64,
    /// Hard DC fault, when the bias point could not be established.
    pub fault: Option<DcFault>,
}

impl OpampReport {
    /// DC gain in dB.
    pub fn a0_db(&self) -> f64 {
        20.0 * self.a0.max(1e-30).log10()
    }

    /// `true` when the bias point exists (soft margins may still violate).
    pub fn is_biased(&self) -> bool {
        self.fault.is_none()
    }
}

/// Analyzes the two-stage op-amp described by `dv` in `process`.
///
/// Never panics on bad sizing: hard bias failures are reported through
/// [`OpampReport::fault`] with pessimistic values filled in so constraint
/// machinery can still grade the design.
pub fn analyze(dv: &DesignVector, process: &Process) -> OpampReport {
    analyze_with(dv, process, None)
}

/// [`analyze`] with every bias solve looked up in `memo`, when given (see
/// [`BiasMemo`]). The report is bit-identical to [`analyze`]'s.
pub(crate) fn analyze_with(
    dv: &DesignVector,
    process: &Process,
    memo: Option<&BiasMemo>,
) -> OpampReport {
    let vdd = process.vdd;
    let vcm_in = dv.vcm_in;
    let vcm_out = 0.5 * vdd;

    let m1 = Mosfet::new(DeviceType::Nmos, dv.w1, dv.l1);
    let m3 = Mosfet::new(DeviceType::Pmos, dv.w3, dv.l3);
    let m5 = Mosfet::new(DeviceType::Nmos, dv.w5, dv.l5);
    let m6 = Mosfet::new(DeviceType::Pmos, dv.w6, dv.l6);
    let m7 = Mosfet::new(DeviceType::Nmos, dv.w7, dv.l7);

    let fault_report = |fault: DcFault| pessimistic_report(dv, process, fault);
    // V_GS of `m` conducting `target_id` in saturation at `vds`.
    let solve = |m: &Mosfet, target_id: f64, vds: f64| match memo {
        Some(memo) => memo.vgs_for_current(m, process, target_id, vds, vdd),
        None => m.vgs_for_current(process, target_id, vds, vdd),
    };

    let id1 = 0.5 * dv.itail;

    // --- Input pair bias: V_GS1 for I_tail/2 (V_DS assumed mid-supply,
    // refined below).
    let vgs1 = match solve(&m1, id1, 0.5 * vdd) {
        Some(v) => v,
        None => return fault_report(DcFault::InputPairCurrent),
    };
    // Common-source node of the pair.
    let vs1 = vcm_in - vgs1;
    if vs1 <= 0.02 {
        return fault_report(DcFault::Headroom);
    }

    // --- Tail: V_GS5 for I_tail at V_DS = vs1.
    let vgs5 = match solve(&m5, dv.itail, vs1) {
        Some(v) => v,
        None => return fault_report(DcFault::TailCurrent),
    };

    // --- Mirror load: diode-connected M3 at I_tail/2; V_GS = V_DS, solved
    // by fixed-point refinement.
    let mut vgs3 = 0.6;
    for _ in 0..2 {
        vgs3 = match solve(&m3, id1, vgs3) {
            Some(v) => v,
            None => return fault_report(DcFault::MirrorCurrent),
        };
    }
    let v1_ideal = vdd - vgs3; // stage-1 output at perfect balance
    if v1_ideal <= vs1 {
        return fault_report(DcFault::Headroom);
    }

    // --- Second stage current: set by the M5→M7 gate mirror.
    let i2 = dv.itail * (dv.w7 / dv.l7) / (dv.w5 / dv.l5);
    // Equilibrium V_GS6 that conducts I2; stage-1 output settles at
    // VDD − vgs6_actual, the difference to v1_ideal is systematic offset.
    let vgs6_actual = match solve(&m6, i2, vcm_out) {
        Some(v) => v,
        None => return fault_report(DcFault::DriverCurrent),
    };
    let v1_actual = vdd - vgs6_actual;
    if v1_actual <= vs1 + 0.02 || v1_actual >= vdd - 0.02 {
        return fault_report(DcFault::Headroom);
    }
    // Sink check: M7 must conduct i2 with its mirrored gate voltage. Its
    // operating point carries that current.
    let op7 = m7.dc_point(process, vgs5, vcm_out);
    if op7.id <= 0.0 {
        return fault_report(DcFault::SinkCurrent);
    }

    // --- Operating points. Nothing reads the tail's or the sink's `gm`,
    // so theirs are DC points.
    let op1 = m1.operating_point(process, vgs1, v1_actual - vs1);
    let op3 = m3.operating_point(process, vgs3, vdd - v1_actual);
    let op5 = m5.dc_point(process, vgs5, vs1);
    let op6 = m6.operating_point(process, vgs6_actual, vdd - vcm_out);

    // Saturation margins (V): vds − vdsat per device.
    let margins = [
        op1.vds - op1.vdsat,
        op3.vds - op3.vdsat,
        op5.vds - op5.vdsat,
        op6.vds - op6.vdsat,
        op7.vds - op7.vdsat,
    ];
    let sat_margin = margins.iter().copied().fold(f64::INFINITY, f64::min);

    // --- Small-signal quantities.
    let gm1 = op1.gm;
    let gm6 = op6.gm;
    let ro1 = 1.0 / (op1.gds + op3.gds).max(1e-12);
    let ro2 = 1.0 / (op6.gds + op7.gds).max(1e-12);
    let a0 = gm1 * ro1 * gm6 * ro2;

    // Node capacitances.
    let cc_eff = dv.cc + m6.cgd(process);
    let c1 =
        m1.cdb(process) + m1.cgd(process) + m3.cdb(process) + m3.cgd(process) + m6.cgs(process);
    let cout = m6.cdb(process) + m7.cdb(process) + m7.cgd(process);
    let cin = m1.cgs(process);

    // Power: tail + second stage (per side of the differential output uses
    // one second stage; the fully differential amp has two) + bias branch.
    let ibias_ref = 0.5 * dv.itail;
    let power = vdd * (dv.itail + 2.0 * i2 + ibias_ref);

    // Area: diff pair ×2, mirror ×2, tail, bias diode (≈ tail), two output
    // stages, plus the compensation capacitors (×2 for differential).
    let cc_cap = IntegratedCapacitor::new(dv.cc);
    let area = 2.0 * m1.area(process)
        + 2.0 * m3.area(process)
        + 2.0 * m5.area(process)
        + 2.0 * (m6.area(process) + m7.area(process))
        + 2.0 * cc_cap.area(process);

    // Differential peak-to-peak swing limited by the output devices.
    let swing = 2.0 * (vdd - op6.vdsat - op7.vdsat).max(0.0);

    let sr_internal = dv.itail / cc_eff;

    // Systematic offset: imbalance between the ideal mirror voltage and the
    // second-stage equilibrium, referred to the input.
    let a1 = gm1 * ro1;
    let systematic_offset = (vgs3 - vgs6_actual).abs() / a1.max(1.0);

    // Input-referred thermal noise PSD of the first stage (differential):
    // 2 devices × 4kTγ/gm1, plus the mirror contribution scaled by
    // (gm3/gm1)². γ ≈ 2/3 · (short-channel excess 1.5) = 1.
    let gamma = 1.0;
    let noise_psd = 2.0 * 4.0 * KT * gamma / gm1.max(1e-12) * (1.0 + op3.gm / gm1.max(1e-12));

    OpampReport {
        gm1,
        gm6,
        ro1,
        ro2,
        a0,
        cc_eff,
        c1,
        cout,
        cin,
        itail: dv.itail,
        i2,
        power,
        area,
        swing,
        sr_internal,
        sat_margin,
        systematic_offset,
        noise_psd,
        fault: None,
    }
}

/// Builds a worst-case report for a design whose bias point does not exist.
///
/// Power and area are still computed from the programmed currents and
/// geometry so that dominated-ness among infeasible designs remains
/// meaningful; gains and margins take pessimistic values.
fn pessimistic_report(dv: &DesignVector, process: &Process, fault: DcFault) -> OpampReport {
    let vdd = process.vdd;
    let i2 = dv.itail * (dv.w7 / dv.l7) / (dv.w5 / dv.l5);
    let m1 = Mosfet::new(DeviceType::Nmos, dv.w1, dv.l1);
    let cc_cap = IntegratedCapacitor::new(dv.cc);
    OpampReport {
        gm1: 1e-9,
        gm6: 1e-9,
        ro1: 1.0,
        ro2: 1.0,
        a0: 1e-6,
        cc_eff: dv.cc,
        c1: 0.0,
        cout: 0.0,
        cin: m1.cgs(process),
        itail: dv.itail,
        i2,
        power: vdd * (dv.itail + 2.0 * i2 + 0.5 * dv.itail),
        area: 2.0 * cc_cap.area(process),
        swing: 0.0,
        sr_internal: dv.itail / dv.cc.max(1e-15),
        sat_margin: -1.0,
        systematic_offset: 1.0,
        noise_psd: 1.0,
        fault: Some(fault),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Corner;

    fn reference_report() -> OpampReport {
        analyze(&DesignVector::reference(), &Process::nominal())
    }

    #[test]
    fn reference_design_biases() {
        let r = reference_report();
        assert!(r.is_biased(), "fault: {:?}", r.fault);
        assert!(r.sat_margin > 0.0, "sat margin {}", r.sat_margin);
    }

    #[test]
    fn reference_gain_is_realistic() {
        let r = reference_report();
        let db = r.a0_db();
        assert!(
            (50.0..110.0).contains(&db),
            "two-stage gain {db} dB out of the plausible window"
        );
    }

    #[test]
    fn reference_power_sub_milliwatt() {
        let r = reference_report();
        assert!(r.power > 1e-5 && r.power < 3e-3, "power {}", r.power);
    }

    #[test]
    fn reference_swing_supports_1v4() {
        let r = reference_report();
        assert!(r.swing >= 1.4, "swing {}", r.swing);
    }

    #[test]
    fn gm_scales_with_tail_current() {
        let mut dv = DesignVector::reference();
        let lo = analyze(&dv, &Process::nominal());
        dv.itail *= 2.0;
        dv.w1 *= 2.0; // keep the pair in a similar inversion level
        dv.w5 *= 2.0;
        dv.w7 *= 2.0;
        let hi = analyze(&dv, &Process::nominal());
        assert!(hi.is_biased());
        assert!(hi.gm1 > lo.gm1 * 1.5, "gm1 {} -> {}", lo.gm1, hi.gm1);
        assert!(hi.power > lo.power * 1.5);
    }

    #[test]
    fn second_stage_current_follows_mirror_ratio() {
        let dv = DesignVector::reference();
        let r = analyze(&dv, &Process::nominal());
        let expected = dv.itail * (dv.w7 / dv.l7) / (dv.w5 / dv.l5);
        assert!((r.i2 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn impossible_tail_current_faults() {
        let mut dv = DesignVector::reference();
        dv.itail = 500e-6;
        dv.w5 = 2e-6;
        dv.l5 = 1.5e-6;
        let r = analyze(&dv, &Process::nominal());
        assert!(!r.is_biased());
        assert!(r.sat_margin < 0.0);
        // pessimistic power still reflects the programmed current
        assert!(r.power > 0.0);
    }

    #[test]
    fn tiny_input_pair_faults_or_leaves_headroom() {
        let mut dv = DesignVector::reference();
        dv.w1 = 1e-6;
        dv.l1 = 1.5e-6;
        dv.itail = 400e-6;
        let r = analyze(&dv, &Process::nominal());
        // Needs a huge VGS1 -> source node collapses or current unreachable.
        assert!(!r.is_biased() || r.sat_margin < 0.0);
    }

    #[test]
    fn slew_rate_definition() {
        let r = reference_report();
        assert!((r.sr_internal - r.itail / r.cc_eff).abs() / r.sr_internal < 1e-12);
    }

    #[test]
    fn corners_move_the_gain() {
        let dv = DesignVector::reference();
        let nominal = analyze(&dv, &Process::nominal());
        let ss = analyze(&dv, &Process::nominal().at_corner(Corner::Ss));
        let ff = analyze(&dv, &Process::nominal().at_corner(Corner::Ff));
        assert!(ss.is_biased() && ff.is_biased());
        assert_ne!(nominal.a0, ss.a0);
        assert_ne!(nominal.a0, ff.a0);
    }

    #[test]
    fn noise_decreases_with_gm() {
        let mut dv = DesignVector::reference();
        let lo = analyze(&dv, &Process::nominal());
        dv.itail *= 3.0;
        dv.w1 *= 3.0;
        dv.w5 *= 3.0;
        dv.w7 *= 3.0;
        let hi = analyze(&dv, &Process::nominal());
        assert!(hi.noise_psd < lo.noise_psd);
    }

    #[test]
    fn report_fields_are_finite() {
        let r = reference_report();
        for (name, v) in [
            ("gm1", r.gm1),
            ("gm6", r.gm6),
            ("a0", r.a0),
            ("c1", r.c1),
            ("cout", r.cout),
            ("power", r.power),
            ("area", r.area),
            ("swing", r.swing),
            ("noise", r.noise_psd),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn area_grows_with_devices_and_caps() {
        let mut dv = DesignVector::reference();
        let base = analyze(&dv, &Process::nominal()).area;
        dv.w6 *= 2.0;
        dv.cc *= 2.0;
        let bigger = analyze(&dv, &Process::nominal()).area;
        assert!(bigger > base);
    }
}
