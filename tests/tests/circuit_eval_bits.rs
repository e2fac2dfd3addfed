//! Bit pin of the circuit evaluator against a committed fixture.
//!
//! Tests that compare two runs of the same evaluator cannot notice when
//! its arithmetic drifts. This test records the exact bits of what the
//! evaluator computes — every
//! objective and constraint violation of both circuit problems, plus the
//! drain current, the bias solve and the operating point of the device
//! model over bias grids — and compares them with
//! `tests/golden/circuit_eval_bits.txt`. Any reordering of the
//! floating-point operations underneath shows up here as a diff. The
//! problems are rendered twice: the second pass finds many of its bias
//! solves in the process-wide memo the first pass filled, and must match
//! the same fixture.
//!
//! Re-record (only for an intended model change) with
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test circuit_eval_bits`.

use analog_circuits::mosfet::{Mosfet, Region};
use analog_circuits::process::{Corner, DeviceType, Process};
use analog_circuits::sizing::DesignVector;
use analog_circuits::yield_est;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use moea::{Evaluation, Problem};

mod common;
use common::{check_golden, pseudo_batch};

/// Designs per half of the fixture.
const HALF: usize = 128;

fn hex(vs: &[f64]) -> String {
    vs.iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `HALF` unit-cube designs (many unbiased or not drivable) followed by
/// `HALF` small perturbations of the reference sizing (mostly drivable).
/// Gene 15 sits at the reference common mode, 0.9 V, before perturbing.
fn designs() -> Vec<Vec<f64>> {
    let mut reference = DesignVector::reference().to_genes();
    reference[14] = 0.5;
    let mut out = pseudo_batch(HALF, 0);
    out.extend(pseudo_batch(HALF, 1).into_iter().map(|noise| {
        reference
            .iter()
            .zip(&noise)
            .map(|(&g, &n)| (g + 0.12 * (n - 0.5)).clamp(0.0, 1.0))
            .collect()
    }));
    out
}

fn render_evaluation(out: &mut String, tag: &str, i: usize, ev: &Evaluation) {
    out.push_str(&format!(
        "{tag} {i:03} {} | {}\n",
        hex(ev.objectives()),
        hex(ev.constraint_violations())
    ));
}

fn render_problems() -> String {
    let designs = designs();
    let processes = [
        ("tt", Process::nominal()),
        ("ss", Process::nominal().at_corner(Corner::Ss)),
        ("ff", Process::nominal().at_corner(Corner::Ff)),
    ];
    let mut out = String::new();
    for (name, process) in processes {
        let drivable = DrivableLoadProblem::new(Spec::featured()).with_process(process);
        for (i, x) in designs.iter().enumerate() {
            render_evaluation(
                &mut out,
                &format!("drivable {name}"),
                i,
                &drivable.evaluate(x),
            );
        }
        let integrator = IntegratorProblem::new(Spec::featured()).with_process(process);
        for (i, x) in designs.iter().enumerate() {
            render_evaluation(
                &mut out,
                &format!("integrator {name}"),
                i,
                &integrator.evaluate(x),
            );
        }
    }
    out
}

/// The four devices of the device-model rows.
fn fixture_devices() -> [Mosfet; 4] {
    [
        Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6),
        Mosfet::new(DeviceType::Nmos, 1.8e-6, 0.18e-6),
        Mosfet::new(DeviceType::Pmos, 20e-6, 0.5e-6),
        Mosfet::new(DeviceType::Pmos, 260e-6, 1.2e-6),
    ]
}

/// The V_GS grid of the drain-current and operating-point rows.
fn vgs_grid() -> impl Iterator<Item = f64> {
    (0..=20).map(|k| 0.09 * f64::from(k))
}

/// The V_DS grid of the drain-current and operating-point rows.
const VDS_GRID: [f64; 10] = [-0.1, 0.0, 1e-3, 0.02, 0.05, 0.1, 0.2, 0.4, 0.9, 1.8];

/// Drain current over a device × V_GS × V_DS grid that covers cutoff,
/// triode, saturation and V_DS ≤ 0, for both polarities.
fn render_mosfet() -> String {
    let process = Process::nominal();
    let mut out = String::new();
    for (d, m) in fixture_devices().iter().enumerate() {
        for vgs in vgs_grid() {
            let ids: Vec<f64> = VDS_GRID.iter().map(|&v| m.id(&process, vgs, v)).collect();
            out.push_str(&format!("mosfet {d} {} | {}\n", hex(&[vgs]), hex(&ids)));
        }
    }
    out
}

/// Bias solves of the fixture devices at every process of the corner
/// sweep. The targets are a log grid from 0.1 nA to 10 mA, plus the
/// currents at V_GS = K + s, where K = V_K − V_T0 is the kink of the
/// mobility term, for offsets s from −1 mV to 1.2 mV around it. The
/// rows reach `None`, the 0.01 V floor, roots on both sides of the kink
/// and the dip just above it, and V_DS ≤ 0.
fn render_solves() -> String {
    let vds_grid = [-0.1, 0.0, 1e-3, 0.05, 0.3, 0.9, 1.8];
    let kink_offsets_mv = [-1.0, 0.0, 0.05, 0.1, 0.2, 0.3, 1.0, 1.2];
    let mut out = String::new();
    for (s, (_, process)) in yield_est::prepared_plan(&Process::nominal())
        .iter()
        .enumerate()
    {
        for (d, m) in fixture_devices().iter().enumerate() {
            let p = process.transistor(m.device);
            let kink = p.vk - p.vt0;
            for &vds in &vds_grid {
                let log_grid = (0..=16).map(|k| 10f64.powf(-10.0 + 0.5 * f64::from(k)));
                let at_kink = kink_offsets_mv
                    .iter()
                    .map(|&mv| m.id(process, kink + 1e-3 * mv, vds));
                let solves: Vec<String> = log_grid
                    .chain(at_kink)
                    .map(
                        |target| match m.vgs_for_current(process, target, vds, process.vdd) {
                            Some(vgs) => format!("{:016x}", vgs.to_bits()),
                            None => "none".to_string(),
                        },
                    )
                    .collect();
                out.push_str(&format!(
                    "solve {s} {d} {} | {}\n",
                    hex(&[vds]),
                    solves.join(" ")
                ));
            }
        }
    }
    out
}

/// Operating points (`id gm gds vdsat region`) over the drain-current
/// rows' V_GS × V_DS grid. Zeros print without their sign: at V_DS < 0
/// `gds` is `(−0.0).max(0.0)`, whose sign `f64::max` leaves unspecified,
/// and debug and release builds differ there.
fn render_operating_points() -> String {
    let process = Process::nominal();
    let mut out = String::new();
    for (d, m) in fixture_devices().iter().enumerate() {
        for vgs in vgs_grid() {
            let ops: Vec<String> = VDS_GRID
                .iter()
                .map(|&vds| {
                    let op = m.operating_point(&process, vgs, vds);
                    let region = match op.region {
                        Region::Cutoff => "c",
                        Region::Triode => "t",
                        Region::Saturation => "s",
                    };
                    let fields = [op.id, op.gm, op.gds, op.vdsat].map(|v| v + 0.0);
                    format!("{} {region}", hex(&fields))
                })
                .collect();
            out.push_str(&format!("op {d} {} | {}\n", hex(&[vgs]), ops.join(" | ")));
        }
    }
    out
}

#[test]
fn evaluator_bits_match_the_committed_fixture() {
    for _pass in ["cold", "warm"] {
        let mut rendered = render_mosfet();
        rendered.push_str(&render_problems());
        rendered.push_str(&render_solves());
        rendered.push_str(&render_operating_points());
        check_golden("circuit_eval_bits.txt", &rendered);
    }
}
