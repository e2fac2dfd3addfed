//! Bit pin of the circuit evaluator against a committed fixture.
//!
//! Tests that compare two runs of the same evaluator cannot notice when
//! its arithmetic drifts. This test records the exact bits of what the
//! evaluator computes — every
//! objective and constraint violation of both circuit problems, plus the
//! drain current of the device model over a bias grid — and compares them
//! with `tests/golden/circuit_eval_bits.txt`. Any reordering of the
//! floating-point operations underneath shows up here as a diff.
//!
//! Re-record (only for an intended model change) with
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test circuit_eval_bits`.

use analog_circuits::mosfet::Mosfet;
use analog_circuits::process::{Corner, DeviceType, Process};
use analog_circuits::sizing::DesignVector;
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

/// Drain current over a device × V_GS × V_DS grid that covers cutoff,
/// triode, saturation and V_DS ≤ 0, for both polarities.
fn render_mosfet() -> String {
    let process = Process::nominal();
    let devices = [
        Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6),
        Mosfet::new(DeviceType::Nmos, 1.8e-6, 0.18e-6),
        Mosfet::new(DeviceType::Pmos, 20e-6, 0.5e-6),
        Mosfet::new(DeviceType::Pmos, 260e-6, 1.2e-6),
    ];
    let vds = [-0.1, 0.0, 1e-3, 0.02, 0.05, 0.1, 0.2, 0.4, 0.9, 1.8];
    let mut out = String::new();
    for (d, m) in devices.iter().enumerate() {
        for k in 0..=20 {
            let vgs = 0.09 * f64::from(k);
            let ids: Vec<f64> = vds.iter().map(|&v| m.id(&process, vgs, v)).collect();
            out.push_str(&format!("mosfet {d} {} | {}\n", hex(&[vgs]), hex(&ids)));
        }
    }
    out
}

#[test]
fn evaluator_bits_match_the_committed_fixture() {
    let mut rendered = render_mosfet();
    rendered.push_str(&render_problems());
    check_golden("circuit_eval_bits.txt", &rendered);
}
