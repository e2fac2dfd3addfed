#![warn(missing_docs)]
//! # analog-circuits — analytical models for analog design space exploration
//!
//! A from-scratch analytical modeling substrate for the circuit evaluated in
//! the reproduced DATE 2005 paper: a **CDS offset-compensated
//! switched-capacitor integrator** built around a standard two-stage Miller
//! op-amp in a synthetic (but physically plausible) 0.18 µm, 1.8 V CMOS
//! process.
//!
//! The stack, bottom-up:
//!
//! * [`process`] — process parameters and manufacturing corners
//!   (TT/FF/SS/FS/SF) plus deterministic mismatch sampling;
//! * [`mosfet`] — the deep-submicron MOSFET drain-current model of the
//!   paper's eqn (1): square-law core with velocity saturation
//!   (`E_sat·L`), channel-length modulation (λ) and advanced mobility
//!   degradation (θ₁, θ₂, V_K), with small-signal parameters and parasitic
//!   capacitances;
//! * [`bias`] — the exact, process-wide memo of MOSFET bias solves that
//!   the circuit problems evaluate through;
//! * [`capacitor`] — integrated capacitors with bottom-plate parasitics;
//! * [`opamp`] — DC + small-signal analysis of the two-stage Miller op-amp
//!   (gain, GBW, non-dominant pole, RHP zero, slew rates, swing, noise,
//!   power, area, operating-region checks);
//! * [`integrator`] — switched-capacitor integrator performance equations:
//!   Dynamic Range, Settling Time, Settling Error, Output Range, Area,
//!   Power — including the effect of the non-dominant pole and zero as the
//!   paper requires;
//! * [`sizing`] — the 15-parameter design vector and its gene mapping;
//! * [`yield_est`] — corner/mismatch robustness ("yield") estimation;
//! * [`specs`] — the featured specification and the 20 graded
//!   specifications of the paper;
//! * [`problem`] — the [`moea::Problem`] implementation: minimize power,
//!   maximize drivable load capacitance, under the full constraint set;
//! * [`surrogate`] — the opt-in analytic pre-screen that answers obvious
//!   losers before the full model runs.
//!
//! All quantities are SI (volts, amperes, farads, seconds, meters) unless a
//! name says otherwise.
//!
//! ## Example
//!
//! ```
//! use analog_circuits::problem::IntegratorProblem;
//! use analog_circuits::specs::Spec;
//! use moea::Problem;
//!
//! let problem = IntegratorProblem::new(Spec::featured());
//! assert_eq!(problem.num_variables(), 15);
//! let mid = vec![0.5; 15];
//! let ev = problem.evaluate(&mid);
//! assert_eq!(ev.objectives().len(), 2);
//! ```

pub mod bias;
pub mod capacitor;
pub mod drivable;
pub mod integrator;
pub mod mosfet;
pub mod opamp;
pub mod problem;
pub mod process;
pub mod sizing;
pub mod specs;
pub mod surrogate;
pub mod transient;
pub mod yield_est;

pub use drivable::DrivableLoadProblem;
pub use problem::IntegratorProblem;
pub use sizing::DesignVector;
pub use specs::Spec;

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Nominal analysis temperature (K).
pub const T_NOMINAL: f64 = 300.0;

/// `kT` at the nominal temperature (J).
pub const KT: f64 = BOLTZMANN * T_NOMINAL;
