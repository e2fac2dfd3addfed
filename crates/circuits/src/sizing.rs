//! The 15-parameter design vector of the integrator sizing problem and its
//! mapping from unit-cube GA genes.
//!
//! The paper frames the optimization with 15 design parameters after an
//! initial topology-based reduction. Our parameterization of the standard
//! two-stage op-amp + SC integrator:
//!
//! | #  | parameter | meaning                                   | mapping |
//! |----|-----------|-------------------------------------------|---------|
//! | 0  | `w1`      | input-pair NMOS width                     | log     |
//! | 1  | `l1`      | input-pair NMOS length                    | log     |
//! | 2  | `w3`      | mirror-load PMOS width                    | log     |
//! | 3  | `l3`      | mirror-load PMOS length                   | log     |
//! | 4  | `w5`      | tail NMOS width                           | log     |
//! | 5  | `l5`      | tail NMOS length                          | log     |
//! | 6  | `w6`      | 2nd-stage PMOS driver width               | log     |
//! | 7  | `l6`      | 2nd-stage PMOS driver length              | log     |
//! | 8  | `w7`      | 2nd-stage NMOS sink width                 | log     |
//! | 9  | `l7`      | 2nd-stage NMOS sink length                | log     |
//! | 10 | `itail`   | first-stage tail current                  | log     |
//! | 11 | `cc`      | Miller compensation capacitor             | log     |
//! | 12 | `cs`      | sampling capacitor                        | log     |
//! | 13 | `cf`      | feedback (integrating) capacitor          | log     |
//! | 14 | `cl`      | load capacitance (explored objective)     | linear  |
//!
//! Genes live in `[0, 1]`¹⁵ so one [`moea::Bounds`] serves the GA; widths,
//! currents and capacitors are mapped logarithmically (they span decades),
//! while the load capacitance is mapped **linearly** across 0.02–5 pF so
//! uniform initialization spreads designs evenly over the partitioned axis.
//! The offset-storage capacitors of the CDS network are tied to `cs`
//! (`C_OC = C_S`), a standard choice that the topology reduction folds in.

use moea::problem::Bounds;

/// Number of design parameters (genes).
pub const NUM_PARAMS: usize = 15;

/// Load-capacitance exploration range (F): 0.02–5 pF.
pub const CL_RANGE: (f64, f64) = (0.02e-12, 5.0e-12);

/// One decoded design point, in SI units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignVector {
    /// Input-pair NMOS width (m).
    pub w1: f64,
    /// Input-pair NMOS length (m).
    pub l1: f64,
    /// Mirror-load PMOS width (m).
    pub w3: f64,
    /// Mirror-load PMOS length (m).
    pub l3: f64,
    /// Tail NMOS width (m).
    pub w5: f64,
    /// Tail NMOS length (m).
    pub l5: f64,
    /// Second-stage PMOS driver width (m).
    pub w6: f64,
    /// Second-stage PMOS driver length (m).
    pub l6: f64,
    /// Second-stage NMOS sink width (m).
    pub w7: f64,
    /// Second-stage NMOS sink length (m).
    pub l7: f64,
    /// First-stage tail current (A).
    pub itail: f64,
    /// Miller compensation capacitor (F).
    pub cc: f64,
    /// Sampling capacitor (F).
    pub cs: f64,
    /// Feedback / integrating capacitor (F).
    pub cf: f64,
    /// Load capacitance (F) — the explored objective axis.
    pub cl: f64,
    /// Input common-mode voltage (V). Fixed at `0.9` by
    /// [`from_genes`](DesignVector::from_genes); searched (as the 15th
    /// parameter, replacing the direct `cl` gene) by
    /// [`from_sizing_genes`](DesignVector::from_sizing_genes).
    pub vcm_in: f64,
}

/// Input common-mode search range used by the drivable-load formulation.
pub const VCM_RANGE: (f64, f64) = (0.55, 1.25);

/// Layout width quantum: transistors are drawn as unit fingers (m).
pub const W_UNIT: f64 = 2.5e-6;

/// Layout length quantum (m).
pub const L_UNIT: f64 = 0.01e-6;

/// Unit capacitor for matched capacitor arrays (F).
pub const C_UNIT: f64 = 0.25e-12;

/// Bias-current DAC step (A).
pub const I_UNIT: f64 = 0.5e-6;

/// `(min, max, log?)` for each of the 15 parameters, in gene order.
const PARAM_RANGES: [(f64, f64, bool); NUM_PARAMS] = [
    (1.0e-6, 400.0e-6, true),        // w1
    (0.18e-6, 1.5e-6, true),         // l1
    (1.0e-6, 400.0e-6, true),        // w3
    (0.18e-6, 1.5e-6, true),         // l3
    (2.0e-6, 500.0e-6, true),        // w5
    (0.18e-6, 1.5e-6, true),         // l5
    (2.0e-6, 1000.0e-6, true),       // w6
    (0.18e-6, 1.0e-6, true),         // l6
    (2.0e-6, 500.0e-6, true),        // w7
    (0.18e-6, 1.0e-6, true),         // l7
    (2.0e-6, 500.0e-6, true),        // itail (A)
    (0.1e-12, 6.0e-12, true),        // cc
    (0.2e-12, 8.0e-12, true),        // cs
    (0.2e-12, 8.0e-12, true),        // cf
    (CL_RANGE.0, CL_RANGE.1, false), // cl — linear
];

fn map_gene(u: f64, (lo, hi, log): (f64, f64, bool)) -> f64 {
    let u = u.clamp(0.0, 1.0);
    if log {
        (lo.ln() + u * (hi.ln() - lo.ln())).exp()
    } else {
        lo + u * (hi - lo)
    }
}

/// Snaps `v` to whole multiples of `unit` (at least one unit) — the
/// quantization step used by [`DesignVector::quantize`].
fn snap_to_unit(v: f64, unit: f64) -> f64 {
    (v / unit).round().max(1.0) * unit
}

fn unmap_value(v: f64, (lo, hi, log): (f64, f64, bool)) -> f64 {
    let v = v.clamp(lo, hi);
    if log {
        (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
    } else {
        (v - lo) / (hi - lo)
    }
}

impl DesignVector {
    /// Decodes a unit-cube gene vector.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != 15`.
    pub fn from_genes(genes: &[f64]) -> Self {
        assert_eq!(genes.len(), NUM_PARAMS, "design vector needs 15 genes");
        let g = |i: usize| map_gene(genes[i], PARAM_RANGES[i]);
        DesignVector {
            w1: g(0),
            l1: g(1),
            w3: g(2),
            l3: g(3),
            w5: g(4),
            l5: g(5),
            w6: g(6),
            l6: g(7),
            w7: g(8),
            l7: g(9),
            itail: g(10),
            cc: g(11),
            cs: g(12),
            cf: g(13),
            cl: g(14),
            vcm_in: 0.9,
        }
    }

    /// Decodes genes for the *drivable-load* formulation: the first 14
    /// genes are the sizing parameters as in
    /// [`from_genes`](DesignVector::from_genes), the 15th maps linearly to
    /// the input common-mode voltage over [`VCM_RANGE`], and the load
    /// capacitance is a placeholder (the evaluator computes the drivable
    /// load and sets it via [`with_cl`](DesignVector::with_cl)).
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != 15`.
    pub fn from_sizing_genes(genes: &[f64]) -> Self {
        assert_eq!(genes.len(), NUM_PARAMS, "design vector needs 15 genes");
        let mut dv = DesignVector::from_genes(genes);
        let u = genes[14].clamp(0.0, 1.0);
        dv.vcm_in = VCM_RANGE.0 + u * (VCM_RANGE.1 - VCM_RANGE.0);
        dv.cl = CL_RANGE.0;
        dv
    }

    /// Returns a copy with the load capacitance replaced.
    pub fn with_cl(mut self, cl: f64) -> Self {
        self.cl = cl;
        self
    }

    /// Snaps the design to layout-legal values: widths to whole unit
    /// fingers ([`W_UNIT`]), lengths to the [`L_UNIT`] grid, the matched
    /// capacitors to whole unit capacitors ([`C_UNIT`]), and the bias
    /// current to DAC steps ([`I_UNIT`]).
    ///
    /// The drivable-load problem evaluates quantized designs: this is how
    /// the circuit would actually be drawn (unit-finger matching is also
    /// what makes the corner "matching constraints" meaningful), and it
    /// makes the power/load trade-off a *discrete* frontier — small moves
    /// along the front require whole-finger re-sizing.
    pub fn quantize(mut self) -> Self {
        let snap = snap_to_unit;
        self.w1 = snap(self.w1, W_UNIT);
        self.w3 = snap(self.w3, W_UNIT);
        self.w5 = snap(self.w5, W_UNIT);
        self.w6 = snap(self.w6, W_UNIT);
        self.w7 = snap(self.w7, W_UNIT);
        self.l1 = snap(self.l1, L_UNIT);
        self.l3 = snap(self.l3, L_UNIT);
        self.l5 = snap(self.l5, L_UNIT);
        self.l6 = snap(self.l6, L_UNIT);
        self.l7 = snap(self.l7, L_UNIT);
        self.cc = snap(self.cc, C_UNIT);
        self.cs = snap(self.cs, C_UNIT);
        self.cf = snap(self.cf, C_UNIT);
        self.itail = snap(self.itail, I_UNIT);
        self
    }

    /// Encodes back to unit-cube genes (values clamped into range first).
    pub fn to_genes(&self) -> Vec<f64> {
        let vals = [
            self.w1, self.l1, self.w3, self.l3, self.w5, self.l5, self.w6, self.l6, self.w7,
            self.l7, self.itail, self.cc, self.cs, self.cf, self.cl,
        ];
        vals.iter()
            .zip(PARAM_RANGES.iter())
            .map(|(&v, &r)| unmap_value(v, r))
            .collect()
    }

    /// GA bounds for the gene space: the unit cube.
    pub fn gene_bounds() -> Bounds {
        Bounds::uniform(NUM_PARAMS, 0.0, 1.0).expect("static bounds")
    }

    /// Offset-storage capacitor of the CDS network (tied to `cs`).
    pub fn coc(&self) -> f64 {
        self.cs
    }

    /// A hand-crafted reasonable design used by examples and tests: a
    /// moderate-speed, moderate-power point that satisfies the featured
    /// specification at around 1 pF of load.
    pub fn reference() -> Self {
        DesignVector {
            w1: 70e-6,
            l1: 0.5e-6,
            w3: 35e-6,
            l3: 0.7e-6,
            w5: 40e-6,
            l5: 0.6e-6,
            w6: 260e-6,
            l6: 0.32e-6,
            w7: 90e-6,
            l7: 0.45e-6,
            itail: 60e-6,
            cc: 1.2e-12,
            cs: 2.0e-12,
            cf: 2.0e-12,
            cl: 1.0e-12,
            vcm_in: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gene_round_trip() {
        let genes: Vec<f64> = (0..NUM_PARAMS).map(|i| (i as f64 + 0.5) / 16.0).collect();
        let dv = DesignVector::from_genes(&genes);
        let back = dv.to_genes();
        for (a, b) in genes.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "round trip drifted: {a} vs {b}");
        }
    }

    #[test]
    fn extreme_genes_hit_bounds() {
        let lo = DesignVector::from_genes(&[0.0; NUM_PARAMS]);
        let hi = DesignVector::from_genes(&[1.0; NUM_PARAMS]);
        assert!((lo.w1 - 1.0e-6).abs() < 1e-12);
        assert!((hi.w1 - 400.0e-6).abs() < 1e-9);
        assert!((lo.cl - CL_RANGE.0).abs() < 1e-18);
        assert!((hi.cl - CL_RANGE.1).abs() < 1e-18);
    }

    #[test]
    fn cl_mapping_is_linear() {
        let mut genes = vec![0.5; NUM_PARAMS];
        genes[14] = 0.5;
        let dv = DesignVector::from_genes(&genes);
        let expected = 0.5 * (CL_RANGE.0 + CL_RANGE.1);
        assert!((dv.cl - expected).abs() < 1e-18);
    }

    #[test]
    fn log_mapping_midpoint_is_geometric_mean() {
        let mut genes = vec![0.0; NUM_PARAMS];
        genes[10] = 0.5; // itail, range 2µ–500µ
        let dv = DesignVector::from_genes(&genes);
        let gm = (2.0e-6f64 * 500.0e-6).sqrt();
        assert!((dv.itail - gm).abs() / gm < 1e-12);
    }

    #[test]
    #[should_panic(expected = "15 genes")]
    fn wrong_gene_count_panics() {
        let _ = DesignVector::from_genes(&[0.5; 3]);
    }

    #[test]
    fn out_of_range_genes_are_clamped() {
        let dv = DesignVector::from_genes(&[2.0; NUM_PARAMS]);
        assert!((dv.cl - CL_RANGE.1).abs() < 1e-18);
    }

    #[test]
    fn bounds_are_unit_cube() {
        let b = DesignVector::gene_bounds();
        assert_eq!(b.len(), NUM_PARAMS);
        assert!(b.contains(&[0.5; NUM_PARAMS]));
    }

    #[test]
    fn reference_design_within_ranges() {
        let dv = DesignVector::reference();
        let genes = dv.to_genes();
        for (i, g) in genes.iter().enumerate() {
            assert!((0.0..=1.0).contains(g), "gene {i} out of range: {g}");
        }
        assert_eq!(dv.coc(), dv.cs);
    }
}
