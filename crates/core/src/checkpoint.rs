//! Plain-text run checkpoints: everything needed to suspend a SACGA or
//! MESACGA run at a generation boundary and later resume it
//! *bit-identically* — population, RNG state, generation counters,
//! annealing bookkeeping, and engine statistics.
//!
//! The format is line-oriented ASCII with no external dependencies.
//! Floating-point values are written as the 16-hex-digit bit pattern of
//! the `f64` ([`f64::to_bits`]), which round-trips every value —
//! including infinities and signed zeros — exactly. Durations are
//! written as integer nanoseconds. A version header guards against
//! format drift, and a trailing `end` record catches truncated files.

use crate::sacga::GenerationStats;
use engine::EngineStats;
use moea::individual::Individual;
use moea::{Evaluation, OptimizeError};
use std::time::Duration;

const SACGA_HEADER: &str = "sacga-checkpoint v1";
const MESACGA_HEADER: &str = "mesacga-checkpoint v1";
const STEADY_HEADER: &str = "steady-checkpoint v1";
const CELLULAR_HEADER: &str = "cellular-checkpoint v1";

/// A serialized individual: genes, evaluation, and ranking bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedIndividual {
    /// Decision variables.
    pub genes: Vec<f64>,
    /// Minimized objective values.
    pub objectives: Vec<f64>,
    /// Constraint-violation amounts.
    pub violations: Vec<f64>,
    /// Non-domination rank at suspension time.
    pub rank: usize,
    /// Crowding distance at suspension time.
    pub crowding: f64,
}

impl SavedIndividual {
    /// Captures an individual for serialization.
    pub fn from_individual(ind: &Individual) -> Self {
        SavedIndividual {
            genes: ind.genes.clone(),
            objectives: ind.objectives().to_vec(),
            violations: ind.evaluation.constraint_violations().to_vec(),
            rank: ind.rank,
            crowding: ind.crowding,
        }
    }

    /// Rebuilds the individual. [`Evaluation::new`]'s sanitization is
    /// idempotent on the already-sanitized stored values, so the rebuilt
    /// evaluation is bit-identical to the captured one.
    pub fn to_individual(&self) -> Individual {
        let mut ind = Individual::new(
            self.genes.clone(),
            Evaluation::new(self.objectives.clone(), self.violations.clone()),
        );
        ind.rank = self.rank;
        ind.crowding = self.crowding;
        ind
    }
}

/// Complete state of the shared partition-GA engine at a generation
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// RNG internal state (xoshiro256**).
    pub rng: [u64; 4],
    /// Generations executed so far.
    pub gen: usize,
    /// Whether the phase-I boundary processing (infeasible-partition
    /// discard, `gen_t` capture) has already run.
    pub phase1_done: bool,
    /// Length of phase I (meaningful only when `phase1_done`).
    pub gen_t: usize,
    /// Index of the sliced objective.
    pub grid_objective: usize,
    /// Lower edge of the sliced range.
    pub grid_lo: f64,
    /// Upper edge of the sliced range.
    pub grid_hi: f64,
    /// Partition count of the grid.
    pub grid_partitions: usize,
    /// Liveness flag per partition.
    pub alive: Vec<bool>,
    /// Members of each partition, in storage order.
    pub partitions: Vec<Vec<SavedIndividual>>,
    /// Per-generation history recorded so far.
    pub history: Vec<GenerationStats>,
    /// Evaluation-engine counters at suspension time.
    pub stats: EngineStats,
}

/// A suspended SACGA run, resumable via
/// [`Optimizer::resume`](crate::telemetry::Optimizer::resume) on a
/// [`Sacga`](crate::sacga::Sacga) configured identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SacgaCheckpoint {
    /// The engine state at the suspension boundary.
    pub state: EngineState,
}

impl SacgaCheckpoint {
    /// Serializes the checkpoint to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SACGA_HEADER);
        out.push('\n');
        write_state(&mut out, &self.state);
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] on a wrong header,
    /// malformed records, or truncation.
    pub fn from_text(text: &str) -> Result<Self, OptimizeError> {
        let mut lines = Lines::new(text);
        lines.expect_literal(SACGA_HEADER)?;
        let state = parse_state(&mut lines)?;
        lines.expect_literal("end")?;
        lines.expect_exhausted()?;
        Ok(SacgaCheckpoint { state })
    }
}

/// A suspended MESACGA run, resumable via
/// [`Optimizer::resume`](crate::telemetry::Optimizer::resume) on a
/// [`Mesacga`](crate::mesacga::Mesacga) configured identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MesacgaCheckpoint {
    /// The engine state at the suspension boundary.
    pub state: EngineState,
    /// Index of the phase the run was suspended in.
    pub phase_index: usize,
    /// Generation at which that phase's annealing schedule started.
    pub phase_start: usize,
    /// End-of-phase fronts captured before suspension.
    pub phase_fronts: Vec<Vec<SavedIndividual>>,
}

impl MesacgaCheckpoint {
    /// Serializes the checkpoint to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MESACGA_HEADER);
        out.push('\n');
        write_state(&mut out, &self.state);
        out.push_str(&format!("phase_index {}\n", self.phase_index));
        out.push_str(&format!("phase_start {}\n", self.phase_start));
        out.push_str(&format!("phase_fronts {}\n", self.phase_fronts.len()));
        for (fi, front) in self.phase_fronts.iter().enumerate() {
            out.push_str(&format!("f {fi} {}\n", front.len()));
            for ind in front {
                write_individual(&mut out, ind);
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] on a wrong header,
    /// malformed records, or truncation.
    pub fn from_text(text: &str) -> Result<Self, OptimizeError> {
        let mut lines = Lines::new(text);
        lines.expect_literal(MESACGA_HEADER)?;
        let state = parse_state(&mut lines)?;
        let phase_index = lines.tagged_usize("phase_index")?;
        let phase_start = lines.tagged_usize("phase_start")?;
        let n_fronts = lines.tagged_usize("phase_fronts")?;
        let mut phase_fronts = Vec::new();
        for fi in 0..n_fronts {
            let (no, toks) = lines.tagged("f", 2)?;
            if parse_usize(toks[0], no)? != fi {
                return Err(bad(no, "front records out of order"));
            }
            let count = parse_usize(toks[1], no)?;
            let mut front = Vec::new();
            for _ in 0..count {
                front.push(parse_individual(&mut lines)?);
            }
            phase_fronts.push(front);
        }
        lines.expect_literal("end")?;
        lines.expect_exhausted()?;
        Ok(MesacgaCheckpoint {
            state,
            phase_index,
            phase_start,
            phase_fronts,
        })
    }
}

/// A suspended steady-state SACGA run, resumable via
/// [`Optimizer::resume`](crate::telemetry::Optimizer::resume) on a
/// [`SteadySacga`](crate::steady::SteadySacga) configured identically.
///
/// Steady-state production runs ahead of merging, so at a generation
/// boundary there may be offspring already submitted (their selection and
/// variation RNG consumed) but not yet merged into the population. Those
/// travel in [`pending`](SteadyCheckpoint::pending) as genes plus their
/// completed evaluations, in submission order; resume primes them back
/// into the evaluation session so the merge stream continues exactly
/// where it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyCheckpoint {
    /// The engine state at the suspension boundary.
    pub state: EngineState,
    /// Offspring submitted but not yet merged: genes and evaluations in
    /// submission order (rank/crowding carry the freshly-constructed
    /// individual's defaults, exactly as an in-stream merge would see).
    pub pending: Vec<SavedIndividual>,
}

impl SteadyCheckpoint {
    /// Serializes the checkpoint to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(STEADY_HEADER);
        out.push('\n');
        write_state(&mut out, &self.state);
        out.push_str(&format!("pending {}\n", self.pending.len()));
        for ind in &self.pending {
            write_individual(&mut out, ind);
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] on a wrong header,
    /// malformed records, or truncation.
    pub fn from_text(text: &str) -> Result<Self, OptimizeError> {
        let mut lines = Lines::new(text);
        lines.expect_literal(STEADY_HEADER)?;
        let state = parse_state(&mut lines)?;
        let n_pending = lines.tagged_usize("pending")?;
        let mut pending = Vec::new();
        for _ in 0..n_pending {
            pending.push(parse_individual(&mut lines)?);
        }
        lines.expect_literal("end")?;
        lines.expect_exhausted()?;
        Ok(SteadyCheckpoint { state, pending })
    }
}

/// A suspended cellular run, resumable via
/// [`Optimizer::resume`](crate::telemetry::Optimizer::resume) on a
/// [`CellularGa`](crate::cellular::CellularGa) configured identically.
///
/// The cellular loop drains every submitted offspring before crossing a
/// generation boundary (its merge boundary), so — unlike
/// [`SteadyCheckpoint`] — there is never a pending look-ahead to rescue:
/// the checkpoint is just the RNG, the counters, the history, and each
/// cell's members.
#[derive(Debug, Clone, PartialEq)]
pub struct CellularCheckpoint {
    /// RNG internal state (xoshiro256**).
    pub rng: [u64; 4],
    /// Generations executed so far.
    pub gen: usize,
    /// Migration events performed so far.
    pub migrations: usize,
    /// Members of each cell, in topology order.
    pub cells: Vec<Vec<SavedIndividual>>,
    /// Per-generation history recorded so far.
    pub history: Vec<GenerationStats>,
    /// Evaluation-engine counters at suspension time.
    pub stats: EngineStats,
}

impl CellularCheckpoint {
    /// Serializes the checkpoint to its text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CELLULAR_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "rng {:016x} {:016x} {:016x} {:016x}\n",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        ));
        out.push_str(&format!("gen {}\n", self.gen));
        out.push_str(&format!("migrations {}\n", self.migrations));
        write_history(&mut out, &self.history);
        write_stats(&mut out, &self.stats);
        out.push_str(&format!("cells {}\n", self.cells.len()));
        for (ci, cell) in self.cells.iter().enumerate() {
            out.push_str(&format!("c {ci} {}\n", cell.len()));
            for ind in cell {
                write_individual(&mut out, ind);
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidCheckpoint`] on a wrong header,
    /// malformed records, or truncation.
    pub fn from_text(text: &str) -> Result<Self, OptimizeError> {
        let mut lines = Lines::new(text);
        lines.expect_literal(CELLULAR_HEADER)?;
        let (no, toks) = lines.tagged("rng", 4)?;
        let mut rng = [0u64; 4];
        for (slot, tok) in rng.iter_mut().zip(&toks) {
            *slot = parse_hex_u64(tok, no)?;
        }
        let gen = lines.tagged_usize("gen")?;
        let migrations = lines.tagged_usize("migrations")?;
        let history = parse_history(&mut lines)?;
        let stats = parse_stats(&mut lines)?;
        let n_cells = lines.tagged_usize("cells")?;
        let mut cells = Vec::new();
        for ci in 0..n_cells {
            let (no, toks) = lines.tagged("c", 2)?;
            if parse_usize(toks[0], no)? != ci {
                return Err(bad(no, "cell records out of order"));
            }
            let count = parse_usize(toks[1], no)?;
            let mut cell = Vec::new();
            for _ in 0..count {
                cell.push(parse_individual(&mut lines)?);
            }
            cells.push(cell);
        }
        lines.expect_literal("end")?;
        lines.expect_exhausted()?;
        Ok(CellularCheckpoint {
            rng,
            gen,
            migrations,
            cells,
            history,
            stats,
        })
    }
}

// ---------------------------------------------------------------------------
// Writing

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn write_individual(out: &mut String, ind: &SavedIndividual) {
    out.push_str(&format!(
        "i {} {} {} {} {}",
        ind.rank,
        f64_hex(ind.crowding),
        ind.genes.len(),
        ind.objectives.len(),
        ind.violations.len()
    ));
    for v in ind
        .genes
        .iter()
        .chain(&ind.objectives)
        .chain(&ind.violations)
    {
        out.push(' ');
        out.push_str(&f64_hex(*v));
    }
    out.push('\n');
}

fn write_state(out: &mut String, s: &EngineState) {
    out.push_str(&format!(
        "rng {:016x} {:016x} {:016x} {:016x}\n",
        s.rng[0], s.rng[1], s.rng[2], s.rng[3]
    ));
    out.push_str(&format!("gen {}\n", s.gen));
    out.push_str(&format!("phase1_done {}\n", u8::from(s.phase1_done)));
    out.push_str(&format!("gen_t {}\n", s.gen_t));
    out.push_str(&format!(
        "grid {} {} {} {}\n",
        s.grid_objective,
        f64_hex(s.grid_lo),
        f64_hex(s.grid_hi),
        s.grid_partitions
    ));
    out.push_str("alive");
    for &a in &s.alive {
        out.push(' ');
        out.push(if a { '1' } else { '0' });
    }
    out.push('\n');
    write_history(out, &s.history);
    write_stats(out, &s.stats);
    out.push_str(&format!("partitions {}\n", s.partitions.len()));
    for (pi, part) in s.partitions.iter().enumerate() {
        out.push_str(&format!("p {pi} {}\n", part.len()));
        for ind in part {
            write_individual(out, ind);
        }
    }
}

fn write_history(out: &mut String, history: &[GenerationStats]) {
    out.push_str(&format!("history {}\n", history.len()));
    for h in history {
        out.push_str(&format!(
            "h {} {} {} {} {} {}\n",
            h.generation,
            h.phase,
            f64_hex(h.temperature),
            h.promoted,
            h.feasible,
            h.population
        ));
    }
}

fn write_stats(out: &mut String, st: &EngineStats) {
    // `screened` rides at the end so checkpoints written before the
    // surrogate screen existed (14 tokens) still parse (as screened = 0).
    out.push_str(&format!(
        "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
        st.candidates,
        st.evaluations,
        st.cache_hits,
        st.batches,
        st.max_batch,
        st.eval_time.as_nanos(),
        st.failures,
        st.retries,
        st.recovered,
        st.quarantined,
        st.backoff_time.as_nanos(),
        st.injected_panics,
        st.injected_nonfinite,
        st.injected_delays,
        st.screened
    ));
}

// ---------------------------------------------------------------------------
// Parsing
//
// A count read from the text never sizes an allocation: a corrupt count
// fails on the records it promises, as a truncated text does.

fn bad(line: usize, why: impl std::fmt::Display) -> OptimizeError {
    OptimizeError::invalid_checkpoint(format!("line {line}: {why}"))
}

fn parse_usize(tok: &str, line: usize) -> Result<usize, OptimizeError> {
    tok.parse()
        .map_err(|_| bad(line, format!("expected an integer, got `{tok}`")))
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, OptimizeError> {
    tok.parse()
        .map_err(|_| bad(line, format!("expected an integer, got `{tok}`")))
}

fn parse_hex_u64(tok: &str, line: usize) -> Result<u64, OptimizeError> {
    u64::from_str_radix(tok, 16)
        .map_err(|_| bad(line, format!("expected a 64-bit hex value, got `{tok}`")))
}

fn parse_hex_f64(tok: &str, line: usize) -> Result<f64, OptimizeError> {
    parse_hex_u64(tok, line).map(f64::from_bits)
}

fn parse_nanos(tok: &str, line: usize) -> Result<Duration, OptimizeError> {
    let nanos: u128 = tok
        .parse()
        .map_err(|_| bad(line, format!("expected nanoseconds, got `{tok}`")))?;
    let secs =
        u64::try_from(nanos / 1_000_000_000).map_err(|_| bad(line, "duration out of range"))?;
    Ok(Duration::new(secs, (nanos % 1_000_000_000) as u32))
}

struct Lines<'a> {
    it: std::str::Lines<'a>,
    no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            it: text.lines(),
            no: 0,
        }
    }

    fn next_line(&mut self) -> Result<(usize, &'a str), OptimizeError> {
        loop {
            let line = self.it.next().ok_or_else(|| {
                OptimizeError::invalid_checkpoint("unexpected end of checkpoint".to_string())
            })?;
            self.no += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok((self.no, trimmed));
            }
        }
    }

    fn expect_literal(&mut self, expected: &str) -> Result<(), OptimizeError> {
        let (no, line) = self.next_line()?;
        if line != expected {
            return Err(bad(no, format!("expected `{expected}`, got `{line}`")));
        }
        Ok(())
    }

    fn expect_exhausted(&mut self) -> Result<(), OptimizeError> {
        for line in self.it.by_ref() {
            self.no += 1;
            if !line.trim().is_empty() {
                return Err(bad(self.no, "unexpected content after `end`"));
            }
        }
        Ok(())
    }

    /// Reads a line `tag tok tok ...`, requiring at least `min` tokens
    /// after the tag; returns `(line_no, tokens)`.
    fn tagged(&mut self, tag: &str, min: usize) -> Result<(usize, Vec<&'a str>), OptimizeError> {
        let (no, line) = self.next_line()?;
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some(t) if t == tag => {}
            Some(t) => return Err(bad(no, format!("expected `{tag}` record, got `{t}`"))),
            None => return Err(bad(no, format!("expected `{tag}` record"))),
        }
        let rest: Vec<&str> = toks.collect();
        if rest.len() < min {
            return Err(bad(
                no,
                format!(
                    "`{tag}` record needs at least {min} fields, got {}",
                    rest.len()
                ),
            ));
        }
        Ok((no, rest))
    }

    fn tagged_usize(&mut self, tag: &str) -> Result<usize, OptimizeError> {
        let (no, toks) = self.tagged(tag, 1)?;
        parse_usize(toks[0], no)
    }
}

fn parse_individual(lines: &mut Lines<'_>) -> Result<SavedIndividual, OptimizeError> {
    let (no, toks) = lines.tagged("i", 5)?;
    let rank = parse_usize(toks[0], no)?;
    let crowding = parse_hex_f64(toks[1], no)?;
    let ng = parse_usize(toks[2], no)?;
    let nobj = parse_usize(toks[3], no)?;
    let nv = parse_usize(toks[4], no)?;
    let values = &toks[5..];
    let want = ng.checked_add(nobj).and_then(|n| n.checked_add(nv));
    if want != Some(values.len()) {
        return Err(bad(
            no,
            format!("expected {ng} + {nobj} + {nv} values, got {}", values.len()),
        ));
    }
    let mut parsed = Vec::with_capacity(values.len());
    for tok in values {
        parsed.push(parse_hex_f64(tok, no)?);
    }
    let violations = parsed.split_off(ng + nobj);
    let objectives = parsed.split_off(ng);
    Ok(SavedIndividual {
        genes: parsed,
        objectives,
        violations,
        rank,
        crowding,
    })
}

fn parse_state(lines: &mut Lines<'_>) -> Result<EngineState, OptimizeError> {
    let (no, toks) = lines.tagged("rng", 4)?;
    let mut rng = [0u64; 4];
    for (slot, tok) in rng.iter_mut().zip(&toks) {
        *slot = parse_hex_u64(tok, no)?;
    }
    let gen = lines.tagged_usize("gen")?;
    let (no, toks) = lines.tagged("phase1_done", 1)?;
    let phase1_done = match toks[0] {
        "0" => false,
        "1" => true,
        other => return Err(bad(no, format!("expected 0 or 1, got `{other}`"))),
    };
    let gen_t = lines.tagged_usize("gen_t")?;
    let (no, toks) = lines.tagged("grid", 4)?;
    let grid_objective = parse_usize(toks[0], no)?;
    let grid_lo = parse_hex_f64(toks[1], no)?;
    let grid_hi = parse_hex_f64(toks[2], no)?;
    let grid_partitions = parse_usize(toks[3], no)?;
    let (no, toks) = lines.tagged("alive", 0)?;
    let mut alive = Vec::with_capacity(toks.len());
    for tok in &toks {
        alive.push(match *tok {
            "0" => false,
            "1" => true,
            other => return Err(bad(no, format!("expected 0 or 1, got `{other}`"))),
        });
    }
    let history = parse_history(lines)?;
    let stats = parse_stats(lines)?;
    let n_partitions = lines.tagged_usize("partitions")?;
    if n_partitions != grid_partitions || alive.len() != grid_partitions {
        return Err(OptimizeError::invalid_checkpoint(format!(
            "grid declares {grid_partitions} partitions but checkpoint stores {n_partitions} \
             member lists and {} alive flags",
            alive.len()
        )));
    }
    let mut partitions = Vec::new();
    for pi in 0..n_partitions {
        let (no, toks) = lines.tagged("p", 2)?;
        if parse_usize(toks[0], no)? != pi {
            return Err(bad(no, "partition records out of order"));
        }
        let count = parse_usize(toks[1], no)?;
        let mut part = Vec::new();
        for _ in 0..count {
            part.push(parse_individual(lines)?);
        }
        partitions.push(part);
    }
    Ok(EngineState {
        rng,
        gen,
        phase1_done,
        gen_t,
        grid_objective,
        grid_lo,
        grid_hi,
        grid_partitions,
        alive,
        partitions,
        history,
        stats,
    })
}

fn parse_history(lines: &mut Lines<'_>) -> Result<Vec<GenerationStats>, OptimizeError> {
    let n_history = lines.tagged_usize("history")?;
    let mut history = Vec::new();
    for _ in 0..n_history {
        let (no, toks) = lines.tagged("h", 6)?;
        history.push(GenerationStats {
            generation: parse_usize(toks[0], no)?,
            phase: parse_usize(toks[1], no)?
                .try_into()
                .map_err(|_| bad(no, "phase out of range"))?,
            temperature: parse_hex_f64(toks[2], no)?,
            promoted: parse_usize(toks[3], no)?,
            feasible: parse_usize(toks[4], no)?,
            population: parse_usize(toks[5], no)?,
        });
    }
    Ok(history)
}

fn parse_stats(lines: &mut Lines<'_>) -> Result<EngineStats, OptimizeError> {
    let (no, toks) = lines.tagged("stats", 14)?;
    Ok(EngineStats {
        candidates: parse_u64(toks[0], no)?,
        evaluations: parse_u64(toks[1], no)?,
        cache_hits: parse_u64(toks[2], no)?,
        batches: parse_u64(toks[3], no)?,
        max_batch: parse_u64(toks[4], no)?,
        eval_time: parse_nanos(toks[5], no)?,
        failures: parse_u64(toks[6], no)?,
        retries: parse_u64(toks[7], no)?,
        recovered: parse_u64(toks[8], no)?,
        quarantined: parse_u64(toks[9], no)?,
        backoff_time: parse_nanos(toks[10], no)?,
        injected_panics: parse_u64(toks[11], no)?,
        injected_nonfinite: parse_u64(toks[12], no)?,
        injected_delays: parse_u64(toks[13], no)?,
        // Absent in pre-screen checkpoints: default to zero.
        screened: toks.get(14).map_or(Ok(0), |t| parse_u64(t, no))?,
    })
}

impl crate::telemetry::CheckpointText for SacgaCheckpoint {
    fn to_checkpoint_text(&self) -> String {
        self.to_text()
    }

    fn from_checkpoint_text(text: &str) -> Result<Self, OptimizeError> {
        SacgaCheckpoint::from_text(text)
    }

    fn generation(&self) -> usize {
        self.state.gen
    }
}

impl crate::telemetry::CheckpointText for SteadyCheckpoint {
    fn to_checkpoint_text(&self) -> String {
        self.to_text()
    }

    fn from_checkpoint_text(text: &str) -> Result<Self, OptimizeError> {
        SteadyCheckpoint::from_text(text)
    }

    fn generation(&self) -> usize {
        self.state.gen
    }
}

impl crate::telemetry::CheckpointText for CellularCheckpoint {
    fn to_checkpoint_text(&self) -> String {
        self.to_text()
    }

    fn from_checkpoint_text(text: &str) -> Result<Self, OptimizeError> {
        CellularCheckpoint::from_text(text)
    }

    fn generation(&self) -> usize {
        self.gen
    }
}

impl crate::telemetry::CheckpointText for MesacgaCheckpoint {
    fn to_checkpoint_text(&self) -> String {
        self.to_text()
    }

    fn from_checkpoint_text(text: &str) -> Result<Self, OptimizeError> {
        MesacgaCheckpoint::from_text(text)
    }

    fn generation(&self) -> usize {
        self.state.gen
    }
}

/// Deterministic file name for a per-run artifact of a campaign cell —
/// checkpoint, completed-cell state, or telemetry stream — built from
/// the arm label, the seed, and an extension.
///
/// The label is sanitized so the name is a portable single path
/// component: ASCII alphanumerics, `-`, `_` and `.` pass through,
/// everything else (including path separators) becomes `-`. Identical
/// inputs always produce the identical name, so a resumed campaign finds
/// exactly the artifacts the killed one wrote.
///
/// ```
/// use sacga::checkpoint::cell_artifact_name;
///
/// assert_eq!(cell_artifact_name("sacga8", 42, "state"), "cell_sacga8_seed42.state");
/// assert_eq!(cell_artifact_name("tpg/1 part", 7, "jsonl"), "cell_tpg-1-part_seed7.jsonl");
/// ```
pub fn cell_artifact_name(arm: &str, seed: u64, extension: &str) -> String {
    let clean: String = arm
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("cell_{clean}_seed{seed}.{extension}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> EngineState {
        EngineState {
            rng: [1, 2, 3, u64::MAX],
            gen: 7,
            phase1_done: true,
            gen_t: 3,
            grid_objective: 0,
            grid_lo: -1.25,
            grid_hi: 4.75,
            grid_partitions: 2,
            alive: vec![true, false],
            partitions: vec![
                vec![SavedIndividual {
                    genes: vec![0.5, -0.0],
                    objectives: vec![1.5, f64::INFINITY],
                    violations: vec![0.0],
                    rank: 0,
                    crowding: f64::INFINITY,
                }],
                vec![],
            ],
            history: vec![GenerationStats {
                generation: 0,
                phase: 1,
                temperature: f64::INFINITY,
                promoted: 0,
                feasible: 1,
                population: 1,
            }],
            stats: EngineStats {
                candidates: 40,
                evaluations: 38,
                cache_hits: 2,
                batches: 2,
                max_batch: 20,
                eval_time: Duration::from_nanos(123_456_789_012),
                failures: 3,
                retries: 3,
                recovered: 2,
                quarantined: 1,
                backoff_time: Duration::from_nanos(42),
                injected_panics: 2,
                injected_nonfinite: 1,
                injected_delays: 0,
                screened: 4,
            },
        }
    }

    #[test]
    fn sacga_checkpoint_round_trips() {
        let cp = SacgaCheckpoint {
            state: sample_state(),
        };
        let text = cp.to_text();
        let back = SacgaCheckpoint::from_text(&text).unwrap();
        assert_eq!(cp, back);
        // second serialization is byte-identical (canonical form)
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn legacy_14_token_stats_line_parses_with_zero_screened() {
        let cp = SacgaCheckpoint {
            state: sample_state(),
        };
        let text = cp.to_text();
        // Strip the trailing token to simulate a checkpoint written before
        // the surrogate screen existed.
        let legacy: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("stats ") {
                    let toks: Vec<&str> = rest.split_whitespace().take(14).collect();
                    format!("stats {}", toks.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let back = SacgaCheckpoint::from_text(&legacy).unwrap();
        assert_eq!(back.state.stats.screened, 0);
        assert_eq!(back.state.stats.candidates, 40);
    }

    #[test]
    fn mesacga_checkpoint_round_trips() {
        let cp = MesacgaCheckpoint {
            state: sample_state(),
            phase_index: 1,
            phase_start: 5,
            phase_fronts: vec![vec![SavedIndividual {
                genes: vec![1.0],
                objectives: vec![0.25, 0.75],
                violations: vec![],
                rank: 0,
                crowding: 1.5,
            }]],
        };
        let text = cp.to_text();
        let back = MesacgaCheckpoint::from_text(&text).unwrap();
        assert_eq!(cp, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn steady_checkpoint_round_trips() {
        let cp = SteadyCheckpoint {
            state: sample_state(),
            pending: vec![
                SavedIndividual {
                    genes: vec![0.25, -1.5],
                    objectives: vec![2.0, 3.0],
                    violations: vec![0.0],
                    rank: 0,
                    crowding: 0.0,
                },
                SavedIndividual {
                    genes: vec![0.75, 0.5],
                    objectives: vec![1.0, f64::INFINITY],
                    violations: vec![0.5],
                    rank: 0,
                    crowding: 0.0,
                },
            ],
        };
        let text = cp.to_text();
        let back = SteadyCheckpoint::from_text(&text).unwrap();
        assert_eq!(cp, back);
        assert_eq!(text, back.to_text());
        // empty pending set round-trips too (suspension with nothing ahead)
        let empty = SteadyCheckpoint {
            state: sample_state(),
            pending: vec![],
        };
        assert_eq!(
            SteadyCheckpoint::from_text(&empty.to_text()).unwrap(),
            empty
        );
    }

    #[test]
    fn cellular_checkpoint_round_trips() {
        let base = sample_state();
        let cp = CellularCheckpoint {
            rng: [9, 8, 7, 6],
            gen: 4,
            migrations: 1,
            cells: vec![
                base.partitions[0].clone(),
                vec![SavedIndividual {
                    genes: vec![-0.0, f64::INFINITY],
                    objectives: vec![0.5],
                    violations: vec![],
                    rank: 1,
                    crowding: 0.25,
                }],
            ],
            history: base.history.clone(),
            stats: base.stats.clone(),
        };
        let text = cp.to_text();
        assert!(text.starts_with("cellular-checkpoint v1\n"));
        let back = CellularCheckpoint::from_text(&text).unwrap();
        assert_eq!(cp, back);
        assert_eq!(text, back.to_text());
        // wrong header, truncation, and corruption are rejected
        assert!(SteadyCheckpoint::from_text(&text).is_err());
        assert!(CellularCheckpoint::from_text(text.rsplit_once("end").unwrap().0).is_err());
        assert!(CellularCheckpoint::from_text(&text.replace("c 1", "c 9")).is_err());
    }

    #[test]
    fn steady_header_is_not_interchangeable() {
        let steady = SteadyCheckpoint {
            state: sample_state(),
            pending: vec![],
        };
        let sacga = SacgaCheckpoint {
            state: sample_state(),
        };
        assert!(SacgaCheckpoint::from_text(&steady.to_text()).is_err());
        assert!(SteadyCheckpoint::from_text(&sacga.to_text()).is_err());
        // truncation before the pending block is caught
        let text = steady.to_text();
        let truncated = text.rsplit_once("pending").unwrap().0;
        assert!(SteadyCheckpoint::from_text(truncated).is_err());
    }

    #[test]
    fn bit_patterns_survive_exactly() {
        // -0.0 and infinity must round-trip to the same bits.
        let ind = SavedIndividual {
            genes: vec![-0.0],
            objectives: vec![f64::INFINITY, 1.0 / 3.0],
            violations: vec![f64::MIN_POSITIVE],
            rank: usize::MAX,
            crowding: -0.0,
        };
        let mut out = String::new();
        write_individual(&mut out, &ind);
        let mut lines = Lines::new(&out);
        let back = parse_individual(&mut lines).unwrap();
        assert_eq!(back.genes[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.objectives[0], f64::INFINITY);
        assert_eq!(back.objectives[1].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(back.violations[0], f64::MIN_POSITIVE);
        assert_eq!(back.rank, usize::MAX);
        assert_eq!(back.crowding.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncated_and_corrupt_text_is_rejected() {
        let cp = SacgaCheckpoint {
            state: sample_state(),
        };
        let text = cp.to_text();
        // truncation: drop the trailing `end`
        let truncated = text.rsplit_once("end").unwrap().0;
        assert!(SacgaCheckpoint::from_text(truncated).is_err());
        // wrong header
        assert!(SacgaCheckpoint::from_text("nonsense v1\nend\n").is_err());
        // mesacga header fed to sacga parser and vice versa
        let m = MesacgaCheckpoint {
            state: sample_state(),
            phase_index: 0,
            phase_start: 0,
            phase_fronts: vec![],
        };
        assert!(SacgaCheckpoint::from_text(&m.to_text()).is_err());
        assert!(MesacgaCheckpoint::from_text(&text).is_err());
        // corrupt hex
        let corrupt = text.replace("rng", "rng zz");
        assert!(SacgaCheckpoint::from_text(&corrupt).is_err());
        // a huge member count fails on the members it promises
        for huge in ["18446744073709551615", "4611686018427387904"] {
            let corrupt = text.replace("p 0 1\n", &format!("p 0 {huge}\n"));
            assert_ne!(corrupt, text);
            assert!(SacgaCheckpoint::from_text(&corrupt).is_err());
        }
        // trailing garbage
        let mut trailing = text.clone();
        trailing.push_str("junk\n");
        assert!(SacgaCheckpoint::from_text(&trailing).is_err());
    }

    #[test]
    fn saved_individual_round_trips_through_individual() {
        let saved = SavedIndividual {
            genes: vec![0.1, 0.2],
            objectives: vec![1.0, f64::INFINITY],
            violations: vec![0.0, 2.5],
            rank: 3,
            crowding: 0.75,
        };
        let ind = saved.to_individual();
        assert_eq!(SavedIndividual::from_individual(&ind), saved);
    }
}
