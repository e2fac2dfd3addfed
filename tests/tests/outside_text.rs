//! Property tests for the service's parsers of outside text: the
//! `JobSpec` canonical line, the `state.job` file and the JSONL event
//! lines. Each parser is held to three properties: arbitrary text never
//! panics, a valid value round-trips, and a truncated value is an error
//! (for the lossy event reader, a prefix of the events).

use analog_dse::engine::{FaultKind, FaultResolution, StageNanos};
use analog_dse::sacga::RunEvent;
use dse_server::spec::CellTopo;
use dse_server::{AlgoSpec, JobHealth, JobSpec, JobState, JobStatus, ProblemSpec};
use proptest::prelude::*;

/// Pieces spliced into arbitrary spec lines: the keys, problem and arm
/// tokens, separators, and huge, negative and non-finite numbers.
#[rustfmt::skip]
const SPEC_PIECES: &[&str] = &[
    "job", "v1", "v2", " ", "  ", "\t", "=", ",", ":", "name=", "tenant=", "problem=", "algo=",
    "seed=", "priority=", "slice=", "stall=", "fault=", "inject=", "screen=", "none", "a", "x-1.b_",
    "schaffer", "binh_korn", "srinivas", "tanaka", "constr", "zdt1", "zdt2", "zdt3", "drivable",
    "sacga", "local", "mesacga", "steady", "nsga2", "island", "cellular", "pop=", "gens=", "parts=",
    "span=", "window=", "quantum=", "islands=", "topo=", "cells=", "radius=", "interval=",
    "migrants=", "open=", "aniso=", "ring", "torus", "full", "smallworld", "0", "1", "2", "9", "10",
    "16", "99", "101", "10000", "10001", "100000", "100001", "-1", "-0", "+3",
    "18446744073709551615", "18446744073709551616", "340282366920938463463374607431768211456",
    "1e308", "1e309", "-1e308", "NaN", "inf", "-inf", "0.5", "1.5", ".", "é", "\u{0}", "💥",
];

/// Pieces spliced into arbitrary state texts.
#[rustfmt::skip]
const STATE_PIECES: &[&str] = &[
    "jobstate v1\n", "jobstate v1", "\n", "\r\n", " ", "status ", "generations ", "candidates ",
    "evaluations ", "cache_hits ", "screened ", "health ", "error ", "end", "end\n", "queued",
    "running", "suspended", "done", "failed", "cancelled", "healthy", "stalled", "faulty", "0",
    "7", "-1", "18446744073709551615", "18446744073709551616", "1e3", "x", "é", "💥",
];

/// Pieces spliced into arbitrary event lines.
#[rustfmt::skip]
const JSON_PIECES: &[&str] = &[
    "{", "}", "[", "]", ",", ":", " ", "\"", "\\", "\\u", "\\n", "\"v\"", "\"event\"",
    "\"generation\"", "\"generation_end\"", "\"promotion\"", "\"stage_timing\"",
    "\"evaluation_fault\"", "\"front\"", "\"temperature\"", "\"inf\"", "\"nan\"", "\"panic\"",
    "0", "1", "2", "-", "-0", "1.5", "1e999", "-1e999", "1e", ".", "+", "18446744073709551616",
    "null", "true", "é", "💥", "\u{0}",
];

/// Strings concatenated from `pieces`.
fn spliced(pieces: &'static [&'static str], max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..pieces.len(), 0..max)
        .prop_map(move |picks| picks.into_iter().map(|i| pieces[i]).collect())
}

/// Strings of arbitrary chars, weighted towards ASCII.
fn arbitrary_text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..max).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|(wide, code)| char::from_u32(if wide == 0 { code } else { code % 0x80 }))
            .collect()
    })
}

/// Applies seeded splices to `line`: each `(at, piece, cut)` replaces up
/// to `cut` chars at char offset `at` with a piece from `pieces`.
fn mutate(line: &str, edits: &[(usize, usize, usize)], pieces: &[&str]) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for &(at, piece, cut) in edits {
        let at = at % (chars.len() + 1);
        let end = (at + cut).min(chars.len());
        chars.splice(at..end, pieces[piece % pieces.len()].chars());
    }
    chars.into_iter().collect()
}

fn edits() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    prop::collection::vec((0usize..4096, 0usize..1024, 0usize..4), 1..4)
}

// ---------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------

/// A `[A-Za-z0-9._-]` token.
fn token() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    prop::collection::vec(0..ALPHABET.len(), 1..12)
        .prop_map(|picks| picks.into_iter().map(|i| char::from(ALPHABET[i])).collect())
}

/// Every problem, the ZDT ones at dimension `n` (2 to 100).
fn problems(n: usize) -> Vec<ProblemSpec> {
    vec![
        ProblemSpec::Schaffer,
        ProblemSpec::BinhKorn,
        ProblemSpec::Srinivas,
        ProblemSpec::Tanaka,
        ProblemSpec::Constr,
        ProblemSpec::Zdt1(n),
        ProblemSpec::Zdt2(n),
        ProblemSpec::Zdt3(n),
        ProblemSpec::Drivable,
    ]
}

/// Every arm, sized from `p` (populations, partitions, windows and
/// radii at most 10,000; generation budgets at most 100,000).
fn arms(p: &[usize; 8], topo: usize) -> Vec<AlgoSpec> {
    let pop = p[0] % 10_001;
    let gens = p[1] % 100_001;
    let small = |i: usize| p[i] % 10_001;
    vec![
        AlgoSpec::Sacga {
            pop,
            gens,
            parts: small(2),
        },
        AlgoSpec::Local {
            pop,
            gens,
            parts: small(2),
        },
        AlgoSpec::Mesacga { pop, span: gens },
        AlgoSpec::Steady {
            pop,
            gens,
            parts: small(2),
            window: small(3),
            quantum: p[4],
        },
        AlgoSpec::Nsga2 { pop, gens },
        AlgoSpec::Island {
            pop,
            gens,
            islands: p[5],
        },
        AlgoSpec::Cellular {
            pop,
            gens,
            topo: [
                CellTopo::Ring,
                CellTopo::Torus,
                CellTopo::Full,
                CellTopo::SmallWorld,
            ][topo % 4],
            cells: p[5],
            radius: small(6),
            interval: p[7],
            migrants: p[4],
            open: p[6] % 101,
            aniso: p[7] % 101,
        },
    ]
}

/// The service policy of a generated spec.
#[derive(Debug)]
struct Policy {
    name: String,
    tenant: Option<String>,
    seed: u64,
    priority: u8,
    slice: usize,
    stall: usize,
    fault: Option<f64>,
    inject: f64,
    screen: bool,
}

fn policy() -> impl Strategy<Value = Policy> {
    (
        (token(), 0u8..2, token()),
        (0u64..u64::MAX, 0u8..10, 0usize..1000, 0usize..100_001),
        (0u8..3, 0.0f64..1e6, 0u8..4, 0.0f64..1.0, 0u8..2),
    )
        .prop_map(
            |(
                (name, has_tenant, tenant),
                (seed, priority, slice, stall),
                (fault_kind, fault, inject_kind, inject, screen),
            )| Policy {
                name,
                tenant: (has_tenant == 1).then_some(tenant),
                seed,
                priority,
                slice,
                stall,
                fault: match fault_kind {
                    0 => None,
                    1 => Some(fault),
                    _ => Some(0.0),
                },
                inject: match inject_kind {
                    0 => 0.0,
                    1 => 1.0,
                    _ => inject,
                },
                screen: screen == 1,
            },
        )
}

fn build_spec(problem: ProblemSpec, algo: AlgoSpec, p: &Policy) -> JobSpec {
    let mut spec = JobSpec::new(p.name.clone(), problem, algo, p.seed)
        .priority(p.priority)
        .slice(p.slice)
        .stall_window(p.stall)
        .inject_nonfinite(p.inject);
    if let Some(tenant) = &p.tenant {
        spec = spec.tenant(tenant.clone());
    }
    if let Some(rate) = p.fault {
        spec = spec.fault_alarm(rate);
    }
    // Only the drivable-load problem has a surrogate screen.
    if p.screen && spec.problem == ProblemSpec::Drivable {
        spec = spec.screen();
    }
    spec
}

fn sizes() -> impl Strategy<Value = [usize; 8]> {
    prop::collection::vec(0usize..200_000, 8).prop_map(|v| v.try_into().unwrap())
}

proptest! {
    /// Arbitrary and spliced lines are refused or accepted, never a
    /// panic; an accepted line round-trips through its canonical form.
    #[test]
    fn spec_parse_never_panics(
        line in prop_oneof![arbitrary_text(120), spliced(SPEC_PIECES, 40)],
        header in 0u8..2,
    ) {
        let line = if header == 1 { format!("job v1 {line}") } else { line };
        if let Ok(spec) = JobSpec::parse(&line) {
            let again = JobSpec::parse(&spec.canonical()).unwrap();
            prop_assert_eq!(again.canonical(), spec.canonical());
        }
    }

    /// Every problem × every arm with in-cap sizes and any policy:
    /// parsing the canonical line gives back the same line and id; a
    /// mutated line is refused or round-trips; and no byte-prefix of the
    /// line panics.
    #[test]
    fn valid_specs_round_trip_through_the_canonical_line(
        dim in 2usize..101,
        p in sizes(),
        topo in 0usize..4,
        policy in policy(),
        pick in (0usize..9, 0usize..7),
        edits in edits(),
    ) {
        for (i, problem) in problems(dim).into_iter().enumerate() {
            for (j, algo) in arms(&p, topo).into_iter().enumerate() {
                let spec = build_spec(problem.clone(), algo, &policy);
                spec.validate().unwrap();
                let line = spec.canonical();
                let parsed = JobSpec::parse(&line).unwrap();
                prop_assert_eq!(parsed.canonical(), line.clone());
                prop_assert_eq!(parsed.id(), spec.id());
                if (i, j) != pick {
                    continue;
                }
                // The canonical line is ASCII, so every byte offset is a
                // char boundary.
                for end in 0..line.len() {
                    let _ = JobSpec::parse(&line[..end]);
                }
                if let Ok(mutant) = JobSpec::parse(&mutate(&line, &edits, SPEC_PIECES)) {
                    let again = JobSpec::parse(&mutant.canonical()).unwrap();
                    prop_assert_eq!(again.canonical(), mutant.canonical());
                    prop_assert_eq!(again.id(), mutant.id());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// state.job
// ---------------------------------------------------------------------

const STATUSES: [JobStatus; 6] = [
    JobStatus::Queued,
    JobStatus::Running,
    JobStatus::Suspended,
    JobStatus::Done,
    JobStatus::Failed,
    JobStatus::Cancelled,
];

const HEALTHS: [JobHealth; 5] = [
    JobHealth::Healthy,
    JobHealth::Stalled,
    JobHealth::Faulty,
    JobHealth::Done,
    JobHealth::Failed,
];

/// An error message as `state.job` keeps it: any text without line
/// breaks, which the writer folds into spaces.
fn error_text() -> impl Strategy<Value = String> {
    arbitrary_text(40).prop_map(|s| s.chars().filter(|c| !matches!(c, '\n' | '\r')).collect())
}

proptest! {
    #[test]
    fn state_parse_never_panics(
        text in prop_oneof![arbitrary_text(200), spliced(STATE_PIECES, 40)],
    ) {
        let _ = JobState::from_text(&text);
    }

    /// Every status and health, with and without an error, round-trips;
    /// every prefix that stops before the end of the `end` line is an
    /// error.
    #[test]
    fn states_round_trip_and_truncations_are_errors(
        kind in (0usize..6, 0usize..5, 0u8..2),
        counts in (0usize..usize::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        error in error_text(),
    ) {
        let (status, health, has_error) = kind;
        let state = JobState {
            status: STATUSES[status],
            generations: counts.0,
            candidates: counts.1,
            evaluations: counts.2,
            cache_hits: counts.3,
            screened: counts.4,
            health: HEALTHS[health],
            error: (has_error == 1).then_some(error),
        };
        let text = state.to_text();
        prop_assert_eq!(JobState::from_text(&text), Ok(state));
        // The text ends with "end\n": a prefix of up to "en" is torn.
        let end_line = text.len() - 1;
        for (at, _) in text.char_indices().take_while(|&(at, _)| at < end_line) {
            prop_assert!(JobState::from_text(&text[..at]).is_err(), "{:?}", &text[..at]);
        }
    }
}

// ---------------------------------------------------------------------
// JSONL event lines
// ---------------------------------------------------------------------

fn event() -> impl Strategy<Value = RunEvent> {
    let counts = (0usize..1_000_000, 0usize..1_000_000, 0usize..1_000_000);
    prop_oneof![
        (
            counts.clone(),
            (0u8..255, 0u8..4, -1e6f64..1e6),
            (
                0u64..1 << 40,
                prop::collection::vec(prop::collection::vec(-1e9f64..1e9, 2..4), 0..6)
            ),
        )
            .prop_map(
                |(
                    (generation, promoted, feasible),
                    (phase, temp_kind, temp),
                    (evaluations, front),
                )| {
                    RunEvent::GenerationEnd {
                        generation,
                        phase,
                        temperature: [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, temp]
                            [usize::from(temp_kind)],
                        promoted,
                        feasible,
                        population: feasible + promoted,
                        evaluations,
                        front,
                    }
                }
            ),
        (counts.clone(), 0usize..1000).prop_map(|((generation, phase_index, partitions), span)| {
            RunEvent::PhaseTransition {
                generation,
                phase_index,
                partitions,
                span,
            }
        }),
        counts
            .clone()
            .prop_map(|(generation, partition, _)| RunEvent::PartitionFeasible {
                generation,
                partition,
            }),
        counts
            .clone()
            .prop_map(|(generation, promoted, candidates)| RunEvent::Promotion {
                generation,
                promoted,
                candidates,
            }),
        (0usize..1_000_000, 0u8..2, 0u32..100, 0u8..2).prop_map(
            |(generation, panic, failures, recovered)| RunEvent::EvaluationFault {
                generation,
                kind: if panic == 1 {
                    FaultKind::Panic
                } else {
                    FaultKind::NonFinite
                },
                failures,
                resolution: if recovered == 1 {
                    FaultResolution::Recovered
                } else {
                    FaultResolution::Quarantined
                },
            }
        ),
        (0usize..1_000_000).prop_map(|generation| RunEvent::CheckpointWritten { generation }),
        (counts, prop::collection::vec(0u64..1 << 50, 5)).prop_map(
            |((generation, candidates, evaluations), ns)| RunEvent::StageTiming {
                generation,
                stages: StageNanos {
                    variation: ns[0],
                    evaluation: ns[1],
                    ranking: ns[2],
                    promotion: ns[3],
                    selection: ns[4],
                },
                candidates: candidates as u64,
                evaluations: evaluations as u64,
                cache_hits: 0,
            }
        ),
    ]
}

/// Re-encodes events, so streams compare by their bytes (a NaN
/// temperature is not equal to itself).
fn lines(events: &[RunEvent]) -> Vec<String> {
    events.iter().map(RunEvent::to_json).collect()
}

proptest! {
    #[test]
    fn event_parse_never_panics(
        line in prop_oneof![arbitrary_text(200), spliced(JSON_PIECES, 60)],
        real in event(),
        edits in edits(),
    ) {
        let _ = RunEvent::from_json(&line);
        let mutant = mutate(&real.to_json(), &edits, JSON_PIECES);
        if let Ok(parsed) = RunEvent::from_json(&mutant) {
            prop_assert_eq!(RunEvent::from_json(&parsed.to_json()).map(|e| e.to_json()), Ok(parsed.to_json()));
        }
        // The lossy reader keeps or skips every non-blank line.
        let stream = format!("{line}\n{mutant}\n{line}");
        let replay = RunEvent::parse_jsonl_lossy(&stream);
        let non_blank = stream.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(replay.events.len() + replay.skipped, non_blank);
    }

    /// Every char-boundary prefix of a stream replays a prefix of its
    /// events, with at most the torn last line skipped.
    #[test]
    fn every_prefix_of_a_stream_replays_a_prefix_of_its_events(
        events in prop::collection::vec(event(), 0..8),
    ) {
        let expected = lines(&events);
        let text: String = expected.iter().map(|l| format!("{l}\n")).collect();
        let whole = RunEvent::parse_jsonl_lossy(&text);
        prop_assert_eq!(lines(&whole.events), expected.clone());
        prop_assert_eq!(whole.skipped, 0);
        for (at, _) in text.char_indices() {
            let prefix = &text[..at];
            let replay = RunEvent::parse_jsonl_lossy(prefix);
            let got = lines(&replay.events);
            prop_assert_eq!(&got[..], &expected[..got.len()]);
            prop_assert!(replay.skipped <= 1, "{prefix:?}");
            // Every line the prefix holds whole is replayed.
            let whole_lines = expected
                .iter()
                .scan(0, |end, l| {
                    *end += l.len() + 1;
                    Some(*end - 1)
                })
                .take_while(|&end| end <= at)
                .count();
            prop_assert_eq!(got.len(), whole_lines, "{prefix:?}");
        }
    }
}
