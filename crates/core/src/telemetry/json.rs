//! Line-oriented JSON codec for [`RunEvent`]s.
//!
//! The workspace is dependency-free, so this module hand-rolls both
//! directions: a writer emitting one compact JSON object per event, and
//! a small recursive-descent parser for reading lines back. Non-finite
//! floats (phase-I temperature is ∞) have no JSON number representation
//! and are encoded as the strings `"inf"`, `"-inf"` and `"nan"`; finite
//! floats use Rust's shortest round-tripping decimal form, so a parsed
//! event is bit-identical to the one written.

use std::fmt::{self, Write as _};

use engine::{FaultKind, FaultResolution};

use super::event::{RunEvent, EVENT_SCHEMA_VERSION};

/// Error produced when a JSONL line cannot be parsed back into a
/// [`RunEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventParseError(String);

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed run event: {}", self.0)
    }
}

impl std::error::Error for EventParseError {}

fn err(msg: impl Into<String>) -> EventParseError {
    EventParseError(msg.into())
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest decimal that round-trips and always
        // includes a fractional part ("1.0"), which keeps integers and
        // floats visually distinct in the stream.
        let _ = write!(out, "{v:?}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn fault_kind_token(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Panic => "panic",
        FaultKind::NonFinite => "non_finite",
    }
}

fn resolution_token(res: FaultResolution) -> &'static str {
    match res {
        FaultResolution::Recovered => "recovered",
        FaultResolution::Quarantined => "quarantined",
    }
}

impl RunEvent {
    /// Serializes the event as a single compact JSON object (no trailing
    /// newline) carrying the schema version as `"v"`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"v\":{EVENT_SCHEMA_VERSION},\"event\":");
        match self {
            RunEvent::GenerationEnd {
                generation,
                phase,
                temperature,
                promoted,
                feasible,
                population,
                evaluations,
                front,
            } => {
                let _ = write!(
                    s,
                    "\"generation_end\",\"generation\":{generation},\"phase\":{phase},\
                     \"temperature\":"
                );
                push_f64(&mut s, *temperature);
                let _ = write!(
                    s,
                    ",\"promoted\":{promoted},\"feasible\":{feasible},\
                     \"population\":{population},\"evaluations\":{evaluations},\"front\":["
                );
                for (i, point) in front.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('[');
                    for (j, v) in point.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        push_f64(&mut s, *v);
                    }
                    s.push(']');
                }
                s.push(']');
            }
            RunEvent::PhaseTransition {
                generation,
                phase_index,
                partitions,
                span,
            } => {
                let _ = write!(
                    s,
                    "\"phase_transition\",\"generation\":{generation},\
                     \"phase_index\":{phase_index},\"partitions\":{partitions},\"span\":{span}"
                );
            }
            RunEvent::PartitionFeasible {
                generation,
                partition,
            } => {
                let _ = write!(
                    s,
                    "\"partition_feasible\",\"generation\":{generation},\
                     \"partition\":{partition}"
                );
            }
            RunEvent::Promotion {
                generation,
                promoted,
                candidates,
            } => {
                let _ = write!(
                    s,
                    "\"promotion\",\"generation\":{generation},\
                     \"promoted\":{promoted},\"candidates\":{candidates}"
                );
            }
            RunEvent::EvaluationFault {
                generation,
                kind,
                failures,
                resolution,
            } => {
                let _ = write!(
                    s,
                    "\"evaluation_fault\",\"generation\":{generation},\
                     \"kind\":\"{}\",\"failures\":{failures},\"resolution\":\"{}\"",
                    fault_kind_token(*kind),
                    resolution_token(*resolution),
                );
            }
            RunEvent::CheckpointWritten { generation } => {
                let _ = write!(s, "\"checkpoint_written\",\"generation\":{generation}");
            }
            RunEvent::StageTiming {
                generation,
                stages,
                candidates,
                evaluations,
                cache_hits,
            } => {
                let _ = write!(
                    s,
                    "\"stage_timing\",\"generation\":{generation},\
                     \"variation_ns\":{},\"evaluation_ns\":{},\"ranking_ns\":{},\
                     \"promotion_ns\":{},\"selection_ns\":{},\
                     \"candidates\":{candidates},\"evaluations\":{evaluations},\
                     \"cache_hits\":{cache_hits}",
                    stages.variation,
                    stages.evaluation,
                    stages.ranking,
                    stages.promotion,
                    stages.selection,
                );
            }
        }
        s.push('}');
        s
    }

    /// Parses a JSON line previously produced by
    /// [`to_json`](RunEvent::to_json).
    ///
    /// # Errors
    ///
    /// Returns [`EventParseError`] on malformed JSON, an unknown event
    /// tag or schema version, or missing/mistyped fields.
    pub fn from_json(line: &str) -> Result<RunEvent, EventParseError> {
        let value = parse_json(line)?;
        let obj = match &value {
            Json::Obj(fields) => fields,
            _ => return Err(err("expected a JSON object")),
        };
        let version = get_u64(obj, "v")?;
        // Version 2 only added the `stage_timing` event, so every v1
        // line is also a valid v2 line; accept both.
        if version == 0 || version > u64::from(EVENT_SCHEMA_VERSION) {
            return Err(err(format!("unsupported schema version {version}")));
        }
        let tag = get_str(obj, "event")?;
        let generation = get_usize(obj, "generation")?;
        match tag {
            "generation_end" => Ok(RunEvent::GenerationEnd {
                generation,
                phase: get_u64(obj, "phase")? as u8,
                temperature: get_f64(obj, "temperature")?,
                promoted: get_usize(obj, "promoted")?,
                feasible: get_usize(obj, "feasible")?,
                population: get_usize(obj, "population")?,
                evaluations: get_u64(obj, "evaluations")?,
                front: get_front(obj)?,
            }),
            "phase_transition" => Ok(RunEvent::PhaseTransition {
                generation,
                phase_index: get_usize(obj, "phase_index")?,
                partitions: get_usize(obj, "partitions")?,
                span: get_usize(obj, "span")?,
            }),
            "partition_feasible" => Ok(RunEvent::PartitionFeasible {
                generation,
                partition: get_usize(obj, "partition")?,
            }),
            "promotion" => Ok(RunEvent::Promotion {
                generation,
                promoted: get_usize(obj, "promoted")?,
                candidates: get_usize(obj, "candidates")?,
            }),
            "evaluation_fault" => Ok(RunEvent::EvaluationFault {
                generation,
                kind: match get_str(obj, "kind")? {
                    "panic" => FaultKind::Panic,
                    "non_finite" => FaultKind::NonFinite,
                    other => return Err(err(format!("unknown fault kind {other:?}"))),
                },
                failures: get_u64(obj, "failures")? as u32,
                resolution: match get_str(obj, "resolution")? {
                    "recovered" => FaultResolution::Recovered,
                    "quarantined" => FaultResolution::Quarantined,
                    other => return Err(err(format!("unknown resolution {other:?}"))),
                },
            }),
            "checkpoint_written" => Ok(RunEvent::CheckpointWritten { generation }),
            "stage_timing" => Ok(RunEvent::StageTiming {
                generation,
                stages: engine::StageNanos {
                    variation: get_u64(obj, "variation_ns")?,
                    evaluation: get_u64(obj, "evaluation_ns")?,
                    ranking: get_u64(obj, "ranking_ns")?,
                    promotion: get_u64(obj, "promotion_ns")?,
                    selection: get_u64(obj, "selection_ns")?,
                },
                candidates: get_u64(obj, "candidates")?,
                evaluations: get_u64(obj, "evaluations")?,
                cache_hits: get_u64(obj, "cache_hits")?,
            }),
            other => Err(err(format!("unknown event tag {other:?}"))),
        }
    }

    /// Replays a JSONL stream leniently: well-formed lines parse into
    /// events, blank lines are ignored, and corrupt lines — e.g. a
    /// trailing line a crash truncated mid-write — are skipped and
    /// counted instead of aborting the replay.
    ///
    /// Use this to analyze logs that may have survived a crash;
    /// [`from_json`](RunEvent::from_json) remains the strict per-line
    /// parser.
    pub fn parse_jsonl_lossy(text: &str) -> LossyReplay {
        let mut events = Vec::new();
        let mut skipped = 0;
        let mut first_error = None;
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match RunEvent::from_json(line) {
                Ok(event) => events.push(event),
                Err(error) => {
                    skipped += 1;
                    if first_error.is_none() {
                        first_error = Some((index + 1, error));
                    }
                }
            }
        }
        LossyReplay {
            events,
            skipped,
            first_error,
        }
    }
}

/// Result of [`RunEvent::parse_jsonl_lossy`]: the events that parsed,
/// plus how many corrupt lines were skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyReplay {
    /// Events from well-formed lines, in stream order.
    pub events: Vec<RunEvent>,
    /// Non-blank lines that failed to parse and were skipped.
    pub skipped: usize,
    /// 1-based line number and error of the first skipped line, for
    /// diagnostics.
    pub first_error: Option<(usize, EventParseError)>,
}

// ---------------------------------------------------------------------
// Minimal JSON parser (only what the event schema needs)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, EventParseError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| err(format!("missing field {key:?}")))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, EventParseError> {
    match field(obj, key)? {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(err(format!("field {key:?} is not a non-negative integer"))),
    }
}

fn get_usize(obj: &[(String, Json)], key: &str) -> Result<usize, EventParseError> {
    Ok(get_u64(obj, key)? as usize)
}

fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, EventParseError> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(err(format!("field {key:?} is not a string"))),
    }
}

fn json_f64(value: &Json) -> Result<f64, EventParseError> {
    match value {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(err(format!("not a float: {other:?}"))),
        },
        _ => Err(err("expected a number")),
    }
}

fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, EventParseError> {
    json_f64(field(obj, key)?)
}

fn get_front(obj: &[(String, Json)]) -> Result<Vec<Vec<f64>>, EventParseError> {
    match field(obj, "front")? {
        Json::Arr(points) => points
            .iter()
            .map(|p| match p {
                Json::Arr(coords) => coords.iter().map(json_f64).collect(),
                _ => Err(err("front point is not an array")),
            })
            .collect(),
        _ => Err(err("field \"front\" is not an array")),
    }
}

/// Deepest nesting of arrays and objects the parser follows. An event
/// line needs three (the object, its front, a point); the bound keeps a
/// corrupt line from recursing through the whole stack.
const MAX_DEPTH: usize = 16;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

fn parse_json(text: &str) -> Result<Json, EventParseError> {
    let mut cur = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = cur.value()?;
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(err("trailing characters after JSON value"));
    }
    Ok(value)
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), EventParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, EventParseError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(err(format!("unexpected character at byte {}", self.pos))),
        }
    }

    fn object(&mut self) -> Result<Json, EventParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(err(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, EventParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(err(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, EventParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        _ => return Err(err("unsupported escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
                None => return Err(err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, EventParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| err(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: RunEvent) {
        let line = event.to_json();
        let parsed = RunEvent::from_json(&line).expect("round trip should parse");
        assert_eq!(parsed, event, "line was: {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(RunEvent::GenerationEnd {
            generation: 7,
            phase: 1,
            temperature: f64::INFINITY,
            promoted: 0,
            feasible: 31,
            population: 40,
            evaluations: 320,
            front: vec![vec![0.25, -1.5e-3], vec![4.0, 0.0]],
        });
        round_trip(RunEvent::PhaseTransition {
            generation: 12,
            phase_index: 2,
            partitions: 8,
            span: 30,
        });
        round_trip(RunEvent::PartitionFeasible {
            generation: 3,
            partition: 5,
        });
        round_trip(RunEvent::Promotion {
            generation: 20,
            promoted: 4,
            candidates: 11,
        });
        round_trip(RunEvent::EvaluationFault {
            generation: 2,
            kind: FaultKind::Panic,
            failures: 3,
            resolution: FaultResolution::Recovered,
        });
        round_trip(RunEvent::EvaluationFault {
            generation: 2,
            kind: FaultKind::NonFinite,
            failures: 4,
            resolution: FaultResolution::Quarantined,
        });
        round_trip(RunEvent::CheckpointWritten { generation: 15 });
        round_trip(RunEvent::StageTiming {
            generation: 9,
            stages: engine::StageNanos {
                variation: 1_200,
                evaluation: 880_000,
                ranking: 43_000,
                promotion: 0,
                selection: 9_001,
            },
            candidates: 40,
            evaluations: 37,
            cache_hits: 3,
        });
    }

    #[test]
    fn v1_lines_still_parse() {
        // A line written by the schema-1 codec (before `stage_timing`
        // existed) must keep parsing under the v2 parser.
        let line = "{\"v\":1,\"event\":\"promotion\",\"generation\":20,\
                    \"promoted\":4,\"candidates\":11}";
        assert_eq!(
            RunEvent::from_json(line).unwrap(),
            RunEvent::Promotion {
                generation: 20,
                promoted: 4,
                candidates: 11,
            }
        );
        let line = "{\"v\":1,\"event\":\"generation_end\",\"generation\":7,\"phase\":1,\
                    \"temperature\":\"inf\",\"promoted\":0,\"feasible\":3,\"population\":8,\
                    \"evaluations\":64,\"front\":[[1.0,2.0]]}";
        assert!(RunEvent::from_json(line).is_ok());
        // Versions beyond the current schema (and zero) are rejected.
        assert!(
            RunEvent::from_json("{\"v\":0,\"event\":\"checkpoint_written\",\"generation\":0}")
                .is_err()
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1,
            std::f64::consts::PI,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -0.0,
            1e300,
        ] {
            round_trip(RunEvent::GenerationEnd {
                generation: 1,
                phase: 2,
                temperature: v,
                promoted: 0,
                feasible: 1,
                population: 1,
                evaluations: 1,
                front: vec![vec![v]],
            });
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RunEvent::from_json("").is_err());
        assert!(RunEvent::from_json("{}").is_err());
        assert!(RunEvent::from_json("[1,2,3]").is_err());
        assert!(RunEvent::from_json("{\"v\":1,\"event\":\"nope\",\"generation\":0}").is_err());
        assert!(
            RunEvent::from_json("{\"v\":9,\"event\":\"checkpoint_written\",\"generation\":0}")
                .is_err()
        );
        assert!(RunEvent::from_json("{\"v\":1,\"event\":\"promotion\",\"generation\":0}").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            assert!(RunEvent::from_json(&open.repeat(100_000)).is_err());
        }
        let front = format!("{}1.0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let line =
            format!("{{\"v\":2,\"event\":\"checkpoint_written\",\"generation\":0,\"x\":{front}}}");
        let error = RunEvent::from_json(&line).unwrap_err();
        assert!(error.to_string().contains("nesting deeper than"), "{error}");
    }
}
