//! Composable consumers for the [`RunEvent`] stream.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use super::event::{EventKind, RunEvent};

/// A consumer of run events.
///
/// Run loops hand every emitted event to a single `&mut dyn Sink`;
/// composition (tee-ing into several sinks) happens on the sink side via
/// [`Tee`]. Implementations must never panic on malformed-looking data
/// and must not interact with the optimizer — sinks observe, they do
/// not steer.
pub trait Sink {
    /// Consumes one event.
    fn record(&mut self, event: &RunEvent);

    /// Whether this sink cares about events of `kind`. Run loops use
    /// this to skip *constructing* expensive events (a
    /// [`GenerationEnd`](RunEvent::GenerationEnd) carries the full
    /// per-generation front) when nobody listens; a `false` here means
    /// events of that kind may never reach [`record`](Sink::record).
    fn wants(&self, kind: EventKind) -> bool {
        let _ = kind;
        true
    }

    /// Flushes buffered output and surfaces any deferred I/O error.
    ///
    /// # Errors
    ///
    /// Implementations backed by I/O return the first write error
    /// encountered since the last flush.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Forwarding impl so `&mut S` can be passed where a sink is consumed
/// by value (e.g. both arms of a [`Tee`]).
impl<S: Sink + ?Sized> Sink for &mut S {
    fn record(&mut self, event: &RunEvent) {
        (**self).record(event);
    }

    fn wants(&self, kind: EventKind) -> bool {
        (**self).wants(kind)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

/// A sink that wants nothing and discards everything — the default for
/// un-instrumented runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &RunEvent) {}

    fn wants(&self, _kind: EventKind) -> bool {
        false
    }
}

/// Buffers every event in memory, in emission order. The workhorse for
/// tests and for bench binaries that replay the stream into tables.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<RunEvent>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[RunEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<RunEvent> {
        self.events
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &RunEvent) {
        self.events.push(event.clone());
    }
}

/// Writes one JSON object per event to an [`io::Write`] target —
/// line-oriented, so a stream can sit append-safe alongside checkpoint
/// files and be replayed with [`RunEvent::from_json`] per line.
///
/// `record` cannot return an error, so the first write failure is
/// stored and every later write is skipped; [`flush`](Sink::flush)
/// surfaces the stored error. Dropping the sink without flushing may
/// lose both buffered lines and the error.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
    lines: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and writes events to it, buffered.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }

    /// Opens `path` for appending (creating it if absent), so repeated
    /// bounded runs of one experiment can share a stream.
    ///
    /// If the existing file ends mid-line — a previous writer crashed
    /// between `write` and the trailing newline — a newline is appended
    /// first, terminating the truncated line so every event this sink
    /// writes starts on its own line. The truncated line itself is left
    /// in place for a lossy replay
    /// ([`RunEvent::parse_jsonl_lossy`](RunEvent::parse_jsonl_lossy))
    /// to skip and count.
    ///
    /// # Errors
    ///
    /// Propagates file-open, seek and repair-write errors.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        use std::io::{Read as _, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                file.write_all(b"\n")?;
            }
        }
        Ok(JsonlSink::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
            lines: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Writes one event line that is already encoded (as
    /// [`RunEvent::to_json`] returns it, without the newline), so a caller
    /// that also keeps the line elsewhere encodes each event once. Errors
    /// are deferred as in [`record`](Sink::record).
    pub fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let written = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"));
        match written {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces a deferred write error or the final flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        Sink::flush(&mut self)?;
        Ok(self.writer)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &RunEvent) {
        if self.error.is_none() {
            self.write_line(&event.to_json());
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// Fans each event out to two sinks; nest `Tee`s to compose more. An
/// event kind is constructed when *either* arm wants it, and `record`
/// re-checks each arm's `wants` so a sink never sees a kind it opted
/// out of.
#[derive(Debug, Default)]
pub struct Tee<A: Sink, B: Sink> {
    first: A,
    second: B,
}

impl<A: Sink, B: Sink> Tee<A, B> {
    /// Combines two sinks.
    pub fn new(first: A, second: B) -> Self {
        Tee { first, second }
    }

    /// Splits the tee back into its arms.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: Sink, B: Sink> Sink for Tee<A, B> {
    fn record(&mut self, event: &RunEvent) {
        let kind = event.kind();
        if self.first.wants(kind) {
            self.first.record(event);
        }
        if self.second.wants(kind) {
            self.second.record(event);
        }
    }

    fn wants(&self, kind: EventKind) -> bool {
        self.first.wants(kind) || self.second.wants(kind)
    }

    fn flush(&mut self) -> io::Result<()> {
        let first = self.first.flush();
        let second = self.second.flush();
        first.and(second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(generation: usize) -> RunEvent {
        RunEvent::CheckpointWritten { generation }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let mut sink = MemorySink::new();
        for g in 0..5 {
            sink.record(&sample(g));
        }
        let gens: Vec<usize> = sink.events().iter().map(|e| e.generation()).collect();
        assert_eq!(gens, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn null_sink_wants_nothing() {
        assert!(!NullSink.wants(EventKind::GenerationEnd));
        assert!(!NullSink.wants(EventKind::EvaluationFault));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&sample(1));
        sink.record(&RunEvent::Promotion {
            generation: 2,
            promoted: 1,
            candidates: 3,
        });
        assert_eq!(sink.lines_written(), 2);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<RunEvent> = text
            .lines()
            .map(|l| RunEvent::from_json(l).unwrap())
            .collect();
        assert_eq!(events[0], sample(1));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn write_line_writes_what_record_writes() {
        let mut recorded = JsonlSink::new(Vec::new());
        let mut written = JsonlSink::new(Vec::new());
        for g in 0..3 {
            recorded.record(&sample(g));
            written.write_line(&sample(g).to_json());
        }
        assert_eq!(written.lines_written(), 3);
        assert_eq!(
            written.into_inner().unwrap(),
            recorded.into_inner().unwrap()
        );
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_on_flush() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record(&sample(0));
        sink.record(&sample(1)); // silently skipped after the first error
        assert_eq!(sink.lines_written(), 0);
        assert!(Sink::flush(&mut sink).is_err());
        // The error is surfaced once, then the sink is clean again.
        assert!(Sink::flush(&mut sink).is_ok());
    }

    #[test]
    fn append_after_mid_line_truncation_recovers_cleanly() {
        let path = std::env::temp_dir().join(format!(
            "analog_dse_jsonl_recovery_{}.jsonl",
            std::process::id()
        ));
        // A writer records three events, then the process "crashes":
        // the file is cut mid-way through the last line.
        let mut sink = JsonlSink::create(&path).unwrap();
        for g in 0..3 {
            sink.record(&sample(g));
        }
        drop(sink.into_inner().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 7; // mid-way through the third line
        std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();

        // Reopening for append repairs the missing newline, so new
        // events land on their own lines.
        let mut sink = JsonlSink::append(&path).unwrap();
        sink.record(&sample(3));
        sink.record(&sample(4));
        drop(sink.into_inner().unwrap());

        // Lossy replay: the truncated line is skipped (and counted),
        // everything else round-trips.
        let text = std::fs::read_to_string(&path).unwrap();
        let replay = RunEvent::parse_jsonl_lossy(&text);
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.skipped, 1);
        assert_eq!(replay.first_error.as_ref().unwrap().0, 3);
        let gens: Vec<usize> = replay.events.iter().map(RunEvent::generation).collect();
        assert_eq!(gens, vec![0, 1, 3, 4]);
    }

    #[test]
    fn append_to_well_formed_log_adds_no_blank_line() {
        let path = std::env::temp_dir().join(format!(
            "analog_dse_jsonl_append_{}.jsonl",
            std::process::id()
        ));
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(&sample(0));
        drop(sink.into_inner().unwrap());
        let mut sink = JsonlSink::append(&path).unwrap();
        sink.record(&sample(1));
        drop(sink.into_inner().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 2);
        let replay = RunEvent::parse_jsonl_lossy(&text);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.events.len(), 2);
    }

    #[test]
    fn tee_respects_each_arms_wants() {
        struct OnlyCheckpoints(Vec<RunEvent>);
        impl Sink for OnlyCheckpoints {
            fn record(&mut self, event: &RunEvent) {
                self.0.push(event.clone());
            }
            fn wants(&self, kind: EventKind) -> bool {
                kind == EventKind::CheckpointWritten
            }
        }
        let mut tee = Tee::new(OnlyCheckpoints(Vec::new()), MemorySink::new());
        assert!(tee.wants(EventKind::CheckpointWritten));
        assert!(tee.wants(EventKind::Promotion));
        tee.record(&sample(1));
        tee.record(&RunEvent::Promotion {
            generation: 2,
            promoted: 0,
            candidates: 0,
        });
        let (filtered, all) = tee.into_inner();
        assert_eq!(filtered.0.len(), 1);
        assert_eq!(all.events().len(), 2);
    }
}
