//! Per-job progress fan-out while a job can still run: a bounded
//! in-memory ring of serialized [`RunEvent`](sacga::RunEvent) JSONL
//! lines that subscribers replay from the start and follow with blocking
//! polls.
//!
//! The ring holds at most [`HUB_CAPACITY`] lines and [`HUB_BYTES`] bytes
//! of them, but always the newest line; a subscriber that falls further
//! behind observes a `skipped` count instead of the dropped lines. When
//! the job ends, [`ProgressHub::finish`] releases every line: the job's
//! `events.jsonl` holds the whole stream, and the server serves a
//! finished job's history from there.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Maximum lines retained per job before the ring drops its oldest.
pub const HUB_CAPACITY: usize = 65_536;

/// Maximum bytes of lines retained per job before the ring drops its
/// oldest; a single newer line larger than this is still kept. A
/// `GenerationEnd` line carries the whole front, so the line cap alone
/// would let one large-population job hold gigabytes.
pub const HUB_BYTES: usize = 16 << 20;

#[derive(Debug)]
struct Inner {
    /// Stream offset of `lines[0]`.
    base: u64,
    lines: VecDeque<Arc<str>>,
    /// Sum of the retained lines' lengths.
    bytes: usize,
    /// Lines the ring dropped to stay within its bounds since the hub
    /// was created (lines released by [`ProgressHub::finish`] are not
    /// counted), so observability surfaces (`debug`'s `hub_dropped=` and
    /// the server-wide `dse_hub_dropped_lines` sum) read one field.
    dropped: u64,
    done: bool,
}

impl Inner {
    fn end(&self) -> u64 {
        self.base + self.lines.len() as u64
    }
}

/// One job's progress stream (see module docs).
#[derive(Debug)]
pub struct ProgressHub {
    inner: Mutex<Inner>,
    grew: Condvar,
}

/// One poll's worth of progress lines.
#[derive(Debug, PartialEq, Eq)]
pub struct HubPoll {
    /// Lines since the polled cursor, oldest first.
    pub lines: Vec<Arc<str>>,
    /// Cursor to pass to the next poll.
    pub next: u64,
    /// Lines the subscriber missed because the ring dropped them.
    pub skipped: u64,
    /// Whether the stream has ended at `next`: the job is terminal and no
    /// lines follow the ones returned here. A finished hub holds no
    /// lines, so a poll of one returns none and reports `done`.
    pub done: bool,
}

impl ProgressHub {
    /// An empty stream.
    pub fn new() -> Self {
        ProgressHub {
            inner: Mutex::new(Inner {
                base: 0,
                lines: VecDeque::new(),
                bytes: 0,
                dropped: 0,
                done: false,
            }),
            grew: Condvar::new(),
        }
    }

    /// Every update leaves the ring valid at each step, so a thread that
    /// panicked while holding the lock left nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one line, dropping the oldest ones past the ring's bounds,
    /// and wakes blocked subscribers. A finished stream takes no lines.
    pub fn publish(&self, line: Arc<str>) {
        let mut inner = self.lock();
        if inner.done {
            return;
        }
        inner.bytes += line.len();
        inner.lines.push_back(line);
        while inner.lines.len() > HUB_CAPACITY || (inner.bytes > HUB_BYTES && inner.lines.len() > 1)
        {
            let Some(oldest) = inner.lines.pop_front() else {
                break;
            };
            inner.bytes -= oldest.len();
            inner.base += 1;
            inner.dropped += 1;
        }
        drop(inner);
        self.grew.notify_all();
    }

    /// Lifetime count of lines the ring dropped to stay within its
    /// bounds; any subscriber that started from cursor 0 while the job
    /// ran has missed at least these.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Bytes of lines the ring holds now (0 once finished).
    pub(crate) fn retained_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Marks the stream terminal, releases every line, and wakes blocked
    /// subscribers. Call it only once the stream's lasting copy (the
    /// job's `events.jsonl`) is complete.
    pub fn finish(&self) {
        let mut inner = self.lock();
        inner.base = inner.end();
        inner.lines = VecDeque::new();
        inner.bytes = 0;
        inner.done = true;
        drop(inner);
        self.grew.notify_all();
    }

    /// Returns all retained lines at offsets `>= cursor`, blocking up to
    /// `timeout` when none are available yet and the stream is not
    /// terminal. A `cursor` of 0 replays the retained history. Once the
    /// stream is finished the poll returns no lines and reports `done`.
    pub fn poll(&self, cursor: u64, timeout: Duration) -> HubPoll {
        let mut inner = self.lock();
        if cursor >= inner.end() && !inner.done {
            inner = self
                .grew
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        if inner.done {
            return HubPoll {
                lines: Vec::new(),
                next: cursor,
                skipped: 0,
                done: true,
            };
        }
        let start = cursor.max(inner.base);
        let lines: Vec<Arc<str>> = inner
            .lines
            .iter()
            .skip((start - inner.base) as usize)
            .cloned()
            .collect();
        HubPoll {
            next: start + lines.len() as u64,
            lines,
            skipped: start - cursor,
            done: false,
        }
    }

    /// The newest `n` retained lines and the stream's length so far, or
    /// `None` once the stream is finished.
    pub(crate) fn tail(&self, n: usize) -> Option<(Vec<Arc<str>>, u64)> {
        let inner = self.lock();
        if inner.done {
            return None;
        }
        let skip = inner.lines.len().saturating_sub(n);
        Some((
            inner.lines.iter().skip(skip).cloned().collect(),
            inner.end(),
        ))
    }
}

impl Default for ProgressHub {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(lines: &[Arc<str>]) -> Vec<&str> {
        lines.iter().map(|l| &**l).collect()
    }

    #[test]
    fn replays_history_then_follows() {
        let hub = ProgressHub::new();
        hub.publish("a".into());
        hub.publish("b".into());
        let p = hub.poll(0, Duration::ZERO);
        assert_eq!(texts(&p.lines), ["a", "b"]);
        assert_eq!(p.next, 2);
        assert!(!p.done);
        hub.publish("c".into());
        let p = hub.poll(p.next, Duration::ZERO);
        assert_eq!(texts(&p.lines), ["c"]);
        assert!(!p.done);
        hub.finish();
        let p = hub.poll(p.next, Duration::ZERO);
        assert!(p.lines.is_empty());
        assert!(p.done);
    }

    #[test]
    fn poll_after_done_returns_immediately() {
        let hub = ProgressHub::new();
        hub.finish();
        let p = hub.poll(0, Duration::from_secs(5));
        assert!(p.lines.is_empty());
        assert!(p.done);
    }

    #[test]
    fn finish_releases_every_line() {
        let hub = ProgressHub::new();
        for i in 0..10 {
            hub.publish(format!("line {i}").into());
        }
        assert_eq!(hub.retained_bytes(), 60);
        hub.finish();
        assert_eq!(hub.retained_bytes(), 0);
        assert_eq!(hub.tail(4), None);
        let p = hub.poll(3, Duration::ZERO);
        assert_eq!((p.lines.len(), p.next, p.skipped, p.done), (0, 3, 0, true));
        // Releasing is not dropping, and a finished stream takes no lines.
        assert_eq!(hub.dropped(), 0);
        hub.publish("late".into());
        assert_eq!(hub.retained_bytes(), 0);
    }

    #[test]
    fn overflow_reports_skipped_lines() {
        let hub = ProgressHub::new();
        for i in 0..(HUB_CAPACITY + 10) {
            hub.publish(format!("{i}").into());
        }
        let p = hub.poll(0, Duration::ZERO);
        assert_eq!(p.skipped, 10);
        assert_eq!(p.lines.len(), HUB_CAPACITY);
        assert_eq!(&*p.lines[0], "10");
        assert_eq!(hub.dropped(), 10);
    }

    #[test]
    fn publishing_past_the_byte_budget_drops_the_oldest_lines() {
        let hub = ProgressHub::new();
        let quarter = HUB_BYTES / 4;
        for c in ["a", "b", "c", "d", "e", "f"] {
            hub.publish(c.repeat(quarter).into());
        }
        // Four quarters fill the budget exactly; each later line pushes
        // out the oldest.
        assert_eq!(hub.dropped(), 2);
        assert_eq!(hub.retained_bytes(), HUB_BYTES);
        let p = hub.poll(0, Duration::ZERO);
        assert_eq!(p.skipped, 2);
        assert_eq!(p.next, 6);
        let firsts: Vec<&str> = p.lines.iter().map(|l| &l[..1]).collect();
        assert_eq!(firsts, ["c", "d", "e", "f"]);
    }

    #[test]
    fn a_line_over_the_byte_budget_is_kept_alone() {
        let hub = ProgressHub::new();
        hub.publish("small".into());
        hub.publish("x".repeat(HUB_BYTES + 1).into());
        assert_eq!(hub.dropped(), 1);
        assert_eq!(hub.retained_bytes(), HUB_BYTES + 1);
        hub.publish("next".into());
        assert_eq!(hub.dropped(), 2);
        let (tail, end) = hub.tail(8).unwrap();
        assert_eq!((texts(&tail), end), (vec!["next"], 3));
    }

    #[test]
    fn tail_returns_the_newest_lines_and_the_stream_length() {
        let hub = ProgressHub::new();
        for i in 0..5 {
            hub.publish(format!("{i}").into());
        }
        let (tail, end) = hub.tail(2).unwrap();
        assert_eq!((texts(&tail), end), (vec!["3", "4"], 5));
        let (tail, _) = hub.tail(9).unwrap();
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn dropped_is_zero_until_overflow() {
        let hub = ProgressHub::new();
        hub.publish("a".into());
        assert_eq!(hub.dropped(), 0);
    }
}
