//! Host-speed calibration.
//!
//! On a shared host the same work can take up to 45% longer from one
//! minute to the next, for reasons outside this program. A fixed kernel
//! of arithmetic, memory traffic and allocation — code of this benchmark,
//! not of the repository, so no change under test can speed it up — is
//! timed around every measured operation, and times are scaled by
//! `REFERENCE_PASS_MS / measured pass time`: they read as if the host ran
//! at the speed it had when `REFERENCE_PASS_MS` was recorded. A second
//! kernel, of JSON text, does the same for the service's set-ups.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::json::Json;

/// The typical time of one pass on the 2-core host the committed
/// baseline was measured on.
pub const REFERENCE_PASS_MS: f64 = 1.1;

/// Words in the large table: 1 MiB, beyond the private L1 and most of
/// L2, so its random accesses feel contention for the shared cache. It
/// stays allocated, a constant part of the process's peak memory.
const LARGE_WORDS: usize = 1 << 17;

thread_local! {
    static LARGE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![0; LARGE_WORDS]);
}

/// One pass of the kernel, in ms: floating-point work on a cache-resident
/// table, random accesses to a table too large for the private caches,
/// and small heap allocations — the three kinds of work the workloads
/// mix.
pub fn pass_ms() -> f64 {
    LARGE.with(|large| {
        let mut large = large.borrow_mut();
        let start = Instant::now();
        let mut small = [0u64; 4096];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0.0f64;
        for _ in 0..30_000 {
            x = xorshift(x);
            let slot = (x % 4096) as usize;
            small[slot] = small[slot].wrapping_add(x);
            let v = (x >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
            acc += v.ln() * v.sqrt() + (acc * 1e-9).exp();
        }
        for _ in 0..30_000 {
            x = xorshift(x);
            let slot = (x % LARGE_WORDS as u64) as usize;
            large[slot] = large[slot].wrapping_add(x);
        }
        let mut kept: Vec<Vec<f64>> = Vec::with_capacity(64);
        for i in 0..6_000u64 {
            x = xorshift(x);
            let v = vec![acc; 8 + (x % 56) as usize];
            if kept.len() == 64 {
                kept.swap_remove((x % 64) as usize);
            }
            kept.push(v);
            acc += kept[(i % kept.len() as u64) as usize][0] * 1e-12;
        }
        black_box((small, acc, kept));
        start.elapsed().as_secs_f64() * 1e3
    })
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Mean pass time over passes run for at least `budget`, in ms.
pub fn pass_time(budget: Duration) -> f64 {
    let start = Instant::now();
    let mut total = 0.0;
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < budget {
        total += pass_ms();
        passes += 1;
    }
    total / f64::from(passes)
}

/// The factor that scales a time measured between two calibrations
/// (pass times in ms) to the reference speed.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_PASS_MS / (before_ms + after_ms)
}

/// The typical time of one text pass on the host `REFERENCE_PASS_MS`
/// was recorded on.
pub const REFERENCE_TEXT_PASS_MS: f64 = 1.0;

/// JSON lines shaped like the generation-end events a job store keeps:
/// fixed text, built once.
fn event_lines() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x = xorshift(x);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..160)
            .map(|g| {
                let front: Vec<String> = (0..4)
                    .map(|_| format!("[{:?},{:?}]", next(), 10.0 * next()))
                    .collect();
                format!(
                    "{{\"event\":\"generation_end\",\"generation\":{g},\"phase\":2,\
                     \"temperature\":{:?},\"front\":[{}],\"feasible\":16,\
                     \"evaluations\":{}}}\n",
                    next(),
                    front.join(","),
                    16 * g
                )
            })
            .collect()
    })
}

/// One pass of the text kernel, in ms: every line of [`event_lines`]
/// parsed with the benchmark's own JSON parser and written back.
///
/// Opening a server over its job store is mostly this kind of work —
/// parsing and re-encoding the stored event history — and on the shared
/// host it slows down by up to twice as much as [`pass_ms`] does, while
/// this pass follows it within a few percent. The service's set-ups are
/// scaled by it.
pub fn text_pass_ms() -> f64 {
    let text = event_lines();
    let start = Instant::now();
    let parsed: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("the event lines are valid JSON"))
        .collect();
    let written: String = parsed.iter().map(Json::to_string).collect();
    black_box((parsed, written));
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured between two text passes (in
/// ms) to the reference speed.
pub fn text_factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_TEXT_PASS_MS / (before_ms + after_ms)
}

/// How far from an operation a pass may lie and still count as sampled
/// "around" it.
const NEARBY: Duration = Duration::from_secs(1);

/// The factor for an operation that ran from `from` to `to`, from the
/// passes (time taken, ms) sampled within `NEARBY` of it, or from all of
/// them when fewer than three are that close.
pub fn local_factor(passes: &[(Instant, f64)], from: Instant, to: Instant) -> f64 {
    let near: Vec<f64> = passes
        .iter()
        .filter(|(t, _)| *t + NEARBY >= from && *t <= to + NEARBY)
        .map(|&(_, ms)| ms)
        .collect();
    let chosen = if near.len() >= 3 {
        near
    } else {
        passes.iter().map(|&(_, ms)| ms).collect()
    };
    REFERENCE_PASS_MS / crate::stats::median(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_pass_parses_every_event_line() {
        assert_eq!(event_lines().lines().count(), 160);
        for line in event_lines().lines() {
            let event = Json::parse(line).expect("valid JSON");
            assert_eq!(event.str_field("event"), Ok("generation_end"));
        }
        assert!(text_pass_ms() > 0.0);
    }
}
