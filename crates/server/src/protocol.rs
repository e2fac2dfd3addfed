//! The line-oriented text protocol spoken over TCP.
//!
//! Requests are single lines of at most [`MAX_REQUEST_LINE`] bytes, on
//! at most [`MAX_CONNECTIONS`] connections at once; responses are
//! `ok ...` or `err <message>` lines, with multi-line forms (`list`,
//! `stream`, `metrics`, `debug`) terminated by an `end` line. Each reply,
//! and each streamed `event` line, leaves in one write with its newline:
//! a newline written on its own waits, under Nagle's algorithm, for the
//! client's delayed ACK (~40 ms) whenever requests on one connection
//! follow each other closely.
//!
//! ```text
//! ping                      -> ok pong
//! submit job v1 name=...    -> ok <16-hex job id>
//! status <id>               -> ok id=... name=... status=... health=...
//!                              generations=... candidates=...
//!                              evaluations=... cache_hits=...
//!                              screened=... [error=...]
//! health <id>               -> ok <healthy|stalled|faulty|done|failed>
//! list                      -> ok <count>
//!                              job <id> <name> <status> <health>   (xN)
//!                              end
//! stream <id>               -> ok streaming
//!                              event <RunEvent JSONL>              (xN)
//!                              end <final status>
//! cancel <id>               -> ok cancelled
//! metrics                   -> ok metrics
//!                              <Prometheus text exposition>     (xN)
//!                              end
//! metrics json              -> ok <canonical JSON snapshot>
//! debug <id>                -> ok recorded=<n> dropped=<n> hub_dropped=<n>
//!                              stage <name> <total nanos>       (x5)
//!                              event <RunEvent JSONL>           (xN)
//!                              end
//! shutdown                  -> ok shutting-down
//! ```
//!
//! `stream` serves a job that can still run from its in-memory hub and
//! follows it live; once the job has finished, `stream` and `debug`
//! read its `events.jsonl` (`stream` from where it got to, `debug` for
//! its newest [`FLIGHT_CAPACITY`] lines), each in one pass that holds
//! one line, or `debug`'s tail, at a time.
//!
//! A `submit` whose spec [`JobSpec::parse`] refuses — an unknown or
//! repeated key, or a size past [`MAX_ZDT_DIMENSION`],
//! [`MAX_POPULATION`] or [`MAX_GENERATIONS`] — gets one `err` line and
//! creates no job.
//!
//! [`MAX_ZDT_DIMENSION`]: crate::spec::MAX_ZDT_DIMENSION
//! [`MAX_POPULATION`]: crate::spec::MAX_POPULATION
//! [`MAX_GENERATIONS`]: crate::spec::MAX_GENERATIONS
//! [`FLIGHT_CAPACITY`]: crate::server::FLIGHT_CAPACITY

use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::time::Duration;

use crate::server::Server;
use crate::spec::{JobId, JobSpec};

/// How long a stream poll blocks before re-checking for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest request line a connection may buffer, far above any valid
/// request (a `submit` line is a few hundred bytes). A client that sends
/// more without a newline gets one `err` line and is disconnected, so it
/// cannot grow server memory without bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most client connections served at once, each on its own thread. The
/// accept loop answers one more with a single `err` line and closes it,
/// so a flood of idle connections cannot make the server spawn threads
/// without bound.
pub const MAX_CONNECTIONS: usize = 64;

fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// Writes `reply` and its newline in one write (see module docs);
/// returns whether the write succeeded.
fn send(out: &mut dyn Write, mut reply: String) -> bool {
    reply.push('\n');
    out.write_all(reply.as_bytes()).is_ok()
}

/// Answers a connection over [`MAX_CONNECTIONS`] with one `err` line;
/// dropping the stream then closes it.
pub(crate) fn refuse_busy(mut stream: TcpStream) {
    send(
        &mut stream,
        format!("err server busy: {MAX_CONNECTIONS} connections open, retry later"),
    );
}

/// Serves one client connection until it closes, errors, or the server
/// shuts down. Intended to run on its own thread.
pub fn handle_connection(server: &Server, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut out = match stream.try_clone() {
        Ok(out) => out,
        Err(_) => return,
    };
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    // Prefix of `buf` already searched for a newline.
    let mut scanned = 0usize;
    let mut chunk = [0u8; 4096];
    loop {
        // Extract complete lines before reading more, so a timeout can
        // never drop partially-received bytes.
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=scanned + pos).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !handle_line(server, line, &mut out) {
                return;
            }
        }
        scanned = buf.len();
        if buf.len() > MAX_REQUEST_LINE {
            send(
                &mut out,
                format!("err request line longer than {MAX_REQUEST_LINE} bytes"),
            );
            return;
        }
        if server.is_shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Dispatches one request line; returns `false` when the connection
/// should close.
fn handle_line(server: &Server, line: &str, out: &mut dyn Write) -> bool {
    let (cmd, rest) = match line.split_once(' ') {
        Some((cmd, rest)) => (cmd, rest.trim()),
        None => (line, ""),
    };
    let reply = match cmd {
        "ping" => Ok("ok pong".to_string()),
        "submit" => JobSpec::parse(rest)
            .and_then(|spec| server.submit(spec))
            .map(|id| format!("ok {id}")),
        "status" => JobId::parse(rest)
            .and_then(|id| server.status(id))
            .map(|v| {
                let mut line = format!(
                    "ok id={} name={} status={} health={} generations={} candidates={} evaluations={} cache_hits={} screened={}",
                    v.id,
                    v.name,
                    v.status.token(),
                    v.health.token(),
                    v.generations,
                    v.candidates,
                    v.evaluations,
                    v.cache_hits,
                    v.screened,
                );
                if let Some(err) = &v.error {
                    line.push_str(&format!(" error={}", one_line(err)));
                }
                line
            }),
        "health" => JobId::parse(rest)
            .and_then(|id| server.health(id))
            .map(|h| format!("ok {}", h.token())),
        "cancel" => JobId::parse(rest)
            .and_then(|id| server.cancel(id))
            .map(|()| "ok cancelled".to_string()),
        "list" => {
            let views = server.list();
            let mut body = format!("ok {}\n", views.len());
            for v in views {
                body.push_str(&format!(
                    "job {} {} {} {}\n",
                    v.id,
                    v.name,
                    v.status.token(),
                    v.health.token()
                ));
            }
            body.push_str("end");
            Ok(body)
        }
        "stream" => return stream_job(server, rest, out),
        "metrics" => match rest {
            "" => {
                let mut body = String::from("ok metrics\n");
                body.push_str(&server.metrics_text());
                body.push_str("end");
                Ok(body)
            }
            "json" => Ok(format!("ok {}", server.metrics_json())),
            other => Err(crate::error::ServerError::InvalidSpec(format!(
                "metrics takes no argument or 'json', got {other:?}"
            ))),
        },
        "debug" => JobId::parse(rest)
            .and_then(|id| server.debug_report(id))
            .map(|r| {
                let mut body = format!(
                    "ok recorded={} dropped={} hub_dropped={}\n",
                    r.lines.len(),
                    r.dropped,
                    r.hub_dropped
                );
                for stage in engine::Stage::ALL {
                    body.push_str(&format!("stage {} {}\n", stage.name(), r.stages.get(stage)));
                }
                for line in &r.lines {
                    body.push_str(&format!("event {line}\n"));
                }
                body.push_str("end");
                body
            }),
        "shutdown" => {
            send(out, "ok shutting-down".to_string());
            server.request_shutdown();
            return false;
        }
        other => Err(crate::error::ServerError::InvalidSpec(format!(
            "unknown command {other:?}"
        ))),
    };
    send(
        out,
        match reply {
            Ok(ok) => ok,
            Err(e) => format!("err {}", one_line(&e.to_string())),
        },
    )
}

/// Streams a job's progress from its start: what the job's hub holds,
/// then live lines until the job terminates or the server shuts down;
/// once the job has finished, the rest of its `events.jsonl` in one
/// pass.
fn stream_job(server: &Server, rest: &str, out: &mut dyn Write) -> bool {
    let id = match JobId::parse(rest).and_then(|id| server.status(id).map(|_| id)) {
        Ok(id) => id,
        Err(e) => return send(out, format!("err {}", one_line(&e.to_string()))),
    };
    if !send(out, "ok streaming".to_string()) {
        return false;
    }
    let mut cursor = 0u64;
    let mut frame = Vec::new();
    let mut sent = true;
    loop {
        let read = server.read_stream(id, cursor, POLL_INTERVAL, |line| {
            frame.clear();
            frame.extend_from_slice(b"event ");
            frame.extend_from_slice(line.as_bytes());
            frame.push(b'\n');
            sent = out.write_all(&frame).is_ok();
            if sent {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        let (next, _skipped, done) = match read {
            Ok(read) => read,
            Err(e) => return send(out, format!("err {}", one_line(&e.to_string()))),
        };
        if !sent {
            return false;
        }
        cursor = next;
        if done {
            let status = server
                .status(id)
                .map(|v| v.status.token())
                .unwrap_or("unknown");
            return send(out, format!("end {status}"));
        }
        if server.is_shutting_down() {
            return send(out, "end shutdown".to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::spec::{AlgoSpec, ProblemSpec};

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dse-server-proto-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reply(server: &Server, line: &str) -> String {
        let mut out = Vec::new();
        handle_line(server, line, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn submit_status_health_list_round_trip() {
        let root = tmp_root("roundtrip");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        assert_eq!(reply(&server, "ping"), "ok pong\n");
        let spec = JobSpec::new(
            "proto",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 { pop: 12, gens: 3 },
            7,
        );
        let resp = reply(&server, &format!("submit {}", spec.canonical()));
        let id = resp.trim().strip_prefix("ok ").unwrap().to_string();
        assert_eq!(id, spec.id().to_string());
        server.run_until_idle().unwrap();
        let status = reply(&server, &format!("status {id}"));
        assert!(status.contains("status=done"), "{status}");
        assert!(status.contains("health=done"), "{status}");
        assert_eq!(reply(&server, &format!("health {id}")), "ok done\n");
        let list = reply(&server, "list");
        assert!(list.starts_with("ok 1\n"), "{list}");
        assert!(
            list.contains(&format!("job {id} proto done done")),
            "{list}"
        );
        assert!(list.trim_end().ends_with("end"), "{list}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn errors_are_single_err_lines() {
        let root = tmp_root("errors");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        assert!(reply(&server, "status zzz").starts_with("err "));
        assert!(reply(&server, "bogus").starts_with("err "));
        assert!(reply(&server, "submit job v1 name=x").starts_with("err "));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_and_debug_commands_round_trip() {
        let root = tmp_root("metrics");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = JobSpec::new(
            "m",
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 4,
                parts: 4,
            },
            7,
        );
        let id = server.submit(spec).unwrap();
        server.run_until_idle().unwrap();
        let scrape = reply(&server, "metrics");
        assert!(scrape.starts_with("ok metrics\n"), "{scrape}");
        assert!(scrape.contains("# TYPE dse_engine_candidates_total counter"));
        assert!(scrape.trim_end().ends_with("end"), "{scrape}");
        let json = reply(&server, "metrics json");
        assert!(json.starts_with("ok {\"metrics\":["), "{json}");
        assert_eq!(json.lines().count(), 1);
        assert!(reply(&server, "metrics bogus").starts_with("err "));
        let debug = reply(&server, &format!("debug {id}"));
        assert!(debug.starts_with("ok recorded="), "{debug}");
        assert!(debug.contains("stage evaluation "), "{debug}");
        assert!(debug.contains("event {"), "{debug}");
        assert!(debug.trim_end().ends_with("end"), "{debug}");
        assert!(reply(&server, "debug zzz").starts_with("err "));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stream_of_finished_job_replays_and_ends() {
        let root = tmp_root("stream");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = JobSpec::new(
            "s",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 { pop: 12, gens: 3 },
            7,
        );
        let id = server.submit(spec).unwrap();
        server.run_until_idle().unwrap();
        let resp = reply(&server, &format!("stream {id}"));
        assert!(resp.starts_with("ok streaming\n"), "{resp}");
        assert!(resp.contains("event {"), "{resp}");
        assert!(resp.trim_end().ends_with("end done"), "{resp}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
