//! `repro serve`: the correlation monitor as a long-running service.
//!
//! The service mounts a session API on the telemetry endpoint's
//! [`Routes`] seam, so one hand-rolled HTTP listener serves both the
//! scrape surface (`/metrics`, `/healthz`, `/snapshot`) and the
//! session lifecycle:
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `POST /sessions[?preset=NAME]` | submit a scenario (body = DSL text, or empty to run the preset) |
//! | `POST /sessions/pcap?preset=NAME` | submit a capture replay (body = pcap/pcapng bytes) |
//! | `GET /sessions` | list every session |
//! | `GET /sessions/N` | one session's detail |
//! | `GET /sessions/N/verdicts` | the canonical verdict text |
//! | `GET /thresholds` | the live threshold override |
//! | `POST /thresholds` | hot-reload it (`N`, `threshold = N`, or `default`) |
//! | `POST /snapshot/save` | force a state snapshot to disk |
//!
//! Three design rules keep the service boring to operate:
//!
//! * **Sessions are event-sourced by their specs.** The only state
//!   worth persisting is the [`session::SessionTable`]; anything
//!   mid-run re-runs deterministically after a restore (see
//!   [`crate::scenario_run`]'s determinism contract).
//! * **Snapshots are write-through.** The table is persisted (atomic
//!   temp-file + rename) at every submission, terminal transition and
//!   threshold reload — a `SIGKILL` at any instant loses no accepted
//!   session, only mid-run progress that recomputes.
//! * **Thresholds freeze at submission.** A hot-reload applies to
//!   *future* submissions; in-flight sessions keep the threshold they
//!   were accepted under, so a reload never drops or skews a session.
//!
//! One session failing — a bad corpus, a broken capture, a mid-stream
//! error — marks *that session* `failed` and the service keeps
//! serving; a replay's partial verdicts (if any) stay inspectable.

pub mod session;
pub mod snapshot;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use stepstone_ingest::ReplayClock;
use stepstone_scenario::{fnv1a, preset, ScenarioSpec};
use stepstone_telemetry::{Counter, Gauge, MetricsServer, Registry, Request, Response, Routes};

use crate::scenario_run::{self, RunOptions, RunReport};
use session::{Session, SessionStatus, SessionTable, StoredOutcome, MAX_SESSIONS};
use snapshot::SnapshotError;

/// Wake-up slots between the API and the runner. The channel carries
/// only nudges — the session table itself is the queue — so a full
/// channel is harmless: the runner drains the table until empty.
const QUEUE_CAP: usize = 64;

/// How often the idle runner re-checks the table and the stop flag.
const RUNNER_POLL: Duration = Duration::from_millis(100);

/// Why the service failed to start or persist.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or filesystem error.
    Io(std::io::Error),
    /// The configured snapshot file exists but does not decode. The
    /// operator pointed at state they expect to resume; starting empty
    /// instead would silently discard it, so this refuses to start.
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// How to run the service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Where to persist the session table; `None` serves in-memory
    /// only. An existing file here is restored at startup.
    pub snapshot: Option<PathBuf>,
}

/// State shared between the HTTP routes and the runner thread.
struct Inner {
    table: Mutex<SessionTable>,
    wake: SyncSender<()>,
    snapshot_path: Option<PathBuf>,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    active: Arc<Gauge>,
    snapshot_writes: Arc<Counter>,
    threshold_reloads: Arc<Counter>,
}

impl Inner {
    /// Locks the table. A poisoning panic on another thread already
    /// aborted that session's run; the table itself is always left
    /// structurally whole between mutations, so keep serving.
    fn lock(&self) -> MutexGuard<'_, SessionTable> {
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writes the table through to disk (atomic temp + rename).
    /// `Ok(false)` means no snapshot path is configured.
    fn persist(&self) -> std::io::Result<bool> {
        let Some(path) = &self.snapshot_path else {
            return Ok(false);
        };
        let bytes = snapshot::encode(&self.lock());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.snapshot_writes.inc();
        Ok(true)
    }

    /// Persists and logs; routes and the runner never die on a full
    /// disk, they keep serving the in-memory truth.
    fn persist_logged(&self) {
        if let Err(e) = self.persist() {
            eprintln!("serve: snapshot write failed: {e}");
        }
    }
}

/// A running service. Dropping the handle signals both threads to
/// stop; [`shutdown`](ServeHandle::shutdown) additionally joins the
/// runner.
pub struct ServeHandle {
    addr: std::net::SocketAddr,
    server: Option<MetricsServer>,
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    runner: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the listener and the runner and waits for both. A session
    /// mid-run finishes its current scenario first (runs are seconds,
    /// not minutes); anything still queued re-runs after a restore.
    pub fn shutdown(mut self) {
        // ordering: shutdown flag; the runner only polls it.
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.inner.wake.try_send(());
        if let Some(runner) = self.runner.take() {
            drop(runner.join());
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // ordering: shutdown flag; see shutdown().
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.inner.wake.try_send(());
    }
}

/// Starts the service: restores the snapshot (if configured and
/// present), spawns the runner, binds the listener.
///
/// # Errors
///
/// [`ServeError::Io`] for socket/filesystem failures;
/// [`ServeError::Snapshot`] when an existing snapshot file does not
/// decode (map it to the CLI's bad-snapshot exit code).
pub fn start(config: &ServeConfig, registry: &Arc<Registry>) -> Result<ServeHandle, ServeError> {
    let table = match &config.snapshot {
        Some(path) if path.exists() => snapshot::decode(&std::fs::read(path)?)?,
        _ => SessionTable::default(),
    };
    let unfinished = table.unfinished().len();

    let (wake, rx) = std::sync::mpsc::sync_channel::<()>(QUEUE_CAP);
    let inner = Arc::new(Inner {
        table: Mutex::new(table),
        wake,
        snapshot_path: config.snapshot.clone(),
        submitted: registry.counter("serve_sessions_submitted_total", "sessions accepted"),
        completed: registry.counter("serve_sessions_completed_total", "sessions run to the end"),
        failed: registry.counter("serve_sessions_failed_total", "sessions that failed"),
        active: registry.gauge("serve_sessions_active", "sessions queued or running"),
        snapshot_writes: registry.counter("serve_snapshot_writes_total", "state snapshots written"),
        threshold_reloads: registry.counter(
            "serve_threshold_reloads_total",
            "threshold hot-reloads this process",
        ),
    });
    inner.active.set(unfinished as i64);

    let stop = Arc::new(AtomicBool::new(false));
    let runner_inner = Arc::clone(&inner);
    let runner_stop = Arc::clone(&stop);
    let runner = std::thread::Builder::new()
        .name("serve-runner".to_string())
        .spawn(move || runner_loop(&runner_inner, &rx, &runner_stop))?;

    let server = MetricsServer::bind_with_routes(
        config.addr.as_str(),
        Arc::clone(registry),
        Arc::new(Api(Arc::clone(&inner))),
    )?;
    Ok(ServeHandle {
        addr: server.local_addr(),
        server: Some(server),
        inner,
        stop,
        runner: Some(runner),
    })
}

/// The runner: drains `Queued` sessions from the table in id order,
/// one at a time, sleeping on the wake channel when the table is dry.
fn runner_loop(inner: &Arc<Inner>, rx: &Receiver<()>, stop: &Arc<AtomicBool>) {
    // ordering: shutdown flag poll; no memory is transferred.
    while !stop.load(Ordering::Relaxed) {
        let Some((id, spec, threshold, pcap)) = claim_next(inner) else {
            match rx.recv_timeout(RUNNER_POLL) {
                Ok(()) | Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        let opts = RunOptions {
            threshold,
            capture: pcap.as_deref().map(|bytes| (bytes, ReplayClock::Fast)),
            ..RunOptions::default()
        };
        let result = scenario_run::run(&spec, &opts);
        finish(inner, id, result.map_err(|e| e.to_string()));
        inner.persist_logged();
    }
}

/// Everything the runner needs to execute one claimed session:
/// (id, spec, frozen threshold, optional capture bytes).
type ClaimedWork = (u64, ScenarioSpec, Option<u32>, Option<Vec<u8>>);

/// Claims the lowest-id `Queued` session, marking it `Running`.
fn claim_next(inner: &Inner) -> Option<ClaimedWork> {
    let mut table = inner.lock();
    let session = table
        .sessions
        .iter_mut()
        .find(|s| s.status == SessionStatus::Queued)?;
    session.status = SessionStatus::Running;
    Some((
        session.id,
        session.spec.clone(),
        session.threshold,
        session.pcap.clone(),
    ))
}

/// Records a finished run. A replay that ended on a stream error is a
/// *failed session* — its partial verdicts are kept, the error is the
/// status — exactly matching one-shot `repro monitor` semantics, where
/// the same condition exits non-zero after printing partial results.
fn finish(inner: &Inner, id: u64, result: Result<RunReport, String>) {
    let mut table = inner.lock();
    let Some(session) = table.get_mut(id) else {
        return;
    };
    match result {
        Ok(report) => {
            let stored = StoredOutcome {
                events: report.events,
                true_positives: report.detection.true_positives,
                false_positives: report.detection.false_positives,
                missed: report.detection.missed,
                degraded: report.detection.degraded,
                erasures: report.erasures,
                verdicts: report.verdict_lines(),
            };
            if let Some(err) = report.stream_error {
                session.status = SessionStatus::Failed;
                session.error = Some(err.to_string());
                session.outcome = Some(stored);
                inner.failed.inc();
            } else {
                session.status = SessionStatus::Completed;
                session.outcome = Some(stored);
                inner.completed.inc();
            }
        }
        Err(err) => {
            session.status = SessionStatus::Failed;
            session.error = Some(err);
            inner.failed.inc();
        }
    }
    inner.active.dec();
}

/// The session API mounted over the metrics endpoint.
struct Api(Arc<Inner>);

impl Routes for Api {
    fn handle(&self, request: &Request) -> Option<Response> {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/sessions") => Some(self.submit(request, false)),
            ("POST", "/sessions/pcap") => Some(self.submit(request, true)),
            ("GET", "/sessions") => Some(self.list()),
            ("GET", "/thresholds") => Some(self.threshold_get()),
            ("POST", "/thresholds") => Some(self.threshold_set(request)),
            ("POST", "/snapshot/save") => Some(self.snapshot_save()),
            ("GET", path) => self.session_get(path),
            _ => None,
        }
    }
}

impl Api {
    /// Accepts one session. The scenario comes from the body (DSL
    /// text) or, when the body is empty, from `?preset=NAME`; capture
    /// sessions always name a preset and carry the capture as body.
    fn submit(&self, request: &Request, capture: bool) -> Response {
        let preset_name = query_param(request.query.as_deref(), "preset");
        let spec = if capture || request.body.is_empty() {
            let Some(name) = preset_name.as_deref() else {
                return Response::error(
                    400,
                    if capture {
                        "capture sessions need ?preset=NAME to name the scenario\n"
                    } else {
                        "empty submission: send scenario text or ?preset=NAME\n"
                    },
                );
            };
            match preset(name) {
                Ok(spec) => spec,
                Err(e) => return Response::error(400, format!("{e}\n")),
            }
        } else {
            let Ok(text) = std::str::from_utf8(&request.body) else {
                return Response::error(400, "scenario text must be UTF-8\n");
            };
            match ScenarioSpec::parse(text) {
                Ok(spec) => spec,
                Err(e) => return Response::error(400, format!("{e}\n")),
            }
        };
        if capture && request.body.is_empty() {
            return Response::error(400, "capture session has no capture bytes\n");
        }

        let id = {
            let mut table = self.0.lock();
            if table.sessions.len() >= MAX_SESSIONS {
                return Response::error(503, "session table full\n");
            }
            let id = table.next_id;
            table.next_id += 1;
            let threshold = table.threshold;
            table.sessions.push(Session {
                id,
                spec,
                threshold,
                pcap: capture.then(|| request.body.clone()),
                status: SessionStatus::Queued,
                error: None,
                outcome: None,
            });
            id
        };
        self.0.submitted.inc();
        self.0.active.inc();
        self.0.persist_logged();
        // A full wake channel is fine: the runner is awake and will
        // drain the table down to this session anyway.
        if let Err(TrySendError::Disconnected(())) = self.0.wake.try_send(()) {
            return Response::error(503, "runner is gone\n");
        }
        Response {
            status: 201,
            content_type: "application/json".to_string(),
            body: format!("{{\"id\":{id},\"status\":\"queued\"}}\n"),
        }
    }

    fn list(&self) -> Response {
        let table = self.0.lock();
        let sessions: Vec<String> = table.sessions.iter().map(session_json).collect();
        Response::json(format!(
            "{{\"threshold\":{},\"reloads\":{},\"sessions\":[{}]}}\n",
            json_opt_u32(table.threshold),
            table.reloads,
            sessions.join(",")
        ))
    }

    /// `GET /sessions/N` and `GET /sessions/N/verdicts`.
    fn session_get(&self, path: &str) -> Option<Response> {
        let rest = path.strip_prefix("/sessions/")?;
        let (id_text, verdicts) = match rest.strip_suffix("/verdicts") {
            Some(id_text) => (id_text, true),
            None => (rest, false),
        };
        let id: u64 = id_text.parse().ok()?;
        let table = self.0.lock();
        let Some(session) = table.get(id) else {
            return Some(Response::error(404, format!("no session {id}\n")));
        };
        Some(if verdicts {
            match &session.outcome {
                Some(outcome) => Response::ok(outcome.canonical_verdicts()),
                None => Response::error(
                    409,
                    format!("session {id} is {}; no verdicts yet\n", session.status),
                ),
            }
        } else {
            Response::json(format!("{}\n", session_json(session)))
        })
    }

    fn threshold_get(&self) -> Response {
        let table = self.0.lock();
        Response::json(format!(
            "{{\"threshold\":{},\"reloads\":{}}}\n",
            json_opt_u32(table.threshold),
            table.reloads
        ))
    }

    /// Hot-reloads the threshold override. In-flight sessions keep
    /// their frozen threshold; nothing is dropped or re-run.
    fn threshold_set(&self, request: &Request) -> Response {
        let Ok(text) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "threshold body must be UTF-8\n");
        };
        let threshold = match parse_threshold(text) {
            Ok(t) => t,
            Err(reason) => return Response::error(400, format!("{reason}\n")),
        };
        let (current, reloads) = {
            let mut table = self.0.lock();
            table.threshold = threshold;
            table.reloads += 1;
            (table.threshold, table.reloads)
        };
        self.0.threshold_reloads.inc();
        self.0.persist_logged();
        Response::json(format!(
            "{{\"threshold\":{},\"reloads\":{reloads}}}\n",
            json_opt_u32(current)
        ))
    }

    fn snapshot_save(&self) -> Response {
        match self.0.persist() {
            Ok(true) => Response::json("{\"written\":true}\n".to_string()),
            Ok(false) => Response::error(409, "no snapshot path configured\n"),
            Err(e) => Response::error(500, format!("snapshot write failed: {e}\n")),
        }
    }
}

/// Parses a threshold body: a bare number, `threshold = N`, or
/// `default` to clear the override. The value itself is validated
/// against each spec's `wm-bits` at run time, not here — an override
/// too wide for a given scenario fails that session with a clear
/// error, same as the spec carrying it inline.
fn parse_threshold(body: &str) -> Result<Option<u32>, String> {
    let text = body.trim();
    if text == "default" {
        return Ok(None);
    }
    let value = match text.split_once('=') {
        Some((key, v)) if key.trim() == "threshold" => v.trim(),
        Some(_) => return Err("expected `threshold = N`, a bare number, or `default`".to_string()),
        None => text,
    };
    value
        .parse::<u32>()
        .map(Some)
        .map_err(|_| format!("`{text}` is not a threshold; send a number or `default`"))
}

/// One query parameter's raw value (no percent-decoding; preset names
/// and ids never need it).
fn query_param(query: Option<&str>, key: &str) -> Option<String> {
    query?
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

fn session_json(session: &Session) -> String {
    let outcome = match &session.outcome {
        Some(o) => format!(
            "{{\"events\":{},\"true_positives\":{},\"false_positives\":{},\"missed\":{},\
             \"degraded\":{},\"erasures\":{},\"verdicts\":{},\"verdict_digest\":\"{:016x}\"}}",
            o.events,
            o.true_positives,
            o.false_positives,
            o.missed,
            o.degraded,
            o.erasures,
            o.verdicts.len(),
            fnv1a(o.canonical_verdicts().as_bytes()),
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"scenario\":\"{}\",\"digest\":\"{:016x}\",\"status\":\"{}\",\
         \"threshold\":{},\"pcap\":{},\"error\":{},\"outcome\":{outcome}}}",
        session.id,
        json_escape(&session.spec.name),
        session.spec.digest(),
        session.status,
        json_opt_u32(session.threshold),
        session.pcap.is_some(),
        match &session.error {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".to_string(),
        },
    )
}

fn json_opt_u32(v: Option<u32>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::AtomicU64;

    fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(body).unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status, body)
    }

    fn wait_terminal(addr: SocketAddr, id: u64) -> String {
        for _ in 0..1500 {
            let (status, body) = request(addr, "GET", &format!("/sessions/{id}"), b"");
            assert_eq!(status, 200, "{body}");
            if body.contains("\"status\":\"completed\"") || body.contains("\"status\":\"failed\"") {
                return body;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("session {id} never reached a terminal status");
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: test-only unique suffix counter.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("serve-test-{}-{tag}-{n}.ssnp", std::process::id()))
    }

    fn start_basic(snapshot: Option<PathBuf>) -> ServeHandle {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot,
        };
        start(&config, &Arc::new(Registry::new())).expect("serve starts")
    }

    #[test]
    fn submit_preset_run_and_fetch_verdicts() {
        let handle = start_basic(None);
        let addr = handle.local_addr();

        let (status, body) = request(addr, "POST", "/sessions?preset=quick-smoke", b"");
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"id\":1"), "{body}");

        let detail = wait_terminal(addr, 1);
        assert!(detail.contains("\"status\":\"completed\""), "{detail}");
        assert!(detail.contains("\"scenario\":\"quick-smoke\""), "{detail}");

        let (status, verdicts) = request(addr, "GET", "/sessions/1/verdicts", b"");
        assert_eq!(status, 200);
        let expected = scenario_run::run(&preset("quick-smoke").unwrap(), &RunOptions::default())
            .unwrap()
            .canonical_verdicts();
        assert_eq!(verdicts, expected, "serve must match a one-shot run");

        // The metrics families the smoke lane greps for exist.
        let (status, metrics) = request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("serve_sessions_submitted_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("serve_sessions_completed_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("serve_sessions_active 0"), "{metrics}");

        handle.shutdown();
    }

    #[test]
    fn rejects_bad_submissions_and_keeps_serving() {
        let handle = start_basic(None);
        let addr = handle.local_addr();

        let (status, body) = request(addr, "POST", "/sessions", b"not = a\nscenario");
        assert_eq!(status, 400, "{body}");
        let (status, _) = request(addr, "POST", "/sessions?preset=nope", b"");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "POST", "/sessions", b"");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "POST", "/sessions/pcap?preset=quick-smoke", b"");
        assert_eq!(status, 400);
        let (status, body) = request(addr, "GET", "/sessions/99", b"");
        assert_eq!(status, 404, "{body}");
        let (status, body) = request(addr, "GET", "/sessions", b"");
        assert_eq!(status, 200);
        assert!(body.contains("\"sessions\":[]"), "{body}");

        handle.shutdown();
    }

    #[test]
    fn threshold_reload_freezes_per_session() {
        let handle = start_basic(None);
        let addr = handle.local_addr();

        let (status, body) = request(addr, "POST", "/thresholds", b"threshold = 3");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"threshold\":3"), "{body}");
        assert!(body.contains("\"reloads\":1"), "{body}");

        let (status, _) = request(addr, "POST", "/sessions?preset=quick-smoke", b"");
        assert_eq!(status, 201);
        let detail = wait_terminal(addr, 1);
        assert!(detail.contains("\"threshold\":3"), "{detail}");

        // Clearing the override does not touch the frozen session.
        let (status, body) = request(addr, "POST", "/thresholds", b"default");
        assert_eq!(status, 200);
        assert!(body.contains("\"threshold\":null"), "{body}");
        let (_, detail) = request(addr, "GET", "/sessions/1", b"");
        assert!(detail.contains("\"threshold\":3"), "{detail}");

        let (status, _) = request(addr, "POST", "/thresholds", b"wat");
        assert_eq!(status, 400);

        handle.shutdown();
    }

    #[test]
    fn snapshot_restart_restores_sessions_and_resumes_queued_work() {
        let path = temp_path("restart");
        let first = start_basic(Some(path.clone()));
        let addr = first.local_addr();
        let (status, _) = request(addr, "POST", "/sessions?preset=quick-smoke", b"");
        assert_eq!(status, 201);
        wait_terminal(addr, 1);
        let (_, verdicts_before) = request(addr, "GET", "/sessions/1/verdicts", b"");
        first.shutdown();

        // Restart on the same snapshot: the completed session is back,
        // verdicts byte-identical, nothing re-runs.
        let second = start_basic(Some(path.clone()));
        let addr = second.local_addr();
        let (status, verdicts_after) = request(addr, "GET", "/sessions/1/verdicts", b"");
        assert_eq!(status, 200);
        assert_eq!(verdicts_before, verdicts_after);
        second.shutdown();

        // Rewind session 1 to queued on disk (as if the process died
        // mid-run): a restore re-runs it to the same verdicts.
        let mut table = snapshot::decode(&std::fs::read(&path).unwrap()).unwrap();
        table.sessions[0].status = SessionStatus::Queued;
        table.sessions[0].outcome = None;
        std::fs::write(&path, snapshot::encode(&table)).unwrap();
        let third = start_basic(Some(path.clone()));
        let addr = third.local_addr();
        wait_terminal(addr, 1);
        let (_, verdicts_rerun) = request(addr, "GET", "/sessions/1/verdicts", b"");
        assert_eq!(verdicts_before, verdicts_rerun);
        third.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_snapshot_refuses_to_start() {
        let path = temp_path("corrupt");
        std::fs::write(&path, b"not a snapshot").unwrap();
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot: Some(path.clone()),
        };
        let err = start(&config, &Arc::new(Registry::new()))
            .map(|h| h.shutdown())
            .expect_err("corrupt snapshot must refuse");
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
