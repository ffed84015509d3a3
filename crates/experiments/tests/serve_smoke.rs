//! End-to-end `repro serve` smoke: the real binary, a real socket, a
//! real `SIGKILL`.
//!
//! The acceptance property: a server killed without warning and
//! restarted from its snapshot serves byte-identical terminal verdicts
//! — completed sessions come back verbatim, interrupted sessions
//! re-run from their specs to the same canonical lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use stepstone_experiments::scenario_run;
use stepstone_scenario::preset;

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `repro serve` and reads the bound address off stderr.
    fn spawn(snapshot: &std::path::Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                snapshot.to_str().unwrap(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro serve");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before announcing its address")
                .expect("read stderr");
            if let Some(rest) = line.strip_prefix("serving sessions at http://") {
                let addr = rest.trim_end_matches("/sessions");
                break addr.parse().expect("address parses");
            }
        };
        // Let the rest of stderr drain into the void so the child
        // never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    fn kill_hard(mut self) {
        // SIGKILL — no shutdown hook runs; only the write-through
        // snapshot survives.
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line.trim().is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).expect("body");
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

fn temp_snapshot(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve-smoke-{}-{tag}.ssnp", std::process::id()))
}

#[test]
fn sigkill_then_restore_serves_identical_verdicts() {
    let snapshot = temp_snapshot("sigkill");
    let _ = std::fs::remove_file(&snapshot);

    let server = Server::spawn(&snapshot);
    let (status, body) = request(server.addr, "POST", "/sessions?preset=quick-smoke", b"");
    assert_eq!(status, 201, "{body}");
    wait_terminal(server.addr, 1);
    let (_, verdicts_before) = request(server.addr, "GET", "/sessions/1/verdicts", b"");
    assert!(!verdicts_before.is_empty());

    // The metrics endpoint carries the serve families.
    let (status, metrics) = request(server.addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    for family in [
        "serve_sessions_submitted_total",
        "serve_sessions_completed_total",
        "serve_sessions_active",
        "serve_snapshot_writes_total",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }

    server.kill_hard();

    // Restore: the completed session survives the SIGKILL verbatim.
    let server = Server::spawn(&snapshot);
    let (status, verdicts_after) = request(server.addr, "GET", "/sessions/1/verdicts", b"");
    assert_eq!(status, 200);
    assert_eq!(
        verdicts_before, verdicts_after,
        "terminal verdicts must be byte-identical across restore"
    );
    server.kill_hard();
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn interrupted_session_reruns_to_the_same_verdicts() {
    let snapshot = temp_snapshot("interrupted");
    let _ = std::fs::remove_file(&snapshot);

    // Submit and kill immediately: odds are the session is still
    // queued or mid-run. Whatever state the snapshot caught, the
    // restored server must finish it to the reference verdicts.
    let server = Server::spawn(&snapshot);
    let (status, _) = request(server.addr, "POST", "/sessions?preset=baseline", b"");
    assert_eq!(status, 201);
    server.kill_hard();

    let server = Server::spawn(&snapshot);
    let detail = wait_terminal(server.addr, 1);
    assert!(detail.contains("\"status\":\"completed\""), "{detail}");
    let (_, verdicts) = request(server.addr, "GET", "/sessions/1/verdicts", b"");
    let expected = scenario_run::run(&preset("baseline").unwrap(), &Default::default())
        .unwrap()
        .canonical_verdicts();
    assert_eq!(verdicts, expected);
    server.kill_hard();
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn mid_session_stream_error_fails_only_that_session() {
    let snapshot = temp_snapshot("stream-error");
    let _ = std::fs::remove_file(&snapshot);
    let server = Server::spawn(&snapshot);

    // A capture cut mid-packet: the replay ingests what it can, then
    // hits a stream error. That must fail the *session*, not the
    // server — matching one-shot `repro monitor --pcap` semantics
    // (partial verdicts printed, non-zero exit).
    let spec = preset("quick-smoke").unwrap();
    let pcap = scenario_run::export_pcap(&spec).unwrap();
    let truncated = &pcap[..pcap.len() * 3 / 4];
    let (status, body) = request(
        server.addr,
        "POST",
        "/sessions/pcap?preset=quick-smoke",
        truncated,
    );
    assert_eq!(status, 201, "{body}");
    let detail = wait_terminal(server.addr, 1);
    assert!(detail.contains("\"status\":\"failed\""), "{detail}");
    assert!(detail.contains("\"error\":\""), "{detail}");

    // The server keeps serving: a healthy session completes after.
    let (status, _) = request(server.addr, "POST", "/sessions?preset=quick-smoke", b"");
    assert_eq!(status, 201);
    let detail = wait_terminal(server.addr, 2);
    assert!(detail.contains("\"status\":\"completed\""), "{detail}");

    // An intact capture classifies like the in-memory run.
    let (status, _) = request(
        server.addr,
        "POST",
        "/sessions/pcap?preset=quick-smoke",
        &pcap,
    );
    assert_eq!(status, 201);
    let detail = wait_terminal(server.addr, 3);
    assert!(detail.contains("\"status\":\"completed\""), "{detail}");

    server.kill_hard();
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn threshold_hot_reload_over_http() {
    let snapshot = temp_snapshot("threshold");
    let _ = std::fs::remove_file(&snapshot);
    let server = Server::spawn(&snapshot);

    let (status, body) = request(server.addr, "POST", "/thresholds", b"3");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"threshold\":3"), "{body}");

    let (status, _) = request(server.addr, "POST", "/sessions?preset=quick-smoke", b"");
    assert_eq!(status, 201);
    let detail = wait_terminal(server.addr, 1);
    // The session froze the override at submission.
    assert!(detail.contains("\"threshold\":3"), "{detail}");

    // The reload survives a SIGKILL: reloads count and override are in
    // the snapshot.
    server.kill_hard();
    let server = Server::spawn(&snapshot);
    let (status, body) = request(server.addr, "GET", "/thresholds", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"threshold\":3"), "{body}");
    assert!(body.contains("\"reloads\":1"), "{body}");

    server.kill_hard();
    let _ = std::fs::remove_file(&snapshot);
}
