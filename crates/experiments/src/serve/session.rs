//! The serve session model: what a submitted scenario is, every state
//! it can be in, and the table the server keeps them in.
//!
//! A session is *event-sourced by its spec*: the scenario text (plus
//! the frozen threshold and, for capture sessions, the uploaded bytes)
//! fully determines the run, so recovery never needs engine internals
//! — a restored `Queued`/`Running` session simply re-runs from its
//! spec and lands on the same canonical verdicts (see the determinism
//! contract in [`crate::scenario_run`]).

use std::fmt;

use stepstone_scenario::ScenarioSpec;

use crate::scenario_run::VerdictLine;

/// Most sessions a server holds (live or restored); submissions past
/// this are refused with 503 rather than growing without bound.
pub const MAX_SESSIONS: usize = 4096;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Accepted, waiting for a runner slot.
    Queued,
    /// A runner is replaying it now.
    Running,
    /// Ran to the end; the outcome is final.
    Completed,
    /// The run could not produce a complete outcome (bad corpus,
    /// broken capture, mid-stream error). Only this session failed;
    /// the server keeps serving.
    Failed,
}

impl SessionStatus {
    /// Stable one-byte codec tag for the snapshot format.
    pub fn to_u8(self) -> u8 {
        match self {
            SessionStatus::Queued => 0,
            SessionStatus::Running => 1,
            SessionStatus::Completed => 2,
            SessionStatus::Failed => 3,
        }
    }

    /// Inverse of [`to_u8`](Self::to_u8); `None` for unknown tags.
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SessionStatus::Queued),
            1 => Some(SessionStatus::Running),
            2 => Some(SessionStatus::Completed),
            3 => Some(SessionStatus::Failed),
            _ => None,
        }
    }

    /// The status name as served on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionStatus::Queued => "queued",
            SessionStatus::Running => "running",
            SessionStatus::Completed => "completed",
            SessionStatus::Failed => "failed",
        }
    }
}

impl fmt::Display for SessionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A finished run's stored result — the timing-independent subset of a
/// [`crate::scenario_run::RunReport`], which is exactly what the
/// snapshot persists and `/sessions/N/verdicts` serves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoredOutcome {
    /// Events delivered to the monitor.
    pub events: u64,
    /// True pairs detected.
    pub true_positives: u32,
    /// Correlated verdicts on non-true pairs.
    pub false_positives: u32,
    /// True pairs missed.
    pub missed: u32,
    /// Pairs that ended degraded.
    pub degraded: u32,
    /// Effective channel deletions (see
    /// [`crate::scenario_run::RunReport::erasures`]).
    pub erasures: u64,
    /// Canonical verdict lines, sorted.
    pub verdicts: Vec<VerdictLine>,
}

impl StoredOutcome {
    /// The canonical verdict text served over HTTP and compared across
    /// restore cycles.
    pub fn canonical_verdicts(&self) -> String {
        let mut out = String::new();
        for line in &self.verdicts {
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// One submitted scenario session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// The parsed spec (its canonical text is what the snapshot
    /// stores).
    pub spec: ScenarioSpec,
    /// Detection threshold frozen at submission time, if the server's
    /// threshold override was set then. `None` runs the spec's own.
    pub threshold: Option<u32>,
    /// Uploaded capture bytes for a pcap session; `None` replays the
    /// spec's synthetic stream.
    pub pcap: Option<Vec<u8>>,
    /// Lifecycle state.
    pub status: SessionStatus,
    /// Why the session failed, for [`SessionStatus::Failed`].
    pub error: Option<String>,
    /// The stored result, for completed sessions (and failed capture
    /// sessions that got partial verdicts before a stream error).
    pub outcome: Option<StoredOutcome>,
}

/// The server's whole recoverable state: the sessions plus the global
/// threshold override and its reload counter. This is the unit the
/// snapshot codec round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTable {
    /// Next id to assign.
    pub next_id: u64,
    /// Threshold override applied to *future* submissions; in-flight
    /// sessions keep the threshold frozen at their submission.
    pub threshold: Option<u32>,
    /// Times the threshold was hot-reloaded over the server's life
    /// (snapshot-persistent, so restarts don't reset the count).
    pub reloads: u64,
    /// Every session, ordered by id.
    pub sessions: Vec<Session>,
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable {
            next_id: 1,
            threshold: None,
            reloads: 0,
            sessions: Vec::new(),
        }
    }
}

impl SessionTable {
    /// Looks up a session by id.
    pub fn get(&self, id: u64) -> Option<&Session> {
        self.sessions.iter().find(|s| s.id == id)
    }

    /// Looks up a session mutably by id.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Session> {
        self.sessions.iter_mut().find(|s| s.id == id)
    }

    /// Sessions not yet terminal, in id order — what a restored server
    /// re-enqueues.
    pub fn unfinished(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .filter(|s| matches!(s.status, SessionStatus::Queued | SessionStatus::Running))
            .map(|s| s.id)
            .collect()
    }
}
