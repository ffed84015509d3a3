//! Pluggable correlator backends behind one seam.
//!
//! The paper's four best-watermark algorithms (in `stepstone-core`) are
//! one way to decide whether a suspicious flow is a downstream relay of
//! a watched upstream flow. The related literature gives others built
//! for exactly the same chaff-plus-bounded-delay channel. This crate
//! defines the contract they all share — [`CorrelatorBackend`]: batch
//! decode, incremental decode over a sliding window, and cost
//! accounting — plus two passive detectors that need no watermark at
//! all:
//!
//! | Backend | Source | Decision statistic |
//! |---------|--------|--------------------|
//! | [`ElicesBackend`] | Elices & Pérez-González, arXiv 1310.4577 | generalized log-likelihood ratio over the order-consistent IPD matching decomposition |
//! | [`GameBackend`] | Elices & Pérez-González, arXiv 1307.3136 | minimax matched-coverage test against the chance-matching rate |
//!
//! `stepstone-core`'s `BoundCorrelator` is the dispatch seam: it wraps
//! the paper machinery and these two behind one enum, and the online
//! monitor decodes through it without knowing which backend is live.
//! Adding a third-party backend is one module implementing
//! [`CorrelatorBackend`] plus one enum arm there — no engine changes.
//!
//! Both detectors here share one primitive, the greedy order-consistent
//! matching sweep ([`order_consistent_stats`]): the maximum set of
//! (upstream, suspicious) packet pairs with `0 ≤ t′ − t ≤ Δ` whose
//! match times increase monotonically — the same timing constraint the
//! paper's matching sets encode, collapsed to summary statistics
//! instead of per-bit candidate sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elices;
mod game;
mod kind;
mod matchstats;
mod mode;
mod outcome;

pub use elices::{ElicesBackend, ElicesConfig};
pub use game::{GameBackend, GameConfig};
pub use kind::{BackendKind, UnknownBackend};
pub use matchstats::{order_consistent_stats, robust_order_consistent_stats, MatchStats};
pub use mode::{DecodeMode, DecodeOptions, UnknownDecodeMode};
pub use outcome::{Correlation, RobustOutcome};
pub use stepstone_matching::{Screen, ScreenState};

use stepstone_flow::{Flow, SlidingWindow};

/// The contract every correlator backend implements: one watched
/// upstream flow, judged against many suspicious flows.
///
/// Implementations must be `Send + Sync` — the online monitor shares a
/// backend across its shard worker threads behind an `Arc`.
pub trait CorrelatorBackend: Send + Sync {
    /// Which backend this is (stable name for CLI flags, metric labels
    /// and cluster specs).
    fn kind(&self) -> BackendKind;

    /// The decode configuration this backend instance runs with
    /// (strict, zero budget, unless the implementation was configured
    /// robust). The monitor reads the erasure budget back from here to
    /// relax its minimum-window gate: under deletions a downstream flow
    /// can be legitimately *shorter* than its upstream.
    fn decode_options(&self) -> DecodeOptions {
        DecodeOptions::strict()
    }

    /// Which decode mode this backend instance runs. Labels the
    /// per-mode decode-latency metric family.
    fn decode_mode(&self) -> DecodeMode {
        self.decode_options().mode
    }

    /// The upstream flow this backend is bound to, as observed on the
    /// wire. The monitor sizes decode windows from its length.
    fn upstream(&self) -> &Flow;

    /// Batch decode: decides whether `suspicious` is a downstream flow
    /// of the bound upstream flow. Must never panic, whatever the
    /// input — empty flows, chaff floods and fault-mutated timestamps
    /// included.
    fn decode(&self, suspicious: &Flow) -> Correlation;

    /// What can be known about the decode of `window` without running
    /// it, resuming from the pair's `state`. The monitor calls this at
    /// every decode boundary and skips the decode unless it returns
    /// [`Screen::Decode`].
    ///
    /// The default proves nothing. An override must be sound:
    /// [`Screen::Unmatched`] only when [`decode`](Self::decode) of the
    /// window's snapshot is uncorrelated with no Hamming distance, and
    /// [`Screen::OverBudget`] only when it is a robust decode that is
    /// uncorrelated with `budget_blown` set, on a window that has never
    /// evicted. The monitor counts an `Unmatched` boundary as decoded;
    /// it postpones an `OverBudget` decode, whose erasures and
    /// confidence a verdict may report, and runs it later on the same
    /// packets, which only a window that has never evicted still holds.
    fn screen(&self, window: &SlidingWindow, state: &mut ScreenState) -> Screen {
        let _ = (window, state);
        Screen::Decode
    }
}
