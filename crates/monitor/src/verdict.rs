//! The live verdict stream.

use std::fmt;

use stepstone_flow::TimeDelta;

use crate::ids::{FlowId, PairId};

/// One event on the monitor's verdict stream.
///
/// `Correlated` is emitted live, as soon as a decode crosses the
/// detection threshold; the pair is then *latched* and not decoded
/// again. `Cleared` is a terminal negative: the pair's flow ended
/// (eviction or [`finish`][fin]) without any decode correlating.
/// `Evicted` reports a suspicious flow dropped for inactivity.
/// `Degraded` is terminal like `Cleared`, but means the pair could not
/// be decoded reliably (a blown erasure budget) — see
/// [`DegradeReason`].
///
/// [fin]: crate::Monitor::finish
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A decode of this pair met the detection threshold: the
    /// suspicious flow is a downstream flow of the watermarked
    /// upstream.
    Correlated {
        /// The detected pair.
        pair: PairId,
        /// Best-watermark Hamming distance of the detecting decode.
        hamming: u32,
        /// Packet accesses spent by the detecting decode (matching
        /// included).
        cost: u64,
    },
    /// The pair's flow ended without any decode correlating.
    Cleared {
        /// The cleared pair.
        pair: PairId,
        /// Best-watermark Hamming distance of the last decode, if the
        /// pair was ever decoded.
        hamming: Option<u32>,
        /// Decodes run for this pair.
        decodes: u32,
    },
    /// A suspicious flow was dropped after exceeding the idle timeout.
    Evicted {
        /// The evicted flow.
        flow: FlowId,
        /// How long the flow had been idle in stream time.
        idle: TimeDelta,
    },
    /// Terminal, but *not* a clean negative: the engine could not
    /// decode this pair reliably and says so instead of silently
    /// clearing it. Consumers doing false-negative accounting should
    /// treat `Degraded` as "no evidence", not "evidence of absence".
    Degraded {
        /// The degraded pair.
        pair: PairId,
        /// Why the engine gave up on clean resolution.
        reason: DegradeReason,
    },
}

/// Why a pair's verdict is [`Verdict::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Under `--decode robust` the pair's erasure demand exceeded the
    /// configured budget: too many upstream packets had no downstream
    /// candidate for the decode to vouch for a clean negative. The
    /// graceful-degradation ladder reports this instead of a false
    /// `Cleared`.
    ErasureBudget {
        /// Erased upstream slots observed by the pair's worst decode.
        erasures: u32,
        /// Decided-bit fraction (percent) of that decode — how much of
        /// the watermark the verdict is actually based on.
        confidence: u8,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::ErasureBudget {
                erasures,
                confidence,
            } => write!(
                f,
                "erasure budget blown ({erasures} erasures, {confidence}% confidence)"
            ),
        }
    }
}

/// The timing-independent classification of a pair verdict.
///
/// The Hamming distance and decode count attached to a [`Verdict`]
/// record how the engine reached it — which boundaries it decoded, and
/// any decode fault on the way — so they can differ between engine
/// configurations over the same corpus; the terminal class is the
/// outcome (the streaming≡batch property tests pin it). Anything that
/// persists or compares verdicts across runs — session snapshots, the
/// matrix report — stores this classification, not the full verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TerminalKind {
    /// The pair correlated ([`Verdict::Correlated`]).
    Correlated,
    /// The pair was cleared ([`Verdict::Cleared`]).
    Cleared,
    /// The engine gave up on the pair ([`Verdict::Degraded`]).
    Degraded,
}

impl TerminalKind {
    /// Stable one-byte codec tag, used by the serve snapshot format.
    pub fn to_u8(self) -> u8 {
        match self {
            TerminalKind::Correlated => 1,
            TerminalKind::Cleared => 2,
            TerminalKind::Degraded => 3,
        }
    }

    /// Inverse of [`to_u8`](Self::to_u8); `None` for unknown tags.
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(TerminalKind::Correlated),
            2 => Some(TerminalKind::Cleared),
            3 => Some(TerminalKind::Degraded),
            _ => None,
        }
    }

    /// The kind's name as reported on verdict lines.
    pub fn as_str(self) -> &'static str {
        match self {
            TerminalKind::Correlated => "correlated",
            TerminalKind::Cleared => "cleared",
            TerminalKind::Degraded => "degraded",
        }
    }
}

impl fmt::Display for TerminalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Verdict {
    /// The pair the verdict is about, if it is a pair verdict.
    pub fn pair(&self) -> Option<PairId> {
        match *self {
            Verdict::Correlated { pair, .. }
            | Verdict::Cleared { pair, .. }
            | Verdict::Degraded { pair, .. } => Some(pair),
            Verdict::Evicted { .. } => None,
        }
    }

    /// The timing-independent classification, for pair verdicts.
    pub fn terminal_kind(&self) -> Option<TerminalKind> {
        match self {
            Verdict::Correlated { .. } => Some(TerminalKind::Correlated),
            Verdict::Cleared { .. } => Some(TerminalKind::Cleared),
            Verdict::Degraded { .. } => Some(TerminalKind::Degraded),
            Verdict::Evicted { .. } => None,
        }
    }

    /// `true` for `Correlated`.
    pub fn is_correlated(&self) -> bool {
        matches!(self, Verdict::Correlated { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Correlated {
                pair,
                hamming,
                cost,
            } => {
                write!(f, "{pair} correlated (hamming {hamming}, cost {cost})")
            }
            Verdict::Cleared {
                pair,
                hamming,
                decodes,
            } => match hamming {
                Some(h) => write!(f, "{pair} cleared (hamming {h}, {decodes} decodes)"),
                None => write!(f, "{pair} cleared (never decoded)"),
            },
            Verdict::Evicted { flow, idle } => {
                write!(f, "{flow} evicted (idle {idle})")
            }
            Verdict::Degraded { pair, reason } => {
                write!(f, "{pair} degraded ({reason})")
            }
        }
    }
}
