//! The backend-independent correlation outcome.

use serde::{Deserialize, Serialize};
use stepstone_watermark::Watermark;

/// What the robust decode layer adds to a [`Correlation`]: how much of
/// the evidence was erased and how confident the decision that remains
/// is. `None` on every strict decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustOutcome {
    /// Erasures charged in this decode window (deleted-packet slots
    /// absorbed instead of aborting or counting as misses).
    pub erasures: u32,
    /// `true` when the window needed more erasures than the configured
    /// budget allowed: the evidence is too damaged for a clean negative,
    /// and the monitor reports `Degraded` instead of `Cleared` for a
    /// pair that ends in this state.
    pub budget_blown: bool,
    /// How much of the decision statistic survived the erasures, as a
    /// percentage in `0..=100` (decided watermark bits for the paper
    /// backend, surviving-window coverage for the passive ones).
    pub confidence_pct: u8,
}

impl RobustOutcome {
    /// Robust accounting read off a [`MatchStats`](crate::MatchStats) from the
    /// budget-absorbing sweep
    /// ([`robust_order_consistent_stats`][crate::robust_order_consistent_stats]):
    /// erasures are the absorbed misses, the budget is blown when any
    /// miss survived absorption (the window demanded more erasures than
    /// the budget covered), and confidence is the surviving-window
    /// coverage as a percentage.
    pub fn from_match_stats(stats: &crate::MatchStats) -> Self {
        let pct = (stats.coverage() * 100.0).round().clamp(0.0, 100.0) as u8;
        RobustOutcome {
            erasures: stats.erasures.min(u32::MAX as usize) as u32,
            budget_blown: stats.misses > 0,
            confidence_pct: pct,
        }
    }
}

/// The outcome of correlating one suspicious flow against one
/// watched upstream flow.
///
/// Every backend produces this shape. The watermark-specific fields
/// ([`hamming`](Correlation::hamming), [`best`](Correlation::best)) are
/// `None` for the passive backends, which decide from timing statistics
/// alone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Correlation {
    /// `true` when the backend's decision statistic crossed its
    /// detection threshold (for the paper backend: the best watermark's
    /// Hamming distance is within the scheme threshold).
    pub correlated: bool,
    /// Hamming distance of the best watermark found; `None` when the
    /// matching phase already proved the flows unrelated (an empty or
    /// infeasible matching set) — or when the backend decodes no
    /// watermark at all.
    pub hamming: Option<u32>,
    /// The best decoded watermark, when one was computed.
    pub best: Option<Watermark>,
    /// The cost reported in the paper's figures, in packet accesses.
    /// For Greedy this is the decode phase alone (the paper charges the
    /// matching process only to the approaches that consume it — which
    /// is why Greedy's published cost curve is constant and a failed
    /// matching costs 0, plotted as 1 on log axes); for the other
    /// algorithms it includes the matching phase. The passive backends
    /// do all their work in one matching sweep, so for them `cost`
    /// equals [`matching_cost`](Correlation::matching_cost).
    pub cost: u64,
    /// The matching phase's packet accesses alone (informational; part
    /// of `cost` except for Greedy).
    pub matching_cost: u64,
    /// `false` when a bounded search (Optimal/Brute Force) hit its cost
    /// bound before finishing.
    pub completed: bool,
    /// Robust-decode accounting; `None` for every strict decode.
    pub robust: Option<RobustOutcome>,
}

impl Correlation {
    /// An immediate negative from the matching phase: no feasible
    /// matching, so no watermark was decoded.
    pub fn unmatched(cost: u64, matching_cost: u64) -> Self {
        Correlation {
            correlated: false,
            hamming: None,
            best: None,
            cost,
            completed: true,
            matching_cost,
            robust: None,
        }
    }
}

impl std::fmt::Display for Correlation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.hamming {
            Some(h) => write!(
                f,
                "{} (hamming {h}, {} accesses{})",
                if self.correlated {
                    "correlated"
                } else {
                    "not correlated"
                },
                self.cost,
                if self.completed { "" } else { ", bound hit" }
            )?,
            None => write!(
                f,
                "{} (no watermark, {} accesses)",
                if self.correlated {
                    "correlated"
                } else {
                    "not correlated"
                },
                self.cost
            )?,
        }
        if let Some(r) = &self.robust {
            write!(
                f,
                " [{} erasures, {}% confidence{}]",
                r.erasures,
                r.confidence_pct,
                if r.budget_blown { ", over budget" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_outcome_shape() {
        let c = Correlation::unmatched(42, 42);
        assert!(!c.correlated);
        assert_eq!(c.hamming, None);
        assert_eq!(c.cost, 42);
        assert!(c.completed);
        assert!(c.to_string().contains("no watermark"));
    }

    #[test]
    fn display_mentions_bound_hits() {
        let c = Correlation {
            correlated: true,
            hamming: Some(3),
            best: None,
            cost: 10,
            matching_cost: 4,
            completed: false,
            robust: None,
        };
        assert!(c.to_string().contains("bound hit"));
    }

    #[test]
    fn robust_outcome_renders_erasure_accounting() {
        let c = Correlation {
            correlated: true,
            hamming: Some(1),
            best: None,
            cost: 10,
            matching_cost: 4,
            completed: true,
            robust: Some(RobustOutcome {
                erasures: 3,
                budget_blown: false,
                confidence_pct: 87,
            }),
        };
        let s = c.to_string();
        assert!(s.contains("3 erasures"), "{s}");
        assert!(s.contains("87% confidence"), "{s}");
        assert!(!s.contains("over budget"), "{s}");
        let blown = Correlation {
            robust: Some(RobustOutcome {
                erasures: 9,
                budget_blown: true,
                confidence_pct: 40,
            }),
            ..c
        };
        assert!(blown.to_string().contains("over budget"));
    }

    #[test]
    fn watermark_free_positive_renders() {
        let c = Correlation {
            correlated: true,
            hamming: None,
            best: None,
            cost: 7,
            matching_cost: 7,
            completed: true,
            robust: None,
        };
        let s = c.to_string();
        assert!(s.starts_with("correlated"), "{s}");
        assert!(s.contains("no watermark"), "{s}");
    }
}
