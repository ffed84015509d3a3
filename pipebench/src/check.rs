//! Checks one run's verdict stream against the reference.

use std::collections::BTreeMap;

use stepstone_monitor::{PairId, TerminalKind, Verdict};

use crate::reference::Reference;

/// The outcome of checking one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckResult {
    /// Candidate pairs judged.
    pub pairs: usize,
    /// Pairs that failed: latched status differs from the reference,
    /// or not exactly one terminal verdict. A verdict for a pair that
    /// is not a candidate also counts as one failure.
    pub failed: usize,
}

/// Judges every candidate pair of `reference` against `verdicts`.
pub fn check(reference: &Reference, verdicts: &[Verdict]) -> CheckResult {
    // Per pair: terminal verdicts seen, and whether one was Correlated.
    let mut seen: BTreeMap<PairId, (usize, bool)> = BTreeMap::new();
    for verdict in verdicts {
        let (Some(pair), Some(kind)) = (verdict.pair(), verdict.terminal_kind()) else {
            continue;
        };
        let entry = seen.entry(pair).or_default();
        entry.0 += 1;
        entry.1 |= kind == TerminalKind::Correlated;
    }
    let mut result = CheckResult {
        pairs: reference.candidates.len(),
        ..CheckResult::default()
    };
    for pair in &reference.candidates {
        let (terminals, correlated) = seen.remove(pair).unwrap_or_default();
        if terminals != 1 || correlated != reference.latched.contains_key(pair) {
            result.failed += 1;
        }
    }
    // Whatever is left named a pair the engine was never offered.
    result.failed += seen.len();
    result
}
