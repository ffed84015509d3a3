//! Typed errors for scenario parsing, validation and preset lookup.

use std::fmt;

/// What can go wrong turning text into a validated
/// [`ScenarioSpec`](crate::ScenarioSpec).
///
/// Every variant that originates in the input carries the 1-based line
/// number it was found on, so a `repro` invocation can point at the
/// offending line of a scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The input had no `key = value` lines at all.
    Empty,
    /// The mandatory `name` key is missing.
    MissingName,
    /// A non-comment line is not of the form `key = value`.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A key the DSL does not define.
    UnknownKey {
        /// The unrecognised key.
        key: String,
        /// 1-based line number.
        line: usize,
    },
    /// The same key given twice — the DSL has no override semantics,
    /// so a duplicate is always a mistake.
    DuplicateKey {
        /// The repeated key.
        key: String,
        /// 1-based line number of the second occurrence.
        line: usize,
    },
    /// A value that does not parse or is out of range for its key.
    BadValue {
        /// The key whose value was rejected.
        key: String,
        /// 1-based line number.
        line: usize,
        /// Why the value was rejected.
        reason: String,
    },
    /// The spec parsed but the fields are inconsistent as a whole
    /// (e.g. a detection threshold wider than the watermark).
    Invalid {
        /// The violated constraint.
        reason: String,
    },
    /// [`preset`](fn@crate::preset) was asked for a name that is not in
    /// the checked-in library.
    UnknownPreset {
        /// The unknown preset name.
        name: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Empty => write!(f, "empty scenario: no `key = value` lines"),
            ScenarioError::MissingName => write!(f, "scenario is missing the `name` key"),
            ScenarioError::BadLine { line } => {
                write!(f, "line {line}: expected `key = value`")
            }
            ScenarioError::UnknownKey { key, line } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            ScenarioError::DuplicateKey { key, line } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            ScenarioError::BadValue { key, line, reason } => {
                write!(f, "line {line}: bad value for {key:?}: {reason}")
            }
            ScenarioError::Invalid { reason } => write!(f, "invalid scenario: {reason}"),
            ScenarioError::UnknownPreset { name } => {
                write!(
                    f,
                    "unknown preset {name:?}; valid presets: {}",
                    crate::preset::NAMES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}
