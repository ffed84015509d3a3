//! Backend identities: stable names shared by the CLI, metric labels
//! and the scenario spec.

use serde::{Deserialize, Serialize};

/// Which correlator backend decodes a pair.
///
/// The name returned by [`name`](BackendKind::name) is a stable
/// identifier: `repro monitor --backend <name>` selects it, `/metrics`
/// labels per-backend series with it, and a scenario spec's `backend`
/// key names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The paper's best-watermark search (`stepstone-core`): brute
    /// force, Greedy, Greedy+ or Optimal over the embedded watermark.
    #[default]
    Paper,
    /// The Elices/Pérez-González IPD likelihood-ratio test
    /// (arXiv 1310.4577): passive, watermark-free.
    Elices,
    /// The game-theoretic minimax coverage linker (arXiv 1307.3136):
    /// passive, watermark-free.
    Game,
}

impl BackendKind {
    /// Every backend, in display order. Metric registration and the
    /// cross-backend experiment sweeps iterate this, so a new backend
    /// shows up everywhere by extending this list — no engine changes.
    pub const ALL: [BackendKind; 3] = [BackendKind::Paper, BackendKind::Elices, BackendKind::Game];

    /// The stable lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            BackendKind::Paper => "paper",
            BackendKind::Elices => "elices",
            BackendKind::Game => "game",
        }
    }

    /// A dense index into per-backend tables (`0..ALL.len()`).
    pub const fn index(self) -> usize {
        match self {
            BackendKind::Paper => 0,
            BackendKind::Elices => 1,
            BackendKind::Game => 2,
        }
    }

    /// Parses a stable name back into a kind.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBackend`] (whose message lists the valid
    /// names) when `name` matches no backend.
    pub fn parse(name: &str) -> Result<Self, UnknownBackend> {
        BackendKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| UnknownBackend {
                input: name.to_string(),
            })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend name that parsed to nothing; its display lists the valid
/// names so a CLI can reject `--backend typo` helpfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name that failed to parse.
    pub input: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend {:?} (valid: ", self.input)?;
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(kind.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownBackend {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn unknown_name_lists_the_valid_ones() {
        let err = BackendKind::parse("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"bogus\""), "{msg}");
        for kind in BackendKind::ALL {
            assert!(msg.contains(kind.name()), "{msg}");
        }
    }

    #[test]
    fn default_is_the_paper_backend() {
        assert_eq!(BackendKind::default(), BackendKind::Paper);
    }
}
