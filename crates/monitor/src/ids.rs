//! Identifiers for flows, watermarked upstreams and candidate pairs.

use std::fmt;

/// Identifies one suspicious (downstream) flow in the ingest stream.
///
/// The monitor treats the id as opaque; callers typically derive it from
/// a 5-tuple hash or a capture-file index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies one registered watermarked upstream flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpstreamId(pub u64);

impl fmt::Display for UpstreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A candidate (watermarked upstream, suspicious downstream) pair — the
/// unit of decode work and of verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId {
    /// The registered upstream.
    pub upstream: UpstreamId,
    /// The suspicious flow.
    pub flow: FlowId,
}

impl fmt::Display for PairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.upstream, self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        let pair = PairId {
            upstream: UpstreamId(3),
            flow: FlowId(17),
        };
        assert_eq!(pair.to_string(), "u3:f17");
    }
}
