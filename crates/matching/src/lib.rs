//! # stopss-matching
//!
//! Content-based (syntactic) publish/subscribe matching engines — the
//! substrate the S-ToPSS paper extends with semantics. The paper cites the
//! counting algorithm of Aguilera et al. (PODC'99) and the predicate
//! indexing of Fabret et al. (SIGMOD'01); this crate implements the
//! counting family, with per-attribute predicate indexes, beside a
//! linear-scan reference:
//!
//! * [`CountingEngine`] — shared predicate table, per-attribute indexes,
//!   and each subscription filed once under its rarest (access)
//!   predicate, checked against epoch-stamped satisfied predicates: the
//!   engine every configuration runs;
//! * [`NaiveEngine`] — linear scan, the correctness reference the
//!   differential suites and E5 compare against.
//!
//! Both implement [`MatchingEngine`] and are interchangeable; the
//! semantic layer in `stopss-core` treats them as black boxes, exactly as
//! the paper prescribes ("minimize the changes to the algorithms").

#![warn(missing_docs)]

pub mod counting;
pub mod engine;
mod index;
pub mod naive;

pub use counting::CountingEngine;
pub use engine::{collect_matches, MatchingEngine};
pub use naive::NaiveEngine;

/// The available engine implementations: the one every configuration
/// runs and the reference it is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Linear scan over all subscriptions.
    Naive,
    /// Counting algorithm with per-attribute predicate indexes and
    /// access-predicate filing.
    Counting,
}

impl EngineKind {
    /// All engine kinds, for sweeps.
    pub const ALL: [EngineKind; 2] = [EngineKind::Naive, EngineKind::Counting];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Naive => "naive",
            EngineKind::Counting => "counting",
        }
    }

    /// Instantiates an empty engine of this kind.
    pub fn build(self) -> Box<dyn MatchingEngine> {
        match self {
            EngineKind::Naive => Box::new(NaiveEngine::new()),
            EngineKind::Counting => Box::new(CountingEngine::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert_eq!(engine.name(), kind.name());
            assert!(engine.is_empty());
        }
    }
}
