//! Matcher configuration.

use stopss_matching::EngineKind;

use crate::closure::ClosureLimits;
use crate::tolerance::{StageMask, Tolerance};

/// Resource bounds for semantic processing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Bounds on the flattened closure fixpoint.
    pub closure: ClosureLimits,
}

/// Full matcher configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which syntactic engine to wrap.
    pub engine: EngineKind,
    /// System-wide enabled stages (individual subscribers can only opt
    /// *down* from this via their [`Tolerance`]).
    pub stages: StageMask,
    /// System-wide generalization bound.
    pub max_distance: Option<u32>,
    /// The "present date" for mapping expressions. The paper demonstrated
    /// at VLDB 2003, so that is the default.
    pub now_year: i64,
    /// Resource bounds.
    pub limits: Limits,
    /// Classify each match's [`crate::MatchOrigin`] (costs extra oracle
    /// checks per match; disable for throughput benchmarks).
    pub track_provenance: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            engine: EngineKind::Counting,
            stages: StageMask::all(),
            max_distance: None,
            now_year: 2003,
            limits: Limits::default(),
            track_provenance: true,
        }
    }
}

impl Config {
    /// Full semantics with defaults.
    pub fn semantic() -> Self {
        Config::default()
    }

    /// The demo's "syntactic mode": plain content-based matching.
    pub fn syntactic() -> Self {
        Config { stages: StageMask::syntactic(), ..Config::default() }
    }

    /// The system-wide tolerance implied by this configuration.
    pub fn system_tolerance(&self) -> Tolerance {
        Tolerance { stages: self.stages, max_distance: self.max_distance }
    }

    /// Returns a copy with a different engine.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy with different stages.
    #[must_use]
    pub fn with_stages(mut self, stages: StageMask) -> Self {
        self.stages = stages;
        self
    }

    /// Returns a copy with provenance tracking toggled.
    #[must_use]
    pub fn with_provenance(mut self, on: bool) -> Self {
        self.track_provenance = on;
        self
    }

    /// A no-op kept so the benchmark package (`benchmark/`) keeps
    /// compiling; it goes with the next benchmark-package change. There is
    /// one matcher and no shard count.
    #[doc(hidden)]
    #[must_use]
    pub fn with_shards(self, _: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_semantics() {
        let c = Config::default();
        assert_eq!(c.stages, StageMask::all());
        assert_eq!(c.now_year, 2003);
        assert!(c.track_provenance);
    }

    #[test]
    fn syntactic_config_disables_stages() {
        let c = Config::syntactic();
        assert!(c.stages.is_syntactic());
        assert_eq!(c.system_tolerance().stages, StageMask::syntactic());
    }

    #[test]
    fn builder_helpers() {
        let c = Config::default()
            .with_engine(EngineKind::Naive)
            .with_stages(StageMask::SYNONYM)
            .with_provenance(false);
        assert_eq!(c.engine, EngineKind::Naive);
        assert_eq!(c.stages, StageMask::SYNONYM);
        assert!(!c.track_provenance);
    }
}
