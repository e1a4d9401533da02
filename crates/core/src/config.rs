//! Matcher configuration.

use stopss_matching::EngineKind;

use crate::closure::ClosureLimits;
use crate::tolerance::{StageMask, Tolerance};

/// How the semantic layer drives the syntactic engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Figure 1 verbatim: the semantic stage materializes derived events
    /// ("new event from concept hierarchy", "new event from mapping
    /// function") and feeds each one to the unmodified engine; the match
    /// set is the union. Derivations append pairs, so the derived events
    /// form a lattice whose maximum is the flattened closure — identical
    /// match set to [`Strategy::GeneralizedEvent`] at fixpoint, but the
    /// exploration is combinatorial (bounded by `max_derived_events`).
    /// The upside the paper emphasizes: the engine is untouched.
    MaterializeEvents,
    /// Flatten every derivable pair into one multi-valued event and match
    /// once. Same match set as materialization at fixpoint (∃-semantics
    /// is monotone in the pair set) at a fraction of the cost; requires
    /// engines to accept multi-valued events.
    GeneralizedEvent,
    /// Move the hierarchy work to subscribe time: expand equality
    /// predicates over taxonomy descendants into several engine
    /// subscriptions. Publications then skip the hierarchy stage.
    /// Exact for synonym+hierarchy semantics; under-approximates chains
    /// where a mapping function's guard requires a *generalized* term
    /// (measured in experiment E8).
    SubscriptionRewrite,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 3] =
        [Strategy::MaterializeEvents, Strategy::GeneralizedEvent, Strategy::SubscriptionRewrite];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::MaterializeEvents => "materialize",
            Strategy::GeneralizedEvent => "generalized",
            Strategy::SubscriptionRewrite => "sub-rewrite",
        }
    }
}

/// Resource bounds for semantic processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Bounds on the flattened closure fixpoint.
    pub closure: ClosureLimits,
    /// Maximum derived events per publication (materializing strategy).
    pub max_derived_events: usize,
    /// Maximum engine subscriptions one user subscription may expand to
    /// (subscription-rewrite strategy).
    pub max_rewrites: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { closure: ClosureLimits::default(), max_derived_events: 256, max_rewrites: 1024 }
    }
}

/// Full matcher configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which syntactic engine to wrap.
    pub engine: EngineKind,
    /// How the semantic layer drives it.
    pub strategy: Strategy,
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
    /// Serve per-candidate tolerance verification and provenance
    /// classification from the per-publication tier cache
    /// ([`crate::TierCache`]) instead of re-running the oracle closures
    /// for every matched candidate.
    /// Results are byte-identical either way (pinned by
    /// `tests/tier_cache_differential.rs`); the `false` setting keeps the
    /// oracle path selectable for differential tests and the
    /// cached-vs-oracle axis of the `semantic_overhead` bench.
    pub tier_cache: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            engine: EngineKind::Counting,
            strategy: Strategy::GeneralizedEvent,
            stages: StageMask::all(),
            max_distance: None,
            now_year: 2003,
            limits: Limits::default(),
            track_provenance: true,
            tier_cache: true,
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

    /// Returns a copy with a different strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
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

    /// Returns a copy with the tier cache toggled (see
    /// [`Config::tier_cache`]; `false` forces the per-candidate oracle
    /// path).
    #[must_use]
    pub fn with_tier_cache(mut self, on: bool) -> Self {
        self.tier_cache = on;
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
        assert_eq!(c.strategy, Strategy::GeneralizedEvent);
        assert_eq!(c.now_year, 2003);
        assert!(c.track_provenance);
        assert!(c.tier_cache, "the cached fast path is the default");
        assert!(!c.with_tier_cache(false).tier_cache);
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
            .with_engine(EngineKind::Trie)
            .with_strategy(Strategy::SubscriptionRewrite)
            .with_stages(StageMask::SYNONYM)
            .with_provenance(false);
        assert_eq!(c.engine, EngineKind::Trie);
        assert_eq!(c.strategy, Strategy::SubscriptionRewrite);
        assert_eq!(c.stages, StageMask::SYNONYM);
        assert!(!c.track_provenance);
    }

    #[test]
    fn strategy_names() {
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
        }
    }
}
