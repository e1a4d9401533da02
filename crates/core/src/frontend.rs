//! The event-side semantic pass of one publication.
//!
//! Everything Figure 1 does to a *publication* — synonym canonicalization
//! and the bounded hierarchy/mapping closure, flattened into one
//! multi-valued event — depends only on the event, the ontology, and the
//! configuration; never on which subscriptions are registered. The
//! companion paper "I know what you mean" frames exactly this split:
//! semantic enrichment is a per-publication transform, matching is the
//! per-subscription fan-out. This module computes that transform once per
//! publication, as the one event the engine sees (Figure 1's
//! materialization of derived events survives only as the reference in
//! [`crate::strategy`]).
//! [`crate::SToPSS::publish`] runs it inline; [`crate::SToPSS::prepare`]
//! wraps it into a self-contained [`PreparedEvent`] artifact, the
//! stage-split seam that [`crate::SToPSS::match_prepared`] matches against
//! the current state.
//!
//! # The tier cache
//!
//! The main closure is not the only event-side work a publication
//! induces. Two back-end obligations are *also* pure functions of the
//! event, the ontology and a tolerance:
//!
//! * **Tolerance classes**: the matcher keeps one engine partition per
//!   *verification class* ([`Tolerance::verify_class`]) of its
//!   subscribers' tolerances, and matches every partition but the system
//!   class's against the raw event closed under that class.
//! * **Provenance classification**: [`crate::classify_match`] re-derives
//!   the synonym-only and synonym+hierarchy closures per match, then
//!   linearly re-closes the event once per candidate hierarchy distance
//!   (up to [`crate::CLASSIFY_DISTANCE_CAP`] times).
//!
//! [`TierCache`] holds both in one plain per-publication value: the
//! classifier's tier closures and one closed event per verification class
//! are each computed at most once per publication, lazily on first use,
//! and filled through `&mut`. The matcher's classifier evaluates each
//! distinct predicate of a publication's matches once against these tiers,
//! reading the minimal hierarchy distance straight off the cached
//! closure's [`PairInfo`] instead of searching for it by repeated
//! re-closing (see `matcher.rs`).
//! The oracle functions in [`crate::oracle`] are untouched ground truth;
//! byte-identical behaviour is pinned by `tests/tier_cache_differential.rs`.
//!
//! # Reading entries off the main closure
//!
//! Every tier and class is a closure of the same raw event as the main
//! closure [`prepare_event`] already computed, under fewer stages or a
//! distance bound. Where filtering the main closure provably gives the
//! pairs (and per-pair distances) a fresh [`semantic_closure`] would, the
//! cache filters instead of re-running the fixpoint. That needs no
//! system-wide `max_distance` and a main closure that did not truncate
//! and reached its fixpoint in fewer than `max_rounds` rounds (a bounded
//! run can need one round more than the unbounded one). Then, with `S`
//! the main closure's stages:
//!
//! * **synonym only** (the synonym tier and class): the first
//!   `base_pairs` pairs, if `S` includes the synonym stage;
//! * **`S` with bound `k`**: the pairs with `distance ≤ k`, unless
//!   [`ClosedEvent::hierarchy_feeds_mappings`] — otherwise a bounded run
//!   could bind a mapping to a different pair, or keep a production the
//!   unbounded run absorbed into a hierarchy pair;
//! * **`S` minus mapping, with bound `k` or none** (the hierarchy tier,
//!   and classes such as synonym+hierarchy bounded `k`): the pairs with
//!   `!via_mapping && distance ≤ k`, unless
//!   [`ClosedEvent::generalized_mapping_output`] — otherwise a recorded
//!   distance may come from a mapping-derived source.
//!
//! Every other entry (other stage subsets, a system-wide bound, a
//! truncated main closure) is computed by [`semantic_closure`] as before.
//! The main closure itself stays where it is, in
//! [`PreparedEvent::engine_events`]`[0]` and [`PreparedEvent::info`]; the
//! cache borrows it through [`EventSide`].

use stopss_ontology::SemanticSource;
use stopss_types::{Event, FxHashMap, Interner};

use crate::closure::{semantic_closure, ClosedEvent, ClosureLimits, PairInfo};
use crate::config::Config;
use crate::tolerance::{StageMask, Tolerance};

/// The precomputed event-side semantic pass of one publication: the
/// artifact the matcher matches against, plus the counters the pass
/// produced.
///
/// Equivalent to what [`crate::SToPSS::publish_detailed`] derives
/// internally — matching the artifact is byte-identical to publishing the
/// raw event, whichever subscriptions the matcher holds (pinned by
/// `crates/core/tests/frontend_differential.rs`).
#[derive(Clone, Debug)]
pub struct PreparedEvent {
    /// The publication exactly as the publisher wrote it. Tolerance
    /// classes and provenance classification are defined against the raw
    /// event, so it travels with the artifact.
    pub raw: Event,
    /// The events the syntactic engine sees: exactly one, the flattened
    /// closure.
    pub engine_events: Vec<Event>,
    /// Per-pair derivation provenance of the flattened closure (origin
    /// distance, mapping/hierarchy flags), aligned with
    /// `engine_events[0]`.
    pub info: Vec<PairInfo>,
    /// Derived events fed to the engine (the `derived_events` stat;
    /// always 1).
    pub derived_events: usize,
    /// Pairs in the closed event (the `closure_pairs` stat).
    pub closure_pairs: usize,
    /// True if a resource bound clipped the semantic pass.
    pub truncated: bool,
    /// What the publication's tier cache may read off the main closure.
    read_off: Option<ReadOff>,
}

impl PreparedEvent {
    /// This artifact's event side, as [`TierCache`] reads it.
    pub fn event_side(&self) -> EventSide<'_> {
        EventSide { raw: &self.raw, engine_events: &self.engine_events, info: &self.info }
    }

    /// An empty tier cache for this publication, told what it may read off
    /// the main closure.
    pub fn tier_cache(&self) -> TierCache {
        TierCache { read_off: self.read_off, ..TierCache::new() }
    }
}

/// One publication's event side, borrowed from wherever it lives: the raw
/// event plus the engine events and pair provenance [`prepare_event`]
/// derived from it. A [`TierCache`] must only be handed the event side of
/// the publication it was built for.
#[derive(Clone, Copy, Debug)]
pub struct EventSide<'a> {
    /// See [`PreparedEvent::raw`].
    pub raw: &'a Event,
    /// See [`PreparedEvent::engine_events`].
    pub engine_events: &'a [Event],
    /// See [`PreparedEvent::info`].
    pub info: &'a [PairInfo],
}

/// The engine-facing pieces of the event-side pass, without the owned raw
/// event. [`crate::SToPSS::publish`] uses this directly so it can keep
/// borrowing the caller's event; [`prepare_event`] wraps it into a
/// self-contained [`PreparedEvent`].
pub(crate) struct PreparedParts {
    /// See [`PreparedEvent::engine_events`].
    pub engine_events: Vec<Event>,
    /// See [`PreparedEvent::info`].
    pub info: Vec<PairInfo>,
    /// See [`PreparedEvent::derived_events`].
    pub derived_events: usize,
    /// See [`PreparedEvent::closure_pairs`].
    pub closure_pairs: usize,
    /// See [`PreparedEvent::truncated`].
    pub truncated: bool,
    /// What the tier cache may read off the main closure.
    read_off: Option<ReadOff>,
}

impl PreparedParts {
    /// An empty tier cache for this publication (see
    /// [`PreparedEvent::tier_cache`]).
    pub(crate) fn tier_cache(&self) -> TierCache {
        TierCache { read_off: self.read_off, ..TierCache::new() }
    }
}

pub(crate) fn prepare_parts(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedParts {
    let closed = semantic_closure(
        event,
        source,
        config.stages,
        config.max_distance,
        config.now_year,
        interner,
        &config.limits.closure,
    );
    PreparedParts {
        closure_pairs: closed.event.len(),
        truncated: closed.truncated,
        read_off: ReadOff::of(&closed, config),
        engine_events: vec![closed.event],
        info: closed.info,
        derived_events: 1,
    }
}

/// The per-publication tier cache: every closure the matching back end
/// needs beyond the main closure — the provenance classifier's tier
/// closures and one closed event per tolerance-class partition — each
/// computed at most once, on first use. See the module docs for why this
/// is event-side work and when an entry is read off the main closure
/// instead of computed.
///
/// One cache serves exactly one `(publication, configuration)` pair: the
/// slots memoize the first computation, so callers must not reuse a cache
/// across events or across reconfigurations (the matcher builds one per
/// publication), and every call must pass that publication's
/// [`EventSide`].
#[derive(Debug, Default)]
pub struct TierCache {
    /// What may be read off the publication's main closure; `None` (a
    /// cache from [`TierCache::new`]) computes every entry.
    read_off: Option<ReadOff>,
    /// Classifier tier: the synonym-only closure (never truncated).
    synonym: Option<ClosedEvent>,
    /// Classifier tier: the unbounded synonym∩stages+hierarchy closure,
    /// tagged with the stage mask it was computed under.
    hierarchy: Option<(StageMask, ClosedEvent)>,
    /// One closed event per distinct [`Tolerance::verify_class`] asked for
    /// so far: one per partition the publication matched.
    classes: FxHashMap<Tolerance, ClosedEvent>,
}

impl TierCache {
    /// Creates an empty cache that computes every entry with
    /// [`semantic_closure`], lazily on first use.
    pub fn new() -> Self {
        TierCache::default()
    }

    /// The synonym-only closure of the raw event (classifier tier 2),
    /// computed on first use.
    pub fn synonym_tier(
        &mut self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        let tolerance = Tolerance::stages(StageMask::SYNONYM);
        let read_off = self.read_off;
        self.synonym.get_or_insert_with(|| {
            close(read_off, side, tolerance, source, now_year, interner, limits)
        })
    }

    /// The unbounded `hier_stages` closure of the raw event (classifier
    /// tier 3), computed on first use. `hier_stages` must be the same on
    /// every call for a given cache (it is a pure function of the
    /// configuration: `stages ∩ (SYNONYM | HIERARCHY)`).
    pub fn hierarchy_tier(
        &mut self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        hier_stages: StageMask,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        let tolerance = Tolerance::stages(hier_stages);
        let read_off = self.read_off;
        let (mask, closed) = self.hierarchy.get_or_insert_with(|| {
            (hier_stages, close(read_off, side, tolerance, source, now_year, interner, limits))
        });
        debug_assert_eq!(*mask, hier_stages, "one cache serves one configuration");
        closed
    }

    /// The closed event for `tolerance`'s verification class, computed on
    /// first use: the event that class's engine partition matches.
    /// Tolerances with equal [`Tolerance::verify_class`] share one entry.
    pub fn tolerance_class(
        &mut self,
        tolerance: &Tolerance,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        let class = tolerance.verify_class();
        let read_off = self.read_off;
        self.classes
            .entry(class)
            .or_insert_with(|| close(read_off, side, class, source, now_year, interner, limits))
    }

    /// The classifier tiers `config` runs (synonym-only if the synonym
    /// stage is on, synonym∩stages+hierarchy if the hierarchy stage is),
    /// filled on first use. The matcher asks once per publication that
    /// has a match to classify, after matching its partitions.
    pub(crate) fn classifier_tiers(
        &mut self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        config: &Config,
        interner: &Interner,
    ) -> ClassifierTiers<'_> {
        let stages = config.stages;
        if stages.synonym() && self.synonym.is_none()
            || stages.hierarchy() && self.hierarchy.is_none()
        {
            self.fill_classifier_tiers(side, source, config, interner);
        }
        let hierarchy = self.hierarchy.as_ref().map(|(_, closed)| closed);
        ClassifierTiers { synonym: self.synonym.as_ref(), hierarchy }
    }

    /// Fills the classifier tiers [`TierCache::classifier_tiers`] returns.
    fn fill_classifier_tiers(
        &mut self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        config: &Config,
        interner: &Interner,
    ) {
        let (stages, now_year, limits) = (config.stages, config.now_year, &config.limits.closure);
        if stages.synonym() {
            self.synonym_tier(side, source, now_year, interner, limits);
        }
        if stages.hierarchy() {
            let hier_stages = stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
            self.hierarchy_tier(side, source, hier_stages, now_year, interner, limits);
        }
    }

    /// Number of distinct verification classes closed so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// The classifier tiers of one publication, borrowed out of its
/// [`TierCache`].
#[derive(Clone, Copy)]
pub(crate) struct ClassifierTiers<'a> {
    /// The synonym-only closure, if the synonym stage runs.
    pub synonym: Option<&'a ClosedEvent>,
    /// The unbounded synonym+hierarchy closure, if the hierarchy stage
    /// runs.
    pub hierarchy: Option<&'a ClosedEvent>,
}

/// The closure of `side`'s raw event under `tolerance`: read off the main
/// closure where the module docs' rules allow it, computed otherwise.
fn close(
    read_off: Option<ReadOff>,
    side: EventSide<'_>,
    tolerance: Tolerance,
    source: &dyn SemanticSource,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> ClosedEvent {
    if let Some(read_off) = read_off {
        if let Some(keep) = read_off.rule(tolerance) {
            return read_off.read(side, keep);
        }
    }
    let Tolerance { stages, max_distance } = tolerance;
    semantic_closure(side.raw, source, stages, max_distance, now_year, interner, limits)
}

/// The facts about a publication's main closure that decide which tier
/// cache entries are read off it (see the module docs).
#[derive(Clone, Copy, Debug)]
struct ReadOff {
    /// The stages the main closure ran.
    stages: StageMask,
    /// See [`ClosedEvent::base_pairs`].
    base_pairs: usize,
    /// See [`ClosedEvent::hierarchy_feeds_mappings`].
    hierarchy_feeds_mappings: bool,
    /// See [`ClosedEvent::generalized_mapping_output`].
    generalized_mapping_output: bool,
}

/// Which of the main closure's pairs one read-off entry keeps.
#[derive(Clone, Copy, Debug)]
enum Keep {
    /// The synonym-resolved raw event: the first `base_pairs` pairs.
    Base,
    /// The pairs within the distance bound, mapping-produced ones only if
    /// `mapped`.
    Within { max_distance: Option<u32>, mapped: bool },
}

impl ReadOff {
    /// The read-off facts of `main`, the closure [`prepare_parts`] computed
    /// under `config`, or `None` if no entry may be read off it.
    fn of(main: &ClosedEvent, config: &Config) -> Option<ReadOff> {
        let exact = config.max_distance.is_none()
            && !main.truncated
            && main.rounds < config.limits.closure.max_rounds;
        exact.then_some(ReadOff {
            stages: config.stages,
            base_pairs: main.base_pairs,
            hierarchy_feeds_mappings: main.hierarchy_feeds_mappings,
            generalized_mapping_output: main.generalized_mapping_output,
        })
    }

    /// How the closure under `tolerance` reads off the main closure, or
    /// `None` if it must be computed.
    fn rule(&self, tolerance: Tolerance) -> Option<Keep> {
        let Tolerance { stages, max_distance } = tolerance;
        let main = self.stages;
        if stages == StageMask::SYNONYM && main.synonym() {
            Some(Keep::Base)
        } else if stages == main && !self.hierarchy_feeds_mappings {
            Some(Keep::Within { max_distance, mapped: true })
        } else if main.mapping()
            && stages == main.without(StageMask::MAPPING)
            && !self.generalized_mapping_output
        {
            Some(Keep::Within { max_distance, mapped: false })
        } else {
            None
        }
    }

    /// The entry `keep` selects from `side`'s main closure. It ran no
    /// rounds of its own and, by the rules, neither truncated nor let the
    /// hierarchy feed its mappings.
    fn read(&self, side: EventSide<'_>, keep: Keep) -> ClosedEvent {
        let main = &side.engine_events[0];
        debug_assert_eq!(main.len(), side.info.len(), "info is aligned with the main closure");
        let (event, info) = match keep {
            Keep::Base => (
                Event::from_pairs(main.pairs()[..self.base_pairs].to_vec()),
                side.info[..self.base_pairs].to_vec(),
            ),
            Keep::Within { max_distance, mapped } => {
                let (pairs, info): (Vec<_>, Vec<_>) = main
                    .pairs()
                    .iter()
                    .zip(side.info)
                    .filter(|(_, p)| {
                        (mapped || !p.via_mapping) && max_distance.is_none_or(|k| p.distance <= k)
                    })
                    .map(|(pair, p)| (*pair, *p))
                    .unzip();
                (Event::from_pairs(pairs), info)
            }
        };
        ClosedEvent {
            event,
            info,
            base_pairs: self.base_pairs,
            rounds: 0,
            truncated: false,
            hierarchy_feeds_mappings: false,
            generalized_mapping_output: self.generalized_mapping_output
                && matches!(keep, Keep::Within { mapped: true, .. }),
        }
    }
}

/// Computes the event-side semantic pass for `event` under `config` into a
/// self-contained artifact that owns a copy of the raw event. This is the
/// single source of truth for publication-side semantics:
/// [`crate::SToPSS::publish_detailed`] runs the same pass inline,
/// borrowing the event instead of copying it.
pub fn prepare_event(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedEvent {
    let parts = prepare_parts(event, source, config, interner);
    PreparedEvent {
        raw: event.clone(),
        engine_events: parts.engine_events,
        info: parts.info,
        derived_events: parts.derived_events,
        closure_pairs: parts.closure_pairs,
        truncated: parts.truncated,
        read_off: parts.read_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_ontology::Ontology;
    use stopss_types::EventBuilder;

    fn world() -> (Interner, Ontology, Vec<Event>) {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();
        let events = vec![
            EventBuilder::new(&mut i).term("credential", "phd").build(),
            EventBuilder::new(&mut i).term("credential", "degree").build(),
            EventBuilder::new(&mut i).term("credential", "other").build(),
        ];
        (i, o, events)
    }

    #[test]
    fn prepare_flattened_carries_closure_and_provenance() {
        let (i, o, events) = world();
        let prepared = prepare_event(&events[0], &o, &Config::default(), &i);
        assert_eq!(prepared.raw, events[0]);
        assert_eq!(prepared.engine_events.len(), 1);
        assert_eq!(prepared.derived_events, 1);
        assert_eq!(prepared.closure_pairs, 3, "phd + graduate_degree + degree");
        assert_eq!(prepared.info.len(), 3, "pair provenance aligned with the closed event");
        assert!(!prepared.truncated);
    }

    #[test]
    fn tolerance_classes_are_shared_and_lazy() {
        let (i, o, events) = world();
        let prepared = prepare_event(&events[0], &o, &Config::default(), &i);
        let mut tiers = prepared.tier_cache();
        assert_eq!(tiers.class_count(), 0, "classes fill on demand only");
        let (side, lim) = (prepared.event_side(), ClosureLimits::default());
        let a = tiers.tolerance_class(&Tolerance::bounded(1), side, &o, 2003, &i, &lim).clone();
        // Same class again: served from the cache.
        tiers.tolerance_class(&Tolerance::bounded(1), side, &o, 2003, &i, &lim);
        assert_eq!(tiers.class_count(), 1, "equal classes share one closure");
        // Equivalent tolerances (hierarchy off ≡ distance 0) collapse.
        let bounded_zero = Tolerance { stages: StageMask::all(), max_distance: Some(0) };
        let c = tiers.tolerance_class(&bounded_zero, side, &o, 2003, &i, &lim).event.clone();
        let no_hierarchy = Tolerance::stages(StageMask::all().without(StageMask::HIERARCHY));
        let d = tiers.tolerance_class(&no_hierarchy, side, &o, 2003, &i, &lim);
        assert_eq!(c, d.event);
        assert_eq!(tiers.class_count(), 2, "verify classes collapse equivalent tolerances");
        // The cached closure equals a fresh oracle-side closure.
        let fresh = semantic_closure(&prepared.raw, &o, StageMask::all(), Some(1), 2003, &i, &lim);
        assert_eq!(a.event, fresh.event);
        assert_eq!(a.truncated, fresh.truncated);
    }
}
