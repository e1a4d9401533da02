//! The detachable event-side semantic front-end.
//!
//! Everything Figure 1 does to a *publication* — synonym canonicalization,
//! the bounded hierarchy/mapping closure, event materialization — depends
//! only on the event, the ontology, and the configuration; never on which
//! subscriptions are registered. The companion paper "I know what you
//! mean" frames exactly this split: semantic enrichment is a
//! per-publication transform, matching is the per-subscription fan-out.
//! This module computes that transform once, into a [`PreparedEvent`]
//! artifact, so a detached caller (the broker's batched publish path)
//! hands the matcher only the engine-match + verify work.
//!
//! [`SemanticFrontEnd`] is the detachable handle: a snapshot of the
//! configuration plus shared ontology/interner references, cheap to clone
//! out of a matcher so callers (e.g. the broker) can run the event-side
//! pass detached from the matcher entirely — against one consistent
//! config/ontology snapshot, while control ops swap new snapshots in
//! underneath (the epoch-snapshot control plane; staleness is caught by
//! the `frontend_epoch` check at publish time).
//!
//! # The tier cache
//!
//! The engine events are not the only event-side work a publication
//! induces. Two back-end obligations are *also* pure functions of the
//! event, the ontology and a tolerance — yet they used to be recomputed
//! per matched candidate:
//!
//! * **Tolerance verification**: a subscriber whose effective tolerance
//!   differs from the system-wide one is re-checked by closing the raw
//!   event under *their* tolerance and matching — one full closure per
//!   candidate, even though candidates sharing a tolerance share the
//!   closure.
//! * **Provenance classification**: [`crate::classify_match`] re-derives
//!   the synonym-only and synonym+hierarchy closures per candidate, then
//!   linearly re-closes the event once per candidate hierarchy distance
//!   (up to [`CLASSIFY_DISTANCE_CAP`] times).
//!
//! [`TierCache`] hoists all of it into the per-publication artifact:
//! the classifier's tier closures and one closed event per distinct
//! *verification class* ([`Tolerance::verify_class`]) are computed at
//! most once per publication — lazily on first use, eagerly in the
//! detached stage-1 pass for the classifier tiers (provenance on) *and*
//! for the verification classes registered at subscribe time (the
//! matcher snapshots them into the [`SemanticFrontEnd`] handle) — and
//! shared read-only through `OnceLock`/`RwLock` interior mutability. The
//! minimal hierarchy distance is read straight off the cached closure's
//! [`PairInfo`] ([`classify_with_tiers`]) instead of searched by repeated
//! re-closing. The oracle functions in [`crate::oracle`] are untouched
//! ground truth; byte-identical behaviour is pinned by
//! `tests/tier_cache_differential.rs`.
//!
//! # Reading entries off the main closure
//!
//! Every tier and class is a closure of the same raw event as the main
//! closure [`prepare_event`] already computed, under fewer stages or a
//! distance bound. Where filtering the main closure provably gives the
//! pairs (and per-pair distances) a fresh [`semantic_closure`] would, the
//! cache filters instead of re-running the fixpoint. That needs
//! [`Strategy::GeneralizedEvent`], no system-wide `max_distance`,
//! [`Config::tier_cache`] on, and a main closure that did not truncate and
//! reached its fixpoint in fewer than `max_rounds` rounds (a bounded run
//! can need one round more than the unbounded one). Then, with `S` the
//! main closure's stages:
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
//! Every other entry (other stage subsets, a system-wide bound, the
//! rewrite and materialize strategies, a truncated main closure) is
//! computed by [`semantic_closure`] as before. The main closure itself
//! stays where it is, in [`PreparedEvent::engine_events`]`[0]` and
//! [`PreparedEvent::info`]; the cache borrows it through [`EventSide`].

use stopss_types::sync::{Arc, OnceLock, RwLock};

use stopss_ontology::SemanticSource;
use stopss_types::{Event, FxHashMap, Interner, SharedInterner, Subscription};

use crate::closure::{semantic_closure, ClosedEvent, ClosureLimits, PairInfo};
use crate::config::{Config, Strategy};
use crate::oracle::{classify_match, CLASSIFY_DISTANCE_CAP};
use crate::provenance::MatchOrigin;
use crate::strategy::materialize_closure;
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
    /// verification and provenance classification are defined against the
    /// raw event, so it travels with the artifact.
    pub raw: Event,
    /// The events the syntactic engine sees: one flattened closure for
    /// [`Strategy::GeneralizedEvent`] / [`Strategy::SubscriptionRewrite`],
    /// or the materialized derivation lattice (in breadth-first derivation
    /// order) for [`Strategy::MaterializeEvents`].
    pub engine_events: Vec<Event>,
    /// Per-pair derivation provenance of the flattened closure (origin
    /// distance, mapping/hierarchy flags), aligned with
    /// `engine_events[0]`. Empty for the materializing strategy.
    pub info: Vec<PairInfo>,
    /// Derived events fed to the engine (the `derived_events` stat).
    pub derived_events: usize,
    /// Pairs in the closed event (the `closure_pairs` stat; 0 for the
    /// materializing strategy).
    pub closure_pairs: usize,
    /// True if a resource bound clipped the semantic pass.
    pub truncated: bool,
    /// Per-publication closures for tolerance verification and provenance
    /// classification, filled at most once each (see the module docs).
    pub tiers: TierCache,
}

impl PreparedEvent {
    /// This artifact's event side, as [`TierCache`] reads it.
    pub fn event_side(&self) -> EventSide<'_> {
        EventSide { raw: &self.raw, engine_events: &self.engine_events, info: &self.info }
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
/// event. The inline single-matcher publish path uses this directly so it
/// can keep borrowing the caller's event; the detachable
/// [`prepare_event`] wraps it into a self-contained [`PreparedEvent`].
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
    /// See [`PreparedEvent::tiers`]: empty, but told what it may read off
    /// the main closure.
    pub tiers: TierCache,
}

pub(crate) fn prepare_parts(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedParts {
    match config.strategy {
        Strategy::GeneralizedEvent | Strategy::SubscriptionRewrite => {
            // The rewrite strategy moved hierarchy work to subscribe time;
            // its publications run only the synonym and mapping stages.
            let stages = if config.strategy == Strategy::SubscriptionRewrite {
                config.stages.without(StageMask::HIERARCHY)
            } else {
                config.stages
            };
            let closed = semantic_closure(
                event,
                source,
                stages,
                config.max_distance,
                config.now_year,
                interner,
                &config.limits.closure,
            );
            PreparedParts {
                closure_pairs: closed.event.len(),
                truncated: closed.truncated,
                tiers: TierCache { read_off: ReadOff::of(&closed, config), ..TierCache::new() },
                engine_events: vec![closed.event],
                info: closed.info,
                derived_events: 1,
            }
        }
        Strategy::MaterializeEvents => {
            let materialized = materialize_closure(
                event,
                source,
                config.stages,
                config.max_distance,
                config.now_year,
                interner,
                &config.limits,
            );
            PreparedParts {
                derived_events: materialized.events.len(),
                truncated: materialized.truncated,
                engine_events: materialized.events,
                info: Vec::new(),
                closure_pairs: 0,
                tiers: TierCache::new(),
            }
        }
    }
}

/// The per-publication tier cache: every closure the matching back end
/// needs beyond the engine events — the provenance classifier's tier
/// closures and one closed event per distinct verification class — each
/// computed at most once per publication (interior mutability; all
/// methods take `&self` and are safe to call concurrently). See the
/// module docs for why this is event-side work, how it replaces the
/// per-candidate oracle closures, and when an entry is read off the main
/// closure instead of computed.
///
/// One cache serves exactly one `(publication, configuration)` pair: the
/// tier slots memoize the first computation, so callers must not reuse a
/// cache across events or across reconfigurations (the matcher creates
/// one per publication; `reconfigure` never recycles artifacts), and every
/// call must pass that publication's [`EventSide`].
#[derive(Debug, Default)]
pub struct TierCache {
    /// What may be read off the publication's main closure; `None` (a
    /// cache from [`TierCache::new`]) computes every entry.
    read_off: Option<ReadOff>,
    /// Classifier tier: the synonym-only closure (never truncated).
    synonym: OnceLock<ClosedEvent>,
    /// Classifier tier: the unbounded synonym∩stages+hierarchy closure,
    /// tagged with the stage mask it was computed under.
    hierarchy: OnceLock<(StageMask, ClosedEvent)>,
    /// One closed event per distinct [`Tolerance::verify_class`] among
    /// the candidates verified so far.
    classes: RwLock<FxHashMap<Tolerance, Arc<ClosedEvent>>>,
}

impl Clone for TierCache {
    fn clone(&self) -> Self {
        TierCache {
            read_off: self.read_off,
            synonym: self.synonym.clone(),
            hierarchy: self.hierarchy.clone(),
            classes: RwLock::new(self.classes.read().clone()),
        }
    }
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
        &self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        self.synonym.get_or_init(|| {
            self.close(
                side,
                Tolerance::stages(StageMask::SYNONYM),
                source,
                now_year,
                interner,
                limits,
            )
        })
    }

    /// The unbounded `hier_stages` closure of the raw event (classifier
    /// tier 3), computed on first use. `hier_stages` must be the same on
    /// every call for a given cache (it is a pure function of the
    /// configuration: `stages ∩ (SYNONYM | HIERARCHY)`).
    pub fn hierarchy_tier(
        &self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        hier_stages: StageMask,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> &ClosedEvent {
        let (mask, closed) = self.hierarchy.get_or_init(|| {
            let tolerance = Tolerance::stages(hier_stages);
            (hier_stages, self.close(side, tolerance, source, now_year, interner, limits))
        });
        debug_assert_eq!(*mask, hier_stages, "one cache serves one configuration");
        let _ = mask;
        closed
    }

    /// The closed event for `tolerance`'s verification class, computed on
    /// first use. Tolerances with equal [`Tolerance::verify_class`] share
    /// one entry, so per-candidate verification costs one closure per
    /// *distinct class* per publication instead of one per candidate.
    pub fn tolerance_class(
        &self,
        tolerance: &Tolerance,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> Arc<ClosedEvent> {
        let class = tolerance.verify_class();
        if let Some(hit) = self.classes.read().get(&class) {
            return Arc::clone(hit);
        }
        // Computed outside the write lock; a concurrent caller racing on
        // the same class wastes one idempotent closure at worst.
        let computed = Arc::new(self.close(side, class, source, now_year, interner, limits));
        let mut classes = self.classes.write();
        Arc::clone(classes.entry(class).or_insert(computed))
    }

    /// The closure of the raw event under `tolerance`: read off the main
    /// closure where the module docs' rules allow it, computed otherwise.
    fn close(
        &self,
        side: EventSide<'_>,
        tolerance: Tolerance,
        source: &dyn SemanticSource,
        now_year: i64,
        interner: &Interner,
        limits: &ClosureLimits,
    ) -> ClosedEvent {
        if let Some(read_off) = self.read_off {
            if let Some(keep) = read_off.rule(tolerance) {
                return read_off.read(side, keep);
            }
        }
        let Tolerance { stages, max_distance } = tolerance;
        semantic_closure(side.raw, source, stages, max_distance, now_year, interner, limits)
    }

    /// Eagerly fills the classifier tiers the configuration will need, so
    /// the detached front-end pays them in stage 1 rather than the match
    /// stage paying them on first use.
    pub fn warm_classifier_tiers(
        &self,
        side: EventSide<'_>,
        source: &dyn SemanticSource,
        config: &Config,
        interner: &Interner,
    ) {
        if config.stages.synonym() {
            self.synonym_tier(side, source, config.now_year, interner, &config.limits.closure);
        }
        if config.stages.hierarchy() {
            let hier_stages =
                config.stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
            self.hierarchy_tier(
                side,
                source,
                hier_stages,
                config.now_year,
                interner,
                &config.limits.closure,
            );
        }
    }

    /// Number of distinct verification classes closed so far.
    pub fn class_count(&self) -> usize {
        self.classes.read().len()
    }

    /// True if the classifier tiers have been computed.
    pub fn classifier_tiers_ready(&self) -> bool {
        self.synonym.get().is_some() || self.hierarchy.get().is_some()
    }
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
        let exact = config.tier_cache
            && config.strategy == Strategy::GeneralizedEvent
            && config.max_distance.is_none()
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

/// Classifies why `sub` matches the raw event of `side` (which it must,
/// under `stages` with unbounded distance) from the publication's tier
/// cache: behaviourally identical to [`crate::classify_match`] — the
/// pinned oracle — but every event-side closure is computed at most once
/// per *publication* instead of per candidate, and the minimal hierarchy
/// distance is read off the cached closure's per-pair [`PairInfo`] instead
/// of searched by re-closing the event once per candidate distance.
///
/// `canonical` must be `sub` rewritten by
/// [`crate::synonym_resolve_subscription`] whenever `stages` enables the
/// synonym stage (and may alias `sub` otherwise); the matcher caches it
/// at subscribe time.
#[allow(clippy::too_many_arguments)] // mirrors the oracle's classify_match
pub fn classify_with_tiers(
    sub: &Subscription,
    canonical: &Subscription,
    side: EventSide<'_>,
    tiers: &TierCache,
    source: &dyn SemanticSource,
    stages: StageMask,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> MatchOrigin {
    let raw = side.raw;
    // 1. Syntactic: raw against raw.
    if sub.matches(raw, interner) {
        return MatchOrigin::Syntactic;
    }
    // 2. Synonyms only: the canonical subscription against the cached
    // synonym tier.
    if stages.synonym() {
        let tier = tiers.synonym_tier(side, source, now_year, interner, limits);
        if canonical.matches(&tier.event, interner) {
            return MatchOrigin::Synonym;
        }
    }
    // 3. Hierarchy (plus synonyms): the smallest sufficient distance,
    // read off the cached unbounded closure.
    if stages.hierarchy() {
        let hier_stages = stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
        let tier = tiers.hierarchy_tier(side, source, hier_stages, now_year, interner, limits);
        if tier.truncated {
            // A truncated closure no longer equals "unbounded pairs
            // filtered by distance": bounded re-closures can reach pairs
            // the truncated run dropped. Defer to the oracle.
            return classify_match(sub, raw, source, stages, now_year, interner, limits);
        }
        let hier_sub = if hier_stages.synonym() { canonical } else { sub };
        if let Some(distance) = min_hierarchy_distance(hier_sub, tier, interner) {
            // Tiers 1–2 not matching guarantees distance ≥ 1; the oracle's
            // linear search also never reports past the cap.
            return MatchOrigin::Hierarchy { distance: distance.clamp(1, CLASSIFY_DISTANCE_CAP) };
        }
    }
    // 4. Anything else needed the mapping stage.
    MatchOrigin::Mapping
}

/// The smallest per-step generalization bound under which `sub` matches
/// the closed event, or `None` if it does not match even unbounded. Each
/// predicate needs only its *closest* satisfying pair (min over pairs);
/// the conjunction needs its *furthest* predicate (max over predicates).
/// Exact because a non-truncated bounded-`k` closure contains precisely
/// the unbounded closure's pairs with minimal derivation distance ≤ `k`.
fn min_hierarchy_distance(
    sub: &Subscription,
    tier: &ClosedEvent,
    interner: &Interner,
) -> Option<u32> {
    let mut overall = 0u32;
    for pred in sub.predicates() {
        let mut best: Option<u32> = None;
        for (idx, (attr, value)) in tier.event.pairs().iter().enumerate() {
            if *attr == pred.attr && pred.eval(value, interner) {
                let distance = tier.info[idx].distance;
                if best.is_none_or(|b| distance < b) {
                    best = Some(distance);
                }
            }
        }
        overall = overall.max(best?);
    }
    Some(overall)
}

/// Computes the event-side semantic pass for `event` under `config`.
///
/// This is the single source of truth for publication-side semantics:
/// [`crate::SToPSS::publish_detailed`] runs it per publication, and
/// [`SemanticFrontEnd`] runs it detached from the matcher. When the
/// configuration tracks provenance through the tier cache, the classifier
/// tiers are warmed here — in the detached stage-1 pass — so the match
/// stage never pays them.
pub fn prepare_event(
    event: &Event,
    source: &dyn SemanticSource,
    config: &Config,
    interner: &Interner,
) -> PreparedEvent {
    let parts = prepare_parts(event, source, config, interner);
    let prepared = PreparedEvent {
        raw: event.clone(),
        engine_events: parts.engine_events,
        info: parts.info,
        derived_events: parts.derived_events,
        closure_pairs: parts.closure_pairs,
        truncated: parts.truncated,
        tiers: parts.tiers,
    };
    if config.track_provenance && config.tier_cache {
        prepared.tiers.warm_classifier_tiers(prepared.event_side(), source, config, interner);
    }
    prepared
}

/// A detachable handle on the event-side semantic machinery: the
/// configuration snapshot plus the shared ontology and interner, and the
/// verification classes registered at snapshot time.
///
/// Cloned out of a matcher (see [`crate::SToPSS::frontend`]) so the
/// publication-side pass can run detached from the matcher — the broker
/// uses this to prepare whole batches ahead of dispatch. It is a
/// point-in-time snapshot: a control op that changes stages/config/
/// ontology bumps `frontend_epoch`, and artifacts prepared on a stale
/// handle are rejected at publish time and re-prepared.
#[derive(Clone)]
pub struct SemanticFrontEnd {
    config: Config,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    /// Distinct [`Tolerance::verify_class`] values among the matcher's
    /// registered subscriptions at snapshot time (see
    /// [`crate::SToPSS::verify_classes`]). Warmed into every artifact's
    /// tier cache during stage 1, alongside the classifier tiers, so the
    /// match stage pays no class closure on first use. Empty by default
    /// (the cache then fills lazily, exactly as before).
    verify_classes: Arc<[Tolerance]>,
    /// The `frontend_epoch` of the matcher snapshot this front-end was
    /// detached from. Artifacts prepared here are valid exactly while the
    /// matcher's front-end epoch still equals this tag (see
    /// [`crate::SToPSS::try_publish_prepared_batch`]); 0 for a front-end
    /// built directly rather than detached from a matcher.
    epoch: u64,
}

impl SemanticFrontEnd {
    /// Creates a front-end over `source` with `config`'s semantics and no
    /// verification classes to warm.
    pub fn new(config: Config, source: Arc<dyn SemanticSource>, interner: SharedInterner) -> Self {
        SemanticFrontEnd { config, source, interner, verify_classes: Arc::from([]), epoch: 0 }
    }

    /// Returns a copy tagged with the matcher snapshot's front-end epoch
    /// (see [`SemanticFrontEnd::epoch`]).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The front-end epoch of the matcher snapshot this handle was
    /// detached from — the staleness tag to pass back to
    /// [`crate::SToPSS::try_publish_prepared_batch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns a copy that warms `classes` into every prepared artifact's
    /// tier cache during stage 1 (only meaningful with
    /// [`Config::tier_cache`] on; lazily-filled behaviour is
    /// byte-identical either way).
    #[must_use]
    pub fn with_verify_classes(mut self, classes: Vec<Tolerance>) -> Self {
        self.verify_classes = classes.into();
        self
    }

    /// Prepares one publication.
    pub fn prepare(&self, event: &Event) -> PreparedEvent {
        self.interner.with(|i| self.prepare_one(event, i))
    }

    /// The per-event stage-1 pass: [`prepare_event`] plus eager warming of
    /// the registered verification classes (the classifier tiers are
    /// warmed inside `prepare_event` itself).
    fn prepare_one(&self, event: &Event, interner: &Interner) -> PreparedEvent {
        let prepared = prepare_event(event, self.source.as_ref(), &self.config, interner);
        if self.config.tier_cache {
            for tolerance in self.verify_classes.iter() {
                prepared.tiers.tolerance_class(
                    tolerance,
                    prepared.event_side(),
                    self.source.as_ref(),
                    self.config.now_year,
                    interner,
                    &self.config.limits.closure,
                );
            }
        }
        prepared
    }

    /// Prepares a batch of publications, in order.
    pub fn prepare_batch(&self, events: &[Event]) -> Vec<PreparedEvent> {
        self.interner.with(|i| events.iter().map(|e| self.prepare_one(e, i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_ontology::Ontology;
    use stopss_types::{EventBuilder, Interner};

    fn world() -> (SharedInterner, Arc<Ontology>, Vec<Event>) {
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
        (SharedInterner::from_interner(i), Arc::new(o), events)
    }

    #[test]
    fn prepare_flattened_carries_closure_and_provenance() {
        let (interner, source, events) = world();
        let frontend = SemanticFrontEnd::new(Config::default(), source, interner);
        let prepared = frontend.prepare(&events[0]);
        assert_eq!(prepared.raw, events[0]);
        assert_eq!(prepared.engine_events.len(), 1);
        assert_eq!(prepared.derived_events, 1);
        assert_eq!(prepared.closure_pairs, 3, "phd + graduate_degree + degree");
        assert_eq!(prepared.info.len(), 3, "pair provenance aligned with the closed event");
        assert!(!prepared.truncated);
    }

    #[test]
    fn prepare_materialize_carries_derivation_lattice() {
        let (interner, source, events) = world();
        let config = Config::default().with_strategy(Strategy::MaterializeEvents);
        let frontend = SemanticFrontEnd::new(config, source, interner);
        let prepared = frontend.prepare(&events[0]);
        // root, root+grad, root+degree, root+both.
        assert_eq!(prepared.derived_events, 4);
        assert_eq!(prepared.engine_events.len(), 4);
        assert_eq!(prepared.closure_pairs, 0);
        assert!(prepared.info.is_empty());
    }

    #[test]
    fn prepare_warms_classifier_tiers_only_with_provenance_on() {
        let (interner, source, events) = world();
        let warm = SemanticFrontEnd::new(Config::default(), source.clone(), interner.clone());
        assert!(warm.prepare(&events[0]).tiers.classifier_tiers_ready());
        let cold_configs =
            [Config::default().with_provenance(false), Config::default().with_tier_cache(false)];
        for config in cold_configs {
            let frontend = SemanticFrontEnd::new(config, source.clone(), interner.clone());
            assert!(!frontend.prepare(&events[0]).tiers.classifier_tiers_ready());
        }
    }

    #[test]
    fn tolerance_classes_are_shared_and_lazy() {
        use crate::tolerance::Tolerance;
        let (interner, source, events) = world();
        let frontend = SemanticFrontEnd::new(Config::default(), source.clone(), interner.clone());
        let prepared = frontend.prepare(&events[0]);
        assert_eq!(prepared.tiers.class_count(), 0, "classes fill on demand only");
        interner.with(|i| {
            let lim = ClosureLimits::default();
            let a = prepared.tiers.tolerance_class(
                &Tolerance::bounded(1),
                prepared.event_side(),
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            // Same class again: served from the cache, same artifact.
            let b = prepared.tiers.tolerance_class(
                &Tolerance::bounded(1),
                prepared.event_side(),
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            assert!(Arc::ptr_eq(&a, &b), "equal classes share one closure");
            assert_eq!(prepared.tiers.class_count(), 1);
            // Equivalent tolerances (hierarchy off ≡ distance 0) collapse.
            let c = prepared.tiers.tolerance_class(
                &Tolerance { stages: StageMask::all(), max_distance: Some(0) },
                prepared.event_side(),
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            let d = prepared.tiers.tolerance_class(
                &Tolerance::stages(StageMask::all().without(StageMask::HIERARCHY)),
                prepared.event_side(),
                source.as_ref(),
                2003,
                i,
                &lim,
            );
            assert!(Arc::ptr_eq(&c, &d), "verify classes collapse equivalent tolerances");
            assert_eq!(prepared.tiers.class_count(), 2);
            // The cached closure equals a fresh oracle-side closure.
            let fresh = semantic_closure(
                &prepared.raw,
                source.as_ref(),
                StageMask::all(),
                Some(1),
                2003,
                i,
                &lim,
            );
            assert_eq!(a.event, fresh.event);
            assert_eq!(a.truncated, fresh.truncated);
        });
        // Cloning an artifact snapshots the cache contents.
        let cloned = prepared.clone();
        assert_eq!(cloned.tiers.class_count(), 2);
        assert!(cloned.tiers.classifier_tiers_ready());
    }

    #[test]
    fn classify_with_tiers_matches_oracle_on_the_taxonomy_world() {
        use crate::oracle::classify_match;
        use stopss_types::{SubId, SubscriptionBuilder};
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();
        let subs = [
            SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1)),
            SubscriptionBuilder::new(&mut i)
                .term_eq("credential", "graduate_degree")
                .build(SubId(2)),
            SubscriptionBuilder::new(&mut i).term_eq("credential", "phd").build(SubId(3)),
        ];
        let event = EventBuilder::new(&mut i).term("credential", "phd").build();
        let lim = ClosureLimits::default();
        let tiers = TierCache::new();
        let side = EventSide { raw: &event, engine_events: &[], info: &[] };
        for sub in &subs {
            let want = classify_match(sub, &event, &o, StageMask::all(), 2003, &i, &lim);
            let got =
                classify_with_tiers(sub, sub, side, &tiers, &o, StageMask::all(), 2003, &i, &lim);
            assert_eq!(got, want, "sub {:?}", sub.id());
        }
    }

    #[test]
    fn prepare_batch_equals_per_event_prepare() {
        let (interner, source, events) = world();
        let batch: Vec<Event> = events.iter().cycle().take(40).cloned().collect();
        let frontend = SemanticFrontEnd::new(Config::default(), source, interner);
        let batched = frontend.prepare_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (got, event) in batched.iter().zip(&batch) {
            let want = frontend.prepare(event);
            assert_eq!(got.raw, want.raw);
            assert_eq!(got.engine_events, want.engine_events);
            assert_eq!(got.derived_events, want.derived_events);
            assert_eq!(got.closure_pairs, want.closure_pairs);
            assert_eq!(got.truncated, want.truncated);
        }
    }
}
