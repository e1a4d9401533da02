//! The S-ToPSS matcher: semantic stages wrapped around a syntactic engine.
//!
//! [`SToPSS`] is the system of Figure 1. Subscriptions enter through the
//! synonym stage ("root subscription") and are indexed in the unmodified
//! syntactic engine under the subscriber's own [`SubId`]; each publication
//! is closed once into one flattened multi-valued event (see
//! [`crate::frontend`]), matched once, and the resulting candidates are
//! filtered by each subscriber's information-loss tolerance and annotated
//! with provenance.
//!
//! # One-lock control plane
//!
//! The matcher's state (`MatcherCore`: the configuration, ontology handle,
//! subscription table, syntactic engine, lifetime counters and control
//! epoch) sits behind one `RwLock`. A publication holds the read guard for
//! its whole match, so publishers run side by side; a control mutation
//! (`subscribe`, `unsubscribe`, `set_stages`, `reconfigure`, `set_source`)
//! holds the write guard and mutates the core in place. The two wait for
//! each other: a publication that arrives during a control op waits for
//! it (microseconds for a subscribe or unsubscribe, one scan of the
//! subscription table plus the re-indexing of the subscriptions whose
//! synonym-resolved form changed for `set_source`, a whole rebuild for
//! `set_stages` and `reconfigure`), and a control op waits for the
//! publications in flight.
//!
//! The core carries its `control_epoch`, bumped by **every** control
//! mutation under the write guard. It is the linearization token: each
//! mutation returns the epoch it created, and every [`PublishResult`]
//! carries the epoch it matched under, so an interleaved run can be
//! replayed as a sequential stream.
use stopss_matching::MatchingEngine;
use stopss_ontology::SemanticSource;
use stopss_types::sync::atomic::{AtomicU64, Ordering};
use stopss_types::sync::{Arc, Mutex, RwLock};
use stopss_types::{
    Event, FxHashMap, FxHashSet, Interner, Predicate, SharedInterner, SubId, Subscription,
};

use std::borrow::Cow;

use crate::closure::{synonym_resolve_predicate, synonym_resolve_subscription};
use crate::config::Config;
use crate::frontend::{
    prepare_event, prepare_parts, ClassifierTiers, EventSide, PreparedEvent, TierCache,
};
use crate::oracle::{classify_match, semantic_match, CLASSIFY_DISTANCE_CAP};
use crate::provenance::{Match, MatchOrigin};
use crate::tolerance::Tolerance;

/// Counters accumulated across the matcher's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatcherStats {
    /// Publications processed.
    pub published: u64,
    /// Events fed to the engine: one per publication.
    pub derived_events: u64,
    /// Total pairs in closed events.
    pub closure_pairs: u64,
    /// Publications whose semantic processing hit a resource bound.
    pub truncations: u64,
    /// Per-candidate tolerance verifications performed.
    pub verifications: u64,
    /// Candidates rejected by per-subscription tolerance.
    pub verify_rejections: u64,
}

/// The lifetime counters, owned by the [`MatcherCore`]. They are relaxed
/// atomics because publishers share the core's read guard and add to them
/// concurrently under `&self`. Relaxed ordering suffices: counters are
/// monotone sums with no cross-counter invariant read concurrently;
/// snapshots taken between publications reproduce the single-threaded
/// numbers exactly (atomic adds commute).
#[derive(Debug, Default)]
struct AtomicStats {
    published: AtomicU64,
    derived_events: AtomicU64,
    closure_pairs: AtomicU64,
    truncations: AtomicU64,
    verifications: AtomicU64,
    verify_rejections: AtomicU64,
}

impl AtomicStats {
    /// A plain-value snapshot of every counter.
    fn snapshot(&self) -> MatcherStats {
        // ordering: monotone lifetime counters with no cross-counter
        // invariant read concurrently; a snapshot between publications
        // reproduces the single-threaded numbers exactly.
        MatcherStats {
            published: self.published.load(Ordering::Relaxed),
            derived_events: self.derived_events.load(Ordering::Relaxed),
            closure_pairs: self.closure_pairs.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            verifications: self.verifications.load(Ordering::Relaxed),
            verify_rejections: self.verify_rejections.load(Ordering::Relaxed),
        }
    }
}

/// Detailed result of one publication.
#[derive(Clone, Debug)]
pub struct PublishResult {
    /// The matched subscriptions with provenance.
    pub matches: Vec<Match>,
    /// Events the engine saw for this publication (always 1).
    pub derived_events: usize,
    /// Pairs in the closed event.
    pub closure_pairs: usize,
    /// True if a resource bound clipped semantic processing.
    pub truncated: bool,
    /// The control epoch this publication matched under — the
    /// linearization token: the publication observed every
    /// control op that returned an epoch `<= epoch` and none after.
    pub epoch: u64,
}

struct SubEntry {
    /// The subscription exactly as the subscriber registered it.
    original: Subscription,
    /// The synonym-resolved (canonical root-term) form, cached at
    /// subscribe time for the verify fast path — `None` when it would
    /// equal `original` (synonym stage off, or no term of the subscription
    /// has a synonym mapping). Provenance resolves predicates itself, once
    /// per distinct predicate per publication (see [`Classifier`]).
    canonical: Option<Subscription>,
    /// The tolerance the subscriber asked for (re-clamped on rebuild).
    requested: Tolerance,
    /// `requested` clamped to the current system configuration.
    effective: Tolerance,
    /// True if candidates must be re-verified against `effective`.
    needs_verify: bool,
}

impl SubEntry {
    /// The subscription form the verify oracle would match with under
    /// this entry's effective tolerance: the synonym-resolved form
    /// (aliasing `original` when resolution is the identity) if that
    /// tolerance runs the synonym stage.
    fn verify_sub(&self) -> &Subscription {
        match &self.canonical {
            Some(canonical) if self.effective.stages.synonym() => canonical,
            _ => &self.original,
        }
    }
}

/// Per-publication candidate scratch, owned by the matcher so the hot
/// path allocates once per matcher lifetime rather than once per publish.
#[derive(Default)]
struct MatchScratch {
    /// The subscription ids the engine matched, sorted.
    users: Vec<SubId>,
    /// The provenance levels of every distinct predicate classified so far
    /// in this publication (see [`Classifier`]); cleared per publication.
    provenance: FxHashMap<Predicate, PredLevel>,
}

/// One distinct predicate `p`'s provenance levels for one publication,
/// with `p'` its synonym-resolved form (`p` itself when the system runs no
/// synonym stage).
#[derive(Clone, Copy, Debug)]
struct PredLevel {
    /// The raw event satisfies `p`.
    raw: bool,
    /// The synonym tier satisfies `p'`; false without the synonym stage.
    synonym: bool,
    /// The minimal distance of a hierarchy-tier pair that satisfies `p'`;
    /// `None` if no pair does, or without a usable hierarchy tier.
    hierarchy: Option<u32>,
}

/// The provenance classifier of one publication: behaviourally identical
/// to [`classify_match`], the pinned oracle, but priced per distinct
/// predicate rather than per match.
///
/// [`Subscription::matches`] is a conjunction of per-predicate ∃-tests, so
/// each of the oracle's tiers decides a subscription predicate by
/// predicate: Syntactic if every predicate holds on the raw event, else
/// Synonym if every resolved predicate holds on the synonym tier, else
/// Hierarchy at the largest of the per-predicate minimal distances on the
/// hierarchy tier (a non-truncated bounded-`k` closure holds exactly the
/// unbounded closure's pairs at distance ≤ `k`), else Mapping. The levels
/// are not monotone — `Ne` over a synonym-aliased value can hold on the
/// raw event and fail on the synonym tier — so all three are kept.
///
/// Each distinct predicate's levels are computed once per publication into
/// the matcher's scratch memo. The tiers come from the publication's
/// [`TierCache`], filled when the first match is classified and passed in
/// per match, so the cache's class map stays free for verification. A
/// truncated hierarchy tier no longer equals "unbounded pairs filtered by
/// distance", so a subscription that needs it defers to the oracle.
struct Classifier<'a> {
    side: EventSide<'a>,
    source: &'a dyn SemanticSource,
    config: &'a Config,
    interner: &'a Interner,
}

impl Classifier<'_> {
    /// Why `sub` matches the publication (which it must, under the
    /// configured stages with unbounded distance), with `tiers` the
    /// publication's classifier tiers.
    fn classify(
        &self,
        sub: &Subscription,
        tiers: ClassifierTiers<'_>,
        memo: &mut FxHashMap<Predicate, PredLevel>,
    ) -> MatchOrigin {
        let (mut raw, mut synonym, mut distance) = (true, true, Some(0u32));
        for p in sub.predicates() {
            let level = *memo.entry(*p).or_insert_with(|| self.level(p, tiers));
            raw &= level.raw;
            synonym &= level.synonym;
            distance = distance.zip(level.hierarchy).map(|(d, l)| d.max(l));
        }
        if raw {
            return MatchOrigin::Syntactic;
        }
        if synonym {
            return MatchOrigin::Synonym;
        }
        if tiers.hierarchy.is_some_and(|tier| tier.truncated) {
            let Config { stages, now_year, .. } = *self.config;
            let limits = &self.config.limits.closure;
            return classify_match(
                sub,
                self.side.raw,
                self.source,
                stages,
                now_year,
                self.interner,
                limits,
            );
        }
        // Not matching on the raw event guarantees distance ≥ 1; the
        // oracle's linear search also never reports past the cap.
        distance.map_or(MatchOrigin::Mapping, |d| MatchOrigin::Hierarchy {
            distance: d.clamp(1, CLASSIFY_DISTANCE_CAP),
        })
    }

    /// `p`'s three levels on this publication.
    fn level(&self, p: &Predicate, tiers: ClassifierTiers<'_>) -> PredLevel {
        let interner = self.interner;
        let resolved =
            if tiers.synonym.is_some() { synonym_resolve_predicate(p, self.source) } else { *p };
        let hierarchy = tiers.hierarchy.filter(|tier| !tier.truncated).and_then(|tier| {
            tier.event
                .pairs()
                .iter()
                .zip(&tier.info)
                .filter(|((attr, value), _)| {
                    *attr == resolved.attr && resolved.eval(value, interner)
                })
                .map(|(_, info)| info.distance)
                .min()
        });
        PredLevel {
            raw: self.side.raw.satisfies(p, interner),
            synonym: tiers.synonym.is_some_and(|tier| tier.event.satisfies(&resolved, interner)),
            hierarchy,
        }
    }
}

/// The per-publication mutable state of the match path: the syntactic
/// engine (its trait allows interior scratch, so `match_event` takes
/// `&mut self`) and the candidate scratch vectors. Bundled behind one
/// `Mutex` so [`MatcherCore::match_inner`] can run under the shared read
/// guard — the matching stage locks once per artifact, and concurrent
/// publishers take turns here. Control-plane mutations hold the write
/// guard, so they reach the engine through `get_mut` without locking.
struct MatchState {
    engine: Box<dyn MatchingEngine>,
    scratch: MatchScratch,
}

/// The matcher's whole state: configuration, ontology handle,
/// subscription table, engine, lifetime counters and the control epoch.
/// [`SToPSS`] keeps it behind its one `RwLock`: publications read it under
/// the shared guard, control mutations change it in place under the
/// exclusive one, so a reader always sees an internally consistent core.
struct MatcherCore {
    config: Config,
    source: Arc<dyn SemanticSource>,
    state: Mutex<MatchState>,
    subs: FxHashMap<SubId, Box<SubEntry>>,
    stats: AtomicStats,
    /// Bumped by every control mutation (linearization token).
    control_epoch: u64,
}

impl MatcherCore {
    fn new(config: Config, source: Arc<dyn SemanticSource>) -> Self {
        MatcherCore {
            state: Mutex::new(MatchState {
                engine: config.engine.build(),
                scratch: MatchScratch::default(),
            }),
            config,
            source,
            subs: FxHashMap::default(),
            stats: AtomicStats::default(),
            control_epoch: 0,
        }
    }

    fn len(&self) -> usize {
        self.subs.len()
    }

    fn contains(&self, id: SubId) -> bool {
        self.subs.contains_key(&id)
    }

    fn subscription(&self, id: SubId) -> Option<&Subscription> {
        self.subs.get(&id).map(|e| &e.original)
    }

    fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.effective)
    }

    fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.requested)
    }

    /// A cold scan over the subscription table (see
    /// [`SToPSS::verify_classes`]).
    fn verify_classes(&self) -> Vec<Tolerance> {
        let classes: FxHashSet<Tolerance> = self
            .subs
            .values()
            .filter(|e| e.needs_verify)
            .map(|e| e.effective.verify_class())
            .collect();
        classes.into_iter().collect()
    }

    /// Registers `sub` with no tolerance of its own: it asks for full
    /// semantics, which clamps to exactly the system tolerance now and
    /// follows the system through every later `set_stages` and
    /// `reconfigure`.
    fn subscribe(&mut self, sub: Subscription) {
        self.subscribe_with_tolerance(sub, Tolerance::full());
    }

    fn subscribe_with_tolerance(&mut self, sub: Subscription, tolerance: Tolerance) {
        self.remove_entry(sub.id());
        let entry = self.build_entry(sub, tolerance);
        self.subs.insert(entry.original.id(), Box::new(entry));
    }

    fn build_entry(&mut self, sub: Subscription, requested: Tolerance) -> SubEntry {
        let system = self.config.system_tolerance();
        let effective = requested.clamp_to(&system);
        let needs_verify = effective != system;

        // The engine indexes the subscription under the subscriber's own
        // id, in canonical (root-term) space whenever the system runs the
        // synonym stage. The resolved form is kept on the entry so the
        // verify/provenance fast paths never re-resolve per candidate;
        // `Cow::Borrowed` means resolution was the identity and `original`
        // can serve both roles.
        let canonical: Option<Subscription> = if self.config.stages.synonym() {
            match synonym_resolve_subscription(&sub, self.source.as_ref()) {
                Cow::Borrowed(_) => None,
                Cow::Owned(resolved) => Some(resolved),
            }
        } else {
            None
        };
        let engine_sub = canonical.clone().unwrap_or_else(|| sub.clone());
        self.state.get_mut().engine.insert(engine_sub);
        SubEntry { original: sub, canonical, requested, effective, needs_verify }
    }

    /// Removes a subscription; returns whether it existed.
    fn remove_entry(&mut self, id: SubId) -> bool {
        if self.subs.remove(&id).is_none() {
            return false;
        }
        self.state.get_mut().engine.remove(id);
        true
    }

    fn set_stages(&mut self, stages: crate::tolerance::StageMask) {
        self.config.stages = stages;
        self.state.get_mut().engine.clear();
        self.rebuild_entries();
    }

    fn reconfigure(&mut self, config: Config) {
        self.config = config;
        self.state.get_mut().engine = self.config.engine.build();
        self.rebuild_entries();
    }

    /// Swaps the semantic knowledge source (live ontology evolution) and
    /// returns how many subscriptions it re-indexed.
    ///
    /// The only thing an indexed subscription reads from the ontology is
    /// its synonym-resolved form: tolerances depend on the configuration
    /// alone, and hierarchy and mappings are applied to the event. So one
    /// pass re-resolves each entry's predicates against the new source and
    /// re-indexes only the entries whose form changed; every other entry
    /// keeps its engine slot.
    fn set_source(&mut self, source: Arc<dyn SemanticSource>) -> usize {
        self.source = source;
        if !self.config.stages.synonym() {
            // Every entry is indexed in its original form.
            return 0;
        }
        let source = self.source.as_ref();
        // The scan is bound by memory latency: in hash order every entry
        // and its predicate buffer is a cache miss. Visiting them in
        // address order turns most of those misses into forward reads;
        // the gain is largest for entries subscribed together, which sit
        // together on the heap, and smaller where other allocations
        // interleave with them.
        let mut entries: Vec<&SubEntry> = self.subs.values().map(|e| &**e).collect();
        entries.sort_unstable_by_key(|e| *e as *const SubEntry as usize);
        let mut stale: Vec<(Subscription, Tolerance)> = entries
            .into_iter()
            .filter(|e| {
                let indexed = e.canonical.as_ref().unwrap_or(&e.original);
                e.original
                    .predicates()
                    .iter()
                    .zip(indexed.predicates())
                    .any(|(p, q)| synonym_resolve_predicate(p, source) != *q)
            })
            .map(|e| (e.original.clone(), e.requested))
            .collect();
        // Re-index in id order, so the engine's slot layout does not
        // depend on addresses.
        stale.sort_unstable_by_key(|(sub, _)| sub.id());
        let reindexed = stale.len();
        for (sub, requested) in stale {
            self.subscribe_with_tolerance(sub, requested);
        }
        reindexed
    }

    fn rebuild_entries(&mut self) {
        let old: Vec<(Subscription, Tolerance)> =
            self.subs.drain().map(|(_, e)| (e.original.clone(), e.requested)).collect();
        for (sub, requested) in old {
            let entry = self.build_entry(sub, requested);
            self.subs.insert(entry.original.id(), Box::new(entry));
        }
    }

    fn publish_inner(&self, event_raw: &Event, interner: &Interner) -> PublishResult {
        // ordering: monotone stats counters (here and below); atomic adds
        // commute and no reader couples them to other memory.
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        // `prepare_parts` (not `prepare_event`) so the inline path keeps
        // borrowing the caller's event instead of cloning it into an
        // artifact; the tier cache is a fresh per-publication local,
        // filled lazily only if candidates need it.
        let parts = prepare_parts(event_raw, self.source.as_ref(), &self.config, interner);
        if parts.truncated {
            // ordering: monotone stats counters, as above.
            self.stats.truncations.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: monotone stats counters, as above.
        self.stats.derived_events.fetch_add(parts.derived_events as u64, Ordering::Relaxed);
        self.stats.closure_pairs.fetch_add(parts.closure_pairs as u64, Ordering::Relaxed);
        let side =
            EventSide { raw: event_raw, engine_events: &parts.engine_events, info: &parts.info };
        self.match_inner(
            side,
            (parts.derived_events, parts.closure_pairs, parts.truncated),
            parts.tier_cache(),
            interner,
        )
    }

    fn match_prepared(&self, prepared: &PreparedEvent, interner: &Interner) -> PublishResult {
        self.match_inner(
            prepared.event_side(),
            (prepared.derived_events, prepared.closure_pairs, prepared.truncated),
            prepared.tier_cache(),
            interner,
        )
    }

    /// The subscription-side half shared by both publish entry points:
    /// engine matching over the precomputed closed event, tolerance
    /// verification and provenance against the raw event, with the
    /// event-side counters passed through into the result.
    ///
    /// Per-candidate semantic work is served from `tiers` — the
    /// publication's closure cache — and provenance from the per-predicate
    /// memo of a [`Classifier`], unless [`Config::tier_cache`] selects the
    /// per-candidate oracle path (byte-identical results either way).
    fn match_inner(
        &self,
        side: EventSide<'_>,
        (derived_events, closure_pairs, truncated): (usize, usize, bool),
        mut tiers: TierCache,
        interner: &Interner,
    ) -> PublishResult {
        let mut result = PublishResult {
            matches: Vec::new(),
            derived_events,
            closure_pairs,
            truncated,
            epoch: self.control_epoch,
        };
        // One lock per publication: engine and scratch are used together
        // for the whole matching pass.
        let mut state = self.state.lock();
        let state = &mut *state;
        state.scratch.provenance.clear();
        // The engine indexes subscriptions under their own ids and, by its
        // contract, reports each at most once; sorted, matches come out in
        // id order. The event side holds one event, the closure.
        state.scratch.users.clear();
        if let Some(event) = side.engine_events.first() {
            state.engine.match_event(event, interner, &mut state.scratch.users);
        }
        state.scratch.users.sort_unstable();
        debug_assert!(
            state.scratch.users.windows(2).all(|w| w[0] != w[1]),
            "engine emitted duplicate ids"
        );
        result.matches.reserve(state.scratch.users.len());

        let (source, config) = (self.source.as_ref(), &self.config);
        let classifier = Classifier { side, source, config, interner };
        for &user_id in &state.scratch.users {
            let entry =
                self.subs.get(&user_id).expect("invariant: engine ids are live subscriptions");
            if entry.needs_verify {
                // ordering: monotone stats counter; no reader pairs it
                // with other state.
                self.stats.verifications.fetch_add(1, Ordering::Relaxed);
                let ok = if self.config.tier_cache {
                    // One closure per distinct tolerance class per
                    // publication, then a plain conjunctive match.
                    let class = tiers.tolerance_class(
                        &entry.effective,
                        side,
                        self.source.as_ref(),
                        self.config.now_year,
                        interner,
                        &self.config.limits.closure,
                    );
                    entry.verify_sub().matches(&class.event, interner)
                } else {
                    semantic_match(
                        &entry.original,
                        side.raw,
                        self.source.as_ref(),
                        &entry.effective,
                        self.config.now_year,
                        interner,
                        &self.config.limits.closure,
                    )
                };
                if !ok {
                    // ordering: monotone stats counter; no reader pairs
                    // it with other state.
                    self.stats.verify_rejections.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let origin = if !self.config.track_provenance {
                MatchOrigin::Unclassified
            } else if self.config.tier_cache {
                let classifier_tiers = tiers.classifier_tiers(side, source, config, interner);
                classifier.classify(
                    &entry.original,
                    classifier_tiers,
                    &mut state.scratch.provenance,
                )
            } else {
                classify_match(
                    &entry.original,
                    side.raw,
                    self.source.as_ref(),
                    self.config.stages,
                    self.config.now_year,
                    interner,
                    &self.config.limits.closure,
                )
            };
            result.matches.push(Match { sub: user_id, origin });
        }
        result
    }
}

/// The semantic publish/subscribe matcher.
///
/// Every method takes `&self`. The whole state is one `MatcherCore` behind
/// one `RwLock`: the publish path ([`SToPSS::publish`],
/// [`SToPSS::match_prepared`], …) and every accessor hold the read guard
/// for the whole call, and the control ops (`subscribe`, `unsubscribe`,
/// `set_stages`, `reconfigure`, `set_source`) hold the write guard and
/// mutate the core in place. So a control op waits for the publications
/// in flight, and a publication waits for the control op in flight —
/// microseconds for a subscribe or unsubscribe, a scan that re-indexes
/// only the subscriptions whose synonym-resolved form changed for
/// `set_source`, a whole rebuild of every subscription for `set_stages`
/// and `reconfigure`. Every control op returns the `control_epoch` it
/// created (see [`PublishResult::epoch`] for the read side of the
/// linearization token).
///
/// Each publication, accessor and control op acquires the guard once and,
/// while holding it, calls only `MatcherCore` methods, never another
/// `SToPSS` method: the lock prefers writers, so a second read
/// acquisition on a thread that already holds one deadlocks as soon as a
/// control op queues between the two.
pub struct SToPSS {
    interner: SharedInterner,
    core: RwLock<MatcherCore>,
}

impl SToPSS {
    /// Creates a matcher over `source` using `interner` for all terms.
    pub fn new(config: Config, source: Arc<dyn SemanticSource>, interner: SharedInterner) -> Self {
        SToPSS { interner, core: RwLock::new(MatcherCore::new(config, source)) }
    }

    /// Runs one control mutation that always applies. Returns the new
    /// control epoch.
    fn mutate(&self, op: impl FnOnce(&mut MatcherCore)) -> u64 {
        self.mutate_if(|_| true, op).expect("invariant: an unconditional mutation always applies")
    }

    /// Runs one control mutation under the write guard: asks `applies`
    /// about the current core (`false` changes nothing and returns
    /// `None`), then bumps the control epoch and runs `op` on the core in
    /// place. Returns the new control epoch. An `op` that panicked would
    /// leave the core half-mutated; control ops only panic on a broken
    /// invariant.
    fn mutate_if(
        &self,
        applies: impl FnOnce(&MatcherCore) -> bool,
        op: impl FnOnce(&mut MatcherCore),
    ) -> Option<u64> {
        let mut core = self.core.write();
        if !applies(&core) {
            return None;
        }
        core.control_epoch += 1;
        op(&mut core);
        Some(core.control_epoch)
    }

    /// The interner shared with publishers/subscribers.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.core.read().config
    }

    /// The semantic knowledge source.
    pub fn source(&self) -> Arc<dyn SemanticSource> {
        self.core.read().source.clone()
    }

    /// Lifetime statistics (a snapshot of the atomic counters).
    pub fn stats(&self) -> MatcherStats {
        self.core.read().stats.snapshot()
    }

    /// The current control epoch (bumped by every control mutation).
    pub fn control_epoch(&self) -> u64 {
        self.core.read().control_epoch
    }

    /// The distinct verification classes ([`Tolerance::verify_class`])
    /// among registered subscriptions whose effective tolerance differs
    /// from the system-wide one, in no particular order. A cold scan over
    /// the subscription table; the publish path never asks for it.
    pub fn verify_classes(&self) -> Vec<Tolerance> {
        self.core.read().verify_classes()
    }

    /// Number of user subscriptions.
    pub fn len(&self) -> usize {
        self.core.read().len()
    }

    /// True if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The original subscription registered under `id`.
    pub fn subscription(&self, id: SubId) -> Option<Subscription> {
        self.core.read().subscription(id).cloned()
    }

    /// The effective (clamped) tolerance of subscription `id`.
    pub fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.core.read().tolerance(id)
    }

    /// The tolerance subscription `id` originally asked for (before
    /// clamping to the system configuration).
    pub fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.core.read().requested_tolerance(id)
    }

    /// Registers a subscription with no tolerance of its own: it matches
    /// under the system-wide tolerance, and keeps following it through
    /// later `set_stages` and `reconfigure` calls. Returns the control
    /// epoch the registration created.
    pub fn subscribe(&self, sub: Subscription) -> u64 {
        self.mutate(|core| core.subscribe(sub))
    }

    /// Registers a subscription with a subscriber-specific tolerance
    /// (clamped to the system configuration — a subscriber can opt out of
    /// semantics, never into more than the system allows). Returns the
    /// control epoch the registration created.
    pub fn subscribe_with_tolerance(&self, sub: Subscription, tolerance: Tolerance) -> u64 {
        self.mutate(|core| core.subscribe_with_tolerance(sub, tolerance))
    }

    /// Registers a whole batch of subscriptions (each with an optional
    /// subscriber tolerance) as **one** control mutation: one write-guard
    /// acquisition and one epoch bump for the whole batch, so publishers
    /// wait once per batch instead of once per subscription. The networked
    /// broker's event loop coalesces Subscribe frames per poll turn into
    /// this call. An empty batch changes nothing and returns the current
    /// control epoch.
    pub fn subscribe_batch(&self, subs: Vec<(Subscription, Option<Tolerance>)>) -> u64 {
        if subs.is_empty() {
            return self.control_epoch();
        }
        self.mutate(|core| {
            for (sub, tolerance) in subs {
                match tolerance {
                    Some(t) => core.subscribe_with_tolerance(sub, t),
                    None => core.subscribe(sub),
                }
            }
        })
    }

    /// Removes a subscription; returns the control epoch of the removal,
    /// or `None` if no such subscription existed (the epoch stays as it
    /// was in that case).
    pub fn unsubscribe(&self, id: SubId) -> Option<u64> {
        self.unsubscribe_batch(&[id])
    }

    /// Removes a whole batch of subscriptions as **one** control
    /// mutation — the removal twin of [`SToPSS::subscribe_batch`]: one
    /// write-guard acquisition and one epoch bump, however many ids the
    /// batch names. Ids that name no subscription are skipped; returns the
    /// control epoch of the removal, or `None` (changing nothing) when
    /// none of them existed.
    pub fn unsubscribe_batch(&self, ids: &[SubId]) -> Option<u64> {
        self.mutate_if(
            |core| ids.iter().any(|id| core.contains(*id)),
            |core| {
                for id in ids {
                    core.remove_entry(*id);
                }
            },
        )
    }

    /// Switches the enabled stages (the demo's semantic/syntactic mode
    /// switch) and rebuilds every engine subscription accordingly.
    /// Returns the control epoch of the switch.
    pub fn set_stages(&self, stages: crate::tolerance::StageMask) -> u64 {
        self.mutate(|core| core.set_stages(stages))
    }

    /// Replaces the configuration (engine, stages, …) and
    /// rebuilds all engine state from the stored original subscriptions.
    /// Returns the control epoch of the swap.
    pub fn reconfigure(&self, config: Config) -> u64 {
        self.mutate(|core| core.reconfigure(config))
    }

    /// Swaps the semantic knowledge source — live ontology evolution: new
    /// synonyms, taxonomy growth, or mapping changes take effect for every
    /// publication that starts after the swap, while in-flight
    /// publications finish against the ontology they started with (the
    /// swap waits for them). The swap is one scan of the subscription
    /// table that re-indexes only the subscriptions whose synonym-resolved
    /// form changed, so an is-a or mapping edit re-indexes none; a
    /// publisher that arrives meanwhile waits for that work. Returns the
    /// control epoch of the swap.
    pub fn set_source(&self, source: Arc<dyn SemanticSource>) -> u64 {
        self.mutate(|core| {
            core.set_source(source);
        })
    }

    /// Publishes an event, returning the matched subscriptions.
    pub fn publish(&self, event: &Event) -> Vec<Match> {
        self.publish_detailed(event).matches
    }

    /// Publishes an event, returning matches plus processing counters.
    /// The result's `epoch` names the control epoch the publication
    /// matched under.
    pub fn publish_detailed(&self, event: &Event) -> PublishResult {
        let core = self.core.read();
        self.interner.with(|i| core.publish_inner(event, i))
    }

    /// Publishes a batch of events sequentially, returning the match set
    /// of each. Each event takes the read guard on its own, so control ops
    /// interleave at event granularity.
    pub fn publish_batch(&self, events: &[Event]) -> Vec<Vec<Match>> {
        events.iter().map(|e| self.publish(e)).collect()
    }

    /// The matcher itself, kept so the benchmark package (`benchmark/`)
    /// keeps compiling its `frontend().prepare(event)`; it goes with the
    /// next benchmark-package change. Call [`SToPSS::prepare`] directly.
    #[doc(hidden)]
    pub fn frontend(&self) -> &Self {
        self
    }

    /// Runs the event-side semantic pass for one publication (the
    /// flattened closure) under the current configuration and ontology,
    /// without touching the engine or any stats. With
    /// [`SToPSS::match_prepared`] this is [`SToPSS::publish_detailed`]
    /// split at the stage seam.
    pub fn prepare(&self, event: &Event) -> PreparedEvent {
        let core = self.core.read();
        self.interner.with(|i| prepare_event(event, core.source.as_ref(), &core.config, i))
    }

    /// The subscription-side half of a publication: feeds the prepared
    /// artifact's closed event to the syntactic engine, verifies
    /// per-subscription tolerances, and classifies provenance.
    ///
    /// Takes `&self`: the engine + scratch state is locked per artifact
    /// and the counters are atomics, so concurrent callers need no
    /// exclusive borrow. Only the subscription-side counters
    /// (`verifications`, `verify_rejections`) accumulate here. The
    /// artifact is matched against the current core, so it must have
    /// been prepared under the current configuration and ontology; no
    /// epoch token checks that.
    pub fn match_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        let core = self.core.read();
        self.interner.with(|i| core.match_prepared(prepared, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tolerance::StageMask;
    use stopss_matching::EngineKind;
    use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
    use stopss_types::{EventBuilder, Operator, SubscriptionBuilder};

    /// Builds the paper's world against one plain interner, then shares it.
    struct World {
        interner: SharedInterner,
        source: Arc<Ontology>,
        sub: Subscription,
        event: Event,
        degree_sub: Subscription,
        phd_event: Event,
    }

    fn world() -> World {
        let mut i = Interner::new();
        let mut o = Ontology::new("jobs");
        let university = i.intern("university");
        let school = i.intern("school");
        o.synonyms.add_synonym(university, school, &i).unwrap();
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, &i).unwrap();
        o.taxonomy.add_isa(phd, grad, &i).unwrap();
        let gy = i.intern("graduation_year");
        let pe = i.intern("professional_experience");
        o.mappings
            .register(MappingFunction::new(
                "experience",
                vec![PatternItem { attr: gy, guard: None }],
                vec![Production { attr: pe, expr: Expr::sub(Expr::Now, Expr::Attr(gy)) }],
            ))
            .unwrap();

        let sub = SubscriptionBuilder::new(&mut i)
            .term_eq("university", "toronto")
            .pred("professional_experience", Operator::Ge, 4i64)
            .build(SubId(100));
        let event = EventBuilder::new(&mut i)
            .term("school", "toronto")
            .pair("graduation_year", 1993i64)
            .build();
        let degree_sub =
            SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1));
        let phd_event = EventBuilder::new(&mut i).term("credential", "phd").build();

        World {
            interner: SharedInterner::from_interner(i),
            source: Arc::new(o),
            sub,
            event,
            degree_sub,
            phd_event,
        }
    }

    #[test]
    fn paper_flow_matches_under_every_engine() {
        for engine in EngineKind::ALL {
            let w = world();
            let matcher = SToPSS::new(Config::default().with_engine(engine), w.source, w.interner);
            matcher.subscribe(w.sub);
            let matches = matcher.publish(&w.event);
            assert_eq!(matches.len(), 1, "engine {} must find the paper's match", engine.name());
            assert_eq!(matches[0].sub, SubId(100));
            assert_eq!(matches[0].origin, MatchOrigin::Mapping);
        }
    }

    #[test]
    fn syntactic_mode_finds_nothing_for_the_paper_flow() {
        let w = world();
        let matcher = SToPSS::new(Config::syntactic(), w.source, w.interner);
        matcher.subscribe(w.sub);
        assert!(matcher.publish(&w.event).is_empty());
    }

    #[test]
    fn per_subscription_tolerance_filters_matches() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        // Same predicates, different tolerances.
        let strict = w.sub.with_id(SubId(200));
        matcher.subscribe(w.sub);
        matcher.subscribe_with_tolerance(strict, Tolerance::syntactic());
        let matches = matcher.publish(&w.event);
        assert_eq!(matches.len(), 1, "the syntactic-tolerance subscriber must not match");
        assert_eq!(matches[0].sub, SubId(100));
        assert!(matcher.stats().verifications >= 1);
        assert!(matcher.stats().verify_rejections >= 1);
    }

    #[test]
    fn subscribe_batch_equals_sequential_subscribes() {
        let w = world();
        let batched = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        let sequential = SToPSS::new(Config::default(), w.source, w.interner);
        let strict = w.sub.with_id(SubId(200));
        sequential.subscribe(w.sub.clone());
        sequential.subscribe_with_tolerance(strict.clone(), Tolerance::syntactic());
        sequential.subscribe(w.degree_sub.clone());
        let before = batched.control_epoch();
        assert_eq!(batched.subscribe_batch(Vec::new()), before, "empty batch must not publish");
        let epoch = batched.subscribe_batch(vec![
            (w.sub, None),
            (strict, Some(Tolerance::syntactic())),
            (w.degree_sub, None),
        ]);
        assert_eq!(epoch, before + 1, "one batch, one control-epoch bump");
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.publish(&w.event), sequential.publish(&w.event));
        assert_eq!(batched.publish(&w.phd_event), sequential.publish(&w.phd_event));
    }

    #[test]
    fn unsubscribe_batch_is_one_control_mutation() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        let strict = w.sub.with_id(SubId(200));
        matcher.subscribe_batch(vec![(w.sub, None), (strict, None), (w.degree_sub, None)]);
        let before = matcher.control_epoch();
        assert_eq!(matcher.unsubscribe_batch(&[SubId(999)]), None, "nothing to remove");
        assert_eq!(matcher.unsubscribe_batch(&[]), None);
        assert_eq!(matcher.control_epoch(), before, "a no-op batch must not publish");
        let epoch = matcher.unsubscribe_batch(&[SubId(100), SubId(999), SubId(200)]);
        assert_eq!(epoch, Some(before + 1), "one batch, one control-epoch bump");
        assert_eq!(matcher.len(), 1, "only the named subscriptions leave");
        assert!(matcher.publish(&w.event).is_empty());
        assert_eq!(matcher.publish(&w.phd_event).len(), 1, "the degree subscription stays");
    }

    #[test]
    fn distance_bounded_tolerance() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe_with_tolerance(w.degree_sub.clone(), Tolerance::bounded(1));
        // phd is 2 levels below degree: outside a distance-1 tolerance.
        assert!(matcher.publish(&w.phd_event).is_empty());
        matcher.subscribe_with_tolerance(w.degree_sub, Tolerance::bounded(2));
        let matches = matcher.publish(&w.phd_event);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: 2 });
    }

    #[test]
    fn unsubscribe_removes_all_engine_state() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.degree_sub);
        assert_eq!(matcher.len(), 1);
        assert!(matcher.unsubscribe(SubId(1)).is_some());
        assert!(matcher.unsubscribe(SubId(1)).is_none());
        assert!(matcher.publish(&w.phd_event).is_empty());
        assert!(matcher.is_empty());
    }

    #[test]
    fn mode_switch_rebuilds_subscriptions() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub);
        assert_eq!(matcher.publish(&w.event).len(), 1);
        matcher.set_stages(StageMask::syntactic());
        assert!(matcher.publish(&w.event).is_empty(), "syntactic mode after switch");
        matcher.set_stages(StageMask::all());
        assert_eq!(matcher.publish(&w.event).len(), 1, "semantic mode restored");
    }

    #[test]
    fn reconfigure_switches_engine() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub);
        assert_eq!(matcher.publish(&w.event).len(), 1);
        matcher.reconfigure(Config::default().with_engine(EngineKind::Naive));
        assert_eq!(matcher.publish(&w.event).len(), 1, "matches survive reconfiguration");
        assert_eq!(matcher.len(), 1);
    }

    #[test]
    fn provenance_can_be_disabled() {
        let w = world();
        let matcher = SToPSS::new(Config::default().with_provenance(false), w.source, w.interner);
        matcher.subscribe(w.sub);
        let matches = matcher.publish(&w.event);
        assert_eq!(matches[0].origin, MatchOrigin::Unclassified);
    }

    #[test]
    fn stats_accumulate() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub);
        for _ in 0..5 {
            matcher.publish(&w.event);
        }
        assert_eq!(matcher.stats().published, 5);
        assert_eq!(matcher.stats().derived_events, 5);
        assert!(matcher.stats().closure_pairs >= 5);
    }

    /// Every control op bumps `control_epoch` by exactly one and returns
    /// the epoch it created; publications report the epoch they resolved.
    #[test]
    fn control_ops_return_consecutive_epochs() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        assert_eq!(matcher.control_epoch(), 0);
        let e1 = matcher.subscribe(w.sub.clone());
        assert_eq!(e1, 1);
        let e2 = matcher.subscribe_with_tolerance(w.degree_sub, Tolerance::syntactic());
        assert_eq!(e2, 2);
        let e3 = matcher.unsubscribe(SubId(1)).expect("live id");
        assert_eq!(e3, 3);
        assert!(matcher.unsubscribe(SubId(1)).is_none(), "dead id publishes no epoch");
        assert_eq!(matcher.control_epoch(), 3, "failed unsubscribe leaves the epoch alone");
        let result = matcher.publish_detailed(&w.event);
        assert_eq!(result.epoch, 3);
        let e4 = matcher.set_stages(StageMask::syntactic());
        assert_eq!(e4, 4);
    }

    /// `verify_classes()` scans the registered subscriptions: the system
    /// tolerance registers no class, a class retires with its last member,
    /// and the classes follow the system configuration through `set_stages`
    /// and `reconfigure`.
    #[test]
    fn verify_classes_scans_registered_tolerances() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        let classes = |m: &SToPSS| m.verify_classes().into_iter().collect::<FxHashSet<_>>();
        let tolerances =
            [Tolerance::full(), Tolerance::bounded(1), Tolerance::stages(StageMask::SYNONYM)];
        let subs: Vec<Subscription> =
            (0..12u64).map(|k| w.degree_sub.with_id(SubId(10 + k))).collect();
        for (k, sub) in subs.iter().enumerate() {
            matcher.subscribe_with_tolerance(sub.clone(), tolerances[k % 3]);
        }
        let want: FxHashSet<_> = tolerances[1..].iter().map(Tolerance::verify_class).collect();
        assert_eq!(want.len(), 2);
        assert_eq!(classes(&matcher), want, "the system tolerance registers no class");
        for (k, sub) in subs.iter().enumerate() {
            if k % 3 == 1 {
                matcher.unsubscribe(sub.id());
            }
        }
        let synonym_only = FxHashSet::from_iter([tolerances[2].verify_class()]);
        assert_eq!(classes(&matcher), synonym_only, "a class retires with its last member");
        matcher.set_stages(StageMask::syntactic());
        assert!(matcher.verify_classes().is_empty(), "syntactic stages clamp every class away");
        matcher.reconfigure(Config::default());
        assert_eq!(classes(&matcher), synonym_only, "reconfiguring back restores it");
    }

    /// Live ontology evolution: a synonym added after subscribe takes
    /// effect via `set_source` without re-registering subscriptions.
    #[test]
    fn set_source_applies_live_ontology_edits() {
        let mut i = Interner::new();
        let o = Ontology::new("jobs");
        let college = i.intern("college");
        let university = i.intern("university");
        let sub = SubscriptionBuilder::new(&mut i).term_eq("university", "toronto").build(SubId(7));
        let event = EventBuilder::new(&mut i).term("college", "toronto").build();
        let interner = SharedInterner::from_interner(i);
        let matcher = SToPSS::new(Config::default(), Arc::new(o.clone()), interner.clone());
        matcher.subscribe(sub);
        assert!(matcher.publish(&event).is_empty(), "no synonym yet");
        let mut evolved = o;
        interner.with(|i| evolved.synonyms.add_synonym(university, college, i)).unwrap();
        matcher.set_source(Arc::new(evolved));
        assert_eq!(matcher.publish(&event).len(), 1, "new synonym is live");
    }

    /// `SToPSS::set_source`, returning how many subscriptions the swap
    /// re-indexed.
    fn set_source_counted(matcher: &SToPSS, source: Arc<dyn SemanticSource>) -> usize {
        let mut reindexed = 0;
        matcher.mutate(|core| reindexed = core.set_source(source));
        reindexed
    }

    /// An ontology edit that changes one subscription's synonym-resolved
    /// form re-indexes exactly that subscription, in place, and the
    /// matcher then matches as a fresh one built on the new ontology.
    #[test]
    fn ontology_edit_reindexes_changed_forms_in_place() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        matcher.subscribe(w.sub.clone());
        // `university` (and with it its alias `school`) becomes an alias
        // of `institution`: the subscription naming it changes form.
        let [university, school, institution] =
            ["university", "school", "institution"].map(|s| w.interner.intern(s));
        let mut evolved = (*w.source).clone();
        w.interner.with(|i| evolved.synonyms.add_synonym(institution, university, i)).unwrap();
        let evolved = Arc::new(evolved);
        let institution_event: Event = w
            .event
            .pairs()
            .iter()
            .map(|&(attr, value)| (if attr == school { institution } else { attr }, value))
            .collect();
        assert_eq!(matcher.publish(&w.event).len(), 1, "before: school is university");
        assert!(matcher.publish(&institution_event).is_empty(), "before: no institution");
        let epoch = matcher.control_epoch();
        assert_eq!(set_source_counted(&matcher, evolved.clone()), 1, "one form changed");
        assert_eq!(matcher.control_epoch(), epoch + 1);
        let fresh = SToPSS::new(Config::default(), evolved, w.interner.clone());
        fresh.subscribe(w.sub.clone());
        for event in [&w.event, &institution_event] {
            let got = matcher.publish(event);
            assert_eq!(got.len(), 1, "after: both terms are institution");
            assert_eq!(got, fresh.publish(event));
        }
    }

    /// Every kind of control op runs in place: N sequential ops move the
    /// epoch by exactly N, with publications in between.
    #[test]
    fn sequential_control_ops_mutate_in_place() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner);
        let before = matcher.control_epoch();
        let ops: [&dyn Fn() -> Option<u64>; 8] = [
            &|| Some(matcher.subscribe(w.sub.clone())),
            &|| Some(matcher.subscribe_with_tolerance(w.degree_sub.clone(), Tolerance::bounded(1))),
            &|| Some(matcher.subscribe_batch(vec![(w.sub.with_id(SubId(200)), None)])),
            &|| matcher.unsubscribe(SubId(200)),
            &|| Some(matcher.set_stages(StageMask::syntactic())),
            &|| Some(matcher.reconfigure(Config::default().with_engine(EngineKind::Naive))),
            &|| Some(matcher.set_source(w.source.clone())),
            &|| matcher.unsubscribe_batch(&[SubId(100), SubId(1)]),
        ];
        for (k, op) in ops.iter().enumerate() {
            assert_eq!(op(), Some(before + k as u64 + 1), "op {k} bumps the epoch once");
            matcher.publish(&w.event);
        }
        assert_eq!(matcher.control_epoch(), before + ops.len() as u64);
        assert!(matcher.is_empty());
    }

    /// An in-place control op keeps the engine's scratch and epoch stamps:
    /// publish, unsubscribe (freeing a slot and its predicates), subscribe
    /// a different predicate set (which reuses them), then swap a sequence
    /// of sources in place. Each swap re-indexes exactly the subscriptions
    /// whose synonym-resolved form it changes, and afterwards every
    /// event's matches, provenance included, equal a fresh matcher's on
    /// that source. Runs with the synonym stage on and off (where no swap
    /// re-indexes anything), and with small dense ids and with large,
    /// sparse ones (the engine indexes every subscription under the
    /// subscriber's own id).
    fn in_place_ops_keep_engine_scratch_valid(engine: EngineKind) {
        let dense = [1, 2, 3, 4].map(SubId);
        let sparse = [SubId(u64::MAX), SubId(1 << 40), SubId(1 << 63), SubId(3)];
        for ids in [dense, sparse] {
            in_place_ops_keep_engine_scratch_valid_with_ids(engine, ids);
        }
    }

    fn in_place_ops_keep_engine_scratch_valid_with_ids(engine: EngineKind, ids: [SubId; 4]) {
        let mut i = Interner::new();
        let keep = [
            SubscriptionBuilder::new(&mut i).term_eq("city", "toronto").build(ids[0]),
            SubscriptionBuilder::new(&mut i)
                .term_eq("city", "toronto")
                .term_eq("role", "engineer")
                .build(ids[1]),
        ];
        let dropped = SubscriptionBuilder::new(&mut i).term_eq("role", "manager").build(ids[2]);
        let added = SubscriptionBuilder::new(&mut i)
            .term_eq("city", "ottawa")
            .pred("level", Operator::Ge, 3i64)
            .build(ids[3]);
        let events = [
            EventBuilder::new(&mut i).term("city", "toronto").term("role", "engineer").build(),
            EventBuilder::new(&mut i)
                .term("city", "ottawa")
                .term("role", "manager")
                .pair("level", 4i64)
                .build(),
            EventBuilder::new(&mut i).term("town", "ottawa").pair("level", 5i64).build(),
            EventBuilder::new(&mut i).term("city", "toronto").term("role", "developer").build(),
            EventBuilder::new(&mut i).term("city", "ottawa").pair("rank", 4i64).build(),
        ];
        let mut town_alias = Ontology::new("jobs");
        town_alias.synonyms.add_synonym(i.intern("city"), i.intern("town"), &i).unwrap();
        // An alias on a subscribed attribute (`level`, named by `added`)
        // and on a subscribed value (`engineer`, named by `keep[1]`).
        let mut aliased = town_alias.clone();
        aliased.synonyms.add_synonym(i.intern("rank"), i.intern("level"), &i).unwrap();
        aliased.synonyms.add_synonym(i.intern("developer"), i.intern("engineer"), &i).unwrap();
        // An is-a edit changes what matches (event 3 reaches `keep[1]`)
        // without changing any subscription's form.
        let mut isa = town_alias.clone();
        isa.taxonomy.add_isa(i.intern("developer"), i.intern("engineer"), &i).unwrap();
        let mut unnamed = isa.clone();
        unnamed.synonyms.add_synonym(i.intern("nation"), i.intern("country"), &i).unwrap();
        // (source, subscriptions it re-indexes when the synonym stage runs)
        let swaps = [
            // A new alias of a subscribed root leaves every form as it was.
            (Arc::new(town_alias.clone()), 0),
            (Arc::new(aliased.clone()), 2),
            // The swap back removes both aliases.
            (Arc::new(town_alias), 2),
            (Arc::new(isa), 0),
            (Arc::new(unnamed), 0),
        ];
        let interner = SharedInterner::from_interner(i);
        let empty = Arc::new(Ontology::new("jobs"));
        let base = Config::default().with_engine(engine);
        let configs = [base, base.with_stages(StageMask::all().without(StageMask::SYNONYM))];
        for config in configs {
            let name = format!("{} {:?} {:?}", engine.name(), config.stages, ids[0]);
            let fresh_on = |source: &Arc<Ontology>, subs: &[&Subscription]| {
                let fresh = SToPSS::new(config, source.clone(), interner.clone());
                for sub in subs {
                    fresh.subscribe((*sub).clone());
                }
                fresh
            };
            let matcher = SToPSS::new(config, empty.clone(), interner.clone());
            // After a control op, the matcher matches every event as `want`.
            let check = |want: SToPSS| {
                for (e, event) in events.iter().enumerate() {
                    assert_eq!(matcher.publish(event), want.publish(event), "{name}: event {e}");
                }
            };
            for sub in keep.iter().chain([&dropped]) {
                matcher.subscribe(sub.clone());
            }
            for event in events.iter().chain(&events) {
                matcher.publish(event);
            }
            let live = [&keep[0], &keep[1], &added];
            assert!(matcher.unsubscribe(dropped.id()).is_some());
            check(fresh_on(&empty, &live[..2]));
            matcher.subscribe(added.clone());
            check(fresh_on(&empty, &live));
            for (k, (source, reindexed)) in swaps.iter().enumerate() {
                let want = if config.stages.synonym() { *reindexed } else { 0 };
                assert_eq!(set_source_counted(&matcher, source.clone()), want, "{name}: swap {k}");
                let fresh = fresh_on(source, &live);
                let mut matched = 0;
                for (e, event) in events.iter().enumerate() {
                    let got = matcher.publish(event);
                    // The first three events match under every source
                    // while the synonym stage runs.
                    if config.stages.synonym() && e < 3 {
                        assert!(!got.is_empty(), "{name}: swap {k}, event {e} matched nothing");
                    }
                    matched += got.len();
                    assert_eq!(got, fresh.publish(event), "{name}: swap {k}, event {e} diverged");
                }
                assert!(matched > 0, "{name}: swap {k} must match something");
            }
            let current = &swaps.last().unwrap().0;
            for k in 0..live.len() {
                assert!(matcher.unsubscribe(live[k].id()).is_some());
                check(fresh_on(current, &live[k + 1..]));
            }
            assert!(events.iter().all(|event| matcher.publish(event).is_empty()), "{name}");
        }
    }

    #[test]
    fn in_place_ops_keep_engine_scratch_valid_naive() {
        in_place_ops_keep_engine_scratch_valid(EngineKind::Naive);
    }

    #[test]
    fn in_place_ops_keep_engine_scratch_valid_counting() {
        in_place_ops_keep_engine_scratch_valid(EngineKind::Counting);
    }

    #[test]
    fn classifier_matches_oracle_on_the_taxonomy_world() {
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
        let config = Config::default();
        let lim = config.limits.closure;
        let mut tiers = TierCache::new();
        let side = EventSide { raw: &event, engine_events: &[], info: &[] };
        let classifier = Classifier { side, source: &o, config: &config, interner: &i };
        let tiers = tiers.classifier_tiers(side, &o, &config, &i);
        let mut memo = FxHashMap::default();
        for sub in &subs {
            let want = classify_match(sub, &event, &o, StageMask::all(), 2003, &i, &lim);
            assert_eq!(classifier.classify(sub, tiers, &mut memo), want, "sub {:?}", sub.id());
        }
        assert_eq!(memo.len(), 3, "one memo entry per distinct predicate");
    }
}
