//! The S-ToPSS matcher: semantic stages wrapped around a syntactic engine.
//!
//! [`SToPSS`] is the system of Figure 1. Subscriptions enter through the
//! synonym stage ("root subscription"); publications run the configured
//! strategy (flattened closure, event materialization, or pre-expanded
//! subscriptions) and the resulting candidates are filtered by each
//! subscriber's information-loss tolerance and annotated with provenance.
//!
//! # Epoch-snapshot control plane
//!
//! The matcher is split into an immutable snapshot (`MatcherCore`: the
//! configuration, ontology handle, subscription table, and syntactic
//! engine) behind an atomically swapped `Arc`, plus shared lifetime
//! counters. The publish path resolves one snapshot `Arc` per publication
//! and never takes a write lock; control-plane mutations (`subscribe`,
//! `unsubscribe`, `set_stages`, `reconfigure`, `set_source`) serialize on
//! a control mutex, *fork* the current snapshot off to the side, mutate
//! the fork, and publish it with one pointer swap. In-flight publications
//! finish against the epoch they started under.
//!
//! Two epochs live inside every snapshot, so a reader resolves state and
//! version in a single `Arc`:
//!
//! * `control_epoch` — bumped by **every** control mutation. It is the
//!   linearization token: each mutation returns the epoch it created, and
//!   every [`PublishResult`] carries the epoch it matched under, so an
//!   interleaved run can be replayed as a sequential stream.
//! * `frontend_epoch` — bumped only by mutations that invalidate detached
//!   [`SemanticFrontEnd`] artifacts (`set_stages`, `reconfigure`,
//!   `set_source`). Subscribing does not bump it: the stage-1 warm set is
//!   an optimization and tolerance classes fill lazily during matching.
use stopss_matching::MatchingEngine;
use stopss_ontology::SemanticSource;
use stopss_types::sync::atomic::{AtomicU64, Ordering};
use stopss_types::sync::{Arc, Mutex, RwLock};
use stopss_types::{Event, FxHashMap, Interner, SharedInterner, SubId, Subscription};

use std::borrow::Cow;

use crate::closure::synonym_resolve_subscription;
use crate::config::{Config, Strategy};
use crate::frontend::{
    classify_with_tiers, prepare_event, prepare_parts, EventSide, PreparedEvent, SemanticFrontEnd,
    TierCache,
};
use crate::oracle::{classify_match, semantic_match};
use crate::provenance::{Match, MatchOrigin};
use crate::strategy::expand_subscription;
use crate::tolerance::Tolerance;

/// Counters accumulated across the matcher's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatcherStats {
    /// Publications processed.
    pub published: u64,
    /// Derived events fed to the engine (materializing strategy counts
    /// every derived event; the others count one per publication).
    pub derived_events: u64,
    /// Total pairs in closed events (flattened strategies).
    pub closure_pairs: u64,
    /// Publications whose semantic processing hit a resource bound.
    pub truncations: u64,
    /// Per-candidate tolerance verifications performed.
    pub verifications: u64,
    /// Candidates rejected by per-subscription tolerance.
    pub verify_rejections: u64,
    /// Subscriptions whose rewrite expansion was clipped by
    /// `max_rewrites`.
    pub rewrite_truncations: u64,
}

/// The lifetime counters behind relaxed atomics, so the match path can
/// accumulate under `&self` — concurrent publishers on one matcher add
/// without any lock. Relaxed ordering suffices: counters are monotone
/// sums with no cross-counter invariant read concurrently; snapshots
/// taken between publications reproduce the single-threaded numbers
/// exactly (atomic adds commute).
///
/// The counters live *outside* the swapped snapshots, shared by every
/// [`MatcherCore`] incarnation via `Arc`, so statistics survive
/// control-plane swaps without a carry step.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub(crate) published: AtomicU64,
    pub(crate) derived_events: AtomicU64,
    pub(crate) closure_pairs: AtomicU64,
    pub(crate) truncations: AtomicU64,
    pub(crate) verifications: AtomicU64,
    pub(crate) verify_rejections: AtomicU64,
    pub(crate) rewrite_truncations: AtomicU64,
}

impl AtomicStats {
    /// A plain-value snapshot of every counter.
    pub(crate) fn snapshot(&self) -> MatcherStats {
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
            rewrite_truncations: self.rewrite_truncations.load(Ordering::Relaxed),
        }
    }
}

/// Detailed result of one publication.
#[derive(Clone, Debug)]
pub struct PublishResult {
    /// The matched subscriptions with provenance.
    pub matches: Vec<Match>,
    /// Derived events the engine saw for this publication.
    pub derived_events: usize,
    /// Pairs in the closed event (0 for the materializing strategy).
    pub closure_pairs: usize,
    /// True if a resource bound clipped semantic processing.
    pub truncated: bool,
    /// The control epoch of the snapshot this publication matched
    /// against — the linearization token: the publication observed every
    /// control op that returned an epoch `<= epoch` and none after.
    pub epoch: u64,
}

struct SubEntry {
    /// The subscription exactly as the subscriber registered it.
    original: Subscription,
    /// The synonym-resolved (canonical root-term) form, cached at
    /// subscribe time for the verify and provenance fast paths — `None`
    /// when it would equal `original` (synonym stage off, or no term of
    /// the subscription has a synonym mapping).
    canonical: Option<Subscription>,
    /// The tolerance the subscriber asked for (re-clamped on rebuild).
    requested: Tolerance,
    /// `requested` clamped to the current system configuration.
    effective: Tolerance,
    /// Engine subscriptions this user subscription expanded to.
    engine_ids: Vec<SubId>,
    /// True if candidates must be re-verified against `effective`.
    needs_verify: bool,
}

impl SubEntry {
    /// The synonym-resolved form (aliases `original` when resolution is
    /// the identity).
    fn canonical(&self) -> &Subscription {
        self.canonical.as_ref().unwrap_or(&self.original)
    }

    /// The subscription form the verify oracle would match with under
    /// this entry's effective tolerance.
    fn verify_sub(&self) -> &Subscription {
        if self.effective.stages.synonym() {
            self.canonical()
        } else {
            &self.original
        }
    }
}

/// Per-publication candidate scratch, owned by the matcher so the hot
/// path allocates once per matcher lifetime rather than once per publish.
#[derive(Default)]
struct MatchScratch {
    /// One engine's matches for one derived event.
    engine_out: Vec<SubId>,
    /// Engine subscription ids matched across all derived events.
    candidates: Vec<SubId>,
    /// Deduplicated user subscription ids.
    users: Vec<SubId>,
}

/// The per-publication mutable state of the match path: the syntactic
/// engine (its trait allows interior scratch, so `match_event` takes
/// `&mut self`) and the candidate scratch vectors. Bundled behind one
/// `Mutex` so [`MatcherCore::match_prepared_inner`] can run under `&self`
/// — the matching stage locks once per artifact. This is the *data-plane*
/// mutex; control-plane mutations never touch it except to fork the
/// engine.
struct MatchState {
    engine: Box<dyn MatchingEngine>,
    scratch: MatchScratch,
}

/// One immutable incarnation of the matcher: configuration, ontology
/// handle, subscription table, engine, and the two epochs. Snapshots are
/// never mutated after publication — control ops [`MatcherCore::fork`] a
/// copy, mutate it exclusively, and swap it in. Readers that hold an
/// `Arc<MatcherCore>` observe a frozen, internally consistent matcher.
pub(crate) struct MatcherCore {
    pub(crate) config: Config,
    pub(crate) source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    state: Mutex<MatchState>,
    subs: FxHashMap<SubId, Arc<SubEntry>>,
    engine_to_user: FxHashMap<SubId, SubId>,
    next_engine_id: u64,
    stats: Arc<AtomicStats>,
    /// Distinct [`Tolerance::verify_class`] values among the registered
    /// subscriptions that need per-candidate verification, refcounted so
    /// `frontend()` can hand the detached stage-1 pass the exact class set
    /// to warm (see [`SemanticFrontEnd`]).
    verify_classes: FxHashMap<Tolerance, usize>,
    /// Bumped by every control mutation (linearization token).
    pub(crate) control_epoch: u64,
    /// Bumped by mutations that invalidate detached front-end artifacts.
    pub(crate) frontend_epoch: u64,
}

impl MatcherCore {
    pub(crate) fn new(
        config: Config,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
        stats: Arc<AtomicStats>,
    ) -> Self {
        MatcherCore {
            state: Mutex::new(MatchState {
                engine: config.engine.build(),
                scratch: MatchScratch::default(),
            }),
            config,
            source,
            interner,
            subs: FxHashMap::default(),
            engine_to_user: FxHashMap::default(),
            next_engine_id: 1,
            stats,
            verify_classes: FxHashMap::default(),
            control_epoch: 0,
            frontend_epoch: 0,
        }
    }

    /// Copy-on-write step of a control mutation: clone every index (the
    /// engine via [`MatchingEngine::boxed_clone`], subscription entries by
    /// `Arc`) into a free-standing core the caller may mutate exclusively
    /// before swapping it in. The fork shares the lifetime counters with
    /// its parent, and starts with `control_epoch` already bumped.
    pub(crate) fn fork(&self) -> MatcherCore {
        MatcherCore {
            state: Mutex::new(MatchState {
                engine: self.state.lock().engine.boxed_clone(),
                scratch: MatchScratch::default(),
            }),
            config: self.config,
            source: self.source.clone(),
            interner: self.interner.clone(),
            subs: self.subs.clone(),
            engine_to_user: self.engine_to_user.clone(),
            next_engine_id: self.next_engine_id,
            stats: self.stats.clone(),
            verify_classes: self.verify_classes.clone(),
            control_epoch: self.control_epoch + 1,
            frontend_epoch: self.frontend_epoch,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    pub(crate) fn contains(&self, id: SubId) -> bool {
        self.subs.contains_key(&id)
    }

    pub(crate) fn subscription(&self, id: SubId) -> Option<&Subscription> {
        self.subs.get(&id).map(|e| &e.original)
    }

    pub(crate) fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.effective)
    }

    pub(crate) fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.requested)
    }

    pub(crate) fn verify_classes(&self) -> Vec<Tolerance> {
        self.verify_classes.keys().copied().collect()
    }

    pub(crate) fn subscribe(&mut self, sub: Subscription) {
        self.subscribe_with_tolerance(sub, self.config.system_tolerance());
    }

    pub(crate) fn subscribe_with_tolerance(&mut self, sub: Subscription, tolerance: Tolerance) {
        self.remove_entry(sub.id());
        let entry = self.build_entry(sub, tolerance);
        self.track_verify_class(&entry);
        self.subs.insert(entry.original.id(), Arc::new(entry));
    }

    /// Refcounts the entry's verification class (see
    /// [`SToPSS::verify_classes`]).
    fn track_verify_class(&mut self, entry: &SubEntry) {
        if entry.needs_verify {
            *self.verify_classes.entry(entry.effective.verify_class()).or_insert(0) += 1;
        }
    }

    fn build_entry(&mut self, sub: Subscription, requested: Tolerance) -> SubEntry {
        let system = self.config.system_tolerance();
        let effective = requested.clamp_to(&system);
        let needs_verify = effective != system;

        // Engine subscriptions live in canonical (root-term) space whenever
        // the system runs the synonym stage. The resolved form is kept on
        // the entry so the verify/provenance fast paths never re-resolve
        // per candidate; `Cow::Borrowed` means resolution was the identity
        // and `original` can serve both roles.
        let canonical: Option<Subscription> = if self.config.stages.synonym() {
            match synonym_resolve_subscription(&sub, self.source.as_ref()) {
                Cow::Borrowed(_) => None,
                Cow::Owned(resolved) => Some(resolved),
            }
        } else {
            None
        };
        let engine_sub = canonical.as_ref().unwrap_or(&sub);

        let mut engine_ids = Vec::new();
        match self.config.strategy {
            Strategy::MaterializeEvents | Strategy::GeneralizedEvent => {
                let engine_id = self.alloc_engine_id();
                self.state.get_mut().engine.insert(engine_sub.with_id(engine_id));
                self.engine_to_user.insert(engine_id, sub.id());
                engine_ids.push(engine_id);
            }
            Strategy::SubscriptionRewrite => {
                let use_hierarchy = self.config.stages.hierarchy() && effective.stages.hierarchy();
                let expansion = expand_subscription(
                    engine_sub,
                    self.source.as_ref(),
                    use_hierarchy,
                    effective.max_distance,
                    self.config.limits.max_rewrites,
                );
                if expansion.truncated {
                    // ordering: monotone counter; no reader pairs it
                    // with other state.
                    self.stats.rewrite_truncations.fetch_add(1, Ordering::Relaxed);
                }
                for combo in expansion.combos {
                    let engine_id = self.alloc_engine_id();
                    self.state.get_mut().engine.insert(Subscription::new(engine_id, combo));
                    self.engine_to_user.insert(engine_id, sub.id());
                    engine_ids.push(engine_id);
                }
            }
        }
        SubEntry { original: sub, canonical, requested, effective, engine_ids, needs_verify }
    }

    fn alloc_engine_id(&mut self) -> SubId {
        let id = SubId(self.next_engine_id);
        self.next_engine_id += 1;
        id
    }

    /// Removes a subscription; returns whether it existed.
    pub(crate) fn remove_entry(&mut self, id: SubId) -> bool {
        let Some(entry) = self.subs.remove(&id) else {
            return false;
        };
        if entry.needs_verify {
            let class = entry.effective.verify_class();
            if let Some(count) = self.verify_classes.get_mut(&class) {
                *count -= 1;
                if *count == 0 {
                    self.verify_classes.remove(&class);
                }
            }
        }
        for engine_id in &entry.engine_ids {
            self.state.get_mut().engine.remove(*engine_id);
            self.engine_to_user.remove(engine_id);
        }
        true
    }

    pub(crate) fn set_stages(&mut self, stages: crate::tolerance::StageMask) {
        self.config.stages = stages;
        self.frontend_epoch += 1;
        self.rebuild();
    }

    pub(crate) fn reconfigure(&mut self, config: Config) {
        self.config = config;
        self.frontend_epoch += 1;
        self.state.get_mut().engine = self.config.engine.build();
        self.engine_to_user.clear();
        self.rebuild_entries();
    }

    /// Swaps the semantic knowledge source (live ontology evolution) and
    /// rebuilds every engine subscription: canonical forms and rewrite
    /// expansions depend on the ontology.
    pub(crate) fn set_source(&mut self, source: Arc<dyn SemanticSource>) {
        self.source = source;
        self.frontend_epoch += 1;
        self.rebuild();
    }

    fn rebuild(&mut self) {
        self.state.get_mut().engine.clear();
        self.engine_to_user.clear();
        self.rebuild_entries();
    }

    fn rebuild_entries(&mut self) {
        let old: Vec<(Subscription, Tolerance)> =
            self.subs.drain().map(|(_, e)| (e.original.clone(), e.requested)).collect();
        // Verification classes are recomputed from scratch: effective
        // tolerances (and therefore `needs_verify`) depend on the new
        // system configuration.
        self.verify_classes.clear();
        for (sub, requested) in old {
            let entry = self.build_entry(sub, requested);
            self.track_verify_class(&entry);
            self.subs.insert(entry.original.id(), Arc::new(entry));
        }
    }

    /// A detachable front-end handle for this snapshot, tagged with its
    /// `frontend_epoch` so artifacts it prepares can later be checked for
    /// staleness.
    pub(crate) fn frontend(&self) -> SemanticFrontEnd {
        SemanticFrontEnd::new(self.config, self.source.clone(), self.interner.clone())
            .with_verify_classes(self.verify_classes())
            .with_epoch(self.frontend_epoch)
    }

    pub(crate) fn publish_inner(&self, event_raw: &Event, interner: &Interner) -> PublishResult {
        // ordering: monotone stats counters (here and below); atomic adds
        // commute and no reader couples them to other memory.
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        // `prepare_parts` (not `prepare_event`) so the inline path keeps
        // borrowing the caller's event instead of cloning it into a
        // detached artifact; the tier cache is a fresh per-publication
        // local, filled lazily only if candidates need it.
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
            &parts.tiers,
            interner,
        )
    }

    /// Accounts the event-side counters a prepared artifact carries, then
    /// matches it.
    pub(crate) fn publish_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        // ordering: monotone stats counters; atomic adds commute and no
        // reader couples them to other memory.
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        if prepared.truncated {
            // ordering: monotone stats counters, as above.
            self.stats.truncations.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: monotone stats counters, as above.
        self.stats.derived_events.fetch_add(prepared.derived_events as u64, Ordering::Relaxed);
        self.stats.closure_pairs.fetch_add(prepared.closure_pairs as u64, Ordering::Relaxed);
        self.match_prepared(prepared)
    }

    pub(crate) fn match_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        let interner = self.interner.clone();
        interner.with(|i| self.match_prepared_inner(prepared, i))
    }

    fn match_prepared_inner(&self, prepared: &PreparedEvent, interner: &Interner) -> PublishResult {
        self.match_inner(
            prepared.event_side(),
            (prepared.derived_events, prepared.closure_pairs, prepared.truncated),
            &prepared.tiers,
            interner,
        )
    }

    /// The subscription-side half shared by every publish entry point:
    /// engine matching over the precomputed `engine_events`, tolerance
    /// verification and provenance against the raw event, with the
    /// event-side counters passed through into the result.
    ///
    /// Per-candidate semantic work is served from `tiers` — the
    /// per-publication closure cache — unless [`Config::tier_cache`]
    /// selects the per-candidate oracle path (byte-identical results
    /// either way).
    fn match_inner(
        &self,
        side: EventSide<'_>,
        (derived_events, closure_pairs, truncated): (usize, usize, bool),
        tiers: &TierCache,
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
        state.scratch.candidates.clear();
        for event in side.engine_events {
            state.scratch.engine_out.clear();
            state.engine.match_event(event, interner, &mut state.scratch.engine_out);
            state.scratch.candidates.extend_from_slice(&state.scratch.engine_out);
        }

        // Engine ids → user ids, deduplicated (rewrite fans out one user
        // subscription; materialization feeds many derived events).
        state.scratch.users.clear();
        state.scratch.users.extend(
            state.scratch.candidates.iter().filter_map(|eid| self.engine_to_user.get(eid).copied()),
        );
        state.scratch.users.sort_unstable();
        state.scratch.users.dedup();

        for &user_id in &state.scratch.users {
            let entry =
                self.subs.get(&user_id).expect("invariant: engine ids map to live subscriptions");
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
                classify_with_tiers(
                    &entry.original,
                    entry.canonical(),
                    side,
                    tiers,
                    self.source.as_ref(),
                    self.config.stages,
                    self.config.now_year,
                    interner,
                    &self.config.limits.closure,
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
/// The whole publish path ([`SToPSS::publish`], [`SToPSS::match_prepared`],
/// …) takes `&self` and never blocks on control-plane mutations: each
/// publication resolves one immutable snapshot (`MatcherCore`) and
/// matches against it. Control ops (`subscribe`, `unsubscribe`,
/// `set_stages`, `reconfigure`, `set_source`) also take `&self`: they
/// serialize among themselves on a control mutex, build the next snapshot
/// off to the side, and swap it in atomically — publishers racing a
/// mutation finish against whichever epoch they resolved. Every control
/// op returns the `control_epoch` it created (see [`PublishResult::epoch`]
/// for the read side of the linearization token).
pub struct SToPSS {
    interner: SharedInterner,
    stats: Arc<AtomicStats>,
    /// The current snapshot. The lock is held only long enough to clone
    /// (readers) or store (the control plane) the `Arc` — never across
    /// matching or snapshot construction.
    snapshot: RwLock<Arc<MatcherCore>>,
    /// Serializes control-plane mutations; the publish path never touches
    /// it.
    control: Mutex<()>,
}

impl SToPSS {
    /// Creates a matcher over `source` using `interner` for all terms.
    pub fn new(config: Config, source: Arc<dyn SemanticSource>, interner: SharedInterner) -> Self {
        let stats = Arc::new(AtomicStats::default());
        let core = MatcherCore::new(config, source, interner.clone(), stats.clone());
        SToPSS { interner, stats, snapshot: RwLock::new(Arc::new(core)), control: Mutex::new(()) }
    }

    /// Resolves the current snapshot (one brief read lock, one `Arc`
    /// clone). The returned core is immutable and internally consistent.
    fn resolve(&self) -> Arc<MatcherCore> {
        self.snapshot.read().clone()
    }

    /// Runs one control mutation: serialize, fork the current snapshot,
    /// mutate the fork, swap. Returns the new control epoch.
    fn mutate(&self, f: impl FnOnce(&mut MatcherCore)) -> u64 {
        let _control = self.control.lock();
        let mut next = self.resolve().fork();
        f(&mut next);
        let epoch = next.control_epoch;
        *self.snapshot.write() = Arc::new(next);
        epoch
    }

    /// The interner shared with publishers/subscribers.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// The active configuration (of the current snapshot).
    pub fn config(&self) -> Config {
        self.resolve().config
    }

    /// The semantic knowledge source (of the current snapshot).
    pub fn source(&self) -> Arc<dyn SemanticSource> {
        self.resolve().source.clone()
    }

    /// Lifetime statistics (a snapshot of the atomic counters).
    pub fn stats(&self) -> MatcherStats {
        self.stats.snapshot()
    }

    /// The control epoch of the current snapshot (bumped by every control
    /// mutation).
    pub fn control_epoch(&self) -> u64 {
        self.resolve().control_epoch
    }

    /// The front-end epoch of the current snapshot (bumped by mutations
    /// that invalidate detached [`SemanticFrontEnd`] artifacts:
    /// `set_stages`, `reconfigure`, `set_source`).
    pub fn frontend_epoch(&self) -> u64 {
        self.resolve().frontend_epoch
    }

    /// The distinct verification classes ([`Tolerance::verify_class`])
    /// among registered subscriptions whose effective tolerance differs
    /// from the system-wide one. Snapshot at subscribe time; the detached
    /// front-end warms exactly these classes in stage 1 so the first
    /// publication after a subscribe does not pay the class closure in the
    /// match stage.
    pub fn verify_classes(&self) -> Vec<Tolerance> {
        self.resolve().verify_classes()
    }

    /// Number of user subscriptions.
    pub fn len(&self) -> usize {
        self.resolve().len()
    }

    /// True if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The original subscription registered under `id`.
    pub fn subscription(&self, id: SubId) -> Option<Subscription> {
        self.resolve().subscription(id).cloned()
    }

    /// The effective (clamped) tolerance of subscription `id`.
    pub fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.resolve().tolerance(id)
    }

    /// The tolerance subscription `id` originally asked for (before
    /// clamping to the system configuration).
    pub fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.resolve().requested_tolerance(id)
    }

    /// Registers a subscription with the system-wide tolerance. Returns
    /// the control epoch the registration created.
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
    /// subscriber tolerance) as **one** control mutation: one fork, one
    /// snapshot swap, one epoch bump — the per-subscription cost of the
    /// copy-on-write control plane is paid once per batch instead of once
    /// per subscription. Connection-scale subscribers (the networked
    /// broker's event loop coalesces Subscribe frames per poll turn) would
    /// otherwise pay a full engine clone per subscription, making N
    /// subscriptions O(N²). An empty batch publishes nothing and returns
    /// the current control epoch.
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
    /// or `None` if no such subscription existed (no snapshot is
    /// published in that case).
    pub fn unsubscribe(&self, id: SubId) -> Option<u64> {
        let _control = self.control.lock();
        let cur = self.resolve();
        if !cur.contains(id) {
            return None;
        }
        let mut next = cur.fork();
        next.remove_entry(id);
        let epoch = next.control_epoch;
        *self.snapshot.write() = Arc::new(next);
        Some(epoch)
    }

    /// Switches the enabled stages (the demo's semantic/syntactic mode
    /// switch) and rebuilds every engine subscription accordingly.
    /// Returns the control epoch of the switch.
    pub fn set_stages(&self, stages: crate::tolerance::StageMask) -> u64 {
        self.mutate(|core| core.set_stages(stages))
    }

    /// Replaces the configuration (engine, strategy, stages, …) and
    /// rebuilds all engine state from the stored original subscriptions.
    /// Returns the control epoch of the swap.
    pub fn reconfigure(&self, config: Config) -> u64 {
        self.mutate(|core| core.reconfigure(config))
    }

    /// Swaps the semantic knowledge source — live ontology evolution: new
    /// synonyms, taxonomy growth, or mapping changes take effect for every
    /// publication that starts after the swap, while in-flight
    /// publications finish against the ontology they resolved. Returns
    /// the control epoch of the swap.
    pub fn set_source(&self, source: Arc<dyn SemanticSource>) -> u64 {
        self.mutate(|core| core.set_source(source))
    }

    /// Publishes an event, returning the matched subscriptions.
    pub fn publish(&self, event: &Event) -> Vec<Match> {
        self.publish_detailed(event).matches
    }

    /// Publishes an event, returning matches plus processing counters.
    /// The result's `epoch` names the snapshot the publication matched
    /// against.
    pub fn publish_detailed(&self, event: &Event) -> PublishResult {
        let core = self.resolve();
        let interner = self.interner.clone();
        interner.with(|i| core.publish_inner(event, i))
    }

    /// Publishes a batch of events sequentially, returning the match set
    /// of each. Each event resolves its own snapshot, so control ops
    /// interleave at event granularity.
    pub fn publish_batch(&self, events: &[Event]) -> Vec<Vec<Match>> {
        events.iter().map(|e| self.publish(e)).collect()
    }

    /// A detachable handle on this matcher's event-side semantic machinery
    /// (configuration snapshot + shared ontology/interner + the registered
    /// verification classes to warm), tagged with the snapshot's
    /// `frontend_epoch`. Lets callers run [`SemanticFrontEnd::prepare`]
    /// without borrowing the matcher — the broker prepares whole batches
    /// concurrently with control-plane traffic and checks the tag at match
    /// time (see [`SToPSS::try_publish_prepared_batch`]).
    pub fn frontend(&self) -> SemanticFrontEnd {
        self.resolve().frontend()
    }

    /// Runs the event-side semantic pass for one publication (closure or
    /// event materialization) without touching the engine or any stats.
    pub fn prepare(&self, event: &Event) -> PreparedEvent {
        let core = self.resolve();
        self.interner.with(|i| prepare_event(event, core.source.as_ref(), &core.config, i))
    }

    /// The subscription-side half of a publication: feeds the prepared
    /// artifact's engine events to the syntactic engine, verifies
    /// per-subscription tolerances, and classifies provenance.
    ///
    /// Takes `&self`: the engine + scratch state is locked per artifact
    /// and the counters are atomics, so concurrent callers need no
    /// exclusive borrow. Only the subscription-side counters
    /// (`verifications`, `verify_rejections`) accumulate here; the
    /// event-side counters belong to whoever ran the front-end pass (see
    /// [`SToPSS::publish_prepared`]). The
    /// artifact must have been prepared under this matcher's current
    /// configuration.
    pub fn match_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        self.resolve().match_prepared(prepared)
    }

    /// Publishes a precomputed artifact: accounts the event-side counters
    /// it carries, then matches. Equivalent to
    /// `publish_detailed(&prepared.raw)` when the artifact came from this
    /// matcher's [`SToPSS::frontend`].
    pub fn publish_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        self.resolve().publish_prepared(prepared)
    }

    /// Atomic staleness check + match: resolves one snapshot and, if its
    /// `frontend_epoch` still equals `frontend_epoch` (the tag of the
    /// [`SemanticFrontEnd`] that prepared `prepared`), publishes every
    /// artifact against that snapshot. Returns `None` when the front end
    /// is stale — the caller re-prepares from a fresh
    /// [`SToPSS::frontend`]. The check and the match use the *same*
    /// snapshot, so a control op racing this call either happens entirely
    /// before (stale ⇒ `None`) or entirely after (the batch matches the
    /// pre-op snapshot) — never mid-batch.
    pub fn try_publish_prepared_batch(
        &self,
        prepared: &[PreparedEvent],
        frontend_epoch: u64,
    ) -> Option<Vec<PublishResult>> {
        let core = self.resolve();
        if core.frontend_epoch != frontend_epoch {
            return None;
        }
        Some(prepared.iter().map(|p| core.publish_prepared(p)).collect())
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
    fn paper_flow_matches_under_every_strategy() {
        for strategy in Strategy::ALL {
            for engine in EngineKind::ALL {
                let w = world();
                let config = Config::default().with_strategy(strategy).with_engine(engine);
                let matcher = SToPSS::new(config, w.source, w.interner);
                matcher.subscribe(w.sub);
                let matches = matcher.publish(&w.event);
                assert_eq!(
                    matches.len(),
                    1,
                    "strategy {} engine {} must find the paper's match",
                    strategy.name(),
                    engine.name()
                );
                assert_eq!(matches[0].sub, SubId(100));
                assert_eq!(matches[0].origin, MatchOrigin::Mapping);
            }
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
        let config = Config::default().with_strategy(Strategy::SubscriptionRewrite);
        let matcher = SToPSS::new(config, w.source, w.interner);
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
    fn reconfigure_switches_engine_and_strategy() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub);
        assert_eq!(matcher.publish(&w.event).len(), 1);
        matcher.reconfigure(
            Config::default()
                .with_engine(EngineKind::Trie)
                .with_strategy(Strategy::MaterializeEvents),
        );
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
        assert_eq!(matcher.control_epoch(), 3, "failed unsubscribe leaves the snapshot alone");
        let result = matcher.publish_detailed(&w.event);
        assert_eq!(result.epoch, 3);
        let e4 = matcher.set_stages(StageMask::syntactic());
        assert_eq!(e4, 4);
    }

    /// `frontend_epoch` moves only on front-end-invalidating mutations;
    /// subscribe/unsubscribe leave detached artifacts valid.
    #[test]
    fn frontend_epoch_tracks_invalidating_mutations_only() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner);
        assert_eq!(matcher.frontend_epoch(), 0);
        matcher.subscribe(w.sub.clone());
        matcher.unsubscribe(w.sub.id());
        assert_eq!(matcher.frontend_epoch(), 0, "subscription churn keeps artifacts valid");
        matcher.set_stages(StageMask::syntactic());
        assert_eq!(matcher.frontend_epoch(), 1);
        matcher.reconfigure(Config::default());
        assert_eq!(matcher.frontend_epoch(), 2);
        matcher.set_source(w.source);
        assert_eq!(matcher.frontend_epoch(), 3);
        assert_eq!(matcher.frontend().epoch(), 3, "frontend carries the snapshot's tag");
    }

    /// A stale frontend artifact is refused atomically; a fresh one is
    /// matched.
    /// The detached front end warms exactly the registered non-system
    /// verification classes in stage 1; a class retires with its last
    /// member, and warming never changes results.
    #[test]
    fn frontend_warms_registered_verify_classes_in_stage_1() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        let tolerances =
            [Tolerance::full(), Tolerance::bounded(1), Tolerance::stages(StageMask::SYNONYM)];
        let subs: Vec<Subscription> =
            (0..12u64).map(|k| w.degree_sub.with_id(SubId(10 + k))).collect();
        for (k, sub) in subs.iter().enumerate() {
            matcher.subscribe_with_tolerance(sub.clone(), tolerances[k % 3]);
        }
        // The system tolerance registers no class; the other two do.
        let prepared = matcher.frontend().prepare(&w.phd_event);
        assert_eq!(prepared.tiers.class_count(), 2, "both classes are warmed at prepare time");
        for (k, sub) in subs.iter().enumerate() {
            if k % 3 == 1 {
                matcher.unsubscribe(sub.id());
            }
        }
        let prepared = matcher.frontend().prepare(&w.phd_event);
        assert_eq!(prepared.tiers.class_count(), 1, "unsubscribe retires the class");
        let cold = SemanticFrontEnd::new(Config::default(), w.source, w.interner)
            .prepare_batch(std::slice::from_ref(&w.phd_event));
        let frontend = matcher.frontend();
        let warm = frontend.prepare_batch(std::slice::from_ref(&w.phd_event));
        let from_warm = matcher.try_publish_prepared_batch(&warm, frontend.epoch()).unwrap();
        let from_cold = matcher.try_publish_prepared_batch(&cold, frontend.epoch()).unwrap();
        assert!(!from_warm[0].matches.is_empty());
        assert_eq!(from_warm[0].matches, from_cold[0].matches, "warming is invisible");
    }

    #[test]
    fn try_publish_prepared_batch_checks_staleness() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub);
        let frontend = matcher.frontend();
        let prepared = vec![frontend.prepare(&w.event)];
        let results = matcher
            .try_publish_prepared_batch(&prepared, frontend.epoch())
            .expect("fresh artifact matches");
        assert_eq!(results[0].matches.len(), 1);
        matcher.set_stages(StageMask::syntactic());
        assert!(
            matcher.try_publish_prepared_batch(&prepared, frontend.epoch()).is_none(),
            "stale artifact is refused"
        );
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

    /// A publisher that resolved its snapshot before a control op finishes
    /// against that snapshot: the op's swap does not block or corrupt the
    /// in-flight match.
    #[test]
    fn in_flight_publication_finishes_against_its_epoch() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source, w.interner);
        matcher.subscribe(w.sub.clone());
        let before = matcher.resolve();
        matcher.set_stages(StageMask::syntactic());
        // The retired snapshot still matches semantically.
        let result = matcher.interner.with(|i| before.publish_inner(&w.event, i));
        assert_eq!(result.matches.len(), 1);
        assert_eq!(result.epoch, 1);
        // The current snapshot is syntactic.
        assert!(matcher.publish(&w.event).is_empty());
    }
}
