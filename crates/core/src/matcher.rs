//! The S-ToPSS matcher: semantic stages wrapped around a syntactic engine.
//!
//! [`SToPSS`] is the system of Figure 1. Subscriptions enter through the
//! synonym stage ("root subscription") and are indexed in the unmodified
//! syntactic engine under the subscriber's own [`SubId`]; each publication
//! is closed once into one flattened multi-valued event (see
//! [`crate::frontend`]), matched once, and its matches are annotated with
//! provenance.
//!
//! # One engine partition per tolerance class
//!
//! Each verification class ([`Tolerance::verify_class`]) of the effective
//! tolerances has its own engine, holding its subscriptions synonym-resolved
//! only if the class runs the synonym stage. The system class's partition
//! matches the main closure, every other one the event closed under its
//! class (from the [`TierCache`]). So a subscription matches exactly when
//! [`crate::semantic_match`] under its own tolerance accepts the event.
//!
//! # One lock
//!
//! The matcher's state (`MatcherCore`: the configuration, ontology handle,
//! subscription table, engine partitions, candidate scratch, lifetime
//! counters and control epoch) sits behind one `Mutex`. A publication
//! holds it for its whole pass, closure included; a control mutation
//! (`subscribe`, `unsubscribe`, `set_stages`, `reconfigure`, `set_source`)
//! holds it while it mutates the core in place. So publications and
//! control ops run one at a time, in the order they take the lock: a
//! publication that arrives during a control op waits for it
//! (microseconds for a subscribe or unsubscribe, one scan of the
//! subscription table plus the re-indexing of the subscriptions whose
//! synonym-resolved form changed for `set_source`, a whole rebuild for
//! `set_stages` and `reconfigure`), and concurrent in-process publishers
//! take turns. The served broker is one
//! event loop, so nothing in production publishes from two threads.
//!
//! The core carries its `control_epoch`, bumped by **every** control
//! mutation under the lock. It is the linearization token: each mutation
//! returns the epoch it created, and every [`PublishResult`] carries the
//! epoch it matched under, so an interleaved run can be replayed as a
//! sequential stream.
use stopss_matching::MatchingEngine;
use stopss_ontology::SemanticSource;
use stopss_types::sync::{Arc, Mutex};
use stopss_types::{Event, FxHashMap, Interner, Predicate, SharedInterner, SubId, Subscription};

use std::borrow::Cow;

use crate::closure::{synonym_resolve_predicate, synonym_resolve_subscription};
use crate::config::Config;
use crate::frontend::{
    prepare_event, prepare_parts, ClassifierTiers, EventSide, PreparedEvent, TierCache,
};
use crate::oracle::{classify_match, CLASSIFY_DISTANCE_CAP};
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
    /// Always 0: tolerance is matched per engine partition. Kept because
    /// the benchmark package reads it.
    pub verifications: u64,
    /// Always 0, as [`MatcherStats::verifications`].
    pub verify_rejections: u64,
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

/// Dense id of a distinct original subscription predicate (see
/// [`PredTable`]).
type PredId = u32;

/// The distinct predicates of the registered subscriptions, as written
/// (their `original` form), each under a dense [`PredId`].
///
/// An id is refcounted by the subscriptions that hold its predicate, once
/// per subscription however often the predicate repeats in it. Its last
/// release frees it for the next new predicate, as the counting engine
/// recycles its predicate entries, so the table never outgrows the peak
/// number of distinct live predicates. The ids index the provenance memo
/// (see [`Classifier`]).
#[derive(Default)]
struct PredTable {
    /// Each id's predicate; a freed id keeps its last one.
    slots: Vec<Predicate>,
    /// Each live predicate's id and refcount. Interning a known predicate
    /// touches this map alone.
    ids: FxHashMap<Predicate, (PredId, u32)>,
    free: Vec<PredId>,
}

impl PredTable {
    /// The number of ids ever handed out, freed ones included: the length
    /// every per-id array must have.
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn predicate(&self, id: PredId) -> &Predicate {
        &self.slots[id as usize]
    }

    /// `p`'s id, with one more reference.
    fn intern(&mut self, p: Predicate) -> PredId {
        let (id, refcount) = self.ids.entry(p).or_insert_with(|| {
            let id = match self.free.pop() {
                Some(id) => {
                    self.slots[id as usize] = p;
                    id
                }
                None => {
                    self.slots.push(p);
                    let id = PredId::try_from(self.slots.len() - 1);
                    id.expect("invariant: 2^32 distinct predicates (96 GiB) never fit in memory")
                }
            };
            (id, 0)
        });
        *refcount += 1;
        *id
    }

    /// Drops one reference to each of `ids`, freeing those that reach 0.
    fn release(&mut self, ids: &[PredId]) {
        for &id in ids {
            let p = &self.slots[id as usize];
            let (_, refcount) = self.ids.get_mut(p).expect("invariant: a held id is live");
            *refcount -= 1;
            if *refcount == 0 {
                self.ids.remove(p);
                self.free.push(id);
            }
        }
    }
}

/// Predicate ids a [`Hot`] holds without a heap allocation.
const INLINE_IDS: usize = 3;

/// A subscription's distinct original predicates as [`PredId`]s, inline up
/// to [`INLINE_IDS`] of them, in 16 bytes.
///
/// An entry starts `Pending` and is interned when it is first classified
/// (see [`MatcherCore::match_inner`]), not when it is registered: a
/// subscribe between publications finds the id table's hash buckets out of
/// cache, so interning there would add a cache miss per predicate to every
/// subscribe, where a first classification pays it once, in a publication.
enum Hot {
    Pending,
    Inline { len: u8, ids: [PredId; INLINE_IDS] },
    Spilled(Box<Box<[PredId]>>),
}

impl Hot {
    /// Interns the distinct predicates of `preds` in `table`.
    fn interned(preds: &[Predicate], table: &mut PredTable) -> Self {
        let (mut ids, mut len) = ([0; INLINE_IDS], 0);
        let mut rest = preds.iter();
        for &p in rest.by_ref() {
            let id = table.intern(p);
            if ids[..len].contains(&id) {
                table.release(&[id]);
            } else if len < INLINE_IDS {
                ids[len] = id;
                len += 1;
            } else {
                // Sorted and deduplicated, so a long subscription costs
                // O(n log n), not a quadratic scan.
                let mut spilled: Vec<PredId> = ids.into_iter().chain([id]).collect();
                spilled.extend(rest.map(|&p| table.intern(p)));
                spilled.sort_unstable();
                spilled.dedup_by(|a, b| {
                    let repeated = a == b;
                    if repeated {
                        table.release(&[*a]);
                    }
                    repeated
                });
                return Hot::Spilled(Box::new(spilled.into_boxed_slice()));
            }
        }
        Hot::Inline { len: len as u8, ids }
    }

    /// The ids; none while `Pending`.
    fn ids(&self) -> &[PredId] {
        match self {
            Hot::Pending => &[],
            Hot::Inline { len, ids } => &ids[..*len as usize],
            Hot::Spilled(ids) => ids,
        }
    }
}

// 72 bytes: an 80-byte heap block once the allocator's 8-byte header is added.
const _: () = assert!(std::mem::size_of::<Hot>() == 16 && std::mem::size_of::<SubEntry>() == 72);

/// One subscription's entry in the subscription table, boxed under its
/// [`SubId`]. It holds predicates, not `Subscription`s, because the key is
/// already the id. `hot` comes first: it is all that a match reads.
#[repr(C)]
struct SubEntry {
    hot: Hot,
    /// The predicates exactly as the subscriber registered them.
    original: Box<[Predicate]>,
    /// The synonym-resolved (canonical root-term) predicates its partition
    /// indexes, kept for `set_source`'s check of which forms changed —
    /// `None` when they would equal `original` (its tolerance runs no
    /// synonym stage, or no term has a synonym mapping). Provenance never
    /// reads them: it resolves each distinct predicate itself (see
    /// [`Classifier`]).
    canonical: Option<Box<[Predicate]>>,
    /// The tolerance the subscriber asked for (re-clamped on rebuild).
    requested: Tolerance,
    /// `requested` clamped to the current system configuration; its
    /// verification class names the entry's partition.
    effective: Tolerance,
}

impl SubEntry {
    /// Interns the predicates of a `Pending` entry.
    fn intern(&mut self, table: &mut PredTable) {
        if let Hot::Pending = self.hot {
            self.hot = Hot::interned(&self.original, table);
        }
    }
}

/// The engine of one tolerance class: every subscription whose effective
/// tolerance has verification class `class`, indexed in the form
/// [`crate::semantic_match`] matches under it (see the module docs).
struct Partition {
    class: Tolerance,
    engine: Box<dyn MatchingEngine>,
}

/// Per-publication candidate scratch, owned by the matcher so the hot
/// path allocates once per matcher lifetime rather than once per publish.
#[derive(Default)]
struct MatchScratch {
    /// The subscription ids the partitions matched, sorted.
    users: Vec<SubId>,
    /// The provenance memo, indexed by [`PredId`]: each distinct
    /// predicate's levels, stamped with the publication that computed
    /// them (see [`Classifier`]). An entry whose stamp is not the current
    /// publication's is stale, so moving to the next publication resets
    /// the whole memo in O(1). Grown to the id table's length before each
    /// classification pass; never shrunk.
    provenance: Vec<(u64, PredLevel)>,
    /// The stamp of the current publication, bumped by each publication
    /// that classifies a match.
    publication: u64,
}

/// One distinct predicate `p`'s provenance levels for one publication,
/// with `p'` its synonym-resolved form (`p` itself when the system runs no
/// synonym stage).
#[derive(Clone, Copy, Debug, Default)]
struct PredLevel {
    /// The raw event satisfies `p`.
    raw: bool,
    /// The synonym tier satisfies `p'`; false without the synonym stage.
    synonym: bool,
    /// The minimal distance (capped at [`CLASSIFY_DISTANCE_CAP`]) of a
    /// hierarchy-tier pair that satisfies `p'`; [`NO_PAIR`] if no pair
    /// does, or without a usable hierarchy tier. A sentinel rather than an
    /// `Option`, so that a match folds its predicates' distances with a
    /// plain `max`.
    hierarchy: u32,
}

/// [`PredLevel::hierarchy`] of a predicate no hierarchy-tier pair
/// satisfies; larger than any capped distance.
const NO_PAIR: u32 = u32::MAX;

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
/// A match is classified from the [`PredId`]s at the head of its entry:
/// each id indexes the matcher's dense memo, and a distinct predicate's
/// levels are computed the first time the publication meets its id. So a
/// match hashes no predicate and reads neither its subscription's
/// predicates nor the rest of its entry. The tiers come from the
/// publication's [`TierCache`], filled once there is a match to classify.
/// A truncated hierarchy tier no longer equals "unbounded pairs filtered
/// by distance", so a subscription that needs it defers to the oracle.
struct Classifier<'a> {
    side: EventSide<'a>,
    source: &'a dyn SemanticSource,
    config: &'a Config,
    interner: &'a Interner,
    preds: &'a PredTable,
    /// The current publication's memo stamp.
    publication: u64,
}

impl Classifier<'_> {
    /// Why subscription `id` matches the publication, as [`classify_match`]
    /// decides it under the configured stages, with `entry` its
    /// interned entry, `tiers` the publication's classifier tiers and
    /// `memo` the provenance memo.
    fn classify(
        &self,
        id: SubId,
        entry: &SubEntry,
        tiers: ClassifierTiers<'_>,
        memo: &mut [(u64, PredLevel)],
    ) -> MatchOrigin {
        let (mut raw, mut synonym, mut distance) = (true, true, 0);
        for &p in entry.hot.ids() {
            let (stamp, level) = &mut memo[p as usize];
            if *stamp != self.publication {
                *stamp = self.publication;
                *level = self.level(self.preds.predicate(p), tiers);
            }
            raw &= level.raw;
            synonym &= level.synonym;
            distance = distance.max(level.hierarchy);
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
                &Subscription::new(id, entry.original.to_vec()),
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
        match distance {
            NO_PAIR => MatchOrigin::Mapping,
            d => MatchOrigin::Hierarchy { distance: d.clamp(1, CLASSIFY_DISTANCE_CAP) },
        }
    }

    /// `p`'s three levels on this publication. Called once per distinct
    /// predicate per publication, so it stays out of line, away from the
    /// per-match loop of [`Classifier::classify`].
    #[inline(never)]
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
                .map(|(_, info)| info.distance.min(CLASSIFY_DISTANCE_CAP))
                .min()
        });
        PredLevel {
            raw: self.side.raw.satisfies(p, interner),
            synonym: tiers.synonym.is_some_and(|tier| tier.event.satisfies(&resolved, interner)),
            hierarchy: hierarchy.unwrap_or(NO_PAIR),
        }
    }
}

/// The matcher's whole state: configuration, ontology handle,
/// subscription table with its predicate ids, engine partitions (an
/// engine may keep interior scratch, so `match_event` takes `&mut self`),
/// candidate scratch, lifetime counters and the control epoch. [`SToPSS`]
/// keeps it behind its one `Mutex`, and every method here runs on the core
/// that lock hands out, so the core itself holds no lock and no atomic.
struct MatcherCore {
    config: Config,
    source: Arc<dyn SemanticSource>,
    /// One per verification class with a live subscription, in no
    /// particular order.
    partitions: Vec<Partition>,
    scratch: MatchScratch,
    subs: FxHashMap<SubId, Box<SubEntry>>,
    /// The ids of the registered subscriptions' original predicates.
    preds: PredTable,
    stats: MatcherStats,
    /// Bumped by every control mutation (linearization token).
    control_epoch: u64,
}

impl MatcherCore {
    fn new(config: Config, source: Arc<dyn SemanticSource>) -> Self {
        MatcherCore {
            partitions: Vec::new(),
            scratch: MatchScratch::default(),
            config,
            source,
            subs: FxHashMap::default(),
            preds: PredTable::default(),
            stats: MatcherStats::default(),
            control_epoch: 0,
        }
    }

    fn len(&self) -> usize {
        self.subs.len()
    }

    fn contains(&self, id: SubId) -> bool {
        self.subs.contains_key(&id)
    }

    fn subscription(&self, id: SubId) -> Option<Subscription> {
        self.subs.get(&id).map(|e| Subscription::new(id, e.original.to_vec()))
    }

    fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.effective)
    }

    fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.subs.get(&id).map(|e| e.requested)
    }

    /// The partition keys other than the system class (see
    /// [`SToPSS::verify_classes`]).
    fn verify_classes(&self) -> Vec<Tolerance> {
        let system = self.config.system_tolerance().verify_class();
        self.partitions.iter().map(|p| p.class).filter(|class| *class != system).collect()
    }

    /// The position of `class`'s partition, if it has one.
    fn partition(&self, class: Tolerance) -> Option<usize> {
        self.partitions.iter().position(|p| p.class == class)
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
        self.insert_entry(sub, tolerance);
    }

    /// Indexes `sub` in its class's partition, creating the partition if
    /// the class has none, and files its entry; its id must not be
    /// registered.
    fn insert_entry(&mut self, sub: Subscription, requested: Tolerance) {
        let effective = requested.clamp_to(&self.config.system_tolerance());
        // The partition indexes the subscription under the subscriber's
        // own id, in canonical (root-term) space whenever its tolerance
        // runs the synonym stage. `Cow::Borrowed` means resolution was the
        // identity and `original` serves both roles.
        let resolved = if effective.stages.synonym() {
            match synonym_resolve_subscription(&sub, self.source.as_ref()) {
                Cow::Borrowed(_) => None,
                Cow::Owned(resolved) => Some(resolved),
            }
        } else {
            None
        };
        let (id, original) = (sub.id(), sub.predicates().into());
        let canonical = resolved.as_ref().map(|r| r.predicates().into());
        let class = effective.verify_class();
        let k = self.partition(class).unwrap_or_else(|| {
            self.partitions.push(Partition { class, engine: self.config.engine.build() });
            self.partitions.len() - 1
        });
        self.partitions[k].engine.insert(resolved.unwrap_or(sub));
        let entry = SubEntry { hot: Hot::Pending, original, canonical, requested, effective };
        self.subs.insert(id, Box::new(entry));
    }

    /// Removes a subscription, and its partition with it if it was the
    /// last; returns whether it existed.
    fn remove_entry(&mut self, id: SubId) -> bool {
        let Some(entry) = self.subs.remove(&id) else {
            return false;
        };
        self.preds.release(entry.hot.ids());
        let k = self.partition(entry.effective.verify_class());
        let k = k.expect("invariant: a live entry's class has a partition");
        self.partitions[k].engine.remove(id);
        if self.partitions[k].engine.is_empty() {
            self.partitions.swap_remove(k);
        }
        true
    }

    fn reconfigure(&mut self, config: Config) {
        self.config = config;
        self.rebuild_entries();
    }

    /// Swaps the semantic knowledge source (live ontology evolution) and
    /// returns how many subscriptions it re-indexed.
    ///
    /// The only thing an indexed subscription reads from the ontology is
    /// its synonym-resolved form, and only if its tolerance runs the
    /// synonym stage: tolerances depend on the configuration alone, and
    /// hierarchy and mappings are applied to the event. So one pass
    /// re-resolves the predicates of each entry whose tolerance runs the
    /// synonym stage against the new source, and re-indexes only the
    /// entries whose form changed; every other entry keeps its engine
    /// slot.
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
        let mut entries: Vec<(SubId, &SubEntry)> =
            self.subs.iter().map(|(id, e)| (*id, &**e)).collect();
        entries.sort_unstable_by_key(|(_, e)| *e as *const SubEntry as usize);
        let mut stale: Vec<(Subscription, Tolerance)> = entries
            .into_iter()
            .filter(|(_, e)| {
                let indexed = e.canonical.as_ref().unwrap_or(&e.original);
                e.effective.stages.synonym()
                    && e.original
                        .iter()
                        .zip(indexed.iter())
                        .any(|(p, q)| synonym_resolve_predicate(p, source) != *q)
            })
            .map(|(id, e)| (Subscription::new(id, e.original.to_vec()), e.requested))
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

    /// Drops every partition and re-files every entry under the current
    /// configuration, releasing each drained entry's predicate ids before
    /// its rebuild interns them again.
    fn rebuild_entries(&mut self) {
        self.partitions.clear();
        let old: Vec<(Subscription, Tolerance)> = self
            .subs
            .drain()
            .map(|(id, e)| {
                self.preds.release(e.hot.ids());
                let SubEntry { original, requested, .. } = *e;
                (Subscription::new(id, original.into_vec()), requested)
            })
            .collect();
        for (sub, requested) in old {
            self.insert_entry(sub, requested);
        }
    }

    fn publish_inner(&mut self, event_raw: &Event, interner: &Interner) -> PublishResult {
        // `prepare_parts` (not `prepare_event`) so the inline path keeps
        // borrowing the caller's event instead of cloning it into an
        // artifact; the tier cache is a fresh per-publication local,
        // filled lazily only with the closures the partitions and the
        // classifier need.
        let parts = prepare_parts(event_raw, self.source.as_ref(), &self.config, interner);
        self.stats.published += 1;
        self.stats.truncations += u64::from(parts.truncated);
        self.stats.derived_events += parts.derived_events as u64;
        self.stats.closure_pairs += parts.closure_pairs as u64;
        let side =
            EventSide { raw: event_raw, engine_events: &parts.engine_events, info: &parts.info };
        self.match_inner(
            side,
            (parts.derived_events, parts.closure_pairs, parts.truncated),
            parts.tier_cache(),
            interner,
        )
    }

    fn match_prepared(&mut self, prepared: &PreparedEvent, interner: &Interner) -> PublishResult {
        self.match_inner(
            prepared.event_side(),
            (prepared.derived_events, prepared.closure_pairs, prepared.truncated),
            prepared.tier_cache(),
            interner,
        )
    }

    /// The subscription-side half shared by both publish entry points:
    /// every partition matched against its class's closure, then
    /// provenance against the raw event, with the event-side counters
    /// passed through into the result.
    ///
    /// The system class's partition matches the main closure; every other
    /// partition matches its class's closure from `tiers`, the
    /// publication's closure cache, which also serves the classifier's
    /// tiers. Provenance comes from the per-predicate memo of a
    /// [`Classifier`].
    fn match_inner(
        &mut self,
        side: EventSide<'_>,
        (derived_events, closure_pairs, truncated): (usize, usize, bool),
        mut tiers: TierCache,
        interner: &Interner,
    ) -> PublishResult {
        let MatcherCore { config, source, partitions, scratch, subs, preds, .. } = self;
        let (source, config) = (source.as_ref(), &*config);
        let MatchScratch { users, provenance, publication } = scratch;
        let mut result = PublishResult {
            matches: Vec::new(),
            derived_events,
            closure_pairs,
            truncated,
            epoch: self.control_epoch,
        };
        let Some(main) = side.engine_events.first() else {
            return result;
        };
        // Each partition indexes its subscriptions under their own ids
        // and, by the engine contract, reports each at most once; no id is
        // in two partitions, so sorted, matches come out in id order.
        users.clear();
        let system = config.system_tolerance().verify_class();
        let (now_year, limits) = (config.now_year, &config.limits.closure);
        for Partition { class, engine } in partitions.iter_mut() {
            let event = if *class == system {
                main
            } else {
                &tiers.tolerance_class(class, side, source, now_year, interner, limits).event
            };
            engine.match_event(event, interner, users);
        }
        users.sort_unstable();
        debug_assert!(users.windows(2).all(|w| w[0] != w[1]), "a partition emitted duplicate ids");
        result.matches.reserve(users.len());
        if !config.track_provenance || users.is_empty() {
            let unclassified = |&sub: &SubId| Match { sub, origin: MatchOrigin::Unclassified };
            result.matches.extend(users.iter().map(unclassified));
            return result;
        }

        // Every entry head is looked up before any is classified: the
        // probes are independent cache misses, which overlap when issued
        // back to back but not when each waits behind a classification;
        // classification then finds every head in cache. `matched` borrows
        // the table, so it is a local rather than scratch.
        let mut matched: Vec<(SubId, &SubEntry)> = users.iter().map(|id| entry(subs, id)).collect();
        if matched.iter().any(|(_, e)| matches!(e.hot, Hot::Pending)) {
            // Some match is classified for the first time: intern it, then
            // look the matched entries up again.
            for id in users.iter() {
                subs.get_mut(id).expect("invariant: matched ids are live").intern(preds);
            }
            matched = users.iter().map(|id| entry(subs, id)).collect();
        }
        *publication += 1;
        if provenance.len() < preds.len() {
            provenance.resize(preds.len(), (0, PredLevel::default()));
        }
        let tiers = tiers.classifier_tiers(side, source, config, interner);
        let (preds, publication) = (&*preds, *publication);
        let classifier = Classifier { side, source, config, interner, preds, publication };
        result.matches.extend(matched.iter().map(|&(sub, entry)| Match {
            sub,
            origin: classifier.classify(sub, entry, tiers, provenance),
        }));
        result
    }
}

/// Matched subscription `id` with its entry.
fn entry<'a>(subs: &'a FxHashMap<SubId, Box<SubEntry>>, id: &SubId) -> (SubId, &'a SubEntry) {
    (*id, subs.get(id).expect("invariant: matched ids are live"))
}

/// The semantic publish/subscribe matcher.
///
/// Every method takes `&self`. The whole state is one `MatcherCore` behind
/// one `Mutex`, and every method takes it once for the whole call: a
/// publication ([`SToPSS::publish`], [`SToPSS::prepare`],
/// [`SToPSS::match_prepared`], …) runs its closures, partition matches
/// and provenance under it, an accessor reads under it, and
/// a control op (`subscribe`, `unsubscribe`, `set_stages`, `reconfigure`,
/// `set_source`) mutates the core in place under it. So in-process
/// publishers on different threads serialize for their whole publication,
/// and a publication and a control op wait for each other — microseconds
/// for a subscribe or unsubscribe, a scan that re-indexes only the
/// subscriptions whose synonym-resolved form changed for `set_source`, a
/// whole rebuild of every subscription for `set_stages` and
/// `reconfigure`. Every control op returns the `control_epoch` it created
/// (see [`PublishResult::epoch`] for the read side of the linearization
/// token).
///
/// While holding the lock, a method calls only `MatcherCore` methods,
/// never another `SToPSS` method: the lock is not re-entrant, so a second
/// acquisition on the same thread deadlocks at once.
pub struct SToPSS {
    interner: SharedInterner,
    core: Mutex<MatcherCore>,
}

impl SToPSS {
    /// Creates a matcher over `source` using `interner` for all terms.
    pub fn new(config: Config, source: Arc<dyn SemanticSource>, interner: SharedInterner) -> Self {
        SToPSS { interner, core: Mutex::new(MatcherCore::new(config, source)) }
    }

    /// Runs one control mutation that always applies. Returns the new
    /// control epoch.
    fn mutate(&self, op: impl FnOnce(&mut MatcherCore)) -> u64 {
        self.mutate_if(|_| true, op).expect("invariant: an unconditional mutation always applies")
    }

    /// Runs one control mutation under the lock: asks `applies`
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
        let mut core = self.core.lock();
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
        self.core.lock().config
    }

    /// The semantic knowledge source.
    pub fn source(&self) -> Arc<dyn SemanticSource> {
        self.core.lock().source.clone()
    }

    /// Lifetime statistics (a snapshot of the counters).
    pub fn stats(&self) -> MatcherStats {
        self.core.lock().stats
    }

    /// The current control epoch (bumped by every control mutation).
    pub fn control_epoch(&self) -> u64 {
        self.core.lock().control_epoch
    }

    /// The distinct verification classes ([`Tolerance::verify_class`]) of
    /// the registered subscriptions other than the system-wide tolerance's,
    /// in no particular order: the keys of every engine partition but the
    /// system class's. A class leaves with its last subscription.
    pub fn verify_classes(&self) -> Vec<Tolerance> {
        self.core.lock().verify_classes()
    }

    /// Number of user subscriptions.
    pub fn len(&self) -> usize {
        self.core.lock().len()
    }

    /// True if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The original subscription registered under `id`.
    pub fn subscription(&self, id: SubId) -> Option<Subscription> {
        self.core.lock().subscription(id)
    }

    /// The effective (clamped) tolerance of subscription `id`.
    pub fn tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.core.lock().tolerance(id)
    }

    /// The tolerance subscription `id` originally asked for (before
    /// clamping to the system configuration).
    pub fn requested_tolerance(&self, id: SubId) -> Option<Tolerance> {
        self.core.lock().requested_tolerance(id)
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
    /// subscriber tolerance) as **one** control mutation: one lock
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
    /// lock acquisition and one epoch bump, however many ids the
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
    /// switch) and rebuilds every engine partition accordingly.
    /// Returns the control epoch of the switch.
    pub fn set_stages(&self, stages: crate::tolerance::StageMask) -> u64 {
        self.mutate(|core| core.reconfigure(Config { stages, ..core.config }))
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
    /// table that re-indexes only the subscriptions whose tolerance runs
    /// the synonym stage and whose synonym-resolved form changed, so an
    /// is-a or mapping edit re-indexes none; a
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
        let mut core = self.core.lock();
        self.interner.with(|i| core.publish_inner(event, i))
    }

    /// Publishes a batch of events sequentially, returning the match set
    /// of each. Each event takes the lock on its own, so control ops
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
        let core = self.core.lock();
        self.interner.with(|i| prepare_event(event, core.source.as_ref(), &core.config, i))
    }

    /// The subscription-side half of a publication: matches every engine
    /// partition against the prepared artifact's closure under its
    /// tolerance class, and classifies provenance.
    ///
    /// Takes the lock once for the whole match, as a publication does;
    /// the lock is released between [`SToPSS::prepare`] and this call, so
    /// a control op may run in between. No counter accumulates here.
    /// The artifact is matched against the current core, so it must have
    /// been prepared under the current configuration and ontology; no
    /// epoch token checks that.
    pub fn match_prepared(&self, prepared: &PreparedEvent) -> PublishResult {
        let mut core = self.core.lock();
        self.interner.with(|i| core.match_prepared(prepared, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::ClosureLimits;
    use crate::oracle::semantic_match;
    use crate::tolerance::StageMask;
    use stopss_matching::EngineKind;
    use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
    use stopss_types::{EventBuilder, FxHashSet, Operator, SubscriptionBuilder, Symbol};

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
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        // Same predicates, different tolerances.
        let strict = w.sub.with_id(SubId(200));
        matcher.subscribe(w.sub.clone());
        matcher.subscribe_with_tolerance(strict.clone(), Tolerance::syntactic());
        assert_eq!(matcher.verify_classes(), vec![Tolerance::syntactic()], "two partitions");
        let matches = matcher.publish(&w.event);
        assert_eq!(matches.len(), 1, "the syntactic-tolerance subscriber must not match");
        assert_eq!(matches[0].sub, SubId(100));
        // Each subscriber matches exactly as the definition decides under
        // its own tolerance.
        let limits = ClosureLimits::default();
        for (sub, tolerance) in [(&w.sub, Tolerance::full()), (&strict, Tolerance::syntactic())] {
            let want = w
                .interner
                .with(|i| semantic_match(sub, &w.event, &*w.source, &tolerance, 2003, i, &limits));
            assert_eq!(matches.iter().any(|m| m.sub == sub.id()), want, "{:?}", sub.id());
        }
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

    /// The partitions follow their subscriptions: a tolerance class gets
    /// its engine with its first subscription and loses it with its last,
    /// and a synonym edit re-indexes only the subscriptions of partitions
    /// whose class runs the synonym stage.
    #[test]
    fn tolerance_partitions_live_and_reindex_with_their_subscriptions() {
        let w = world();
        let matcher = SToPSS::new(Config::default(), w.source.clone(), w.interner.clone());
        let partitions = |m: &SToPSS| m.core.lock().partitions.len();
        // `university = toronto`, the paper subscription's first predicate.
        let strict = Subscription::new(SubId(200), w.sub.predicates()[..1].to_vec());
        matcher.subscribe(w.sub.clone());
        matcher.subscribe_with_tolerance(strict.clone(), Tolerance::syntactic());
        assert_eq!((partitions(&matcher), matcher.verify_classes().len()), (2, 1));
        // `university`, named by both subscriptions, becomes an alias of
        // `institution`: only the system partition indexes resolved forms.
        let [university, school, institution] =
            ["university", "school", "institution"].map(|s| w.interner.intern(s));
        let mut evolved = (*w.source).clone();
        w.interner.with(|i| evolved.synonyms.add_synonym(institution, university, i)).unwrap();
        assert_eq!(set_source_counted(&matcher, Arc::new(evolved)), 1, "the system partition's");
        let renamed = |to: Symbol| -> Event {
            let rename = |attr| if attr == school { to } else { attr };
            w.event.pairs().iter().map(|&(attr, value)| (rename(attr), value)).collect()
        };
        let (exact, aliased) = (renamed(university), renamed(institution));
        let ids = |m: &SToPSS, e: &Event| m.publish(e).iter().map(|m| m.sub).collect::<Vec<_>>();
        assert_eq!(ids(&matcher, &exact), [SubId(100), SubId(200)]);
        assert_eq!(ids(&matcher, &aliased), [SubId(100)], "the strict one keeps its raw form");
        assert!(matcher.unsubscribe(strict.id()).is_some());
        assert_eq!((partitions(&matcher), matcher.verify_classes().len()), (1, 0));
        // The last subscription drops the system partition too, and the
        // next one creates it again.
        assert!(matcher.unsubscribe(w.sub.id()).is_some());
        assert_eq!(partitions(&matcher), 0);
        assert!(matcher.publish(&aliased).is_empty());
        matcher.subscribe_with_tolerance(strict, Tolerance::syntactic());
        assert_eq!((partitions(&matcher), matcher.verify_classes().len()), (1, 1));
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
            // A syntactic-tolerance subscription creates its class's
            // partition (event 1 names its role raw), and its unsubscribe
            // drops the partition again.
            matcher.subscribe_with_tolerance(dropped.clone(), Tolerance::syntactic());
            assert_eq!(matcher.verify_classes(), [Tolerance::syntactic()], "{name}");
            let want = fresh_on(&empty, &live);
            want.subscribe_with_tolerance(dropped.clone(), Tolerance::syntactic());
            assert!(want.publish(&events[1]).iter().any(|m| m.sub == dropped.id()), "{name}");
            check(want);
            assert!(matcher.unsubscribe(dropped.id()).is_some());
            assert!(matcher.verify_classes().is_empty(), "{name}");
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
            // The last unsubscribe dropped the system partition; the next
            // subscribe builds it again.
            matcher.subscribe(keep[1].clone());
            check(fresh_on(current, &[&keep[1]]));
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
        let mut core = MatcherCore::new(config, Arc::new(o.clone()));
        for sub in &subs {
            core.subscribe(sub.clone());
            core.subs.get_mut(&sub.id()).unwrap().intern(&mut core.preds);
        }
        assert_eq!(core.preds.ids.len(), 3, "one id per distinct predicate");
        let mut tiers = TierCache::new();
        let side = EventSide { raw: &event, engine_events: &[], info: &[] };
        let publication = 1;
        let (preds, config) = (&core.preds, &config);
        let classifier = Classifier { side, source: &o, config, interner: &i, preds, publication };
        let tiers = tiers.classifier_tiers(side, &o, config, &i);
        let mut memo = vec![(0, PredLevel::default()); preds.len()];
        for sub in &subs {
            let want = classify_match(sub, &event, &o, StageMask::all(), 2003, &i, &lim);
            let got = classifier.classify(sub.id(), &core.subs[&sub.id()], tiers, &mut memo);
            assert_eq!(got, want, "sub {:?}", sub.id());
        }
        let computed = memo.iter().filter(|(stamp, _)| *stamp == publication).count();
        assert_eq!(computed, 3, "one level computation per distinct predicate");
    }

    /// The predicate-id table is bounded under churn: a classified
    /// subscription holds one reference per distinct predicate, ids are
    /// released on unsubscribe and on the rebuild a `set_stages` runs, and
    /// freed ids are reused, so five rounds over fresh predicates never
    /// grow the table past one round's distinct count.
    #[test]
    fn predicate_ids_are_released_and_recycled() {
        let mut i = Interner::new();
        let rounds: Vec<Vec<Subscription>> = (0..5)
            .map(|round| {
                (0..20u64)
                    .map(|k| {
                        // Two subscriptions per distinct predicate pair,
                        // the second repeating its first predicate.
                        let value = format!("r{round}v{}", k / 2);
                        let b = SubscriptionBuilder::new(&mut i)
                            .term_eq("k", &value)
                            .term_eq("round", &format!("r{round}"));
                        let b = if k % 2 == 1 { b.term_eq("k", &value) } else { b };
                        b.build(SubId(k))
                    })
                    .collect()
            })
            .collect();
        // Each round's event matches all of that round's subscriptions.
        let events: Vec<Event> = (0..5)
            .map(|round| {
                let b = EventBuilder::new(&mut i).term("round", &format!("r{round}"));
                (0..10).fold(b, |b, v| b.term("k", &format!("r{round}v{v}"))).build()
            })
            .collect();
        let source = Arc::new(Ontology::new("churn"));
        let matcher = SToPSS::new(Config::default(), source, SharedInterner::from_interner(i));
        let live = |m: &SToPSS| {
            let core = m.core.lock();
            (core.preds.ids.len(), core.preds.ids.values().map(|(_, refs)| refs).sum::<u32>())
        };
        // Per round: 10 `k` values and one `round` value.
        let peak = 11;
        for (round, (subs, event)) in rounds.iter().zip(&events).enumerate() {
            for sub in subs {
                matcher.subscribe(sub.clone());
            }
            assert_eq!(live(&matcher), (0, 0), "round {round}: nothing classified yet");
            assert_eq!(matcher.publish(event).len(), 20, "round {round}");
            // One reference per subscription and distinct predicate.
            assert_eq!(live(&matcher), (peak, 40), "round {round}: classified");
            matcher.set_stages(StageMask::syntactic());
            assert_eq!(live(&matcher), (0, 0), "round {round}: the rebuild released them");
            matcher.set_stages(StageMask::all());
            assert_eq!(matcher.publish(event).len(), 20, "round {round}");
            assert_eq!(live(&matcher), (peak, 40), "round {round}: classified again");
            for sub in subs {
                assert!(matcher.unsubscribe(sub.id()).is_some());
            }
        }
        let core = matcher.core.lock();
        assert!(core.preds.ids.is_empty(), "no live id after the last unsubscribe");
        assert_eq!(core.preds.free.len(), core.preds.len());
        assert!(core.preds.len() <= peak, "ids must be reused, got {}", core.preds.len());
        assert!(core.scratch.provenance.len() <= peak);
    }
}
