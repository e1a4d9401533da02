//! Differential suite for the event-side tier cache.
//!
//! The matcher verifies each candidate with one `sub.matches(closed)`
//! against a cached per-tolerance-class closure, and classifies
//! provenance by reading the minimal hierarchy distance off the cached
//! unbounded closure's `PairInfo` instead of re-closing the event once
//! per candidate distance. The oracle functions (`semantic_match`,
//! `classify_match`) are untouched ground truth, and [`OraclePath`]
//! rebuilds the per-candidate path from them alone, without an engine —
//! so this suite pins the matcher **byte-identical** to it (matches,
//! provenance including `Hierarchy { distance }` values, and aggregated
//! stats) across engines × stage masks × mixed per-subscription
//! tolerances, on job-finder and synthetic workloads, including
//! truncated-closure and distance-cap edge cases.
//!
//! Its second part pins the cache's entries one level down: each
//! classifier tier and verification class, whether read off the main
//! closure or recomputed, equals a fresh `semantic_closure` over every
//! domain × stage mask × closure limit, with a named case per fallback.
//!
//! Its third part pins the memoised provenance classifier, which computes
//! each distinct predicate's levels once per publication, to
//! `classify_match` on a hand-built world, one named case per edge of
//! that decomposition, and counts the resolutions it performs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use s_topss::core::{
    classify_match, prepare_event, semantic_closure, semantic_match, ClosedEvent, ClosureLimits,
    Config, Limits, MatcherStats, PreparedEvent, PublishResult, SToPSS, StageMask, Tolerance,
    CLASSIFY_DISTANCE_CAP,
};
use s_topss::matching::EngineKind;
use s_topss::ontology::domain::NamedMappingSink;
use s_topss::ontology::Ontology;
use s_topss::prelude::{
    Event, EventBuilder, Expr, Guard, Interner, MappingFunction, Match, MatchOrigin, Operator,
    PatternItem, Predicate, Production, SemanticSource, SharedInterner, SubId, Subscription,
    SubscriptionBuilder, Symbol, Value,
};
use s_topss::types::FxHashMap;
use s_topss::workload::{
    geo_fixture, iot_fixture, jobfinder_fixture, market_fixture, synthetic_fixture, Fixture,
    SyntheticWorkload,
};
use stopss_workload::SyntheticConfig;

/// Mixed per-subscription tolerances: several distinct verification
/// classes, including ones that opt out of stages entirely.
fn tolerance_cycle() -> [Tolerance; 6] {
    [
        Tolerance::full(),
        Tolerance::bounded(1),
        Tolerance::bounded(2),
        Tolerance::stages(StageMask::SYNONYM),
        Tolerance::stages(StageMask::SYNONYM.with(StageMask::HIERARCHY)),
        Tolerance::syntactic(),
    ]
}

/// A matcher under `config` and the [`OraclePath`] beside it, both
/// holding `fixture`'s subscriptions with tolerances from the cycle.
fn paths_with_mixed_tolerances(fixture: &Fixture, config: Config) -> (SToPSS, OraclePath) {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    let cycle = tolerance_cycle().into_iter().cycle();
    let subs: Vec<_> = fixture.subscriptions.iter().cloned().zip(cycle).collect();
    for (sub, tolerance) in &subs {
        matcher.subscribe_with_tolerance(sub.clone(), *tolerance);
    }
    let oracle = OraclePath::new(config, fixture.source.clone(), fixture.interner.clone(), subs);
    (matcher, oracle)
}

/// The per-candidate reference path, built from `oracle.rs` alone: no
/// engine, no tier cache, no memo. For each publication it
///
/// 1. takes the subscriptions `semantic_match` accepts under the system
///    tolerance — the engine's candidate set, by definition: the engine
///    matches synonym-resolved subscriptions against the system closure;
/// 2. re-verifies each candidate whose effective tolerance differs from
///    the system one with `semantic_match` under that tolerance;
/// 3. classifies each accepted match with `classify_match`.
///
/// Because step 1 defines the candidates under the system tolerance, this
/// reference shares one divergence with the matcher and cannot see it: a
/// subscription whose own tolerance accepts an event the system tolerance
/// rejects is never a candidate. Operators that synonym resolution
/// preserves never do that; `Ne` and the string patterns do. With `red` a
/// synonym of `crimson`, `color != crimson` registered with
/// `Tolerance::syntactic()` under the default configuration matches the
/// raw `color = red` by `semantic_match` under its own tolerance, yet
/// neither this reference nor `SToPSS::publish` reports it; likewise
/// `title contains "dev"` against `title = developer`, where `developer`
/// is an alias of `engineer`.
struct OraclePath {
    config: Config,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    /// Each subscription with its effective tolerance, in `SubId` order.
    subs: Vec<(Subscription, Tolerance)>,
    /// Lifetime counters, kept as the matcher keeps its own.
    stats: MatcherStats,
}

impl OraclePath {
    /// `subs` pairs each subscription with the tolerance it asks for,
    /// clamped here to the system tolerance as the matcher clamps it.
    fn new(
        config: Config,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
        subs: Vec<(Subscription, Tolerance)>,
    ) -> Self {
        let system = config.system_tolerance();
        let mut subs: Vec<_> = subs.into_iter().map(|(s, t)| (s, t.clamp_to(&system))).collect();
        subs.sort_by_key(|(sub, _)| sub.id());
        OraclePath { config, source, interner, subs, stats: MatcherStats::default() }
    }

    /// Publishes `event`: the matches in `SubId` order, and the closure's
    /// counters under the system tolerance. With no control ops, the
    /// epoch is 0.
    fn publish_detailed(&mut self, event: &Event) -> PublishResult {
        let Config { stages, max_distance, now_year, track_provenance, .. } = self.config;
        let (source, limits) = (self.source.as_ref(), &self.config.limits.closure);
        let system = self.config.system_tolerance();
        let (stats, mut matches) = (&mut self.stats, Vec::new());
        let closed = self.interner.with(|i| {
            for (sub, effective) in &self.subs {
                if !semantic_match(sub, event, source, &system, now_year, i, limits) {
                    continue;
                }
                if *effective != system {
                    stats.verifications += 1;
                    if !semantic_match(sub, event, source, effective, now_year, i, limits) {
                        stats.verify_rejections += 1;
                        continue;
                    }
                }
                let origin = if track_provenance {
                    classify_match(sub, event, source, stages, now_year, i, limits)
                } else {
                    MatchOrigin::Unclassified
                };
                matches.push(Match { sub: sub.id(), origin });
            }
            semantic_closure(event, source, stages, max_distance, now_year, i, limits)
        });
        stats.published += 1;
        stats.derived_events += 1;
        stats.closure_pairs += closed.event.len() as u64;
        stats.truncations += u64::from(closed.truncated);
        let (closure_pairs, truncated) = (closed.event.len(), closed.truncated);
        PublishResult { matches, derived_events: 1, closure_pairs, truncated, epoch: 0 }
    }
}

/// Publishes every event through a matcher and the [`OraclePath`] under
/// `config`, both with mixed tolerances, and asserts byte-identical
/// matches (with provenance) and lifetime stats. Returns the matcher.
fn assert_paths_agree(fixture: &Fixture, config: Config, label: &str) -> SToPSS {
    let (fast, mut oracle) = paths_with_mixed_tolerances(fixture, config);
    for (k, event) in fixture.publications.iter().enumerate() {
        let want = oracle.publish_detailed(event);
        let got = fast.publish_detailed(event);
        assert_eq!(got.matches, want.matches, "{label}: event {k} diverged");
        assert_eq!(got.derived_events, want.derived_events, "{label}: event {k}");
        assert_eq!(got.closure_pairs, want.closure_pairs, "{label}: event {k}");
        assert_eq!(got.truncated, want.truncated, "{label}: event {k}");
    }
    assert_eq!(fast.stats(), oracle.stats, "{label}: stats diverged");
    fast
}

#[test]
fn jobfinder_fast_path_equals_oracle_across_engines() {
    let fixture = jobfinder_fixture(120, 30, 7);
    let default = Config::default();
    for engine in EngineKind::ALL {
        let config = default.with_engine(engine);
        let mixed =
            assert_paths_agree(&fixture, config, &format!("jobfinder engine={}", engine.name()));
        if engine == default.engine {
            // Non-vacuity: the mixed tolerances really verify candidates,
            // and they reject some that uniform full tolerance matches.
            assert!(mixed.stats().verifications > 0, "no candidate was verified");
            let uniform = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
            for sub in &fixture.subscriptions {
                uniform.subscribe_with_tolerance(sub.clone(), Tolerance::full());
            }
            let total = |matcher: &SToPSS| -> usize {
                fixture.publications.iter().map(|event| matcher.publish(event).len()).sum()
            };
            assert!(total(&mixed) < total(&uniform), "stricter tolerances must drop matches");
        }
    }
}

#[test]
fn jobfinder_fast_path_equals_oracle_across_stage_masks() {
    let fixture = jobfinder_fixture(120, 30, 11);
    let masks = [
        StageMask::syntactic(),
        StageMask::SYNONYM,
        StageMask::SYNONYM.with(StageMask::HIERARCHY),
        StageMask::HIERARCHY.with(StageMask::MAPPING),
        StageMask::all(),
    ];
    for stages in masks {
        for engine in EngineKind::ALL {
            let config = Config::default().with_stages(stages).with_engine(engine);
            assert_paths_agree(
                &fixture,
                config,
                &format!("jobfinder stages={stages:?} engine={}", engine.name()),
            );
        }
    }
}

#[test]
fn synthetic_deep_taxonomy_fast_path_equals_oracle() {
    // Deep taxonomy → hierarchy matches at many distinct distances, the
    // case the PairInfo-derived classification must get exactly right.
    let shape = SyntheticConfig { attrs: 3, depth: 5, fanout: 2, ..Default::default() };
    let workload = SyntheticWorkload {
        subscriptions: 150,
        publications: 40,
        general_term_bias: 0.8,
        ..Default::default()
    };
    let fixture = synthetic_fixture(&shape, &workload);
    for stages in [StageMask::SYNONYM.with(StageMask::HIERARCHY), StageMask::all()] {
        for engine in EngineKind::ALL {
            let config = Config::default().with_stages(stages).with_engine(engine);
            assert_paths_agree(
                &fixture,
                config,
                &format!("synthetic stages={stages:?} engine={}", engine.name()),
            );
        }
    }
}

#[test]
fn truncated_closures_fall_back_to_the_oracle_exactly() {
    // Budgets tight enough that closures truncate (mapping chains keep
    // deriving); the fast path must defer to the oracle and stay
    // byte-identical, including truncation counters.
    let shape =
        SyntheticConfig { attrs: 3, depth: 4, fanout: 2, mapping_chain: 4, ..Default::default() };
    let workload = SyntheticWorkload {
        subscriptions: 100,
        publications: 30,
        general_term_bias: 0.8,
        ..Default::default()
    };
    let fixture = synthetic_fixture(&shape, &workload);
    for (max_pairs, max_rounds) in [(4usize, 8u32), (64, 1), (6, 2)] {
        let limits = Limits { closure: ClosureLimits { max_pairs, max_rounds } };
        let config = Config { limits, ..Config::default() };
        assert_paths_agree(
            &fixture,
            config,
            &format!("truncation max_pairs={max_pairs} max_rounds={max_rounds}"),
        );
    }
}

/// A linear `c0 is-a c1 is-a … is-a c_depth` taxonomy world.
fn chain_world(depth: usize) -> (SharedInterner, Arc<Ontology>, Subscription, Event) {
    let mut i = Interner::new();
    let mut o = Ontology::new("chain");
    let mut below = i.intern("c0");
    for k in 1..=depth {
        let above = i.intern(&format!("c{k}"));
        o.taxonomy.add_isa(below, above, &i).unwrap();
        below = above;
    }
    let sub = SubscriptionBuilder::new(&mut i).term_eq("x", &format!("c{depth}")).build(SubId(1));
    let event = EventBuilder::new(&mut i).term("x", "c0").build();
    (SharedInterner::from_interner(i), Arc::new(o), sub, event)
}

#[test]
fn distance_cap_is_reported_identically_past_the_search_horizon() {
    // The match needs distance 70 — beyond CLASSIFY_DISTANCE_CAP — so the
    // oracle's linear search exhausts and reports the cap; the cached
    // classification must clamp to the same value.
    let matches = publish_both_paths(chain_world(70));
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: CLASSIFY_DISTANCE_CAP });
    // Below the cap both paths report the exact distance.
    let matches = publish_both_paths(chain_world(9));
    assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: 9 });
}

/// Publishes `event` through a default matcher and the [`OraclePath`],
/// each holding `sub` alone; asserts they agree and returns the matches.
fn publish_both_paths(
    (interner, source, sub, event): (SharedInterner, Arc<Ontology>, Subscription, Event),
) -> Vec<Match> {
    let config = Config::default();
    let matcher = SToPSS::new(config, source.clone(), interner.clone());
    matcher.subscribe(sub.clone());
    let mut oracle = OraclePath::new(config, source, interner, vec![(sub, Tolerance::full())]);
    let got = matcher.publish(&event);
    assert_eq!(got, oracle.publish_detailed(&event).matches, "diverged from the oracle path");
    got
}

#[test]
fn multi_path_derivations_report_the_minimal_distance() {
    // `top` is derivable from `far` (distance 2) and `near` (distance 1);
    // the closure visits `far` first, so a first-derivation-wins record
    // would misreport the distance as 2. Both paths must say 1.
    let mut i = Interner::new();
    let mut o = Ontology::new("t");
    let far = i.intern("far");
    let mid = i.intern("mid");
    let near = i.intern("near");
    let top = i.intern("top");
    o.taxonomy.add_isa(far, mid, &i).unwrap();
    o.taxonomy.add_isa(mid, top, &i).unwrap();
    o.taxonomy.add_isa(near, top, &i).unwrap();
    let sub = SubscriptionBuilder::new(&mut i).term_eq("x", "top").build(SubId(1));
    let event = EventBuilder::new(&mut i).term("x", "far").term("x", "near").build();
    let interner = SharedInterner::from_interner(i);
    let source = Arc::new(o);
    interner.with(|i| {
        let want = classify_match(
            &sub,
            &event,
            source.as_ref(),
            StageMask::all(),
            2003,
            i,
            &ClosureLimits::default(),
        );
        assert_eq!(want, MatchOrigin::Hierarchy { distance: 1 }, "oracle ground truth");
    });
    let matches = publish_both_paths((interner, source, sub, event));
    assert_eq!(matches[0].origin, MatchOrigin::Hierarchy { distance: 1 });
}

#[test]
fn alias_written_subscription_verifies_in_its_resolved_form() {
    // `school` is an alias of `university`. A subscription written with
    // the alias under a synonym-only tolerance is verified against the
    // event's synonym closure, which holds the root: only the
    // subscription's synonym-resolved form matches there, not the form
    // it was written in.
    let mut i = Interner::new();
    let mut o = Ontology::new("alias");
    let (root, alias) = (i.intern("university"), i.intern("school"));
    o.synonyms.add_synonym(root, alias, &i).unwrap();
    let sub = SubscriptionBuilder::new(&mut i).term_eq("x", "school").build(SubId(1));
    let event = EventBuilder::new(&mut i).term("x", "university").build();
    let (interner, source) = (SharedInterner::from_interner(i), Arc::new(o));
    let (config, tolerance) = (Config::default(), Tolerance::stages(StageMask::SYNONYM));
    let matcher = SToPSS::new(config, source.clone(), interner.clone());
    matcher.subscribe_with_tolerance(sub.clone(), tolerance);
    let mut oracle = OraclePath::new(config, source, interner, vec![(sub, tolerance)]);
    let got = matcher.publish(&event);
    assert_eq!(got, oracle.publish_detailed(&event).matches, "diverged from the oracle path");
    assert_eq!(got.iter().map(|m| m.sub).collect::<Vec<_>>(), vec![SubId(1)]);
}

#[test]
fn prepared_fast_path_equals_oracle() {
    // The stage split: `prepare` then `match_prepared`, each artifact
    // filling its own tier cache in the match stage, against the
    // per-candidate oracle path with mixed tolerances.
    let fixture = jobfinder_fixture(160, 40, 23);
    for engine in EngineKind::ALL {
        let config = Config::default().with_engine(engine);
        let label = engine.name();
        let (fast, mut oracle) = paths_with_mixed_tolerances(&fixture, config);
        assert!(fast.verify_classes().len() > 1, "{label}: the cycle registers several classes");
        for (k, event) in fixture.publications.iter().enumerate() {
            let got = fast.match_prepared(&fast.prepare(event));
            let want = oracle.publish_detailed(event);
            assert_eq!(got.matches, want.matches, "{label}: event {k} diverged");
            assert_eq!(got.closure_pairs, want.closure_pairs, "{label}: event {k}");
            assert_eq!(got.truncated, want.truncated, "{label}: event {k}");
        }
        let (got, want) = (fast.stats(), oracle.stats);
        assert_eq!(got.verifications, want.verifications, "{label}: verifications diverged");
        assert_eq!(got.verify_rejections, want.verify_rejections, "{label}: rejections diverged");
    }
}

// ---------------------------------------------------------------------
// Closure-level read-off differential.
//
// Where it provably equals a fresh fixpoint, the tier cache filters its
// entries off the publication's main closure instead of re-running
// `semantic_closure` (rules in the `frontend.rs` module docs). The tests
// below hold every entry to a fresh `semantic_closure` directly: the same
// pairs at the same minimal distances, and the same truncation flag. A
// query-counting ontology tells an entry read off
// the main closure (no ontology queries) from one the fixpoint recomputed.

/// Forwards to an ontology and counts every query made through it.
struct Counting {
    inner: Arc<dyn SemanticSource>,
    queries: AtomicUsize,
}

impl Counting {
    fn new(inner: Arc<dyn SemanticSource>) -> Self {
        Counting { inner, queries: AtomicUsize::new(0) }
    }

    /// Queries since the last call.
    fn take(&self) -> usize {
        self.queries.swap(0, Ordering::Relaxed)
    }

    fn tick(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }
}

impl SemanticSource for Counting {
    fn resolve_synonym(&self, term: Symbol) -> Symbol {
        self.tick();
        self.inner.resolve_synonym(term)
    }

    fn for_each_ancestor(&self, term: Symbol, f: &mut dyn FnMut(Symbol, u32)) {
        self.tick();
        self.inner.for_each_ancestor(term, f);
    }

    fn descendants(&self, term: Symbol) -> Vec<(Symbol, u32)> {
        self.tick();
        self.inner.descendants(term)
    }

    fn is_a(&self, special: Symbol, general: Symbol) -> bool {
        self.tick();
        self.inner.is_a(special, general)
    }

    fn distance(&self, special: Symbol, general: Symbol) -> Option<u32> {
        self.tick();
        self.inner.distance(special, general)
    }

    fn apply_mappings(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
        sink: &mut NamedMappingSink<'_>,
    ) {
        self.tick();
        self.inner.apply_mappings(event, interner, now_year, sink);
    }

    fn mapping_reads(&self, attr: Symbol) -> bool {
        self.tick();
        self.inner.mapping_reads(attr)
    }
}

/// One entry the matching back end asks a publication's tier cache for.
#[derive(Clone, Copy, Debug)]
enum Entry {
    SynonymTier,
    HierarchyTier(StageMask),
    Class(Tolerance),
}

impl Entry {
    /// The stages and bound a fresh fixpoint closes the raw event under.
    fn tolerance(self) -> Tolerance {
        match self {
            Entry::SynonymTier => Tolerance::stages(StageMask::SYNONYM),
            Entry::HierarchyTier(stages) => Tolerance::stages(stages),
            Entry::Class(tolerance) => tolerance.verify_class(),
        }
    }

    /// Asks a fresh tier cache built from `prepared` for the entry.
    fn get(
        self,
        prepared: &PreparedEvent,
        source: &dyn SemanticSource,
        config: &Config,
        i: &Interner,
    ) -> ClosedEvent {
        let (side, mut tiers, lim) =
            (prepared.event_side(), prepared.tier_cache(), &config.limits.closure);
        match self {
            Entry::SynonymTier => tiers.synonym_tier(side, source, config.now_year, i, lim).clone(),
            Entry::HierarchyTier(stages) => {
                tiers.hierarchy_tier(side, source, stages, config.now_year, i, lim).clone()
            }
            Entry::Class(tolerance) => {
                tiers.tolerance_class(&tolerance, side, source, config.now_year, i, lim).clone()
            }
        }
    }
}

/// Both classifier tiers for `system`, plus every distinct verification
/// class over all stage masks and distance bounds up to 3 — including
/// classes a subscriber clamped to `system` could never reach.
fn every_entry(system: StageMask) -> Vec<Entry> {
    let mut classes: Vec<Tolerance> = Vec::new();
    for stages in StageMask::all_combinations() {
        for max_distance in [None, Some(0), Some(1), Some(2), Some(3)] {
            let class = Tolerance { stages, max_distance }.verify_class();
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
    }
    let hier_stages = system.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
    [Entry::SynonymTier, Entry::HierarchyTier(hier_stages)]
        .into_iter()
        .chain(classes.into_iter().map(Entry::Class))
        .collect()
}

/// Pair → (multiplicity, distance). Which derivation reached a pair first
/// (and so its `via_mapping` flag) may differ between runs; the pairs and
/// their minimal distances, which verification and classification read,
/// may not.
fn distance_map(closed: &ClosedEvent) -> FxHashMap<(Symbol, Value), (usize, u32)> {
    let mut out = FxHashMap::default();
    for (pair, info) in closed.event.pairs().iter().zip(&closed.info) {
        out.entry(*pair).or_insert((0, info.distance)).0 += 1;
    }
    out
}

/// Asks `prepared`'s tier cache for `entry`, holds it to a fresh fixpoint,
/// and returns true if it was read off the main closure.
fn check_entry(
    counting: &Counting,
    prepared: &PreparedEvent,
    config: &Config,
    interner: &Interner,
    entry: Entry,
    label: &dyn Fn() -> String,
) -> bool {
    counting.take();
    let got = entry.get(prepared, counting, config, interner);
    let read_off = counting.take() == 0;
    let Tolerance { stages, max_distance } = entry.tolerance();
    let want = semantic_closure(
        &prepared.raw,
        counting.inner.as_ref(),
        stages,
        max_distance,
        config.now_year,
        interner,
        &config.limits.closure,
    );
    assert_eq!(got.truncated, want.truncated, "{}: {entry:?} truncation", label());
    assert_eq!(
        distance_map(&got),
        distance_map(&want),
        "{}: {entry:?} pairs (read off: {read_off})",
        label()
    );
    read_off
}

/// Checks `entries` for every publication of `fixture` under `config`;
/// returns how many publications had all of them read off.
fn check_entries(fixture: &Fixture, config: Config, entries: &[Entry], label: &str) -> usize {
    let counting = Counting::new(fixture.source.clone());
    fixture.interner.with(|i| {
        let mut all_read_off = 0;
        for (k, event) in fixture.publications.iter().enumerate() {
            let prepared = prepare_event(event, &counting, &config, i);
            let mut every = true;
            for &entry in entries {
                every &= check_entry(&counting, &prepared, &config, i, entry, &|| {
                    format!("{label} event {k}")
                });
            }
            all_read_off += usize::from(every);
        }
        all_read_off
    })
}

/// The `match-closure` benchmark workload's shape: deep narrow value
/// trees, an alias on every concept, a six-link mapping chain, eight pairs
/// per event.
fn closure_shape_fixture(publications: usize) -> Fixture {
    let shape = SyntheticConfig {
        attrs: 8,
        depth: 8,
        fanout: 2,
        synonyms_per_concept: 1.0,
        mapping_chain: 6,
        seed: 2003,
    };
    let workload = SyntheticWorkload {
        subscriptions: 1,
        publications,
        preds_per_sub: 2,
        pairs_per_event: 8,
        general_term_bias: 0.45,
        seed: 2003,
    };
    synthetic_fixture(&shape, &workload)
}

#[test]
fn read_off_entries_equal_fresh_closures_across_domains_masks_and_limits() {
    const PUBLICATIONS: usize = 64;
    let fixtures = [
        ("jobfinder", jobfinder_fixture(1, PUBLICATIONS, 5)),
        ("iot", iot_fixture(1, PUBLICATIONS, 5)),
        ("market", market_fixture(1, PUBLICATIONS, 5)),
        ("geo", geo_fixture(1, PUBLICATIONS, 5)),
        ("match-closure", closure_shape_fixture(PUBLICATIONS)),
    ];
    let limits = [
        ClosureLimits::default(),
        ClosureLimits { max_pairs: 20, ..ClosureLimits::default() },
        ClosureLimits { max_rounds: 2, ..ClosureLimits::default() },
        ClosureLimits { max_rounds: 3, ..ClosureLimits::default() },
    ];
    let mut cases = 0;
    for (name, fixture) in &fixtures {
        for stages in StageMask::all_combinations() {
            let entries = every_entry(stages);
            for closure in limits {
                let config =
                    Config { limits: Limits { closure }, ..Config::default().with_stages(stages) };
                let label = format!("{name} stages={stages:?} limits={closure:?}");
                check_entries(fixture, config, &entries, &label);
                cases += fixture.publications.len() * entries.len();
            }
        }
    }
    assert!(cases > 200_000, "the matrix shrank to {cases} cases");
}

#[test]
fn match_closure_shape_reads_off_nearly_every_publication() {
    // The suite above is only as strong as the share of entries that take
    // the read-off path: on the shape the read-off targets, the classes
    // its subscribers verify under and both classifier tiers must be read
    // off for at least 90 % of publications.
    let fixture = closure_shape_fixture(200);
    let entries = [
        Entry::Class(Tolerance::bounded(1)),
        Entry::Class(Tolerance::bounded(3)),
        Entry::SynonymTier,
        Entry::HierarchyTier(StageMask::SYNONYM.with(StageMask::HIERARCHY)),
    ];
    let read_off = check_entries(&fixture, Config::default(), &entries, "match-closure");
    let total = fixture.publications.len();
    assert!(read_off * 10 >= total * 9, "only {read_off} of {total} publications were read off");
}

/// A one-event world for the named fallback cases.
struct World {
    source: Arc<dyn SemanticSource>,
    interner: Interner,
    event: Event,
}

impl World {
    /// Prepares the event under `config` and checks `entry`; returns true
    /// if it was read off the main closure.
    fn read_off(&self, config: Config, entry: Entry) -> bool {
        let counting = Counting::new(self.source.clone());
        let prepared = prepare_event(&self.event, &counting, &config, &self.interner);
        check_entry(&counting, &prepared, &config, &self.interner, entry, &|| format!("{entry:?}"))
    }

    /// The main closure of the event under `config`.
    fn main_closure(&self, config: Config) -> PreparedEvent {
        prepare_event(&self.event, self.source.as_ref(), &config, &self.interner)
    }

    fn value_at(&self, closed: &Event, attr: &str, value: &str) -> bool {
        let (attr, value) = (self.interner.get(attr).unwrap(), self.interner.get(value).unwrap());
        closed.values_for(attr).any(|v| *v == Value::Sym(value))
    }
}

/// `skill = java` with `java is-a jvm_language is-a language`, and a
/// function whose guard needs the general term: `skill = language ⇒
/// label = coder` (the closure unit tests' interleaving ontology, one
/// level deeper so a distance bound decides whether the guard holds).
fn guard_on_generalized_attribute() -> World {
    let mut i = Interner::new();
    let mut o = Ontology::new("guard");
    let (java, jvm, lang) = (i.intern("java"), i.intern("jvm_language"), i.intern("language"));
    o.taxonomy.add_isa(java, jvm, &i).unwrap();
    o.taxonomy.add_isa(jvm, lang, &i).unwrap();
    let (skill, label, coder) = (i.intern("skill"), i.intern("label"), i.intern("coder"));
    o.mappings
        .register(MappingFunction::new(
            "coder_label",
            vec![PatternItem {
                attr: skill,
                guard: Some(Guard { op: Operator::Eq, value: Value::Sym(lang) }),
            }],
            vec![Production { attr: label, expr: Expr::Const(Value::Sym(coder)) }],
        ))
        .unwrap();
    let event = EventBuilder::new(&mut i).term("skill", "java").build();
    World { source: Arc::new(o), interner: i, event }
}

/// `x = a` with `a is-a m is-a t`, plus `y = 1` and a function `y ⇒ x = n`
/// whose output generalizes to `t` in one step (`n is-a t`): the shortcut
/// lowers `(x, t)` from distance 2 to 1, and a bounded run reaches it one
/// round later than the unbounded run does.
fn mapping_output_with_ancestors() -> World {
    let mut i = Interner::new();
    let mut o = Ontology::new("shortcut");
    let (a, m, t, n) = (i.intern("a"), i.intern("m"), i.intern("t"), i.intern("n"));
    o.taxonomy.add_isa(a, m, &i).unwrap();
    o.taxonomy.add_isa(m, t, &i).unwrap();
    o.taxonomy.add_isa(n, t, &i).unwrap();
    let (x, y) = (i.intern("x"), i.intern("y"));
    o.mappings
        .register(MappingFunction::new(
            "n_if_y",
            vec![PatternItem { attr: y, guard: None }],
            vec![Production { attr: x, expr: Expr::Const(Value::Sym(n)) }],
        ))
        .unwrap();
    let event = EventBuilder::new(&mut i).term("x", "a").pair("y", 1i64).build();
    World { source: Arc::new(o), interner: i, event }
}

#[test]
fn read_off_falls_back_on_a_mapping_guard_over_a_generalized_attribute() {
    let world = guard_on_generalized_attribute();
    let main = world.main_closure(Config::default());
    assert!(world.value_at(&main.engine_events[0], "label", "coder"), "fires unbounded");
    // Under bound 1 the guard never sees `language`, so `label` must be
    // absent — a distance filter over the main closure would keep it.
    assert!(!world.read_off(Config::default(), Entry::Class(Tolerance::bounded(1))));
    // Entries without the mapping stage are still read off.
    assert!(world.read_off(Config::default(), Entry::SynonymTier));
    let hier = StageMask::SYNONYM.with(StageMask::HIERARCHY);
    assert!(world.read_off(Config::default(), Entry::HierarchyTier(hier)));
}

#[test]
fn read_off_falls_back_on_a_production_absorbed_by_a_hierarchy_pair() {
    // `y ⇒ x = top`, which the unbounded run already derived from
    // `x = low` at distance 2; under bound 1 the production is a mapping
    // pair of its own, which a distance filter would drop.
    let mut i = Interner::new();
    let mut o = Ontology::new("absorbed");
    let (low, mid, top) = (i.intern("low"), i.intern("mid"), i.intern("top"));
    o.taxonomy.add_isa(low, mid, &i).unwrap();
    o.taxonomy.add_isa(mid, top, &i).unwrap();
    let (x, y) = (i.intern("x"), i.intern("y"));
    o.mappings
        .register(MappingFunction::new(
            "top_if_y",
            vec![PatternItem { attr: y, guard: None }],
            vec![Production { attr: x, expr: Expr::Const(Value::Sym(top)) }],
        ))
        .unwrap();
    let event = EventBuilder::new(&mut i).term("x", "low").pair("y", 1i64).build();
    let world = World { source: Arc::new(o), interner: i, event };
    assert!(!world.read_off(Config::default(), Entry::Class(Tolerance::bounded(1))));
}

#[test]
fn read_off_falls_back_on_a_generalized_mapping_output() {
    // The hierarchy tier runs no mappings: `(x, t)` is at distance 2
    // there, while the main closure recorded the shortcut's 1.
    let world = mapping_output_with_ancestors();
    let hier = StageMask::SYNONYM.with(StageMask::HIERARCHY);
    assert!(!world.read_off(Config::default(), Entry::HierarchyTier(hier)));
    // With every stage and a bound the main closure's stages apply.
    assert!(world.read_off(Config::default(), Entry::Class(Tolerance::bounded(1))));
}

#[test]
fn read_off_falls_back_when_the_main_closure_used_every_round() {
    // Unbounded, the shortcut lands in round 1 with no new pair, so two
    // rounds suffice; bound 1 derives `(x, t)` in round 1 and needs a
    // third round to see the fixpoint, so under `max_rounds = 2` it
    // truncates where the main closure did not.
    let world = mapping_output_with_ancestors();
    let limits = Limits { closure: ClosureLimits { max_rounds: 2, ..ClosureLimits::default() } };
    let config = Config { limits, ..Config::default() };
    let main = world.main_closure(config);
    assert!(!main.truncated);
    assert!(!world.read_off(config, Entry::Class(Tolerance::bounded(1))));
}

#[test]
fn read_off_falls_back_on_a_truncated_main_closure() {
    let world = guard_on_generalized_attribute();
    let limits = Limits { closure: ClosureLimits { max_pairs: 2, ..ClosureLimits::default() } };
    let config = Config { limits, ..Config::default() };
    assert!(world.main_closure(config).truncated);
    for entry in [Entry::SynonymTier, Entry::Class(Tolerance::bounded(1))] {
        assert!(!world.read_off(config, entry), "{entry:?}");
    }
}

#[test]
fn read_off_falls_back_under_a_system_bound() {
    let world = guard_on_generalized_attribute();
    let hier = StageMask::SYNONYM.with(StageMask::HIERARCHY);
    let config = Config { max_distance: Some(2), ..Config::default() };
    for entry in [Entry::SynonymTier, Entry::HierarchyTier(hier)] {
        assert!(!world.read_off(config, entry), "{entry:?}");
    }
}

// ---------------------------------------------------------------------
// The memoised provenance classifier.
//
// The tier-cached path classifies a match from per-predicate levels, each
// distinct predicate's levels computed once per publication (see
// `Classifier` in `matcher.rs`). The named cases below pin it to
// `classify_match` on a hand-built world, one edge of that
// decomposition each; the last one counts the work it saves.

/// The hand-built world of the classifier cases: synonyms on attributes
/// (`school → university`, `pay → salary`, `position → title`) and on
/// values (`to → toronto`, `teach → instruct`), the taxonomy `phd is-a
/// graduate_degree is-a degree` and `toronto is-a ontario_city`, and the
/// paper's `graduation_year ⇒ professional_experience` mapping.
fn classifier_world() -> (Interner, Ontology) {
    let mut i = Interner::new();
    let mut o = Ontology::new("classifier");
    for (root, alias) in [
        ("university", "school"),
        ("salary", "pay"),
        ("title", "position"),
        ("toronto", "to"),
        ("instruct", "teach"),
    ] {
        let (root, alias) = (i.intern(root), i.intern(alias));
        o.synonyms.add_synonym(root, alias, &i).unwrap();
    }
    for (special, general) in
        [("phd", "graduate_degree"), ("graduate_degree", "degree"), ("toronto", "ontario_city")]
    {
        let (special, general) = (i.intern(special), i.intern(general));
        o.taxonomy.add_isa(special, general, &i).unwrap();
    }
    let (gy, pe) = (i.intern("graduation_year"), i.intern("professional_experience"));
    o.mappings
        .register(MappingFunction::new(
            "experience",
            vec![PatternItem { attr: gy, guard: None }],
            vec![Production { attr: pe, expr: Expr::sub(Expr::Now, Expr::Attr(gy)) }],
        ))
        .unwrap();
    (i, o)
}

/// An event of symbol-valued pairs.
fn terms(i: &mut Interner, pairs: &[(&str, &str)]) -> Event {
    pairs.iter().fold(EventBuilder::new(i), |b, (attr, value)| b.term(attr, value)).build()
}

/// Publishes `events` in order through one matcher holding `subs` under
/// `config`. Holds every match set to the [`OraclePath`] and every origin
/// to `classify_match` on the raw event, and returns each publication's
/// matches.
fn classify_against_oracle(
    (interner, ontology): &(Interner, Ontology),
    config: Config,
    subs: &[Subscription],
    events: &[Event],
) -> Vec<Vec<Match>> {
    let interner = SharedInterner::from_interner(interner.clone());
    let source = Arc::new(ontology.clone());
    let fast = SToPSS::new(config, source.clone(), interner.clone());
    for sub in subs {
        fast.subscribe(sub.clone());
    }
    let full = subs.iter().map(|sub| (sub.clone(), Tolerance::full())).collect();
    let mut oracle = OraclePath::new(config, source.clone(), interner.clone(), full);
    let label = format!("stages={:?}", config.stages);
    let mut out = Vec::new();
    for (k, event) in events.iter().enumerate() {
        let got = fast.publish(event);
        let want = oracle.publish_detailed(event).matches;
        assert_eq!(got, want, "{label}: event {k} diverged from the oracle path");
        let Config { stages, now_year, limits, .. } = config;
        interner.with(|i| {
            for m in &got {
                let sub = fast.subscription(m.sub).unwrap();
                let want =
                    classify_match(&sub, event, &*source, stages, now_year, i, &limits.closure);
                assert_eq!(m.origin, want, "{label}: event {k} {:?}", m.sub);
            }
        });
        out.push(got);
    }
    out
}

/// The origin of `id` among `matches`, if it matched.
fn origin_of(matches: &[Match], id: u64) -> Option<MatchOrigin> {
    matches.iter().find(|m| m.sub == SubId(id)).map(|m| m.origin)
}

#[test]
fn memoized_classifier_keeps_non_monotone_levels_apart() {
    // `city != to` holds on the raw `city = toronto`, but its resolved
    // form `city != toronto` fails on the synonym tier and holds only on
    // the hierarchy tier, through `ontario_city` at distance 1. Deriving
    // the synonym level from the raw one would call sub 2 a synonym match.
    let mut world = classifier_world();
    let i = &mut world.0;
    let subs = [
        SubscriptionBuilder::new(i).term("city", Operator::Ne, "to").build(SubId(1)),
        SubscriptionBuilder::new(i)
            .term("city", Operator::Ne, "to")
            .term_eq("university", "uoft")
            .build(SubId(2)),
    ];
    let events = [
        terms(i, &[("city", "toronto"), ("school", "uoft")]),
        terms(i, &[("city", "to"), ("university", "uoft")]),
    ];
    let got = classify_against_oracle(&world, Config::default(), &subs, &events);
    assert_eq!(origin_of(&got[0], 1), Some(MatchOrigin::Syntactic));
    assert_eq!(origin_of(&got[0], 2), Some(MatchOrigin::Hierarchy { distance: 1 }));
    assert_eq!(origin_of(&got[1], 1), Some(MatchOrigin::Hierarchy { distance: 1 }));
    assert_eq!(origin_of(&got[1], 2), Some(MatchOrigin::Hierarchy { distance: 1 }));
}

#[test]
fn memoized_classifier_shares_predicates_across_and_within_subscriptions() {
    let mut world = classifier_world();
    let i = &mut world.0;
    let mut subs = vec![
        SubscriptionBuilder::new(i).term_eq("credential", "degree").build(SubId(1)),
        SubscriptionBuilder::new(i)
            .term_eq("credential", "degree")
            .term_eq("credential", "degree")
            .build(SubId(2)),
    ];
    // 27 subscriptions over 6 distinct predicates, each combining a
    // credential level with a location or school test.
    let credentials = ["degree", "graduate_degree", "phd"];
    for k in 0..27u64 {
        let credential = credentials[k as usize % 3];
        let b = SubscriptionBuilder::new(i).term_eq("credential", credential);
        let b = match (k / 3) % 3 {
            0 => b.term_eq("university", "uoft"),
            1 => b.term_eq("city", "ontario_city"),
            _ => b.term("city", Operator::Ne, "to"),
        };
        subs.push(b.build(SubId(10 + k)));
    }
    let events = [
        terms(i, &[("credential", "phd"), ("school", "uoft"), ("city", "toronto")]),
        terms(i, &[("credential", "degree"), ("university", "uoft"), ("city", "ottawa")]),
    ];
    let got = classify_against_oracle(&world, Config::default(), &subs, &events);
    assert_eq!(origin_of(&got[0], 1), Some(MatchOrigin::Hierarchy { distance: 2 }));
    assert_eq!(origin_of(&got[0], 2), Some(MatchOrigin::Hierarchy { distance: 2 }));
    assert_eq!(origin_of(&got[1], 2), Some(MatchOrigin::Syntactic));
    assert!(got[0].len() > 20, "the shared predicates match together: {}", got[0].len());
}

#[test]
fn memoized_classifier_classifies_the_empty_subscription() {
    let mut world = classifier_world();
    let i = &mut world.0;
    let subs = [Subscription::new(SubId(1), Vec::new())];
    let events = [
        terms(i, &[("school", "uoft")]),
        EventBuilder::new(i).pair("graduation_year", 1993i64).build(),
        Event::new(),
    ];
    let got = classify_against_oracle(&world, Config::default(), &subs, &events);
    for matches in &got {
        assert_eq!(origin_of(matches, 1), Some(MatchOrigin::Syntactic));
    }
}

#[test]
fn memoized_classifier_never_resolves_string_patterns() {
    // `teach` is an alias of `instruct`, but a `Prefix` pattern is a
    // fragment, not a term: the resolved form keeps `teach` and matches
    // `teacher` on the synonym tier. `Exists` ignores its value.
    let mut world = classifier_world();
    let i = &mut world.0;
    let subs = [
        SubscriptionBuilder::new(i).term("title", Operator::Prefix, "teach").build(SubId(1)),
        SubscriptionBuilder::new(i).exists("salary").build(SubId(2)),
        SubscriptionBuilder::new(i)
            .term("title", Operator::Prefix, "teach")
            .exists("salary")
            .term_eq("credential", "degree")
            .build(SubId(3)),
        SubscriptionBuilder::new(i)
            .exists("professional_experience")
            .term("title", Operator::Prefix, "teach")
            .build(SubId(4)),
    ];
    let events = [
        EventBuilder::new(i)
            .term("position", "teacher")
            .pair("pay", 50_000i64)
            .term("credential", "phd")
            .pair("graduation_year", 1993i64)
            .build(),
        EventBuilder::new(i).term("title", "teacher").pair("salary", 1i64).build(),
    ];
    let got = classify_against_oracle(&world, Config::default(), &subs, &events);
    assert_eq!(origin_of(&got[0], 1), Some(MatchOrigin::Synonym));
    assert_eq!(origin_of(&got[0], 2), Some(MatchOrigin::Synonym));
    assert_eq!(origin_of(&got[0], 3), Some(MatchOrigin::Hierarchy { distance: 2 }));
    assert_eq!(origin_of(&got[0], 4), Some(MatchOrigin::Mapping));
    assert_eq!(origin_of(&got[1], 1), Some(MatchOrigin::Syntactic));
    assert_eq!(origin_of(&got[1], 2), Some(MatchOrigin::Syntactic));
}

#[test]
fn memoized_classifier_equals_oracle_without_synonym_or_hierarchy_stages() {
    let mut world = classifier_world();
    let i = &mut world.0;
    let subs = [
        SubscriptionBuilder::new(i).term("city", Operator::Ne, "to").build(SubId(1)),
        SubscriptionBuilder::new(i).term_eq("university", "uoft").build(SubId(2)),
        SubscriptionBuilder::new(i).term_eq("credential", "degree").build(SubId(3)),
        SubscriptionBuilder::new(i)
            .term_eq("city", "ontario_city")
            .term_eq("university", "uoft")
            .build(SubId(4)),
        SubscriptionBuilder::new(i)
            .pred("professional_experience", Operator::Ge, 4i64)
            .term_eq("university", "uoft")
            .build(SubId(5)),
        SubscriptionBuilder::new(i)
            .pred("professional_experience", Operator::Ge, 4i64)
            .term_eq("credential", "degree")
            .build(SubId(6)),
        Subscription::new(SubId(7), Vec::new()),
        // Written with an alias: without the synonym stage it must be
        // classified unresolved.
        SubscriptionBuilder::new(i)
            .term_eq("school", "uoft")
            .term_eq("credential", "degree")
            .build(SubId(8)),
    ];
    let events = [
        EventBuilder::new(i)
            .term("city", "toronto")
            .term("school", "uoft")
            .term("credential", "phd")
            .pair("graduation_year", 1993i64)
            .build(),
        EventBuilder::new(i)
            .term("city", "to")
            .term("university", "uoft")
            .term("credential", "degree")
            .pair("graduation_year", 1990i64)
            .build(),
    ];
    let masks = [
        StageMask::all(),
        StageMask::HIERARCHY.with(StageMask::MAPPING),
        StageMask::SYNONYM.with(StageMask::MAPPING),
        StageMask::HIERARCHY,
        StageMask::SYNONYM,
        StageMask::MAPPING,
        StageMask::syntactic(),
    ];
    for stages in masks {
        let got =
            classify_against_oracle(&world, Config::default().with_stages(stages), &subs, &events);
        assert!(!got[0].is_empty(), "stages={stages:?}: the empty subscription always matches");
    }
}

#[test]
fn memoized_classifier_forgets_levels_between_publications() {
    // One matcher, back to back: the same predicates are raw on one
    // publication, hierarchy-derived on the next and raw again after.
    // Levels carried over from an earlier publication would misclassify.
    let mut world = classifier_world();
    let i = &mut world.0;
    let subs = [
        SubscriptionBuilder::new(i).term_eq("credential", "degree").build(SubId(1)),
        SubscriptionBuilder::new(i).term("city", Operator::Ne, "to").build(SubId(2)),
        SubscriptionBuilder::new(i).term_eq("university", "uoft").build(SubId(3)),
    ];
    let events = [
        terms(i, &[("credential", "degree"), ("city", "ottawa"), ("university", "uoft")]),
        terms(i, &[("credential", "phd"), ("city", "to"), ("school", "uoft")]),
        terms(i, &[("credential", "graduate_degree"), ("city", "ottawa"), ("school", "uoft")]),
        terms(i, &[("credential", "degree"), ("city", "ottawa"), ("university", "uoft")]),
    ];
    let got = classify_against_oracle(&world, Config::default(), &subs, &events);
    let hierarchy = |distance| Some(MatchOrigin::Hierarchy { distance });
    let want = [
        [Some(MatchOrigin::Syntactic), Some(MatchOrigin::Syntactic), Some(MatchOrigin::Syntactic)],
        [hierarchy(2), hierarchy(1), Some(MatchOrigin::Synonym)],
        [hierarchy(1), Some(MatchOrigin::Syntactic), Some(MatchOrigin::Synonym)],
        [Some(MatchOrigin::Syntactic), Some(MatchOrigin::Syntactic), Some(MatchOrigin::Syntactic)],
    ];
    for (k, (matches, want)) in got.iter().zip(want).enumerate() {
        let origins: Vec<_> = (1..=3).map(|id| origin_of(matches, id)).collect();
        assert_eq!(origins, want, "publication {k}");
    }
}

#[test]
fn provenance_levels_are_computed_once_per_distinct_predicate_per_publication() {
    // With no tolerance to verify, the match stage queries the ontology
    // for two things only. It fills the classifier tiers when it
    // classifies a publication's first match. It resolves a predicate's
    // synonyms the first time the publication meets that predicate.
    // Resolution asks for the attribute, plus the value of an `Eq`/`Ne`
    // over a symbol. So the query count of a publication with matches is
    // exactly what filling the tiers on a fresh cache costs, plus what
    // resolving each distinct matched predicate once costs.
    let fixture = jobfinder_fixture(300, 24, 17);
    let config = Config::default();
    let counting = Arc::new(Counting::new(fixture.source.clone()));
    let matcher = SToPSS::new(config, counting.clone(), fixture.interner.clone());
    for sub in &fixture.subscriptions {
        matcher.subscribe(sub.clone());
    }
    let resolve_cost = |p: &Predicate| match (p.op, p.value) {
        (Operator::Eq | Operator::Ne, Value::Sym(_)) => 2,
        _ => 1,
    };
    let hier_stages = config.stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
    let (mut once, mut per_match) = (0, 0);
    for (k, event) in fixture.publications.iter().enumerate() {
        let prepared = matcher.prepare(event);
        assert!(!prepared.truncated, "event {k}: a truncated tier defers to the oracle");
        counting.take();
        let matches = matcher.match_prepared(&prepared).matches;
        let queries = counting.take();
        let tier_fill = if matches.is_empty() {
            0
        } else {
            let (side, mut tiers, lim) =
                (prepared.event_side(), prepared.tier_cache(), &config.limits.closure);
            fixture.interner.with(|i| {
                tiers.synonym_tier(side, counting.as_ref(), config.now_year, i, lim);
                tiers.hierarchy_tier(side, counting.as_ref(), hier_stages, config.now_year, i, lim);
            });
            counting.take()
        };
        let mut distinct = FxHashMap::default();
        for m in &matches {
            let sub = matcher.subscription(m.sub).unwrap();
            for p in sub.predicates() {
                distinct.insert(*p, resolve_cost(p));
                per_match += resolve_cost(p);
            }
        }
        let want: usize = distinct.values().sum();
        assert_eq!(queries, tier_fill + want, "event {k}: {} matches", matches.len());
        once += want;
    }
    assert!(once > 0, "the fixture must produce matches");
    assert!(once * 2 < per_match, "predicates are shared: {once} resolutions vs {per_match}");
}

#[test]
fn recycled_predicate_ids_classify_like_the_oracle_after_control_ops() {
    // The memo is indexed by predicate ids, which control ops release and
    // intern again: a re-indexing `set_source`, the rebuilds of
    // `set_stages` and `reconfigure`, and a re-subscription of a live id
    // with other predicates, after which the freed id of `city != to`
    // goes to another predicate and `city != to` itself returns under a
    // new subscription. After each op the one live matcher must match and
    // classify every event as the oracle path does on the same
    // subscriptions, configuration and source. An entry that kept a
    // released id, or an id read with another predicate's levels, would
    // misclassify.
    let (mut i, ontology) = classifier_world();
    let full = Tolerance::full();
    let subs = [
        (
            SubscriptionBuilder::new(&mut i)
                .term_eq("credential", "degree")
                .term_eq("university", "uoft")
                .build(SubId(1)),
            full,
        ),
        (SubscriptionBuilder::new(&mut i).term("city", Operator::Ne, "to").build(SubId(2)), full),
        (SubscriptionBuilder::new(&mut i).term_eq("school", "varsity").build(SubId(3)), full),
        (
            SubscriptionBuilder::new(&mut i)
                .pred("professional_experience", Operator::Ge, 4i64)
                .term_eq("credential", "degree")
                .build(SubId(4)),
            Tolerance::bounded(1),
        ),
        (
            SubscriptionBuilder::new(&mut i)
                .term_eq("position", "teach")
                .term_eq("credential", "graduate_degree")
                .term_eq("school", "varsity")
                .term_eq("city", "ontario_city")
                .build(SubId(5)),
            Tolerance::stages(StageMask::SYNONYM.with(StageMask::HIERARCHY)),
        ),
        (
            SubscriptionBuilder::new(&mut i).term_eq("credential", "phd").build(SubId(6)),
            Tolerance::syntactic(),
        ),
    ];
    let resubscribed = SubscriptionBuilder::new(&mut i)
        .term_eq("credential", "graduate_degree")
        .term_eq("position", "teach")
        .build(SubId(2));
    let returning =
        SubscriptionBuilder::new(&mut i).term("city", Operator::Ne, "to").build(SubId(7));
    let events = [
        EventBuilder::new(&mut i)
            .term("credential", "phd")
            .term("school", "uoft")
            .term("city", "toronto")
            .pair("graduation_year", 1993i64)
            .build(),
        terms(&mut i, &[("credential", "degree"), ("university", "varsity"), ("city", "to")]),
        terms(
            &mut i,
            &[
                ("credential", "graduate_degree"),
                ("school", "varsity"),
                ("position", "teach"),
                ("city", "ottawa"),
            ],
        ),
        terms(
            &mut i,
            &[("title", "instruct"), ("credential", "phd"), ("university", "uoft"), ("city", "to")],
        ),
        EventBuilder::new(&mut i)
            .term("credential", "degree")
            .term("position", "teach")
            .pair("graduation_year", 1990i64)
            .build(),
    ];
    // `varsity` becomes an alias of `uoft`: subscriptions 3 and 5 change
    // form and are re-indexed.
    let mut aliased = ontology.clone();
    let (uoft, varsity) = (i.intern("uoft"), i.intern("varsity"));
    aliased.synonyms.add_synonym(uoft, varsity, &i).unwrap();
    let interner = SharedInterner::from_interner(i);

    let mut config = Config::default();
    let mut source: Arc<dyn SemanticSource> = Arc::new(ontology);
    let matcher = SToPSS::new(config, source.clone(), interner.clone());
    let mut live = subs.to_vec();
    for (sub, tolerance) in &live {
        matcher.subscribe_with_tolerance(sub.clone(), *tolerance);
    }
    let mut origins = Vec::new();
    let mut check = |step: &str, config: Config, source: &Arc<dyn SemanticSource>, live: &[_]| {
        let mut oracle = OraclePath::new(config, source.clone(), interner.clone(), live.to_vec());
        for (k, event) in events.iter().enumerate() {
            let want = oracle.publish_detailed(event).matches;
            assert_eq!(matcher.publish(event), want, "after {step}: event {k} diverged");
            origins.extend(want.iter().map(|m| m.origin));
        }
    };
    check("subscribing", config, &source, &live);

    source = Arc::new(aliased);
    matcher.set_source(source.clone());
    check("set_source", config, &source, &live);

    config = config.with_stages(StageMask::HIERARCHY.with(StageMask::MAPPING));
    matcher.set_stages(config.stages);
    check("set_stages", config, &source, &live);

    config = Config::default().with_engine(EngineKind::Naive);
    matcher.reconfigure(config);
    check("reconfigure", config, &source, &live);

    live[1] = (resubscribed.clone(), full);
    matcher.subscribe(resubscribed);
    check("re-subscribing sub#2", config, &source, &live);

    live.remove(5);
    live.push((returning.clone(), full));
    matcher.unsubscribe(SubId(6));
    matcher.subscribe(returning);
    check("unsubscribing sub#6 and subscribing sub#7", config, &source, &live);

    for origin in [MatchOrigin::Syntactic, MatchOrigin::Synonym, MatchOrigin::Mapping] {
        assert!(origins.contains(&origin), "no {origin:?} match to check");
    }
    assert!(origins.iter().any(|o| matches!(o, MatchOrigin::Hierarchy { .. })));
}
