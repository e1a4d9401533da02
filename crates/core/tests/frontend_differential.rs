//! Differential suite for the stage split of a publication.
//!
//! The two-stage publish path rests on one claim: the event-side semantic
//! pass ([`stopss_core::prepare_event`]) depends only on the event, the
//! ontology and the configuration — never on which subscriptions a
//! matcher holds — so preparing an artifact once and matching it is
//! byte-identical to letting the matcher recompute it per publication.
//! This suite pins that claim directly in `stopss-core`, across
//! engines × stage masks, through the `prepare` + `match_prepared` seam,
//! plus batch ≡ per-event publishing.

use std::sync::Arc;

use stopss_core::{semantic_match, Config, Match, PublishResult, SToPSS, StageMask, Tolerance};
use stopss_matching::EngineKind;
use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
use stopss_types::{
    Event, EventBuilder, Interner, Operator, SharedInterner, SubId, Subscription,
    SubscriptionBuilder,
};

struct World {
    interner: SharedInterner,
    source: Arc<Ontology>,
    subs: Vec<Subscription>,
    events: Vec<Event>,
}

/// A taxonomy + mapping world exercising all three semantic stages, with
/// enough subscriptions that every partition below is non-empty.
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

    let mut subs = Vec::new();
    for k in 0..24u64 {
        let sub = match k % 4 {
            0 => SubscriptionBuilder::new(&mut i)
                .term_eq("credential", ["degree", "graduate_degree", "phd"][(k / 4) as usize % 3])
                .build(SubId(k + 1)),
            1 => SubscriptionBuilder::new(&mut i)
                .term_eq("university", "toronto")
                .build(SubId(k + 1)),
            2 => SubscriptionBuilder::new(&mut i)
                .pred("professional_experience", Operator::Ge, 4i64)
                .build(SubId(k + 1)),
            _ => SubscriptionBuilder::new(&mut i)
                .term_eq("school", "toronto")
                .term_eq("credential", "degree")
                .build(SubId(k + 1)),
        };
        subs.push(sub);
    }
    let events = vec![
        EventBuilder::new(&mut i).term("credential", "phd").build(),
        EventBuilder::new(&mut i)
            .term("school", "toronto")
            .pair("graduation_year", 1993i64)
            .build(),
        EventBuilder::new(&mut i)
            .term("university", "toronto")
            .term("credential", "degree")
            .build(),
        EventBuilder::new(&mut i).term("credential", "other").build(),
    ];
    World { interner: SharedInterner::from_interner(i), source: Arc::new(o), subs, events }
}

fn representative_masks() -> [StageMask; 5] {
    [
        StageMask::syntactic(),
        StageMask::SYNONYM,
        StageMask::SYNONYM.with(StageMask::HIERARCHY),
        StageMask::HIERARCHY.with(StageMask::MAPPING),
        StageMask::all(),
    ]
}

/// Tolerances assigned round-robin so a matcher holds a mix of
/// tolerance-class partitions beside the system one.
fn tolerance_for(k: usize) -> Option<Tolerance> {
    match k % 5 {
        3 => Some(Tolerance::bounded(1)),
        4 => Some(Tolerance::syntactic()),
        _ => None,
    }
}

/// One matcher holding every subscription, with mixed tolerances.
fn single_matcher(w: &World, config: Config) -> SToPSS {
    let m = SToPSS::new(config, w.source.clone(), w.interner.clone());
    for (k, sub) in w.subs.iter().enumerate() {
        match tolerance_for(k) {
            Some(t) => m.subscribe_with_tolerance(sub.clone(), t),
            None => m.subscribe(sub.clone()),
        };
    }
    m
}

/// `shards` full matchers, each holding the subscriptions whose id falls
/// in its residue class, and each recomputing the complete semantic pass
/// per event.
fn replicated_shards(w: &World, config: Config, shards: usize) -> Vec<SToPSS> {
    let out: Vec<SToPSS> =
        (0..shards).map(|_| SToPSS::new(config, w.source.clone(), w.interner.clone())).collect();
    for sub in &w.subs {
        out[sub.id().0 as usize % shards].subscribe(sub.clone());
    }
    out
}

fn merge_replicated(per_shard: Vec<PublishResult>) -> Vec<Match> {
    let mut matches: Vec<Match> = per_shard.into_iter().flat_map(|r| r.matches).collect();
    matches.sort_unstable_by_key(|m| m.sub);
    matches
}

/// The hoisted artifact carries exactly the closure pairs, derived-event
/// counts and truncation flags that per-shard recomputation produces —
/// and matching the artifact per shard yields the same merged match set.
#[test]
fn hoisted_artifact_equals_per_shard_recomputation_across_stage_masks() {
    let w = world();
    for engine in EngineKind::ALL {
        for stages in representative_masks() {
            let config = Config::default().with_engine(engine).with_stages(stages);
            for shards in [2usize, 4] {
                let preparer = SToPSS::new(config, w.source.clone(), w.interner.clone());
                let mut replicated = replicated_shards(&w, config, shards);
                let label = format!("engine={} stages={stages:?} shards={shards}", engine.name());
                for event in &w.events {
                    let prepared = preparer.prepare(event);
                    // Per-shard full recomputation.
                    let per_shard: Vec<PublishResult> =
                        replicated.iter_mut().map(|s| s.publish_detailed(event)).collect();
                    for r in &per_shard {
                        assert_eq!(
                            (r.derived_events, r.closure_pairs, r.truncated),
                            (prepared.derived_events, prepared.closure_pairs, prepared.truncated),
                            "{label}: event-side counters must not depend on shard contents"
                        );
                    }
                    // Matching the shared artifact per shard gives the
                    // same merged match set as full recomputation.
                    let mut hoisted_shards = replicated_shards(&w, config, shards);
                    let mut hoisted: Vec<Match> = hoisted_shards
                        .iter_mut()
                        .flat_map(|s| s.match_prepared(&prepared).matches)
                        .collect();
                    hoisted.sort_unstable_by_key(|m| m.sub);
                    assert_eq!(hoisted, merge_replicated(per_shard), "{label}: matches diverged");
                }
            }
        }
    }
}

/// The subscriptions `semantic_match` accepts on `event`, each under its
/// own effective tolerance: the definition both publish paths must meet.
fn definition(w: &World, config: Config, event: &Event) -> Vec<SubId> {
    let system = config.system_tolerance();
    w.interner.with(|i| {
        let matches = |(k, sub): &(usize, &Subscription)| {
            let tolerance = tolerance_for(*k).unwrap_or(Tolerance::full()).clamp_to(&system);
            let limits = &config.limits.closure;
            semantic_match(sub, event, w.source.as_ref(), &tolerance, config.now_year, i, limits)
        };
        w.subs.iter().enumerate().filter(matches).map(|(_, sub)| sub.id()).collect()
    })
}

/// `prepare` + `match_prepared` is `publish_detailed` split in two: same
/// matches, which equal the definition, and same event-side counters.
#[test]
fn prepare_then_match_prepared_equals_publish_detailed() {
    let w = world();
    for engine in EngineKind::ALL {
        let config = Config::default().with_engine(engine);
        let label = engine.name();
        let direct = single_matcher(&w, config);
        let split = single_matcher(&w, config);
        assert!(split.verify_classes().len() > 1, "{label}: the tolerance mix fills partitions");
        for event in &w.events {
            let want = direct.publish_detailed(event);
            let got = split.match_prepared(&split.prepare(event));
            assert_eq!(got.matches, want.matches, "{label}");
            let ids: Vec<SubId> = got.matches.iter().map(|m| m.sub).collect();
            assert_eq!(ids, definition(&w, config, event), "{label}");
            assert_eq!(got.derived_events, want.derived_events, "{label}");
            assert_eq!(got.closure_pairs, want.closure_pairs, "{label}");
            assert_eq!(got.truncated, want.truncated, "{label}");
        }
    }
}

/// `publish_batch` over mixed tolerances equals publishing the same
/// events one at a time — match sets, provenance, ordering and lifetime
/// stats — at batch sizes from one event to the whole feed.
#[test]
fn batch_equals_per_event_publish() {
    let w = world();
    let feed: Vec<Event> = w.events.iter().cycle().take(40).cloned().collect();
    for engine in EngineKind::ALL {
        let config = Config::default().with_engine(engine);
        let label = engine.name();
        let per_event = single_matcher(&w, config);
        let want: Vec<Vec<Match>> = feed.iter().map(|e| per_event.publish(e)).collect();
        assert!(want.iter().any(|m| !m.is_empty()), "{label}: the feed must produce matches");
        for batch_size in [1, 7, feed.len()] {
            let batched = single_matcher(&w, config);
            let got: Vec<Vec<Match>> =
                feed.chunks(batch_size).flat_map(|batch| batched.publish_batch(batch)).collect();
            assert_eq!(got, want, "{label}: batch_size={batch_size}");
            assert_eq!(batched.stats(), per_event.stats(), "{label}: batch_size={batch_size}");
        }
    }
}
