//! Reference semantics.
//!
//! [`semantic_match`] decides the semantic matching relation directly from
//! its definition — synonym canonicalization, bounded closure, conjunctive
//! ∃-semantics — without any engine, index, or strategy. It is the ground
//! truth for the property tests, the per-subscription tolerance filter,
//! and the provenance classifier.
//!
//! These functions are off the hot matching path: per-candidate tolerance
//! verification and provenance classification are served from the
//! per-publication [`crate::TierCache`] (see `frontend.rs`), which
//! computes each closure at most once per publication instead of per
//! candidate — [`classify_match`] alone re-derives up to 3 closures plus
//! one per candidate hierarchy distance (bounded by
//! [`CLASSIFY_DISTANCE_CAP`]). The matcher calls [`classify_match`] only
//! when a truncated closure leaves the cached tiers inexact. The functions
//! here stay **untouched ground truth**: `tests/tier_cache_differential.rs`
//! rebuilds the per-candidate reference from them and pins the matcher
//! byte-identical to it across engines × stage masks × mixed tolerances,
//! including truncated-closure and distance-cap edge cases.

use stopss_ontology::SemanticSource;
use stopss_types::{Event, Interner, Subscription};

use crate::closure::{semantic_closure, synonym_resolve_subscription, ClosureLimits};
use crate::provenance::MatchOrigin;
use crate::tolerance::{StageMask, Tolerance};

/// Largest hierarchy distance the provenance classifier searches before
/// reporting the match as "distance ≥ cap". Real taxonomies are shallow
/// (WordNet-scale hierarchies stay under 20 levels).
pub const CLASSIFY_DISTANCE_CAP: u32 = 64;

/// Does `sub` semantically match `event_raw` under `tolerance`?
///
/// Both inputs are *raw* (as the subscriber/publisher wrote them): the
/// synonym stage is applied here iff the tolerance enables it, which is
/// what makes per-subscriber "no synonyms please" meaningful.
pub fn semantic_match(
    sub: &Subscription,
    event_raw: &Event,
    source: &dyn SemanticSource,
    tolerance: &Tolerance,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> bool {
    let resolved_sub;
    let sub = if tolerance.stages.synonym() {
        resolved_sub = synonym_resolve_subscription(sub, source);
        &resolved_sub
    } else {
        sub
    };
    let closed = semantic_closure(
        event_raw,
        source,
        tolerance.stages,
        tolerance.max_distance,
        now_year,
        interner,
        limits,
    );
    sub.matches(&closed.event, interner)
}

/// Classifies why `sub` matches `event_raw` (which it must, under
/// `stages` with unbounded distance): the weakest machinery that already
/// produces the match.
pub fn classify_match(
    sub: &Subscription,
    event_raw: &Event,
    source: &dyn SemanticSource,
    stages: StageMask,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> MatchOrigin {
    // 1. Syntactic: raw against raw.
    if sub.matches(event_raw, interner) {
        return MatchOrigin::Syntactic;
    }
    // 2. Synonyms only.
    if stages.synonym()
        && semantic_match(
            sub,
            event_raw,
            source,
            &Tolerance { stages: StageMask::SYNONYM, max_distance: None },
            now_year,
            interner,
            limits,
        )
    {
        return MatchOrigin::Synonym;
    }
    // 3. Hierarchy (plus synonyms): find the smallest sufficient distance.
    let hier_stages = stages.intersect(StageMask::SYNONYM.with(StageMask::HIERARCHY));
    if stages.hierarchy()
        && semantic_match(
            sub,
            event_raw,
            source,
            &Tolerance { stages: hier_stages, max_distance: None },
            now_year,
            interner,
            limits,
        )
    {
        for k in 1..=CLASSIFY_DISTANCE_CAP {
            if semantic_match(
                sub,
                event_raw,
                source,
                &Tolerance { stages: hier_stages, max_distance: Some(k) },
                now_year,
                interner,
                limits,
            ) {
                return MatchOrigin::Hierarchy { distance: k };
            }
        }
        return MatchOrigin::Hierarchy { distance: CLASSIFY_DISTANCE_CAP };
    }
    // 4. Anything else needed the mapping stage.
    MatchOrigin::Mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
    use stopss_types::{EventBuilder, Interner, Operator, SubId, SubscriptionBuilder};

    /// The complete §1/§3.1 worked example of the paper.
    fn paper_world(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("jobs");
        let university = i.intern("university");
        let school = i.intern("school");
        o.synonyms.add_synonym(university, school, i).unwrap();
        let we = i.intern("work experience");
        let pe = i.intern("professional experience");
        o.synonyms.add_synonym(pe, we, i).unwrap();
        let gy = i.intern("graduation year");
        o.mappings
            .register(MappingFunction::new(
                "experience_from_graduation",
                vec![PatternItem { attr: gy, guard: None }],
                vec![Production { attr: pe, expr: Expr::sub(Expr::Now, Expr::Attr(gy)) }],
            ))
            .unwrap();
        o
    }

    #[test]
    fn paper_section_3_1_synonym_example() {
        // S: (university = Toronto) ∧ (professional experience ≥ 4)
        // E: (school, Toronto)(professional experience, 5)
        let mut i = Interner::new();
        let o = paper_world(&mut i);
        let sub = SubscriptionBuilder::new(&mut i)
            .term_eq("university", "toronto")
            .pred("professional experience", Operator::Ge, 4i64)
            .build(SubId(1));
        let e = EventBuilder::new(&mut i)
            .term("school", "toronto")
            .pair("professional experience", 5i64)
            .build();
        assert!(
            !sub.matches(&e, &i),
            "syntactically 'school' does not match 'university' — the paper's point"
        );
        assert!(semantic_match(
            &sub,
            &e,
            &o,
            &Tolerance::full(),
            2003,
            &i,
            &ClosureLimits::default()
        ));
        assert_eq!(
            classify_match(&sub, &e, &o, StageMask::all(), 2003, &i, &ClosureLimits::default()),
            MatchOrigin::Synonym
        );
    }

    #[test]
    fn paper_section_3_1_mapping_example() {
        // S: (university = Toronto) ∧ (professional experience ≥ 4)
        // E: (school, Toronto)(graduation year, 1993)(job1, IBM)…
        let mut i = Interner::new();
        let o = paper_world(&mut i);
        let sub = SubscriptionBuilder::new(&mut i)
            .term_eq("university", "toronto")
            .pred("professional experience", Operator::Ge, 4i64)
            .build(SubId(1));
        let e = EventBuilder::new(&mut i)
            .term("school", "toronto")
            .pair("graduation year", 1993i64)
            .term("job1", "ibm")
            .term("job2", "microsoft")
            .build();
        assert!(semantic_match(
            &sub,
            &e,
            &o,
            &Tolerance::full(),
            2003,
            &i,
            &ClosureLimits::default()
        ));
        assert_eq!(
            classify_match(&sub, &e, &o, StageMask::all(), 2003, &i, &ClosureLimits::default()),
            MatchOrigin::Mapping
        );
        // Without the mapping stage there is no match.
        let no_mapping =
            Tolerance { stages: StageMask::all().without(StageMask::MAPPING), max_distance: None };
        assert!(!semantic_match(&sub, &e, &o, &no_mapping, 2003, &i, &ClosureLimits::default()));
    }

    #[test]
    fn rule_r2_general_events_do_not_match_special_subscriptions() {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let vehicle = i.intern("vehicle");
        let car = i.intern("car");
        o.taxonomy.add_isa(car, vehicle, &i).unwrap();
        let sub_special = SubscriptionBuilder::new(&mut i).term_eq("item", "car").build(SubId(1));
        let sub_general =
            SubscriptionBuilder::new(&mut i).term_eq("item", "vehicle").build(SubId(2));
        let event_general = EventBuilder::new(&mut i).term("item", "vehicle").build();
        let event_special = EventBuilder::new(&mut i).term("item", "car").build();
        let t = Tolerance::full();
        let lim = ClosureLimits::default();
        // R1: special event, general subscription → match.
        assert!(semantic_match(&sub_general, &event_special, &o, &t, 0, &i, &lim));
        // R2: general event, special subscription → no match.
        assert!(!semantic_match(&sub_special, &event_general, &o, &t, 0, &i, &lim));
    }

    #[test]
    fn tolerance_distance_bounds_the_match() {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let (a, b, c) = (i.intern("a"), i.intern("b"), i.intern("c"));
        o.taxonomy.add_isa(a, b, &i).unwrap();
        o.taxonomy.add_isa(b, c, &i).unwrap();
        let sub = SubscriptionBuilder::new(&mut i).term_eq("x", "c").build(SubId(1));
        let e = EventBuilder::new(&mut i).term("x", "a").build();
        let lim = ClosureLimits::default();
        assert!(semantic_match(&sub, &e, &o, &Tolerance::bounded(2), 0, &i, &lim));
        assert!(!semantic_match(&sub, &e, &o, &Tolerance::bounded(1), 0, &i, &lim));
        assert_eq!(
            classify_match(&sub, &e, &o, StageMask::all(), 0, &i, &lim),
            MatchOrigin::Hierarchy { distance: 2 }
        );
    }

    #[test]
    fn attribute_names_generalize_too() {
        // The hierarchy covers attributes as well as values ("a concept
        // hierarchy contains all terms within a specific domain, which
        // includes both attributes and values").
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let compensation = i.intern("compensation");
        let salary = i.intern("salary");
        o.taxonomy.add_isa(salary, compensation, &i).unwrap();
        let sub = SubscriptionBuilder::new(&mut i)
            .pred("compensation", Operator::Ge, 50_000i64)
            .build(SubId(1));
        let e = EventBuilder::new(&mut i).pair("salary", 60_000i64).build();
        assert!(semantic_match(&sub, &e, &o, &Tolerance::full(), 0, &i, &ClosureLimits::default()));
        assert_eq!(
            classify_match(&sub, &e, &o, StageMask::all(), 0, &i, &ClosureLimits::default()),
            MatchOrigin::Hierarchy { distance: 1 }
        );
    }

    #[test]
    fn syntactic_tolerance_matches_only_raw() {
        let mut i = Interner::new();
        let o = paper_world(&mut i);
        let sub = SubscriptionBuilder::new(&mut i).term_eq("university", "toronto").build(SubId(1));
        let aliased = EventBuilder::new(&mut i).term("school", "toronto").build();
        let exact = EventBuilder::new(&mut i).term("university", "toronto").build();
        let t = Tolerance::syntactic();
        let lim = ClosureLimits::default();
        assert!(!semantic_match(&sub, &aliased, &o, &t, 2003, &i, &lim));
        assert!(semantic_match(&sub, &exact, &o, &t, 2003, &i, &lim));
        assert_eq!(
            classify_match(&sub, &exact, &o, StageMask::all(), 2003, &i, &lim),
            MatchOrigin::Syntactic
        );
    }
}
