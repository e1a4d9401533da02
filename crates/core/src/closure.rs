//! The semantic closure of an event.
//!
//! Figure 1 of the paper: an incoming event passes the synonym stage, then
//! the concept-hierarchy and mapping-function stages, which "can be
//! executed multiple times … the concept hierarchy stage can create new
//! events for which additional mapping functions exist and vice versa"
//! (§3.2). This module computes the *flattened* least fixpoint of that
//! interplay: instead of materializing separate derived events, every
//! derivable attribute–value pair is appended to one multi-valued event
//! (under ∃-semantics this yields the union of everything the paper's
//! per-event formulation can match — see `strategy.rs` for the
//! materializing variant and the equivalence discussion).
//!
//! The fixpoint is bounded (`max_rounds`, `max_pairs`): a mapping function
//! such as `x → x + 1` would otherwise derive forever. Hitting a bound
//! flags the closure as truncated; matching remains sound (no false
//! matches), merely incomplete, and the truncation counters surface in the
//! experiment reports.

use std::borrow::Cow;

use stopss_ontology::SemanticSource;
use stopss_types::{Event, Interner, Operator, Predicate, Subscription, Symbol, Value};

use crate::tolerance::StageMask;

/// Bounds on the closure fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureLimits {
    /// Maximum total pairs in the closed event (base + derived).
    pub max_pairs: usize,
    /// Maximum hierarchy/mapping alternations.
    pub max_rounds: u32,
}

impl Default for ClosureLimits {
    fn default() -> Self {
        ClosureLimits { max_pairs: 512, max_rounds: 8 }
    }
}

/// Per-pair derivation metadata, aligned with the closed event's pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairInfo {
    /// Minimal generalization distance over every pair this one is
    /// derivable from in one hierarchy application (component-wise
    /// maximum of attribute and value distance per derivation; 0 for base
    /// and mapping-produced pairs). Recording the *minimum* is what lets
    /// the provenance classifier read the smallest sufficient tolerance
    /// straight off the unbounded closure instead of re-closing the event
    /// once per candidate distance.
    pub distance: u32,
    /// True if a mapping function produced this pair.
    pub via_mapping: bool,
    /// True if the hierarchy stage derived this pair (such pairs are not
    /// generalized again — ancestor sets are already transitive).
    pub hierarchy_derived: bool,
}

/// An event together with every semantically derivable pair.
#[derive(Clone, Debug)]
pub struct ClosedEvent {
    /// The widened event (base pairs first, derived pairs appended).
    pub event: Event,
    /// Metadata for each pair of `event`.
    pub info: Vec<PairInfo>,
    /// Number of pairs the raw event contributed.
    pub base_pairs: usize,
    /// Hierarchy/mapping rounds executed.
    pub rounds: u32,
    /// True if a limit stopped the fixpoint early.
    pub truncated: bool,
    /// True if hierarchy-derived pairs may have changed what the mapping
    /// stage did: the hierarchy stage derived a pair whose attribute some
    /// mapping function reads ([`SemanticSource::mapping_reads`]), or a
    /// mapping production coincided with a pair the hierarchy had already
    /// derived. While false, a distance bound removes hierarchy-derived
    /// pairs and leaves every mapping production as it is.
    pub hierarchy_feeds_mappings: bool,
    /// True if the hierarchy stage generalized a mapping-produced pair (one
    /// with at least one ancestor alternative). While false, no pair
    /// outside the mapping stage's own derivations depends on that stage.
    pub generalized_mapping_output: bool,
}

impl ClosedEvent {
    /// Number of derived (non-base) pairs.
    pub fn derived_pairs(&self) -> usize {
        self.event.len() - self.base_pairs
    }
}

/// Rewrites an event into canonical root terms: attribute names always,
/// symbol values too (they are categorical terms). Numeric and boolean
/// values pass through.
///
/// Runs once per publication (and once per verification class through the
/// closure), so the common case — no term of the event has a synonym
/// mapping — returns the input borrowed: the function itself allocates
/// nothing, and the closure paths that must own their base event fall
/// back to a plain buffer clone instead of a pair-by-pair rebuild
/// through the synonym table; the same fast path
/// [`synonym_resolve_subscription`] takes at subscribe time. When some
/// term does resolve, the prefix scanned before it is copied verbatim,
/// so no pair is pushed through the synonym table twice.
pub fn synonym_resolve_event<'a>(event: &'a Event, source: &dyn SemanticSource) -> Cow<'a, Event> {
    let resolve_pair = |(attr, value): &(Symbol, Value)| {
        let attr = source.resolve_synonym(*attr);
        let value = match value {
            Value::Sym(s) => Value::Sym(source.resolve_synonym(*s)),
            other => *other,
        };
        (attr, value)
    };
    let pairs = event.pairs();
    let first_changed = pairs.iter().position(|pair| resolve_pair(pair) != *pair);
    let Some(first_changed) = first_changed else {
        return Cow::Borrowed(event);
    };
    Cow::Owned(
        pairs[..first_changed]
            .iter()
            .copied()
            .chain(pairs[first_changed..].iter().map(resolve_pair))
            .collect(),
    )
}

/// Rewrites a subscription into canonical root terms. Attribute names are
/// resolved for every operator; symbol *values* only for `Eq`/`Ne`, where
/// they denote categorical terms. String-operator patterns (`Prefix`,
/// `Suffix`, `Contains`) are fragments, not terms — rewriting `"teach"`
/// because some ontology maps `teach → instruct` would corrupt them.
///
/// Runs once per subscribe and once per candidate in the verify oracle,
/// so the common case — no term of the subscription has a synonym
/// mapping — returns the input borrowed, with no clone or allocation.
pub fn synonym_resolve_subscription<'a>(
    sub: &'a Subscription,
    source: &dyn SemanticSource,
) -> Cow<'a, Subscription> {
    let unchanged = sub.predicates().iter().all(|p| synonym_resolve_predicate(p, source) == *p);
    if unchanged {
        return Cow::Borrowed(sub);
    }
    let predicates =
        sub.predicates().iter().map(|p| synonym_resolve_predicate(p, source)).collect();
    Cow::Owned(Subscription::new(sub.id(), predicates))
}

/// Rewrites one predicate into canonical root terms, by the rules of
/// [`synonym_resolve_subscription`]: the attribute always, a symbol value
/// only under `Eq`/`Ne`. The provenance classifier resolves each distinct
/// predicate of a publication's matches through it once.
pub(crate) fn synonym_resolve_predicate(p: &Predicate, source: &dyn SemanticSource) -> Predicate {
    let attr = source.resolve_synonym(p.attr);
    let value = match (p.op, p.value) {
        (Operator::Eq | Operator::Ne, Value::Sym(s)) => Value::Sym(source.resolve_synonym(s)),
        (_, v) => v,
    };
    Predicate::new(attr, p.op, value)
}

/// Computes the bounded semantic closure of `event`.
///
/// * `stages` selects which machinery runs (Figure 1's pluggable stages);
/// * `max_distance` bounds each generalization step component-wise (the
///   information-loss knob);
/// * `now_year` feeds mapping expressions' `now`.
pub fn semantic_closure(
    event: &Event,
    source: &dyn SemanticSource,
    stages: StageMask,
    max_distance: Option<u32>,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) -> ClosedEvent {
    let base = if stages.synonym() {
        synonym_resolve_event(event, source).into_owned()
    } else {
        event.clone()
    };
    let base_pairs = base.len();
    let mut closed = ClosedEvent {
        info: vec![
            PairInfo { distance: 0, via_mapping: false, hierarchy_derived: false };
            base_pairs
        ],
        event: base,
        base_pairs,
        rounds: 0,
        truncated: false,
        hierarchy_feeds_mappings: false,
        generalized_mapping_output: false,
    };
    if stages.is_syntactic() || (!stages.hierarchy() && !stages.mapping()) {
        return closed;
    }
    if max_distance == Some(0) && !stages.mapping() {
        return closed; // zero tolerance disables generalization entirely
    }

    // Index of the first pair the hierarchy stage has not yet examined.
    let mut hierarchy_cursor = 0usize;
    for round in 0..limits.max_rounds {
        let len_before = closed.event.len();

        if stages.hierarchy() && max_distance != Some(0) {
            expand_hierarchy(
                &mut closed,
                source,
                stages,
                max_distance,
                &mut hierarchy_cursor,
                len_before,
                limits,
            );
        }
        if stages.mapping() && closed.event.len() < limits.max_pairs {
            apply_mappings(&mut closed, source, stages, now_year, interner, limits);
        }

        closed.rounds = round + 1;
        if closed.event.len() == len_before {
            break; // fixpoint
        }
        if closed.event.len() >= limits.max_pairs {
            closed.truncated = true;
            break;
        }
        if round + 1 == limits.max_rounds {
            closed.truncated = true;
        }
    }
    closed
}

/// Generalizes every not-yet-processed, non-hierarchy-derived pair:
/// `(a, v)` entails `(a', v')` for ancestors `a'` of `a` and `v'` of `v`
/// (rule R1). Only generalization is performed — never specialization —
/// which encodes rule R2 ("events that contain more generalized terms than
/// those used in the subscriptions do not match").
///
/// Also records the two facts the tier cache's read-off rules rest on
/// ([`ClosedEvent::hierarchy_feeds_mappings`] for derived pairs,
/// [`ClosedEvent::generalized_mapping_output`]).
fn expand_hierarchy(
    closed: &mut ClosedEvent,
    source: &dyn SemanticSource,
    stages: StageMask,
    max_distance: Option<u32>,
    cursor: &mut usize,
    upto: usize,
    limits: &ClosureLimits,
) {
    let admits = |d: u32| max_distance.is_none_or(|k| d <= k);
    let start = *cursor;
    *cursor = upto;
    for idx in start..upto {
        let from = closed.info[idx];
        if from.hierarchy_derived {
            continue;
        }
        let (attr, value) = closed.event.pairs()[idx];
        // Ancestor alternatives: (term, distance), distance 0 = unchanged.
        let mut attr_alts: Vec<(Symbol, u32)> = vec![(attr, 0)];
        source.for_each_ancestor(attr, &mut |anc, d| {
            if admits(d) {
                attr_alts.push((anc, d));
            }
        });
        let mut value_alts: Vec<(Value, u32)> = vec![(value, 0)];
        if let Value::Sym(v) = value {
            source.for_each_ancestor(v, &mut |anc, d| {
                if admits(d) {
                    value_alts.push((Value::Sym(anc), d));
                }
            });
        }
        // Both lists start with the unchanged term: more than two entries
        // means this mapping-produced pair has something to generalize to.
        if from.via_mapping && attr_alts.len() + value_alts.len() > 2 {
            closed.generalized_mapping_output = true;
        }
        for &(a, da) in &attr_alts {
            // Whether mappings read `a` is asked at most once per
            // alternative, and only while the answer can still set the flag.
            let mut ask_reads = stages.mapping() && !closed.hierarchy_feeds_mappings;
            for &(v, dv) in &value_alts {
                if da == 0 && dv == 0 {
                    continue; // the pair itself
                }
                if closed.event.len() >= limits.max_pairs {
                    closed.truncated = true;
                    return;
                }
                let derived = da.max(dv);
                match closed.event.pairs().iter().position(|&(pa, pv)| pa == a && pv == v) {
                    // A pair can be derivable from several source pairs at
                    // different distances; keep the minimum so the recorded
                    // distance is exactly "smallest bound that admits it".
                    Some(existing) => {
                        if closed.info[existing].distance > derived {
                            closed.info[existing].distance = derived;
                        }
                    }
                    None => {
                        closed.event.push(a, v);
                        closed.info.push(PairInfo {
                            distance: derived,
                            via_mapping: from.via_mapping,
                            hierarchy_derived: true,
                        });
                        if ask_reads {
                            ask_reads = false;
                            closed.hierarchy_feeds_mappings |= source.mapping_reads(a);
                        }
                    }
                }
            }
        }
    }
}

/// Runs every candidate mapping function against the current widened event
/// and appends its productions (synonym-resolved, so derived pairs live in
/// the same canonical term space).
fn apply_mappings(
    closed: &mut ClosedEvent,
    source: &dyn SemanticSource,
    stages: StageMask,
    now_year: i64,
    interner: &Interner,
    limits: &ClosureLimits,
) {
    // The sink borrows `closed.event` immutably while producing, so collect
    // first and append afterwards.
    let mut produced: Vec<(Symbol, Value)> = Vec::new();
    source.apply_mappings(&closed.event, interner, now_year, &mut |_, pairs| {
        produced.extend(pairs);
    });
    for (attr, value) in produced {
        if closed.event.len() >= limits.max_pairs {
            closed.truncated = true;
            return;
        }
        let (attr, value) = if stages.synonym() {
            let attr = source.resolve_synonym(attr);
            let value = match value {
                Value::Sym(s) => Value::Sym(source.resolve_synonym(s)),
                other => other,
            };
            (attr, value)
        } else {
            (attr, value)
        };
        match closed.event.pairs().iter().position(|&(a, v)| a == attr && v == value) {
            // A production the hierarchy already derived stays a
            // hierarchy pair, so what later rounds see depends on it.
            Some(existing) => {
                if closed.info[existing].hierarchy_derived {
                    closed.hierarchy_feeds_mappings = true;
                }
            }
            None => {
                closed.event.push(attr, value);
                closed.info.push(PairInfo {
                    distance: 0,
                    via_mapping: true,
                    hierarchy_derived: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
    use stopss_types::{EventBuilder, Interner};

    fn jobs_ontology(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("jobs");
        let university = i.intern("university");
        let school = i.intern("school");
        o.synonyms.add_synonym(university, school, i).unwrap();
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, i).unwrap();
        o.taxonomy.add_isa(phd, grad, i).unwrap();
        let gy = i.intern("graduation_year");
        let pe = i.intern("professional_experience");
        o.mappings
            .register(MappingFunction::new(
                "experience",
                vec![PatternItem { attr: gy, guard: None }],
                vec![Production { attr: pe, expr: Expr::sub(Expr::Now, Expr::Attr(gy)) }],
            ))
            .unwrap();
        o
    }

    #[test]
    fn synonym_stage_canonicalizes_attrs_and_values() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i).term("school", "toronto").build();
        let resolved = synonym_resolve_event(&e, &o);
        let university = i.get("university").unwrap();
        assert!(resolved.has_attr(university));
        assert!(!resolved.has_attr(i.get("school").unwrap()));
    }

    #[test]
    fn event_without_synonyms_resolves_borrowed() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        // Neither `credential` nor `phd` has a synonym root; numeric values
        // are exempt outright.
        let e = EventBuilder::new(&mut i)
            .term("credential", "phd")
            .pair("graduation_year", 1993i64)
            .build();
        let resolved = synonym_resolve_event(&e, &o);
        assert!(matches!(resolved, Cow::Borrowed(_)), "no mapping applies: no clone");
        assert_eq!(*resolved, e);
    }

    #[test]
    fn closure_generalizes_values_transitively() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i).term("credential", "phd").build();
        let closed =
            semantic_closure(&e, &o, StageMask::all(), None, 2003, &i, &ClosureLimits::default());
        let credential = i.get("credential").unwrap();
        let grad = Value::Sym(i.get("graduate_degree").unwrap());
        let degree = Value::Sym(i.get("degree").unwrap());
        assert!(closed.event.values_for(credential).any(|v| *v == grad));
        assert!(closed.event.values_for(credential).any(|v| *v == degree));
        assert_eq!(closed.base_pairs, 1);
        assert_eq!(closed.derived_pairs(), 2);
        assert!(!closed.truncated);
        // Distances recorded per derived pair.
        let distances: Vec<u32> = closed.info.iter().map(|p| p.distance).collect();
        assert_eq!(distances, vec![0, 1, 2]);
    }

    #[test]
    fn distance_bound_prunes_far_ancestors() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i).term("credential", "phd").build();
        let closed = semantic_closure(
            &e,
            &o,
            StageMask::all(),
            Some(1),
            2003,
            &i,
            &ClosureLimits::default(),
        );
        assert_eq!(closed.derived_pairs(), 1, "only graduate_degree at distance 1");
        let zero = semantic_closure(
            &e,
            &o,
            StageMask::all().without(StageMask::MAPPING),
            Some(0),
            2003,
            &i,
            &ClosureLimits::default(),
        );
        assert_eq!(zero.derived_pairs(), 0);
    }

    #[test]
    fn mapping_stage_appends_computed_pairs() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i).pair("graduation_year", 1993i64).build();
        let closed =
            semantic_closure(&e, &o, StageMask::all(), None, 2003, &i, &ClosureLimits::default());
        let pe = i.get("professional_experience").unwrap();
        assert_eq!(closed.event.get(pe), Some(&Value::Int(10)));
        let mapped: Vec<_> = closed
            .event
            .pairs()
            .iter()
            .zip(&closed.info)
            .filter(|(_, info)| info.via_mapping)
            .map(|(pair, _)| *pair)
            .collect();
        assert_eq!(mapped, vec![(pe, Value::Int(10))], "exactly the experience production");
        let info = closed.info.last().unwrap();
        assert!(info.via_mapping);
        assert_eq!(info.distance, 0);
    }

    /// `java is-a language`, and a function whose guard needs the general
    /// term: `skill = language ⇒ label = coder`.
    fn guarded_label_ontology(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("t");
        let lang = i.intern("language");
        let java = i.intern("java");
        o.taxonomy.add_isa(java, lang, i).unwrap();
        let skill = i.intern("skill");
        let label = i.intern("label");
        let coder = i.intern("coder");
        o.mappings
            .register(MappingFunction::new(
                "coder_label",
                vec![PatternItem {
                    attr: skill,
                    guard: Some(stopss_ontology::Guard {
                        op: Operator::Eq,
                        value: Value::Sym(lang),
                    }),
                }],
                vec![Production { attr: label, expr: Expr::Const(Value::Sym(coder)) }],
            ))
            .unwrap();
        o
    }

    #[test]
    fn hierarchy_and_mapping_interleave() {
        // Mapping guard requires the *general* term; only reachable after
        // the hierarchy stage generalizes the event's specialized value.
        let mut i = Interner::new();
        let o = guarded_label_ontology(&mut i);
        let label = i.get("label").unwrap();
        let coder = i.get("coder").unwrap();

        let e = EventBuilder::new(&mut i).term("skill", "java").build();
        let closed =
            semantic_closure(&e, &o, StageMask::all(), None, 0, &i, &ClosureLimits::default());
        assert_eq!(closed.event.get(label), Some(&Value::Sym(coder)));
        assert!(closed.rounds >= 2, "needs a hierarchy round before the mapping fires");

        // Without the hierarchy stage the mapping must not fire.
        let without = semantic_closure(
            &e,
            &o,
            StageMask::SYNONYM.with(StageMask::MAPPING),
            None,
            0,
            &i,
            &ClosureLimits::default(),
        );
        assert_eq!(without.event.get(label), None);
    }

    /// A chain of functions `c0 → c1 → … → c10`: each round unlocks the
    /// next link, so deep chains exercise the fixpoint bounds.
    fn chain_ontology(i: &mut Interner, links: usize) -> Ontology {
        let mut o = Ontology::new("chain");
        for k in 0..links {
            let from = i.intern(&format!("c{k}"));
            let to = i.intern(&format!("c{}", k + 1));
            o.mappings
                .register(MappingFunction::new(
                    format!("step{k}"),
                    vec![PatternItem { attr: from, guard: None }],
                    vec![Production {
                        attr: to,
                        expr: Expr::add(Expr::Attr(from), Expr::Const(Value::Int(1))),
                    }],
                ))
                .unwrap();
        }
        o
    }

    #[test]
    fn pair_cap_truncates_wide_derivations() {
        let mut i = Interner::new();
        let o = chain_ontology(&mut i, 10);
        let e = EventBuilder::new(&mut i).pair("c0", 0i64).build();
        let limits = ClosureLimits { max_pairs: 5, max_rounds: 16 };
        let closed = semantic_closure(&e, &o, StageMask::all(), None, 0, &i, &limits);
        assert!(closed.truncated);
        assert!(closed.event.len() <= 5);
    }

    #[test]
    fn round_cap_truncates_deep_chains() {
        let mut i = Interner::new();
        let o = chain_ontology(&mut i, 10);
        let e = EventBuilder::new(&mut i).pair("c0", 0i64).build();
        let limits = ClosureLimits { max_pairs: 10_000, max_rounds: 3 };
        let closed = semantic_closure(&e, &o, StageMask::all(), None, 0, &i, &limits);
        assert!(closed.truncated);
        assert_eq!(closed.rounds, 3);
        // Exactly one link per round.
        assert_eq!(closed.event.len(), 4);
        // Generous bounds let the 10-link chain complete (10 growth rounds
        // plus one fixpoint-detection round).
        let generous = ClosureLimits { max_pairs: 512, max_rounds: 12 };
        let full = semantic_closure(&e, &o, StageMask::all(), None, 0, &i, &generous);
        assert!(!full.truncated);
        assert_eq!(full.event.len(), 11);
        assert_eq!(full.info.iter().filter(|p| p.via_mapping).count(), 10, "one pair per link");
    }

    #[test]
    fn pair_distance_is_minimal_over_derivations() {
        // Both `near` and `far` generalize to `top`, at distances 1 and 2.
        // The closure visits `far` first, so `top` is initially recorded at
        // distance 2 — the later distance-1 derivation must win.
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let far = i.intern("far");
        let mid = i.intern("mid");
        let near = i.intern("near");
        let top = i.intern("top");
        o.taxonomy.add_isa(far, mid, &i).unwrap();
        o.taxonomy.add_isa(mid, top, &i).unwrap();
        o.taxonomy.add_isa(near, top, &i).unwrap();
        let e = EventBuilder::new(&mut i).term("x", "far").term("x", "near").build();
        let closed = semantic_closure(
            &e,
            &o,
            StageMask::SYNONYM.with(StageMask::HIERARCHY),
            None,
            0,
            &i,
            &ClosureLimits::default(),
        );
        let x = i.get("x").unwrap();
        let idx = closed
            .event
            .pairs()
            .iter()
            .position(|&(a, v)| a == x && v == Value::Sym(top))
            .expect("top must be derived");
        assert_eq!(closed.info[idx].distance, 1, "minimum over both derivation paths");
        // Consistency: the distance-1 bounded closure must already carry it.
        let bounded = semantic_closure(
            &e,
            &o,
            StageMask::SYNONYM.with(StageMask::HIERARCHY),
            Some(1),
            0,
            &i,
            &ClosureLimits::default(),
        );
        assert!(bounded.event.values_for(x).any(|v| *v == Value::Sym(top)));
    }

    fn full_closure(e: &Event, o: &Ontology, i: &Interner) -> ClosedEvent {
        semantic_closure(e, o, StageMask::all(), None, 2003, i, &ClosureLimits::default())
    }

    #[test]
    fn hierarchy_feeds_mappings_when_it_derives_a_mapping_read_attribute() {
        let mut i = Interner::new();
        let o = guarded_label_ontology(&mut i);
        let e = EventBuilder::new(&mut i).term("skill", "java").build();
        assert!(full_closure(&e, &o, &i).hierarchy_feeds_mappings, "skill = language is read");
        // The same derivation with the mapping stage off feeds nothing.
        let no_mapping = semantic_closure(
            &e,
            &o,
            StageMask::SYNONYM.with(StageMask::HIERARCHY),
            None,
            0,
            &i,
            &ClosureLimits::default(),
        );
        assert!(!no_mapping.hierarchy_feeds_mappings);
    }

    #[test]
    fn hierarchy_feeds_mappings_when_a_production_meets_a_derived_pair() {
        // `y` present ⇒ `x = top`, which the hierarchy already derived from
        // `x = low`: the production is absorbed into a hierarchy pair.
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let (low, top) = (i.intern("low"), i.intern("top"));
        o.taxonomy.add_isa(low, top, &i).unwrap();
        let (x, y) = (i.intern("x"), i.intern("y"));
        o.mappings
            .register(MappingFunction::new(
                "top_if_y",
                vec![PatternItem { attr: y, guard: None }],
                vec![Production { attr: x, expr: Expr::Const(Value::Sym(top)) }],
            ))
            .unwrap();
        let e = EventBuilder::new(&mut i).term("x", "low").pair("y", 1i64).build();
        let closed = full_closure(&e, &o, &i);
        assert!(!o.mapping_reads(x), "x is only produced, never read");
        assert!(closed.hierarchy_feeds_mappings);
    }

    #[test]
    fn hierarchy_does_not_feed_mappings_on_unread_attributes() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i)
            .term("credential", "phd")
            .pair("graduation_year", 1993i64)
            .build();
        let closed = full_closure(&e, &o, &i);
        assert_eq!(closed.derived_pairs(), 3, "two generalizations and one production");
        assert!(!closed.hierarchy_feeds_mappings, "no function reads credential");
        assert!(!closed.generalized_mapping_output, "the production is a number");
    }

    #[test]
    fn generalized_mapping_output_when_a_production_has_ancestors() {
        let mut i = Interner::new();
        let mut o = guarded_label_ontology(&mut i);
        let (coder, worker) = (i.intern("coder"), i.intern("worker"));
        o.taxonomy.add_isa(coder, worker, &i).unwrap();
        let e = EventBuilder::new(&mut i).term("skill", "language").build();
        let closed = full_closure(&e, &o, &i);
        let label = i.get("label").unwrap();
        assert!(closed.event.values_for(label).any(|v| *v == Value::Sym(worker)));
        assert!(closed.generalized_mapping_output);
        assert!(!closed.hierarchy_feeds_mappings, "the guard matched a base pair");
        // Without the coder → worker edge the production stays as it is.
        let plain = guarded_label_ontology(&mut i);
        assert!(!full_closure(&e, &plain, &i).generalized_mapping_output);
    }

    #[test]
    fn syntactic_mask_is_identity() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let e = EventBuilder::new(&mut i).term("school", "toronto").build();
        let closed = semantic_closure(
            &e,
            &o,
            StageMask::syntactic(),
            None,
            2003,
            &i,
            &ClosureLimits::default(),
        );
        assert_eq!(closed.event, e);
        assert_eq!(closed.derived_pairs(), 0);
    }

    #[test]
    fn subscription_rewrite_keeps_string_patterns() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        let sub = stopss_types::SubscriptionBuilder::new(&mut i)
            .term_eq("school", "toronto")
            .term("title", Operator::Contains, "school")
            .build(stopss_types::SubId(1));
        let resolved = synonym_resolve_subscription(&sub, &o);
        assert!(matches!(resolved, Cow::Owned(_)), "a term resolved, so a rewrite is needed");
        let university = i.get("university").unwrap();
        assert_eq!(resolved.predicates()[0].attr, university, "Eq attr resolved");
        // The Contains pattern "school" must stay untouched even though the
        // term has a synonym root.
        let school = i.get("school").unwrap();
        assert_eq!(resolved.predicates()[1].value, Value::Sym(school));
    }

    #[test]
    fn subscription_without_synonyms_resolves_borrowed() {
        let mut i = Interner::new();
        let o = jobs_ontology(&mut i);
        // No attribute or Eq-value of this subscription has a synonym root;
        // `school` appears only as a Contains fragment, which is exempt.
        let sub = stopss_types::SubscriptionBuilder::new(&mut i)
            .term_eq("credential", "phd")
            .term("title", Operator::Contains, "school")
            .build(stopss_types::SubId(7));
        let resolved = synonym_resolve_subscription(&sub, &o);
        assert!(matches!(resolved, Cow::Borrowed(_)), "no mapping applies: no clone");
        assert_eq!(*resolved, sub);
    }
}
