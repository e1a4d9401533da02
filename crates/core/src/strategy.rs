//! Strategy-specific machinery: event materialization (Figure 1 verbatim)
//! and subscription rewriting.

use std::collections::VecDeque;

use stopss_matching::MatchingEngine;
use stopss_ontology::SemanticSource;
use stopss_types::{
    Event, FxHashSet, Interner, Operator, Predicate, SubId, Subscription, Symbol, Value,
};

use crate::closure::synonym_resolve_event;
use crate::config::Limits;
use crate::tolerance::StageMask;

/// Outcome counters of a materializing publication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaterializeOutcome {
    /// Derived events fed to the engine (including the root event).
    pub derived_events: usize,
    /// True if `max_derived_events` stopped the exploration.
    pub truncated: bool,
}

/// Pairs beyond this index in one event are not considered for hierarchy
/// generalization (the derived-pair bitmask is a `u64`). Real events are
/// far smaller; the cap only guards pathological generated workloads.
const MAX_TRACKED_PAIRS: usize = 64;

/// The derivation lattice of the materializing strategy: every event the
/// engine will see, in breadth-first derivation order (root first).
#[derive(Clone, Debug)]
pub struct MaterializedEvents {
    /// The derived events, deduplicated by fingerprint.
    pub events: Vec<Event>,
    /// True if `max_derived_events` stopped the exploration.
    pub truncated: bool,
}

/// The *event-side* half of the paper-faithful strategy: breadth-first
/// materialization of derived events. Each hierarchy derivation appends
/// one generalized pair ("new event from concept hierarchy"); each
/// mapping derivation appends the produced pairs ("new event from mapping
/// function"). The exploration depends only on the event, the ontology,
/// and the bounds — never on the engine — which is what lets the
/// event-side pass compute it once per publication, ahead of matching
/// ([`crate::frontend::prepare_event`]).
///
/// Because derivations append (never replace), the set of derived events
/// forms a lattice whose maximum is exactly the flattened closure of
/// `closure.rs` — at fixpoint this strategy and
/// [`GeneralizedEvent`](crate::Strategy::GeneralizedEvent) produce the
/// same match set, while
/// the event *count* explored here grows combinatorially. That cost gap,
/// bounded by `max_derived_events`, is experiment E8.
#[allow(clippy::too_many_arguments)] // strategy entry point, mirrors semantic_closure
pub fn materialize_closure(
    event_raw: &Event,
    source: &dyn SemanticSource,
    stages: StageMask,
    max_distance: Option<u32>,
    now_year: i64,
    interner: &Interner,
    limits: &Limits,
) -> MaterializedEvents {
    let admits = |d: u32| max_distance.is_none_or(|k| d <= k);
    let root = if stages.synonym() {
        synonym_resolve_event(event_raw, source).into_owned()
    } else {
        event_raw.clone()
    };

    let mut outcome = MaterializeOutcome { derived_events: 1, truncated: false };
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.insert(root.fingerprint());
    // The u64 marks hierarchy-derived pairs: their ancestors are already
    // covered transitively, so they are not generalized again. The lattice
    // vec doubles as the BFS queue (derivations only append), so every
    // derived event is built exactly once.
    let mut queue: VecDeque<(usize, u64)> = VecDeque::new();
    queue.push_back((0, 0));
    let mut events: Vec<Event> = vec![root];

    while let Some((event_idx, derived_mask)) = queue.pop_front() {
        // Move the current event out so the derivation closures can push
        // new events without aliasing it; restored below.
        let event = std::mem::replace(&mut events[event_idx], Event::new());
        let mut push = |base: &Event,
                        extra: &[(Symbol, Value)],
                        mark_derived: bool,
                        outcome: &mut MaterializeOutcome,
                        queue: &mut VecDeque<(usize, u64)>,
                        events: &mut Vec<Event>| {
            let mut derived = base.clone();
            let mut mask = derived_mask;
            let mut grew = false;
            for &(a, v) in extra {
                if derived.push_unique(a, v) {
                    grew = true;
                    let idx = derived.len() - 1;
                    if mark_derived && idx < MAX_TRACKED_PAIRS {
                        mask |= 1 << idx;
                    }
                }
            }
            if !grew {
                return;
            }
            if outcome.derived_events >= limits.max_derived_events {
                outcome.truncated = true;
                return;
            }
            if seen.insert(derived.fingerprint()) {
                outcome.derived_events += 1;
                queue.push_back((events.len(), mask));
                events.push(derived);
            }
        };

        if stages.hierarchy() && max_distance != Some(0) {
            let pair_count = event.len().min(MAX_TRACKED_PAIRS);
            for idx in 0..pair_count {
                if derived_mask & (1 << idx) != 0 {
                    continue; // already a generalization; ancestors are transitive
                }
                let (attr, value) = event.pairs()[idx];
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
                for &(a, da) in &attr_alts {
                    for &(v, dv) in &value_alts {
                        if da == 0 && dv == 0 {
                            continue;
                        }
                        push(&event, &[(a, v)], true, &mut outcome, &mut queue, &mut events);
                    }
                }
            }
        }

        if stages.mapping() {
            let mut produced: Vec<Vec<(Symbol, Value)>> = Vec::new();
            source.apply_mappings(&event, interner, now_year, &mut |_, pairs| {
                produced.push(pairs);
            });
            for pairs in produced {
                let resolved: Vec<(Symbol, Value)> = pairs
                    .into_iter()
                    .map(|(attr, value)| {
                        if stages.synonym() {
                            let attr = source.resolve_synonym(attr);
                            let value = match value {
                                Value::Sym(sym) => Value::Sym(source.resolve_synonym(sym)),
                                other => other,
                            };
                            (attr, value)
                        } else {
                            (attr, value)
                        }
                    })
                    .collect();
                push(&event, &resolved, false, &mut outcome, &mut queue, &mut events);
            }
        }

        events[event_idx] = event;
    }
    MaterializedEvents { events, truncated: outcome.truncated }
}

/// The full paper-faithful strategy: materialize the derivation lattice
/// ([`materialize_closure`]) and feed every derived event to the
/// unmodified engine; `candidates` accumulates the union of the match
/// sets. The one-call entry point; the matcher itself splits the two
/// halves so the lattice is derived in the event-side pass.
#[allow(clippy::too_many_arguments)] // strategy entry point, mirrors semantic_closure
pub fn materialize_match(
    event_raw: &Event,
    source: &dyn SemanticSource,
    stages: StageMask,
    max_distance: Option<u32>,
    now_year: i64,
    interner: &Interner,
    limits: &Limits,
    engine: &mut dyn MatchingEngine,
    candidates: &mut FxHashSet<SubId>,
) -> MaterializeOutcome {
    let materialized =
        materialize_closure(event_raw, source, stages, max_distance, now_year, interner, limits);
    let mut scratch: Vec<SubId> = Vec::new();
    for event in &materialized.events {
        scratch.clear();
        engine.match_event(event, interner, &mut scratch);
        candidates.extend(scratch.iter().copied());
    }
    MaterializeOutcome {
        derived_events: materialized.events.len(),
        truncated: materialized.truncated,
    }
}

/// Result of expanding one user subscription for the rewrite strategy.
#[derive(Clone, Debug)]
pub struct RewriteExpansion {
    /// Predicate lists, one per engine subscription.
    pub combos: Vec<Vec<Predicate>>,
    /// True if `max_rewrites` clipped the cross-product (recall loss,
    /// surfaced in the matcher's statistics).
    pub truncated: bool,
}

/// Expands a (synonym-resolved) subscription over taxonomy descendants:
/// each predicate's attribute — and, for `Eq` on categorical values, the
/// value — is replaced by every descendant within `max_distance`. The
/// cross-product over predicates yields the engine subscriptions: an event
/// carrying any combination of specializations then matches syntactically,
/// with no hierarchy work at publish time.
pub fn expand_subscription(
    sub: &Subscription,
    source: &dyn SemanticSource,
    use_hierarchy: bool,
    max_distance: Option<u32>,
    max_rewrites: usize,
) -> RewriteExpansion {
    let admits = |d: u32| max_distance.is_none_or(|k| d <= k);
    // Alternatives per predicate.
    let mut alternative_sets: Vec<Vec<Predicate>> = Vec::with_capacity(sub.len());
    for pred in sub.predicates() {
        let mut alts: Vec<Predicate> = vec![*pred];
        if use_hierarchy {
            let mut attr_alts: Vec<Symbol> = vec![pred.attr];
            for (desc, d) in source.descendants(pred.attr) {
                if admits(d) && !attr_alts.contains(&desc) {
                    attr_alts.push(desc);
                }
            }
            let mut value_alts: Vec<Value> = vec![pred.value];
            if pred.op == Operator::Eq {
                if let Value::Sym(v) = pred.value {
                    for (desc, d) in source.descendants(v) {
                        let candidate = Value::Sym(desc);
                        if admits(d) && !value_alts.contains(&candidate) {
                            value_alts.push(candidate);
                        }
                    }
                }
            }
            alts.clear();
            for &attr in &attr_alts {
                for &value in &value_alts {
                    alts.push(Predicate::new(attr, pred.op, value));
                }
            }
        }
        alternative_sets.push(alts);
    }

    // Cross-product with a cap.
    let mut combos: Vec<Vec<Predicate>> = vec![Vec::with_capacity(sub.len())];
    let mut truncated = false;
    for alts in &alternative_sets {
        let mut next = Vec::with_capacity(combos.len() * alts.len());
        'outer: for combo in &combos {
            for alt in alts {
                if next.len() >= max_rewrites {
                    truncated = true;
                    break 'outer;
                }
                let mut extended = combo.clone();
                extended.push(*alt);
                next.push(extended);
            }
        }
        combos = next;
    }
    RewriteExpansion { combos, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_matching::NaiveEngine;
    use stopss_ontology::{Expr, MappingFunction, Ontology, PatternItem, Production};
    use stopss_types::{EventBuilder, Interner, SubscriptionBuilder};

    fn degrees(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("t");
        let degree = i.intern("degree");
        let grad = i.intern("graduate_degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(grad, degree, i).unwrap();
        o.taxonomy.add_isa(phd, grad, i).unwrap();
        o
    }

    #[test]
    fn materialization_finds_generalized_matches() {
        let mut i = Interner::new();
        let o = degrees(&mut i);
        let mut engine = NaiveEngine::new();
        engine.insert(
            SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1)),
        );
        engine
            .insert(SubscriptionBuilder::new(&mut i).term_eq("credential", "phd").build(SubId(2)));
        let e = EventBuilder::new(&mut i).term("credential", "phd").build();
        let mut candidates = FxHashSet::default();
        let outcome = materialize_match(
            &e,
            &o,
            StageMask::all(),
            None,
            2003,
            &i,
            &Limits::default(),
            &mut engine,
            &mut candidates,
        );
        let mut got: Vec<SubId> = candidates.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![SubId(1), SubId(2)]);
        // root, root+graduate_degree, root+degree, root+both = 4 events
        // (append semantics explores the generalization lattice).
        assert_eq!(outcome.derived_events, 4);
        assert!(!outcome.truncated);
    }

    #[test]
    fn materialization_respects_event_cap() {
        let mut i = Interner::new();
        let mut o = Ontology::new("wide");
        // A value with many ancestors → many derived events.
        let leaf = i.intern("leaf");
        for k in 0..50 {
            let anc = i.intern(&format!("anc{k}"));
            o.taxonomy.add_isa(leaf, anc, &i).unwrap();
        }
        let mut engine = NaiveEngine::new();
        let e = EventBuilder::new(&mut i).term("x", "leaf").build();
        let limits = Limits { max_derived_events: 10, ..Limits::default() };
        let mut candidates = FxHashSet::default();
        let outcome = materialize_match(
            &e,
            &o,
            StageMask::all(),
            None,
            0,
            &i,
            &limits,
            &mut engine,
            &mut candidates,
        );
        assert!(outcome.truncated);
        assert_eq!(outcome.derived_events, 10);
    }

    #[test]
    fn materialization_chains_mapping_after_hierarchy() {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let lang = i.intern("language");
        let java = i.intern("java");
        o.taxonomy.add_isa(java, lang, &i).unwrap();
        let skill = i.intern("skill");
        let label = i.intern("label");
        let coder = i.intern("coder");
        o.mappings
            .register(MappingFunction::new(
                "coder",
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
        let mut engine = NaiveEngine::new();
        engine.insert(SubscriptionBuilder::new(&mut i).term_eq("label", "coder").build(SubId(7)));
        let e = EventBuilder::new(&mut i).term("skill", "java").build();
        let mut candidates = FxHashSet::default();
        materialize_match(
            &e,
            &o,
            StageMask::all(),
            None,
            0,
            &i,
            &Limits::default(),
            &mut engine,
            &mut candidates,
        );
        assert!(candidates.contains(&SubId(7)), "hierarchy→mapping chain must be explored");
    }

    #[test]
    fn expansion_covers_descendant_values() {
        let mut i = Interner::new();
        let o = degrees(&mut i);
        let sub = SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1));
        let expansion = expand_subscription(&sub, &o, true, None, 1024);
        assert!(!expansion.truncated);
        // degree, graduate_degree, phd as values (attr has no descendants).
        assert_eq!(expansion.combos.len(), 3);
        let values: Vec<Value> = expansion.combos.iter().map(|c| c[0].value).collect();
        let phd = Value::Sym(i.get("phd").unwrap());
        assert!(values.contains(&phd));
    }

    #[test]
    fn expansion_distance_bound() {
        let mut i = Interner::new();
        let o = degrees(&mut i);
        let sub = SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1));
        let expansion = expand_subscription(&sub, &o, true, Some(1), 1024);
        assert_eq!(expansion.combos.len(), 2, "phd is at distance 2, excluded");
    }

    #[test]
    fn expansion_cross_product_and_cap() {
        let mut i = Interner::new();
        let o = degrees(&mut i);
        let sub = SubscriptionBuilder::new(&mut i)
            .term_eq("credential", "degree")
            .term_eq("level", "degree")
            .build(SubId(1));
        let full = expand_subscription(&sub, &o, true, None, 1024);
        assert_eq!(full.combos.len(), 9);
        let capped = expand_subscription(&sub, &o, true, None, 4);
        assert!(capped.truncated);
        assert!(capped.combos.len() <= 4);
    }

    #[test]
    fn expansion_without_hierarchy_is_identity() {
        let mut i = Interner::new();
        let o = degrees(&mut i);
        let sub = SubscriptionBuilder::new(&mut i).term_eq("credential", "degree").build(SubId(1));
        let expansion = expand_subscription(&sub, &o, false, None, 1024);
        assert_eq!(expansion.combos.len(), 1);
        assert_eq!(expansion.combos[0], sub.predicates().to_vec());
    }

    #[test]
    fn range_predicates_expand_attribute_only() {
        let mut i = Interner::new();
        let mut o = Ontology::new("t");
        let comp = i.intern("compensation");
        let salary = i.intern("salary");
        o.taxonomy.add_isa(salary, comp, &i).unwrap();
        let sub = SubscriptionBuilder::new(&mut i)
            .pred("compensation", Operator::Ge, 50_000i64)
            .build(SubId(1));
        let expansion = expand_subscription(&sub, &o, true, None, 1024);
        assert_eq!(expansion.combos.len(), 2);
        let attrs: Vec<Symbol> = expansion.combos.iter().map(|c| c[0].attr).collect();
        assert!(attrs.contains(&salary));
        assert!(attrs.contains(&comp));
    }
}
