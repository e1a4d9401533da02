//! Property tests: the matcher, over every engine, and the Figure-1
//! event-materialization reference ([`stopss_core::materialize_match`])
//! must agree with the executable definition of semantic matching in
//! `stopss_core::oracle`.
//!
//! Two generators are used:
//!
//! * an *unrestricted* one (all ten operators, synonyms over taxonomy
//!   terms, arbitrary mapping wiring) — checked against the flattened
//!   closure semantics, which the matcher implements directly;
//! * a *constrained* one for materialization, avoiding its documented
//!   approximations: `Ne`/string predicates over categorical values and
//!   mapping functions whose triggers are themselves generalizable
//!   (binding-sensitive under materialization). Within this class
//!   materialization is exact, so it must agree bit-for-bit with the
//!   oracle unless its budget truncated the exploration — in which case
//!   the result must still be sound (a subset of the oracle's matches).
//!
//! Subscription rewriting ([`stopss_core::expand_subscription`]) is inexact
//! even on the constrained class; experiment E8 pins its recall and engine
//! entries (`results/strategy.csv`).

use std::sync::Arc;

use proptest::prelude::*;

use stopss_core::{
    materialize_match, semantic_match, synonym_resolve_subscription, Config, SToPSS, StageMask,
    Tolerance,
};
use stopss_matching::EngineKind;
use stopss_ontology::{Expr, Guard, MappingFunction, Ontology, PatternItem, Production};
use stopss_types::{
    Event, Interner, Operator, Predicate, SharedInterner, SubId, Subscription, Symbol, Value,
};

/// Fixed vocabulary layout (interned in this order):
/// t0..t5   taxonomy value terms
/// a0..a3   event/subscription attributes (a1 is-a a0 optionally)
/// m0..m1   mapping trigger attributes (never in taxonomy/synonyms)
/// o0..o1   mapping output attributes
/// s0..s2   value aliases (synonyms of t-terms)
/// aa0      attribute alias (synonym of a0)
const T: usize = 6;
const A: usize = 4;
const M: usize = 2;
const O: usize = 2;
const S: usize = 3;

fn base_interner() -> Interner {
    let mut i = Interner::new();
    for k in 0..T {
        i.intern(&format!("t{k}"));
    }
    for k in 0..A {
        i.intern(&format!("a{k}"));
    }
    for k in 0..M {
        i.intern(&format!("m{k}"));
    }
    for k in 0..O {
        i.intern(&format!("o{k}"));
    }
    for k in 0..S {
        i.intern(&format!("s{k}"));
    }
    i.intern("aa0");
    i
}

fn t(k: usize) -> Symbol {
    Symbol::from_index(k % T)
}
fn a(k: usize) -> Symbol {
    Symbol::from_index(T + (k % A))
}
fn m(k: usize) -> Symbol {
    Symbol::from_index(T + A + (k % M))
}
fn o(k: usize) -> Symbol {
    Symbol::from_index(T + A + M + (k % O))
}
fn s(k: usize) -> Symbol {
    Symbol::from_index(T + A + M + O + (k % S))
}
fn aa0() -> Symbol {
    Symbol::from_index(T + A + M + O + S)
}

/// Declarative ontology description that proptest can generate and shrink.
#[derive(Clone, Debug)]
struct OntologySpec {
    /// Taxonomy edges (child_idx, parent_idx) with child < parent — always
    /// acyclic.
    edges: Vec<(usize, usize)>,
    /// a1 is-a a0.
    attr_edge: bool,
    /// Alias k ↦ root term index.
    aliases: Vec<usize>,
    /// aa0 ↦ a0.
    attr_alias: bool,
    /// Mapping functions: (trigger m-idx, numeric guard threshold or None,
    /// production: either o-idx = m + c, or a-idx = const t-term).
    mappings: Vec<MappingSpec>,
}

#[derive(Clone, Debug)]
enum MappingSpec {
    /// `when m_t >= guard? emit o_out = m_t + c`
    Numeric { trigger: usize, guard: Option<i64>, out: usize, add: i64 },
    /// `when m_t exists emit a_out = t_term`
    Term { trigger: usize, out: usize, term: usize },
}

fn build_ontology(spec: &OntologySpec, interner: &Interner) -> Ontology {
    let mut ont = Ontology::new("prop");
    for &(c, p) in &spec.edges {
        if c < p {
            ont.taxonomy.add_isa(t(c), t(p), interner).unwrap();
        }
    }
    if spec.attr_edge {
        ont.taxonomy.add_isa(a(1), a(0), interner).unwrap();
    }
    for (k, root) in spec.aliases.iter().enumerate() {
        ont.synonyms.add_synonym(t(*root), s(k), interner).unwrap();
    }
    if spec.attr_alias {
        ont.synonyms.add_synonym(a(0), aa0(), interner).unwrap();
    }
    for (k, mspec) in spec.mappings.iter().enumerate() {
        let func = match *mspec {
            MappingSpec::Numeric { trigger, guard, out, add } => MappingFunction::new(
                format!("num{k}"),
                vec![PatternItem {
                    attr: m(trigger),
                    guard: guard.map(|g| Guard { op: Operator::Ge, value: Value::Int(g) }),
                }],
                vec![Production {
                    attr: o(out),
                    expr: Expr::add(Expr::Attr(m(trigger)), Expr::Const(Value::Int(add))),
                }],
            ),
            MappingSpec::Term { trigger, out, term } => MappingFunction::new(
                format!("term{k}"),
                vec![PatternItem { attr: m(trigger), guard: None }],
                vec![Production { attr: a(out), expr: Expr::Const(Value::Sym(t(term))) }],
            ),
        };
        ont.mappings.register(func).unwrap();
    }
    ont
}

fn arb_spec() -> impl Strategy<Value = OntologySpec> {
    let edges = proptest::collection::vec((0usize..T - 1, 0usize..T), 0..6).prop_map(|raw| {
        raw.into_iter()
            .filter_map(|(c, p)| {
                let p = c + 1 + (p % (T - c - 1).max(1));
                (p < T).then_some((c, p))
            })
            .collect::<Vec<_>>()
    });
    (
        edges,
        any::<bool>(),
        proptest::collection::vec(0usize..T, 0..S),
        any::<bool>(),
        proptest::collection::vec(arb_mapping_spec(), 0..3),
    )
        .prop_map(|(edges, attr_edge, aliases, attr_alias, mappings)| OntologySpec {
            edges,
            attr_edge,
            aliases,
            attr_alias,
            mappings,
        })
}

fn arb_mapping_spec() -> impl Strategy<Value = MappingSpec> {
    prop_oneof![
        (0usize..M, proptest::option::of(-3i64..3), 0usize..O, -2i64..3).prop_map(
            |(trigger, guard, out, add)| MappingSpec::Numeric { trigger, guard, out, add }
        ),
        (0usize..M, 2usize..A, 0usize..T).prop_map(|(trigger, out, term)| MappingSpec::Term {
            trigger,
            out,
            term
        }),
    ]
}

/// Attribute choices for events/subscriptions; includes aliases.
fn arb_attr() -> impl Strategy<Value = Symbol> {
    prop_oneof![
        (0usize..A).prop_map(a),
        (0usize..M).prop_map(m),
        (0usize..O).prop_map(o),
        Just(aa0()),
    ]
}

fn arb_term_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0usize..T).prop_map(|k| Value::Sym(t(k))),
        (0usize..S).prop_map(|k| Value::Sym(s(k))),
        (-4i64..6).prop_map(Value::Int),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    proptest::collection::vec((arb_attr(), arb_term_value()), 1..4)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// Constrained predicate set: Eq, numeric ranges, Exists — exact under
/// materialization.
fn arb_constrained_predicate() -> impl Strategy<Value = Predicate> {
    (arb_attr(), 0usize..4, arb_term_value()).prop_map(|(attr, op_pick, value)| match op_pick {
        0 => Predicate::new(attr, Operator::Eq, value),
        1 => Predicate::new(attr, Operator::Ge, Value::Int(value.as_int().unwrap_or(0))),
        2 => Predicate::new(attr, Operator::Lt, Value::Int(value.as_int().unwrap_or(0) + 2)),
        _ => Predicate::exists(attr),
    })
}

/// Unrestricted predicates: all ten operators.
fn arb_any_predicate() -> impl Strategy<Value = Predicate> {
    (arb_attr(), 0usize..10usize, arb_term_value()).prop_map(|(attr, op_pick, value)| {
        let op = Operator::ALL[op_pick];
        Predicate::new(attr, op, value)
    })
}

fn subs_from(preds: Vec<Vec<Predicate>>) -> Vec<Subscription> {
    preds
        .into_iter()
        .enumerate()
        .map(|(k, p)| Subscription::new(SubId(1000 + k as u64), p))
        .collect()
}

fn oracle_matches(
    subs: &[Subscription],
    event: &Event,
    ont: &Ontology,
    tolerance: &Tolerance,
    interner: &Interner,
    limits: &stopss_core::ClosureLimits,
) -> Vec<SubId> {
    let mut out: Vec<SubId> = subs
        .iter()
        .filter(|sub| semantic_match(sub, event, ont, tolerance, 2003, interner, limits))
        .map(|s| s.id())
        .collect();
    out.sort_unstable();
    out
}

/// The Figure-1 reference: `subs`, synonym-resolved as the matcher indexes
/// them, in a counting engine, matched against every event of `event`'s
/// materialized derivation lattice under `tolerance` as the system
/// configuration. Returns the sorted union of the match sets and whether
/// `max_derived_events` truncated the lattice.
fn materialized_matches(
    subs: &[Subscription],
    event: &Event,
    ont: &Ontology,
    tolerance: &Tolerance,
    interner: &Interner,
    max_derived_events: usize,
) -> (Vec<SubId>, bool) {
    let mut engine = EngineKind::Counting.build();
    for sub in subs {
        engine.insert(synonym_resolve_subscription(sub, ont).into_owned());
    }
    let mut candidates = Default::default();
    let outcome = materialize_match(
        event,
        ont,
        tolerance.stages,
        tolerance.max_distance,
        2003,
        interner,
        max_derived_events,
        engine.as_mut(),
        &mut candidates,
    );
    let mut got: Vec<SubId> = candidates.into_iter().collect();
    got.sort_unstable();
    (got, outcome.truncated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flattened closure is the semantics definition; the matcher must
    /// implement it exactly over every engine, for arbitrary operators.
    #[test]
    fn generalized_equals_oracle_on_unrestricted_workloads(
        spec in arb_spec(),
        preds in proptest::collection::vec(proptest::collection::vec(arb_any_predicate(), 0..4), 1..10),
        events in proptest::collection::vec(arb_event(), 1..5),
        bounded in proptest::option::of(0u32..3),
    ) {
        let interner = base_interner();
        let ont = build_ontology(&spec, &interner);
        let subs = subs_from(preds);
        let tolerance = Tolerance { stages: StageMask::all(), max_distance: bounded };
        let source = Arc::new(ont);

        for engine in EngineKind::ALL {
            let config = Config {
                engine,
                stages: tolerance.stages,
                max_distance: tolerance.max_distance,
                track_provenance: false,
                ..Config::default()
            };
            let matcher = SToPSS::new(
                config,
                source.clone(),
                SharedInterner::from_interner(interner.clone()),
            );
            for sub in &subs {
                matcher.subscribe(sub.clone());
            }
            for event in &events {
                let result = matcher.publish_detailed(event);
                prop_assert!(!result.truncated, "defaults must not truncate tiny workloads");
                let mut got: Vec<SubId> = result.matches.iter().map(|m| m.sub).collect();
                got.sort_unstable();
                let want = oracle_matches(
                    &subs, event, &source, &tolerance, &interner, &config.limits.closure,
                );
                prop_assert_eq!(&got, &want, "engine {} diverged from oracle", engine.name());
            }
        }
    }

    /// On the constrained workload class the matcher and the materialization
    /// reference are both exact.
    #[test]
    fn materialize_and_generalized_agree_on_constrained_workloads(
        spec in arb_spec(),
        preds in proptest::collection::vec(proptest::collection::vec(arb_constrained_predicate(), 0..4), 1..8),
        events in proptest::collection::vec(arb_event(), 1..4),
        bounded in proptest::option::of(0u32..3),
    ) {
        let interner = base_interner();
        let ont = build_ontology(&spec, &interner);
        let subs = subs_from(preds);
        let tolerance = Tolerance { stages: StageMask::all(), max_distance: bounded };
        let source = Arc::new(ont);
        let config = Config {
            engine: EngineKind::Naive,
            stages: tolerance.stages,
            max_distance: tolerance.max_distance,
            track_provenance: false,
            ..Config::default()
        };
        let matcher = SToPSS::new(
            config,
            source.clone(),
            SharedInterner::from_interner(interner.clone()),
        );
        for sub in &subs {
            matcher.subscribe(sub.clone());
        }
        for event in &events {
            let want = oracle_matches(
                &subs, event, &source, &tolerance, &interner, &config.limits.closure,
            );
            let result = matcher.publish_detailed(event);
            prop_assert!(!result.truncated, "defaults must not truncate tiny workloads");
            let mut got: Vec<SubId> = result.matches.iter().map(|m| m.sub).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "the matcher diverged from the oracle");

            let (got, truncated) =
                materialized_matches(&subs, event, &source, &tolerance, &interner, 1 << 14);
            if truncated {
                // Bounded exploration must stay sound.
                prop_assert!(
                    got.iter().all(|id| want.contains(id)),
                    "materialization unsound under truncation"
                );
            } else {
                prop_assert_eq!(&got, &want, "materialization diverged from the oracle");
            }
        }
    }

    /// Aggressive truncation must never produce false matches.
    #[test]
    fn materialization_is_sound_under_tiny_budgets(
        spec in arb_spec(),
        preds in proptest::collection::vec(proptest::collection::vec(arb_constrained_predicate(), 0..4), 1..6),
        event in arb_event(),
        budget in 1usize..8,
    ) {
        let interner = base_interner();
        let ont = build_ontology(&spec, &interner);
        let subs = subs_from(preds);
        let tolerance = Tolerance::full();
        let (got, _) = materialized_matches(&subs, &event, &ont, &tolerance, &interner, budget);
        let want = oracle_matches(
            &subs, &event, &ont, &tolerance, &interner, &Config::default().limits.closure,
        );
        for id in &got {
            prop_assert!(want.contains(id), "false match under truncation");
        }
    }
}
