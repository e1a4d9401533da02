//! Differential testing: every engine must produce exactly the match set
//! of the ground-truth relation `Subscription::matches`, on randomized
//! workloads covering all operators, multi-valued events, and churn
//! (removals between publications).

use proptest::prelude::*;

use stopss_matching::{collect_matches, EngineKind};
use stopss_types::{Event, Interner, Operator, Predicate, SubId, Subscription, Symbol, Value};

/// Fixed, small vocabularies keep collision probability high enough that
/// matches actually happen.
const ATTRS: usize = 6;
const TERMS: usize = 8;

fn fixture_interner() -> Interner {
    let mut interner = Interner::new();
    for a in 0..ATTRS {
        interner.intern(&format!("attr{a}"));
    }
    for t in 0..TERMS {
        interner.intern(&format!("term{t}"));
    }
    interner
}

fn attr_sym(i: usize) -> Symbol {
    Symbol::from_index(i % ATTRS)
}

fn term_sym(i: usize) -> Symbol {
    Symbol::from_index(ATTRS + (i % TERMS))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        (-5i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        (0usize..TERMS).prop_map(|t| Value::Sym(term_sym(t))),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_operator() -> impl Strategy<Value = Operator> {
    prop_oneof![
        Just(Operator::Eq),
        Just(Operator::Ne),
        Just(Operator::Lt),
        Just(Operator::Le),
        Just(Operator::Gt),
        Just(Operator::Ge),
        Just(Operator::Exists),
        Just(Operator::Prefix),
        Just(Operator::Suffix),
        Just(Operator::Contains),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0usize..ATTRS, arb_operator(), arb_value())
        .prop_map(|(a, op, value)| Predicate::new(attr_sym(a), op, value))
}

fn arb_subscription(id: u64) -> impl Strategy<Value = Subscription> {
    proptest::collection::vec(arb_predicate(), 0..5)
        .prop_map(move |preds| Subscription::new(SubId(id), preds))
}

fn arb_subscriptions() -> impl Strategy<Value = Vec<Subscription>> {
    proptest::collection::vec(0u64..1, 1..25).prop_flat_map(|seeds| {
        let strategies: Vec<_> =
            (0..seeds.len()).map(|k| arb_subscription(k as u64).boxed()).collect();
        strategies
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    proptest::collection::vec((0usize..ATTRS, arb_value()), 0..6)
        .prop_map(|pairs| pairs.into_iter().map(|(a, v)| (attr_sym(a), v)).collect())
}

fn oracle(subs: &[Subscription], event: &Event, interner: &Interner) -> Vec<SubId> {
    let mut out: Vec<SubId> =
        subs.iter().filter(|s| s.matches(event, interner)).map(|s| s.id()).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engines_agree_with_ground_truth(
        subs in arb_subscriptions(),
        events in proptest::collection::vec(arb_event(), 1..10),
    ) {
        let interner = fixture_interner();
        for kind in EngineKind::ALL {
            let mut engine = kind.build();
            for s in &subs {
                engine.insert(s.clone());
            }
            prop_assert_eq!(engine.len(), subs.len());
            for event in &events {
                let got = collect_matches(engine.as_mut(), event, &interner);
                let want = oracle(&subs, event, &interner);
                prop_assert_eq!(&got, &want, "engine {} diverged", kind.name());
            }
        }
    }

    #[test]
    fn engines_agree_under_churn(
        subs in arb_subscriptions(),
        remove_mask in proptest::collection::vec(any::<bool>(), 25),
        events in proptest::collection::vec(arb_event(), 1..6),
    ) {
        let interner = fixture_interner();
        let survivors: Vec<Subscription> = subs
            .iter()
            .enumerate()
            .filter(|(k, _)| !remove_mask.get(*k).copied().unwrap_or(false))
            .map(|(_, s)| s.clone())
            .collect();
        for kind in EngineKind::ALL {
            let mut engine = kind.build();
            for s in &subs {
                engine.insert(s.clone());
            }
            for (k, s) in subs.iter().enumerate() {
                if remove_mask.get(k).copied().unwrap_or(false) {
                    prop_assert!(engine.remove(s.id()));
                }
            }
            prop_assert_eq!(engine.len(), survivors.len());
            for event in &events {
                let got = collect_matches(engine.as_mut(), event, &interner);
                let want = oracle(&survivors, event, &interner);
                prop_assert_eq!(&got, &want, "engine {} diverged after churn", kind.name());
            }
        }
    }

    #[test]
    fn reinsertion_after_clear_is_clean(
        subs in arb_subscriptions(),
        event in arb_event(),
    ) {
        let interner = fixture_interner();
        for kind in EngineKind::ALL {
            let mut engine = kind.build();
            for s in &subs {
                engine.insert(s.clone());
            }
            engine.clear();
            prop_assert!(engine.is_empty());
            for s in &subs {
                engine.insert(s.clone());
            }
            let got = collect_matches(engine.as_mut(), &event, &interner);
            let want = oracle(&subs, &event, &interner);
            prop_assert_eq!(&got, &want, "engine {} diverged after clear", kind.name());
        }
    }
}
