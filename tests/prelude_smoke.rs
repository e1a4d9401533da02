//! Facade smoke test: exercises `s_topss::prelude` exactly as the
//! crate-level doctest quickstart does, so the prelude's re-export
//! surface cannot drift from the documented entry point. (The doctest
//! itself also runs under `cargo test`; this integration test keeps the
//! same flow covered by a normal test target and extends it across
//! engines and the broker-facing re-exports.)

use std::sync::Arc;

use s_topss::prelude::*;

/// The quickstart flow, line for line: a synonym ontology, one
/// subscription, one publication using the other word.
#[test]
fn quickstart_flow_matches_via_synonym() {
    let mut interner = Interner::new();
    let mut ontology = Ontology::new("jobs");
    let university = interner.intern("university");
    let school = interner.intern("school");
    ontology.synonyms.add_synonym(university, school, &interner).unwrap();

    let sub =
        SubscriptionBuilder::new(&mut interner).term_eq("university", "toronto").build(SubId(1));
    let event = EventBuilder::new(&mut interner).term("school", "toronto").build();

    let matcher =
        SToPSS::new(Config::default(), Arc::new(ontology), SharedInterner::from_interner(interner));
    matcher.subscribe(sub);
    let matches = matcher.publish(&event);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].origin, MatchOrigin::Synonym);
}

/// The same flow must hold under every syntactic engine the prelude
/// exposes, and turning the semantic stages off must suppress the match.
#[test]
fn quickstart_flow_across_engines_and_stage_masks() {
    for engine in EngineKind::ALL {
        let mut interner = Interner::new();
        let mut ontology = Ontology::new("jobs");
        let university = interner.intern("university");
        let school = interner.intern("school");
        ontology.synonyms.add_synonym(university, school, &interner).unwrap();
        let source = Arc::new(ontology);

        let sub = SubscriptionBuilder::new(&mut interner)
            .term_eq("university", "toronto")
            .build(SubId(1));
        let event = EventBuilder::new(&mut interner).term("school", "toronto").build();

        let semantic = SToPSS::new(
            Config { engine, ..Config::default() },
            source.clone(),
            SharedInterner::from_interner(interner.clone()),
        );
        semantic.subscribe(sub.clone());
        assert_eq!(
            semantic.publish(&event).len(),
            1,
            "engine {} missed the synonym match",
            engine.name()
        );

        let syntactic = SToPSS::new(
            Config { engine, stages: StageMask::syntactic(), ..Config::default() },
            source,
            SharedInterner::from_interner(interner),
        );
        syntactic.subscribe(sub);
        assert_eq!(
            syntactic.publish(&event).len(),
            0,
            "engine {} matched syntactically-different terms without semantics",
            engine.name()
        );
    }
}

/// The prelude's remaining re-exports are usable as named types — the
/// broker surface, tolerances, workload config and `.sto` round-trip.
#[test]
fn prelude_reexports_are_usable() {
    // Broker + workload types, fed by the job-finder domain.
    let mut domain_interner = Interner::new();
    let domain = JobFinderDomain::build(&mut domain_interner);
    let broker: Broker = Broker::new(
        BrokerConfig::default(),
        Arc::new(domain.ontology),
        SharedInterner::from_interner(domain_interner.clone()),
    );
    let client = broker.register_client("smoke", TransportKind::Tcp);
    assert_eq!(broker.client_count(), 1);
    let _ = client;
    let _kinds: [TransportKind; 4] = TransportKind::ALL;
    let _workload = WorkloadConfig::default();
    drop(broker);

    // Ontology text format round-trip via prelude names.
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut domain_interner);
    let text = write_ontology(&domain.ontology, &domain_interner);
    let reparsed = parse_ontology(&text, &mut interner).unwrap();
    assert_eq!(reparsed.name(), domain.ontology.name());

    // Core knobs exposed by the prelude.
    let tolerance = Tolerance::full();
    assert!(tolerance.stages.contains(StageMask::SYNONYM));
    let _op = Operator::Eq;
    let _value = Value::Int(1);
    let _pred: Predicate = Predicate::exists(interner.intern("x"));
    let _sym: Symbol = interner.intern("y");
    let _event: Event = EventBuilder::new(&mut interner).term("a", "b").build();
    let _sub: Subscription =
        SubscriptionBuilder::new(&mut interner).term_eq("a", "b").build(SubId(9));
}
