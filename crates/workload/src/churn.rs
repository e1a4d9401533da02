//! Subscription/ontology-churn scenarios and interleaved-vs-sequential
//! replay — the differential harness for the matcher's control plane.
//!
//! The matcher's steady-state semantics are pinned by the oracle suites;
//! what those suites cannot see is *residue*: state an unsubscribe leaves
//! behind, a flash crowd of subscriptions perturbing later matches, or a
//! live ontology edit leaking into publications that started before it. A
//! [`ChurnScenario`] is a deterministic op stream (subscribe /
//! unsubscribe / ontology-swap / publish) generated from any [`Fixture`];
//! the replay functions score it differentially:
//!
//! * [`replay_interleaved`] runs the stream against one live matcher,
//!   single-threaded — the residue check. [`replay_sequential`] is its
//!   oracle: a fresh matcher built from the then-live subscription set
//!   (and then-current ontology) before each publish. Equal match sets
//!   prove churn leaves no trace.
//! * [`replay_concurrent`] runs the control ops on one thread *racing*
//!   publisher threads against the same live matcher — the control-plane
//!   check. Every control op returns the control epoch it created, every
//!   publication carries the epoch it matched under, and epochs from a
//!   single control thread are consecutive — so the racy execution
//!   linearizes: a publication stamped with epoch *e* must produce
//!   byte-identical matches (provenance included) to a fresh oracle
//!   holding exactly the state after the first `e` control ops, and a
//!   sequential replay of the linearized stream must reproduce the live
//!   matcher's final statistics exactly. Any torn state — a publish
//!   observing half a control op, or stats drifting under concurrency —
//!   breaks one of the two comparisons.

use stopss_types::sync::Arc;

use stopss_core::{Config, Match, PublishResult, SToPSS};
use stopss_ontology::Ontology;
use stopss_types::{Event, SubId, Subscription, Symbol};

use crate::rng::Rng;
use crate::scenario::Fixture;

/// One step of a churn stream.
#[derive(Clone, Debug)]
pub enum ChurnOp {
    /// Register a new subscription (fresh unique id).
    Subscribe(Subscription),
    /// Drop a currently-live subscription.
    Unsubscribe(SubId),
    /// Publish the fixture event at this index.
    Publish(usize),
    /// Swap the live ontology to [`ChurnScenario::ontologies`] at this
    /// index — semantic evolution between publications.
    SetOntology(usize),
}

/// The shape of the churn stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnMode {
    /// Unsubscribe-dominated: the live set keeps shrinking and refilling,
    /// so most ops mutate the subscription tables.
    UnsubscribeHeavy,
    /// Flash crowd: bursts of subscriptions arrive together, a few events
    /// land on the swollen set, then most of the crowd leaves at once.
    FlashCrowd,
}

/// A deterministic op stream over a fixture's subscription/event pools.
#[derive(Clone, Debug)]
pub struct ChurnScenario {
    /// The ops, in replay order.
    pub ops: Vec<ChurnOp>,
    /// How many `Publish` ops the stream contains.
    pub publishes: usize,
    /// The ontology variants `SetOntology` ops index into. Entry 0 is the
    /// fixture's base ontology; later entries grow it with deterministic
    /// synonym/is-a edits over the fixture's own terms.
    pub ontologies: Vec<Arc<Ontology>>,
}

/// Derives `extra` evolved ontology variants from the fixture's base by
/// adding seeded synonym and is-a edges between terms the fixture
/// actually uses (attribute names and symbolic values), skipping edits
/// the ontology rejects (conflicts, cycles). Each variant extends the
/// previous one, modelling monotone knowledge growth.
fn ontology_variants(fixture: &Fixture, extra: usize, rng: &mut Rng) -> Vec<Arc<Ontology>> {
    let mut terms: Vec<Symbol> = Vec::new();
    for sub in &fixture.subscriptions {
        for p in sub.predicates() {
            terms.push(p.attr);
            if let stopss_types::Value::Sym(s) = p.value {
                terms.push(s);
            }
        }
    }
    for event in &fixture.publications {
        for (attr, value) in event.pairs() {
            terms.push(*attr);
            if let stopss_types::Value::Sym(s) = value {
                terms.push(*s);
            }
        }
    }
    terms.sort_unstable();
    terms.dedup();

    let mut variants = vec![fixture.source.clone()];
    let mut current = (*fixture.source).clone();
    for _ in 0..extra {
        let mut applied = 0;
        let mut attempts = 0;
        while applied < 2 && attempts < 16 && terms.len() >= 2 {
            attempts += 1;
            let a = terms[rng.index(terms.len())];
            let b = terms[rng.index(terms.len())];
            if a == b {
                continue;
            }
            let ok = fixture.interner.with(|i| {
                if rng.chance(0.5) {
                    current.synonyms.add_synonym(a, b, i).is_ok()
                } else {
                    current.taxonomy.add_isa(b, a, i).is_ok()
                }
            });
            if ok {
                applied += 1;
            }
        }
        variants.push(Arc::new(current.clone()));
    }
    variants
}

/// Generates a churn stream of `steps` ops. Subscriptions are drawn from
/// the fixture pool but re-issued under fresh unique ids (so the same
/// template can live, die, and return); publish ops cycle through the
/// fixture's events; ontology-swap ops cycle through deterministic
/// evolved variants of the fixture ontology. Deterministic in `seed`.
pub fn churn_scenario(
    fixture: &Fixture,
    mode: ChurnMode,
    steps: usize,
    seed: u64,
) -> ChurnScenario {
    assert!(!fixture.subscriptions.is_empty() && !fixture.publications.is_empty());
    let mut rng = Rng::new(seed);
    let mut onto_rng = rng.fork(7);
    let ontologies = ontology_variants(fixture, 1 + steps / 50, &mut onto_rng);
    let mut ops = Vec::with_capacity(steps);
    let mut live: Vec<SubId> = Vec::new();
    let mut next_id = 0u64;
    let mut next_event = 0usize;
    let mut next_variant = 1usize;
    let mut publishes = 0usize;

    let mut subscribe = |rng: &mut Rng, live: &mut Vec<SubId>, ops: &mut Vec<ChurnOp>| {
        let template = rng.pick(&fixture.subscriptions);
        let id = SubId(1_000_000 + next_id);
        next_id += 1;
        live.push(id);
        ops.push(ChurnOp::Subscribe(Subscription::new(id, template.predicates().to_vec())));
    };
    let publish = |next_event: &mut usize, publishes: &mut usize, ops: &mut Vec<ChurnOp>| {
        ops.push(ChurnOp::Publish(*next_event % fixture.publications.len()));
        *next_event += 1;
        *publishes += 1;
    };
    let evolve = |next_variant: &mut usize, ops: &mut Vec<ChurnOp>| {
        if ontologies.len() < 2 {
            return;
        }
        ops.push(ChurnOp::SetOntology(*next_variant));
        *next_variant = (*next_variant + 1) % ontologies.len();
    };

    while ops.len() < steps {
        match mode {
            ChurnMode::UnsubscribeHeavy => {
                let roll = rng.next_f64();
                if roll < 0.45 && !live.is_empty() {
                    let idx = rng.index(live.len());
                    ops.push(ChurnOp::Unsubscribe(live.swap_remove(idx)));
                } else if roll < 0.72 || live.is_empty() {
                    subscribe(&mut rng, &mut live, &mut ops);
                } else if roll < 0.78 {
                    evolve(&mut next_variant, &mut ops);
                } else {
                    publish(&mut next_event, &mut publishes, &mut ops);
                }
            }
            ChurnMode::FlashCrowd => {
                // One crowd cycle: burst in, a few events, mass exodus —
                // with the knowledge base occasionally evolving underneath.
                let burst = 5 + rng.index(11);
                for _ in 0..burst {
                    subscribe(&mut rng, &mut live, &mut ops);
                }
                for _ in 0..1 + rng.index(3) {
                    publish(&mut next_event, &mut publishes, &mut ops);
                }
                if rng.chance(0.35) {
                    evolve(&mut next_variant, &mut ops);
                }
                let leavers = (live.len() * 4) / 5;
                for _ in 0..leavers {
                    let idx = rng.index(live.len());
                    ops.push(ChurnOp::Unsubscribe(live.swap_remove(idx)));
                }
                publish(&mut next_event, &mut publishes, &mut ops);
            }
        }
    }

    ChurnScenario { ops, publishes, ontologies }
}

/// Sorts a match set by subscription id so replays that differ only in
/// reporting order compare equal.
fn canonical(mut matches: Vec<Match>) -> Vec<Match> {
    matches.sort_by_key(|m| m.sub);
    matches
}

/// Replays the stream against one live matcher, returning each publish
/// op's (sub-sorted) match set in stream order.
pub fn replay_interleaved(
    fixture: &Fixture,
    scenario: &ChurnScenario,
    config: Config,
) -> Vec<Vec<Match>> {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    let mut out = Vec::with_capacity(scenario.publishes);
    for op in &scenario.ops {
        match op {
            ChurnOp::Subscribe(sub) => {
                matcher.subscribe(sub.clone());
            }
            ChurnOp::Unsubscribe(id) => {
                assert!(matcher.unsubscribe(*id).is_some(), "churn streams only drop live ids");
            }
            ChurnOp::SetOntology(idx) => {
                matcher.set_source(scenario.ontologies[*idx].clone());
            }
            ChurnOp::Publish(idx) => {
                out.push(canonical(matcher.publish(&fixture.publications[*idx])));
            }
        }
    }
    out
}

/// The churn oracle: before every publish op, builds a *fresh* matcher
/// holding exactly the subscriptions live at that point — under the
/// then-current ontology — and publishes once. A live matcher that
/// retains unsubscribe residue (or loses a subscription, or matches
/// through a stale ontology) diverges from this replay.
pub fn replay_sequential(
    fixture: &Fixture,
    scenario: &ChurnScenario,
    config: Config,
) -> Vec<Vec<Match>> {
    let mut live: Vec<Subscription> = Vec::new();
    let mut source = fixture.source.clone();
    let mut out = Vec::with_capacity(scenario.publishes);
    for op in &scenario.ops {
        match op {
            ChurnOp::Subscribe(sub) => live.push(sub.clone()),
            ChurnOp::Unsubscribe(id) => {
                let idx = live.iter().position(|s| s.id() == *id).expect("live id");
                live.swap_remove(idx);
            }
            ChurnOp::SetOntology(idx) => source = scenario.ontologies[*idx].clone(),
            ChurnOp::Publish(idx) => {
                let fresh = SToPSS::new(config, source.clone(), fixture.interner.clone());
                for sub in &live {
                    fresh.subscribe(sub.clone());
                }
                out.push(canonical(fresh.publish(&fixture.publications[*idx])));
            }
        }
    }
    out
}

/// What a concurrent replay proved, for the caller's sanity asserts.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentChurnSummary {
    /// Events published by the racing publisher threads.
    pub publishes: usize,
    /// Control ops (subscribe/unsubscribe/ontology-swap) applied
    /// concurrently with them.
    pub control_ops: usize,
    /// Publications whose epoch fell strictly inside the control stream —
    /// evidence the run really interleaved rather than degenerating into
    /// publish-everything-then-mutate (or the reverse).
    pub mid_stream_publishes: usize,
}

/// Runs the scenario's control ops on one thread racing `publishers`
/// publisher threads against one live matcher, then proves the execution
/// linearizable (see the module docs). Panics on any divergence; returns
/// a summary for sanity asserts.
pub fn replay_concurrent(
    fixture: &Fixture,
    scenario: &ChurnScenario,
    config: Config,
    publishers: usize,
) -> ConcurrentChurnSummary {
    let make = || SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    let live = make();
    let control_ops: Vec<ChurnOp> =
        scenario.ops.iter().filter(|op| !matches!(op, ChurnOp::Publish(_))).cloned().collect();
    let publish_events: Vec<Event> = scenario
        .ops
        .iter()
        .filter_map(|op| match op {
            ChurnOp::Publish(idx) => Some(fixture.publications[*idx].clone()),
            _ => None,
        })
        .collect();
    assert!(publishers > 0 && !publish_events.is_empty());
    let share = publish_events.len().div_ceil(publishers);
    let initial = live.control_epoch();

    // Race: one control thread linearizes the mutations while publisher
    // threads hammer the same live matcher.
    let (control_epochs, records) = std::thread::scope(|scope| {
        let live = &live;
        let control = scope.spawn(|| {
            let mut epochs = Vec::with_capacity(control_ops.len());
            for op in &control_ops {
                let epoch = match op {
                    ChurnOp::Subscribe(sub) => live.subscribe(sub.clone()),
                    ChurnOp::Unsubscribe(id) => {
                        live.unsubscribe(*id).expect("churn streams only drop live ids")
                    }
                    ChurnOp::SetOntology(idx) => live.set_source(scenario.ontologies[*idx].clone()),
                    ChurnOp::Publish(_) => unreachable!("filtered above"),
                };
                epochs.push(epoch);
                // Widen the interleaving window between mutations.
                std::thread::yield_now();
            }
            epochs
        });
        let handles: Vec<_> = publish_events
            .chunks(share)
            .map(|events| {
                scope.spawn(move || {
                    events.iter().map(|e| live.publish_detailed(e)).collect::<Vec<_>>()
                })
            })
            .collect();
        let epochs = control.join().expect("control thread");
        // Flatten thread-by-thread: (thread, local index) gives the
        // deterministic within-epoch order used by the linearized replay.
        let mut records: Vec<(usize, PublishResult)> = Vec::new();
        for (t, handle) in handles.into_iter().enumerate() {
            for (i, result) in handle.join().expect("publisher thread").into_iter().enumerate() {
                records.push((t * share + i, result));
            }
        }
        (epochs, records)
    });

    // Epochs from a single control thread over an otherwise-quiescent
    // control plane must be consecutive — the linearization backbone.
    for (i, epoch) in control_epochs.iter().enumerate() {
        assert_eq!(*epoch, initial + i as u64 + 1, "control op {i} skipped or reused an epoch");
    }

    // State after the first `k` control ops, for k = 0..=n.
    struct ChurnState {
        live: Vec<Subscription>,
        source: Arc<Ontology>,
    }
    let mut states = Vec::with_capacity(control_ops.len() + 1);
    let mut live_subs: Vec<Subscription> = Vec::new();
    let mut source = fixture.source.clone();
    states.push(ChurnState { live: live_subs.clone(), source: source.clone() });
    for op in &control_ops {
        match op {
            ChurnOp::Subscribe(sub) => live_subs.push(sub.clone()),
            ChurnOp::Unsubscribe(id) => {
                let idx = live_subs.iter().position(|s| s.id() == *id).expect("live id");
                live_subs.swap_remove(idx);
            }
            ChurnOp::SetOntology(idx) => source = scenario.ontologies[*idx].clone(),
            ChurnOp::Publish(_) => unreachable!("filtered above"),
        }
        states.push(ChurnState { live: live_subs.clone(), source: source.clone() });
    }

    // Differential 1 — per-publication oracle: a publication stamped with
    // epoch `e` must match exactly what a fresh matcher holding the state
    // after `e - initial` control ops produces, provenance included.
    let mut mid_stream = 0usize;
    let mut by_prefix: Vec<Vec<&(usize, PublishResult)>> = Vec::new();
    by_prefix.resize_with(states.len(), Vec::new);
    for record in &records {
        let (pos, result) = record;
        let prefix = (result.epoch - initial) as usize;
        assert!(prefix < states.len(), "publish at {pos} stamped with an unknown epoch");
        if prefix > 0 && prefix < control_ops.len() {
            mid_stream += 1;
        }
        by_prefix[prefix].push(record);
        let state = &states[prefix];
        let oracle = make();
        oracle.set_source(state.source.clone());
        for sub in &state.live {
            oracle.subscribe(sub.clone());
        }
        let expected = oracle.publish_detailed(&publish_events[*pos]);
        assert_eq!(
            canonical(result.matches.clone()),
            canonical(expected.matches),
            "publish at {pos} (epoch {}) diverged from the sequential oracle",
            result.epoch
        );
    }

    // Differential 2 — linearized stream replay: feeding the control ops
    // and the epoch-placed publications to a fresh live matcher, in
    // linearization order, reproduces every match set and the live
    // matcher's final statistics byte-for-byte.
    let replay = make();
    let replay_publish = |prefix: usize| {
        for (pos, recorded) in &by_prefix[prefix] {
            let got = replay.publish_detailed(&publish_events[*pos]);
            assert_eq!(
                canonical(got.matches),
                canonical(recorded.matches.clone()),
                "linearized replay diverged at publish {pos}"
            );
        }
    };
    replay_publish(0);
    for (k, op) in control_ops.iter().enumerate() {
        let epoch = match op {
            ChurnOp::Subscribe(sub) => replay.subscribe(sub.clone()),
            ChurnOp::Unsubscribe(id) => replay.unsubscribe(*id).expect("live id"),
            ChurnOp::SetOntology(idx) => replay.set_source(scenario.ontologies[*idx].clone()),
            ChurnOp::Publish(_) => unreachable!("filtered above"),
        };
        assert_eq!(epoch, control_epochs[k], "replayed control op re-derives the same epoch");
        replay_publish(k + 1);
    }
    assert_eq!(
        replay.stats(),
        live.stats(),
        "linearized replay must reproduce the live matcher's statistics exactly"
    );

    ConcurrentChurnSummary {
        publishes: records.len(),
        control_ops: control_ops.len(),
        mid_stream_publishes: mid_stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::jobfinder_fixture;

    #[test]
    fn churn_scenarios_are_deterministic() {
        let f = jobfinder_fixture(40, 30, 7);
        for mode in [ChurnMode::UnsubscribeHeavy, ChurnMode::FlashCrowd] {
            let a = churn_scenario(&f, mode, 120, 99);
            let b = churn_scenario(&f, mode, 120, 99);
            assert_eq!(a.ops.len(), b.ops.len());
            assert_eq!(a.publishes, b.publishes);
            assert_eq!(a.ontologies.len(), b.ontologies.len());
            assert!(a.publishes > 0, "stream must contain publish ops");
            for (x, y) in a.ops.iter().zip(&b.ops) {
                match (x, y) {
                    (ChurnOp::Subscribe(s), ChurnOp::Subscribe(t)) => assert_eq!(s, t),
                    (ChurnOp::Unsubscribe(s), ChurnOp::Unsubscribe(t)) => assert_eq!(s, t),
                    (ChurnOp::Publish(s), ChurnOp::Publish(t)) => assert_eq!(s, t),
                    (ChurnOp::SetOntology(s), ChurnOp::SetOntology(t)) => assert_eq!(s, t),
                    other => panic!("op kind mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unsubscribe_heavy_is_mutation_dominated() {
        let f = jobfinder_fixture(40, 30, 7);
        let s = churn_scenario(&f, ChurnMode::UnsubscribeHeavy, 400, 11);
        let mutations = s.ops.iter().filter(|op| !matches!(op, ChurnOp::Publish(_))).count();
        assert!(mutations * 2 > s.ops.len(), "churn ops must dominate publishes");
    }

    #[test]
    fn scenarios_carry_ontology_evolution() {
        let f = jobfinder_fixture(40, 30, 7);
        let s = churn_scenario(&f, ChurnMode::UnsubscribeHeavy, 400, 11);
        assert!(s.ontologies.len() > 1, "evolved variants are generated");
        let swaps = s.ops.iter().filter(|op| matches!(op, ChurnOp::SetOntology(_))).count();
        assert!(swaps > 0, "the stream exercises live ontology swaps");
    }

    #[test]
    fn interleaved_equals_sequential_on_jobfinder() {
        let f = jobfinder_fixture(30, 20, 5);
        let s = churn_scenario(&f, ChurnMode::FlashCrowd, 80, 3);
        let config = Config::default();
        let interleaved = replay_interleaved(&f, &s, config);
        let sequential = replay_sequential(&f, &s, config);
        assert_eq!(interleaved, sequential);
    }

    #[test]
    fn concurrent_replay_smoke() {
        let f = jobfinder_fixture(25, 40, 5);
        let s = churn_scenario(&f, ChurnMode::UnsubscribeHeavy, 120, 9);
        let summary = replay_concurrent(&f, &s, Config::default(), 2);
        assert!(summary.publishes > 0 && summary.control_ops > 0);
    }
}
