//! Churn differential: the control plane must leave no trace and tear no
//! state.
//!
//! Single-threaded half: a live matcher fed an interleaved
//! subscribe/unsubscribe/ontology-swap/publish stream must produce, at
//! every publish, exactly the match set of a fresh matcher built from the
//! then-live subscription set under the then-current ontology — across
//! all four domains and both churn modes. Divergence means unsubscribe
//! residue, lost subscriptions, or stale-ontology leakage.
//!
//! Concurrent half (the control-plane pin): the same control streams run
//! on a thread *racing* publisher threads against one live matcher.
//! Every publication is stamped with the control epoch it matched under,
//! so the racy execution linearizes;
//! the harness (see `stopss_workload::churn`) asserts each publication
//! byte-identical to a fresh oracle at its epoch, and that a sequential
//! replay of the linearized stream reproduces the live matcher's final
//! statistics exactly. At the broker layer, the same race — against
//! publishers looping over `Broker::publish` — must conserve match
//! accounting: every match is delivered, failed, or orphaned.

use std::sync::Arc;

use s_topss::prelude::*;
use s_topss::workload::{
    churn_scenario, geo_fixture, iot_fixture, jobfinder_fixture, market_fixture, replay_concurrent,
    replay_interleaved, replay_sequential, ChurnMode, ChurnOp, Fixture,
};

fn domains() -> Vec<(&'static str, Fixture)> {
    vec![
        ("jobfinder", jobfinder_fixture(30, 20, 11)),
        ("iot", iot_fixture(30, 20, 11)),
        ("market", market_fixture(30, 20, 11)),
        ("geo", geo_fixture(30, 20, 11)),
    ]
}

/// The single-threaded differential: interleaved ≡ sequential, every
/// domain × every churn mode (including live ontology swaps).
#[test]
fn interleaved_replay_equals_sequential_everywhere() {
    for (name, fixture) in domains() {
        for mode in [ChurnMode::UnsubscribeHeavy, ChurnMode::FlashCrowd] {
            let scenario = churn_scenario(&fixture, mode, 150, 42);
            assert!(scenario.publishes > 0, "{name}/{mode:?}: stream has publishes");
            let config = Config::default();
            let interleaved = replay_interleaved(&fixture, &scenario, config);
            let sequential = replay_sequential(&fixture, &scenario, config);
            assert_eq!(
                interleaved, sequential,
                "{name}/{mode:?}: live matcher diverged from the rebuilt oracle"
            );
        }
    }
}

/// The tentpole differential: publisher threads racing the control
/// stream (subscribe/unsubscribe/ontology-edit) against one live
/// matcher linearize — every concurrent publication is
/// byte-identical to the sequential oracle at its stamped epoch, and the
/// linearized replay reproduces the live stats exactly. Every domain ×
/// every churn mode.
#[test]
fn concurrent_interleavings_linearize_everywhere() {
    for (name, fixture) in domains() {
        for mode in [ChurnMode::UnsubscribeHeavy, ChurnMode::FlashCrowd] {
            let scenario = churn_scenario(&fixture, mode, 150, 42);
            let summary = replay_concurrent(&fixture, &scenario, Config::default(), 3);
            assert!(
                summary.publishes > 0 && summary.control_ops > 0,
                "{name}/{mode:?}: the race actually ran ({summary:?})"
            );
        }
    }
}

/// Broker-level conservation under concurrent churn: publishers race
/// subscription churn and an ontology edit; with a lossless transport,
/// every reported match must end up delivered or orphaned — an
/// undercount means the control plane lost a notification.
#[test]
fn broker_concurrent_churn_conserves_accounting() {
    let fixture = jobfinder_fixture(12, 8, 11);
    let config = BrokerConfig { udp_loss: 0.0, ..BrokerConfig::default() };
    let broker = Broker::new(config, fixture.source.clone(), fixture.interner.clone());
    let anchor = broker.register_client("anchor", TransportKind::Tcp);
    for sub in &fixture.subscriptions {
        broker.subscribe(anchor, sub.predicates().to_vec()).unwrap();
    }
    let scenario = churn_scenario(&fixture, ChurnMode::UnsubscribeHeavy, 100, 7);
    let broker = Arc::new(broker);

    let publishers: Vec<_> = (0..2)
        .map(|_| {
            let broker = broker.clone();
            let events = fixture.publications.clone();
            std::thread::spawn(move || {
                let mut matches = 0usize;
                for _ in 0..5 {
                    matches += events.iter().map(|e| broker.publish(e)).sum::<usize>();
                }
                matches
            })
        })
        .collect();
    let churner = {
        let broker = broker.clone();
        let scenario = scenario.clone();
        std::thread::spawn(move || {
            let client = broker.register_client("churn", TransportKind::Tcp);
            let mut live: Vec<(SubId, SubId)> = Vec::new(); // (scenario id, broker id)
            for op in &scenario.ops {
                match op {
                    ChurnOp::Subscribe(sub) => {
                        let id = broker.subscribe(client, sub.predicates().to_vec()).unwrap();
                        live.push((sub.id(), id));
                    }
                    ChurnOp::Unsubscribe(id) => {
                        let idx = live.iter().position(|(s, _)| s == id).expect("live id");
                        let (_, broker_id) = live.swap_remove(idx);
                        assert_eq!(broker.unsubscribe(client, broker_id), Ok(true));
                    }
                    ChurnOp::SetOntology(idx) => {
                        broker.set_ontology(scenario.ontologies[*idx].clone());
                    }
                    ChurnOp::Publish(_) => {}
                }
            }
        })
    };

    let matches: usize = publishers.into_iter().map(|h| h.join().unwrap()).sum();
    churner.join().unwrap();
    let orphaned = broker.orphaned_matches();
    let broker = Arc::try_unwrap(broker).ok().expect("sole owner");
    let stats = broker.shutdown();
    assert_eq!(
        stats.total_delivered() + stats.total_failures() + orphaned,
        matches as u64,
        "every match is delivered, failed, or orphaned"
    );
}

/// Flash-crowd streams really do spike: the live subscription count
/// during the stream reaches several times the post-exodus level, and
/// unsubscribe-heavy streams are dominated by table mutations.
#[test]
fn churn_modes_have_their_advertised_shape() {
    let fixture = jobfinder_fixture(30, 20, 11);
    let crowd = churn_scenario(&fixture, ChurnMode::FlashCrowd, 200, 7);
    let mut live = 0i64;
    let mut peak = 0i64;
    for op in &crowd.ops {
        match op {
            ChurnOp::Subscribe(_) => live += 1,
            ChurnOp::Unsubscribe(_) => live -= 1,
            ChurnOp::Publish(_) | ChurnOp::SetOntology(_) => {}
        }
        peak = peak.max(live);
    }
    assert!(live >= 0, "never unsubscribes a dead id");
    assert!(peak >= live * 2 && peak >= 5, "flash crowd spikes: peak {peak}, final {live}");

    let heavy = churn_scenario(&fixture, ChurnMode::UnsubscribeHeavy, 200, 7);
    let unsubs = heavy.ops.iter().filter(|op| matches!(op, ChurnOp::Unsubscribe(_))).count();
    let publishes = heavy.ops.iter().filter(|op| matches!(op, ChurnOp::Publish(_))).count();
    assert!(unsubs > publishes, "unsubscribes ({unsubs}) dominate publishes ({publishes})");
}
