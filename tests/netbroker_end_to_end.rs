//! The networked serving path end to end: many framed connections
//! multiplexed by the `NetBroker` event loop, checked differentially
//! against the in-process `Broker` and scored on the no-silent-loss
//! conservation identities under backpressure and mid-frame disconnects.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use s_topss::broker::{
    run_net_chaos, subscription_to_wire, BackpressurePolicy, Broker, BrokerConfig, ClientMessage,
    NetBroker, NetBrokerConfig, NetChaosConfig, NetClient, ServerMessage, TransportKind, WireValue,
};
use s_topss::prelude::*;
use s_topss::workload::{generate_jobfinder, JobFinderDomain, WorkloadConfig};

fn net_broker(config: NetBrokerConfig) -> (NetBroker, Interner, JobFinderDomain) {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let broker = NetBroker::new(
        config,
        Arc::new(domain.ontology.clone()),
        SharedInterner::from_interner(interner.clone()),
    )
    .expect("in-memory event loop always builds");
    (broker, interner, domain)
}

fn register(
    server: &mut NetBroker,
    client: &mut NetClient,
    name: &str,
) -> s_topss::broker::ClientId {
    client
        .send(&ClientMessage::Register { name: name.into(), transport: TransportKind::Tcp })
        .unwrap();
    for _ in 0..100 {
        server.turn(Some(Duration::from_millis(1))).unwrap();
        if let Some(ServerMessage::Registered { client }) = client.poll_recv().unwrap().pop() {
            return client;
        }
    }
    panic!("no Registered reply for {name}");
}

fn wire_pairs(event: &Event, interner: &Interner) -> Vec<(String, WireValue)> {
    event
        .pairs()
        .iter()
        .map(|(attr, value)| {
            (interner.resolve(*attr).to_owned(), WireValue::from_value(value, interner))
        })
        .collect()
}

/// Many connections subscribe, one publishes, and the notifications each
/// networked subscriber receives are exactly — as multisets per client —
/// what the in-process broker delivers to the same clients on the same
/// workload. The wire transport must be a transparent layer over the
/// core, not a second implementation of its semantics.
#[test]
fn networked_delivery_equals_in_process_broker() {
    let (mut server, interner, domain) = net_broker(NetBrokerConfig::default());
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 60, publications: 80, seed: 11, ..Default::default() },
    );

    // Networked side: one connection per subscriber.
    let mut subscribers = Vec::new();
    for (k, sub) in workload.subscriptions.iter().enumerate() {
        let mut client = NetClient::connect(&server.connector()).unwrap();
        let id = register(&mut server, &mut client, &format!("sub-{k}"));
        client
            .send(&ClientMessage::Subscribe {
                client: id,
                predicates: subscription_to_wire(sub, &interner),
            })
            .unwrap();
        subscribers.push((client, id));
    }
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "candidates");
    assert!(server.run_until_quiescent(2_000).unwrap(), "setup must quiesce");
    assert_eq!(server.broker().subscription_count(), workload.subscriptions.len());

    let mut net_matches = 0u64;
    let mut net_deliveries: BTreeMap<s_topss::broker::ClientId, Vec<String>> = BTreeMap::new();
    for event in &workload.publications {
        publisher
            .send(&ClientMessage::Publish {
                client: publisher_id,
                pairs: wire_pairs(event, &interner),
            })
            .unwrap();
        assert!(server.run_until_quiescent(2_000).unwrap(), "publish must settle");
        // Drain subscribers so their pipes never fill mid-run.
        for (client, id) in &mut subscribers {
            for msg in client.poll_recv().unwrap() {
                match msg {
                    ServerMessage::Notification { payload, .. } => {
                        net_deliveries.entry(*id).or_default().push(payload)
                    }
                    ServerMessage::Subscribed { .. } => {}
                    other => panic!("unexpected push: {other:?}"),
                }
            }
        }
        for msg in publisher.poll_recv().unwrap() {
            if let ServerMessage::Published { matches } = msg {
                net_matches += u64::from(matches);
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.matches_seen, net_matches);
    assert_eq!(stats.notifications_sent, net_matches, "all consumers drained: no losses");
    assert_eq!(stats.notifications_dropped + stats.notifications_disconnected, 0);

    // In-process side: same names, same registration order — therefore
    // the same ClientIds and SubIds, and byte-identical payloads.
    let in_process = Broker::new(
        BrokerConfig::default(),
        Arc::new(domain.ontology.clone()),
        SharedInterner::from_interner(interner.clone()),
    );
    let mut expected_ids = Vec::new();
    for (k, sub) in workload.subscriptions.iter().enumerate() {
        let id = in_process.register_client(format!("sub-{k}"), TransportKind::Tcp);
        in_process.subscribe(id, sub.predicates().to_vec()).unwrap();
        expected_ids.push(id);
    }
    let _ = in_process.register_client("candidates", TransportKind::Tcp);
    let mut expected_matches = 0u64;
    for event in &workload.publications {
        expected_matches += in_process.publish(event) as u64;
    }
    assert_eq!(net_matches, expected_matches, "matcher behavior must be identical over the wire");
    let inbox = in_process.inbox(TransportKind::Tcp).unwrap();
    in_process.shutdown();
    let mut expected_deliveries: BTreeMap<s_topss::broker::ClientId, Vec<String>> = BTreeMap::new();
    for message in inbox.lock().iter() {
        expected_deliveries.entry(message.client).or_default().push(message.payload.clone());
    }
    for deliveries in net_deliveries.values_mut() {
        deliveries.sort();
    }
    for deliveries in expected_deliveries.values_mut() {
        deliveries.sort();
    }
    assert_eq!(
        net_deliveries, expected_deliveries,
        "per-client delivered payloads must match the in-process broker exactly"
    );
}

/// A storm of Subscribe frames arriving together coalesces into a few
/// batched control mutations instead of one control mutation per
/// subscription — the control-plane cost model the event loop exists to
/// fix. The (barriered) publish right after still observes every
/// subscription.
#[test]
fn subscribe_storm_coalesces_control_mutations() {
    let (mut server, interner, domain) = net_broker(NetBrokerConfig::default());
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 200, publications: 1, seed: 3, ..Default::default() },
    );
    let mut client = NetClient::connect(&server.connector()).unwrap();
    let id = register(&mut server, &mut client, "storm");
    let epoch_before = server.broker().matcher_control_epoch();

    // Queue the whole storm before the loop gets to run a single turn.
    for sub in &workload.subscriptions {
        client
            .send(&ClientMessage::Subscribe {
                client: id,
                predicates: subscription_to_wire(sub, &interner),
            })
            .unwrap();
        client.flush().unwrap();
    }
    assert!(server.run_until_quiescent(2_000).unwrap());
    let epoch_after = server.broker().matcher_control_epoch();
    let mutations = epoch_after - epoch_before;
    assert_eq!(
        server.broker().subscription_count(),
        workload.subscriptions.len(),
        "every subscription of the storm must land"
    );
    assert!(
        (mutations as usize) < workload.subscriptions.len() / 4,
        "200 subscriptions must coalesce into far fewer control mutations, got {mutations}"
    );
    let replies = client.poll_recv().unwrap();
    assert_eq!(replies.len(), workload.subscriptions.len(), "one positional reply per subscribe");
    assert!(replies.iter().all(|r| matches!(r, ServerMessage::Subscribed { .. })));
}

/// Builds a loop with one never-draining subscriber matching everything
/// the publisher sends, publishes `events` matching events, and returns
/// (server, publisher handle, publisher id).
fn slow_consumer_setup(
    policy: BackpressurePolicy,
) -> (NetBroker, NetClient, NetClient, s_topss::broker::ClientId) {
    let config = NetBrokerConfig {
        backpressure: policy,
        max_outbound_frames: 4,
        pipe_capacity: 256, // tiny pipe: flushing stalls, queues back up
        ..Default::default()
    };
    let (mut server, _interner, _domain) = net_broker(config);
    let mut slow = NetClient::connect(&server.connector()).unwrap();
    let slow_id = register(&mut server, &mut slow, "slow");
    slow.send(&ClientMessage::Subscribe {
        client: slow_id,
        predicates: vec![s_topss::broker::WirePredicate {
            attr: "skill".into(),
            op: Operator::Eq,
            value: WireValue::Term("programming".into()),
        }],
    })
    .unwrap();
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "pub");
    assert!(server.run_until_quiescent(2_000).unwrap());
    (server, slow, publisher, publisher_id)
}

fn publish_matching(
    server: &mut NetBroker,
    publisher: &mut NetClient,
    id: s_topss::broker::ClientId,
    n: usize,
) {
    for k in 0..n {
        publisher
            .send(&ClientMessage::Publish {
                client: id,
                pairs: vec![
                    ("seq".into(), WireValue::Int(k as i64)),
                    ("skill".into(), WireValue::Term("programming".into())),
                ],
            })
            .unwrap();
        publisher.flush().unwrap();
        for _ in 0..20 {
            server.turn(Some(Duration::from_millis(1))).unwrap();
        }
        let _ = publisher.poll_recv().unwrap();
    }
}

/// DropNewest: a slow consumer loses the newest notifications — visibly,
/// in `notifications_dropped` — and the connection stays up. Once the
/// consumer finally drains, everything still queued arrives and the
/// delivery conservation identity closes exactly.
#[test]
fn backpressure_drop_newest_accounts_every_drop() {
    let (mut server, mut slow, mut publisher, publisher_id) =
        slow_consumer_setup(BackpressurePolicy::DropNewest);
    publish_matching(&mut server, &mut publisher, publisher_id, 40);

    let mid_run = server.stats();
    assert!(mid_run.notifications_dropped > 0, "a stalled consumer must shed load visibly");
    assert_eq!(server.connection_count(), 2, "DropNewest never disconnects");

    // The consumer wakes up and drains; the loop settles.
    let mut received = 0u64;
    for _ in 0..500 {
        server.turn(Some(Duration::from_millis(1))).unwrap();
        received += slow
            .poll_recv()
            .unwrap()
            .iter()
            .filter(|m| matches!(m, ServerMessage::Notification { .. }))
            .count() as u64;
        if server.run_until_quiescent(10).unwrap() {
            break;
        }
    }
    received += slow
        .poll_recv()
        .unwrap()
        .iter()
        .filter(|m| matches!(m, ServerMessage::Notification { .. }))
        .count() as u64;

    let stats = server.stats();
    assert_eq!(stats.matches_seen, 40);
    assert_eq!(stats.notifications_sent, received, "sent-to-pipe equals received-from-pipe");
    let (net_stats, delivery) = server.shutdown();
    assert_eq!(
        delivery.total_delivered(),
        net_stats.notifications_sent
            + net_stats.notifications_dropped
            + net_stats.notifications_disconnected,
        "every delivery must reach exactly one terminal bucket"
    );
    assert_eq!(delivery.total_delivered(), 40, "NetTransport itself never fails");
}

/// Disconnect: the slow consumer is cut off, its queued notifications are
/// accounted as disconnected, and its session is retired with it — its
/// subscription leaves the matcher and its client is unregistered, so
/// later publishes no longer match it — while both conservation
/// identities still close exactly.
#[test]
fn backpressure_disconnect_conserves_accounting() {
    let (mut server, slow, mut publisher, publisher_id) =
        slow_consumer_setup(BackpressurePolicy::Disconnect);
    let subscriptions_before = server.broker().subscription_count();
    publish_matching(&mut server, &mut publisher, publisher_id, 40);
    assert!(server.run_until_quiescent(2_000).unwrap());

    assert!(slow.peer_closed(), "the slow consumer must be disconnected");
    assert_eq!(server.connection_count(), 1, "only the publisher remains");
    assert_eq!(server.broker().client_count(), 1, "only the publisher stays registered");
    assert_eq!(
        server.broker().subscription_count(),
        subscriptions_before - 1,
        "the cut consumer's subscription must leave the matcher"
    );
    let stats = server.stats();
    assert!(stats.notifications_disconnected > 0);
    assert_eq!(stats.notifications_dropped, 0, "Disconnect never silently drops");
    assert!(stats.matches_seen < 40, "publishes after the cut must not match: {stats:?}");

    // One more matching publish: nobody is subscribed any more.
    publish_matching(&mut server, &mut publisher, publisher_id, 1);
    assert!(server.run_until_quiescent(2_000).unwrap());
    assert_eq!(server.stats().matches_seen, stats.matches_seen, "a retired subscription matches");

    let orphaned = server.broker().orphaned_matches();
    let (net_stats, delivery) = server.shutdown();
    assert_eq!(
        net_stats.matches_seen,
        orphaned + delivery.total_delivered(),
        "match conservation across the disconnect"
    );
    assert_eq!(
        delivery.total_delivered(),
        net_stats.notifications_sent
            + net_stats.notifications_dropped
            + net_stats.notifications_disconnected,
    );
    drop(slow);
}

/// A session-less connection owns its clients and their subscriptions
/// only while it lives: five cycles of connect → `Register` →
/// `Subscribe` → close leave no connection, no registered client and no
/// subscription behind.
#[test]
fn legacy_disconnects_leave_no_clients_or_subscriptions() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let baseline = server.broker().subscription_count();
    for cycle in 0..5 {
        let pred = wire_pred("skill", Operator::Eq, WireValue::Term("programming".into()));
        let mut client = subscriber(&mut server, &format!("cycle-{cycle}"), pred);
        assert_eq!(server.broker().subscription_count(), baseline + 1);
        client.close();
        assert!(server.run_until_quiescent(2_000).unwrap());
    }
    assert_eq!(server.connection_count(), 0);
    assert_eq!(server.broker().client_count(), 0, "every client left with its connection");
    assert_eq!(
        server.broker().subscription_count(),
        baseline,
        "every subscription left with its connection"
    );
    let stats = server.stats();
    assert_eq!(stats.connections_closed, 5);
    assert_eq!(stats.sessions_created, 0, "session-less connections are not sessions");
    assert_eq!(server.session_count(), 0);
}

/// The networked chaos mode: seeded mid-frame disconnects over a real
/// workload, conservation + truncation-detection + per-subscriber order
/// invariants, and bit-identical reports per seed.
#[test]
fn mid_frame_disconnects_conserve_and_are_deterministic() {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let shared = SharedInterner::from_interner(interner);
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 24, publications: 40, seed: 17, ..Default::default() },
    );
    let run_with = |seed: u64, mid_frame_disconnect: f64, policy: BackpressurePolicy| {
        run_net_chaos(
            NetBrokerConfig::default(),
            &NetChaosConfig { seed, mid_frame_disconnect, backpressure: policy },
            Arc::new(domain.ontology.clone()),
            shared.clone(),
            &workload.subscriptions,
            &workload.publications,
        )
    };
    let run = |seed: u64, policy: BackpressurePolicy| run_with(seed, 0.2, policy);
    let report = run(2003, BackpressurePolicy::Disconnect);
    report.assert_invariants();
    assert!(report.mid_frame_disconnects > 0, "0.2 over 40 events must fire: {report:?}");
    assert!(report.matches > 0);
    assert_eq!(report.orphaned, 0, "a disconnect retires its subscriptions: nothing orphans");

    let again = run(2003, BackpressurePolicy::Disconnect);
    assert_eq!(report, again, "same seed, same report — bit for bit");

    let fault_free = run_with(2003, 0.0, BackpressurePolicy::Disconnect);
    fault_free.assert_invariants();
    assert!(
        report.matches < fault_free.matches,
        "disconnected subscribers stop matching: {} vs {} fault-free",
        report.matches,
        fault_free.matches
    );

    let dropping = run(7, BackpressurePolicy::DropNewest);
    dropping.assert_invariants();
}

/// Subscribes a fresh connection to one predicate and returns it.
fn subscriber(
    server: &mut NetBroker,
    name: &str,
    predicate: s_topss::broker::WirePredicate,
) -> NetClient {
    let mut client = NetClient::connect(&server.connector()).unwrap();
    let id = register(server, &mut client, name);
    client.send(&ClientMessage::Subscribe { client: id, predicates: vec![predicate] }).unwrap();
    assert!(server.run_until_quiescent(2_000).unwrap());
    assert!(matches!(&client.poll_recv().unwrap()[..], [ServerMessage::Subscribed { .. }]));
    client
}

fn wire_pred(attr: &str, op: Operator, value: WireValue) -> s_topss::broker::WirePredicate {
    s_topss::broker::WirePredicate { attr: attr.into(), op, value }
}

/// The `N` of the event's leading `(seq, N)` pair in a notification.
fn payload_seq(payload: &str) -> i64 {
    let tail = payload.split("(seq, ").nth(1).expect("seq-stamped payload");
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("numeric seq")
}

/// Ordering guarantee: each subscriber's notification stream is a
/// subsequence of the order in which the broker served the publishes.
/// Three subscribers with overlapping interests receive seq-stamped
/// publishes sent in bursts (several served per turn); every stream's
/// seqs strictly increase and hold exactly the events that matched.
#[test]
fn each_subscriber_stream_is_a_subsequence_of_publish_order() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let skill = |term: &str| WireValue::Term(term.into());
    let mut subs = [
        subscriber(&mut server, "coder", wire_pred("skill", Operator::Eq, skill("programming"))),
        subscriber(&mut server, "senior", wire_pred("level", Operator::Ge, WireValue::Int(3))),
        subscriber(&mut server, "any", wire_pred("level", Operator::Ge, WireValue::Int(0))),
    ];
    let wants = [
        |k: i64| k % 2 == 0, // skill alternates programming / design
        |k: i64| k % 5 >= 3, // level = k % 5
        |_: i64| true,
    ];
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "pub");
    const EVENTS: i64 = 60;
    for burst in (0..EVENTS).collect::<Vec<_>>().chunks(6) {
        for &k in burst {
            let pairs = vec![
                ("seq".into(), WireValue::Int(k)),
                ("skill".into(), skill(if k % 2 == 0 { "programming" } else { "design" })),
                ("level".into(), WireValue::Int(k % 5)),
            ];
            publisher.send(&ClientMessage::Publish { client: publisher_id, pairs }).unwrap();
        }
        assert!(server.run_until_quiescent(2_000).unwrap());
        let _ = publisher.poll_recv().unwrap();
    }
    for (k, (client, wants)) in subs.iter_mut().zip(wants).enumerate() {
        let seqs: Vec<i64> = client
            .poll_recv()
            .unwrap()
            .into_iter()
            .map(|msg| match msg {
                ServerMessage::Notification { payload, .. } => payload_seq(&payload),
                other => panic!("subscriber {k}: unexpected {other:?}"),
            })
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "subscriber {k} out of order: {seqs:?}");
        let expected: Vec<i64> = (0..EVENTS).filter(|&s| wants(s)).collect();
        assert_eq!(seqs, expected, "subscriber {k} received exactly its matches");
    }
    let stats = server.stats();
    assert_eq!(stats.notifications_sent, stats.matches_seen);
    assert_eq!(stats.notifications_dropped + stats.notifications_disconnected, 0);
}

/// Notifications are delivered on the loop's thread: the one turn that
/// reads a `Publish` frame also queues and writes every notification it
/// produced (the default pipe has room for all of them).
#[test]
fn one_turn_serves_a_publish_and_sends_its_notifications() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let mut subs: Vec<NetClient> = (0..8)
        .map(|k| {
            let pred = wire_pred("skill", Operator::Eq, WireValue::Term("programming".into()));
            subscriber(&mut server, &format!("sub-{k}"), pred)
        })
        .collect();
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "pub");
    assert!(server.run_until_quiescent(2_000).unwrap());
    for round in 0..3 {
        let before = server.stats();
        let pairs = vec![
            ("seq".into(), WireValue::Int(round)),
            ("skill".into(), WireValue::Term("programming".into())),
        ];
        publisher.send(&ClientMessage::Publish { client: publisher_id, pairs }).unwrap();
        server.turn(Some(Duration::from_millis(1))).unwrap();
        let after = server.stats();
        assert_eq!(after.frames_read, before.frames_read + 1, "the turn read the Publish frame");
        let matches = after.matches_seen - before.matches_seen;
        assert_eq!(matches, 8);
        assert_eq!(after.notifications_sent - before.notifications_sent, matches, "round {round}");
        assert!(server.deliveries_drained());
        for sub in &mut subs {
            let got = sub.poll_recv().unwrap();
            assert!(matches!(&got[..], [ServerMessage::Notification { .. }]), "{got:?}");
        }
        assert!(matches!(
            &publisher.poll_recv().unwrap()[..],
            [ServerMessage::Published { matches: 8 }]
        ));
    }
}
