//! The session layer end to end: reconnect-with-resume over the raw
//! wire protocol, replay-buffer accounting at the TTL expiry boundary
//! and at the replay bound, live ontology edits over a connection, and
//! the session chaos tier — kills, partitions, heartbeat expiry and
//! front-end restarts — pinned differentially against a fault-free
//! in-process `Broker` run and checked for bit-identical reports per
//! seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use s_topss::broker::{
    run_session_chaos, BackpressurePolicy, Broker, BrokerConfig, ClientMessage, NetBroker,
    NetBrokerConfig, NetClient, ServerMessage, SessionChaosConfig, SessionConfig, TransportKind,
    WirePredicate, WireValue,
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

/// Runs turns until `client` has received `want` messages (panics past
/// the budget — session replies are always prompt).
fn recv(server: &mut NetBroker, client: &mut NetClient, want: usize) -> Vec<ServerMessage> {
    let mut out = Vec::new();
    for _ in 0..200 {
        server.turn(Some(Duration::from_millis(1))).unwrap();
        out.extend(client.poll_recv().unwrap());
        if out.len() >= want {
            return out;
        }
    }
    panic!("expected {want} messages, got {}: {out:?}", out.len());
}

/// Opens a fresh session on a raw connection and returns its token.
fn open_session(server: &mut NetBroker, client: &mut NetClient) -> u64 {
    client.send(&ClientMessage::Hello { session: 0, last_seen_seq: 0 }).unwrap();
    match recv(server, client, 1).remove(0) {
        ServerMessage::Welcome { session, resumed } => {
            assert!(!resumed, "a zero token must open a fresh session");
            assert_ne!(session, 0, "session tokens are nonzero");
            session
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
}

fn register(
    server: &mut NetBroker,
    client: &mut NetClient,
    name: &str,
) -> s_topss::broker::ClientId {
    client
        .send(&ClientMessage::Register { name: name.into(), transport: TransportKind::Tcp })
        .unwrap();
    match recv(server, client, 1).remove(0) {
        ServerMessage::Registered { client } => client,
        other => panic!("expected Registered for {name}, got {other:?}"),
    }
}

/// Subscribes `id` to `skill = programming` and waits for the reply.
fn subscribe_skill(server: &mut NetBroker, client: &mut NetClient, id: s_topss::broker::ClientId) {
    client
        .send(&ClientMessage::Subscribe {
            client: id,
            predicates: vec![WirePredicate {
                attr: "skill".into(),
                op: Operator::Eq,
                value: WireValue::Term("programming".into()),
            }],
        })
        .unwrap();
    match recv(server, client, 1).remove(0) {
        ServerMessage::Subscribed { .. } => {}
        other => panic!("expected Subscribed, got {other:?}"),
    }
}

/// Publishes `n` events matching the `skill = programming` subscription
/// (each distinguishable by its leading `(seq, k)` pair) and waits for
/// the loop to settle after each one.
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
        assert!(server.run_until_quiescent(2_000).unwrap(), "publish must settle");
        let _ = publisher.poll_recv().unwrap();
    }
}

/// The resume handshake over the raw protocol: a subscriber opens a
/// session, receives seq-stamped notifications, acknowledges only the
/// first, disconnects — and on reconnecting with `last_seen_seq = 1`
/// gets `Welcome{resumed}` followed by the two unacknowledged frames,
/// byte-identical and in seq order. The terminal buckets split exactly:
/// one frame acked fresh, two acked after replay.
#[test]
fn hello_opens_and_resumes_sessions_with_replay() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let mut sub = NetClient::connect(&server.connector()).unwrap();
    let session = open_session(&mut server, &mut sub);
    let id = register(&mut server, &mut sub, "resume-sub");
    subscribe_skill(&mut server, &mut sub, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "resume-pub");

    publish_matching(&mut server, &mut publisher, publisher_id, 3);
    let first: Vec<(u64, String)> = recv(&mut server, &mut sub, 3)
        .into_iter()
        .map(|m| match m {
            ServerMessage::Notification { seq, payload } => (seq, payload),
            other => panic!("expected Notification, got {other:?}"),
        })
        .collect();
    assert_eq!(
        first.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "session notifications carry a contiguous per-session seq from 1"
    );

    // Acknowledge only the first frame, then drop the connection.
    sub.send(&ClientMessage::Ack { seq: 1 }).unwrap();
    server.run_turns(5).unwrap();
    assert_eq!(server.session_retained(session), Some(2));
    assert_eq!(server.stats().notifications_acked, 1);
    sub.close();
    server.run_turns(5).unwrap();
    assert_eq!(server.connection_count(), 1, "only the publisher's connection remains");
    assert_eq!(server.session_count(), 1, "the session must survive its connection");

    // Reconnect and resume from seq 1: Welcome first, then the two
    // retained frames replayed in order with their original payloads.
    let mut resumed = NetClient::connect(&server.connector()).unwrap();
    resumed.send(&ClientMessage::Hello { session, last_seen_seq: 1 }).unwrap();
    let mut replayed = recv(&mut server, &mut resumed, 3);
    match replayed.remove(0) {
        ServerMessage::Welcome { session: granted, resumed: was_resumed } => {
            assert_eq!(granted, session);
            assert!(was_resumed, "a live token must resume, not reopen");
        }
        other => panic!("expected Welcome first, got {other:?}"),
    }
    let replayed: Vec<(u64, String)> = replayed
        .into_iter()
        .map(|m| match m {
            ServerMessage::Notification { seq, payload } => (seq, payload),
            other => panic!("expected replayed Notification, got {other:?}"),
        })
        .collect();
    assert_eq!(replayed, first[1..].to_vec(), "replay must retransmit the unacked tail verbatim");

    resumed.send(&ClientMessage::Ack { seq: 3 }).unwrap();
    server.run_turns(5).unwrap();
    assert_eq!(server.session_retained(session), Some(0));
    let stats = server.stats();
    assert_eq!(stats.sessions_created, 1);
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.replay_frames_sent, 2, "exactly the unacked tail crosses the wire again");
    assert_eq!(stats.notifications_acked, 1);
    assert_eq!(stats.notifications_replayed, 2);
    let (stats, delivery) = server.shutdown();
    assert_eq!(
        delivery.total_delivered(),
        stats.notifications_acked + stats.notifications_replayed,
        "every delivery acknowledged, fresh or after replay"
    );
}

/// Replay-buffer accounting at the `session_ttl` expiry boundary
/// (regression): a detached session must survive `ttl - 1` ticks
/// untouched, expire exactly at `ttl`, and count *only its unacked
/// frames* as expired — acknowledged frames must not be re-counted.
/// After expiry the subscription is gone (later matches orphan) and the
/// old token no longer resumes.
#[test]
fn session_ttl_expiry_boundary_accounts_every_retained_frame() {
    let config = NetBrokerConfig {
        session: SessionConfig { session_ttl: 16, ..SessionConfig::default() },
        ..NetBrokerConfig::default()
    };
    let (mut server, _interner, _domain) = net_broker(config);
    let mut sub = NetClient::connect(&server.connector()).unwrap();
    let session = open_session(&mut server, &mut sub);
    let id = register(&mut server, &mut sub, "expiry-sub");
    subscribe_skill(&mut server, &mut sub, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "expiry-pub");

    publish_matching(&mut server, &mut publisher, publisher_id, 3);
    let _ = recv(&mut server, &mut sub, 3);
    sub.send(&ClientMessage::Ack { seq: 2 }).unwrap();
    server.run_turns(5).unwrap();
    assert_eq!(server.session_retained(session), Some(1));
    sub.close();
    server.run_turns(5).unwrap();

    // One tick short of the TTL: nothing may fire.
    server.advance_clock(15);
    assert_eq!(server.session_count(), 1, "a detached session lives for ttl - 1 ticks");
    assert_eq!(server.stats().sessions_expired, 0);

    // The boundary tick: the session expires whole, counting exactly the
    // one unacknowledged frame — not the two already-acked ones.
    server.advance_clock(1);
    assert_eq!(server.session_count(), 0, "expiry fires exactly at ttl ticks detached");
    let stats = server.stats();
    assert_eq!(stats.sessions_expired, 1);
    assert_eq!(stats.notifications_expired, 1, "acked frames must not be re-counted at expiry");
    assert_eq!(stats.notifications_acked, 2);

    // The expired session's subscription is gone: new matches orphan.
    publisher
        .send(&ClientMessage::Publish {
            client: publisher_id,
            pairs: vec![("skill".into(), WireValue::Term("programming".into()))],
        })
        .unwrap();
    match recv(&mut server, &mut publisher, 1).remove(0) {
        ServerMessage::Published { matches } => {
            assert_eq!(matches, 0, "an expired session's subscriptions must be unsubscribed")
        }
        other => panic!("expected Published, got {other:?}"),
    }

    // The dead token no longer resumes: the client learns to start over.
    let mut stale = NetClient::connect(&server.connector()).unwrap();
    stale.send(&ClientMessage::Hello { session, last_seen_seq: 3 }).unwrap();
    match recv(&mut server, &mut stale, 1).remove(0) {
        ServerMessage::Welcome { session: granted, resumed } => {
            assert!(!resumed, "an expired token must not resume");
            assert_ne!(granted, session);
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    let (stats, delivery) = server.shutdown();
    assert_eq!(
        delivery.total_delivered(),
        stats.notifications_acked + stats.notifications_expired,
        "the conservation identity closes across the expiry"
    );
}

/// `DropNewest` at the replay bound: overflowing notifications are shed
/// *before* seq assignment, so the session's delivered seqs stay
/// contiguous and the drops are visible in the accounting — never a gap
/// the client would misread as loss in flight.
#[test]
fn replay_bound_drop_newest_sheds_before_seq_assignment() {
    let config = NetBrokerConfig {
        backpressure: BackpressurePolicy::DropNewest,
        session: SessionConfig { replay_buffer_frames: 2, ..SessionConfig::default() },
        ..NetBrokerConfig::default()
    };
    let (mut server, _interner, _domain) = net_broker(config);
    let mut sub = NetClient::connect(&server.connector()).unwrap();
    let session = open_session(&mut server, &mut sub);
    let id = register(&mut server, &mut sub, "bounded-sub");
    subscribe_skill(&mut server, &mut sub, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "bounded-pub");

    // Four matches against a two-frame replay buffer and no acks.
    publish_matching(&mut server, &mut publisher, publisher_id, 4);
    let seqs: Vec<u64> = recv(&mut server, &mut sub, 2)
        .into_iter()
        .map(|m| match m {
            ServerMessage::Notification { seq, .. } => seq,
            other => panic!("expected Notification, got {other:?}"),
        })
        .collect();
    assert_eq!(seqs, vec![1, 2], "drops happen pre-seq: what arrives is contiguous");
    assert!(!sub.peer_closed(), "DropNewest never disconnects");
    assert_eq!(server.stats().notifications_dropped, 2);
    assert_eq!(server.session_retained(session), Some(2));

    sub.send(&ClientMessage::Ack { seq: 2 }).unwrap();
    server.run_turns(5).unwrap();
    let (stats, delivery) = server.shutdown();
    assert_eq!(delivery.total_delivered(), 4);
    assert_eq!(
        delivery.total_delivered(),
        stats.notifications_acked + stats.notifications_dropped,
        "every delivery acked or visibly dropped"
    );
}

/// `Disconnect` at the replay bound: a session that cannot keep its
/// no-loss promise is terminated whole — connection closed, clients
/// unregistered, and *every* retained frame plus the overflowing one
/// counted expired. Nothing is silently lost and nothing double-counts.
#[test]
fn replay_bound_disconnect_expires_the_session_whole() {
    let config = NetBrokerConfig {
        backpressure: BackpressurePolicy::Disconnect,
        session: SessionConfig { replay_buffer_frames: 2, ..SessionConfig::default() },
        ..NetBrokerConfig::default()
    };
    let (mut server, _interner, _domain) = net_broker(config);
    let mut sub = NetClient::connect(&server.connector()).unwrap();
    let _session = open_session(&mut server, &mut sub);
    let id = register(&mut server, &mut sub, "cut-sub");
    subscribe_skill(&mut server, &mut sub, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "cut-pub");

    publish_matching(&mut server, &mut publisher, publisher_id, 3);
    assert!(sub.peer_closed(), "the overrun session must be disconnected");
    assert_eq!(server.session_count(), 0);
    let stats = server.stats();
    assert_eq!(stats.sessions_expired, 1);
    assert_eq!(
        stats.notifications_expired, 3,
        "two retained frames plus the overflowing one, each counted exactly once"
    );

    // Its client is unregistered: the next match orphans.
    publisher
        .send(&ClientMessage::Publish {
            client: publisher_id,
            pairs: vec![("skill".into(), WireValue::Term("programming".into()))],
        })
        .unwrap();
    match recv(&mut server, &mut publisher, 1).remove(0) {
        ServerMessage::Published { matches } => assert_eq!(matches, 0),
        other => panic!("expected Published, got {other:?}"),
    }
    let (stats, delivery) = server.shutdown();
    assert_eq!(delivery.total_delivered(), 3);
    assert_eq!(delivery.total_delivered(), stats.notifications_expired);
}

/// A live `SetOntology` delta over the wire changes what matches: a
/// publication using an unknown alias matches nothing, the delta lands
/// (`OntologyUpdated`), and the same publication then matches. The
/// semantic mapping is mutable *through the serving path*, not just
/// through the in-process API.
#[test]
fn set_ontology_delta_changes_matching_over_the_wire() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let mut sub = NetClient::connect(&server.connector()).unwrap();
    let id = register(&mut server, &mut sub, "delta-sub");
    subscribe_skill(&mut server, &mut sub, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "delta-pub");

    let publish = |server: &mut NetBroker, publisher: &mut NetClient| {
        publisher
            .send(&ClientMessage::Publish {
                client: publisher_id,
                pairs: vec![("skill".into(), WireValue::Term("vibecoding".into()))],
            })
            .unwrap();
        match recv(server, publisher, 1).remove(0) {
            ServerMessage::Published { matches } => matches,
            other => panic!("expected Published, got {other:?}"),
        }
    };
    assert_eq!(publish(&mut server, &mut publisher), 0, "the alias is unknown before the delta");

    publisher
        .send(&ClientMessage::SetOntology {
            synonyms: vec![("programming".into(), "vibecoding".into())],
        })
        .unwrap();
    match recv(&mut server, &mut publisher, 1).remove(0) {
        ServerMessage::OntologyUpdated { epoch } => assert!(epoch > 0),
        other => panic!("expected OntologyUpdated, got {other:?}"),
    }
    assert_eq!(publish(&mut server, &mut publisher), 1, "the delta must be live for matching");
}

/// The next reply on `client`, which must be an `Error`; returns its text.
fn expect_error(server: &mut NetBroker, client: &mut NetClient) -> String {
    match recv(server, client, 1).remove(0) {
        ServerMessage::Error { message } => message,
        other => panic!("expected Error, got {other:?}"),
    }
}

/// Session-protocol edge cases: an `Ack` on a connection that never
/// opened a session, a `Hello` after `Register`, and a second `Hello`
/// are each answered with an `Error` — and the connection stays up.
#[test]
fn misplaced_session_frames_get_error_replies() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());

    let mut legacy = NetClient::connect(&server.connector()).unwrap();
    legacy.send(&ClientMessage::Ack { seq: 1 }).unwrap();
    assert_eq!(expect_error(&mut server, &mut legacy), "Ack outside a session");

    let _ = register(&mut server, &mut legacy, "late-hello");
    legacy.send(&ClientMessage::Hello { session: 0, last_seen_seq: 0 }).unwrap();
    let message = expect_error(&mut server, &mut legacy);
    assert!(message.contains("first frame"), "Hello after Register: {message}");

    let mut sessioned = NetClient::connect(&server.connector()).unwrap();
    let session = open_session(&mut server, &mut sessioned);
    sessioned.send(&ClientMessage::Hello { session, last_seen_seq: 0 }).unwrap();
    let message = expect_error(&mut server, &mut sessioned);
    assert!(message.contains("duplicate Hello"), "second Hello: {message}");

    assert!(!legacy.peer_closed() && !sessioned.peer_closed());
    assert_eq!(server.connection_count(), 2);
    assert_eq!(server.stats().sessions_created, 1, "error replies open no session");
    assert_eq!(server.session_count(), 1);
}

/// A `Hello` quoting a token that names no retaining session opens a
/// fresh session (`resumed: false`) — whatever the token — and never
/// takes over a live session-less connection: that subscriber keeps
/// receiving its notifications. Each probe's own session is expired
/// before the next probe, so no quoted token can name one.
#[test]
fn hello_with_unknown_token_opens_fresh_session_and_spares_legacy_connections() {
    let (mut server, _interner, _domain) = net_broker(NetBrokerConfig::default());
    let mut legacy = NetClient::connect(&server.connector()).unwrap();
    let id = register(&mut server, &mut legacy, "legacy-sub");
    subscribe_skill(&mut server, &mut legacy, id);
    let mut publisher = NetClient::connect(&server.connector()).unwrap();
    let publisher_id = register(&mut server, &mut publisher, "legacy-pub");

    for token in 1..=8u64 {
        let mut probe = NetClient::connect(&server.connector()).unwrap();
        probe.send(&ClientMessage::Hello { session: token, last_seen_seq: 0 }).unwrap();
        match recv(&mut server, &mut probe, 1).remove(0) {
            ServerMessage::Welcome { resumed, .. } => {
                assert!(!resumed, "token {token} names no retaining session")
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
        probe.close();
        server.run_turns(5).unwrap();
        server.advance_clock(SessionConfig::default().session_ttl);
        assert_eq!(server.session_count(), 0, "the probe's session expired");
    }
    let stats = server.stats();
    assert_eq!((stats.sessions_created, stats.sessions_resumed), (8, 0));
    assert_eq!(stats.sessions_expired, 8);
    assert_eq!(server.connection_count(), 2, "no probe closed another connection");

    publish_matching(&mut server, &mut publisher, publisher_id, 2);
    let received = recv(&mut server, &mut legacy, 2);
    assert!(
        received.iter().all(|m| matches!(m, ServerMessage::Notification { seq: 0, .. })),
        "the legacy subscriber keeps its seq-0 stream: {received:?}"
    );
    assert!(!legacy.peer_closed());
}

fn differential_chaos() -> SessionChaosConfig {
    SessionChaosConfig {
        seed: 2003,
        kill: 0.25,
        partition: 0.2,
        partition_ticks: 4,
        restart_every: 13,
        churn: 0.0,
        ontology_edit_every: 0,
        ticks_per_event: 1,
        backpressure: BackpressurePolicy::DropNewest,
        session: SessionConfig {
            replay_buffer_frames: 4096,
            session_ttl: 1_000_000, // sessions never expire in this tier
            heartbeat_timeout: 0,
        },
    }
}

/// The differential pin of the whole session layer: a chaos-ridden run —
/// kills, partitions and front-end restarts over a real workload — must
/// deliver to every subscriber exactly the payload multiset a fault-free
/// in-process `Broker` delivers to the same client on the same events,
/// with zero frames dropped, expired or left in flight. And the report
/// must be bit-identical across runs of the same seed.
#[test]
fn chaos_resumed_delivery_equals_fault_free_in_process_run() {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let shared = SharedInterner::from_interner(interner.clone());
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 16, publications: 40, seed: 23, ..Default::default() },
    );
    let chaos = differential_chaos();
    let run = || {
        run_session_chaos(
            NetBrokerConfig::default(),
            &chaos,
            Arc::new(domain.ontology.clone()),
            shared.clone(),
            &workload.subscriptions,
            &workload.publications,
            &[],
        )
    };
    let report = run();
    report.assert_invariants();
    assert!(report.kills > 0, "0.25 over 40 events must fire: {report:?}");
    assert!(report.partitions > 0, "0.2 over 40 events must fire: {report:?}");
    assert_eq!(report.restarts, 3, "restart_every=13 over 40 events");
    assert!(report.sessions_resumed > 0, "kills and restarts must exercise resume");
    assert!(report.replay_frames_sent > 0, "some retained frames must cross the wire twice");
    assert_eq!(report.dropped, 0, "the replay bound is never reached in this tier");
    assert_eq!(report.expired, 0, "sessions never expire in this tier");
    assert_eq!(report.disconnected, 0, "fenced injection leaves no session-less strays");
    assert_eq!(report.in_flight, 0, "every client caught up at scoring time");
    assert_eq!(report.orphaned, 0, "sessions survive every fault: no matches orphan");

    // Fault-free in-process run: same names in the same registration
    // order, therefore the same ClientIds and byte-identical payloads.
    let in_process =
        Broker::new(BrokerConfig::default(), Arc::new(domain.ontology.clone()), shared.clone());
    let mut expected_ids = Vec::new();
    for (k, sub) in workload.subscriptions.iter().enumerate() {
        let id = in_process.register_client(format!("session-chaos-{k}"), TransportKind::Tcp);
        in_process.subscribe(id, sub.predicates().to_vec()).unwrap();
        expected_ids.push(id);
    }
    let _ = in_process.register_client("session-chaos-pub", TransportKind::Tcp);
    let seq_attr = shared.intern("seq");
    let mut expected_matches = 0u64;
    for (k, event) in workload.publications.iter().enumerate() {
        let mut stamped = Event::with_capacity(event.len() + 1);
        stamped.push(seq_attr, Value::Int(k as i64));
        for (attr, value) in event.pairs() {
            stamped.push(*attr, *value);
        }
        expected_matches += in_process.publish(&stamped) as u64;
    }
    assert_eq!(report.matches, expected_matches, "matching must be identical over the wire");
    let inbox = in_process.inbox(TransportKind::Tcp).unwrap();
    in_process.shutdown();
    let mut expected: BTreeMap<s_topss::broker::ClientId, Vec<String>> = BTreeMap::new();
    for message in inbox.lock().iter() {
        expected.entry(message.client).or_default().push(message.payload.clone());
    }
    for (k, id) in expected_ids.iter().enumerate() {
        let mut want = expected.remove(id).unwrap_or_default();
        let mut got = report.payloads[k].clone();
        want.sort();
        got.sort();
        assert_eq!(
            got, want,
            "subscriber {k}: chaos-ridden delivery must equal the fault-free multiset"
        );
    }

    let again = run();
    assert_eq!(report, again, "same seed, same report — bit for bit");
}

/// The expiry tier: heartbeats detect partitioned connections, detached
/// sessions expire at their TTL with every retained frame accounted, and
/// the healed clients come back with fresh sessions — all deterministic
/// per seed because time only moves at fenced points.
#[test]
fn heartbeat_and_ttl_expiry_tier_conserves_and_is_deterministic() {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let shared = SharedInterner::from_interner(interner.clone());
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 12, publications: 30, seed: 9, ..Default::default() },
    );
    let chaos = SessionChaosConfig {
        seed: 7,
        kill: 0.0,
        partition: 0.35,
        partition_ticks: 12,
        restart_every: 0,
        churn: 0.0,
        ontology_edit_every: 0,
        ticks_per_event: 1,
        backpressure: BackpressurePolicy::DropNewest,
        session: SessionConfig { replay_buffer_frames: 4096, session_ttl: 3, heartbeat_timeout: 2 },
    };
    let run = || {
        run_session_chaos(
            NetBrokerConfig::default(),
            &chaos,
            Arc::new(domain.ontology.clone()),
            shared.clone(),
            &workload.subscriptions,
            &workload.publications,
            &[],
        )
    };
    let report = run();
    report.assert_invariants();
    assert!(report.partitions > 0, "0.35 over 30 events must fire: {report:?}");
    assert!(report.heartbeat_timeouts > 0, "silent partitioned links must be heartbeat-closed");
    assert!(report.sessions_expired > 0, "detached sessions must expire at ttl");
    assert!(report.expired > 0, "expired sessions' retained frames must be accounted");
    assert!(
        report.sessions_created > report.payloads.len() as u64 + 1,
        "healed clients whose sessions expired must come back fresh: {report:?}"
    );
    let again = run();
    assert_eq!(report, again, "same seed, same report — bit for bit");
}

/// The churn tier closes the roadmap leftover: Unsubscribe-heavy
/// subscription churn plus live `SetOntology` deltas over the wire,
/// under kills, still conserving every delivery and staying
/// deterministic per seed.
#[test]
fn churn_and_live_ontology_edits_conserve_under_chaos() {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let shared = SharedInterner::from_interner(interner.clone());
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 12, publications: 40, seed: 5, ..Default::default() },
    );
    let chaos = SessionChaosConfig {
        seed: 11,
        kill: 0.1,
        partition: 0.0,
        partition_ticks: 0,
        restart_every: 0,
        churn: 0.5,
        ontology_edit_every: 8,
        ticks_per_event: 1,
        backpressure: BackpressurePolicy::DropNewest,
        session: SessionConfig {
            replay_buffer_frames: 4096,
            session_ttl: 1_000_000,
            heartbeat_timeout: 0,
        },
    };
    let edits =
        vec![("programming".into(), "vibecoding".into()), ("university".into(), "academy".into())];
    let run = || {
        run_session_chaos(
            NetBrokerConfig::default(),
            &chaos,
            Arc::new(domain.ontology.clone()),
            shared.clone(),
            &workload.subscriptions,
            &workload.publications,
            &edits,
        )
    };
    let report = run();
    report.assert_invariants();
    assert!(report.churned > 0, "0.5 over 40 events must fire: {report:?}");
    assert_eq!(report.ontology_edits, 4, "every 8th of 40 publications carries a delta");
    assert_eq!(report.in_flight, 0);
    let again = run();
    assert_eq!(report, again, "same seed, same report — bit for bit");
}
