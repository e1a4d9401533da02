//! E11 — networked broker under load: connections × publish rate.
//!
//! Drives the [`stopss_broker::NetBroker`] event loop end to end over
//! in-memory framed connections: N subscriber connections whose
//! subscriptions are drawn from a fixed template pool with **Zipf
//! popularity skew** ([`stopss_workload::Zipf`] — a few hot topics carry
//! most of the fan-out, per Fabret et al.), one publisher connection
//! streaming seq-stamped publications in rate-sized bursts. Each
//! notification's latency is measured from the moment the publish frame
//! is flushed into the wire to the moment the subscriber's client drains
//! the Notification frame — so the number covers the whole serving path:
//! frame decode, batched subscribe/publish dispatch, match, notification
//! engine (run inline on the event loop's thread), outbound queue, flush,
//! client-side reassembly.
//!
//! Besides the criterion-stub smoke run, the bench emits the
//! machine-readable perf trajectory `BENCH_broker.json` at the repo root
//! (connections × publish rate → events/sec + p50/p99 notify latency).
//! CI regenerates it, fails if either axis is missing, and the file is
//! committed so `git log` shows the trajectory PR-over-PR.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use stopss_bench::{render_bench_json, JsonRow, JsonValue};
use stopss_broker::{
    run_session_chaos, subscription_to_wire, BackpressurePolicy, ClientId, ClientMessage,
    NetBroker, NetBrokerConfig, NetClient, ServerMessage, SessionChaosConfig, SessionClient,
    SessionClientConfig, SessionConfig, TransportKind, WirePredicate, WireValue,
};
use stopss_types::{Interner, Operator, SharedInterner};
use stopss_workload::{generate_jobfinder, JobFinderDomain, Rng, WorkloadConfig, Zipf};

/// Distinct subscription shapes; connections pick one Zipf-skewed, so the
/// hot template is shared by ~20% of all connections at s = 1.0.
const SUB_TEMPLATES: usize = 64;
/// Zipf exponent for both template popularity and publication choice.
const ZIPF_SKEW: f64 = 1.0;
/// Publications streamed per (connections, rate) cell.
const PUBLICATIONS: usize = 192;
/// The committed trajectory's two axes.
const CONNECTIONS: [usize; 3] = [128, 1024, 4096];
const PUBLISH_RATES: [usize; 2] = [4, 32];
/// Hard cap on event-loop turns per pump; hitting it means lost frames.
const TURN_BUDGET: usize = 200_000;
/// The recovery axis: per-publication kill probabilities swept by the
/// session-chaos volume rows.
const KILL_RATES: [f64; 3] = [0.1, 0.3, 0.5];
/// Kill/resume cycles timed per recovery row.
const RESUME_CYCLES: usize = 12;
/// Unacknowledged notifications retained while the subscriber is down —
/// each timed resume must replay this backlog before it counts as done.
const RESUME_BACKLOG: usize = 16;

struct LoadResult {
    events: u64,
    matches: u64,
    notifications: u64,
    events_per_sec: f64,
    notifications_per_sec: f64,
    p50_notify_ns: u64,
    p99_notify_ns: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank]
}

/// Everything the publish loop needs after setup.
struct Rig {
    server: NetBroker,
    interner: Interner,
    subscribers: Vec<NetClient>,
    publisher: NetClient,
    publisher_id: ClientId,
    publications: Vec<stopss_types::Event>,
}

/// Connects `connections` subscribers (Zipf-skewed over the template
/// pool) plus one publisher, and settles the subscribe storm.
fn build_rig(connections: usize, seed: u64) -> Rig {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig {
            subscriptions: SUB_TEMPLATES,
            publications: PUBLICATIONS,
            seed,
            ..Default::default()
        },
    );
    let mut server = NetBroker::new(
        NetBrokerConfig::default(),
        Arc::new(domain.ontology.clone()),
        SharedInterner::from_interner(interner.clone()),
    )
    .expect("in-memory event loop always builds");

    let mut subscribers = Vec::with_capacity(connections);
    for _ in 0..connections {
        subscribers.push(NetClient::connect(&server.connector()).expect("connect"));
    }
    for (k, client) in subscribers.iter_mut().enumerate() {
        client
            .send(&ClientMessage::Register {
                name: format!("sub-{k}"),
                transport: TransportKind::Tcp,
            })
            .expect("register");
    }
    let mut ids: Vec<Option<ClientId>> = vec![None; connections];
    let mut remaining = connections;
    let mut turns = 0usize;
    while remaining > 0 {
        server.turn(Some(Duration::from_millis(1))).expect("turn");
        turns += 1;
        assert!(turns < TURN_BUDGET, "registration never settled");
        for (k, client) in subscribers.iter_mut().enumerate() {
            if ids[k].is_some() {
                continue;
            }
            for msg in client.poll_recv().expect("recv") {
                if let ServerMessage::Registered { client: id } = msg {
                    ids[k] = Some(id);
                    remaining -= 1;
                }
            }
        }
    }

    // The subscribe storm: every connection queues its Subscribe before
    // the loop turns again, so the server coalesces them into a few
    // batched control mutations.
    let zipf = Zipf::new(SUB_TEMPLATES, ZIPF_SKEW);
    let mut rng = Rng::new(seed ^ 0x5eed_701c);
    for (k, client) in subscribers.iter_mut().enumerate() {
        let template = &workload.subscriptions[zipf.sample(&mut rng)];
        client
            .send(&ClientMessage::Subscribe {
                client: ids[k].expect("registered"),
                predicates: subscription_to_wire(template, &interner),
            })
            .expect("subscribe");
    }
    let mut publisher = NetClient::connect(&server.connector()).expect("connect");
    publisher
        .send(&ClientMessage::Register { name: "publisher".into(), transport: TransportKind::Tcp })
        .expect("register");
    assert!(server.run_until_quiescent(TURN_BUDGET).expect("turn"), "setup never quiesced");
    let mut publisher_id = None;
    for msg in publisher.poll_recv().expect("recv") {
        if let ServerMessage::Registered { client } = msg {
            publisher_id = Some(client);
        }
    }
    for client in &mut subscribers {
        let _ = client.poll_recv().expect("recv"); // drain Subscribed replies
    }
    assert_eq!(server.broker().subscription_count(), connections);
    Rig {
        server,
        interner,
        subscribers,
        publisher,
        publisher_id: publisher_id.expect("publisher registered"),
        publications: workload.publications,
    }
}

/// Streams `publications` seq-stamped events in `rate`-sized bursts and
/// pumps each burst until every Published reply and every resulting
/// Notification has been drained — losses would hang, so a clean return
/// is itself a conservation check (plus the explicit stats assert).
fn run_load(rig: &mut Rig, rate: usize, publications: usize, seed: u64) -> LoadResult {
    let zipf = Zipf::new(rig.publications.len(), ZIPF_SKEW);
    let mut rng = Rng::new(seed ^ 0x10ad_9e97);
    let mut stamps: Vec<Instant> = Vec::with_capacity(publications);
    let mut latencies: Vec<u64> = Vec::new();
    let mut matches = 0u64;
    let base_sent = rig.server.stats().notifications_sent;

    let start = Instant::now();
    let mut seq = 0usize;
    while seq < publications {
        let burst = rate.min(publications - seq);
        for _ in 0..burst {
            let event = &rig.publications[zipf.sample(&mut rng)];
            let interner = &rig.interner;
            let pairs: Vec<(String, WireValue)> =
                std::iter::once(("seq".to_owned(), WireValue::Int(seq as i64)))
                    .chain(event.pairs().iter().map(|(attr, value)| {
                        (interner.resolve(*attr).to_owned(), WireValue::from_value(value, interner))
                    }))
                    .collect();
            rig.publisher
                .send(&ClientMessage::Publish { client: rig.publisher_id, pairs })
                .expect("publish");
            rig.publisher.flush().expect("flush");
            stamps.push(Instant::now());
            seq += 1;
        }
        // Pump until the burst's replies and notifications all arrive.
        let mut published_seen = 0usize;
        let mut burst_matches = 0u64;
        let mut burst_notified = 0u64;
        let mut turns = 0usize;
        while published_seen < burst || burst_notified < burst_matches {
            rig.server.turn(Some(Duration::from_millis(1))).expect("turn");
            turns += 1;
            assert!(turns < TURN_BUDGET, "burst never drained — a notification was lost");
            for client in &mut rig.subscribers {
                for msg in client.poll_recv().expect("recv") {
                    if let ServerMessage::Notification { payload, .. } = msg {
                        let n = parse_seq(&payload).expect("seq-stamped payload") as usize;
                        latencies.push(stamps[n].elapsed().as_nanos() as u64);
                        burst_notified += 1;
                    }
                }
            }
            for msg in rig.publisher.poll_recv().expect("recv") {
                if let ServerMessage::Published { matches } = msg {
                    burst_matches += u64::from(matches);
                    published_seen += 1;
                }
            }
        }
        matches += burst_matches;
    }
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    let stats = rig.server.stats();
    assert_eq!(stats.notifications_dropped, 0, "drained consumers never hit backpressure");
    assert_eq!(stats.notifications_disconnected, 0);
    assert_eq!(stats.notifications_sent - base_sent, latencies.len() as u64);
    latencies.sort_unstable();
    LoadResult {
        events: publications as u64,
        matches,
        notifications: latencies.len() as u64,
        events_per_sec: publications as f64 / wall,
        notifications_per_sec: latencies.len() as f64 / wall,
        p50_notify_ns: percentile(&latencies, 0.50),
        p99_notify_ns: percentile(&latencies, 0.99),
    }
}

/// Times `cycles` full recoveries: the sessioned subscriber is killed, a
/// `backlog` of matching notifications accumulates in its replay buffer
/// while it is down, and the timer runs from the first reconnect tick
/// until the client is re-established *and* has drained the whole
/// replayed backlog. Returns the sorted per-cycle times in nanoseconds.
fn measure_resume(cycles: usize, backlog: usize, seed: u64) -> Vec<u64> {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let mut server = NetBroker::new(
        NetBrokerConfig::default(),
        Arc::new(domain.ontology.clone()),
        SharedInterner::from_interner(interner.clone()),
    )
    .expect("in-memory event loop always builds");
    let mut sub = SessionClient::new(
        server.connector(),
        SessionClientConfig { seed, backoff_base: 1, backoff_cap: 1, jitter: 0.0, ping_every: 0 },
    );

    // Establish the session and its subscription.
    let mut id = None;
    let mut subscribed = false;
    let mut requested = false;
    let mut turns = 0usize;
    while !subscribed {
        turns += 1;
        assert!(turns < TURN_BUDGET, "session setup never settled");
        server.run_turns(2).expect("turn");
        for msg in sub.tick().expect("well-formed frames") {
            match msg {
                ServerMessage::Registered { client } => {
                    id = Some(client);
                    requested = false;
                }
                ServerMessage::Subscribed { .. } => subscribed = true,
                _ => {}
            }
        }
        if sub.established() && !requested {
            if let Some(client) = id {
                let subscribe = ClientMessage::Subscribe {
                    client,
                    predicates: vec![WirePredicate {
                        attr: "skill".into(),
                        op: Operator::Eq,
                        value: WireValue::Term("programming".into()),
                    }],
                };
                requested = sub.request(&subscribe).expect("send");
            } else {
                let register = ClientMessage::Register {
                    name: "resume-bench".into(),
                    transport: TransportKind::Tcp,
                };
                requested = sub.request(&register).expect("send");
            }
        }
    }
    let mut publisher = NetClient::connect(&server.connector()).expect("connect");
    publisher
        .send(&ClientMessage::Register { name: "resume-pub".into(), transport: TransportKind::Tcp })
        .expect("register");
    let mut publisher_id = None;
    while publisher_id.is_none() {
        server.run_turns(1).expect("turn");
        for msg in publisher.poll_recv().expect("recv") {
            if let ServerMessage::Registered { client } = msg {
                publisher_id = Some(client);
            }
        }
    }
    let publisher_id = publisher_id.expect("registered");

    let mut times: Vec<u64> = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        sub.kill_connection();
        server.run_turns(2).expect("turn"); // observe the EOF; detach
        for k in 0..backlog {
            publisher
                .send(&ClientMessage::Publish {
                    client: publisher_id,
                    pairs: vec![
                        ("seq".into(), WireValue::Int((cycle * backlog + k) as i64)),
                        ("skill".into(), WireValue::Term("programming".into())),
                    ],
                })
                .expect("publish");
            publisher.flush().expect("flush");
        }
        // Route the backlog into the replay buffer with broker-only
        // turns, so the timed section measures recovery, not matching.
        let mut turns = 0usize;
        loop {
            server.run_turns(1).expect("turn");
            turns += 1;
            assert!(turns < TURN_BUDGET, "backlog never drained");
            if server.deliveries_drained() {
                break;
            }
        }
        let _ = publisher.poll_recv().expect("recv");

        let start = Instant::now();
        let mut received = 0usize;
        let mut turns = 0usize;
        while !(sub.established() && received >= backlog) {
            turns += 1;
            assert!(turns < TURN_BUDGET, "resume never completed");
            server.run_turns(2).expect("turn");
            received += sub
                .tick()
                .expect("well-formed frames")
                .iter()
                .filter(|m| matches!(m, ServerMessage::Notification { .. }))
                .count();
        }
        times.push(start.elapsed().as_nanos() as u64);
        // Let the auto-ack land so the next cycle starts clean.
        server.run_turns(2).expect("turn");
    }
    let stats = server.stats();
    assert_eq!(stats.sessions_resumed, cycles as u64);
    assert_eq!(stats.replay_frames_sent, (cycles * backlog) as u64);
    times.sort_unstable();
    times
}

/// One recovery-axis volume row: the session chaos tier at `kill` over a
/// fixed workload, returning the report for its resume/replay counters.
fn run_recovery_volume(kill: f64) -> stopss_broker::SessionChaosReport {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions: 12, publications: 48, seed: 31, ..Default::default() },
    );
    let chaos = SessionChaosConfig {
        seed: 31,
        kill,
        partition: 0.0,
        partition_ticks: 0,
        restart_every: 0,
        churn: 0.0,
        ontology_edit_every: 0,
        ticks_per_event: 1,
        backpressure: BackpressurePolicy::DropNewest,
        session: SessionConfig {
            replay_buffer_frames: 4096,
            session_ttl: 1_000_000,
            heartbeat_timeout: 0,
        },
    };
    let report = run_session_chaos(
        NetBrokerConfig::default(),
        &chaos,
        Arc::new(domain.ontology.clone()),
        SharedInterner::from_interner(interner.clone()),
        &workload.subscriptions,
        &workload.publications,
        &[],
    );
    report.assert_invariants();
    report
}

/// Pulls the leading `(seq, N)` pair back out of a notification payload.
fn parse_seq(payload: &str) -> Option<i64> {
    let tail = payload.split("(seq, ").nth(1)?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '-').collect();
    digits.parse().ok()
}

fn bench_broker_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_load");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    // Criterion smoke: a modest loop, one rate — the full axis sweep is
    // the BENCH_TRAJECTORY-gated JSON below.
    let mut rig = build_rig(64, 17);
    group.bench_with_input(BenchmarkId::new("burst", "conns=64/rate=4"), &4usize, |b, &rate| {
        b.iter(|| {
            let result = run_load(&mut rig, rate, 16, 17);
            black_box(result.matches)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_broker_load);

fn main() {
    benches();
    // The full sweep is opt-in so a plain `cargo bench` stays a fast smoke
    // run; CI's trajectory step (and anyone refreshing the committed JSON)
    // sets BENCH_TRAJECTORY=1.
    if std::env::var_os("BENCH_TRAJECTORY").is_none() {
        return;
    }
    let mut rows: Vec<JsonRow> = Vec::new();
    for connections in CONNECTIONS {
        for rate in PUBLISH_RATES {
            let mut rig = build_rig(connections, 17);
            let result = run_load(&mut rig, rate, PUBLICATIONS, 17);
            rows.push(vec![
                ("connections", JsonValue::UInt(connections as u64)),
                ("publish_rate", JsonValue::UInt(rate as u64)),
                ("events", JsonValue::UInt(result.events)),
                ("matches", JsonValue::UInt(result.matches)),
                ("notifications", JsonValue::UInt(result.notifications)),
                ("events_per_sec", JsonValue::Float(result.events_per_sec)),
                ("notifications_per_sec", JsonValue::Float(result.notifications_per_sec)),
                ("p50_notify_ns", JsonValue::UInt(result.p50_notify_ns)),
                ("p99_notify_ns", JsonValue::UInt(result.p99_notify_ns)),
            ]);
        }
    }
    // The recovery axis: time-to-resume (kill → re-established with the
    // retained backlog fully replayed) and replayed-frame volume as the
    // kill rate rises.
    for (n, kill) in KILL_RATES.into_iter().enumerate() {
        let resume_ns = measure_resume(RESUME_CYCLES, RESUME_BACKLOG, 41 + n as u64);
        let report = run_recovery_volume(kill);
        rows.push(vec![
            ("axis", JsonValue::Str("recovery".to_owned())),
            ("kill_rate", JsonValue::Float(kill)),
            ("kills", JsonValue::UInt(report.kills)),
            ("sessions_resumed", JsonValue::UInt(report.sessions_resumed)),
            ("replay_frames", JsonValue::UInt(report.replay_frames_sent)),
            ("delivered", JsonValue::UInt(report.delivered)),
            ("acked", JsonValue::UInt(report.acked)),
            ("replayed", JsonValue::UInt(report.replayed)),
            ("resume_backlog", JsonValue::UInt(RESUME_BACKLOG as u64)),
            ("p50_resume_ns", JsonValue::UInt(percentile(&resume_ns, 0.50))),
            ("p99_resume_ns", JsonValue::UInt(percentile(&resume_ns, 0.99))),
        ]);
    }
    let json = render_bench_json(
        "broker_load",
        &[
            ("workload", JsonValue::Str("jobfinder".to_owned())),
            ("sub_templates", JsonValue::UInt(SUB_TEMPLATES as u64)),
            ("zipf_skew", JsonValue::Float(ZIPF_SKEW)),
            ("publications", JsonValue::UInt(PUBLICATIONS as u64)),
        ],
        &rows,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_broker.json");
    std::fs::write(path, json).expect("write BENCH_broker.json");
    println!("wrote {path}");
}
