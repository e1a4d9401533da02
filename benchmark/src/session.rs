//! `session-resume`: the delivery path used through sessions. 64
//! sessioned subscribers all match one topic; every cycle kills 8 of them
//! (rotating), publishes 32 matching events closed-loop — the 56 attached
//! sessions take them on the seq/ack/retain path — and then resumes the 8,
//! each of which must get its 32-frame backlog replayed.
//!
//! Every turn polls with a zero timeout. The committed `BENCH_broker.json`
//! recovery rows read 1.13–1.22 ms at every kill rate because they drove
//! `run_turns`, whose idle poll sleeps 1 ms; the self-test at the bottom
//! keeps that floor from coming back.

use std::time::{Duration, Instant};

use stopss_broker::{
    ClientId, ClientMessage, NetBroker, NetBrokerConfig, NetClient, ServerMessage, SessionClient,
    SessionClientConfig, TransportKind, WirePredicate, WireValue,
};
use stopss_types::Operator;
use stopss_workload::Rng;

use crate::harness::{
    ns, peak_rss_mib, timed_setups, Args, Deadline, EndToEnd, Latencies, Ledger, Windows,
};
use crate::population::{shuffled_order, Domain};
use crate::serve::{parse_seq, LoopCosts, WINDOW};
use crate::trace::Tracer;

pub const SESSIONS: usize = 64;
pub const KILLS_PER_CYCLE: usize = 8;
pub const BACKLOG: usize = 32;
const WARMUP_CYCLES: usize = 5;
/// A phase that has not finished after this long has lost a frame.
const PHASE_BUDGET: Duration = Duration::from_secs(10);

struct Subscriber {
    client: SessionClient,
    /// Next `seq` this session must deliver (contiguity check).
    next_seq: u64,
    session: u64,
}

pub struct Rig {
    pub server: NetBroker,
    subscribers: Vec<Subscriber>,
    publisher: NetClient,
    publisher_id: ClientId,
    /// Seeded kill rotation.
    order: Vec<usize>,
    next_seq: u64,
    pub cycles: u64,
}

/// Counters and samples of a drive.
#[derive(Default)]
pub struct SessionStats {
    /// Publishes and resume latencies, by window.
    pub windows: Windows,
    pub publishes: u64,
    pub notifications: u64,
    pub kills: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub notify_ns: Latencies,
    pub resume_ns: Latencies,
    pub costs: LoopCosts,
    pub resume_turns: u64,
    pub in_flight_peak: u64,
}

fn topic_subscription(client: ClientId) -> ClientMessage {
    ClientMessage::Subscribe {
        client,
        predicates: vec![WirePredicate {
            attr: "skill".into(),
            op: Operator::Eq,
            value: WireValue::Term("programming".into()),
        }],
    }
}

/// Timed set-up: ontology, broker, 64 session handshakes each followed by
/// a register and the topic subscription, the publisher, warm-up cycles.
pub fn setup(seed: u64, warmup_cycles: usize) -> (Rig, f64) {
    let start = Instant::now();
    let (source, interner) = Domain::JobFinder.build();
    let mut server = NetBroker::new(
        NetBrokerConfig::default(),
        source,
        stopss_types::SharedInterner::from_interner(interner),
    )
    .expect("in-memory event loop always builds");
    let config =
        SessionClientConfig { seed, backoff_base: 1, backoff_cap: 1, jitter: 0.0, ping_every: 0 };
    let mut subscribers: Vec<Subscriber> = (0..SESSIONS)
        .map(|_| Subscriber {
            client: SessionClient::new(server.connector(), config),
            next_seq: 1,
            session: 0,
        })
        .collect();
    // Handshake → Register → Subscribe, each answered before the next.
    let mut ids: Vec<Option<ClientId>> = vec![None; SESSIONS];
    let mut requested = [false; SESSIONS];
    let mut subscribed = 0usize;
    let begun = Instant::now();
    while subscribed < SESSIONS {
        assert!(begun.elapsed() < PHASE_BUDGET, "session set-up never settled");
        server.turn(Some(Duration::ZERO)).expect("turn");
        for (k, sub) in subscribers.iter_mut().enumerate() {
            for msg in sub.client.tick().expect("well-formed frames") {
                match msg {
                    ServerMessage::Registered { client } => {
                        ids[k] = Some(client);
                        requested[k] = false;
                    }
                    ServerMessage::Subscribed { .. } => subscribed += 1,
                    _ => {}
                }
            }
            if sub.client.established() && !requested[k] {
                let request = match ids[k] {
                    Some(client) => topic_subscription(client),
                    None => ClientMessage::Register {
                        name: format!("session-{k}"),
                        transport: TransportKind::Tcp,
                    },
                };
                requested[k] = sub.client.request(&request).expect("send");
            }
        }
    }
    for sub in &mut subscribers {
        sub.session = sub.client.session();
    }
    let mut publisher = NetClient::connect(&server.connector()).expect("connect");
    publisher
        .send(&ClientMessage::Register { name: "publisher".into(), transport: TransportKind::Tcp })
        .expect("register");
    let mut publisher_id = None;
    while publisher_id.is_none() {
        assert!(begun.elapsed() < PHASE_BUDGET, "publisher registration never settled");
        server.turn(Some(Duration::ZERO)).expect("turn");
        for msg in publisher.poll_recv().expect("recv") {
            if let ServerMessage::Registered { client } = msg {
                publisher_id = Some(client);
            }
        }
    }
    let mut rig = Rig {
        server,
        subscribers,
        publisher,
        publisher_id: publisher_id.expect("registered"),
        order: shuffled_order(SESSIONS, &mut Rng::new(seed ^ 0x5e55_10f5)),
        next_seq: 0,
        cycles: 0,
    };
    let mut warm = SessionStats::default();
    let mut tracer = Tracer::new(false);
    for _ in 0..warmup_cycles {
        cycle(&mut rig, BACKLOG, &mut warm, &mut tracer);
    }
    assert_eq!(warm.failed, 0, "warm-up lost frames");
    (rig, start.elapsed().as_secs_f64())
}

impl Rig {
    fn turn(&mut self, stats: &mut SessionStats, tracer: &mut Tracer) {
        let detail = tracer.enabled();
        let before = detail.then(|| (Instant::now(), self.server.stats()));
        self.server.turn(Some(Duration::ZERO)).expect("turn");
        stats.costs.turns += 1;
        if let Some((start, before)) = before {
            let end = Instant::now();
            stats.costs.turn_ns.push(ns(end - start));
            tracer.record("turn", self.cycles, None, start, end);
            if before == self.server.stats() {
                stats.costs.idle_turns += 1;
            }
        }
    }

    /// Ticks subscriber `k`, checks `seq` contiguity, returns how many
    /// notifications surfaced and records their latency against `stamps`.
    fn tick(
        &mut self,
        k: usize,
        stamps: Option<(&[Instant; WINDOW], u64)>,
        stats: &mut SessionStats,
    ) -> usize {
        let sub = &mut self.subscribers[k];
        let msgs = sub.client.tick().expect("well-formed frames");
        if msgs.is_empty() {
            return 0;
        }
        let now = Instant::now();
        let mut seen = 0;
        for msg in msgs {
            match msg {
                ServerMessage::Notification { seq, payload } => {
                    if seq != sub.next_seq {
                        stats.failed += 1; // a gap or a duplicate got past the session layer
                    }
                    sub.next_seq = seq + 1;
                    seen += 1;
                    if let Some((stamps, first_seq)) = stamps {
                        match parse_seq(&payload) {
                            Some(n) if n >= first_seq && n < first_seq + WINDOW as u64 => {
                                stats.notify_ns.push(ns(now - stamps[n as usize % WINDOW]));
                            }
                            _ => stats.failed += 1,
                        }
                    }
                }
                ServerMessage::Welcome { session, resumed }
                    if !resumed || session != sub.session =>
                {
                    stats.failed += 1; // the session did not survive its connection
                }
                _ => {}
            }
        }
        seen
    }
}

/// One kill → publish → resume cycle with a `backlog`-event publish phase.
pub fn cycle(rig: &mut Rig, backlog: usize, stats: &mut SessionStats, tracer: &mut Tracer) {
    let detail = tracer.enabled();
    let killed: Vec<usize> = (0..KILLS_PER_CYCLE)
        .map(|j| rig.order[(rig.cycles as usize * KILLS_PER_CYCLE + j) % SESSIONS])
        .collect();
    for k in &killed {
        rig.subscribers[*k].client.kill_connection();
    }
    stats.kills += killed.len() as u64;
    rig.turn(stats, tracer); // observe the EOFs; the sessions detach
    let attached: Vec<usize> = (0..SESSIONS).filter(|k| !killed.contains(k)).collect();

    // Publish phase, closed loop: every attached session drains each event.
    let mut sent = 0usize;
    while sent < backlog {
        let burst = WINDOW.min(backlog - sent);
        let first_seq = rig.next_seq;
        let mut stamps = [Instant::now(); WINDOW];
        for _ in 0..burst {
            let seq = rig.next_seq;
            rig.next_seq += 1;
            let start = Instant::now();
            rig.publisher
                .send(&ClientMessage::Publish {
                    client: rig.publisher_id,
                    pairs: vec![
                        ("seq".into(), WireValue::Int(seq as i64)),
                        ("skill".into(), WireValue::Term("programming".into())),
                    ],
                })
                .expect("publish");
            let end = Instant::now();
            stamps[seq as usize % WINDOW] = end;
            if detail {
                stats.costs.client_ns += ns(end - start);
                tracer.record("send", seq, None, start, end);
            }
        }
        sent += burst;
        stats.publishes += burst as u64;
        let expected = (burst * attached.len()) as u64;
        let begun = Instant::now();
        let (mut replies, mut drained) = (0usize, 0u64);
        let mut sent_seen = rig.server.stats().notifications_sent;
        while replies < burst || drained < expected {
            rig.turn(stats, tracer);
            let client_start = Instant::now();
            for msg in rig.publisher.poll_recv().expect("recv") {
                match msg {
                    // Detached sessions still match: their share is retained.
                    ServerMessage::Published { matches } if matches as usize == SESSIONS => {
                        replies += 1;
                    }
                    other => {
                        eprintln!("publish answered with {other:?}");
                        stats.failed += 1;
                        replies += 1;
                    }
                }
            }
            let now_sent = rig.server.stats().notifications_sent;
            if now_sent != sent_seen || !rig.server.outbound_idle() {
                sent_seen = now_sent;
                for k in &attached {
                    drained += rig.tick(*k, Some((&stamps, first_seq)), stats) as u64;
                }
            }
            if detail {
                let end = Instant::now();
                stats.costs.client_ns += ns(end - client_start);
                tracer.record("tick.attached", rig.cycles, None, client_start, end);
            }
            if begun.elapsed() > PHASE_BUDGET {
                stats.failed += (burst - replies) as u64 + (expected - drained);
                return;
            }
        }
        stats.notifications += drained;
        stats.windows.events(Instant::now(), burst as u64);
    }
    // Land the attached sessions' acks before measuring in-flight frames.
    rig.turn(stats, tracer);
    stats.in_flight_peak = stats.in_flight_peak.max(rig.server.session_in_flight());

    // Resume phase: from the first reconnect tick until each killed
    // session is re-established with its whole backlog drained.
    let start = Instant::now();
    let mut received = vec![0usize; killed.len()];
    let mut pending = killed.len();
    let mut done = vec![false; killed.len()];
    while pending > 0 {
        let client_start = Instant::now();
        for (j, k) in killed.iter().enumerate() {
            if done[j] {
                continue;
            }
            received[j] += rig.tick(*k, None, stats);
            if rig.subscribers[*k].client.established() && received[j] >= backlog {
                let end = Instant::now();
                stats.resume_ns.push(ns(end - start));
                stats.windows.latency(end, ns(end - start));
                tracer.record("resume", rig.cycles, None, start, end);
                done[j] = true;
                pending -= 1;
            }
        }
        if detail {
            stats.costs.client_ns += ns(client_start.elapsed());
        }
        rig.turn(stats, tracer);
        stats.resume_turns += 1;
        if start.elapsed() > PHASE_BUDGET {
            stats.failed += pending as u64; // resumes that never completed
            return;
        }
    }
    stats.notifications += received.iter().sum::<usize>() as u64;
    rig.cycles += 1;
}

/// Drives whole cycles until the deadline.
pub fn drive(rig: &mut Rig, deadline: Deadline, tracer: &mut Tracer) -> SessionStats {
    let mut stats = SessionStats {
        windows: Windows::new(
            deadline.start,
            deadline.end.duration_since(deadline.start).as_secs_f64(),
        ),
        ..SessionStats::default()
    };
    loop {
        cycle(rig, BACKLOG, &mut stats, tracer);
        if stats.failed > 0 || deadline.passed(Instant::now()) {
            break;
        }
    }
    stats.wall_s = deadline.start.elapsed().as_secs_f64();
    stats
}

/// The session conservation identity and the resume accounting.
pub fn check(rig: &mut Rig, kills: u64, ledger: &mut Ledger) {
    // Let the last acks land and the worker drain before reading counters.
    for _ in 0..4 {
        rig.server.turn(Some(Duration::ZERO)).expect("turn");
        for sub in &mut rig.subscribers {
            let _ = sub.client.tick();
        }
    }
    let stats = rig.server.stats();
    let broker = rig.server.broker();
    let delivered = broker.delivery_stats().total_delivered();
    ledger.check(stats.matches_seen == broker.orphaned_matches() + delivered, || {
        format!("matches_seen {} != orphaned + delivered {delivered}", stats.matches_seen)
    });
    let accounted = stats.notifications_acked
        + stats.notifications_replayed
        + stats.notifications_dropped
        + stats.notifications_expired
        + rig.server.session_in_flight();
    ledger.check(delivered == accounted, || {
        format!(
            "delivered {delivered} != acked + replayed + dropped + expired + in_flight {accounted}"
        )
    });
    let lost = stats.notifications_dropped
        + stats.notifications_disconnected
        + stats.notifications_expired;
    ledger.check(lost == 0, || format!("{lost} notifications dropped/disconnected/expired"));
    ledger.check(stats.sessions_resumed == kills, || {
        format!("sessions_resumed {} != kills {kills}", stats.sessions_resumed)
    });
    ledger.check(stats.replay_frames_sent == kills * BACKLOG as u64, || {
        format!("replay_frames_sent {} != kills x {BACKLOG}", stats.replay_frames_sent)
    });
    ledger.check(stats.sessions_created == SESSIONS as u64, || {
        format!("{} sessions created for {SESSIONS} subscribers", stats.sessions_created)
    });
}

/// End-to-end run (tracing off).
pub fn run(args: &Args, ledger: &mut Ledger) -> EndToEnd {
    let warmup = if args.smoke { 1 } else { WARMUP_CYCLES };
    let (mut rig, setup_s) = timed_setups(
        args.setup_repeats(),
        || setup(args.seed, warmup),
        |rig: Rig| {
            rig.server.shutdown();
        },
    );
    let warm_matches = rig.server.stats().matches_seen;
    let stats = drive(&mut rig, Deadline::after(args.seconds), &mut Tracer::new(false));
    let peak_rss_mb = peak_rss_mib();

    ledger.ops(stats.publishes + stats.notifications + stats.kills);
    for _ in 0..stats.failed {
        ledger.fail(
            "session-resume: an unanswered publish, a missing or out-of-order notification, \
             or a resume that did not complete"
                .into(),
        );
    }
    let kills = rig.cycles * KILLS_PER_CYCLE as u64; // warm-up cycles included
    check(&mut rig, kills, ledger);

    let fact = |l: &Latencies, p: f64| format!("{:.0} (n={})", l.percentile(p), l.len());
    let facts = vec![
        ("matches_total".to_owned(), warm_matches.to_string()),
        ("sessions".to_owned(), SESSIONS.to_string()),
        ("cycles".to_owned(), (rig.cycles - warmup as u64).to_string()),
        ("publishes".to_owned(), stats.publishes.to_string()),
        ("kills".to_owned(), stats.kills.to_string()),
        (
            "whole_run_events_per_sec".to_owned(),
            format!("{:.1}", stats.publishes as f64 / stats.wall_s),
        ),
        ("p50_notify_ns".to_owned(), fact(&stats.notify_ns, 0.50)),
        ("p99_notify_ns".to_owned(), fact(&stats.notify_ns, 0.99)),
        ("p50_resume_ns".to_owned(), fact(&stats.resume_ns, 0.50)),
        ("p99_resume_ns".to_owned(), fact(&stats.resume_ns, 0.99)),
    ];
    rig.server.shutdown();
    EndToEnd {
        setup_s,
        windows: stats.windows,
        latency_of: "first reconnect tick of a killed session -> re-established with its \
                     32-frame backlog replayed and drained",
        peak_rss_mb,
        facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resume with nothing to replay is a handshake: two ticks and a
    /// turn. If it costs anything near a millisecond, some loop went back
    /// to a sleeping poll.
    #[test]
    fn empty_backlog_resume_is_far_below_the_old_idle_poll_floor() {
        let (mut rig, _) = setup(7, 0);
        let mut stats = SessionStats::default();
        let mut tracer = Tracer::new(false);
        for _ in 0..50 {
            cycle(&mut rig, 0, &mut stats, &mut tracer);
        }
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.resume_ns.len(), 50 * KILLS_PER_CYCLE);
        let p50 = stats.resume_ns.percentile(0.50);
        assert!(p50 < 500_000.0, "empty-backlog resume p50 is {p50} ns — an idle poll is sleeping");
        assert_eq!(rig.server.stats().sessions_resumed, stats.kills);
        assert_eq!(rig.server.stats().replay_frames_sent, 0);
    }
}
