//! The networked workloads `serve-fanout` and `serve-selective`: one
//! `NetBroker`, 1 024 legacy subscriber connections and one publisher,
//! all in-memory pipes multiplexed by the driver thread.
//!
//! The loop is **closed**: a window of [`WINDOW`] publishes goes out, and
//! the next burst only after every `Published` reply and every promised
//! notification was drained. Driver and event loop share a thread and the
//! host's speed is unknown, so a fixed open-loop rate would sit above or
//! below the knee depending on the machine. Every timed turn polls with a
//! zero timeout — `run_turns`/`run_until_quiescent` sleep 1 ms on an idle
//! poll, which is larger than most latencies measured here.

use std::time::{Duration, Instant};

use stopss_broker::{
    subscription_to_wire, ClientId, ClientMessage, NetBroker, NetBrokerConfig, NetClient, NetStats,
    ServerMessage, TransportKind, WirePredicate, WireValue,
};
use stopss_types::{Event, Value};
use stopss_workload::Rng;

use crate::capture;
use crate::harness::{
    ns, peak_rss_mib, timed_setups, Args, Deadline, EndToEnd, Latencies, Ledger, Windows,
};
use crate::population::{self, shuffled_order, Population};
use crate::trace::Tracer;

/// Publishes in flight per burst.
pub const WINDOW: usize = 4;
/// Subscriber connections.
pub const CONNECTIONS: usize = 1_024;
/// Zipf exponent of template popularity and publication choice.
const ZIPF_SKEW: f64 = 1.0;
/// Slots of one stream cycle (publication draws before the order repeats).
const STREAM_SLOTS: usize = 4_096;
/// A burst that has not drained after this long has lost a frame.
const BURST_BUDGET: Duration = Duration::from_secs(10);
/// Publishes of the payload-equivalence check pass.
const CHECK_PUBLISHES: usize = 64;
/// Subscriber connections whose payloads the check pass compares.
const CHECK_SUBSCRIBERS: usize = 8;

/// How subscriptions are spread over the connections.
#[derive(Clone, Copy)]
pub enum Spread {
    /// One subscription per connection, the template Zipf-weighted.
    ZipfTemplates,
    /// Every population subscription, dealt round-robin.
    RoundRobin,
}

pub struct Spec {
    pub population: Population,
    pub spread: Spread,
    /// Zipf-weighted publication choice (else every pool event equally).
    pub zipf_publications: bool,
    pub warmup_publishes: usize,
}

impl Spec {
    /// 64 job-finder templates, 192 pool publications, both Zipf(1.0).
    pub fn fanout() -> Spec {
        Spec {
            population: population::jobfinder(64, 192, population::BROKER_LOAD_SEED),
            spread: Spread::ZipfTemplates,
            zipf_publications: true,
            warmup_publishes: 400,
        }
    }

    /// `churn-index`'s 20 000 selective subscriptions, ~20 a connection.
    pub fn selective() -> Spec {
        Spec {
            population: population::index(),
            spread: Spread::RoundRobin,
            zipf_publications: false,
            warmup_publishes: 2_000,
        }
    }
}

/// `slots` draws over `items` with exact Zipf(s) quotas (largest
/// remainder), in seeded order. Quotas instead of independent draws keep
/// the mix — and with it fan-out — identical across seeds; the seed
/// decides who gets what and when.
fn zipf_quota_sequence(items: usize, s: f64, slots: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (0..items).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * slots as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items).collect();
    by_remainder.sort_by(|a, b| {
        (exact[*b] - exact[*b].floor()).total_cmp(&(exact[*a] - exact[*a].floor()))
    });
    let missing = slots - quota.iter().sum::<usize>();
    for k in by_remainder.into_iter().take(missing) {
        quota[k] += 1;
    }
    let mut sequence: Vec<usize> =
        quota.iter().enumerate().flat_map(|(k, q)| std::iter::repeat_n(k, *q)).collect();
    rng.shuffle(&mut sequence);
    sequence
}

/// The seeded layout of one run: who holds what, and what is sent when.
pub struct Layout {
    /// Population subscription indices held by each connection, in the
    /// order that connection sends them.
    pub held: Vec<Vec<usize>>,
    /// Pool indices of the publication stream; cycled.
    pub stream: Vec<usize>,
    /// Each pool event rendered for the wire (without its `seq` stamp).
    pub wire_events: Vec<Vec<(String, WireValue)>>,
    /// Each population subscription rendered for the wire.
    pub wire_subs: Vec<Vec<WirePredicate>>,
}

impl Layout {
    pub fn new(spec: &Spec, seed: u64) -> Layout {
        let population = &spec.population;
        let mut rng = Rng::new(seed ^ 0x5e12_7e00);
        let held: Vec<Vec<usize>> = match spec.spread {
            Spread::ZipfTemplates => {
                zipf_quota_sequence(population.subs.len(), ZIPF_SKEW, CONNECTIONS, &mut rng)
                    .into_iter()
                    .map(|template| vec![template])
                    .collect()
            }
            Spread::RoundRobin => {
                let order = shuffled_order(population.subs.len(), &mut rng);
                let mut held = vec![Vec::new(); CONNECTIONS];
                for (k, sub) in order.into_iter().enumerate() {
                    held[k % CONNECTIONS].push(sub);
                }
                held
            }
        };
        let stream = if spec.zipf_publications {
            zipf_quota_sequence(population.pubs.len(), ZIPF_SKEW, STREAM_SLOTS, &mut rng)
        } else {
            shuffled_order(population.pubs.len(), &mut rng)
        };
        let interner = &population.interner;
        let wire_events = population
            .pubs
            .iter()
            .map(|event| {
                event
                    .pairs()
                    .iter()
                    .map(|(attr, value)| {
                        (interner.resolve(*attr).to_owned(), WireValue::from_value(value, interner))
                    })
                    .collect()
            })
            .collect();
        let wire_subs =
            population.subs.iter().map(|(sub, _)| subscription_to_wire(sub, interner)).collect();
        Layout { held, stream, wire_events, wire_subs }
    }

    /// The `Publish` message of stream position `seq`, `seq`-stamped.
    pub fn publish_message(&self, publisher: ClientId, seq: u64) -> ClientMessage {
        let event = &self.wire_events[self.stream[seq as usize % self.stream.len()]];
        let mut pairs = Vec::with_capacity(event.len() + 1);
        pairs.push(("seq".to_owned(), WireValue::Int(seq as i64)));
        pairs.extend(event.iter().cloned());
        ClientMessage::Publish { client: publisher, pairs }
    }
}

/// Pulls the `(seq, N)` stamp back out of a notification payload.
pub fn parse_seq(payload: &str) -> Option<u64> {
    let tail = payload.split("(seq, ").nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A built and settled broker with its connections.
pub struct Rig {
    pub server: NetBroker,
    pub subscribers: Vec<NetClient>,
    pub subscriber_ids: Vec<ClientId>,
    pub publisher: NetClient,
    pub publisher_id: ClientId,
    /// Next unused `seq` stamp.
    pub next_seq: u64,
    /// Control epochs the subscribe storm cost.
    pub storm_epochs: u64,
}

/// What the event loop and the client side of the pipes cost a drive;
/// samples are taken on traced drives only.
#[derive(Default)]
pub struct LoopCosts {
    /// Nanoseconds of each `NetBroker::turn`.
    pub turn_ns: Vec<u64>,
    pub turns: u64,
    /// Turns that left `NetStats` unchanged.
    pub idle_turns: u64,
    /// Nanoseconds inside `NetClient` / `SessionClient` calls.
    pub client_ns: u64,
}

/// Payloads a drive should keep: those drained by the `wanted`
/// subscribers, as `(subscriber index, payload)`.
pub struct PayloadTap<'a> {
    pub wanted: &'a [usize],
    pub sink: &'a mut Vec<(usize, String)>,
}

/// Counters and samples of one closed-loop drive.
#[derive(Default)]
pub struct LoopStats {
    /// Publishes (counted when their burst has drained) and notify
    /// latencies, by window.
    pub windows: Windows,
    pub publishes: u64,
    pub matches: u64,
    pub notifications: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub notify_ns: Latencies,
    /// Publish frame flushed → `Published` reply drained.
    pub ack_ns: Latencies,
    pub costs: LoopCosts,
}

/// Pumps until `done` or the budget lapses; registration and storm use it.
fn pump(rig_server: &mut NetBroker, mut step: impl FnMut(&mut NetBroker) -> bool, what: &str) {
    let start = Instant::now();
    loop {
        rig_server.turn(Some(Duration::ZERO)).expect("turn");
        if step(rig_server) {
            return;
        }
        assert!(start.elapsed() < BURST_BUDGET * 3, "{what} never settled");
    }
}

/// Timed set-up: ontology build, `NetBroker` construction, connects and
/// registrations, one coalesced subscribe storm, fixed-count warm-up.
pub fn setup(spec: &Spec, layout: &Layout) -> (Rig, f64) {
    let start = Instant::now();
    let (source, interner) = spec.population.domain.build();
    let mut server = NetBroker::new(
        NetBrokerConfig::default(),
        source,
        stopss_types::SharedInterner::from_interner(interner),
    )
    .expect("in-memory event loop always builds");

    let mut subscribers: Vec<NetClient> = (0..CONNECTIONS)
        .map(|_| NetClient::connect(&server.connector()).expect("connect"))
        .collect();
    for (k, client) in subscribers.iter_mut().enumerate() {
        client
            .send(&ClientMessage::Register {
                name: format!("sub-{k}"),
                transport: TransportKind::Tcp,
            })
            .expect("register");
    }
    let mut ids: Vec<Option<ClientId>> = vec![None; CONNECTIONS];
    let mut missing = CONNECTIONS;
    pump(
        &mut server,
        |_| {
            for (k, client) in subscribers.iter_mut().enumerate() {
                if ids[k].is_none() {
                    for msg in client.poll_recv().expect("recv") {
                        if let ServerMessage::Registered { client: id } = msg {
                            ids[k] = Some(id);
                            missing -= 1;
                        }
                    }
                }
            }
            missing == 0
        },
        "registration",
    );
    let subscriber_ids: Vec<ClientId> = ids.into_iter().map(|id| id.expect("registered")).collect();

    // The storm: every Subscribe is on the wire before the loop turns
    // again, so the server coalesces them into a few batched mutations.
    let epoch_before = server.broker().matcher_control_epoch();
    let mut expected = 0usize;
    for (k, client) in subscribers.iter_mut().enumerate() {
        for sub in &layout.held[k] {
            client
                .send(&ClientMessage::Subscribe {
                    client: subscriber_ids[k],
                    predicates: layout.wire_subs[*sub].clone(),
                })
                .expect("subscribe");
            expected += 1;
        }
    }
    let mut subscribed = 0usize;
    pump(
        &mut server,
        |_| {
            for client in subscribers.iter_mut() {
                let _ = client.flush();
                for msg in client.poll_recv().expect("recv") {
                    match msg {
                        ServerMessage::Subscribed { .. } => subscribed += 1,
                        other => panic!("storm answered with {other:?}"),
                    }
                }
            }
            subscribed == expected
        },
        "subscribe storm",
    );
    let storm_epochs = server.broker().matcher_control_epoch() - epoch_before;

    let mut publisher = NetClient::connect(&server.connector()).expect("connect");
    publisher
        .send(&ClientMessage::Register { name: "publisher".into(), transport: TransportKind::Tcp })
        .expect("register");
    let mut publisher_id = None;
    pump(
        &mut server,
        |_| {
            for msg in publisher.poll_recv().expect("recv") {
                if let ServerMessage::Registered { client } = msg {
                    publisher_id = Some(client);
                }
            }
            publisher_id.is_some()
        },
        "publisher registration",
    );
    let mut rig = Rig {
        server,
        subscribers,
        subscriber_ids,
        publisher,
        publisher_id: publisher_id.expect("registered"),
        next_seq: 0,
        storm_epochs,
    };
    let warm =
        drive(&mut rig, layout, Stop::Count(spec.warmup_publishes), &mut Tracer::new(false), None);
    assert_eq!(warm.failed, 0, "warm-up lost frames");
    (rig, start.elapsed().as_secs_f64())
}

/// When a drive ends.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Deadline),
    Count(usize),
}

/// Drives the closed loop.
pub fn drive(
    rig: &mut Rig,
    layout: &Layout,
    stop: Stop,
    tracer: &mut Tracer,
    mut payloads: Option<PayloadTap<'_>>,
) -> LoopStats {
    let detail = tracer.enabled();
    let started = Instant::now();
    let mut stats = LoopStats {
        windows: match stop {
            Stop::At(deadline) => {
                Windows::new(started, deadline.end.duration_since(deadline.start).as_secs_f64())
            }
            Stop::Count(_) => Windows::default(),
        },
        ..LoopStats::default()
    };
    let base_seq = rig.next_seq;
    // Flush instants of the publishes in flight, by `seq % WINDOW`.
    let mut stamps = [started; WINDOW];
    let mut sent_seen = rig.server.stats().notifications_sent;
    'run: loop {
        let burst = match stop {
            Stop::At(_) => WINDOW,
            Stop::Count(n) => WINDOW.min(n - stats.publishes as usize),
        };
        if burst == 0 {
            break;
        }
        for _ in 0..burst {
            let seq = rig.next_seq;
            rig.next_seq += 1;
            let start = Instant::now();
            let message = layout.publish_message(rig.publisher_id, seq);
            rig.publisher.send(&message).expect("publish");
            let flushed = rig.publisher.flush().expect("flush");
            let end = Instant::now();
            assert!(flushed, "publisher pipe pushed back inside a window of {WINDOW}");
            stamps[seq as usize % WINDOW] = end;
            if detail {
                stats.costs.client_ns += ns(end - start);
                tracer.record("send", seq, None, start, end);
            }
        }
        stats.publishes += burst as u64;

        // Pump until the burst's replies and notifications all arrived.
        let burst_start = Instant::now();
        let first_seq = rig.next_seq - burst as u64;
        let (mut replies, mut promised, mut drained) = (0usize, 0u64, 0u64);
        while replies < burst || drained < promised {
            let before = if detail { Some((Instant::now(), rig.server.stats())) } else { None };
            rig.server.turn(Some(Duration::ZERO)).expect("turn");
            stats.costs.turns += 1;
            let after: NetStats = rig.server.stats();
            if let Some((start, before)) = before {
                let end = Instant::now();
                stats.costs.turn_ns.push(ns(end - start));
                tracer.record("turn", base_seq + stats.publishes, None, start, end);
                if before == after {
                    stats.costs.idle_turns += 1;
                }
            }
            let client_start = Instant::now();
            for msg in rig.publisher.poll_recv().expect("recv") {
                match msg {
                    ServerMessage::Published { matches } => {
                        promised += u64::from(matches);
                        let seq = first_seq + replies as u64;
                        stats.ack_ns.push(ns(client_start - stamps[seq as usize % WINDOW]));
                        replies += 1;
                    }
                    other => {
                        eprintln!("publish answered with {other:?}");
                        stats.failed += 1;
                        replies += 1;
                    }
                }
            }
            // Sweep the subscribers only when the loop wrote notification
            // frames (or is holding some back): idle turns spent waiting
            // for the notification worker then cost one stats read, not
            // 1 024 empty reads.
            if after.notifications_sent != sent_seen || !rig.server.outbound_idle() {
                sent_seen = after.notifications_sent;
                for (k, client) in rig.subscribers.iter_mut().enumerate() {
                    let msgs = client.poll_recv().expect("recv");
                    if msgs.is_empty() {
                        continue;
                    }
                    let now = Instant::now();
                    for msg in msgs {
                        if let ServerMessage::Notification { payload, .. } = msg {
                            match parse_seq(&payload) {
                                Some(seq) if seq >= first_seq && seq < rig.next_seq => {
                                    let latency = ns(now - stamps[seq as usize % WINDOW]);
                                    stats.notify_ns.push(latency);
                                    stats.windows.latency(now, latency);
                                }
                                _ => stats.failed += 1,
                            }
                            drained += 1;
                            if let Some(tap) = payloads.as_mut() {
                                if tap.wanted.contains(&k) {
                                    tap.sink.push((k, payload));
                                }
                            }
                        }
                    }
                }
            }
            if detail {
                let end = Instant::now();
                stats.costs.client_ns += ns(end - client_start);
                tracer.record("poll_recv", base_seq + stats.publishes, None, client_start, end);
            }
            if burst_start.elapsed() > BURST_BUDGET {
                // Lost frames: count the unanswered publishes and the
                // promised-but-missing notifications, then give up.
                stats.failed += (burst - replies) as u64 + (promised - drained);
                break 'run;
            }
        }
        stats.matches += promised;
        stats.notifications += drained;
        let now = Instant::now();
        stats.windows.events(now, burst as u64);
        if let Stop::At(deadline) = stop {
            if deadline.passed(now) {
                break;
            }
        }
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}

/// The two `NetStats` conservation identities plus the loss buckets.
pub fn check_conservation(rig: &Rig, ledger: &mut Ledger) {
    let stats = rig.server.stats();
    let broker = rig.server.broker();
    let delivered = broker.delivery_stats().total_delivered();
    ledger.check(stats.matches_seen == broker.orphaned_matches() + delivered, || {
        format!(
            "matches_seen {} != orphaned {} + delivered {delivered}",
            stats.matches_seen,
            broker.orphaned_matches()
        )
    });
    let terminal =
        stats.notifications_sent + stats.notifications_dropped + stats.notifications_disconnected;
    ledger.check(delivered == terminal, || {
        format!("delivered {delivered} != sent + dropped + disconnected {terminal}")
    });
    let lost = stats.notifications_dropped
        + stats.notifications_disconnected
        + stats.notifications_expired;
    ledger.check(lost == 0, || format!("{lost} notifications dropped/disconnected/expired"));
}

/// Check pass: a fixed count of publishes through the wire, then the same
/// events through an in-process `Broker`; sampled subscribers must have
/// received the same payload multiset from both.
fn check_payloads(rig: &mut Rig, spec: &Spec, layout: &Layout, args: &Args, ledger: &mut Ledger) {
    let mut rng = Rng::new(args.seed ^ 0x9a71_0ad5);
    let sampled: Vec<usize> = (0..CHECK_SUBSCRIBERS).map(|_| rng.index(CONNECTIONS)).collect();
    let first_seq = rig.next_seq;
    let mut wire: Vec<(usize, String)> = Vec::new();
    let count = if args.smoke { 8 } else { CHECK_PUBLISHES };
    let stats = drive(
        rig,
        layout,
        Stop::Count(count),
        &mut Tracer::new(false),
        Some(PayloadTap { wanted: &sampled, sink: &mut wire }),
    );
    ledger.check(stats.failed == 0, || format!("check pass lost {} frames", stats.failed));

    let population = &spec.population;
    let (broker, sink) = capture::capturing_broker(population);
    let clients = capture::populate(&broker, population, &layout.held);
    ledger.check(clients == rig.subscriber_ids, || {
        "in-process reference assigned different client ids than the wire".to_owned()
    });
    let seq_attr = broker.interner().intern("seq");
    let mut promised = 0usize;
    for seq in first_seq..first_seq + count as u64 {
        let pool = &population.pubs[layout.stream[seq as usize % layout.stream.len()]];
        let mut pairs = vec![(seq_attr, Value::Int(seq as i64))];
        pairs.extend(pool.pairs().iter().cloned());
        promised += broker.publish(&Event::from_pairs(pairs));
    }
    ledger.check(capture::wait_for(&sink, promised), || {
        "in-process reference never delivered its matches".to_owned()
    });
    ledger.check(promised as u64 == stats.matches, || {
        format!("check pass: wire promised {} matches, in-process {promised}", stats.matches)
    });
    let mut reference: Vec<(usize, String)> = sink
        .lock()
        .expect("capture sink")
        .iter()
        .filter_map(|(_, delivery)| {
            let k = clients.iter().position(|c| *c == delivery.client)?;
            sampled.contains(&k).then(|| (k, delivery.payload.clone()))
        })
        .collect();
    reference.sort();
    wire.sort();
    ledger.check(reference == wire, || {
        format!(
            "sampled subscribers drained {} payloads over the wire, {} in process",
            wire.len(),
            reference.len()
        )
    });
    broker.shutdown();
}

/// End-to-end run (tracing off).
pub fn run(spec: &Spec, args: &Args, ledger: &mut Ledger) -> EndToEnd {
    let layout = Layout::new(spec, args.seed);
    let (mut rig, setup_s) = timed_setups(
        args.setup_repeats(),
        || setup(spec, &layout),
        |rig: Rig| {
            rig.server.shutdown();
        },
    );
    let warm_matches = rig.server.stats().matches_seen;

    let stats = drive(
        &mut rig,
        &layout,
        Stop::At(Deadline::after(args.seconds)),
        &mut Tracer::new(false),
        None,
    );
    let peak_rss_mb = peak_rss_mib();

    ledger.ops(stats.publishes + stats.notifications);
    for _ in 0..stats.failed {
        ledger.fail("a publish went unanswered or a promised notification never arrived".into());
    }
    ledger.check(stats.matches == stats.notifications, || {
        format!(
            "Published replies promised {} notifications, {} were drained",
            stats.matches, stats.notifications
        )
    });
    check_payloads(&mut rig, spec, &layout, args, ledger);
    check_conservation(&rig, ledger);

    let ack = |p: f64| format!("{:.0} (n={})", stats.ack_ns.percentile(p), stats.ack_ns.len());
    let facts = vec![
        ("matches_total".to_owned(), warm_matches.to_string()),
        ("connections".to_owned(), CONNECTIONS.to_string()),
        ("subscriptions".to_owned(), rig.server.broker().subscription_count().to_string()),
        ("storm_epochs".to_owned(), rig.storm_epochs.to_string()),
        ("publishes".to_owned(), stats.publishes.to_string()),
        (
            "fan_out".to_owned(),
            format!("{:.3}", stats.notifications as f64 / stats.publishes.max(1) as f64),
        ),
        (
            "notifications_per_sec".to_owned(),
            format!("{:.0}", stats.notifications as f64 / stats.wall_s),
        ),
        (
            "turns_per_event".to_owned(),
            format!("{:.3}", stats.costs.turns as f64 / stats.publishes as f64),
        ),
        (
            "whole_run_events_per_sec".to_owned(),
            format!("{:.1}", stats.publishes as f64 / stats.wall_s),
        ),
        ("p50_publish_ack_ns".to_owned(), ack(0.50)),
        ("p99_publish_ack_ns".to_owned(), ack(0.99)),
    ];
    rig.server.shutdown();
    EndToEnd {
        setup_s,
        windows: stats.windows,
        latency_of: "publish frame flushed -> Notification frame drained by the subscriber",
        peak_rss_mb,
        facts,
    }
}
