//! Deterministic fault injection for the broker, scored on delivery
//! invariants.
//!
//! A [`ChaosConfig`] seeds two fault families — dropped client
//! connections and slowed (rate-limited) consumers — on top of the
//! transports' own loss/rate behaviours. [`run_chaos`] drives a
//! subscription/event workload through a faulted [`Broker`] and returns
//! a [`ChaosReport`] whose [`ChaosReport::assert_invariants`] checks the
//! two properties the harness exists to pin:
//!
//! 1. **No silent loss** — every match is delivered or shows up in an
//!    explicit failure counter (lost / rate-dropped / orphaned);
//! 2. **Per-subscriber order** — each client observes its notifications
//!    in publication order (events carry a monotone `seq` attribute that
//!    the checker parses back out of delivered payloads).
//!
//! Everything is deterministic under a fixed seed: the chaos control
//! stream, the per-transport streams, and the single-threaded
//! publish loop (the engine delivers on the publishing thread, so
//! transport RNG draws happen in match order). Same seed ⇒ same faults ⇒
//! same report.

use stopss_types::sync::Arc;

use stopss_ontology::SemanticSource;
use stopss_types::rng::Rng;
use stopss_types::{Event, FxHashMap, SharedInterner, Subscription, Value};

use crate::client::ClientId;
use crate::dispatcher::{Broker, BrokerConfig, TransportFactory};
use crate::eventloop::{BackpressurePolicy, NetBroker, NetBrokerConfig, NetClient};
use crate::session::{SessionClient, SessionClientConfig};
use crate::transport::{
    Delivery, Inbox, SmsSim, SmtpSim, TcpSim, Transport, TransportError, TransportKind, UdpSim,
};
use crate::wire::{ClientMessage, ServerMessage, WireValue};

/// Seeded fault-injection knobs. All probabilities are per-opportunity;
/// zero disables that fault family.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the chaos control stream (which faults fire when).
    pub seed: u64,
    /// Per-publication probability of dropping one connected client.
    pub drop_client: f64,
    /// Per-delivery-attempt probability that a consumer is too slow and
    /// the attempt comes back rate-limited (retried by the engine).
    pub slow_consumer: f64,
    /// UDP loss probability for the simulated datagram transport.
    pub udp_loss: f64,
    /// SMS messages allowed per rate window.
    pub sms_budget: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 2003,
            drop_client: 0.05,
            slow_consumer: 0.1,
            udp_loss: 0.1,
            sms_budget: 16,
        }
    }
}

/// Wraps a transport so each delivery attempt may first come back
/// rate-limited — a consumer too slow to take the message — with seeded
/// probability. The engine's retry loop then ticks the window and tries
/// again, so slowness costs retries, never silent loss.
pub struct FlakyTransport {
    inner: Box<dyn Transport>,
    rng: Rng,
    stall_probability: f64,
}

impl FlakyTransport {
    /// Wraps `inner`; `stall_probability` per attempt, seeded stream.
    pub fn new(inner: Box<dyn Transport>, stall_probability: f64, seed: u64) -> Self {
        FlakyTransport { inner, rng: Rng::new(seed), stall_probability }
    }
}

impl Transport for FlakyTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        if self.rng.chance(self.stall_probability) {
            return Err(TransportError::RateLimited);
        }
        self.inner.deliver(delivery)
    }

    fn tick(&mut self) {
        self.inner.tick();
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// What happened under fault injection, in conservation-law form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Events published.
    pub published: u64,
    /// Matches produced by the matcher.
    pub matches: u64,
    /// Matches whose owner was gone at notification time (dropped
    /// clients); counted by the broker, never silently skipped.
    pub orphaned: u64,
    /// Deliveries that reached an inbox (or batch buffer).
    pub delivered: u64,
    /// Deliveries lost in transit (UDP semantics).
    pub lost: u64,
    /// Deliveries dropped after exhausting rate-limit retries.
    pub rate_dropped: u64,
    /// Retry attempts performed (slow consumers + SMS windows).
    pub retried: u64,
    /// Client connections dropped.
    pub dropped_clients: u64,
    /// Per-subscriber ordering violations (empty = order preserved).
    pub ordering_violations: Vec<String>,
}

impl ChaosReport {
    /// Every match, accounted: delivered plus each explicit failure
    /// bucket. [`ChaosReport::assert_invariants`] pins this to
    /// [`ChaosReport::matches`].
    pub fn accounted(&self) -> u64 {
        self.delivered + self.lost + self.rate_dropped + self.orphaned
    }

    /// Asserts the delivery invariants (panics with the discrepancy
    /// otherwise): no silent match loss, and per-subscriber notification
    /// order preserved.
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.matches,
            self.accounted(),
            "match conservation violated: {} matches vs {} accounted \
             ({} delivered + {} lost + {} rate-dropped + {} orphaned)",
            self.matches,
            self.accounted(),
            self.delivered,
            self.lost,
            self.rate_dropped,
            self.orphaned,
        );
        assert!(
            self.ordering_violations.is_empty(),
            "per-subscriber order violated: {:?}",
            self.ordering_violations,
        );
    }
}

/// Runs `events` through a broker under fault injection.
///
/// One client is registered per subscription, round-robin over
/// [`TransportKind::ALL`]. Events are re-issued with a leading monotone
/// `seq` attribute (first pair, so SMS truncation cannot clip it) that
/// the ordering checker parses back out of delivered payloads.
/// Deterministic in `broker_config.seed` + `chaos.seed`.
pub fn run_chaos(
    broker_config: BrokerConfig,
    chaos: &ChaosConfig,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    subscriptions: &[Subscription],
    events: &[Event],
) -> ChaosReport {
    let broker_config =
        BrokerConfig { udp_loss: chaos.udp_loss, sms_budget: chaos.sms_budget, ..broker_config };
    let broker = chaos_broker(broker_config, chaos, source, interner.clone());

    // One client per subscription, cycling transports so every failure
    // family sees traffic.
    let mut clients = Vec::with_capacity(subscriptions.len());
    for (k, sub) in subscriptions.iter().enumerate() {
        let kind = TransportKind::ALL[k % TransportKind::ALL.len()];
        let client = broker.register_client(format!("chaos-{k}"), kind);
        broker.subscribe(client, sub.predicates().to_vec()).expect("registered client");
        clients.push(client);
    }

    let seq_attr = interner.intern("seq");
    let mut control = Rng::new(chaos.seed);
    let mut connected: Vec<ClientId> = clients.clone();
    let mut report = ChaosReport::default();

    for (k, event) in events.iter().enumerate() {
        if !connected.is_empty() && control.chance(chaos.drop_client) {
            let victim = connected.swap_remove(control.index(connected.len()));
            if broker.unregister_client(victim) {
                report.dropped_clients += 1;
            }
        }
        // `seq` leads the event so no downstream truncation can clip it.
        let mut stamped = Event::with_capacity(event.len() + 1);
        stamped.push(seq_attr, Value::Int(k as i64));
        for (attr, value) in event.pairs() {
            stamped.push(*attr, *value);
        }
        report.matches += broker.publish(&stamped) as u64;
        report.published += 1;
    }

    report.orphaned = broker.orphaned_matches();
    let inboxes: Vec<(TransportKind, Inbox)> = TransportKind::ALL
        .iter()
        .filter_map(|kind| broker.inbox(*kind).map(|inbox| (*kind, inbox)))
        .collect();
    let stats = broker.shutdown();
    report.delivered = stats.total_delivered();
    report.lost = stats.per_transport.iter().map(|(_, s)| s.lost).sum();
    report.rate_dropped = stats.per_transport.iter().map(|(_, s)| s.rate_dropped).sum();
    report.retried = stats.per_transport.iter().map(|(_, s)| s.retried).sum();
    for (kind, inbox) in inboxes {
        check_ordering(kind, &inbox, &mut report.ordering_violations);
    }
    report
}

/// Builds a broker whose every transport is wrapped in a seeded
/// [`FlakyTransport`] (slow-consumer stalls) over inboxes the report
/// reads back.
fn chaos_broker(
    config: BrokerConfig,
    chaos: &ChaosConfig,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
) -> Broker {
    let mut inboxes: FxHashMap<TransportKind, Inbox> = FxHashMap::default();
    for kind in TransportKind::ALL {
        inboxes.insert(kind, Inbox::default());
    }
    let factory_inboxes = inboxes.clone();
    let chaos = *chaos;
    let factory: TransportFactory = Box::new(move |_| {
        let bare: Vec<Box<dyn Transport>> = vec![
            Box::new(TcpSim::with_inbox(factory_inboxes[&TransportKind::Tcp].clone())),
            Box::new(UdpSim::with_inbox(
                config.udp_loss,
                config.seed,
                factory_inboxes[&TransportKind::Udp].clone(),
            )),
            Box::new(SmtpSim::with_inbox(factory_inboxes[&TransportKind::Smtp].clone())),
            Box::new(SmsSim::with_inbox(
                config.sms_budget,
                factory_inboxes[&TransportKind::Sms].clone(),
            )),
        ];
        bare.into_iter()
            .enumerate()
            .map(|(k, t)| {
                let seed = chaos.seed ^ k as u64;
                Box::new(FlakyTransport::new(t, chaos.slow_consumer, seed)) as Box<dyn Transport>
            })
            .collect()
    });
    Broker::with_transport_factory(config, source, interner, inboxes, factory)
}

// ---------------------------------------------------------------------------
// Networked chaos
// ---------------------------------------------------------------------------

/// Knobs of the networked fault mode: seeded **mid-frame disconnects**
/// against the event-loop serving path ([`NetBroker`]).
#[derive(Clone, Copy, Debug)]
pub struct NetChaosConfig {
    /// Seed for the chaos control stream (which subscriber dies when).
    pub seed: u64,
    /// Per-publication probability that one connected subscriber writes a
    /// deliberately incomplete frame and disconnects.
    pub mid_frame_disconnect: f64,
    /// Backpressure policy of the event loop under test.
    pub backpressure: BackpressurePolicy,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 2003,
            mid_frame_disconnect: 0.15,
            backpressure: BackpressurePolicy::Disconnect,
        }
    }
}

/// What happened under networked fault injection, in conservation-law
/// form. All counters are deterministic per seed: the served broker runs
/// on one thread and every publication is fenced by
/// [`NetBroker::run_until_quiescent`], so each delivery lands in the same
/// bucket on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetChaosReport {
    /// Events published.
    pub published: u64,
    /// Matches reported by `Published` replies.
    pub matches: u64,
    /// Matches whose owner was gone at notification time. Zero in this
    /// single-threaded harness: when the event loop observes a
    /// disconnect it retires the connection's session, unsubscribing its
    /// clients' subscriptions before unregistering them, so a dead
    /// subscriber stops matching instead of orphaning.
    pub orphaned: u64,
    /// Deliveries the engine handed to the
    /// [`NetTransport`](crate::eventloop::NetTransport)s.
    pub delivered: u64,
    /// Notification frames fully written to a live connection.
    pub sent: u64,
    /// Notifications dropped by [`BackpressurePolicy::DropNewest`].
    pub dropped: u64,
    /// Notifications accounted against dead connections.
    pub disconnected: u64,
    /// Mid-frame disconnects injected.
    pub mid_frame_disconnects: u64,
    /// Partial frames the server observed at connection teardown — must
    /// equal the injected count: a truncated frame is *detected*, never
    /// silently absorbed.
    pub truncated_frames: u64,
    /// Whether the loop reached quiescence inside the turn budget.
    pub quiescent: bool,
    /// Per-subscriber ordering violations among received notifications.
    pub ordering_violations: Vec<String>,
}

impl NetChaosReport {
    /// Asserts the networked no-silent-loss invariants (panics with the
    /// discrepancy otherwise): every match is delivered-or-orphaned,
    /// every delivery terminates in exactly one accounted bucket, every
    /// injected truncation is detected, and per-subscriber notification
    /// order is preserved.
    pub fn assert_invariants(&self) {
        assert!(self.quiescent, "event loop failed to quiesce");
        assert_eq!(
            self.matches,
            self.delivered + self.orphaned,
            "match conservation violated: {} matches vs {} delivered + {} orphaned",
            self.matches,
            self.delivered,
            self.orphaned,
        );
        assert_eq!(
            self.delivered,
            self.sent + self.dropped + self.disconnected,
            "delivery conservation violated: {} delivered vs {} sent + {} dropped + {} disconnected",
            self.delivered,
            self.sent,
            self.dropped,
            self.disconnected,
        );
        assert_eq!(
            self.truncated_frames, self.mid_frame_disconnects,
            "every injected mid-frame disconnect must be detected as a truncated frame",
        );
        assert!(
            self.ordering_violations.is_empty(),
            "per-subscriber order violated: {:?}",
            self.ordering_violations,
        );
    }
}

/// Runs `events` through a [`NetBroker`] with one framed connection per
/// subscription, injecting seeded mid-frame disconnects between
/// publications.
///
/// Each faulted subscriber writes the first half of a valid `Subscribe`
/// frame and closes — the wire-level fault the in-process harness cannot
/// express. Events carry the same leading `(seq, N)` stamp as
/// [`run_chaos`] so per-subscriber order is checked on what actually
/// arrived over the wire. Every publication is fenced by
/// [`NetBroker::run_until_quiescent`], making the full report
/// deterministic in `net.seed`.
pub fn run_net_chaos(
    config: NetBrokerConfig,
    net: &NetChaosConfig,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    subscriptions: &[Subscription],
    events: &[Event],
) -> NetChaosReport {
    let config = NetBrokerConfig { backpressure: net.backpressure, ..config };
    let mut server = NetBroker::new(config, source, interner.clone())
        .expect("in-memory event loop cannot fail to build");
    let connector = server.connector();
    let turn_budget = 2_000 + 10 * (subscriptions.len() + events.len());

    // One connection + client per subscription, cycling transport kinds;
    // the declared kind only labels the client — delivery always rides
    // the connection.
    let mut conns: Vec<Option<(NetClient, ClientId)>> = Vec::with_capacity(subscriptions.len());
    for (k, sub) in subscriptions.iter().enumerate() {
        let mut client = NetClient::connect(&connector).expect("listener is alive");
        let kind = TransportKind::ALL[k % TransportKind::ALL.len()];
        client
            .send(&ClientMessage::Register { name: format!("net-chaos-{k}"), transport: kind })
            .expect("fresh pipe accepts a frame");
        let id = loop {
            server.turn(Some(std::time::Duration::from_millis(1))).expect("turn");
            match client.poll_recv().expect("well-formed replies").pop() {
                Some(ServerMessage::Registered { client }) => break client,
                Some(other) => panic!("unexpected reply: {other:?}"),
                None => {}
            }
        };
        let predicates = interner.with(|i| crate::server::subscription_to_wire(sub, i));
        client
            .send(&ClientMessage::Subscribe { client: id, predicates })
            .expect("fresh pipe accepts a frame");
        conns.push(Some((client, id)));
    }
    let mut publisher = NetClient::connect(&connector).expect("listener is alive");
    publisher
        .send(&ClientMessage::Register {
            name: "net-chaos-pub".into(),
            transport: TransportKind::Tcp,
        })
        .expect("fresh pipe accepts a frame");
    let publisher_id = loop {
        server.turn(Some(std::time::Duration::from_millis(1))).expect("turn");
        match publisher.poll_recv().expect("well-formed replies").pop() {
            Some(ServerMessage::Registered { client }) => break client,
            Some(other) => panic!("unexpected reply: {other:?}"),
            None => {}
        }
    };
    assert!(server.run_until_quiescent(turn_budget).expect("turn"), "setup must quiesce");

    let mut control = Rng::new(net.seed);
    let mut report = NetChaosReport::default();
    let mut last_seq: FxHashMap<usize, i64> = FxHashMap::default();

    for (k, event) in events.iter().enumerate() {
        // Maybe kill one connected subscriber mid-frame: half a valid
        // Subscribe frame, then a hard close.
        let live: Vec<usize> = (0..conns.len()).filter(|idx| conns[*idx].is_some()).collect();
        if !live.is_empty() && control.chance(net.mid_frame_disconnect) {
            let victim = live[control.index(live.len())];
            let (mut client, id) = conns[victim].take().expect("picked from live set");
            let mut payload = bytes::BytesMut::new();
            crate::wire::encode_client(
                &ClientMessage::Subscribe {
                    client: id,
                    predicates: interner
                        .with(|i| crate::server::subscription_to_wire(&subscriptions[victim], i)),
                },
                &mut payload,
            );
            let mut framed = bytes::BytesMut::new();
            crate::wire::write_frame(&mut framed, &payload);
            client.send_raw(&framed[..framed.len() / 2]).expect("pipe has space");
            client.close();
            report.mid_frame_disconnects += 1;
            // Let the loop observe the disconnect before publishing, so
            // the victim's subscription is retired deterministically.
            assert!(server.run_until_quiescent(turn_budget).expect("turn"), "disconnect fence");
        }

        let pairs: Vec<(String, WireValue)> =
            std::iter::once(("seq".to_string(), WireValue::Int(k as i64)))
                .chain(event.pairs().iter().map(|(attr, value)| {
                    (interner.resolve(*attr), interner.with(|i| WireValue::from_value(value, i)))
                }))
                .collect();
        publisher
            .send(&ClientMessage::Publish { client: publisher_id, pairs })
            .expect("publisher pipe has space");
        report.published += 1;
        assert!(server.run_until_quiescent(turn_budget).expect("turn"), "publish fence");

        // Drain every live subscriber so pipes never fill and order is
        // checked on the wire-delivered frames.
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some((client, _)) = slot else { continue };
            for msg in client.poll_recv().expect("well-formed frames") {
                match msg {
                    ServerMessage::Notification { payload, .. } => {
                        let Some(seq) = parse_seq(&payload) else { continue };
                        let last = last_seq.entry(idx).or_insert(i64::MIN);
                        if seq < *last {
                            report
                                .ordering_violations
                                .push(format!("conn {idx} saw seq {seq} after {last}"));
                        }
                        *last = seq;
                    }
                    ServerMessage::Subscribed { .. } => {}
                    other => panic!("unexpected push to a subscriber: {other:?}"),
                }
            }
        }
        for msg in publisher.poll_recv().expect("well-formed frames") {
            if let ServerMessage::Published { matches } = msg {
                report.matches += u64::from(matches);
            }
        }
    }

    report.quiescent = server.run_until_quiescent(turn_budget).expect("turn");
    report.orphaned = server.broker().orphaned_matches();
    let net_stats = server.stats();
    report.sent = net_stats.notifications_sent;
    report.dropped = net_stats.notifications_dropped;
    report.disconnected = net_stats.notifications_disconnected;
    report.truncated_frames = net_stats.truncated_frames;
    let (_, delivery) = server.shutdown();
    report.delivered = delivery.total_delivered();
    report
}

// ---------------------------------------------------------------------------
// Session chaos: kills, partitions, restarts, churn — scored on the
// extended conservation identity and per-session seq contiguity.
// ---------------------------------------------------------------------------

/// Knobs of the session-resilience fault mode: seeded connection kills,
/// network partitions, broker front-end restarts, subscription churn and
/// live ontology edits, all against sessioned clients that reconnect and
/// resume (see [`crate::session`]).
#[derive(Clone, Copy, Debug)]
pub struct SessionChaosConfig {
    /// Seed for the chaos control stream (which faults fire when).
    pub seed: u64,
    /// Per-publication probability of hard-killing one established
    /// subscriber connection (the client notices and resumes).
    pub kill: f64,
    /// Per-publication probability of partitioning one established
    /// subscriber's link.
    pub partition: f64,
    /// Logical ticks a partition lasts before the harness heals it.
    pub partition_ticks: u64,
    /// Bounce the whole serving front end (every connection killed at
    /// once) before every `restart_every`-th publication (0 = never).
    /// Sessions survive in memory; clients reconnect-with-resume.
    pub restart_every: usize,
    /// Per-publication probability that one subscriber unsubscribes and
    /// immediately resubscribes over the wire (control-plane churn).
    pub churn: f64,
    /// Publisher sends a live `SetOntology` delta before every
    /// `ontology_edit_every`-th publication (0 = never); the edits
    /// themselves are the `ontology_edits` argument of
    /// [`run_session_chaos`], applied cyclically.
    pub ontology_edit_every: usize,
    /// Logical clock ticks advanced per publication (drives heartbeat
    /// and TTL policies; fences never advance the clock, so expiry
    /// scheduling is deterministic).
    pub ticks_per_event: u64,
    /// Backpressure policy at the replay-buffer bound.
    pub backpressure: BackpressurePolicy,
    /// Session-layer knobs of the broker under test.
    pub session: crate::session::SessionConfig,
}

impl Default for SessionChaosConfig {
    fn default() -> Self {
        SessionChaosConfig {
            seed: 2003,
            kill: 0.15,
            partition: 0.1,
            partition_ticks: 8,
            restart_every: 16,
            churn: 0.0,
            ontology_edit_every: 0,
            ticks_per_event: 1,
            backpressure: BackpressurePolicy::DropNewest,
            session: crate::session::SessionConfig::default(),
        }
    }
}

/// What happened under session-layer fault injection, in
/// conservation-law form. Deterministic per seed: every fault is
/// injected at a fenced point (deliveries drained, outbound queues
/// idle, every reachable client caught up), so no fault can land between
/// a notification and its terminal bucket, and the whole report —
/// payloads included — is bit-identical across runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionChaosReport {
    /// Events published.
    pub published: u64,
    /// Matches reported by `Published` replies.
    pub matches: u64,
    /// Matches whose owner was gone at notification time.
    pub orphaned: u64,
    /// Deliveries the engine handed to the event loop.
    pub delivered: u64,
    /// Terminal: acknowledged without retransmission.
    pub acked: u64,
    /// Terminal: acknowledged after a resume retransmission.
    pub replayed: u64,
    /// Terminal: dropped at the replay bound (`DropNewest`, pre-seq).
    pub dropped: u64,
    /// Terminal: retained by a session that expired.
    pub expired: u64,
    /// Terminal: accounted against dead session-less connections (late
    /// deliveries racing an expiry; zero under fenced injection).
    pub disconnected: u64,
    /// Retained unacknowledged at scoring time (zero once all clients
    /// caught up).
    pub in_flight: u64,
    /// First-transmission notification frames written (telemetry).
    pub sent: u64,
    /// Retransmitted frames written on resumes (telemetry: what
    /// recovery cost on the wire).
    pub replay_frames_sent: u64,
    /// Sessions opened fresh.
    pub sessions_created: u64,
    /// Successful resumes.
    pub sessions_resumed: u64,
    /// Sessions expired (TTL or replay-bound termination).
    pub sessions_expired: u64,
    /// Connections closed for heartbeat silence.
    pub heartbeat_timeouts: u64,
    /// Connection kills injected.
    pub kills: u64,
    /// Partitions injected.
    pub partitions: u64,
    /// Front-end restarts injected.
    pub restarts: u64,
    /// Unsubscribe/resubscribe churn cycles completed.
    pub churned: u64,
    /// Live ontology deltas acknowledged (`OntologyUpdated` replies).
    pub ontology_edits: u64,
    /// Whether the loop reached quiescence at the end.
    pub quiescent: bool,
    /// Per-subscriber seq-contiguity violations (empty = every session
    /// incarnation delivered exactly 1, 2, 3, … with no gap or reorder,
    /// across however many resumes it took).
    pub contiguity_violations: Vec<String>,
    /// Per-subscriber payloads, in arrival order after duplicate
    /// suppression — the differential tier compares these against a
    /// fault-free in-process run.
    pub payloads: Vec<Vec<String>>,
}

impl SessionChaosReport {
    /// Asserts the session-layer no-silent-loss invariants (panics with
    /// the discrepancy otherwise): every match delivered-or-orphaned,
    /// every delivery in exactly one terminal-or-in-flight bucket, and
    /// per-session seq contiguity across resumes.
    pub fn assert_invariants(&self) {
        assert!(self.quiescent, "event loop failed to quiesce");
        assert_eq!(
            self.matches,
            self.delivered + self.orphaned,
            "match conservation violated: {} matches vs {} delivered + {} orphaned",
            self.matches,
            self.delivered,
            self.orphaned,
        );
        assert_eq!(
            self.delivered,
            self.acked
                + self.replayed
                + self.dropped
                + self.expired
                + self.in_flight
                + self.disconnected,
            "session conservation violated: {} delivered vs {} acked + {} replayed + {} dropped \
             + {} expired + {} in-flight + {} disconnected",
            self.delivered,
            self.acked,
            self.replayed,
            self.dropped,
            self.expired,
            self.in_flight,
            self.disconnected,
        );
        assert!(
            self.contiguity_violations.is_empty(),
            "per-session seq contiguity violated: {:?}",
            self.contiguity_violations,
        );
    }
}

/// One sessioned subscriber under the harness: the resilient client plus
/// the application-level state the session layer deliberately does not
/// manage (identity, subscription, expected next seq).
struct SubSlot {
    client: SessionClient,
    id: Option<ClientId>,
    sub: Option<stopss_types::SubId>,
    awaiting_register: bool,
    awaiting_subscribe: bool,
    /// Next seq this subscriber's current session incarnation must
    /// deliver (contiguity check).
    expect_seq: u64,
    /// Broker-clock tick at which the harness heals this link (None =
    /// not partitioned).
    heal_at: Option<u64>,
}

impl SubSlot {
    fn ready(&self) -> bool {
        self.client.established()
            && self.id.is_some()
            && self.sub.is_some()
            && !self.awaiting_subscribe
    }
}

/// Runs `events` through a [`NetBroker`] whose subscribers are
/// [`SessionClient`]s, injecting seeded connection kills, partitions,
/// front-end restarts, subscription churn and live ontology edits —
/// each at a fenced point so the returned [`SessionChaosReport`] is
/// bit-identical per seed.
///
/// Events carry the same leading `(seq, N)` stamp as [`run_chaos`];
/// `ontology_edits` are `(canonical, alias)` synonym pairs applied
/// cyclically over the wire when [`SessionChaosConfig::ontology_edit_every`]
/// fires. Faults target subscribers only; the publisher is itself
/// sessioned so it survives front-end restarts by resuming.
pub fn run_session_chaos(
    config: NetBrokerConfig,
    chaos: &SessionChaosConfig,
    source: Arc<dyn SemanticSource>,
    interner: SharedInterner,
    subscriptions: &[Subscription],
    events: &[Event],
    ontology_edits: &[(String, String)],
) -> SessionChaosReport {
    let config =
        NetBrokerConfig { backpressure: chaos.backpressure, session: chaos.session, ..config };
    let mut server = NetBroker::new(config, source, interner.clone())
        .expect("in-memory event loop cannot fail to build");
    let connector = server.connector();
    let ping_every = u64::from(chaos.session.heartbeat_timeout > 0);
    let client_config = |seed: u64| SessionClientConfig {
        seed,
        backoff_base: 1,
        backoff_cap: 4,
        jitter: 0.5,
        ping_every,
    };

    let mut subs: Vec<SubSlot> = (0..subscriptions.len())
        .map(|k| SubSlot {
            client: SessionClient::new(
                connector.clone(),
                client_config(chaos.seed ^ (k as u64 + 1)),
            ),
            id: None,
            sub: None,
            awaiting_register: false,
            awaiting_subscribe: false,
            expect_seq: 1,
            heal_at: None,
        })
        .collect();
    let mut publisher = SessionClient::new(connector, client_config(chaos.seed ^ 0x5e55));
    let mut publisher_id: Option<ClientId> = None;
    let mut publisher_registering = false;

    let mut report = SessionChaosReport {
        payloads: vec![Vec::new(); subscriptions.len()],
        ..Default::default()
    };
    let mut control = Rng::new(chaos.seed);
    let fence_budget = 400 + 4 * (subscriptions.len() + events.len());

    // One pump round: broker turns, then every client ticks (processing
    // what surfaced), then broker turns again so requests sent during the
    // ticks are served promptly. The broker *clock* never moves here.
    macro_rules! pump {
        () => {{
            server.run_turns(2).expect("turn");
            for k in 0..subs.len() {
                let msgs = subs[k].client.tick().expect("well-formed frames");
                for msg in msgs {
                    match msg {
                        ServerMessage::Welcome { resumed, .. } => {
                            subs[k].awaiting_register = false;
                            subs[k].awaiting_subscribe = false;
                            if !resumed {
                                // Fresh session: any previous identity and
                                // subscription died with the old one.
                                subs[k].id = None;
                                subs[k].sub = None;
                                subs[k].expect_seq = 1;
                            }
                        }
                        ServerMessage::Registered { client } => {
                            subs[k].id = Some(client);
                            subs[k].awaiting_register = false;
                        }
                        ServerMessage::Subscribed { sub } => {
                            subs[k].sub = Some(sub);
                            subs[k].awaiting_subscribe = false;
                        }
                        ServerMessage::Unsubscribed { .. } | ServerMessage::Pong { .. } => {}
                        ServerMessage::Notification { seq, payload } => {
                            if seq != subs[k].expect_seq {
                                report.contiguity_violations.push(format!(
                                    "subscriber {k} saw seq {seq}, expected {}",
                                    subs[k].expect_seq,
                                ));
                            }
                            subs[k].expect_seq = seq + 1;
                            report.payloads[k].push(payload);
                        }
                        other => panic!("unexpected push to subscriber {k}: {other:?}"),
                    }
                }
                // (Re)build application state top-down once established.
                if subs[k].client.established() {
                    if subs[k].id.is_none() && !subs[k].awaiting_register {
                        let register = ClientMessage::Register {
                            name: format!("session-chaos-{k}"),
                            transport: TransportKind::Tcp,
                        };
                        if subs[k].client.request(&register).expect("send") {
                            subs[k].awaiting_register = true;
                        }
                    } else if subs[k].id.is_some()
                        && subs[k].sub.is_none()
                        && !subs[k].awaiting_subscribe
                    {
                        let subscribe = ClientMessage::Subscribe {
                            client: subs[k].id.expect("checked"),
                            predicates: interner.with(|i| {
                                crate::server::subscription_to_wire(&subscriptions[k], i)
                            }),
                        };
                        if subs[k].client.request(&subscribe).expect("send") {
                            subs[k].awaiting_subscribe = true;
                        }
                    }
                }
            }
            for msg in publisher.tick().expect("well-formed frames") {
                match msg {
                    ServerMessage::Welcome { resumed, .. } => {
                        publisher_registering = false;
                        if !resumed {
                            publisher_id = None;
                        }
                    }
                    ServerMessage::Registered { client } => {
                        publisher_id = Some(client);
                        publisher_registering = false;
                    }
                    ServerMessage::Published { matches } => {
                        report.matches += u64::from(matches);
                    }
                    ServerMessage::OntologyUpdated { .. } => report.ontology_edits += 1,
                    ServerMessage::Pong { .. } => {}
                    other => panic!("unexpected push to the publisher: {other:?}"),
                }
            }
            if publisher.established() && publisher_id.is_none() && !publisher_registering {
                let register = ClientMessage::Register {
                    name: "session-chaos-pub".into(),
                    transport: TransportKind::Tcp,
                };
                if publisher.request(&register).expect("send") {
                    publisher_registering = true;
                }
            }
            server.run_turns(1).expect("turn");
        }};
    }

    // Fence: pump until every reachable client is fully caught up —
    // deliveries drained, outbound queues idle, publisher and every
    // non-partitioned subscriber established/subscribed with an empty
    // replay buffer. Partitioned subscribers are exempt by design: their
    // frames accumulate until the heal. The broker clock is frozen, so
    // however many rounds this takes, the post-fence state is the same.
    macro_rules! fence {
        ($what:expr) => {{
            let mut settled = 0;
            for _ in 0..fence_budget {
                pump!();
                let caught_up = server.deliveries_drained()
                    && server.outbound_idle()
                    && publisher.established()
                    && publisher_id.is_some()
                    && subs.iter().all(|s| {
                        s.heal_at.is_some()
                            || (s.ready() && server.session_retained(s.client.session()) == Some(0))
                    });
                settled = if caught_up { settled + 1 } else { 0 };
                if settled >= 2 {
                    break;
                }
            }
            assert!(settled >= 2, "fence failed to settle: {}", $what);
        }};
    }

    fence!("setup");
    let seq_attr = interner.intern("seq");

    for (k, event) in events.iter().enumerate() {
        // Advance logical time and heal partitions that are due — the
        // only two places the session clock interacts with the run.
        server.advance_clock(chaos.ticks_per_event);
        let now = server.clock();
        for slot in subs.iter_mut() {
            if slot.heal_at.is_some_and(|at| now >= at) {
                slot.client.set_partitioned(false);
                slot.heal_at = None;
            }
        }

        // Front-end restart: everything dies at once, then a full fence
        // lets every client resume before the next publication — so the
        // restart exercises reconnect-with-resume at scale without
        // leaving nondeterministic half-resumed states behind.
        if chaos.restart_every > 0 && k > 0 && k % chaos.restart_every == 0 {
            server.kill_all_connections();
            report.restarts += 1;
            fence!("restart recovery");
        }

        // Targeted faults. Victims stay unreachable through the publish
        // below (the delivery drain runs broker-only turns, so a killed
        // client cannot resume early): their notifications are retained
        // while detached and replayed on the resume inside the fence.
        let targets: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ready() && s.heal_at.is_none())
            .map(|(idx, _)| idx)
            .collect();
        if !targets.is_empty() && control.chance(chaos.kill) {
            let victim = targets[control.index(targets.len())];
            subs[victim].client.kill_connection();
            report.kills += 1;
        }
        let targets: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ready() && s.heal_at.is_none())
            .map(|(idx, _)| idx)
            .collect();
        if !targets.is_empty() && control.chance(chaos.partition) {
            let victim = targets[control.index(targets.len())];
            subs[victim].client.set_partitioned(true);
            subs[victim].heal_at = Some(now + chaos.partition_ticks);
            report.partitions += 1;
        }
        if !targets.is_empty() && control.chance(chaos.churn) {
            let victim = targets[control.index(targets.len())];
            if subs[victim].heal_at.is_none() && subs[victim].ready() {
                // The Unsubscribe is served before this iteration's
                // publish (lower token, same turn); the resubscribe goes
                // out on the next client tick, after it — so a churned
                // subscriber deterministically misses this event.
                let unsubscribe = ClientMessage::Unsubscribe {
                    client: subs[victim].id.expect("ready"),
                    sub: subs[victim].sub.expect("ready"),
                };
                if subs[victim].client.request(&unsubscribe).expect("send") {
                    subs[victim].sub = None;
                    report.churned += 1;
                }
            }
        }
        if chaos.ontology_edit_every > 0
            && !ontology_edits.is_empty()
            && k > 0
            && k % chaos.ontology_edit_every == 0
        {
            let edit = &ontology_edits[(k / chaos.ontology_edit_every - 1) % ontology_edits.len()];
            let delta = ClientMessage::SetOntology { synonyms: vec![edit.clone()] };
            assert!(publisher.request(&delta).expect("send"), "publisher is fenced established");
            // Served strictly before the publish below: per-connection
            // frame order is arrival order.
        }

        let mut pairs: Vec<(String, WireValue)> =
            vec![(interner.resolve(seq_attr), WireValue::Int(k as i64))];
        pairs.extend(event.pairs().iter().map(|(attr, value)| {
            (interner.resolve(*attr), interner.with(|i| WireValue::from_value(value, i)))
        }));
        // The publisher survived every fault so far (or resumed during
        // the restart fence); fenced state guarantees it is established.
        assert!(
            publisher
                .request(&ClientMessage::Publish { client: publisher_id.expect("fenced"), pairs })
                .expect("send"),
            "publisher must be established at a fenced point",
        );
        report.published += 1;

        // Route this event's deliveries with broker-only turns: no
        // client ticks, so no client can reconnect, acknowledge or read
        // until every delivery sits in a terminal counter or a replay
        // buffer. This is what pins bucket assignment (acked vs replayed
        // vs retained) regardless of how clients are scheduled.
        server.run_turns(1).expect("turn");
        let mut drained = false;
        for _ in 0..fence_budget {
            if server.deliveries_drained() {
                drained = true;
                break;
            }
            server.run_turns(1).expect("turn");
        }
        assert!(drained, "delivery drain failed to settle at event {k}");
        fence!(format!("event {k}"));
    }

    // Heal every outstanding partition and let the system fully recover.
    for slot in subs.iter_mut() {
        if slot.heal_at.take().is_some() {
            slot.client.set_partitioned(false);
        }
    }
    fence!("final recovery");

    report.quiescent = server.run_until_quiescent(fence_budget).expect("turn");
    report.in_flight = server.session_in_flight();
    report.orphaned = server.broker().orphaned_matches();
    let net_stats = server.stats();
    report.acked = net_stats.notifications_acked;
    report.replayed = net_stats.notifications_replayed;
    report.dropped = net_stats.notifications_dropped;
    report.expired = net_stats.notifications_expired;
    report.disconnected = net_stats.notifications_disconnected;
    report.sent = net_stats.notifications_sent;
    report.replay_frames_sent = net_stats.replay_frames_sent;
    report.sessions_created = net_stats.sessions_created;
    report.sessions_resumed = net_stats.sessions_resumed;
    report.sessions_expired = net_stats.sessions_expired;
    report.heartbeat_timeouts = net_stats.heartbeat_timeouts;
    let (_, delivery) = server.shutdown();
    report.delivered = delivery.total_delivered();
    report
}

/// Checks that each client saw its notifications in nondecreasing `seq`
/// order (one event matching several of a client's subscriptions yields
/// equal seqs). SMTP batches several payload lines into one message, so
/// payloads are split per line before parsing.
fn check_ordering(kind: TransportKind, inbox: &Inbox, violations: &mut Vec<String>) {
    let mut last_seq: FxHashMap<ClientId, i64> = FxHashMap::default();
    for message in inbox.lock().iter() {
        for line in message.payload.lines() {
            let Some(seq) = parse_seq(line) else { continue };
            let last = last_seq.entry(message.client).or_insert(i64::MIN);
            if seq < *last {
                violations.push(format!(
                    "{}: {} saw seq {seq} after {last}",
                    kind.name(),
                    message.client,
                ));
            }
            *last = seq;
        }
    }
}

/// Extracts the monotone sequence number from a rendered payload, which
/// contains `(seq, N)` from the event's leading pair.
fn parse_seq(payload: &str) -> Option<i64> {
    let tail = payload.split("(seq, ").nth(1)?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '-').collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_transport_stalls_then_delegates() {
        let (tcp, inbox) = TcpSim::new();
        // Probability 1: every attempt stalls until the engine ticks — but
        // FlakyTransport itself keeps stalling, so nothing arrives.
        let mut always = FlakyTransport::new(Box::new(tcp), 1.0, 7);
        let d = Delivery { client: ClientId(1), payload: "x".into() };
        assert_eq!(always.deliver(&d), Err(TransportError::RateLimited));
        assert!(inbox.lock().is_empty());

        let (tcp2, inbox2) = TcpSim::new();
        let mut never = FlakyTransport::new(Box::new(tcp2), 0.0, 7);
        assert_eq!(never.deliver(&d), Ok(()));
        assert_eq!(inbox2.lock().len(), 1);
        assert_eq!(never.kind(), TransportKind::Tcp);
    }

    #[test]
    fn parse_seq_reads_the_leading_pair() {
        assert_eq!(
            parse_seq("to a [client#1]: sub#2 matched via x — event (seq, 41), (b, c)"),
            Some(41)
        );
        assert_eq!(parse_seq("no sequence here"), None);
    }

    #[test]
    fn ordering_checker_flags_regressions() {
        let inbox = Inbox::default();
        let msg = |seq: i64| crate::transport::ReceivedMessage {
            client: ClientId(1),
            payload: format!("event (seq, {seq}), (a, b)"),
        };
        inbox.lock().extend([msg(1), msg(1), msg(3)]);
        let mut violations = Vec::new();
        check_ordering(TransportKind::Tcp, &inbox, &mut violations);
        assert!(violations.is_empty(), "nondecreasing is fine: {violations:?}");
        inbox.lock().push(msg(2));
        check_ordering(TransportKind::Tcp, &inbox, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("seq 2 after 3"), "{violations:?}");
    }
}
