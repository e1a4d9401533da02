//! The networked serving path: one event loop multiplexing many framed
//! client connections onto the broker core.
//!
//! [`NetBroker`] owns a `mio-lite` [`Poll`] and two kinds of sources: the
//! accept listener (token 0) and one [`SimStream`] per client connection
//! (tokens 1+). Each call to [`NetBroker::turn`] runs one readiness cycle:
//!
//! 1. **Accept** every pending connection.
//! 2. **Read** each readable connection to `WouldBlock`, splitting the
//!    byte stream into frames ([`try_read_frame`]) and decoding
//!    [`ClientMessage`]s.
//! 3. **Serve** the whole turn's messages through
//!    [`DemoServer::handle_batch`] — consecutive `Subscribe` frames (from
//!    any mix of connections) coalesce into one
//!    [`Broker::subscribe_batch`] control mutation, so a connection storm
//!    of N subscriptions runs one matcher mutation, not N. Each `Publish`
//!    delivers its notifications on this thread, before `handle_batch`
//!    returns: the broker's notification engine hands them to the
//!    [`NetTransport`]s, which push them onto a shared delivery queue.
//! 4. **Route** replies back to their connections, and drain the shared
//!    delivery queue, turning each delivery into a
//!    [`ServerMessage::Notification`] frame on its subscriber's
//!    connection. A publication's notifications are queued in the same
//!    turn that served it.
//! 5. **Flush** outbound queues until each connection's pipe pushes back.
//!
//! # Backpressure
//!
//! Every connection has a bounded outbound frame queue
//! ([`NetBrokerConfig::max_outbound_frames`]) on top of the bounded byte
//! pipe. Replies always enqueue (they are request-bounded); notification
//! frames beyond the bound hit the configured [`BackpressurePolicy`]:
//! either the slow consumer is **disconnected** (its queued notifications
//! are counted and its session retired: subscriptions unsubscribed,
//! clients unregistered, so nothing it left behind keeps matching) or the
//! newest notification is **dropped with accounting**. Nothing is ever
//! silently lost: every delivery the engine hands to a [`NetTransport`]
//! ends in exactly one of [`NetStats::notifications_sent`],
//! [`NetStats::notifications_dropped`] or
//! [`NetStats::notifications_disconnected`], which is the conservation
//! identity the networked test- and chaos-suites score (see
//! `tests/netbroker_end_to_end.rs` and `docs/ARCHITECTURE.md`).
//!
//! # Sessions
//!
//! Every connection is accepted with a session (see [`crate::session`])
//! that owns the clients registered over it and, through them, their
//! subscriptions; every delivery is routed through its client's session.
//! A connection that never sends [`ClientMessage::Hello`] keeps a
//! non-retaining session: its notifications carry `seq == 0`, and
//! closing the connection retires the session at once.
//! A connection whose *first* frame is `Hello` gets a *retaining*
//! session instead: the broker answers [`ServerMessage::Welcome`] and
//! from then on the connection's clients, subscriptions and
//! unacknowledged notifications survive the connection. Its
//! notifications carry a per-session monotone `seq` and are retained in
//! a bounded replay buffer until the client acknowledges them
//! ([`ClientMessage::Ack`]); a reconnecting client quotes its token and
//! last seen `seq` in `Hello` and receives exactly the retained frames
//! above that mark, in order. Only a retaining session can be resumed.
//!
//! For retaining sessions the conservation identity grows — every
//! notification the engine delivers for such a client terminates in
//! exactly one of [`NetStats::notifications_acked`] (acked, never
//! retransmitted), [`NetStats::notifications_replayed`] (acked after a
//! retransmission), [`NetStats::notifications_dropped`] (replay buffer
//! full under [`BackpressurePolicy::DropNewest`], dropped *before* a seq
//! is assigned — so received seqs stay contiguous) or
//! [`NetStats::notifications_expired`] (retained by a session that
//! expired) — or it is still *in flight*, i.e. retained unacknowledged in
//! a live session ([`NetBroker::session_in_flight`]):
//!
//! ```text
//! delivered == acked + replayed + dropped + expired + in_flight
//! ```
//!
//! Session TTLs and heartbeat timeouts run on an explicit logical clock
//! the driver advances with [`NetBroker::advance_clock`] — never on turn
//! counts, which depend on how a driver interleaves its clients' sends
//! with broker turns.
//!
//! # Determinism
//!
//! `mio-lite` reports readiness in ascending token order and the listener
//! accepts in connect order, so a single-threaded driver observing the
//! same client actions produces the same frame order, the same
//! [`ClientId`](crate::client::ClientId)/[`stopss_types::SubId`]
//! assignments and the same reply sequence on every run. Notifications are delivered synchronously on
//! the loop's own thread, so the served broker has no asynchrony of its
//! own, and each subscriber's stream of notifications is a subsequence of
//! the order in which the broker served the publishes. Publishes made
//! in-process from other threads ([`NetBroker::broker`]) land on the same
//! delivery queue and are routed by the next turn.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use mio_lite::{
    Events, Interest, Poll, Registry, SimConnector, SimListener, SimStream, Token,
    DEFAULT_PIPE_CAPACITY,
};
use stopss_ontology::SemanticSource;
use stopss_types::sync::{Arc, Mutex};
use stopss_types::{FxHashMap, SharedInterner};

use crate::dispatcher::{Broker, BrokerConfig, TransportFactory};
use crate::notify::DeliveryStats;
use crate::server::DemoServer;
use crate::session::{SessionConfig, SessionTable};
use crate::transport::{Delivery, Transport, TransportError, TransportKind};
use crate::wire::{
    decode_client, encode_server, try_read_frame, try_read_frame_bounded, write_frame,
    ClientMessage, ServerMessage, WireError, MAX_FRAME_LEN,
};

/// Token of the accept listener.
const LISTENER: Token = Token(0);
/// First token handed to a client connection.
const FIRST_CONN: usize = 1;

/// What to do with a notification for a connection whose outbound queue
/// is already at [`NetBrokerConfig::max_outbound_frames`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Disconnect the slow consumer: its connection is closed and its
    /// session retired — subscriptions unsubscribed, clients unregistered.
    /// A session-less consumer's queued notifications and the one that
    /// overflowed count in [`NetStats::notifications_disconnected`]; a
    /// retaining session (bounded by its replay buffer instead) counts
    /// its retained frames and the overflowing one in
    /// [`NetStats::notifications_expired`].
    Disconnect,
    /// Keep the connection and drop the *newest* notification, counting
    /// it in [`NetStats::notifications_dropped`]. Replies are never
    /// dropped.
    DropNewest,
}

/// Configuration of the networked broker.
pub struct NetBrokerConfig {
    /// Configuration of the underlying [`Broker`] core.
    pub broker: BrokerConfig,
    /// Policy for notifications to connections at the outbound bound.
    pub backpressure: BackpressurePolicy,
    /// Maximum queued outbound frames per connection before
    /// [`NetBrokerConfig::backpressure`] applies to new notifications.
    pub max_outbound_frames: usize,
    /// Per-direction byte capacity of each connection's simulated pipe.
    pub pipe_capacity: usize,
    /// Readiness events drained per poll; overflow stays pending for the
    /// next turn, so this bounds per-turn work, not total throughput.
    pub events_per_poll: usize,
    /// Largest inbound frame the loop will buffer; a length prefix past
    /// this bound is an unrecoverable protocol error (the connection is
    /// closed before any allocation happens).
    pub max_frame_len: usize,
    /// Session-layer knobs (replay-buffer bound, TTL, heartbeat). Only
    /// retaining sessions — connections that open with
    /// [`ClientMessage::Hello`] — are affected; a session-less connection
    /// is bounded by [`NetBrokerConfig::max_outbound_frames`] and retired
    /// when it closes.
    pub session: SessionConfig,
}

impl Default for NetBrokerConfig {
    fn default() -> Self {
        NetBrokerConfig {
            broker: BrokerConfig::default(),
            backpressure: BackpressurePolicy::Disconnect,
            max_outbound_frames: 256,
            pipe_capacity: DEFAULT_PIPE_CAPACITY,
            events_per_poll: 1024,
            max_frame_len: MAX_FRAME_LEN,
            session: SessionConfig::default(),
        }
    }
}

/// Counters of the event loop.
///
/// For *session-less* connections, every notification the engine
/// delivers to a [`NetTransport`] terminates in exactly one of
/// `notifications_sent`, `notifications_dropped` or
/// `notifications_disconnected` once the loop is quiescent. Closing such
/// a connection retires its clients and their subscriptions, so no match
/// outlives it.
///
/// For *retaining* sessions the terminal buckets are
/// `notifications_acked`, `notifications_replayed`,
/// `notifications_dropped` and `notifications_expired`, with
/// [`NetBroker::session_in_flight`] covering the retained remainder (see
/// the module docs for the full identity); `notifications_sent` then
/// counts first transmissions as pure telemetry — a sent frame is not
/// terminal until it is acknowledged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections closed (EOF, error, protocol violation, or
    /// backpressure disconnect).
    pub connections_closed: u64,
    /// Complete frames read off connections.
    pub frames_read: u64,
    /// Connections killed for unrecoverable framing errors (a corrupt
    /// length prefix). Malformed *payloads* inside a well-framed message
    /// get an `Error` reply instead and are not counted here.
    pub protocol_errors: u64,
    /// Connections that closed with a partial frame still buffered —
    /// the mid-frame-disconnect signature the chaos harness injects.
    pub truncated_frames: u64,
    /// Total matches reported by `Published` replies this loop served.
    pub matches_seen: u64,
    /// Notification frames fully written to a connection's pipe.
    pub notifications_sent: u64,
    /// Notifications dropped by [`BackpressurePolicy::DropNewest`].
    pub notifications_dropped: u64,
    /// Notifications for session-less connections that no longer exist:
    /// queued frames of a closed or disconnected consumer, the
    /// notification that triggered a [`BackpressurePolicy::Disconnect`],
    /// and late deliveries for clients whose session already retired.
    pub notifications_disconnected: u64,
    /// Retaining sessions opened by a fresh [`ClientMessage::Hello`]
    /// handshake (session-less connections never count).
    pub sessions_created: u64,
    /// Successful resumes (`Welcome { resumed: true }`).
    pub sessions_resumed: u64,
    /// Sessions expired: detached past the TTL, or terminated whole at a
    /// full replay buffer under [`BackpressurePolicy::Disconnect`].
    pub sessions_expired: u64,
    /// Attached retaining sessions' connections closed for inbound silence past
    /// [`SessionConfig::heartbeat_timeout`] logical ticks.
    pub heartbeat_timeouts: u64,
    /// Sessioned notifications acknowledged without ever being
    /// retransmitted — the happy-path terminal bucket.
    pub notifications_acked: u64,
    /// Sessioned notifications acknowledged after at least one
    /// retransmission on a resume.
    pub notifications_replayed: u64,
    /// Sessioned notifications retained by a session when it expired —
    /// delivered by the engine, never acknowledged, now terminally lost
    /// *with accounting*.
    pub notifications_expired: u64,
    /// Retransmitted notification frames fully written on a resume
    /// (telemetry: how much replay traffic recovery cost).
    pub replay_frames_sent: u64,
}

/// The queue [`NetTransport`]s push into and the event loop drains.
type SharedQueue = Arc<Mutex<VecDeque<Delivery>>>;

/// A [`Transport`] that hands deliveries to the event loop instead of a
/// simulated medium: it pushes onto the shared queue the loop drains
/// every turn. It never fails — loss, if any, happens *visibly* at
/// the connection under the [`BackpressurePolicy`] — so the notification
/// engine's `attempted == delivered` for every kind. The networked
/// broker installs one per [`TransportKind`] (all sharing the queue)
/// because the engine silently rejects deliveries for unconfigured
/// kinds, which would violate the no-silent-loss invariant.
pub struct NetTransport {
    kind: TransportKind,
    queue: SharedQueue,
}

impl Transport for NetTransport {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        self.queue.lock().push_back(delivery.clone());
        Ok(())
    }
}

/// What a queued outbound frame carries — flush accounting differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameKind {
    /// A request reply (or handshake frame); never counted as a
    /// notification.
    Reply,
    /// A first-transmission notification.
    Notification,
    /// A retransmitted notification on a resume.
    Replay,
}

/// One queued outbound frame: the framed bytes (length prefix included)
/// plus the write offset reached so far.
struct OutFrame {
    bytes: Bytes,
    written: usize,
    kind: FrameKind,
}

impl OutFrame {
    /// Frames `msg` in one buffer: a length-prefix placeholder, the
    /// payload encoded right behind it, then the prefix patched in.
    fn new(msg: &ServerMessage, kind: FrameKind) -> OutFrame {
        let hint = match msg {
            ServerMessage::Notification { payload, .. } => payload.len(),
            _ => 0,
        };
        let mut framed = BytesMut::with_capacity(32 + hint);
        framed.put_u32_le(0);
        encode_server(msg, &mut framed);
        let len = (framed.len() - 4) as u32;
        framed[..4].copy_from_slice(&len.to_le_bytes());
        OutFrame { bytes: framed.freeze(), written: 0, kind }
    }
}

/// Per-connection state.
struct Conn {
    stream: SimStream,
    /// Reassembly buffer for inbound bytes.
    rx: BytesMut,
    /// Outbound frames not yet fully written to the pipe.
    out: VecDeque<OutFrame>,
    /// Notification frames currently in `out`.
    notifications_queued: u64,
    /// The session this connection is attached to: its own non-retaining
    /// one from accept, or the retaining one a `Hello` opened or resumed.
    session: u64,
    /// Logical tick of the last inbound bytes (heartbeat bookkeeping).
    last_inbound: u64,
}

impl Conn {
    fn new(stream: SimStream, now: u64, session: u64) -> Conn {
        Conn {
            stream,
            rx: BytesMut::new(),
            out: VecDeque::new(),
            notifications_queued: 0,
            session,
            last_inbound: now,
        }
    }
}

/// How one decoded inbound frame will be answered: session-protocol
/// frames are consumed before the serve phase with their reply frames
/// precomputed, so the per-connection reply order still matches arrival
/// order.
enum Planned {
    /// Moved into the turn's [`DemoServer::handle_batch`] call; answered
    /// by the next reply in order.
    Command,
    /// Handled by the session layer; zero or more reply frames, already
    /// rendered.
    Direct(Vec<(ServerMessage, FrameKind)>),
    /// Undecodable payload; answered with an `Error` reply.
    Malformed(WireError),
}

/// The networked broker: a readiness event loop serving the framed wire
/// protocol over many multiplexed connections (see the module docs for
/// the turn structure and the backpressure/conservation contract).
pub struct NetBroker {
    poll: Poll,
    registry: Registry,
    events: Events,
    listener: SimListener,
    server: DemoServer,
    conns: BTreeMap<Token, Conn>,
    queue: SharedQueue,
    next_token: usize,
    policy: BackpressurePolicy,
    max_outbound_frames: usize,
    max_frame_len: usize,
    session_cfg: SessionConfig,
    sessions: SessionTable,
    clock: u64,
    stats: NetStats,
}

impl NetBroker {
    /// Builds the event loop: broker core with one [`NetTransport`] per
    /// transport kind, and the accept listener.
    pub fn new(
        config: NetBrokerConfig,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
    ) -> io::Result<NetBroker> {
        let poll = Poll::new()?;
        let registry = poll.registry();
        let queue: SharedQueue = SharedQueue::default();
        let factory_queue = queue.clone();
        let factory: TransportFactory = Box::new(move |_epoch| {
            TransportKind::ALL
                .into_iter()
                .map(|kind| {
                    Box::new(NetTransport { kind, queue: factory_queue.clone() })
                        as Box<dyn Transport>
                })
                .collect()
        });
        let broker = Broker::with_transport_factory(
            config.broker,
            source,
            interner,
            FxHashMap::default(),
            factory,
        );
        let mut listener = SimListener::with_pipe_capacity(config.pipe_capacity);
        registry.register(&mut listener, LISTENER, Interest::READABLE)?;
        Ok(NetBroker {
            poll,
            registry,
            events: Events::with_capacity(config.events_per_poll),
            listener,
            server: DemoServer::new(broker),
            conns: BTreeMap::new(),
            queue,
            next_token: FIRST_CONN,
            policy: config.backpressure,
            max_outbound_frames: config.max_outbound_frames.max(1),
            max_frame_len: config.max_frame_len.max(16),
            session_cfg: config.session,
            sessions: SessionTable::default(),
            clock: 0,
            stats: NetStats::default(),
        })
    }

    /// A handle clients use to connect (cloneable, sendable).
    pub fn connector(&self) -> SimConnector {
        self.listener.connector()
    }

    /// The broker core behind the loop.
    pub fn broker(&self) -> &Broker {
        self.server.broker()
    }

    /// Event-loop counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Runs one event-loop turn: poll (bounded by `timeout`), accept,
    /// read, serve, notify, flush. See the module docs.
    pub fn turn(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.poll.poll(&mut self.events, timeout)?;
        let mut accept = false;
        let mut readable: Vec<Token> = Vec::new();
        let mut flushable: BTreeSet<Token> = BTreeSet::new();
        for event in self.events.iter() {
            let token = event.token();
            if token == LISTENER {
                accept = true;
                continue;
            }
            if event.is_readable() {
                readable.push(token);
            }
            if event.is_writable() {
                flushable.insert(token);
            }
        }
        if accept {
            self.accept_all()?;
        }

        // Read phase: one entry per complete frame, in token order then
        // arrival order — the turn's canonical serving order.
        let mut entries: Vec<(Token, Result<ClientMessage, WireError>)> = Vec::new();
        for token in readable {
            self.read_conn(token, &mut entries);
        }

        // Session phase: Hello/Ack/Ping are consumed by the session layer
        // here, before the serve phase; their reply frames are
        // precomputed in arrival order so each connection's reply
        // sequence still matches the order it sent its requests in.
        let mut planned: Vec<(Token, Planned)> = Vec::with_capacity(entries.len());
        let mut msgs: Vec<ClientMessage> = Vec::new();
        for (token, decoded) in entries {
            let item = match decoded {
                Ok(ClientMessage::Hello { session, last_seen_seq }) => {
                    Planned::Direct(self.handle_hello(token, session, last_seen_seq))
                }
                Ok(ClientMessage::Ack { seq }) => Planned::Direct(self.handle_ack(token, seq)),
                Ok(ClientMessage::Ping { nonce }) => {
                    Planned::Direct(vec![(ServerMessage::Pong { nonce }, FrameKind::Reply)])
                }
                Ok(msg) => {
                    msgs.push(msg);
                    Planned::Command
                }
                Err(e) => Planned::Malformed(e),
            };
            planned.push((token, item));
        }

        // Serve phase: the turn's command frames through the batched path;
        // replies come back positionally, one per command.
        let mut replies = self.server.handle_batch(msgs).into_iter();
        for (token, item) in planned {
            let frames: Vec<(ServerMessage, FrameKind)> = match item {
                Planned::Command => {
                    let reply = replies
                        .next()
                        .expect("invariant: the server returns one reply per served message");
                    match &reply {
                        ServerMessage::Registered { client } => match self.conns.get(&token) {
                            Some(conn) => self.sessions.bind_client(conn.session, *client),
                            None => {
                                // Registered over a connection that died
                                // this turn: retract the registration so
                                // its matches cannot dangle unaccounted.
                                self.server.broker().unregister_client(*client);
                            }
                        },
                        ServerMessage::Published { matches } => {
                            self.stats.matches_seen += u64::from(*matches);
                        }
                        _ => {}
                    }
                    vec![(reply, FrameKind::Reply)]
                }
                Planned::Direct(frames) => frames,
                Planned::Malformed(e) => vec![(
                    ServerMessage::Error { message: format!("bad request: {e}") },
                    FrameKind::Reply,
                )],
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                for (msg, kind) in frames {
                    if kind != FrameKind::Reply {
                        conn.notifications_queued += 1;
                    }
                    conn.out.push_back(OutFrame::new(&msg, kind));
                }
                flushable.insert(token);
            }
        }

        // Notification phase: drain what the engine delivered — this
        // turn's publishes, plus any in-process publishes since the last
        // turn — and route each onto its subscriber's connection.
        let deliveries: Vec<Delivery> = {
            let mut queue = self.queue.lock();
            queue.drain(..).collect()
        };
        for delivery in deliveries {
            self.route(delivery, &mut flushable);
        }

        // Flush phase: write until each touched pipe pushes back.
        for token in flushable {
            self.flush_conn(token);
        }
        Ok(())
    }

    /// Turns the loop until the served workload has fully settled or
    /// `max_turns` elapsed; returns whether quiescence was reached.
    ///
    /// Quiescent means: two consecutive turns saw no readiness at all,
    /// the delivery queue is empty, no connection has outbound frames
    /// pending, and the conservation identity
    /// `matches_seen == orphaned_matches + engine deliveries` holds —
    /// i.e. every match this loop produced has reached a terminal,
    /// accounted state.
    pub fn run_until_quiescent(&mut self, max_turns: usize) -> io::Result<bool> {
        let mut idle_turns = 0;
        for _ in 0..max_turns {
            self.turn(Some(Duration::from_millis(1)))?;
            if self.events.is_empty() && self.settled() {
                idle_turns += 1;
                if idle_turns >= 2 {
                    return Ok(true);
                }
            } else {
                idle_turns = 0;
            }
        }
        Ok(false)
    }

    /// Advances the logical session clock by `ticks`, then enforces the
    /// two time-based policies: attached retaining sessions' connections silent for
    /// [`SessionConfig::heartbeat_timeout`] ticks are closed (their
    /// sessions detach and start the TTL countdown), and detached
    /// sessions past [`SessionConfig::session_ttl`] are expired — their
    /// subscriptions unsubscribed, their clients unregistered, and every
    /// retained frame counted in [`NetStats::notifications_expired`].
    ///
    /// The clock only moves here: drivers that never call this get
    /// sessions that never time out, and the same drive sequence expires
    /// the same sessions on every run.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
        if self.session_cfg.heartbeat_timeout > 0 {
            let silent: Vec<Token> = self
                .conns
                .iter()
                .filter(|(_, conn)| {
                    self.sessions.get(conn.session).is_some_and(|s| s.retains)
                        && self.clock.saturating_sub(conn.last_inbound)
                            >= self.session_cfg.heartbeat_timeout
                })
                .map(|(token, _)| *token)
                .collect();
            for token in silent {
                self.stats.heartbeat_timeouts += 1;
                self.close_conn(token);
            }
        }
        for stoken in self.sessions.expired(self.clock, self.session_cfg.session_ttl) {
            self.retire(stoken);
        }
    }

    /// The current logical session clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// True once every match served so far has been delivered by the
    /// engine (or orphaned) *and* the loop has routed the resulting
    /// deliveries out of the shared queue — i.e. each one now sits in a
    /// terminal counter, a connection's outbound queue, or a replay
    /// buffer. A turn that served publishes ends drained unless
    /// in-process publishers on other threads are still running; the
    /// chaos harness fences fault injection on it.
    pub fn deliveries_drained(&self) -> bool {
        if !self.queue.lock().is_empty() {
            return false;
        }
        let broker = self.server.broker();
        let delivered = broker.delivery_stats().total_delivered();
        // conservation: matches_seen == orphaned_matches + delivered
        self.stats.matches_seen == broker.orphaned_matches() + delivered
    }

    /// True when every connection that *can* make write progress has an
    /// empty outbound queue (partitioned links are excluded — their
    /// frames are blocked by design).
    pub fn outbound_idle(&self) -> bool {
        self.conns.values().all(|conn| conn.out.is_empty() || conn.stream.partitioned())
    }

    /// Retained (unacknowledged) frame count of retaining session
    /// `token`, if it is live.
    pub fn session_retained(&self, token: u64) -> Option<u64> {
        self.sessions.retained(token)
    }

    /// Retained unacknowledged notifications across live sessions — the
    /// `in_flight` term of the session conservation identity.
    pub fn session_in_flight(&self) -> u64 {
        self.sessions.in_flight()
    }

    /// Number of live retaining sessions (attached or detached);
    /// session-less connections do not count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Closes every live connection at once — the chaos harness's
    /// broker-front-end bounce. Retaining sessions detach (their state
    /// survives in memory and their TTL countdown starts); session-less
    /// connections are retired as on any close — their clients
    /// unregistered and their subscriptions unsubscribed. Pair with
    /// [`Broker::restart_notifier`](crate::dispatcher::Broker::restart_notifier)
    /// to model a full restart of the serving tier.
    pub fn kill_all_connections(&mut self) {
        let tokens: Vec<Token> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Runs exactly `n` turns with a short poll timeout — the driver's
    /// tool for interleaving broker progress with client ticks without
    /// requiring quiescence.
    pub fn run_turns(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            self.turn(Some(Duration::from_millis(1)))?;
        }
        Ok(())
    }

    /// Handles a `Hello`: turns the connection's own session into a
    /// retaining one, or — when `requested` names a live retaining
    /// session — drops it to attach that session instead: the session is
    /// stolen from any zombie connection still attached, `last_seen_seq`
    /// acts as a cumulative ack, and every still-retained frame is queued
    /// for retransmission (in seq order, right after the `Welcome`).
    fn handle_hello(
        &mut self,
        token: Token,
        requested: u64,
        last_seen_seq: u64,
    ) -> Vec<(ServerMessage, FrameKind)> {
        let Some(conn) = self.conns.get(&token) else {
            return Vec::new(); // the connection died earlier this turn
        };
        let own = conn.session;
        let session = self.sessions.get(own).expect("invariant: a live conn's session is live");
        if session.retains {
            let message = "duplicate Hello on an established session".into();
            return vec![(ServerMessage::Error { message }, FrameKind::Reply)];
        }
        if !session.clients.is_empty() {
            let message = "Hello must be the first frame of a connection".into();
            return vec![(ServerMessage::Error { message }, FrameKind::Reply)];
        }
        if !self.sessions.get(requested).is_some_and(|s| s.retains) {
            // Unknown (or zero) token: grant a fresh session. A client
            // whose old session expired learns it here — `resumed: false`
            // tells it to re-register and re-subscribe from scratch.
            self.sessions.get_mut(own).expect("invariant: checked live above").retains = true;
            self.stats.sessions_created += 1;
            return vec![(
                ServerMessage::Welcome { session: own, resumed: false },
                FrameKind::Reply,
            )];
        }
        self.sessions.remove(own);
        self.conns.get_mut(&token).expect("invariant: checked live above").session = requested;
        if let Some(zombie) = self.sessions.get(requested).and_then(|s| s.conn) {
            self.close_conn(zombie);
        }
        let session = self.sessions.get_mut(requested).expect("invariant: retaining, checked");
        session.conn = Some(token);
        session.detached_at = None;
        let (fresh, replayed) = session.ack(last_seen_seq);
        let mut frames =
            vec![(ServerMessage::Welcome { session: requested, resumed: true }, FrameKind::Reply)];
        for frame in session.replay.iter_mut() {
            frame.retransmitted = true;
            frames.push((
                ServerMessage::Notification { seq: frame.seq, payload: frame.payload.clone() },
                FrameKind::Replay,
            ));
        }
        // conservation: delivered == notifications_acked + notifications_replayed + notifications_dropped + notifications_expired
        self.stats.notifications_acked += fresh;
        self.stats.notifications_replayed += replayed;
        self.stats.sessions_resumed += 1;
        frames
    }

    /// Handles an `Ack`: trims the session's replay buffer up to `seq`,
    /// crediting each trimmed frame to its terminal bucket. Acks elicit
    /// no reply — the one documented exception to one-reply-per-request.
    fn handle_ack(&mut self, token: Token, seq: u64) -> Vec<(ServerMessage, FrameKind)> {
        let session = self.conns.get(&token).and_then(|c| self.sessions.get_mut(c.session));
        let Some(session) = session.filter(|s| s.retains) else {
            let message = "Ack outside a session".into();
            return vec![(ServerMessage::Error { message }, FrameKind::Reply)];
        };
        let (fresh, replayed) = session.ack(seq);
        self.stats.notifications_acked += fresh;
        self.stats.notifications_replayed += replayed;
        Vec::new()
    }

    /// Routes one engine delivery through its client's session onto the
    /// attached connection. The two kinds of session differ only in data:
    /// a retaining session numbers the frame and retains it, bounded by
    /// [`SessionConfig::replay_buffer_frames`] (and, detached, only
    /// retains it for replay on resume); a non-retaining one sends `seq 0`,
    /// bounded by [`NetBrokerConfig::max_outbound_frames`]. At the bound,
    /// `DropNewest` drops the delivery — before a seq is assigned, so
    /// received seqs stay contiguous — and `Disconnect` retires the
    /// session, the overflowing delivery counting `expired` for a
    /// retaining session (it can no longer keep its no-loss promise) and
    /// `disconnected` for a non-retaining one.
    fn route(&mut self, delivery: Delivery, flushable: &mut BTreeSet<Token>) {
        let Some(stoken) = self.sessions.session_of(delivery.client) else {
            self.stats.notifications_disconnected += 1;
            return;
        };
        let session =
            self.sessions.get_mut(stoken).expect("invariant: bound clients have live sessions");
        let conn = session.conn.map(|token| {
            let conn = self.conns.get_mut(&token);
            (token, conn.expect("invariant: session.conn only points at live connections"))
        });
        let admitted = if session.retains {
            session.try_retain(delivery.payload.clone(), self.session_cfg.replay_buffer_frames)
        } else {
            conn.as_ref().is_some_and(|(_, c)| c.out.len() < self.max_outbound_frames).then_some(0)
        };
        let Some(seq) = admitted else {
            let retains = session.retains;
            // conservation: delivered == notifications_sent + notifications_dropped + notifications_disconnected
            match self.policy {
                BackpressurePolicy::DropNewest => self.stats.notifications_dropped += 1,
                BackpressurePolicy::Disconnect => {
                    if retains {
                        self.stats.notifications_expired += 1;
                    } else {
                        self.stats.notifications_disconnected += 1;
                    }
                    if let Some((token, _)) = conn {
                        flushable.remove(&token);
                    }
                    self.retire(stoken);
                }
            }
            return;
        };
        if let Some((token, conn)) = conn {
            conn.out.push_back(OutFrame::new(
                &ServerMessage::Notification { seq, payload: delivery.payload },
                FrameKind::Notification,
            ));
            conn.notifications_queued += 1;
            flushable.insert(token);
        }
    }

    /// Retires a session terminally: closes its attached connection (if
    /// any), unsubscribes and unregisters its clients (so nothing it owned
    /// keeps matching), and accounts what it held. A retaining session's
    /// retained frames — its queued frames among them — count
    /// [`NetStats::notifications_expired`]; a session-less connection's
    /// queued frames count [`NetStats::notifications_disconnected`].
    fn retire(&mut self, stoken: u64) {
        let Some(session) = self.sessions.remove(stoken) else {
            return;
        };
        if let Some(conn) = session.conn.and_then(|token| self.conns.remove(&token)) {
            self.drop_conn(conn, session.retains);
        }
        let broker = self.server.broker();
        for client in &session.clients {
            broker.unsubscribe_all(*client);
            broker.unregister_client(*client);
        }
        if session.retains {
            self.stats.notifications_expired += session.replay.len() as u64;
            self.stats.sessions_expired += 1;
        }
    }

    /// True if every produced match is terminally accounted and nothing
    /// is queued anywhere in the loop.
    fn settled(&self) -> bool {
        self.deliveries_drained() && self.conns.values().all(|c| c.out.is_empty())
    }

    /// Shuts the loop down: drops every connection (closing the pipes,
    /// counting session-less connections' queued frames as disconnected)
    /// and stops the broker, returning the loop's counters and the final
    /// engine delivery statistics. Nothing is retired — the matcher is
    /// about to stop, so unsubscribing would be work for nothing.
    pub fn shutdown(mut self) -> (NetStats, DeliveryStats) {
        for conn in std::mem::take(&mut self.conns).into_values() {
            let retains = self.sessions.get(conn.session).is_some_and(|s| s.retains);
            self.drop_conn(conn, retains);
        }
        (self.stats, self.server.shutdown())
    }

    fn accept_all(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok(mut stream) => {
                    let token = Token(self.next_token);
                    self.next_token += 1;
                    self.registry.register(
                        &mut stream,
                        token,
                        Interest::READABLE | Interest::WRITABLE,
                    )?;
                    let session = self.sessions.create(token);
                    self.conns.insert(token, Conn::new(stream, self.clock, session));
                    self.stats.connections_accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads `token` to `WouldBlock`/EOF, appending one entry per
    /// complete frame. EOF or a corrupt length prefix closes the
    /// connection — frames already complete are still served, a partial
    /// trailing frame is discarded and counted
    /// ([`NetStats::truncated_frames`]).
    fn read_conn(
        &mut self,
        token: Token,
        entries: &mut Vec<(Token, Result<ClientMessage, WireError>)>,
    ) {
        let mut close = false;
        let mut fatal = false;
        let now = self.clock;
        if let Some(conn) = self.conns.get_mut(&token) {
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rx.put_slice(&buf[..n]);
                        conn.last_inbound = now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            loop {
                match try_read_frame_bounded(&mut conn.rx, self.max_frame_len) {
                    Ok(Some(mut frame)) => {
                        self.stats.frames_read += 1;
                        entries.push((token, decode_client(&mut frame)));
                    }
                    Ok(None) => break,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        if fatal {
            self.stats.protocol_errors += 1;
            close = true;
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Writes `token`'s queued frames until its pipe pushes back.
    fn flush_conn(&mut self, token: Token) {
        let mut close = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            while let Some(front) = conn.out.front_mut() {
                match conn.stream.write(&front.bytes[front.written..]) {
                    Ok(n) => {
                        front.written += n;
                        if front.written == front.bytes.len() {
                            match front.kind {
                                FrameKind::Reply => {}
                                FrameKind::Notification => {
                                    self.stats.notifications_sent += 1;
                                    conn.notifications_queued -= 1;
                                }
                                FrameKind::Replay => {
                                    self.stats.replay_frames_sent += 1;
                                    conn.notifications_queued -= 1;
                                }
                            }
                            conn.out.pop_front();
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Tears a connection down. A *session-less* connection's session is
    /// retired with it (`retire`). A *retaining* session
    /// merely detaches: it keeps its clients, subscriptions and retained
    /// frames, and the TTL countdown starts — queued-but-unwritten
    /// notification frames are not lost, every one of them is still in
    /// the replay buffer.
    fn close_conn(&mut self, token: Token) {
        let Some(stoken) = self.conns.get(&token).map(|c| c.session) else {
            return;
        };
        let session =
            self.sessions.get_mut(stoken).expect("invariant: a live conn's session is live");
        if !session.retains {
            self.retire(stoken);
            return;
        }
        session.conn = None;
        session.detached_at = Some(self.clock);
        let conn = self.conns.remove(&token).expect("invariant: checked live above");
        self.drop_conn(conn, true);
    }

    /// Drops a removed connection's stream — closing both pipes and
    /// waking the peer — and counts the close. Queued notification frames
    /// count as disconnected unless its session `retained` them.
    fn drop_conn(&mut self, mut conn: Conn, retained: bool) {
        let _ = self.registry.deregister(&mut conn.stream);
        if !conn.rx.is_empty() {
            self.stats.truncated_frames += 1;
        }
        self.stats.connections_closed += 1;
        if !retained {
            self.stats.notifications_disconnected += conn.notifications_queued;
        }
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A test/load-generator client over one [`SimStream`]: frames outbound
/// messages (buffering what the bounded pipe refuses), reassembles and
/// decodes inbound frames. Drive it by alternating `send`/[`NetClient::flush`]
/// with broker turns and draining [`NetClient::poll_recv`].
pub struct NetClient {
    stream: SimStream,
    rx: BytesMut,
    tx: BytesMut,
}

impl NetClient {
    /// Connects to the broker behind `connector`.
    pub fn connect(connector: &SimConnector) -> io::Result<NetClient> {
        Ok(NetClient { stream: connector.connect()?, rx: BytesMut::new(), tx: BytesMut::new() })
    }

    /// Frames and queues `msg`, then writes as much as the pipe accepts.
    pub fn send(&mut self, msg: &ClientMessage) -> io::Result<()> {
        let mut payload = BytesMut::new();
        crate::wire::encode_client(msg, &mut payload);
        write_frame(&mut self.tx, &payload);
        self.flush().map(|_| ())
    }

    /// Queues raw bytes verbatim — the chaos harness uses this to leave a
    /// deliberately incomplete frame on the wire before disconnecting.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.tx.put_slice(bytes);
        self.flush().map(|_| ())
    }

    /// Writes buffered outbound bytes; `Ok(true)` once fully flushed,
    /// `Ok(false)` if the pipe pushed back.
    pub fn flush(&mut self) -> io::Result<bool> {
        while !self.tx.is_empty() {
            match self.stream.write(&self.tx) {
                Ok(n) => self.tx.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Bytes queued but not yet accepted by the pipe.
    pub fn pending_to_send(&self) -> usize {
        self.tx.len()
    }

    /// Reads everything available and decodes the complete frames.
    /// Returns the decoded messages (possibly none); a closed peer just
    /// ends the read — check [`NetClient::peer_closed`].
    pub fn poll_recv(&mut self) -> Result<Vec<ServerMessage>, WireError> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.rx.put_slice(&buf[..n]),
                Err(_) => break, // WouldBlock: nothing more right now
            }
        }
        let mut msgs = Vec::new();
        while let Some(mut frame) = try_read_frame(&mut self.rx)? {
            msgs.push(crate::wire::decode_server(&mut frame)?);
        }
        Ok(msgs)
    }

    /// True once the broker side closed this connection.
    pub fn peer_closed(&self) -> bool {
        self.stream.peer_closed()
    }

    /// Partitions (or heals) this connection's link: while partitioned,
    /// nothing flows in either direction and a close of either end stays
    /// invisible — exactly what a network partition looks like from an
    /// endpoint.
    pub fn set_partitioned(&self, partitioned: bool) {
        self.stream.set_partitioned(partitioned);
    }

    /// Whether the link is currently partitioned.
    pub fn partitioned(&self) -> bool {
        self.stream.partitioned()
    }

    /// Closes the connection now (both directions). Bytes already in the
    /// pipe remain readable by the broker; anything queued locally but
    /// not yet written is gone — which is exactly how a mid-frame
    /// disconnect manifests.
    pub fn close(&mut self) {
        self.stream.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientId;
    use crate::wire::WireValue;
    use stopss_types::Interner;
    use stopss_workload::JobFinderDomain;

    fn net_broker(config: NetBrokerConfig) -> NetBroker {
        let mut interner = Interner::new();
        let domain = JobFinderDomain::build(&mut interner);
        NetBroker::new(config, Arc::new(domain.ontology), SharedInterner::from_interner(interner))
            .unwrap()
    }

    fn register(client: &mut NetClient, broker: &mut NetBroker, name: &str) -> ClientId {
        client
            .send(&ClientMessage::Register { name: name.into(), transport: TransportKind::Tcp })
            .unwrap();
        for _ in 0..50 {
            broker.turn(Some(Duration::from_millis(1))).unwrap();
            if let Some(msg) = client.poll_recv().unwrap().pop() {
                match msg {
                    ServerMessage::Registered { client } => return client,
                    other => panic!("unexpected reply: {other:?}"),
                }
            }
        }
        panic!("no Registered reply");
    }

    #[test]
    fn single_connection_full_flow() {
        let mut broker = net_broker(NetBrokerConfig::default());
        let mut client = NetClient::connect(&broker.connector()).unwrap();
        let id = register(&mut client, &mut broker, "acme");

        client
            .send(&ClientMessage::Subscribe {
                client: id,
                predicates: vec![crate::wire::WirePredicate {
                    attr: "university".into(),
                    op: stopss_types::Operator::Eq,
                    value: WireValue::Term("uoft".into()),
                }],
            })
            .unwrap();
        client
            .send(&ClientMessage::Publish {
                client: id,
                pairs: vec![("school".into(), WireValue::Term("uoft".into()))],
            })
            .unwrap();
        assert!(broker.run_until_quiescent(200).unwrap());
        let replies = client.poll_recv().unwrap();
        assert!(replies.iter().any(|r| matches!(r, ServerMessage::Subscribed { .. })));
        assert!(replies.iter().any(|r| matches!(r, ServerMessage::Published { matches: 1 })));
        assert!(
            replies.iter().any(|r| matches!(r, ServerMessage::Notification { .. })),
            "the subscriber must receive its own match over the wire: {replies:?}"
        );
        let stats = broker.stats();
        assert_eq!(stats.matches_seen, 1);
        assert_eq!(stats.notifications_sent, 1);
        assert_eq!(stats.notifications_dropped + stats.notifications_disconnected, 0);
    }

    #[test]
    fn malformed_payload_gets_error_reply_and_keeps_connection() {
        let mut broker = net_broker(NetBrokerConfig::default());
        let mut client = NetClient::connect(&broker.connector()).unwrap();
        let _ = register(&mut client, &mut broker, "acme");
        // A well-framed but undecodable payload.
        let mut framed = BytesMut::new();
        write_frame(&mut framed, &[0xDE, 0xAD]);
        client.send_raw(&framed).unwrap();
        assert!(broker.run_until_quiescent(200).unwrap());
        let replies = client.poll_recv().unwrap();
        assert!(matches!(&replies[..], [ServerMessage::Error { .. }]), "{replies:?}");
        assert!(!client.peer_closed(), "payload errors must not kill the connection");
        assert_eq!(broker.connection_count(), 1);
    }

    /// The one-buffer framing in `OutFrame::new` is byte-identical to the
    /// two-step `write_frame(encode_server(msg))` for every variant.
    #[test]
    fn out_frame_bytes_equal_write_frame_of_encode_server() {
        let samples = [
            ServerMessage::Registered { client: ClientId(7) },
            ServerMessage::Subscribed { sub: stopss_types::SubId(9) },
            ServerMessage::Unsubscribed { ok: true },
            ServerMessage::Published { matches: 146 },
            ServerMessage::ModeSet { semantic: false },
            ServerMessage::Error { message: "bad request: é".into() },
            ServerMessage::Notification { seq: 0, payload: String::new() },
            ServerMessage::Notification { seq: 42, payload: "to acme [c1]: s2 — x".repeat(40) },
            ServerMessage::Welcome { session: 3, resumed: true },
            ServerMessage::Pong { nonce: u64::MAX },
            ServerMessage::OntologyUpdated { epoch: 5 },
        ];
        // Exhaustive on purpose: a new variant fails to compile here until
        // it gets a sample above.
        let variant = |msg: &ServerMessage| match msg {
            ServerMessage::Registered { .. } => 0,
            ServerMessage::Subscribed { .. } => 1,
            ServerMessage::Unsubscribed { .. } => 2,
            ServerMessage::Published { .. } => 3,
            ServerMessage::ModeSet { .. } => 4,
            ServerMessage::Error { .. } => 5,
            ServerMessage::Notification { .. } => 6,
            ServerMessage::Welcome { .. } => 7,
            ServerMessage::Pong { .. } => 8,
            ServerMessage::OntologyUpdated { .. } => 9,
        };
        let covered: BTreeSet<usize> = samples.iter().map(variant).collect();
        assert_eq!(covered, (0..10).collect(), "every variant has a sample");
        for msg in &samples {
            let mut payload = BytesMut::new();
            encode_server(msg, &mut payload);
            let mut expected = BytesMut::new();
            write_frame(&mut expected, &payload);
            let frame = OutFrame::new(msg, FrameKind::Reply);
            assert_eq!(&frame.bytes[..], &expected[..], "{msg:?}");
        }
    }

    #[test]
    fn corrupt_frame_length_disconnects() {
        let mut broker = net_broker(NetBrokerConfig::default());
        let mut client = NetClient::connect(&broker.connector()).unwrap();
        let _ = register(&mut client, &mut broker, "acme");
        client.send_raw(&u32::MAX.to_le_bytes()).unwrap();
        assert!(broker.run_until_quiescent(200).unwrap());
        assert!(client.peer_closed(), "a corrupt length prefix is unrecoverable");
        assert_eq!(broker.stats().protocol_errors, 1);
        assert_eq!(broker.connection_count(), 0);
        assert_eq!(broker.broker().client_count(), 0, "its client must be unregistered");
    }
}
