//! The session layer of the networked broker: state that survives the
//! connection.
//!
//! PR 8's event loop treated every disconnect as terminal — subscriptions
//! torn down, queued notifications written off as `disconnected`. This
//! module adds the recovery half: a connection opens (or resumes) a
//! *session* with [`ClientMessage::Hello`], and from then on the broker
//! side keeps per-session state in a `SessionTable` entry that outlives
//! the connection:
//!
//! * the session's registered clients (and through them its
//!   subscriptions, which stay in the matcher across disconnects);
//! * a per-session monotone notification `seq` (1, 2, 3, …);
//! * a bounded **replay buffer** of unacknowledged notifications.
//!
//! A client that reconnects quotes its session token and the highest
//! `seq` it saw; the broker replays exactly the retained frames above
//! that mark, in order. A session that stays detached past
//! [`SessionConfig::session_ttl`] logical ticks is expired: its
//! subscriptions are unsubscribed and every retained frame is counted
//! `expired` — so the conservation identity grows to
//!
//! ```text
//! delivered == sent_acked + replayed + in_flight + dropped + expired
//! ```
//!
//! and loss remains impossible to hide (see `NetStats` in
//! [`crate::eventloop`] for the exact bucket definitions).
//!
//! # Logical time
//!
//! Session TTLs, heartbeat timeouts and the client's reconnect backoff
//! all run on an explicit **logical clock** advanced by the driver
//! (`NetBroker::advance_clock`, [`SessionClient::tick`]), never on
//! wall-clock or turn counts. Turns-to-quiescence depend on how the
//! driver interleaves client sends with broker turns; a clock derived
//! from them would tie expiry to that schedule. With driver-advanced ticks, the same
//! seed and the same drive sequence expire the same sessions on every
//! run — the determinism the chaos tier scores bit-for-bit.

use std::collections::VecDeque;
use std::io;

use mio_lite::{SimConnector, Token};
use stopss_types::rng::Rng;
use stopss_types::FxHashMap;

use crate::client::ClientId;
use crate::eventloop::NetClient;
use crate::wire::{ClientMessage, ServerMessage, WireError};

/// Broker-side session knobs (part of
/// [`NetBrokerConfig`](crate::eventloop::NetBrokerConfig)). All durations
/// are in logical ticks — see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Maximum retained (unacknowledged) notifications per session.
    /// At the bound the event loop's `BackpressurePolicy` applies:
    /// `DropNewest` drops the new notification with accounting,
    /// `Disconnect` terminates the whole session (its retained frames
    /// count `expired` — it can no longer keep its no-loss promise).
    pub replay_buffer_frames: usize,
    /// Logical ticks a *detached* session survives before expiry. At
    /// expiry its clients' subscriptions are unsubscribed, its clients
    /// unregistered, and every retained frame is counted `expired`.
    pub session_ttl: u64,
    /// Logical ticks of inbound silence after which an *attached*
    /// sessioned connection is presumed partitioned and closed (the
    /// session detaches and the TTL countdown starts). 0 disables the
    /// heartbeat check; legacy connections are never heartbeat-closed.
    pub heartbeat_timeout: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { replay_buffer_frames: 1024, session_ttl: 64, heartbeat_timeout: 0 }
    }
}

/// One retained (delivered-but-unacknowledged) notification.
#[derive(Clone, Debug)]
pub struct RetainedFrame {
    /// Per-session monotone sequence number.
    pub seq: u64,
    /// Rendered payload.
    pub payload: String,
    /// True once the frame has been retransmitted on a resume; its
    /// eventual ack then counts `replayed` rather than `sent_acked`.
    pub retransmitted: bool,
}

/// Broker-side state of one session (see the module docs).
#[derive(Debug)]
pub struct Session {
    /// The attached connection, if any.
    pub conn: Option<Token>,
    /// Clients registered under this session.
    pub clients: Vec<ClientId>,
    /// Next sequence number to assign (starts at 1).
    pub next_seq: u64,
    /// Highest acknowledged sequence number.
    pub acked: u64,
    /// Retained unacknowledged notifications, in `seq` order.
    pub replay: VecDeque<RetainedFrame>,
    /// Logical tick the connection detached (None while attached).
    pub detached_at: Option<u64>,
}

impl Session {
    /// Opens a fresh session attached to `conn`.
    pub fn new(conn: Token) -> Session {
        Session {
            conn: Some(conn),
            clients: Vec::new(),
            next_seq: 1,
            acked: 0,
            replay: VecDeque::new(),
            detached_at: None,
        }
    }

    /// Retains `payload` for replay if the buffer has room: assigns the
    /// next sequence number, appends the frame, and returns the seq.
    /// Returns `None` when the replay buffer already holds `max_frames`
    /// frames — the caller picks the backpressure outcome (drop the
    /// delivery or expire the session); the buffer is never overrun and
    /// a seq is never burned on a shed delivery, so received seqs stay
    /// contiguous.
    pub fn try_retain(&mut self, payload: String, max_frames: usize) -> Option<u64> {
        if self.replay.len() >= max_frames {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.replay.push_back(RetainedFrame { seq, payload, retransmitted: false });
        Some(seq)
    }

    /// Drops every retained frame with `seq <= upto` (a cumulative ack).
    /// Returns `(sent_acked, replayed)` — how many of the dropped frames
    /// reached their terminal bucket without/with a retransmission.
    pub fn ack(&mut self, upto: u64) -> (u64, u64) {
        let mut fresh = 0;
        let mut replayed = 0;
        while let Some(front) = self.replay.front() {
            if front.seq > upto {
                break;
            }
            let frame =
                self.replay.pop_front().expect("invariant: loop condition verified a front frame");
            if frame.retransmitted {
                replayed += 1;
            } else {
                fresh += 1;
            }
        }
        self.acked = self.acked.max(upto.min(self.next_seq.saturating_sub(1)));
        (fresh, replayed)
    }
}

/// The broker-side table of live sessions; owned and driven by the
/// networked event loop.
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: FxHashMap<u64, Session>,
    client_session: FxHashMap<ClientId, u64>,
    next_token: u64,
}

impl SessionTable {
    /// Opens a fresh session attached to `conn`, returning its token.
    pub fn create(&mut self, conn: Token) -> u64 {
        self.next_token += 1;
        let token = self.next_token;
        self.sessions.insert(token, Session::new(conn));
        token
    }

    /// The session behind `token`, if it is still live.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut Session> {
        self.sessions.get_mut(&token)
    }

    /// Whether `token` names a live session.
    pub fn contains(&self, token: u64) -> bool {
        self.sessions.contains_key(&token)
    }

    /// Binds a freshly registered client to its session.
    pub fn bind_client(&mut self, token: u64, client: ClientId) {
        if let Some(session) = self.sessions.get_mut(&token) {
            session.clients.push(client);
            self.client_session.insert(client, token);
        }
    }

    /// The session token a client is bound to, if any.
    pub fn session_of(&self, client: ClientId) -> Option<u64> {
        self.client_session.get(&client).copied()
    }

    /// Removes a session, unbinding its clients. The caller owns the
    /// accounting of the returned state.
    pub fn remove(&mut self, token: u64) -> Option<Session> {
        let session = self.sessions.remove(&token)?;
        for client in &session.clients {
            self.client_session.remove(client);
        }
        Some(session)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is live (attached or detached).
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total retained unacknowledged frames across live sessions — the
    /// `in_flight` term of the extended conservation identity.
    pub fn in_flight(&self) -> u64 {
        self.sessions.values().map(|s| s.replay.len() as u64).sum()
    }

    /// Retained frame count of one session, if it is live.
    pub fn retained(&self, token: u64) -> Option<u64> {
        self.sessions.get(&token).map(|s| s.replay.len() as u64)
    }

    /// Tokens of detached sessions whose TTL has lapsed at `now`
    /// (deterministically ordered so expiry accounting is reproducible).
    pub fn expired(&self, now: u64, ttl: u64) -> Vec<u64> {
        let mut due: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.detached_at.is_some_and(|d| now.saturating_sub(d) >= ttl))
            .map(|(token, _)| *token)
            .collect();
        due.sort_unstable();
        due
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Client-side resilience knobs. Durations are logical ticks (one
/// [`SessionClient::tick`] = one tick).
#[derive(Clone, Copy, Debug)]
pub struct SessionClientConfig {
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: u64,
    /// Upper bound on the reconnect delay (the cap of the capped
    /// exponential backoff).
    pub backoff_cap: u64,
    /// Fraction of the computed delay that deterministic jitter may
    /// subtract (`0.0` = none, `0.5` = up to half). Jitter is drawn from
    /// the seeded stream, so the same seed reconnects on the same ticks.
    pub jitter: f64,
    /// Send a [`ClientMessage::Ping`] after this many ticks without one
    /// (0 = never). Keeps an idle connection alive under a broker-side
    /// heartbeat timeout — and lets a partition be detected, because
    /// pings stop getting through.
    pub ping_every: u64,
}

impl Default for SessionClientConfig {
    fn default() -> Self {
        SessionClientConfig {
            seed: 2003,
            backoff_base: 1,
            backoff_cap: 16,
            jitter: 0.5,
            ping_every: 0,
        }
    }
}

/// Counters of one [`SessionClient`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionClientStats {
    /// Connection attempts that reached the handshake.
    pub connects: u64,
    /// Welcomes with `resumed == true`.
    pub resumes: u64,
    /// Welcomes that opened a fresh session.
    pub fresh_sessions: u64,
    /// Notifications suppressed as duplicates (`seq <= last_seen_seq`) —
    /// replays of frames that did arrive before the disconnect.
    pub duplicates_suppressed: u64,
    /// Notifications delivered to the caller (post-dedup).
    pub notifications: u64,
    /// Disconnects observed (peer close or send failure).
    pub disconnects: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientState {
    /// Waiting for the backoff delay to lapse before reconnecting.
    Backoff { until: u64 },
    /// Connected, `Hello` sent, waiting for the `Welcome`.
    AwaitingWelcome,
    /// Session open; notifications flow and are acknowledged.
    Established,
}

/// A resilient client over the session protocol: connects, handshakes,
/// acknowledges notifications, suppresses duplicates by `seq`, and — when
/// the connection dies — automatically reconnects with capped exponential
/// backoff plus deterministic jitter and resumes the session.
///
/// Drive it by calling [`SessionClient::tick`] once per logical tick,
/// interleaved with broker turns; each call returns the server messages
/// that surfaced (post-dedup). The caller reacts to
/// `Welcome { resumed: false }` by (re)issuing its `Register`/`Subscribe`
/// requests — the client cannot know what state the application wants.
pub struct SessionClient {
    connector: SimConnector,
    config: SessionClientConfig,
    inner: Option<NetClient>,
    state: ClientState,
    session: u64,
    last_seen_seq: u64,
    /// Highest mark already acknowledged on the current connection.
    ack_sent: u64,
    clock: u64,
    rng: Rng,
    failures: u32,
    last_ping: u64,
    stats: SessionClientStats,
}

impl SessionClient {
    /// A client that will connect to `connector` on its first tick.
    pub fn new(connector: SimConnector, config: SessionClientConfig) -> SessionClient {
        SessionClient {
            connector,
            config,
            inner: None,
            state: ClientState::Backoff { until: 0 },
            session: 0,
            last_seen_seq: 0,
            ack_sent: 0,
            clock: 0,
            rng: Rng::new(config.seed),
            failures: 0,
            last_ping: 0,
            stats: SessionClientStats::default(),
        }
    }

    /// Advances one logical tick: reconnects if due, drains and
    /// acknowledges inbound messages, sends a heartbeat if due, and
    /// detects a dead connection (scheduling the next backoff). Returns
    /// the surfaced messages — notifications post-dedup, plus handshake
    /// and reply traffic the caller may want to react to.
    pub fn tick(&mut self) -> Result<Vec<ServerMessage>, WireError> {
        self.clock += 1;
        if self.inner.is_none() {
            if let ClientState::Backoff { until } = self.state {
                if self.clock >= until {
                    self.connect();
                }
            }
        }
        let mut out = Vec::new();
        let Some(client) = self.inner.as_mut() else {
            return Ok(out);
        };
        for msg in client.poll_recv()? {
            match msg {
                ServerMessage::Welcome { session, resumed } => {
                    self.session = session;
                    self.failures = 0;
                    self.state = ClientState::Established;
                    if resumed {
                        self.stats.resumes += 1;
                        // The resume Hello already acked everything seen.
                        self.ack_sent = self.last_seen_seq;
                    } else {
                        // Fresh session (first connect, or the old one
                        // expired): its seqs restart at 1.
                        self.last_seen_seq = 0;
                        self.ack_sent = 0;
                        self.stats.fresh_sessions += 1;
                    }
                    out.push(ServerMessage::Welcome { session, resumed });
                }
                ServerMessage::Notification { seq, payload } => {
                    if seq != 0 && seq <= self.last_seen_seq {
                        self.stats.duplicates_suppressed += 1;
                        continue;
                    }
                    if seq != 0 {
                        self.last_seen_seq = seq;
                    }
                    self.stats.notifications += 1;
                    out.push(ServerMessage::Notification { seq, payload });
                }
                other => out.push(other),
            }
        }
        // Cumulative ack — only when the mark advanced this tick.
        if self.state == ClientState::Established && self.last_seen_seq > self.ack_sent {
            let ack = ClientMessage::Ack { seq: self.last_seen_seq };
            let inner = self.inner.as_mut().expect("invariant: self.inner is Some on this path");
            if inner.send(&ack).is_err() {
                self.on_disconnect();
                return Ok(out);
            }
            self.ack_sent = self.last_seen_seq;
        }
        if self.config.ping_every > 0
            && self.state == ClientState::Established
            && self.clock.saturating_sub(self.last_ping) >= self.config.ping_every
        {
            self.last_ping = self.clock;
            let ping = ClientMessage::Ping { nonce: self.clock };
            let inner = self.inner.as_mut().expect("invariant: self.inner is Some on this path");
            if inner.send(&ping).is_err() {
                self.on_disconnect();
                return Ok(out);
            }
        }
        let inner = self.inner.as_mut().expect("invariant: self.inner is Some on this path");
        let _ = inner.flush();
        if inner.peer_closed() {
            self.on_disconnect();
        }
        Ok(out)
    }

    /// Sends a request if the session is established; `Ok(false)` means
    /// not-currently-established (the caller retries on a later tick; the
    /// session layer does not queue application requests).
    pub fn request(&mut self, msg: &ClientMessage) -> io::Result<bool> {
        if self.state != ClientState::Established {
            return Ok(false);
        }
        let Some(inner) = self.inner.as_mut() else {
            return Ok(false);
        };
        match inner.send(msg) {
            Ok(()) => Ok(true),
            Err(_) => {
                self.on_disconnect();
                Ok(false)
            }
        }
    }

    /// Hard-kills the current connection (chaos: the link dies under the
    /// client). The client notices on this call and schedules a resume.
    pub fn kill_connection(&mut self) {
        if let Some(mut inner) = self.inner.take() {
            inner.close();
            self.stats.disconnects += 1;
            self.schedule_backoff();
        }
    }

    /// Partitions (or heals) the current connection's link, if any —
    /// while partitioned nothing flows in either direction and the close
    /// of either end stays invisible.
    pub fn set_partitioned(&self, partitioned: bool) {
        if let Some(inner) = self.inner.as_ref() {
            inner.set_partitioned(partitioned);
        }
    }

    /// True while the session handshake has completed on a live
    /// connection.
    pub fn established(&self) -> bool {
        self.state == ClientState::Established
    }

    /// The session token granted by the last `Welcome` (0 before the
    /// first handshake).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Highest notification `seq` observed (the dedup / resume mark).
    pub fn last_seen_seq(&self) -> u64 {
        self.last_seen_seq
    }

    /// This client's counters.
    pub fn stats(&self) -> SessionClientStats {
        self.stats
    }

    fn connect(&mut self) {
        match NetClient::connect(&self.connector) {
            Ok(mut client) => {
                let hello = ClientMessage::Hello {
                    session: self.session,
                    last_seen_seq: self.last_seen_seq,
                };
                if client.send(&hello).is_ok() {
                    self.inner = Some(client);
                    self.state = ClientState::AwaitingWelcome;
                    self.stats.connects += 1;
                } else {
                    self.schedule_backoff();
                }
            }
            Err(_) => self.schedule_backoff(),
        }
    }

    fn on_disconnect(&mut self) {
        self.inner = None;
        self.stats.disconnects += 1;
        self.schedule_backoff();
    }

    /// Capped exponential backoff with deterministic jitter: delay =
    /// `min(base << failures, cap)` minus up to `jitter` of itself, drawn
    /// from the seeded stream, never below 1 tick.
    fn schedule_backoff(&mut self) {
        let exp = self.failures.min(16);
        let raw = self
            .config
            .backoff_base
            .saturating_mul(1u64 << exp)
            .min(self.config.backoff_cap)
            .max(1);
        let jitter = (raw as f64 * self.config.jitter.clamp(0.0, 1.0) * self.rng.next_f64()) as u64;
        let delay = raw.saturating_sub(jitter).max(1);
        self.failures = self.failures.saturating_add(1);
        self.state = ClientState::Backoff { until: self.clock + delay };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_splits_terminal_buckets_and_is_cumulative() {
        let mut s = Session::new(Token(2));
        for seq in 1..=4u64 {
            s.replay.push_back(RetainedFrame {
                seq,
                payload: format!("p{seq}"),
                retransmitted: seq == 2,
            });
            s.next_seq = seq + 1;
        }
        let (fresh, replayed) = s.ack(3);
        assert_eq!((fresh, replayed), (2, 1), "seqs 1,3 fresh; seq 2 was retransmitted");
        assert_eq!(s.acked, 3);
        assert_eq!(s.replay.len(), 1);
        // Re-acking the same mark is a no-op; acking past next_seq clamps.
        assert_eq!(s.ack(3), (0, 0));
        let (fresh, replayed) = s.ack(100);
        assert_eq!((fresh, replayed), (1, 0));
        assert_eq!(s.acked, 4, "acked clamps to the highest assigned seq");
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let delays = |seed: u64| -> Vec<u64> {
            let listener = mio_lite::SimListener::new();
            let mut c = SessionClient::new(
                listener.connector(),
                SessionClientConfig {
                    seed,
                    backoff_base: 1,
                    backoff_cap: 8,
                    jitter: 0.5,
                    ..SessionClientConfig::default()
                },
            );
            c.clock = 100;
            let mut out = Vec::new();
            for _ in 0..8 {
                c.schedule_backoff();
                let ClientState::Backoff { until } = c.state else { panic!("backoff") };
                out.push(until - c.clock);
            }
            out
        };
        let a = delays(7);
        let b = delays(7);
        assert_eq!(a, b, "same seed, same reconnect schedule");
        assert!(a.iter().all(|d| (1..=8).contains(d)), "within [1, cap]: {a:?}");
        // The un-jittered envelope grows then caps; with jitter <= 50% the
        // late delays must still exceed half the cap at least once.
        assert!(a[4..].iter().any(|d| *d >= 4), "cap region not collapsed by jitter: {a:?}");
        assert_ne!(a, delays(8), "different seed, different jitter");
    }

    #[test]
    fn expired_reports_detached_sessions_in_token_order() {
        let mut table = SessionTable::default();
        let s1 = table.create(Token(2));
        let s2 = table.create(Token(3));
        let s3 = table.create(Token(4));
        table.get_mut(s1).unwrap().detached_at = Some(10);
        table.get_mut(s3).unwrap().detached_at = Some(12);
        assert_eq!(table.expired(14, 4), vec![s1], "only s1 is past TTL at tick 14");
        assert_eq!(table.expired(16, 4), vec![s1, s3], "token order, attached s2 immune");
        let _ = s2;
    }
}
