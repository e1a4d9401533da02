//! The broker: S-ToPSS wired to clients and the notification engine.
//!
//! This is the runtime of Figure 2: subscriptions and publications arrive
//! (from the demo front-end or the workload generator), the semantic
//! matcher decides who is interested, and the notification engine delivers
//! over each client's preferred transport.
//!
//! # Control plane
//!
//! The matcher is a **plain [`SToPSS`] field** — no broker-side lock at
//! all. It keeps its ontology, configuration, subscription index and
//! engine behind one mutex of its own. A publication holds it for its
//! whole match; a control-plane operation (`subscribe`, `unsubscribe`,
//! `set_stages`, `reconfigure`, ontology replacement) holds it while it
//! mutates the matcher in place, each operation bumping the matcher's
//! control epoch once. So publications and operations run one at a time:
//! an operation waits for the publication in flight, which finishes
//! against the state it started under, and a publication that starts
//! during an operation waits for it — microseconds for a subscription
//! change, a scan of the subscription index that re-indexes the
//! subscriptions whose synonym-resolved form changed for an ontology
//! replacement, a whole rebuild for a stage or configuration switch.
//! Concurrent publishers take turns on the same mutex; the served broker
//! (`NetBroker`) is one thread and never has two.

use stopss_types::sync::atomic::{AtomicU64, Ordering};
use stopss_types::sync::{Arc, Mutex, RwLock};

use stopss_core::{Config, Match, MatcherStats, SToPSS, StageMask, Tolerance};
use stopss_ontology::SemanticSource;
use stopss_types::{Event, FxHashMap, Predicate, SharedInterner, SubId, Subscription};

use crate::client::{ClientId, ClientInfo};
use crate::notify::{DeliveryStats, NotificationEngine};
use crate::transport::{
    Delivery, Inbox, SmsSim, SmtpSim, TcpSim, Transport, TransportKind, UdpSim,
};

/// Broker construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct BrokerConfig {
    /// Matcher configuration (engine, stages, …).
    pub matcher: Config,
    /// UDP loss probability for the simulated datagram transport.
    pub udp_loss: f64,
    /// SMS messages allowed per rate window.
    pub sms_budget: u32,
    /// Seed for transport randomness.
    pub seed: u64,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig { matcher: Config::default(), udp_loss: 0.05, sms_budget: 64, seed: 2003 }
    }
}

/// Broker operation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrokerError {
    /// The client id is not registered.
    UnknownClient(ClientId),
    /// The subscription exists but belongs to someone else.
    NotOwner {
        /// The caller.
        client: ClientId,
        /// The contested subscription.
        sub: SubId,
    },
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::UnknownClient(c) => write!(f, "unknown client {c}"),
            BrokerError::NotOwner { client, sub } => {
                write!(f, "{client} does not own {sub}")
            }
        }
    }
}

impl std::error::Error for BrokerError {}

/// Builds the notification engine's transport set. The broker calls it
/// exactly once, with `0`, at construction and does not keep it. The
/// `u64` argument is vestigial: it once numbered engine incarnations, and
/// it stays only so existing callers keep compiling.
pub type TransportFactory = Box<dyn Fn(u64) -> Vec<Box<dyn Transport>> + Send + Sync>;

/// The publish/subscribe broker of the demonstration setup.
pub struct Broker {
    /// No lock: the matcher serializes its control ops against its
    /// publications internally, so the publish path and every control op
    /// are `&self`.
    matcher: SToPSS,
    clients: RwLock<FxHashMap<ClientId, ClientInfo>>,
    sub_owner: RwLock<FxHashMap<SubId, ClientId>>,
    /// No lock either: the engine serializes its transports on its own
    /// mutex.
    notifier: NotificationEngine,
    inboxes: FxHashMap<TransportKind, Inbox>,
    interner: SharedInterner,
    /// Stage mask that [`Broker::set_semantic_mode`] restores, updated
    /// when [`Broker::reconfigure_matcher`] installs a semantic
    /// configuration. Both hold this lock across their matcher call, so
    /// the two serialize. Whether the broker is semantic right now is
    /// read off the matcher itself ([`Broker::is_semantic`]).
    semantic_stages: Mutex<StageMask>,
    /// Matches whose owner lookup missed in `notify_matches` — a
    /// subscription matched by an in-flight publish and unsubscribed
    /// before its notification was delivered. Counted (not silently
    /// dropped) so delivery accounting stays auditable.
    orphaned_matches: AtomicU64,
    next_client: AtomicU64,
    next_sub: AtomicU64,
}

impl Broker {
    /// Builds a broker with all four simulated transports.
    pub fn new(
        config: BrokerConfig,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
    ) -> Broker {
        let mut inboxes = FxHashMap::default();
        for kind in TransportKind::ALL {
            inboxes.insert(kind, Inbox::default());
        }
        let factory_inboxes = inboxes.clone();
        let factory: TransportFactory = Box::new(move |_| {
            vec![
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
            ]
        });
        Broker::with_transport_factory(config, source, interner, inboxes, factory)
    }

    /// Builds a broker over custom transports. `factory` is called once,
    /// with `0`, to build the notification engine's transports; `inboxes`
    /// are the receiving ends exposed through [`Broker::inbox`].
    pub fn with_transport_factory(
        config: BrokerConfig,
        source: Arc<dyn SemanticSource>,
        interner: SharedInterner,
        inboxes: FxHashMap<TransportKind, Inbox>,
        factory: TransportFactory,
    ) -> Broker {
        Broker {
            matcher: SToPSS::new(config.matcher, source, interner.clone()),
            clients: RwLock::new(FxHashMap::default()),
            sub_owner: RwLock::new(FxHashMap::default()),
            notifier: NotificationEngine::start(factory(0)),
            inboxes,
            interner,
            semantic_stages: Mutex::new(config.matcher.stages),
            orphaned_matches: AtomicU64::new(0),
            next_client: AtomicU64::new(1),
            next_sub: AtomicU64::new(1),
        }
    }

    /// The shared interner for building events/subscriptions.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// Registers a client.
    pub fn register_client(&self, name: impl Into<String>, transport: TransportKind) -> ClientId {
        // ordering: id allocation needs only the atomicity of the add
        // (unique ids); nothing is published through this counter.
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        self.clients.write().insert(id, ClientInfo { name: name.into(), transport });
        id
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients.read().len()
    }

    /// Drops a client connection. The client's subscriptions stay in the
    /// matcher (the dropped endpoint may reconnect under a new
    /// registration), so their subsequent matches become unroutable and
    /// are counted in [`Broker::orphaned_matches`] — the accounting the
    /// in-process chaos harness scores (E10c's "connection drops" row
    /// depends on it). The networked broker pairs this with
    /// [`Broker::unsubscribe_all`] when it retires a session, so a served
    /// connection never leaves orphan-producing subscriptions behind.
    /// Returns false for unknown ids.
    pub fn unregister_client(&self, client: ClientId) -> bool {
        self.clients.write().remove(&client).is_some()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.matcher.len()
    }

    /// The matcher's control epoch: bumped once per control mutation
    /// (including once per whole [`Broker::subscribe_batch`]), so the
    /// delta across a window counts control mutations — the coalescing
    /// metric the networked event loop's subscribe-storm tests pin.
    pub fn matcher_control_epoch(&self) -> u64 {
        self.matcher.control_epoch()
    }

    /// Registers a subscription for `client` with the system tolerance.
    pub fn subscribe(
        &self,
        client: ClientId,
        predicates: Vec<Predicate>,
    ) -> Result<SubId, BrokerError> {
        self.subscribe_with_tolerance(client, predicates, None)
    }

    /// Registers a subscription with an optional subscriber tolerance
    /// (the information-loss knob of §3.2). The matcher mutation waits
    /// for the publications in flight, which match without the new
    /// subscription; every later one matches with it.
    pub fn subscribe_with_tolerance(
        &self,
        client: ClientId,
        predicates: Vec<Predicate>,
        tolerance: Option<Tolerance>,
    ) -> Result<SubId, BrokerError> {
        if !self.clients.read().contains_key(&client) {
            return Err(BrokerError::UnknownClient(client));
        }
        // ordering: id allocation needs only the atomicity of the add
        // (unique ids); nothing is published through this counter.
        let id = SubId(self.next_sub.fetch_add(1, Ordering::Relaxed));
        let sub = Subscription::new(id, predicates);
        // Owner first, matcher second: from the instant a publish can
        // match the subscription, its notifications are routable.
        self.sub_owner.write().insert(id, client);
        match tolerance {
            Some(t) => self.matcher.subscribe_with_tolerance(sub, t),
            None => self.matcher.subscribe(sub),
        };
        Ok(id)
    }

    /// Registers a batch of subscriptions as **one** matcher control
    /// mutation: ownership is recorded per request, then every accepted
    /// subscription lands in the matcher through a single control mutation
    /// ([`SToPSS::subscribe_batch`]) instead of one per subscription, so
    /// publishers wait for the matcher's lock once per batch.
    /// Results are positional: the
    /// `k`-th entry answers the `k`-th request, and rejected requests
    /// (unknown client) consume neither a [`SubId`] nor matcher work. The
    /// networked event loop coalesces Subscribe frames per poll turn into
    /// this call, which is what keeps connection-scale subscription storms
    /// linear instead of quadratic.
    pub fn subscribe_batch(
        &self,
        requests: Vec<(ClientId, Vec<Predicate>, Option<Tolerance>)>,
    ) -> Vec<Result<SubId, BrokerError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let mut results = Vec::with_capacity(requests.len());
        let mut accepted = Vec::with_capacity(requests.len());
        {
            // Owner entries first, matcher second — the same routability
            // order as the single-subscription path, batched under one
            // owner-table write lock.
            let clients = self.clients.read();
            let mut owners = self.sub_owner.write();
            for (client, predicates, tolerance) in requests {
                if !clients.contains_key(&client) {
                    results.push(Err(BrokerError::UnknownClient(client)));
                    continue;
                }
                // ordering: id allocation, atomicity only (as above).
                let id = SubId(self.next_sub.fetch_add(1, Ordering::Relaxed));
                owners.insert(id, client);
                accepted.push((Subscription::new(id, predicates), tolerance));
                results.push(Ok(id));
            }
        }
        self.matcher.subscribe_batch(accepted);
        results
    }

    /// Removes a subscription; only its owner may do so.
    pub fn unsubscribe(&self, client: ClientId, sub: SubId) -> Result<bool, BrokerError> {
        match self.sub_owner.read().get(&sub) {
            Some(owner) if *owner != client => {
                return Err(BrokerError::NotOwner { client, sub });
            }
            None => return Ok(false),
            Some(_) => {}
        }
        // Matcher first, owner table second — the reverse order would let
        // a concurrent publish match the subscription after its owner
        // entry vanished, silently dropping the notification. This way a
        // publish that matched before the matcher removal still finds the
        // owner; once the matcher removal returns, no new match can
        // reference it. The remaining window (matched before the removal,
        // notified after both removals) is inherent
        // to concurrent unsubscription and is *counted* by
        // `notify_matches` instead of skipped silently (see
        // [`Broker::orphaned_matches`]).
        let existed = self.matcher.unsubscribe(sub).is_some();
        self.sub_owner.write().remove(&sub);
        Ok(existed)
    }

    /// Removes every subscription owned by `client` in one matcher
    /// control mutation ([`SToPSS::unsubscribe_batch`]), returning how
    /// many were dropped. Same matcher-first ordering (and the same
    /// inherent already-matched window, counted by
    /// [`Broker::orphaned_matches`]) as [`Broker::unsubscribe`]. This is
    /// the session-retirement path of the networked broker: a closed
    /// session-less connection, or a session past its TTL, surrenders its
    /// subscriptions instead of orphaning every future match.
    pub fn unsubscribe_all(&self, client: ClientId) -> usize {
        let owned: Vec<SubId> = self
            .sub_owner
            .read()
            .iter()
            .filter_map(|(sub, owner)| (*owner == client).then_some(*sub))
            .collect();
        self.matcher.unsubscribe_batch(&owned);
        let mut owners = self.sub_owner.write();
        for sub in &owned {
            owners.remove(sub);
        }
        owned.len()
    }

    /// Publishes an event: matches it and delivers one notification per
    /// matched subscription before returning. Returns the number of
    /// matches.
    ///
    /// Publishers take no broker-side lock at all, only the matcher's
    /// mutex, for the whole match: concurrent publishers take turns there,
    /// and wait while a control-plane mutation runs.
    pub fn publish(&self, event: &Event) -> usize {
        let matches = self.matcher.publish(event);
        self.notify_matches(event, &matches);
        matches.len()
    }

    /// Hands one publication's notifications to the notification engine:
    /// one transport lock for the whole publication, every delivery
    /// finished (and the batchers flushed) before this returns.
    fn notify_matches(&self, event: &Event, matches: &[Match]) {
        if matches.is_empty() {
            return;
        }
        let clients = self.clients.read();
        let owners = self.sub_owner.read();
        let rendered = self.interner.with(|i| format!("event {}", event.display(i)));
        let deliveries = matches.iter().filter_map(|m| {
            // A miss on either lookup: the subscription was matched by an
            // in-flight publish and unsubscribed (or its client dropped)
            // before this notification was handed over.
            let Some((owner, info)) =
                owners.get(&m.sub).and_then(|owner| clients.get(owner).map(|info| (owner, info)))
            else {
                // ordering: monotone conservation counter (matches_seen ==
                // orphaned + delivered); adds commute, no paired state.
                self.orphaned_matches.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let payload = format!(
                "to {} [{}]: {} matched via {} — {}",
                info.name, owner, m.sub, m.origin, rendered
            );
            Some((info.transport, Delivery { client: *owner, payload }))
        });
        self.notifier.deliver_all(deliveries);
    }

    /// Matches whose notification was dropped because the owning
    /// subscription disappeared between matching and notification (a
    /// publish racing an unsubscribe). Zero in the absence of concurrent
    /// unsubscription.
    pub fn orphaned_matches(&self) -> u64 {
        // ordering: monotone counter snapshot; no paired state.
        self.orphaned_matches.load(Ordering::Relaxed)
    }

    /// Switches between semantic and syntactic mode ("the application can
    /// run in two different modes", §4). The stage switch is one control
    /// mutation inside the matcher; publications in flight finish under
    /// the old mode. Semantic mode restores the last semantic stage mask, so a
    /// broker that has only ever been configured syntactically stays
    /// syntactic.
    pub fn set_semantic_mode(&self, semantic: bool) {
        let restore = self.semantic_stages.lock();
        let stages = if semantic { *restore } else { StageMask::syntactic() };
        if self.matcher.config().stages != stages {
            self.matcher.set_stages(stages);
        }
    }

    /// True if the broker currently matches semantically: read off the
    /// matcher's own stage mask.
    pub fn is_semantic(&self) -> bool {
        !self.matcher.config().stages.is_syntactic()
    }

    /// Reconfigures the live matcher (engine, stages, …) between
    /// publications — subscriptions survive and are re-indexed inside one
    /// control mutation. A semantic configuration also becomes the mask that
    /// [`Broker::set_semantic_mode`] restores.
    pub fn reconfigure_matcher(&self, config: Config) {
        let mut restore = self.semantic_stages.lock();
        if !config.stages.is_syntactic() {
            *restore = config.stages;
        }
        self.matcher.reconfigure(config);
    }

    /// Replaces the semantic source (ontology) live — the evolution
    /// scenario the paper defers: new synonyms, taxonomy growth, or
    /// changed mapping functions take effect for every later publication,
    /// while in-flight publications finish against the ontology they
    /// started under.
    pub fn set_ontology(&self, source: Arc<dyn SemanticSource>) {
        self.matcher.set_source(source);
    }

    /// The semantic source the matcher is currently resolving against.
    /// Combined with [`SemanticSource::as_ontology`] this is the read
    /// side of live evolution: clone the running ontology, apply a
    /// delta, hand the fork back to [`Broker::set_ontology`].
    pub fn semantic_source(&self) -> Arc<dyn SemanticSource> {
        self.matcher.source()
    }

    /// Matcher counters.
    pub fn matcher_stats(&self) -> MatcherStats {
        self.matcher.stats()
    }

    /// Notification counters: a live snapshot of the engine's.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.notifier.stats()
    }

    /// Receiving-end inbox of a simulated transport.
    pub fn inbox(&self, kind: TransportKind) -> Option<Inbox> {
        self.inboxes.get(&kind).cloned()
    }

    /// Stops the notification engine and returns the final delivery
    /// statistics.
    pub fn shutdown(self) -> DeliveryStats {
        self.notifier.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_types::{Interner, Operator, SubscriptionBuilder};
    use stopss_workload::JobFinderDomain;

    fn jobs_broker(config: BrokerConfig) -> (Broker, SharedInterner) {
        let mut interner = Interner::new();
        let domain = JobFinderDomain::build(&mut interner);
        let shared = SharedInterner::from_interner(interner);
        let broker = Broker::new(config, Arc::new(domain.ontology), shared.clone());
        (broker, shared)
    }

    fn recruiter_predicates(interner: &SharedInterner) -> Vec<Predicate> {
        let mut snapshot = interner.snapshot();
        let sub = SubscriptionBuilder::new(&mut snapshot)
            .term_eq("university", "uoft")
            .pred("professional experience", Operator::Ge, 4i64)
            .build(SubId(0));
        for (_, s) in snapshot.iter() {
            interner.intern(s);
        }
        sub.predicates().to_vec()
    }

    fn candidate_event(interner: &SharedInterner) -> Event {
        let mut snapshot = interner.snapshot();
        let event = stopss_types::EventBuilder::new(&mut snapshot)
            .term("school", "uoft")
            .pair("graduation year", 1993i64)
            .build();
        for (_, s) in snapshot.iter() {
            interner.intern(s);
        }
        event
    }

    #[test]
    fn end_to_end_match_delivers_notification() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let sub = broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        let matches = broker.publish(&candidate_event(&interner));
        assert_eq!(matches, 1);
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 1);
        assert!(sub.0 > 0);
    }

    #[test]
    fn notification_payload_names_the_match() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let sub = broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        broker.publish(&candidate_event(&interner));
        let inbox = broker.inbox(TransportKind::Tcp).unwrap();
        let _ = broker.shutdown();
        let messages = inbox.lock();
        assert_eq!(messages.len(), 1);
        let payload = &messages[0].payload;
        assert!(payload.contains("acme"), "{payload}");
        assert!(payload.contains(&sub.to_string()), "{payload}");
        assert!(payload.contains("mapping"), "the paper flow matches via mapping: {payload}");
        assert!(payload.contains("(school, uoft)"), "{payload}");
    }

    #[test]
    fn syntactic_mode_suppresses_semantic_matches() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert!(broker.is_semantic());
        broker.set_semantic_mode(false);
        assert!(!broker.is_semantic());
        assert_eq!(broker.publish(&candidate_event(&interner)), 0);
        broker.set_semantic_mode(true);
        assert_eq!(broker.publish(&candidate_event(&interner)), 1);
    }

    /// A subscription made in syntactic mode names no tolerance of its own,
    /// so it matches semantically again once semantic mode returns.
    #[test]
    fn subscription_made_in_syntactic_mode_matches_in_semantic_mode() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.set_semantic_mode(false);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert_eq!(broker.publish(&candidate_event(&interner)), 0);
        broker.set_semantic_mode(true);
        assert_eq!(broker.publish(&candidate_event(&interner)), 1, "the paper flow matches");
    }

    /// A broker configured syntactic has no semantic mask to restore:
    /// semantic mode leaves it syntactic, and `is_semantic` says so.
    #[test]
    fn semantic_mode_without_a_semantic_mask_stays_syntactic() {
        let matcher = Config::default().with_stages(StageMask::syntactic());
        let (broker, interner) = jobs_broker(BrokerConfig { matcher, ..Default::default() });
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert!(!broker.is_semantic());
        broker.set_semantic_mode(true);
        assert!(!broker.is_semantic(), "there is no semantic mask to restore");
        assert_eq!(broker.publish(&candidate_event(&interner)), 0, "matching stays syntactic");
        broker.reconfigure_matcher(Config::default());
        assert!(broker.is_semantic(), "a semantic configuration switches it on");
        broker.set_semantic_mode(false);
        assert!(!broker.is_semantic());
        broker.set_semantic_mode(true);
        assert!(broker.is_semantic(), "and becomes the mask semantic mode restores");
    }

    #[test]
    fn ownership_is_enforced() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let alice = broker.register_client("alice", TransportKind::Tcp);
        let bob = broker.register_client("bob", TransportKind::Udp);
        let sub = broker.subscribe(alice, recruiter_predicates(&interner)).unwrap();
        assert_eq!(broker.unsubscribe(bob, sub), Err(BrokerError::NotOwner { client: bob, sub }));
        assert_eq!(broker.unsubscribe(alice, sub), Ok(true));
        assert_eq!(broker.unsubscribe(alice, sub), Ok(false), "already gone");
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn unknown_client_cannot_subscribe() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let err = broker.subscribe(ClientId(999), recruiter_predicates(&interner)).unwrap_err();
        assert_eq!(err, BrokerError::UnknownClient(ClientId(999)));
    }

    #[test]
    fn notifications_route_per_client_transport() {
        let (broker, interner) = jobs_broker(BrokerConfig { udp_loss: 0.0, ..Default::default() });
        let tcp_client = broker.register_client("tcp-co", TransportKind::Tcp);
        let udp_client = broker.register_client("udp-co", TransportKind::Udp);
        let preds = recruiter_predicates(&interner);
        broker.subscribe(tcp_client, preds.clone()).unwrap();
        broker.subscribe(udp_client, preds).unwrap();
        assert_eq!(broker.publish(&candidate_event(&interner)), 2);
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 1);
        assert_eq!(stats.get(TransportKind::Udp).delivered, 1);
    }

    #[test]
    fn consecutive_publishes_notify_per_event() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        let event = candidate_event(&interner);
        let matches: usize = (0..3).map(|_| broker.publish(&event)).sum();
        assert_eq!(matches, 3);
        assert_eq!(broker.matcher_stats().published, 3);
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 3);
    }

    /// A live ontology edit between publications — the evolution scenario
    /// the paper defers. A new synonym installed via `set_ontology` must
    /// change matching for the next publication.
    #[test]
    fn live_ontology_edit_changes_matching_between_publications() {
        let mut interner = Interner::new();
        let domain = JobFinderDomain::build(&mut interner);
        let academy = interner.intern("academy");
        let university = interner.intern("university");
        let shared = SharedInterner::from_interner(interner);
        let base = domain.ontology;
        let broker = Broker::new(BrokerConfig::default(), Arc::new(base.clone()), shared.clone());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&shared)).unwrap();

        let mut snapshot = shared.snapshot();
        let event = stopss_types::EventBuilder::new(&mut snapshot)
            .term("academy", "uoft")
            .pair("graduation year", 1993i64)
            .build();
        for (_, s) in snapshot.iter() {
            shared.intern(s);
        }
        assert_eq!(broker.publish(&event), 0, "'academy' is not a known synonym yet");

        let mut evolved = base;
        shared.with(|i| evolved.synonyms.add_synonym(university, academy, i)).unwrap();
        broker.set_ontology(Arc::new(evolved));

        assert_eq!(broker.publish(&event), 1, "the live edit matches the next publication");
        let _ = broker.shutdown();
    }

    /// A live reconfiguration through the broker (here: the tier cache off,
    /// so every candidate takes the oracle path) preserves the
    /// subscription set and keeps matching.
    #[test]
    fn reconfigure_matcher_preserves_subscriptions() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert_eq!(broker.publish(&candidate_event(&interner)), 1);
        broker.reconfigure_matcher(Config::default().with_provenance(false));
        assert!(!broker.matcher.config().track_provenance);
        assert_eq!(broker.subscription_count(), 1, "subscriptions survive the re-index");
        assert_eq!(broker.publish(&candidate_event(&interner)), 1, "and still match");
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 2);
    }

    /// A match whose owner entry vanished between matching and
    /// notification is counted, not silently skipped.
    #[test]
    fn orphaned_matches_are_counted_not_skipped() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let sub = broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        let event = candidate_event(&interner);
        // Match while the subscription is live (not yet notified)…
        let matches = broker.matcher.publish(&event);
        assert_eq!(matches.len(), 1);
        // …then lose the owner entry before notification, as a concurrent
        // unsubscribe interleaving would.
        assert_eq!(broker.unsubscribe(company, sub), Ok(true));
        assert_eq!(broker.orphaned_matches(), 0);
        broker.notify_matches(&event, &matches);
        assert_eq!(broker.orphaned_matches(), 1, "the dropped notification is accounted");
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 0, "nothing was delivered");
    }

    /// Unsubscribe removes from the matcher *before* the owner table, so
    /// no publish serialized after the matcher removal can produce an
    /// unroutable match.
    #[test]
    fn unsubscribe_then_publish_finds_nothing_and_orphans_nothing() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let sub = broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert_eq!(broker.unsubscribe(company, sub), Ok(true));
        assert_eq!(broker.publish(&candidate_event(&interner)), 0);
        assert_eq!(broker.orphaned_matches(), 0);
        let _ = broker.shutdown();
    }

    /// Delivery runs inside `publish`: the moment it returns `n`, the
    /// engine has attempted exactly `n` more deliveries — no shutdown, no
    /// waiting.
    #[test]
    fn publish_returns_with_its_deliveries_attempted() {
        let (broker, interner) = jobs_broker(BrokerConfig { udp_loss: 0.0, ..Default::default() });
        let preds = recruiter_predicates(&interner);
        for (name, kind) in [("acme", TransportKind::Tcp), ("mailco", TransportKind::Smtp)] {
            let client = broker.register_client(name, kind);
            broker.subscribe(client, preds.clone()).unwrap();
        }
        let event = candidate_event(&interner);
        for round in 1..=3u64 {
            let before = broker.delivery_stats().total_attempted();
            let n = broker.publish(&event) as u64;
            assert_eq!(n, 2);
            assert_eq!(broker.delivery_stats().total_attempted(), before + n, "round {round}");
            let mail = broker.inbox(TransportKind::Smtp).unwrap();
            assert_eq!(mail.lock().len() as u64, round, "the batcher flushed per publication");
        }
        let _ = broker.shutdown();
    }

    /// Dropping a client leaves its subscriptions matching, and their
    /// notifications land in the orphaned accounting instead of vanishing.
    #[test]
    fn unregistered_client_matches_become_orphans() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        assert!(broker.unregister_client(company));
        assert!(!broker.unregister_client(company), "already gone");
        assert_eq!(broker.publish(&candidate_event(&interner)), 1, "subscription stays live");
        assert_eq!(broker.orphaned_matches(), 1);
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 0);
    }

    /// Retiring a client surrenders all its subscriptions in one matcher
    /// control mutation, whatever their number, and leaves other owners
    /// untouched.
    #[test]
    fn unsubscribe_all_is_one_control_mutation() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let other = broker.register_client("globex", TransportKind::Tcp);
        for _ in 0..3 {
            broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        }
        broker.subscribe(other, recruiter_predicates(&interner)).unwrap();
        let before = broker.matcher_control_epoch();
        assert_eq!(broker.unsubscribe_all(company), 3);
        assert_eq!(broker.matcher_control_epoch(), before + 1, "one mutation per retirement");
        assert_eq!(broker.subscription_count(), 1);
        assert_eq!(broker.unsubscribe_all(company), 0);
        assert_eq!(broker.matcher_control_epoch(), before + 1, "nothing owned, nothing mutated");
        assert_eq!(broker.publish(&candidate_event(&interner)), 1, "the other owner still matches");
        broker.shutdown();
    }

    /// A batched subscribe and a retirement are one control mutation
    /// each.
    #[test]
    fn batch_subscribe_and_retire_run_in_place() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        let before = broker.matcher_control_epoch();
        let requests = (0..3).map(|_| (company, recruiter_predicates(&interner), None)).collect();
        assert!(broker.subscribe_batch(requests).iter().all(Result::is_ok));
        assert_eq!(broker.publish(&candidate_event(&interner)), 3);
        assert_eq!(broker.unsubscribe_all(company), 3);
        assert_eq!(broker.matcher_control_epoch(), before + 2, "one mutation per call");
        broker.shutdown();
    }

    #[test]
    fn concurrent_publishers_are_serialized_safely() {
        let (broker, interner) = jobs_broker(BrokerConfig::default());
        let company = broker.register_client("acme", TransportKind::Tcp);
        broker.subscribe(company, recruiter_predicates(&interner)).unwrap();
        let broker = Arc::new(broker);
        let event = candidate_event(&interner);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let broker = broker.clone();
                let event = event.clone();
                std::thread::spawn(move || (0..25).map(|_| broker.publish(&event)).sum::<usize>())
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
        assert_eq!(broker.matcher_stats().published, 100);
        let broker = Arc::try_unwrap(broker).ok().expect("sole owner");
        let stats = broker.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 100);
    }

    /// Control ops run concurrently with publishers — no broker-side
    /// matcher lock exists to stall them. Publishers race a
    /// subscribe/unsubscribe churn thread; every match produced must be
    /// either delivered, failed or orphaned — never silently lost — and a
    /// concurrent poller never sees the attempted-delivery total go
    /// backwards.
    #[test]
    fn control_ops_run_concurrently_with_publishers() {
        let (broker, interner) = jobs_broker(BrokerConfig { udp_loss: 0.0, ..Default::default() });
        let anchor_client = broker.register_client("anchor", TransportKind::Tcp);
        broker.subscribe(anchor_client, recruiter_predicates(&interner)).unwrap();
        let broker = Arc::new(broker);
        let event = candidate_event(&interner);

        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let broker = broker.clone();
                let event = event.clone();
                std::thread::spawn(move || (0..40).map(|_| broker.publish(&event)).sum::<usize>())
            })
            .collect();
        let churner = {
            let broker = broker.clone();
            let preds = recruiter_predicates(&interner);
            std::thread::spawn(move || {
                let client = broker.register_client("churn", TransportKind::Tcp);
                for _ in 0..20 {
                    let sub = broker.subscribe(client, preds.clone()).unwrap();
                    assert_eq!(broker.unsubscribe(client, sub), Ok(true));
                }
            })
        };
        let poller = {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut prev = 0u64;
                for _ in 0..200 {
                    let seen = broker.delivery_stats().total_attempted();
                    assert!(seen >= prev, "attempted deliveries went backwards ({prev} -> {seen})");
                    prev = seen;
                }
            })
        };

        let matches: usize = publishers.into_iter().map(|h| h.join().unwrap()).sum();
        churner.join().unwrap();
        poller.join().unwrap();
        assert!(matches >= 80, "the anchor matches every publish");
        let orphaned = broker.orphaned_matches();
        let broker = Arc::try_unwrap(broker).ok().expect("sole owner");
        let stats = broker.shutdown();
        assert_eq!(
            stats.total_delivered() + stats.total_failures() + orphaned,
            matches as u64,
            "zero orphaned-match undercount"
        );
    }
}
