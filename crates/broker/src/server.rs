//! The demo front-end.
//!
//! Stands in for the paper's "web-based application for client
//! registration and subscription/publication input" (§4): a command
//! handler over the wire protocol. The web UI was presentation; the
//! command surface underneath — register, subscribe, publish, switch
//! between semantic and syntactic mode — is reproduced verbatim and is
//! what the workload generator drives.

use bytes::{Bytes, BytesMut};
use stopss_types::{Event, Predicate, Subscription};

use crate::dispatcher::Broker;
use crate::notify::DeliveryStats;
use crate::wire::{
    decode_client, encode_server, ClientMessage, ServerMessage, WirePredicate, WireValue,
};

/// The demo server: decodes client commands and drives the broker.
pub struct DemoServer {
    broker: Broker,
}

impl DemoServer {
    /// Wraps a broker.
    pub fn new(broker: Broker) -> Self {
        DemoServer { broker }
    }

    /// The underlying broker (for inbox inspection and direct calls).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Handles one decoded command.
    pub fn handle(&self, msg: ClientMessage) -> ServerMessage {
        match msg {
            ClientMessage::Register { name, transport } => {
                let client = self.broker.register_client(name, transport);
                ServerMessage::Registered { client }
            }
            ClientMessage::Subscribe { client, predicates } => {
                let typed = self.intern_predicates(predicates);
                match self.broker.subscribe(client, typed) {
                    Ok(sub) => ServerMessage::Subscribed { sub },
                    Err(e) => ServerMessage::Error { message: e.to_string() },
                }
            }
            ClientMessage::Unsubscribe { client, sub } => {
                match self.broker.unsubscribe(client, sub) {
                    Ok(ok) => ServerMessage::Unsubscribed { ok },
                    Err(e) => ServerMessage::Error { message: e.to_string() },
                }
            }
            ClientMessage::Publish { client: _, pairs } => {
                let event = self.intern_event(pairs);
                let matches = self.broker.publish(&event) as u32;
                ServerMessage::Published { matches }
            }
            ClientMessage::SetMode { semantic } => {
                self.broker.set_semantic_mode(semantic);
                ServerMessage::ModeSet { semantic }
            }
            ClientMessage::SetOntology { synonyms } => self.apply_ontology_delta(synonyms),
            // Session frames are consumed by the networked event loop
            // before its serve phase; reaching the command handler means
            // the transport in use has no session layer.
            ClientMessage::Hello { .. }
            | ClientMessage::Ack { .. }
            | ClientMessage::Ping { .. } => ServerMessage::Error {
                message: "session frame on a transport without a session layer".into(),
            },
        }
    }

    /// Applies a live synonym delta: clones the running ontology, adds the
    /// pairs, swaps the fork in via [`Broker::set_ontology`]. Under the
    /// event-side strategies the swap re-indexes only the subscriptions
    /// that name a term whose synonym root changed (see
    /// [`stopss_core::SToPSS::set_source`]). Fails as an `Error` reply
    /// when the active source is not a single plain ontology (nothing is
    /// mutated in that case).
    fn apply_ontology_delta(&self, synonyms: Vec<(String, String)>) -> ServerMessage {
        let source = self.broker.semantic_source();
        let Some(base) = source.as_ontology() else {
            return ServerMessage::Error {
                message: "live ontology delta requires a single-domain ontology source".into(),
            };
        };
        let mut forked = base.clone();
        let interner = self.broker.interner().clone();
        for (canonical, alias) in synonyms {
            let root = interner.intern(&canonical);
            let alias = interner.intern(&alias);
            if let Err(e) = interner.with(|i| forked.synonyms.add_synonym(root, alias, i)) {
                return ServerMessage::Error { message: format!("bad synonym pair: {e}") };
            }
        }
        self.broker.set_ontology(stopss_types::sync::Arc::new(forked));
        ServerMessage::OntologyUpdated { epoch: self.broker.matcher_control_epoch() }
    }

    /// Handles a batch of decoded commands in arrival order, coalescing
    /// every **run of consecutive `Subscribe` messages** into one
    /// [`Broker::subscribe_batch`] call (one matcher control mutation for
    /// the whole run). Any other message acts as a barrier: the pending run is
    /// flushed first, so a `Publish` after a `Subscribe` observes the
    /// subscription exactly as it would under one-at-a-time handling.
    /// Replies are positional — the `k`-th reply answers the `k`-th
    /// message — and identical to what [`DemoServer::handle`] would
    /// produce for each message in sequence. This is the serving path the
    /// networked event loop uses for each poll turn's decoded frames.
    pub fn handle_batch(&self, msgs: Vec<ClientMessage>) -> Vec<ServerMessage> {
        let mut replies: Vec<ServerMessage> = Vec::with_capacity(msgs.len());
        // Pending run of Subscribe requests: broker-level request plus the
        // reply slot (pre-filled with a placeholder, overwritten at flush).
        let mut pending: Vec<(crate::client::ClientId, Vec<Predicate>, usize)> = Vec::new();
        let flush = |pending: &mut Vec<(crate::client::ClientId, Vec<Predicate>, usize)>,
                     replies: &mut Vec<ServerMessage>| {
            if pending.is_empty() {
                return;
            }
            let run = std::mem::take(pending);
            let slots: Vec<usize> = run.iter().map(|(_, _, slot)| *slot).collect();
            let requests = run.into_iter().map(|(c, p, _)| (c, p, None)).collect();
            for (slot, result) in slots.into_iter().zip(self.broker.subscribe_batch(requests)) {
                replies[slot] = match result {
                    Ok(sub) => ServerMessage::Subscribed { sub },
                    Err(e) => ServerMessage::Error { message: e.to_string() },
                };
            }
        };
        for msg in msgs {
            match msg {
                ClientMessage::Subscribe { client, predicates } => {
                    let typed = self.intern_predicates(predicates);
                    let slot = replies.len();
                    replies.push(ServerMessage::Error { message: "pending".into() });
                    pending.push((client, typed, slot));
                }
                other => {
                    flush(&mut pending, &mut replies);
                    replies.push(self.handle(other));
                }
            }
        }
        flush(&mut pending, &mut replies);
        replies
    }

    /// Handles one encoded frame payload; malformed input becomes an
    /// `Error` reply rather than a failure.
    pub fn handle_frame(&self, mut frame: Bytes) -> ServerMessage {
        match decode_client(&mut frame) {
            Ok(msg) => self.handle(msg),
            Err(e) => ServerMessage::Error { message: format!("bad request: {e}") },
        }
    }

    /// Convenience: handle a frame and encode the reply.
    pub fn handle_frame_encoded(&self, frame: Bytes) -> Bytes {
        let reply = self.handle_frame(frame);
        let mut buf = BytesMut::new();
        encode_server(&reply, &mut buf);
        buf.freeze()
    }

    /// Stops the broker, draining notifications.
    pub fn shutdown(self) -> DeliveryStats {
        self.broker.shutdown()
    }

    fn intern_predicates(&self, predicates: Vec<WirePredicate>) -> Vec<Predicate> {
        let interner = self.broker.interner().clone();
        predicates
            .into_iter()
            .map(|p| {
                let attr = interner.intern(&p.attr);
                let value = match p.value {
                    WireValue::Int(i) => stopss_types::Value::Int(i),
                    WireValue::Float(f) => stopss_types::Value::Float(f),
                    WireValue::Bool(b) => stopss_types::Value::Bool(b),
                    WireValue::Term(t) => stopss_types::Value::Sym(interner.intern(&t)),
                };
                Predicate::new(attr, p.op, value)
            })
            .collect()
    }

    fn intern_event(&self, pairs: Vec<(String, WireValue)>) -> Event {
        let interner = self.broker.interner().clone();
        pairs
            .into_iter()
            .map(|(attr, value)| {
                let attr = interner.intern(&attr);
                let value = match value {
                    WireValue::Int(i) => stopss_types::Value::Int(i),
                    WireValue::Float(f) => stopss_types::Value::Float(f),
                    WireValue::Bool(b) => stopss_types::Value::Bool(b),
                    WireValue::Term(t) => stopss_types::Value::Sym(interner.intern(&t)),
                };
                (attr, value)
            })
            .collect()
    }
}

/// Renders a subscription back to wire predicates (used by tooling/tests).
pub fn subscription_to_wire(
    sub: &Subscription,
    interner: &stopss_types::Interner,
) -> Vec<WirePredicate> {
    sub.predicates()
        .iter()
        .map(|p| WirePredicate {
            attr: interner.try_resolve(p.attr).unwrap_or("<?>").to_owned(),
            op: p.op,
            value: WireValue::from_value(&p.value, interner),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::BrokerConfig;
    use crate::transport::TransportKind;
    use crate::wire::encode_client;
    use std::sync::Arc;
    use stopss_types::{Interner, Operator, SharedInterner};
    use stopss_workload::JobFinderDomain;

    fn server() -> DemoServer {
        let mut interner = Interner::new();
        let domain = JobFinderDomain::build(&mut interner);
        let broker = Broker::new(
            BrokerConfig::default(),
            Arc::new(domain.ontology),
            SharedInterner::from_interner(interner),
        );
        DemoServer::new(broker)
    }

    fn register(server: &DemoServer, name: &str) -> crate::client::ClientId {
        match server
            .handle(ClientMessage::Register { name: name.into(), transport: TransportKind::Tcp })
        {
            ServerMessage::Registered { client } => client,
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// The full paper flow, §1: recruiter subscribes, candidate publishes,
    /// the semantic mode matches and the syntactic mode does not.
    #[test]
    fn paper_demo_flow_over_the_wire() {
        let server = server();
        let company = register(&server, "acme");
        let candidate = register(&server, "alice");

        let subscribe = ClientMessage::Subscribe {
            client: company,
            predicates: vec![
                WirePredicate {
                    attr: "university".into(),
                    op: Operator::Eq,
                    value: WireValue::Term("uoft".into()),
                },
                WirePredicate {
                    attr: "degree".into(),
                    op: Operator::Eq,
                    value: WireValue::Term("phd".into()),
                },
                WirePredicate {
                    attr: "professional experience".into(),
                    op: Operator::Ge,
                    value: WireValue::Int(4),
                },
            ],
        };
        assert!(matches!(server.handle(subscribe), ServerMessage::Subscribed { .. }));

        // E: (school, uoft)(degree, phd)(work experience, …)(graduation year, 1990)
        let publish = ClientMessage::Publish {
            client: candidate,
            pairs: vec![
                ("school".into(), WireValue::Term("uoft".into())),
                ("degree".into(), WireValue::Term("phd".into())),
                ("graduation year".into(), WireValue::Int(1990)),
            ],
        };
        assert_eq!(server.handle(publish.clone()), ServerMessage::Published { matches: 1 });

        // Syntactic mode: "school" is not "university" and there is no
        // professional-experience attribute at all.
        server.handle(ClientMessage::SetMode { semantic: false });
        assert_eq!(server.handle(publish.clone()), ServerMessage::Published { matches: 0 });
        server.handle(ClientMessage::SetMode { semantic: true });
        assert_eq!(server.handle(publish), ServerMessage::Published { matches: 1 });
    }

    #[test]
    fn frames_decode_and_errors_are_replies() {
        let server = server();
        let mut buf = BytesMut::new();
        encode_client(
            &ClientMessage::Register { name: "x".into(), transport: TransportKind::Sms },
            &mut buf,
        );
        let reply = server.handle_frame(buf.freeze());
        assert!(matches!(reply, ServerMessage::Registered { .. }));

        let garbage = Bytes::from_static(&[0xDE, 0xAD]);
        let reply = server.handle_frame(garbage);
        assert!(matches!(reply, ServerMessage::Error { .. }));
    }

    #[test]
    fn handle_frame_encoded_roundtrips() {
        let server = server();
        let mut buf = BytesMut::new();
        encode_client(
            &ClientMessage::Register { name: "x".into(), transport: TransportKind::Udp },
            &mut buf,
        );
        let mut reply = server.handle_frame_encoded(buf.freeze());
        let decoded = crate::wire::decode_server(&mut reply).unwrap();
        assert!(matches!(decoded, ServerMessage::Registered { .. }));
    }

    #[test]
    fn subscribe_for_unknown_client_is_an_error_reply() {
        let server = server();
        let reply = server.handle(ClientMessage::Subscribe {
            client: crate::client::ClientId(404),
            predicates: vec![],
        });
        assert!(matches!(reply, ServerMessage::Error { .. }));
    }

    #[test]
    fn handle_batch_equals_sequential_handling() {
        let batch_server = server();
        let seq_server = server();
        let uni = |who: &str| WirePredicate {
            attr: "university".into(),
            op: Operator::Eq,
            value: WireValue::Term(who.into()),
        };
        let script = |client: crate::client::ClientId| {
            vec![
                ClientMessage::Subscribe { client, predicates: vec![uni("uoft")] },
                ClientMessage::Subscribe { client, predicates: vec![uni("uoft")] },
                // Barrier: the publish must observe both subscriptions.
                ClientMessage::Publish {
                    client,
                    pairs: vec![("school".into(), WireValue::Term("uoft".into()))],
                },
                ClientMessage::Subscribe { client, predicates: vec![uni("mit")] },
                // Unknown client inside a run must reject positionally
                // without consuming a SubId for the good ones around it.
                ClientMessage::Subscribe {
                    client: crate::client::ClientId(404),
                    predicates: vec![uni("uoft")],
                },
                ClientMessage::Subscribe { client, predicates: vec![uni("uoft")] },
                ClientMessage::Publish {
                    client,
                    pairs: vec![("school".into(), WireValue::Term("uoft".into()))],
                },
            ]
        };
        let batch_client = register(&batch_server, "acme");
        let seq_client = register(&seq_server, "acme");
        let batched = batch_server.handle_batch(script(batch_client));
        let sequential: Vec<ServerMessage> =
            script(seq_client).into_iter().map(|m| seq_server.handle(m)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(batched[2], ServerMessage::Published { matches: 2 });
        assert_eq!(batched[6], ServerMessage::Published { matches: 3 });
        assert!(matches!(batched[4], ServerMessage::Error { .. }));
        assert!(batch_server.handle_batch(Vec::new()).is_empty());
    }

    #[test]
    fn subscription_to_wire_reverses_interning() {
        let server = server();
        let company = register(&server, "acme");
        let _ = company;
        let mut interner = Interner::new();
        let sub = stopss_types::SubscriptionBuilder::new(&mut interner)
            .term_eq("university", "uoft")
            .build(stopss_types::SubId(1));
        let wire = subscription_to_wire(&sub, &interner);
        assert_eq!(wire[0].attr, "university");
        assert_eq!(wire[0].value, WireValue::Term("uoft".into()));
    }
}
