//! # stopss-broker
//!
//! The demonstration runtime of the S-ToPSS paper (Figure 2): everything
//! around the matcher that turns it into a running publish/subscribe
//! service.
//!
//! * [`Broker`] — client registry, subscription ownership, publish →
//!   notify pipeline, semantic/syntactic mode switch;
//! * [`NotificationEngine`] — delivery over per-client transports, on the
//!   publishing thread;
//! * [`transport`] — simulated TCP / UDP / SMTP / SMS with their
//!   characteristic behaviours (loss, batching, rate limits, truncation);
//! * [`chaos`] — seeded fault injection (dropped connections, slow
//!   consumers, engine restarts) scored on delivery/ordering invariants;
//! * [`wire`] — the length-framed binary protocol of the demo front-end
//!   (normative spec: `docs/WIRE_PROTOCOL.md` at the repository root);
//! * [`DemoServer`] — the command surface standing in for the paper's web
//!   application;
//! * [`eventloop`] — the networked serving path: a readiness event loop
//!   ([`NetBroker`]) multiplexing many framed connections onto the broker
//!   core, with bounded outbound queues and an explicit
//!   [`BackpressurePolicy`];
//! * [`session`] — the resilience layer on top of it: sessions that
//!   survive the connection, bounded replay buffers, reconnect-with-
//!   resume ([`SessionClient`]), heartbeats, and TTL expiry with full
//!   accounting.
//!
//! The repository-level guides `docs/ARCHITECTURE.md` (system shape),
//! `docs/WIRE_PROTOCOL.md` (frame/message spec) and `docs/OPERATIONS.md`
//! (knob and benchmark reference) cover how these pieces fit together.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod dispatcher;
pub mod eventloop;
pub mod notify;
pub mod server;
pub mod session;
pub mod transport;
pub mod wire;

pub use chaos::{
    run_chaos, run_net_chaos, run_session_chaos, ChaosConfig, ChaosReport, FlakyTransport,
    NetChaosConfig, NetChaosReport, SessionChaosConfig, SessionChaosReport,
};
pub use client::{ClientId, ClientInfo};
pub use dispatcher::{Broker, BrokerConfig, BrokerError, TransportFactory};
pub use eventloop::{
    BackpressurePolicy, NetBroker, NetBrokerConfig, NetClient, NetStats, NetTransport,
};
pub use notify::{DeliveryStats, NotificationEngine, TransportStats};
pub use server::{subscription_to_wire, DemoServer};
pub use session::{SessionClient, SessionClientConfig, SessionClientStats, SessionConfig};
pub use transport::{
    Delivery, Inbox, ReceivedMessage, SmsSim, SmtpSim, TcpSim, Transport, TransportError,
    TransportKind, UdpSim, SMS_MAX_CHARS,
};
pub use wire::{
    decode_client, decode_server, encode_client, encode_server, try_read_frame,
    try_read_frame_bounded, write_frame, ClientMessage, ServerMessage, WireError, WirePredicate,
    WireValue, MAX_FRAME_LEN,
};
