//! Simulated notification transports.
//!
//! Figure 2 of the paper shows the notification engine fanning out over
//! SMS, TCP, UDP and SMTP. Real network endpoints would make the
//! demonstration non-reproducible, so each transport is simulated
//! in-memory *with its characteristic failure mode preserved*:
//!
//! * [`TcpSim`] — reliable, ordered, never drops;
//! * [`UdpSim`] — fire-and-forget with seeded, deterministic loss;
//! * [`SmsSim`] — token-bucket rate limiting and 160-character payload
//!   truncation;
//! * [`SmtpSim`] — mailbox batching: messages accumulate per client and
//!   are sent as one "email" per flush.
//!
//! Everything downstream (queueing, retries, per-transport accounting)
//! exercises the same code paths a networked deployment would.

use stopss_types::sync::{Arc, Mutex};

use crate::client::ClientId;
// The broker sits below the workload crate in the experiment stack, so it
// takes the deterministic PCG32 from the shared bottom layer —
// `stopss_workload::rng` re-exports this same implementation.
use stopss_types::rng::Rng;

/// The transport families of the demo setup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Reliable stream.
    Tcp,
    /// Lossy datagrams.
    Udp,
    /// Batched mail.
    Smtp,
    /// Rate-limited short messages.
    Sms,
}

impl TransportKind {
    /// All kinds, for sweeps and round-robin assignment.
    pub const ALL: [TransportKind; 4] =
        [TransportKind::Tcp, TransportKind::Udp, TransportKind::Smtp, TransportKind::Sms];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Udp => "udp",
            TransportKind::Smtp => "smtp",
            TransportKind::Sms => "sms",
        }
    }
}

/// A notification rendered for delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Destination client.
    pub client: ClientId,
    /// Rendered payload.
    pub payload: String,
}

/// Why a delivery attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The message was lost (no retry will help — datagram semantics).
    Lost,
    /// Temporarily over the rate limit (retrying after a window helps).
    RateLimited,
}

/// A message observed at the receiving end of a simulated transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// Destination client.
    pub client: ClientId,
    /// Payload as the receiver saw it (possibly truncated or batched).
    pub payload: String,
}

/// Shared inbox handle for inspecting what a transport delivered.
pub type Inbox = Arc<Mutex<Vec<ReceivedMessage>>>;

/// A notification transport.
pub trait Transport: Send {
    /// Transport family.
    fn kind(&self) -> TransportKind;

    /// Attempts one delivery.
    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError>;

    /// Called by the engine between retry attempts; rate-limited
    /// transports refill their budget here.
    fn tick(&mut self) {}

    /// Flushes any buffered messages (batching transports).
    fn flush(&mut self) {}
}

/// Reliable, ordered delivery.
pub struct TcpSim {
    inbox: Inbox,
}

impl TcpSim {
    /// Creates the transport and returns it with its inbox.
    pub fn new() -> (Self, Inbox) {
        let inbox: Inbox = Arc::default();
        (TcpSim::with_inbox(inbox.clone()), inbox)
    }

    /// Creates the transport over an existing inbox, so the receiving
    /// end can be built, and handed out, before the transport.
    pub fn with_inbox(inbox: Inbox) -> Self {
        TcpSim { inbox }
    }
}

impl Transport for TcpSim {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        self.inbox
            .lock()
            .push(ReceivedMessage { client: delivery.client, payload: delivery.payload.clone() });
        Ok(())
    }
}

/// Fire-and-forget datagrams with seeded loss.
pub struct UdpSim {
    inbox: Inbox,
    rng: Rng,
    loss_probability: f64,
}

impl UdpSim {
    /// Creates the transport with the given deterministic loss rate.
    pub fn new(loss_probability: f64, seed: u64) -> (Self, Inbox) {
        let inbox: Inbox = Arc::default();
        (UdpSim::with_inbox(loss_probability, seed, inbox.clone()), inbox)
    }

    /// Creates the transport over an existing inbox.
    pub fn with_inbox(loss_probability: f64, seed: u64, inbox: Inbox) -> Self {
        UdpSim { inbox, rng: Rng::new(seed), loss_probability }
    }
}

impl Transport for UdpSim {
    fn kind(&self) -> TransportKind {
        TransportKind::Udp
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        if self.rng.chance(self.loss_probability) {
            return Err(TransportError::Lost);
        }
        self.inbox
            .lock()
            .push(ReceivedMessage { client: delivery.client, payload: delivery.payload.clone() });
        Ok(())
    }
}

/// SMS payload limit (classic GSM single-segment).
pub const SMS_MAX_CHARS: usize = 160;

/// Rate-limited, truncating short messages.
pub struct SmsSim {
    inbox: Inbox,
    /// Remaining sends in the current window.
    tokens: u32,
    /// Window budget restored by `tick`.
    budget: u32,
    truncated: u64,
}

impl SmsSim {
    /// Creates the transport with `budget` messages per rate window.
    pub fn new(budget: u32) -> (Self, Inbox) {
        let inbox: Inbox = Arc::default();
        (SmsSim::with_inbox(budget, inbox.clone()), inbox)
    }

    /// Creates the transport over an existing inbox.
    pub fn with_inbox(budget: u32, inbox: Inbox) -> Self {
        SmsSim { inbox, tokens: budget, budget, truncated: 0 }
    }

    /// Number of payloads clipped to [`SMS_MAX_CHARS`].
    pub fn truncated_count(&self) -> u64 {
        self.truncated
    }
}

impl Transport for SmsSim {
    fn kind(&self) -> TransportKind {
        TransportKind::Sms
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        if self.tokens == 0 {
            return Err(TransportError::RateLimited);
        }
        self.tokens -= 1;
        let payload = if delivery.payload.chars().count() > SMS_MAX_CHARS {
            self.truncated += 1;
            delivery.payload.chars().take(SMS_MAX_CHARS).collect()
        } else {
            delivery.payload.clone()
        };
        self.inbox.lock().push(ReceivedMessage { client: delivery.client, payload });
        Ok(())
    }

    fn tick(&mut self) {
        self.tokens = self.budget;
    }
}

/// Batched mail: deliveries accumulate per client until `flush`.
pub struct SmtpSim {
    inbox: Inbox,
    pending: Vec<(ClientId, Vec<String>)>,
    batches_sent: u64,
}

impl SmtpSim {
    /// Creates the transport.
    pub fn new() -> (Self, Inbox) {
        let inbox: Inbox = Arc::default();
        (SmtpSim::with_inbox(inbox.clone()), inbox)
    }

    /// Creates the transport over an existing inbox.
    pub fn with_inbox(inbox: Inbox) -> Self {
        SmtpSim { inbox, pending: Vec::new(), batches_sent: 0 }
    }

    /// Number of batch emails sent.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }
}

impl Transport for SmtpSim {
    fn kind(&self) -> TransportKind {
        TransportKind::Smtp
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        match self.pending.iter_mut().find(|(c, _)| *c == delivery.client) {
            Some((_, msgs)) => msgs.push(delivery.payload.clone()),
            None => self.pending.push((delivery.client, vec![delivery.payload.clone()])),
        }
        Ok(())
    }

    fn flush(&mut self) {
        let mut inbox = self.inbox.lock();
        for (client, messages) in self.pending.drain(..) {
            self.batches_sent += 1;
            inbox.push(ReceivedMessage { client, payload: messages.join("\n") });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(client: u64, payload: &str) -> Delivery {
        Delivery { client: ClientId(client), payload: payload.to_owned() }
    }

    #[test]
    fn tcp_is_reliable_and_ordered() {
        let (mut tcp, inbox) = TcpSim::new();
        for k in 0..10 {
            tcp.deliver(&delivery(1, &format!("msg{k}"))).unwrap();
        }
        let got = inbox.lock();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].payload, "msg0");
        assert_eq!(got[9].payload, "msg9");
    }

    #[test]
    fn udp_drops_deterministically() {
        let (mut udp, inbox) = UdpSim::new(0.5, 42);
        let mut lost = 0;
        for k in 0..1_000 {
            if udp.deliver(&delivery(1, &format!("m{k}"))).is_err() {
                lost += 1;
            }
        }
        assert!((380..620).contains(&lost), "≈50% loss, got {lost}");
        assert_eq!(inbox.lock().len(), 1_000 - lost);
        // Determinism: same seed, same losses.
        let (mut udp2, _inbox2) = UdpSim::new(0.5, 42);
        let mut lost2 = 0;
        for k in 0..1_000 {
            if udp2.deliver(&delivery(1, &format!("m{k}"))).is_err() {
                lost2 += 1;
            }
        }
        assert_eq!(lost, lost2);
    }

    #[test]
    fn udp_with_zero_loss_never_drops() {
        let (mut udp, inbox) = UdpSim::new(0.0, 1);
        for k in 0..100 {
            udp.deliver(&delivery(1, &format!("m{k}"))).unwrap();
        }
        assert_eq!(inbox.lock().len(), 100);
    }

    #[test]
    fn sms_rate_limits_until_tick() {
        let (mut sms, inbox) = SmsSim::new(2);
        sms.deliver(&delivery(1, "a")).unwrap();
        sms.deliver(&delivery(1, "b")).unwrap();
        assert_eq!(sms.deliver(&delivery(1, "c")), Err(TransportError::RateLimited));
        sms.tick();
        sms.deliver(&delivery(1, "c")).unwrap();
        assert_eq!(inbox.lock().len(), 3);
    }

    #[test]
    fn sms_truncates_long_payloads() {
        let (mut sms, inbox) = SmsSim::new(10);
        let long = "x".repeat(500);
        sms.deliver(&delivery(1, &long)).unwrap();
        assert_eq!(inbox.lock()[0].payload.chars().count(), SMS_MAX_CHARS);
        assert_eq!(sms.truncated_count(), 1);
        sms.deliver(&delivery(1, "short")).unwrap();
        assert_eq!(sms.truncated_count(), 1);
    }

    #[test]
    fn smtp_batches_per_client() {
        let (mut smtp, inbox) = SmtpSim::new();
        smtp.deliver(&delivery(1, "a")).unwrap();
        smtp.deliver(&delivery(2, "b")).unwrap();
        smtp.deliver(&delivery(1, "c")).unwrap();
        assert!(inbox.lock().is_empty(), "nothing before flush");
        smtp.flush();
        let got = inbox.lock();
        assert_eq!(got.len(), 2);
        let c1 = got.iter().find(|m| m.client == ClientId(1)).unwrap();
        assert_eq!(c1.payload, "a\nc");
        assert_eq!(smtp.batches_sent(), 2);
        drop(got);
        smtp.flush();
        assert_eq!(inbox.lock().len(), 2, "empty flush sends nothing");
    }

    #[test]
    fn kinds_have_names() {
        for kind in TransportKind::ALL {
            assert!(!kind.name().is_empty());
        }
    }
}
