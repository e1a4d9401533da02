//! The notification engine.
//!
//! "Our software demonstration presents a notification engine that can
//! send notifications to the clients using different transports" (§4).
//!
//! The engine runs on the publishing thread. Every transport sits behind
//! one lock: `NotificationEngine::deliver_all` hands a whole
//! publication's notifications to their transports under one acquisition
//! and then flushes the batching transports once, so a publication is the
//! unit of SMTP batching. Rate-limited failures are retried after a window
//! tick (windows open only on the retry path, keeping retry counts
//! deterministic); lost datagrams are counted and abandoned
//! (fire-and-forget semantics). Delivery finishes before the publish that
//! caused it returns, so the counters are exact at that moment and each
//! client receives its notifications in the order their publications
//! reached the engine.

use stopss_types::sync::Mutex;

use crate::transport::{Delivery, Transport, TransportError, TransportKind};

/// Snapshot of one transport's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Deliveries handed to the transport.
    pub attempted: u64,
    /// Successfully delivered (or buffered for batch send).
    pub delivered: u64,
    /// Lost in transit (UDP semantics).
    pub lost: u64,
    /// Retry attempts performed.
    pub retried: u64,
    /// Dropped after exhausting rate-limit retries.
    pub rate_dropped: u64,
}

/// Snapshot of the engine's counters across all transports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Per-transport stats in [`TransportKind::ALL`] order.
    pub per_transport: Vec<(TransportKind, TransportStats)>,
}

impl DeliveryStats {
    /// Stats for one transport kind.
    pub fn get(&self, kind: TransportKind) -> TransportStats {
        self.per_transport.iter().find(|(k, _)| *k == kind).map(|(_, s)| *s).unwrap_or_default()
    }

    /// Total deliveries attempted.
    pub fn total_attempted(&self) -> u64 {
        self.per_transport.iter().map(|(_, s)| s.attempted).sum()
    }

    /// Total deliveries that reached an inbox (or batch buffer).
    pub fn total_delivered(&self) -> u64 {
        self.per_transport.iter().map(|(_, s)| s.delivered).sum()
    }

    /// Total terminal failures: lost datagrams plus deliveries dropped
    /// after exhausting rate-limit retries. Every attempted delivery is
    /// either delivered or a failure: `total_attempted == total_delivered
    /// + total_failures` holds whenever no delivery call is running.
    pub fn total_failures(&self) -> u64 {
        self.per_transport.iter().map(|(_, s)| s.lost + s.rate_dropped).sum()
    }

    /// Folds another snapshot into this one (summing per-transport
    /// counters), keeping [`TransportKind::ALL`] order. Used to carry
    /// counters across notification-engine restarts.
    pub fn merge(&mut self, other: &DeliveryStats) {
        for (kind, stats) in &other.per_transport {
            match self.per_transport.iter_mut().find(|(k, _)| k == kind) {
                Some((_, mine)) => {
                    mine.attempted += stats.attempted;
                    mine.delivered += stats.delivered;
                    mine.lost += stats.lost;
                    mine.retried += stats.retried;
                    mine.rate_dropped += stats.rate_dropped;
                }
                None => self.per_transport.push((*kind, *stats)),
            }
        }
        self.per_transport
            .sort_by_key(|(kind, _)| TransportKind::ALL.iter().position(|k| k == kind));
    }
}

/// How many rate-limit retries before a delivery is abandoned.
const MAX_RETRIES: u32 = 3;

/// One configured transport and its counters.
struct Slot {
    transport: Box<dyn Transport>,
    stats: TransportStats,
}

impl Slot {
    /// Hands one delivery to the transport, ticking the rate window and
    /// retrying while it is rate-limited.
    fn process_one(&mut self, delivery: &Delivery) {
        let stats = &mut self.stats;
        // conservation: attempted == delivered + lost + rate_dropped
        stats.attempted += 1;
        let mut attempt = 0;
        loop {
            match self.transport.deliver(delivery) {
                Ok(()) => {
                    stats.delivered += 1;
                    return;
                }
                Err(TransportError::Lost) => {
                    stats.lost += 1;
                    return; // datagram semantics: no retry
                }
                Err(TransportError::RateLimited) => {
                    if attempt >= MAX_RETRIES {
                        stats.rate_dropped += 1;
                        return;
                    }
                    attempt += 1;
                    stats.retried += 1;
                    self.transport.tick(); // open the next rate window
                }
            }
        }
    }
}

/// The notification engine: the configured transports and their
/// counters, driven on the caller's thread.
pub struct NotificationEngine {
    /// Indexed by `TransportKind as usize`, which is
    /// [`TransportKind::ALL`] order; `None` for kinds not configured.
    slots: Mutex<[Option<Slot>; TransportKind::ALL.len()]>,
}

impl NotificationEngine {
    /// Starts the engine over the given transports (one per kind; kinds
    /// may be missing, deliveries to them are rejected by `enqueue`).
    pub fn start(transports: Vec<Box<dyn Transport>>) -> Self {
        let mut slots: [Option<Slot>; TransportKind::ALL.len()] = Default::default();
        for transport in transports {
            let kind = transport.kind() as usize;
            slots[kind] = Some(Slot { transport, stats: TransportStats::default() });
        }
        NotificationEngine { slots: Mutex::new(slots) }
    }

    /// Delivers one notification now and flushes the batching transports;
    /// returns false if the transport kind is not configured.
    pub fn enqueue(&self, kind: TransportKind, delivery: Delivery) -> bool {
        self.deliver_all([(kind, delivery)]) == 1
    }

    /// Delivers every `(kind, delivery)` in order under one acquisition of
    /// the transport lock, then flushes the batching transports once.
    /// Deliveries to unconfigured kinds are skipped; returns how many
    /// reached a configured transport.
    pub(crate) fn deliver_all(
        &self,
        deliveries: impl IntoIterator<Item = (TransportKind, Delivery)>,
    ) -> usize {
        let mut slots = self.slots.lock();
        let mut handed = 0;
        for (kind, delivery) in deliveries {
            if let Some(slot) = &mut slots[kind as usize] {
                slot.process_one(&delivery);
                handed += 1;
            }
        }
        for slot in slots.iter_mut().flatten() {
            slot.transport.flush();
        }
        handed
    }

    /// Current counter snapshot. Exact: a delivery call holds the lock
    /// until its last delivery is counted.
    pub fn stats(&self) -> DeliveryStats {
        let slots = self.slots.lock();
        let per_transport = TransportKind::ALL
            .into_iter()
            .zip(slots.iter())
            .filter_map(|(kind, slot)| slot.as_ref().map(|slot| (kind, slot.stats)))
            .collect();
        DeliveryStats { per_transport }
    }

    /// Flushes the batching transports one last time and returns the
    /// final stats.
    pub fn shutdown(self) -> DeliveryStats {
        self.deliver_all([]); // an empty batch only flushes
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientId;
    use crate::transport::{SmsSim, SmtpSim, TcpSim, UdpSim};

    fn delivery(client: u64, payload: &str) -> Delivery {
        Delivery { client: ClientId(client), payload: payload.to_owned() }
    }

    fn engine_with_all() -> (
        NotificationEngine,
        crate::transport::Inbox,
        crate::transport::Inbox,
        crate::transport::Inbox,
        crate::transport::Inbox,
    ) {
        let (tcp, tcp_inbox) = TcpSim::new();
        let (udp, udp_inbox) = UdpSim::new(0.5, 7);
        let (smtp, smtp_inbox) = SmtpSim::new();
        let (sms, sms_inbox) = SmsSim::new(100);
        let engine = NotificationEngine::start(vec![
            Box::new(tcp),
            Box::new(udp),
            Box::new(smtp),
            Box::new(sms),
        ]);
        (engine, tcp_inbox, udp_inbox, smtp_inbox, sms_inbox)
    }

    #[test]
    fn tcp_deliveries_all_arrive() {
        let (engine, tcp_inbox, ..) = engine_with_all();
        for k in 0..50 {
            assert!(engine.enqueue(TransportKind::Tcp, delivery(1, &format!("m{k}"))));
        }
        let stats = engine.shutdown();
        assert_eq!(stats.get(TransportKind::Tcp).delivered, 50);
        assert_eq!(tcp_inbox.lock().len(), 50);
    }

    #[test]
    fn udp_losses_are_counted_not_retried() {
        let (engine, _tcp, udp_inbox, ..) = engine_with_all();
        for k in 0..200 {
            engine.enqueue(TransportKind::Udp, delivery(2, &format!("m{k}")));
        }
        let stats = engine.shutdown();
        let udp = stats.get(TransportKind::Udp);
        assert_eq!(udp.attempted, 200);
        assert_eq!(udp.delivered + udp.lost, 200);
        assert!(udp.lost > 50, "seeded ≈50% loss, got {}", udp.lost);
        assert_eq!(udp.retried, 0);
        assert_eq!(udp_inbox.lock().len() as u64, udp.delivered);
    }

    #[test]
    fn smtp_batches_are_flushed_at_shutdown() {
        let (engine, _tcp, _udp, smtp_inbox, _sms) = engine_with_all();
        for k in 0..10 {
            engine.enqueue(TransportKind::Smtp, delivery(3, &format!("mail{k}")));
        }
        let stats = engine.shutdown();
        assert_eq!(stats.get(TransportKind::Smtp).delivered, 10);
        let inbox = smtp_inbox.lock();
        let total_lines: usize = inbox.iter().map(|m| m.payload.lines().count()).sum();
        assert_eq!(total_lines, 10, "all mail delivered, possibly batched");
        assert!(inbox.len() <= 10);
    }

    #[test]
    fn sms_rate_limit_recovers_via_retry() {
        let (sms, sms_inbox) = SmsSim::new(1);
        let engine = NotificationEngine::start(vec![Box::new(sms)]);
        for k in 0..5 {
            engine.enqueue(TransportKind::Sms, delivery(4, &format!("sms{k}")));
        }
        let stats = engine.shutdown();
        let s = stats.get(TransportKind::Sms);
        assert_eq!(s.delivered, 5, "retries after window ticks deliver everything");
        assert!(s.retried >= 4);
        assert_eq!(sms_inbox.lock().len(), 5);
    }

    #[test]
    fn unconfigured_transport_is_rejected() {
        let (tcp, _inbox) = TcpSim::new();
        let engine = NotificationEngine::start(vec![Box::new(tcp)]);
        assert!(!engine.enqueue(TransportKind::Sms, delivery(1, "x")));
        let stats = engine.shutdown();
        assert_eq!(stats.get(TransportKind::Sms), TransportStats::default());
    }

    /// A transport that never accepts a delivery: every attempt is
    /// rate-limited, so the engine burns its full retry budget and then
    /// drops. Pins the shutdown accounting identity.
    struct FailingTransport;

    impl Transport for FailingTransport {
        fn kind(&self) -> TransportKind {
            TransportKind::Tcp
        }

        fn deliver(&mut self, _delivery: &Delivery) -> Result<(), TransportError> {
            Err(TransportError::RateLimited)
        }
    }

    #[test]
    fn shutdown_accounting_balances_under_total_failure() {
        const N: u64 = 25;
        let engine = NotificationEngine::start(vec![Box::new(FailingTransport)]);
        for k in 0..N {
            assert!(engine.enqueue(TransportKind::Tcp, delivery(1, &format!("m{k}"))));
        }
        let stats = engine.shutdown();
        let s = stats.get(TransportKind::Tcp);
        assert_eq!(s.attempted, N);
        assert_eq!(s.delivered, 0);
        assert_eq!(s.rate_dropped, N, "every delivery exhausts its retries");
        assert_eq!(s.retried, N * MAX_RETRIES as u64);
        assert_eq!(stats.total_attempted(), stats.total_delivered() + stats.total_failures());
    }

    #[test]
    fn merge_sums_counters_and_keeps_kind_order() {
        let mut a = DeliveryStats {
            per_transport: vec![(
                TransportKind::Udp,
                TransportStats { attempted: 3, delivered: 2, lost: 1, ..Default::default() },
            )],
        };
        let b = DeliveryStats {
            per_transport: vec![
                (
                    TransportKind::Tcp,
                    TransportStats { attempted: 5, delivered: 5, ..Default::default() },
                ),
                (
                    TransportKind::Udp,
                    TransportStats { attempted: 4, delivered: 4, ..Default::default() },
                ),
            ],
        };
        a.merge(&b);
        assert_eq!(a.get(TransportKind::Udp).attempted, 7);
        assert_eq!(a.get(TransportKind::Udp).delivered, 6);
        assert_eq!(a.get(TransportKind::Udp).lost, 1);
        assert_eq!(a.get(TransportKind::Tcp).delivered, 5);
        let kinds: Vec<_> = a.per_transport.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec![TransportKind::Tcp, TransportKind::Udp], "ALL order");
        assert_eq!(a.total_attempted(), a.total_delivered() + a.total_failures());
    }

    #[test]
    fn stats_snapshot_while_running() {
        let (engine, ..) = engine_with_all();
        engine.enqueue(TransportKind::Tcp, delivery(1, "x"));
        // Delivery runs on the caller's thread: the live snapshot is exact.
        assert_eq!(engine.stats().get(TransportKind::Tcp).delivered, 1);
        let final_stats = engine.shutdown();
        assert_eq!(final_stats.get(TransportKind::Tcp).delivered, 1);
    }

    /// One `deliver_all` call is one publication: the SMTP batcher sends
    /// each client's notifications of that call as a single mail.
    #[test]
    fn smtp_batches_one_call_into_one_mail_per_client() {
        let (engine, _tcp, _udp, smtp_inbox, _sms) = engine_with_all();
        let batch = (0..6).map(|k| (TransportKind::Smtp, delivery(3 + k % 2, &format!("m{k}"))));
        assert_eq!(engine.deliver_all(batch), 6);
        let inbox = smtp_inbox.lock();
        assert_eq!(inbox.len(), 2, "one mail per client, sent before the call returned");
        assert!(inbox.iter().all(|m| m.payload.lines().count() == 3));
    }

    #[test]
    fn slots_follow_the_kind_discriminants() {
        for (index, kind) in TransportKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, index, "slot index of {kind:?}");
        }
    }
}
