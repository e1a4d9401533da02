//! An in-process `Broker` whose transports capture deliveries instead of
//! simulating a medium: the reference the serve checks compare against,
//! and the instrument of the dispatcher/notify probes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use stopss_broker::{
    Broker, BrokerConfig, ClientId, Delivery, Transport, TransportError, TransportFactory,
    TransportKind,
};
use stopss_types::{FxHashMap, SharedInterner};

use crate::population::Population;

/// Every delivery the notification worker handed to a transport, with the
/// instant it arrived there.
pub type Captured = Arc<Mutex<Vec<(Instant, Delivery)>>>;

struct CaptureTransport {
    kind: TransportKind,
    sink: Captured,
}

impl Transport for CaptureTransport {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn deliver(&mut self, delivery: &Delivery) -> Result<(), TransportError> {
        self.sink.lock().expect("capture sink").push((Instant::now(), delivery.clone()));
        Ok(())
    }
}

/// Builds a broker over the population's ontology with one capturing
/// transport per kind (the engine silently rejects unconfigured kinds).
pub fn capturing_broker(population: &Population) -> (Broker, Captured) {
    let (source, interner) = population.domain.build();
    let sink = Captured::default();
    let factory_sink = sink.clone();
    let factory: TransportFactory = Box::new(move |_epoch| {
        TransportKind::ALL
            .into_iter()
            .map(|kind| {
                Box::new(CaptureTransport { kind, sink: factory_sink.clone() })
                    as Box<dyn Transport>
            })
            .collect()
    });
    let broker = Broker::with_transport_factory(
        BrokerConfig { matcher: population.config, ..BrokerConfig::default() },
        source,
        SharedInterner::from_interner(interner),
        FxHashMap::default(),
        factory,
    );
    (broker, sink)
}

/// Registers one client per entry of `held`, named as the serve rig
/// names them so ids and payloads line up.
pub fn register_owners(broker: &Broker, owners: usize) -> Vec<ClientId> {
    (0..owners).map(|k| broker.register_client(format!("sub-{k}"), TransportKind::Tcp)).collect()
}

/// Loads the population the way the serve rig does: owner `k` holds the
/// subscriptions `held[k]`, admitted owner by owner in one batch. Returns
/// the client ids.
pub fn populate(broker: &Broker, population: &Population, held: &[Vec<usize>]) -> Vec<ClientId> {
    let clients = register_owners(broker, held.len());
    let requests = held
        .iter()
        .zip(&clients)
        .flat_map(|(subs, client)| subs.iter().map(move |sub| (*client, sub)))
        .map(|(client, sub)| {
            let (subscription, tolerance) = &population.subs[*sub];
            (client, subscription.predicates().to_vec(), *tolerance)
        })
        .collect();
    for result in broker.subscribe_batch(requests) {
        result.expect("every owner is registered");
    }
    clients
}

/// Waits until the capture holds `expected` deliveries (the worker thread
/// is asynchronous, and on a pinned run shares this thread's CPU — hence
/// the yield); false if it never got there.
pub fn wait_for(sink: &Captured, expected: usize) -> bool {
    let start = Instant::now();
    while sink.lock().expect("capture sink").len() < expected {
        if start.elapsed().as_secs() > 20 {
            return false;
        }
        std::thread::yield_now();
    }
    true
}
