//! The traced run: the real path at a quarter of the run length with
//! spans around its outside calls, then the **probe chain** — the same
//! events replayed through each layer's public entry point in the order
//! the event loop uses them:
//!
//! ```text
//! decode_client → DemoServer::handle_batch → Broker::publish
//!   → SemanticFrontEnd::prepare → SToPSS::match_prepared → engine match_event
//!   → capturing Transport::deliver → encode_server
//! ```
//!
//! The layers nest (server ⊃ dispatcher ⊃ matcher ⊃ {front end, stage 2 ⊃
//! engine}), so every probe span names the enclosing layer's span of the
//! same event and round as its parent, and a layer's self time is its
//! span's duration minus its children's. All of it is measured from
//! outside; spans inside the program are a later PR's job.

use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use stopss_broker::{
    decode_client, decode_server, encode_client, encode_server, try_read_frame, write_frame,
    ClientId, ClientMessage, DemoServer, ServerMessage, WireValue,
};
use stopss_core::{synonym_resolve_subscription, PreparedEvent, SToPSS, ShardedSToPSS, Tolerance};
use stopss_matching::MatchingEngine;
use stopss_ontology::SemanticSource;
use stopss_types::{Event, SharedInterner, SubId, Subscription, SubscriptionBuilder, Value};
use stopss_workload::Rng;

use crate::capture::{self, Captured};
use crate::harness::{mean, ns, percentile, supported, Args, Deadline, Latencies, Ledger};
use crate::population::{shuffled_order, Domain, Population};
use crate::serve::{self, parse_seq, CONNECTIONS, WINDOW};
use crate::trace::{SpanId, Tracer};
use crate::{inproc, session};

type Layers = Vec<(&'static str, f64)>;

/// Events one chain round replays.
const CHAIN_EVENTS: usize = 256;
/// Events between two drains of the capturing transport.
const SETTLE_EVERY: usize = 32;
/// Publications per `ShardedSToPSS::publish_batch` call.
const SHARDED_BATCH: usize = 64;
/// Subscribe/unsubscribe pairs and `set_source` swaps of the control probe.
const CONTROL_PAIRS: usize = 31;
const CONTROL_SWAPS: usize = 5;
/// Subscriptions removed (and put back) by the engine remove probe.
const ENGINE_REMOVALS: usize = 1_000;

/// Share of `--seconds` each part of a traced run gets.
const TRACED_SHARE: f64 = 0.25;
const UNTRACED_SHARE: f64 = 0.25;
const CHAIN_SHARE: f64 = 0.40;

fn quantiles(name50: &'static str, name99: &'static str, samples: &Latencies, out: &mut Layers) {
    if samples.len() > 0 && !supported(samples.len(), 0.99) {
        println!("undersampled {name99}: {} samples", samples.len());
    }
    out.push((name50, samples.percentile(0.50)));
    out.push((name99, samples.percentile(0.99)));
}

/// The probe events: the first `CHAIN_EVENTS` of the run's stream, each
/// `seq`-stamped the way the wire path stamps them.
struct ProbeEvents {
    /// `seq`-stamped typed events (what `Broker::publish` sees).
    stamped: Vec<Event>,
    /// The same events as `Publish` frames, length prefix included.
    frames: Vec<Vec<u8>>,
    messages: Vec<ClientMessage>,
}

impl ProbeEvents {
    fn new(population: &Population, stream: &[usize], interner: &SharedInterner) -> ProbeEvents {
        let seq_attr = interner.intern("seq");
        let count = CHAIN_EVENTS;
        let mut stamped = Vec::with_capacity(count);
        let mut frames = Vec::with_capacity(count);
        let mut messages = Vec::with_capacity(count);
        for seq in 0..count {
            let event = &population.pubs[stream[seq % stream.len()]];
            let mut pairs = vec![(seq_attr, Value::Int(seq as i64))];
            pairs.extend(event.pairs().iter().cloned());
            stamped.push(Event::from_pairs(pairs));
            let mut wire = vec![("seq".to_owned(), WireValue::Int(seq as i64))];
            wire.extend(event.pairs().iter().map(|(attr, value)| {
                (
                    population.interner.resolve(*attr).to_owned(),
                    WireValue::from_value(value, &population.interner),
                )
            }));
            let message = ClientMessage::Publish { client: ClientId(0), pairs: wire };
            let mut payload = BytesMut::new();
            encode_client(&message, &mut payload);
            let mut framed = BytesMut::new();
            write_frame(&mut framed, &payload);
            frames.push(framed.to_vec());
            messages.push(message);
        }
        ProbeEvents { stamped, frames, messages }
    }
}

/// Everything the chain replays events through, built once per run.
struct Chain {
    events: ProbeEvents,
    server: DemoServer,
    captured: Captured,
    matcher: SToPSS,
    /// Same population, provenance off (the provenance-cost reference).
    plain: SToPSS,
    sharded: ShardedSToPSS,
    engine: Box<dyn MatchingEngine>,
    interner: SharedInterner,
    prepared: Vec<PreparedEvent>,
    /// First payload the capturing transport saw for each event, if any.
    payloads: Vec<Option<String>>,
    // Accumulators over all rounds.
    matches: u64,
    verifications: u64,
    verify_rejections: u64,
    truncations: u64,
    emitted: u64,
    notify_hop: Latencies,
    drain_ns: u64,
    drained: u64,
    publish_frame_bytes: u64,
    notification_frame_bytes: u64,
    notification_frames: u64,
    rounds: u64,
}

/// The subscriptions a chain loads: every held subscription under the
/// id a `Broker` would give it (1, 2, … in admission order), so matcher,
/// engine and broker probes all see the same population the real path has.
fn held_subscriptions(
    population: &Population,
    held: &[Vec<usize>],
) -> Vec<(Subscription, Option<Tolerance>)> {
    held.iter()
        .flatten()
        .enumerate()
        .map(|(n, sub)| (population.reissue(*sub, SubId(n as u64 + 1)), population.subs[*sub].1))
        .collect()
}

fn build_matcher(
    population: &Population,
    subs: &[(Subscription, Option<Tolerance>)],
    provenance: bool,
) -> (SToPSS, f64) {
    let (source, interner) = population.domain.build();
    let start = Instant::now();
    let matcher = SToPSS::new(
        population.config.with_provenance(provenance),
        source,
        SharedInterner::from_interner(interner),
    );
    matcher.subscribe_batch(subs.to_vec());
    (matcher, start.elapsed().as_nanos() as f64 / subs.len().max(1) as f64)
}

impl Chain {
    /// Builds every layer over `population`; returns the chain and the
    /// one-off layer metrics measured while building.
    fn build(
        population: &Population,
        held: &[Vec<usize>],
        stream: &[usize],
        tracer: &mut Tracer,
    ) -> (Chain, Layers) {
        let mut out = Layers::new();
        let subs = held_subscriptions(population, held);
        let (matcher, batch_ns_per_sub) = build_matcher(population, &subs, true);
        out.push(("control.subscribe_batch_ns_per_sub", batch_ns_per_sub));
        let (plain, _) = build_matcher(population, &subs, false);
        let interner = matcher.interner().clone();
        let events = ProbeEvents::new(population, stream, &interner);

        let (source, sharded_interner) = population.domain.build();
        let sharded = ShardedSToPSS::new(
            population.config.with_shards(1),
            source,
            SharedInterner::from_interner(sharded_interner),
        );
        sharded.subscribe_batch(subs.clone());

        // The bare engine, loaded the way the matcher loads it: one
        // synonym-resolved subscription per user subscription.
        let source = matcher.source();
        let resolved: Vec<Subscription> = subs
            .iter()
            .map(|(sub, _)| {
                if population.config.stages.synonym() {
                    synonym_resolve_subscription(sub, source.as_ref()).into_owned()
                } else {
                    sub.clone()
                }
            })
            .collect();
        let mut engine = population.config.engine.build();
        let (_, ()) = tracer.time("probe.engine.insert_all", 0, None, || {
            for sub in &resolved {
                engine.insert(sub.clone());
            }
        });
        out.push((
            "matching.insert_ns_per_sub",
            tracer.mean("probe.engine.insert_all") / resolved.len().max(1) as f64,
        ));
        let mut rng = Rng::new(0x0e_6a1e);
        let victims: Vec<usize> =
            (0..ENGINE_REMOVALS.min(resolved.len())).map(|_| rng.index(resolved.len())).collect();
        let (_, ()) = tracer.time("probe.engine.remove_some", 0, None, || {
            for k in &victims {
                engine.remove(resolved[*k].id());
            }
        });
        out.push((
            "matching.remove_ns_per_sub",
            tracer.mean("probe.engine.remove_some") / victims.len().max(1) as f64,
        ));
        for k in &victims {
            engine.insert(resolved[*k].clone());
        }
        for round in 0..5 {
            tracer.time("probe.engine.boxed_clone", round, None, || {
                std::hint::black_box(engine.boxed_clone());
            });
        }
        out.push(("matching.clone_ns", tracer.median("probe.engine.boxed_clone")));

        // The subscribe storm through the server layer: every Subscribe
        // of the population in one handle_batch call.
        {
            let (broker, _sink) = capture::capturing_broker(population);
            let clients = capture::register_owners(&broker, held.len());
            let storm: Vec<ClientMessage> = held
                .iter()
                .zip(&clients)
                .flat_map(|(subs, client)| subs.iter().map(move |sub| (*client, sub)))
                .map(|(client, sub)| ClientMessage::Subscribe {
                    client,
                    predicates: stopss_broker::subscription_to_wire(
                        &population.subs[*sub].0,
                        &population.interner,
                    ),
                })
                .collect();
            let storm_len = storm.len().max(1);
            let server = DemoServer::new(broker);
            let before = server.broker().matcher_control_epoch();
            let (_, replies) =
                tracer.time("probe.server.subscribe_storm", 0, None, || server.handle_batch(storm));
            assert!(replies.iter().all(|r| matches!(r, ServerMessage::Subscribed { .. })));
            out.push((
                "server.subscribe_storm_ns_per_sub",
                tracer.mean("probe.server.subscribe_storm") / storm_len as f64,
            ));
            out.push((
                "server.storm_epochs",
                (server.broker().matcher_control_epoch() - before) as f64,
            ));
            server.shutdown();
        }

        let (broker, captured) = capture::capturing_broker(population);
        capture::populate(&broker, population, held);
        let count = events.stamped.len();
        let chain = Chain {
            events,
            server: DemoServer::new(broker),
            captured,
            matcher,
            plain,
            sharded,
            engine,
            interner,
            prepared: Vec::new(),
            payloads: vec![None; count],
            matches: 0,
            verifications: 0,
            verify_rejections: 0,
            truncations: 0,
            emitted: 0,
            notify_hop: Latencies::default(),
            drain_ns: 0,
            drained: 0,
            publish_frame_bytes: 0,
            notification_frame_bytes: 0,
            notification_frames: 0,
            rounds: 0,
        };
        (chain, out)
    }

    /// Waits for the notification worker to hand over everything the
    /// last loop promised, folds the hop latencies in, empties the sink.
    fn settle(&mut self, promised: usize, starts: &[Instant], loop_start: Instant) {
        assert!(capture::wait_for(&self.captured, promised), "capturing transport starved");
        let mut sink = self.captured.lock().expect("capture sink");
        let mut last = loop_start;
        for (at, delivery) in sink.iter() {
            let seq = parse_seq(&delivery.payload).expect("seq-stamped payload") as usize;
            self.notify_hop.push(ns(at.duration_since(starts[seq])));
            last = last.max(*at);
            if self.payloads[seq].is_none() {
                self.payloads[seq] = Some(delivery.payload.clone());
            }
        }
        self.drain_ns += ns(last.duration_since(loop_start));
        self.drained += sink.len() as u64;
        sink.clear();
    }

    /// One pass of every layer over the probe events, outermost first so
    /// inner spans can name their parent.
    fn round(&mut self, tracer: &mut Tracer) {
        let round = self.rounds;
        self.rounds += 1;
        let count = self.events.stamped.len();
        let req = |k: usize| round * count as u64 + k as u64;

        // wire: frame split + decode of the Publish frames.
        for k in 0..count {
            let mut stream = BytesMut::from(self.events.frames[k].clone());
            self.publish_frame_bytes += stream.len() as u64;
            tracer.time("probe.wire.decode_publish", req(k), None, || {
                let mut frame = try_read_frame(&mut stream).expect("frame").expect("complete");
                std::hint::black_box(decode_client(&mut frame).expect("decodes"));
            });
        }

        // server: handle_batch over windows of Publish messages. The
        // capture is settled every SETTLE_EVERY events so a high fan-out
        // does not pile the whole round's payloads up in memory.
        let mut batch_span: Vec<Option<SpanId>> = vec![None; count];
        let mut starts = vec![Instant::now(); count];
        for first in (0..count).step_by(SETTLE_EVERY) {
            let loop_start = Instant::now();
            let mut promised = 0usize;
            let last = (first + SETTLE_EVERY).min(count);
            for (w, window) in self.events.messages[first..last].chunks(WINDOW).enumerate() {
                let at = first + w * WINDOW;
                let start = Instant::now();
                let replies = self.server.handle_batch(window.to_vec());
                let end = Instant::now();
                let span = tracer.record("probe.server.handle_batch", req(at), None, start, end);
                for (j, reply) in replies.iter().enumerate() {
                    batch_span[at + j] = span;
                    starts[at + j] = start;
                    if let ServerMessage::Published { matches } = reply {
                        promised += *matches as usize;
                    }
                }
            }
            self.settle(promised, &starts, loop_start);
        }

        // dispatcher: Broker::publish, one event at a time.
        let mut dispatcher_span: Vec<Option<SpanId>> = vec![None; count];
        for first in (0..count).step_by(SETTLE_EVERY) {
            let loop_start = Instant::now();
            let mut promised = 0usize;
            for k in first..(first + SETTLE_EVERY).min(count) {
                let start = Instant::now();
                promised += self.server.broker().publish(&self.events.stamped[k]);
                let end = Instant::now();
                starts[k] = start;
                dispatcher_span[k] =
                    tracer.record("probe.dispatcher.publish", req(k), batch_span[k], start, end);
            }
            self.settle(promised, &starts, loop_start);
        }

        // matcher: the inline publish, with and without provenance.
        let mut publish_span: Vec<Option<SpanId>> = vec![None; count];
        let before = self.matcher.stats();
        for k in 0..count {
            let (span, matched) =
                tracer.time("probe.matcher.publish", req(k), dispatcher_span[k], || {
                    self.matcher.publish(&self.events.stamped[k])
                });
            publish_span[k] = span;
            self.matches += matched.len() as u64;
        }
        let after = self.matcher.stats();
        self.verifications += after.verifications - before.verifications;
        self.verify_rejections += after.verify_rejections - before.verify_rejections;
        self.truncations += after.truncations - before.truncations;
        for k in 0..count {
            tracer.time("probe.matcher.publish_plain", req(k), None, || {
                std::hint::black_box(self.plain.publish(&self.events.stamped[k]));
            });
        }

        // front end, then stage 2 on its artifacts, then the bare engine.
        let frontend = self.matcher.frontend();
        self.prepared.clear();
        for (k, (event, parent)) in self.events.stamped.iter().zip(&publish_span).enumerate() {
            let (_, prepared) =
                tracer.time("probe.frontend.prepare", req(k), *parent, || frontend.prepare(event));
            self.prepared.push(prepared);
        }
        let mut stage2_span: Vec<Option<SpanId>> = vec![None; count];
        for k in 0..count {
            let (span, result) =
                tracer.time("probe.matcher.match_prepared", req(k), publish_span[k], || {
                    self.matcher.match_prepared(&self.prepared[k])
                });
            stage2_span[k] = span;
            std::hint::black_box(result);
        }
        let mut ids: Vec<SubId> = Vec::new();
        for (k, (prepared, parent)) in self.prepared.iter().zip(&stage2_span).enumerate() {
            let (engine, interner) = (&mut self.engine, &self.interner);
            tracer.time("probe.engine.match_event", req(k), *parent, || {
                ids.clear();
                interner.with(|i| {
                    for event in &prepared.engine_events {
                        engine.match_event(event, i, &mut ids);
                    }
                });
            });
            self.emitted += ids.len() as u64;
        }

        // sharded: the same events through the shards = 1 matcher.
        for (b, batch) in self.events.stamped.chunks(SHARDED_BATCH).enumerate() {
            tracer.time("probe.sharded.publish_batch", req(b * SHARDED_BATCH), None, || {
                std::hint::black_box(self.sharded.publish_batch(batch));
            });
        }

        // wire: a Notification frame per event that produced one.
        for k in 0..count {
            let Some(payload) = self.payloads[k].clone() else { continue };
            let message = ServerMessage::Notification { seq: 0, payload };
            let mut framed = BytesMut::new();
            tracer.time("probe.wire.encode_notification", req(k), None, || {
                let mut body = BytesMut::new();
                encode_server(&message, &mut body);
                write_frame(&mut framed, &body);
            });
            self.notification_frame_bytes += framed.len() as u64;
            self.notification_frames += 1;
            tracer.time("probe.wire.decode_notification", req(k), None, || {
                let mut frame = try_read_frame(&mut framed).expect("frame").expect("complete");
                std::hint::black_box(decode_server(&mut frame).expect("decodes"));
            });
        }
    }

    /// Control plane at the population's size, on the probe matcher.
    fn control(&mut self, population: &Population, tracer: &mut Tracer, out: &mut Layers) {
        let before = self.matcher.control_epoch();
        let mut rng = Rng::new(0xc0_27a0);
        for k in 0..CONTROL_PAIRS {
            let id = SubId(9_000_000 + k as u64);
            let sub = population.reissue(rng.index(population.subs.len()), id);
            tracer.time("probe.control.subscribe", k as u64, None, || self.matcher.subscribe(sub));
            tracer
                .time("probe.control.unsubscribe", k as u64, None, || self.matcher.unsubscribe(id));
        }
        let original = self.matcher.source();
        let variants = inproc::ontology_variants(population);
        for k in 0..CONTROL_SWAPS {
            let variant: Arc<dyn SemanticSource> = variants[1 + k % (variants.len() - 1)].clone();
            tracer.time("probe.control.set_source", k as u64, None, || {
                self.matcher.set_source(variant)
            });
        }
        self.matcher.set_source(original);
        for (metric, span) in [
            ("control.subscribe_p50_ns", "probe.control.subscribe"),
            ("control.unsubscribe_p50_ns", "probe.control.unsubscribe"),
            ("control.set_source_p50_ns", "probe.control.set_source"),
        ] {
            out.push((metric, tracer.median(span)));
        }
        out.push(("control.epochs", (self.matcher.control_epoch() - before) as f64));
    }

    /// Folds the rounds into the per-layer metrics.
    fn report(&self, tracer: &Tracer, out: &mut Layers) {
        let events = (self.rounds * self.events.stamped.len() as u64).max(1) as f64;
        let matches_per_event = self.matches as f64 / events;
        let notifications_per_event = self.drained as f64 / (2.0 * events);

        out.push(("wire.decode_publish_ns", tracer.mean("probe.wire.decode_publish")));
        out.push(("wire.encode_notification_ns", tracer.mean("probe.wire.encode_notification")));
        out.push(("wire.decode_notification_ns", tracer.mean("probe.wire.decode_notification")));
        out.push(("wire.publish_frame_bytes", self.publish_frame_bytes as f64 / events));
        out.push((
            "wire.notification_frame_bytes",
            self.notification_frame_bytes as f64 / self.notification_frames.max(1) as f64,
        ));

        out.push((
            "server.handle_batch_ns_per_event",
            tracer.mean("probe.server.handle_batch") / WINDOW as f64,
        ));
        let dispatcher = tracer.mean("probe.dispatcher.publish");
        let publish = tracer.mean("probe.matcher.publish");
        out.push(("dispatcher.publish_ns_per_event", dispatcher));
        out.push((
            "dispatcher.self_ns_per_notification",
            tracer.mean_self("probe.dispatcher.publish") / notifications_per_event.max(1e-9),
        ));
        out.push(("dispatcher.orphaned_matches", self.server.broker().orphaned_matches() as f64));

        out.push(("notify.hop_p50_ns", self.notify_hop.percentile(0.50)));
        out.push(("notify.hop_p99_ns", self.notify_hop.percentile(0.99)));
        out.push((
            "notify.drain_ns_per_notification",
            self.drain_ns as f64 / self.drained.max(1) as f64,
        ));
        let delivery = self.server.broker().delivery_stats();
        out.push(("notify.attempted", delivery.total_attempted() as f64));
        out.push(("notify.delivered", delivery.total_delivered() as f64));
        out.push(("notify.failures", delivery.total_failures() as f64));

        let prepare = tracer.mean("probe.frontend.prepare");
        let prepared = self.prepared.len().max(1) as f64;
        out.push(("frontend.prepare_ns_per_event", prepare));
        out.push((
            "frontend.closure_pairs_per_event",
            self.prepared.iter().map(|p| p.closure_pairs).sum::<usize>() as f64 / prepared,
        ));
        out.push((
            "frontend.derived_events_per_event",
            self.prepared.iter().map(|p| p.derived_events).sum::<usize>() as f64 / prepared,
        ));
        out.push(("frontend.truncations", self.truncations as f64));
        out.push(("frontend.verify_classes", self.matcher.verify_classes().len() as f64));

        let stage2 = tracer.mean("probe.matcher.match_prepared");
        out.push(("matcher.publish_ns_per_event", publish));
        out.push(("matcher.match_prepared_ns_per_event", stage2));
        out.push(("matcher.ns_per_match", publish / matches_per_event.max(1e-9)));
        out.push(("matcher.matches_per_event", matches_per_event));
        out.push(("matcher.verifications_per_event", self.verifications as f64 / events));
        out.push(("matcher.verify_rejections_per_event", self.verify_rejections as f64 / events));
        out.push((
            "matcher.provenance_ns_per_match",
            (publish - tracer.mean("probe.matcher.publish_plain")) / matches_per_event.max(1e-9),
        ));
        out.push(("matcher.two_stage_over_inline", (prepare + stage2) / publish.max(1e-9)));

        let engine = tracer.mean("probe.engine.match_event");
        let emitted_per_event = self.emitted as f64 / events;
        out.push(("matching.engine_match_ns_per_event", engine));
        out.push(("matching.engine_emitted_per_event", emitted_per_event));
        out.push(("matching.engine_ns_per_candidate", engine / emitted_per_event.max(1e-9)));

        let sharded = tracer.mean("probe.sharded.publish_batch")
            / SHARDED_BATCH.min(self.events.stamped.len()) as f64;
        out.push(("sharded.publish_batch_ns_per_event", sharded));
        out.push(("sharded.over_single_ratio", sharded / publish.max(1e-9)));
    }
}

/// Runs the chain for its share of the run and appends its metrics.
fn run_chain(
    population: &Population,
    held: &[Vec<usize>],
    stream: &[usize],
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Layers,
) {
    let (mut chain, built) = Chain::build(population, held, stream, tracer);
    out.extend(built);
    let deadline = Deadline::after(args.seconds * CHAIN_SHARE);
    loop {
        chain.round(tracer);
        if deadline.passed(Instant::now()) {
            break;
        }
    }
    chain.control(population, tracer, out);
    chain.report(tracer, out);
    chain.server.shutdown();
}

/// `trace.*`: what tracing cost, what the chain leaves unexplained.
fn trace_metrics(
    traced_per_op_ns: f64,
    untraced_per_op_ns: f64,
    attributed_per_op_ns: f64,
    tracer: &Tracer,
    out: &mut Layers,
) {
    out.push((
        "trace.overhead_share",
        100.0 * (traced_per_op_ns - untraced_per_op_ns) / untraced_per_op_ns.max(1e-9),
    ));
    out.push((
        "trace.unattributed_share",
        100.0 * (untraced_per_op_ns - attributed_per_op_ns) / untraced_per_op_ns.max(1e-9),
    ));
    out.push(("trace.spans", tracer.spans.len() as f64));
}

/// Per publication, what the chain accounts for on a networked path:
/// frame decode, the batched serve (dispatcher and matcher inside it),
/// one notification encode per fan-out, and the client side's own time.
fn wire_attributed(out: &Layers, fan_out: f64, client_ns_per_event: f64) -> f64 {
    value_of(out, "wire.decode_publish_ns")
        + value_of(out, "server.handle_batch_ns_per_event")
        + fan_out * value_of(out, "wire.encode_notification_ns")
        + client_ns_per_event
}

fn value_of(out: &Layers, name: &str) -> f64 {
    out.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

fn finish(args: &Args, tracer: &Tracer) {
    match tracer.write(&args.workload) {
        Ok(path) => println!("trace {} spans -> {path}", tracer.spans.len()),
        Err(e) => eprintln!("could not write the trace: {e}"),
    }
}

/// Traced run of `match-fanout` / `match-closure` / `churn-index`.
pub fn run_inproc(spec: &inproc::Spec, args: &Args, ledger: &mut Ledger) -> Layers {
    let population = &spec.population;
    let order = shuffled_order(population.pubs.len(), &mut Rng::new(args.seed));
    let variants = if spec.churn { inproc::ontology_variants(population) } else { Vec::new() };
    let mut out = Layers::new();
    let mut tracer = Tracer::new(true);

    let (matcher, _, _) = inproc::setup(spec, &order);
    let mut churn =
        spec.churn.then(|| inproc::ChurnState::new(population, variants.clone(), args.seed));
    let traced = inproc::drive(
        &matcher,
        population,
        &order,
        churn.as_mut(),
        Deadline::after(args.seconds * TRACED_SHARE),
        &mut tracer,
    );
    let untraced = inproc::drive(
        &matcher,
        population,
        &order,
        churn.as_mut(),
        Deadline::after(args.seconds * UNTRACED_SHARE),
        &mut Tracer::new(false),
    );
    ledger.ops(traced.publishes + untraced.publishes);
    if churn.is_none() {
        // (the end-to-end run checks the churned set against its replay)
        let live: Vec<Subscription> = population.subs.iter().map(|(s, _)| s.clone()).collect();
        inproc::check_against_oracle(&matcher, population, &live, args, ledger);
    }
    drop(matcher);

    quantiles("path.publish_p50_ns", "path.publish_p99_ns", &traced.publish_ns, &mut out);
    quantiles("path.control_p50_ns", "path.control_p99_ns", &traced.control_ns, &mut out);

    let held: Vec<Vec<usize>> = {
        let mut held = vec![Vec::new(); CONNECTIONS];
        for k in 0..population.subs.len() {
            held[k % CONNECTIONS].push(k);
        }
        held
    };
    run_chain(population, &held, &order, args, &mut tracer, &mut out);

    let per_op = |path: &inproc::RealPath| path.wall_s * 1e9 / path.publishes.max(1) as f64;
    // Per publish, the layers below the caller: stage 1 + stage 2, plus
    // the control ops' share on churn-index.
    let control_share = mean(
        &["control.subscribe", "control.unsubscribe", "control.set_source"]
            .iter()
            .flat_map(|name| tracer.durations(name))
            .collect::<Vec<u64>>(),
    ) * traced.control_log.len() as f64
        / traced.publishes.max(1) as f64;
    let attributed = value_of(&out, "frontend.prepare_ns_per_event")
        + value_of(&out, "matcher.match_prepared_ns_per_event")
        + control_share;
    trace_metrics(per_op(&traced), per_op(&untraced), attributed, &tracer, &mut out);
    finish(args, &tracer);
    out
}

fn eventloop_metrics(
    costs: &serve::LoopCosts,
    wall_s: f64,
    publishes: u64,
    notifications: u64,
    stats: stopss_broker::NetStats,
    out: &mut Layers,
) {
    let serve::LoopCosts { turn_ns, turns, idle_turns, client_ns } = costs;
    let mut sorted = turn_ns.to_vec();
    sorted.sort_unstable();
    let wall_ns = (wall_s * 1e9).max(1.0);
    out.push(("eventloop.turn_p50_ns", percentile(&sorted, 0.50) as f64));
    out.push(("eventloop.turn_p99_ns", percentile(&sorted, 0.99) as f64));
    out.push(("eventloop.turns_per_event", *turns as f64 / publishes.max(1) as f64));
    out.push(("eventloop.busy_share", 100.0 * turn_ns.iter().sum::<u64>() as f64 / wall_ns));
    out.push(("eventloop.idle_turns", *idle_turns as f64));
    out.push(("eventloop.client_side_share", 100.0 * *client_ns as f64 / wall_ns));
    out.push(("eventloop.frames_read", stats.frames_read as f64));
    out.push(("eventloop.notifications_per_event", notifications as f64 / publishes.max(1) as f64));
    out.push(("eventloop.notifications_sent", stats.notifications_sent as f64));
    out.push(("eventloop.notifications_dropped", stats.notifications_dropped as f64));
    out.push(("eventloop.notifications_disconnected", stats.notifications_disconnected as f64));
}

/// Traced run of `serve-fanout` / `serve-selective`.
pub fn run_serve(spec: &serve::Spec, args: &Args, ledger: &mut Ledger) -> Layers {
    let layout = serve::Layout::new(spec, args.seed);
    let mut out = Layers::new();
    let mut tracer = Tracer::new(true);

    let (mut rig, _) = serve::setup(spec, &layout);
    let traced = serve::drive(
        &mut rig,
        &layout,
        serve::Stop::At(Deadline::after(args.seconds * TRACED_SHARE)),
        &mut tracer,
        None,
    );
    let untraced = serve::drive(
        &mut rig,
        &layout,
        serve::Stop::At(Deadline::after(args.seconds * UNTRACED_SHARE)),
        &mut Tracer::new(false),
        None,
    );
    ledger
        .ops(traced.publishes + traced.notifications + untraced.publishes + untraced.notifications);
    for _ in 0..traced.failed + untraced.failed {
        ledger.fail("a publish went unanswered or a promised notification never arrived".into());
    }
    serve::check_conservation(&rig, ledger);
    let net = rig.server.stats();
    let storm_epochs = rig.storm_epochs;
    rig.server.shutdown();

    quantiles("path.publish_p50_ns", "path.publish_p99_ns", &traced.ack_ns, &mut out);
    quantiles("path.notify_p50_ns", "path.notify_p99_ns", &traced.notify_ns, &mut out);
    eventloop_metrics(
        &traced.costs,
        traced.wall_s,
        traced.publishes,
        traced.notifications,
        net,
        &mut out,
    );
    println!("fact real_path_storm_epochs {storm_epochs}");

    run_chain(&spec.population, &layout.held, &layout.stream, args, &mut tracer, &mut out);

    let per_op = |s: &serve::LoopStats| s.wall_s * 1e9 / s.publishes.max(1) as f64;
    let publishes = traced.publishes.max(1) as f64;
    let attributed = wire_attributed(
        &out,
        traced.notifications as f64 / publishes,
        traced.costs.client_ns as f64 / publishes,
    );
    trace_metrics(per_op(&traced), per_op(&untraced), attributed, &tracer, &mut out);
    finish(args, &tracer);
    out
}

/// The population `session-resume` implies: 64 identical subscriptions
/// on one topic, events that all match it.
fn session_population() -> Population {
    let (_, mut interner) = Domain::JobFinder.build();
    let subs = (0..session::SESSIONS)
        .map(|k| {
            let sub = SubscriptionBuilder::new(&mut interner)
                .term_eq("skill", "programming")
                .build(SubId(k as u64));
            (sub, None::<Tolerance>)
        })
        .collect();
    let skill = interner.intern("skill");
    let programming = interner.intern("programming");
    let pubs = vec![Event::from_pairs(vec![(skill, Value::Sym(programming))])];
    Population {
        domain: Domain::JobFinder,
        config: stopss_core::Config::default(),
        subs,
        pubs,
        interner,
    }
}

/// Traced run of `session-resume`.
pub fn run_session(args: &Args, ledger: &mut Ledger) -> Layers {
    let mut out = Layers::new();
    let mut tracer = Tracer::new(true);
    let (mut rig, _) = session::setup(args.seed, 1);
    let traced =
        session::drive(&mut rig, Deadline::after(args.seconds * TRACED_SHARE), &mut tracer);
    let cycles_traced = rig.cycles - 1;
    let untraced = session::drive(
        &mut rig,
        Deadline::after(args.seconds * UNTRACED_SHARE),
        &mut Tracer::new(false),
    );
    ledger
        .ops(traced.publishes + traced.notifications + untraced.publishes + untraced.notifications);
    for _ in 0..traced.failed + untraced.failed {
        ledger.fail("session-resume lost a frame or a resume".into());
    }
    let kills = rig.cycles * session::KILLS_PER_CYCLE as u64;
    session::check(&mut rig, kills, ledger);
    let net = rig.server.stats();
    rig.server.shutdown();

    quantiles("path.notify_p50_ns", "path.notify_p99_ns", &traced.notify_ns, &mut out);
    quantiles("path.resume_p50_ns", "path.resume_p99_ns", &traced.resume_ns, &mut out);
    eventloop_metrics(
        &traced.costs,
        traced.wall_s,
        traced.publishes,
        traced.notifications,
        net,
        &mut out,
    );
    out.push((
        "session.resume_turns_per_cycle",
        traced.resume_turns as f64 / cycles_traced.max(1) as f64,
    ));
    out.push(("session.sessions_resumed", net.sessions_resumed as f64));
    out.push(("session.replay_frames_sent", net.replay_frames_sent as f64));
    out.push(("session.acked", net.notifications_acked as f64));
    out.push(("session.replayed", net.notifications_replayed as f64));
    out.push(("session.expired", net.notifications_expired as f64));
    out.push(("session.in_flight_peak", traced.in_flight_peak.max(untraced.in_flight_peak) as f64));

    let population = session_population();
    let held: Vec<Vec<usize>> = (0..session::SESSIONS).map(|k| vec![k]).collect();
    run_chain(&population, &held, &[0], args, &mut tracer, &mut out);

    let per_op = |s: &session::SessionStats| s.wall_s * 1e9 / s.publishes.max(1) as f64;
    let publishes = traced.publishes.max(1) as f64;
    let attributed = wire_attributed(
        &out,
        traced.notifications as f64 / publishes,
        traced.costs.client_ns as f64 / publishes,
    );
    trace_metrics(per_op(&traced), per_op(&untraced), attributed, &tracer, &mut out);
    finish(args, &tracer);
    out
}
