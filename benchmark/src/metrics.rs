//! The metric and workload names — one table each, mirrored by
//! `../BENCHMARK.json` (`check.sh` fails when the two drift apart).

/// Workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "match-fanout",
    "match-closure",
    "churn-index",
    "serve-fanout",
    "serve-selective",
    "session-resume",
];

/// End-to-end metrics, in the order `harness::print_result` fills them.
/// Every workload reports every one (tracing off).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_sec", "1/s"),
    ("p50_latency_ns", "ns"),
    ("p99_latency_ns", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run). A workload that does not exercise a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    // Real path of the traced run, by operation class.
    ("path.publish_p50_ns", "ns"),
    ("path.publish_p99_ns", "ns"),
    ("path.control_p50_ns", "ns"),
    ("path.control_p99_ns", "ns"),
    ("path.notify_p50_ns", "ns"),
    ("path.notify_p99_ns", "ns"),
    ("path.resume_p50_ns", "ns"),
    ("path.resume_p99_ns", "ns"),
    // broker/src/wire.rs
    ("wire.decode_publish_ns", "ns"),
    ("wire.encode_notification_ns", "ns"),
    ("wire.decode_notification_ns", "ns"),
    ("wire.publish_frame_bytes", "B"),
    ("wire.notification_frame_bytes", "B"),
    // DemoServer::handle_batch
    ("server.handle_batch_ns_per_event", "ns"),
    ("server.subscribe_storm_ns_per_sub", "ns"),
    ("server.storm_epochs", "count"),
    // Broker::publish over a capturing transport
    ("dispatcher.publish_ns_per_event", "ns"),
    ("dispatcher.self_ns_per_notification", "ns"),
    ("dispatcher.orphaned_matches", "count"),
    // Broker::publish -> Transport::deliver
    ("notify.hop_p50_ns", "ns"),
    ("notify.hop_p99_ns", "ns"),
    ("notify.drain_ns_per_notification", "ns"),
    ("notify.attempted", "count"),
    ("notify.delivered", "count"),
    ("notify.failures", "count"),
    // NetBroker::turn and the client side of the pipes
    ("eventloop.turn_p50_ns", "ns"),
    ("eventloop.turn_p99_ns", "ns"),
    ("eventloop.turns_per_event", "count"),
    ("eventloop.busy_share", "%"),
    ("eventloop.idle_turns", "count"),
    ("eventloop.client_side_share", "%"),
    ("eventloop.frames_read", "count"),
    ("eventloop.notifications_per_event", "count"),
    ("eventloop.notifications_sent", "count"),
    ("eventloop.notifications_dropped", "count"),
    ("eventloop.notifications_disconnected", "count"),
    // Session layer counters
    ("session.resume_turns_per_cycle", "count"),
    ("session.sessions_resumed", "count"),
    ("session.replay_frames_sent", "count"),
    ("session.acked", "count"),
    ("session.replayed", "count"),
    ("session.expired", "count"),
    ("session.in_flight_peak", "count"),
    // SemanticFrontEnd::prepare
    ("frontend.prepare_ns_per_event", "ns"),
    ("frontend.closure_pairs_per_event", "count"),
    ("frontend.derived_events_per_event", "count"),
    ("frontend.truncations", "count"),
    ("frontend.verify_classes", "count"),
    // SToPSS::{publish, match_prepared}
    ("matcher.publish_ns_per_event", "ns"),
    ("matcher.match_prepared_ns_per_event", "ns"),
    ("matcher.ns_per_match", "ns"),
    ("matcher.matches_per_event", "count"),
    ("matcher.verifications_per_event", "count"),
    ("matcher.verify_rejections_per_event", "count"),
    ("matcher.provenance_ns_per_match", "ns"),
    ("matcher.two_stage_over_inline", "ratio"),
    // The bare counting engine
    ("matching.engine_match_ns_per_event", "ns"),
    ("matching.engine_emitted_per_event", "count"),
    ("matching.engine_ns_per_candidate", "ns"),
    ("matching.insert_ns_per_sub", "ns"),
    ("matching.remove_ns_per_sub", "ns"),
    ("matching.clone_ns", "ns"),
    // ShardedSToPSS at shards = 1
    ("sharded.publish_batch_ns_per_event", "ns"),
    ("sharded.over_single_ratio", "ratio"),
    // SToPSS control plane
    ("control.subscribe_p50_ns", "ns"),
    ("control.unsubscribe_p50_ns", "ns"),
    ("control.subscribe_batch_ns_per_sub", "ns"),
    ("control.set_source_p50_ns", "ns"),
    ("control.epochs", "count"),
    // The harness's own cost
    ("trace.overhead_share", "%"),
    ("trace.unattributed_share", "%"),
    ("trace.spans", "count"),
];
