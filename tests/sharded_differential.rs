//! Batch-feeding regression: `SToPSS::publish_batch` over a job-finder
//! fixture is observably identical to publishing the same events one at a
//! time — match sets, provenance, ordering and `MatcherStats` — at batch
//! sizes from one event to the whole fixture, with per-subscription
//! tolerances in the mix.
//!
//! The file keeps the name of the suite that once compared a sharded
//! matcher against `SToPSS`. That matcher is gone; this determinism check
//! is what remains of it. Repeat publication and the pinned golden match
//! set live in `tests/workload_oracle.rs`.

use s_topss::core::{Config, Match, SToPSS, Tolerance};
use s_topss::workload::{jobfinder_fixture, Fixture};

/// Tolerances assigned round-robin so the matcher holds a mix of
/// verify-needing and default-tolerance subscriptions.
fn tolerance_for(k: usize) -> Option<Tolerance> {
    match k % 5 {
        3 => Some(Tolerance::bounded(1)),
        4 => Some(Tolerance::syntactic()),
        _ => None,
    }
}

fn subscribed_matcher(fixture: &Fixture, config: Config) -> SToPSS {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    for (k, sub) in fixture.subscriptions.iter().enumerate() {
        match tolerance_for(k) {
            Some(t) => matcher.subscribe_with_tolerance(sub.clone(), t),
            None => matcher.subscribe(sub.clone()),
        };
    }
    matcher
}

#[test]
fn publish_batch_equals_per_event_publish() {
    let fixture = jobfinder_fixture(120, 30, 9);
    let config = Config::default();
    let per_event = subscribed_matcher(&fixture, config);
    let sequential: Vec<Vec<Match>> =
        fixture.publications.iter().map(|e| per_event.publish(e)).collect();
    assert!(sequential.iter().any(|m| !m.is_empty()), "fixture must produce matches");
    for batch_size in [1usize, 7, 30] {
        let batched = subscribed_matcher(&fixture, config);
        let got: Vec<Vec<Match>> = fixture
            .publications
            .chunks(batch_size)
            .flat_map(|batch| batched.publish_batch(batch))
            .collect();
        assert_eq!(got, sequential, "batch_size={batch_size}");
        assert_eq!(batched.stats(), per_event.stats(), "batch_size={batch_size} stats");
    }
}
