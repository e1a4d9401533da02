//! Helpers for the `experiments` binary, which regenerates the paper-claim
//! tables under `results/`: matcher construction, a timed publication
//! sweep and recall over match sets.

#![warn(missing_docs)]

use std::time::Instant;

use stopss_core::{Config, SToPSS};
use stopss_types::{Event, SubId};
use stopss_workload::Fixture;

/// Builds a matcher over a fixture's ontology and loads its subscriptions.
pub fn matcher_for(fixture: &Fixture, config: Config) -> SToPSS {
    fixture.matcher(config)
}

/// Result of one timed publication sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepResult {
    /// Total matches across all publications.
    pub matches: u64,
    /// Mean publish latency in nanoseconds.
    pub ns_per_event: f64,
    /// Publications per second implied by the mean.
    pub events_per_sec: f64,
}

/// Publishes every event once (after one untimed warm-up pass over the
/// first `warmup` events) and reports matches and mean latency.
pub fn timed_sweep(matcher: &SToPSS, events: &[Event], warmup: usize) -> SweepResult {
    for event in events.iter().take(warmup) {
        let _ = matcher.publish(event);
    }
    let start = Instant::now();
    let mut matches = 0u64;
    for event in events {
        matches += matcher.publish(event).len() as u64;
    }
    let ns_per_event = start.elapsed().as_nanos() as f64 / events.len().max(1) as f64;
    SweepResult {
        matches,
        ns_per_event,
        events_per_sec: if ns_per_event > 0.0 { 1e9 / ns_per_event } else { 0.0 },
    }
}

/// Match sets per event, for recall comparisons between configurations.
pub fn match_sets(matcher: &SToPSS, events: &[Event]) -> Vec<Vec<SubId>> {
    events
        .iter()
        .map(|event| {
            let mut ids: Vec<SubId> = matcher.publish(event).iter().map(|m| m.sub).collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Recall of `got` against reference match sets: matched pairs found /
/// matched pairs expected. 1.0 when the reference is empty.
pub fn recall(got: &[Vec<SubId>], reference: &[Vec<SubId>]) -> f64 {
    let expected: usize = reference.iter().map(Vec::len).sum();
    if expected == 0 {
        return 1.0;
    }
    let mut found = 0usize;
    for (g, r) in got.iter().zip(reference) {
        found += r.iter().filter(|id| g.binary_search(id).is_ok()).count();
    }
    found as f64 / expected as f64
}

/// Total number of matched (event, subscription) pairs.
pub fn total_matches(sets: &[Vec<SubId>]) -> usize {
    sets.iter().map(Vec::len).sum()
}

/// Times `f` over `iters` runs and returns mean nanoseconds.
pub fn time_mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_workload::jobfinder_fixture;

    #[test]
    fn timed_sweep_counts_matches() {
        let fixture = jobfinder_fixture(50, 50, 3);
        let matcher = matcher_for(&fixture, Config::default().with_provenance(false));
        let result = timed_sweep(&matcher, &fixture.publications, 5);
        assert!(result.ns_per_event > 0.0);
        assert!(result.events_per_sec > 0.0);
        let sets = match_sets(&matcher, &fixture.publications);
        assert_eq!(result.matches as usize, total_matches(&sets));
    }

    #[test]
    fn recall_is_one_against_self_and_less_for_subsets() {
        let a = vec![vec![SubId(1), SubId(2)], vec![SubId(3)]];
        let b = vec![vec![SubId(1)], vec![SubId(3)]];
        assert_eq!(recall(&a, &a), 1.0);
        assert!((recall(&b, &a) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(recall(&a, &b), 1.0, "supersets have full recall");
        assert_eq!(recall(&[], &[]), 1.0);
        assert_eq!(total_matches(&a), 3);
    }

    #[test]
    fn match_sets_are_sorted() {
        let fixture = jobfinder_fixture(30, 20, 5);
        let matcher = matcher_for(&fixture, Config::default().with_provenance(false));
        for set in match_sets(&matcher, &fixture.publications) {
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
