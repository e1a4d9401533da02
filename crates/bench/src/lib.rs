//! Shared infrastructure for the S-ToPSS benchmark harness.
//!
//! The Criterion benches (one per experiment) and the `experiments`
//! binary (which regenerates every table in `EXPERIMENTS.md`) build their
//! fixtures and matchers through this crate so that both measure exactly
//! the same configurations.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;

use stopss_core::{Config, SToPSS};
use stopss_types::{Event, SubId, Subscription};
use stopss_workload::Fixture;

/// Builds a matcher over a fixture's ontology and loads its subscriptions.
pub fn matcher_for(fixture: &Fixture, config: Config) -> SToPSS {
    fixture.matcher(config)
}

/// Builds a matcher with one tolerance applied to every subscription.
pub fn matcher_with_tolerance(
    fixture: &Fixture,
    config: Config,
    tolerance: stopss_core::Tolerance,
) -> SToPSS {
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    for sub in &fixture.subscriptions {
        matcher.subscribe_with_tolerance(sub.clone(), tolerance);
    }
    matcher
}

/// Builds a matcher with per-subscription tolerances cycled from
/// `cycle` — the mixed-tolerance verify workload of the
/// `semantic_overhead` bench's cached-vs-oracle axis.
pub fn matcher_with_cycled_tolerances(
    fixture: &Fixture,
    config: Config,
    cycle: &[stopss_core::Tolerance],
) -> SToPSS {
    assert!(!cycle.is_empty(), "need at least one tolerance");
    let matcher = SToPSS::new(config, fixture.source.clone(), fixture.interner.clone());
    for (k, sub) in fixture.subscriptions.iter().enumerate() {
        matcher.subscribe_with_tolerance(sub.clone(), cycle[k % cycle.len()]);
    }
    matcher
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
    /// Derived events fed to the engine during the timed pass.
    pub derived_events: u64,
    /// Publications whose processing hit a resource cap.
    pub truncations: u64,
}

/// Publishes every event once (after one untimed warm-up pass over the
/// first `warmup` events) and reports matches and mean latency.
pub fn timed_sweep(matcher: &SToPSS, events: &[Event], warmup: usize) -> SweepResult {
    for event in events.iter().take(warmup) {
        let _ = matcher.publish(event);
    }
    let stats_before = matcher.stats();
    let start = Instant::now();
    let mut matches = 0u64;
    for event in events {
        matches += matcher.publish(event).len() as u64;
    }
    let elapsed = start.elapsed();
    let stats_after = matcher.stats();
    let ns_per_event = elapsed.as_nanos() as f64 / events.len().max(1) as f64;
    SweepResult {
        matches,
        ns_per_event,
        events_per_sec: if ns_per_event > 0.0 { 1e9 / ns_per_event } else { 0.0 },
        derived_events: stats_after.derived_events - stats_before.derived_events,
        truncations: stats_after.truncations - stats_before.truncations,
    }
}

/// A scalar value in the perf-trajectory JSON reports.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// A string (quoted and escaped).
    Str(String),
    /// An unsigned integer.
    UInt(u64),
    /// A float (emitted with one decimal, enough for nanosecond means).
    Float(f64),
}

impl JsonValue {
    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:.1}");
                } else {
                    out.push_str("null");
                }
            }
        }
    }
}

/// One measurement row of a perf-trajectory report: ordered
/// `(field, value)` pairs.
pub type JsonRow = Vec<(&'static str, JsonValue)>;

/// The [`SweepResult`] counters as JSON fields, appended to a row's
/// identifying fields by the bench emitters.
pub fn sweep_json_fields(result: &SweepResult) -> JsonRow {
    vec![
        ("matches", JsonValue::UInt(result.matches)),
        ("ns_per_event", JsonValue::Float(result.ns_per_event)),
        ("events_per_sec", JsonValue::Float(result.events_per_sec)),
        ("derived_events", JsonValue::UInt(result.derived_events)),
        ("truncations", JsonValue::UInt(result.truncations)),
    ]
}

/// Renders a perf-trajectory report: a top-level object with the bench
/// name, free-form context fields, and a `rows` array. Hand-rolled so the
/// offline workspace needs no serde; committed at the repo root as
/// `BENCH_<name>.json` so `git log` shows the trajectory PR-over-PR.
pub fn render_bench_json(bench: &str, context: &[(&str, JsonValue)], rows: &[JsonRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = write!(out, "  \"bench\": ");
    JsonValue::Str(bench.to_owned()).render(&mut out);
    for (name, value) in context {
        let _ = write!(out, ",\n  \"{name}\": ");
        value.render(&mut out);
    }
    out.push_str(",\n  \"rows\": [\n");
    for (k, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (name, value)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": ");
            value.render(&mut out);
        }
        out.push('}');
        if k + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
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

/// A deterministic prefix of a fixture's subscriptions (for sweeps over
/// subscription count).
pub fn take_subscriptions(fixture: &Fixture, n: usize) -> Vec<Subscription> {
    fixture.subscriptions.iter().take(n).cloned().collect()
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
        assert_eq!(result.derived_events, 50, "generalized strategy: one per event");
        assert_eq!(result.truncations, 0);
    }

    #[test]
    fn cycled_tolerances_change_match_sets_and_paths_agree() {
        use stopss_core::Tolerance;
        let fixture = jobfinder_fixture(60, 40, 3);
        let cycle = [Tolerance::full(), Tolerance::bounded(1), Tolerance::syntactic()];
        let config = Config::default().with_provenance(false);
        let cached = matcher_with_cycled_tolerances(&fixture, config, &cycle);
        let oracle =
            matcher_with_cycled_tolerances(&fixture, config.with_tier_cache(false), &cycle);
        let uniform = matcher_with_tolerance(&fixture, config, Tolerance::full());
        let mut cached_total = 0usize;
        let mut oracle_total = 0usize;
        let mut uniform_total = 0usize;
        for event in &fixture.publications {
            cached_total += cached.publish(event).len();
            oracle_total += oracle.publish(event).len();
            uniform_total += uniform.publish(event).len();
        }
        assert_eq!(cached_total, oracle_total, "cached and oracle verify paths agree");
        assert!(cached_total < uniform_total, "stricter tolerances must drop matches");
        assert!(cached.stats().verifications > 0);
    }

    #[test]
    fn bench_json_renders_rows_and_escapes() {
        let rows = vec![
            vec![
                ("engine", JsonValue::Str("counting".into())),
                ("subscriptions", JsonValue::UInt(2)),
                ("ns_per_event", JsonValue::Float(1234.56)),
            ],
            vec![("engine", JsonValue::Str("a\"b".into()))],
        ];
        let json =
            render_bench_json("semantic", &[("workload", JsonValue::Str("job".into()))], &rows);
        assert!(json.contains("\"bench\": \"semantic\""));
        assert!(json.contains("\"workload\": \"job\""));
        assert!(json.contains("\"subscriptions\": 2"));
        assert!(json.contains("\"ns_per_event\": 1234.6"));
        assert!(json.contains("\\\"b"), "quotes must be escaped: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sweep_json_fields_cover_all_counters() {
        let fixture = jobfinder_fixture(20, 10, 1);
        let matcher = matcher_for(&fixture, Config::default().with_provenance(false));
        let result = timed_sweep(&matcher, &fixture.publications, 0);
        let fields = sweep_json_fields(&result);
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["matches", "ns_per_event", "events_per_sec", "derived_events", "truncations"]
        );
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

    #[test]
    fn take_subscriptions_prefix() {
        let fixture = jobfinder_fixture(30, 1, 5);
        let subs = take_subscriptions(&fixture, 10);
        assert_eq!(subs.len(), 10);
        assert_eq!(subs[0], fixture.subscriptions[0]);
    }
}
