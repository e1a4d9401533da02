//! E1/E3 — cost of the semantic stage (Figure 1 ablation; claim C1:
//! "very fast without affecting already good performance of the matching
//! algorithms").
//!
//! Publish latency per stage combination over the job-finder workload,
//! plus the tier-cache axis: on a hierarchy-heavy synthetic workload,
//! provenance-on and mixed-tolerance-verify throughput with the
//! per-publication tier cache (`Config::tier_cache = true`, the default)
//! against the per-candidate oracle path (`false`) — the before/after of
//! the tier-cache PR, kept honest because both paths stay runnable.
//! Besides the criterion-stub report, the bench emits the
//! machine-readable perf trajectory `BENCH_semantic.json` at the repo
//! root; CI regenerates it and the file is committed so `git log` shows
//! the trajectory PR-over-PR.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use stopss_bench::{
    matcher_for, matcher_with_cycled_tolerances, render_bench_json, sweep_json_fields, timed_sweep,
    JsonRow, JsonValue, SweepResult,
};
use stopss_core::{Config, StageMask, Tolerance};
use stopss_workload::{
    jobfinder_fixture, synthetic_fixture, Fixture, SyntheticConfig, SyntheticWorkload,
};

const SUBSCRIPTION_COUNTS: [usize; 2] = [1_000, 10_000];
const PUBLICATIONS: usize = 200;
const WARMUP: usize = 25;

/// Hierarchy-heavy workload for the tier-cache axis: deep taxonomies, no
/// mapping chain, general-biased subscriptions — most matches are
/// `Hierarchy { distance }` classifications, the case the per-candidate
/// oracle paid a bounded distance search for.
fn hierarchy_fixture() -> Fixture {
    let shape = SyntheticConfig {
        attrs: 4,
        depth: 6,
        fanout: 2,
        synonyms_per_concept: 0.25,
        mapping_chain: 0,
        seed: 1,
    };
    let workload = SyntheticWorkload {
        subscriptions: 1_500,
        publications: 150,
        preds_per_sub: 2,
        pairs_per_event: 3,
        general_term_bias: 0.9,
        seed: 5,
    };
    synthetic_fixture(&shape, &workload)
}

/// Mixed verification classes for the verify axis (3 of 4 subscriptions
/// differ from the system tolerance and need per-candidate verification).
fn verify_cycle() -> [Tolerance; 4] {
    [
        Tolerance::full(),
        Tolerance::bounded(1),
        Tolerance::bounded(3),
        Tolerance::stages(StageMask::SYNONYM),
    ]
}

fn stage_sets() -> [(&'static str, StageMask); 4] {
    [
        ("syntactic", StageMask::syntactic()),
        ("synonym", StageMask::SYNONYM),
        ("syn+hier", StageMask::SYNONYM.with(StageMask::HIERARCHY)),
        ("all", StageMask::all()),
    ]
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantic_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for subs in SUBSCRIPTION_COUNTS {
        let fixture = jobfinder_fixture(subs, PUBLICATIONS, 7);
        for (label, stages) in stage_sets() {
            let config = Config { stages, track_provenance: false, ..Config::default() };
            let matcher = matcher_for(&fixture, config);
            let events = &fixture.publications;
            let mut idx = 0usize;
            group.bench_with_input(BenchmarkId::new(label, subs), &subs, |b, _| {
                b.iter(|| {
                    let event = &events[idx % events.len()];
                    idx += 1;
                    black_box(matcher.publish(event).len())
                })
            });
        }
    }
    group.finish();
}

/// Full-pass timed sweeps for the committed perf trajectory.
fn trajectory_rows() -> Vec<JsonRow> {
    let mut rows = Vec::new();
    for subs in SUBSCRIPTION_COUNTS {
        let fixture = jobfinder_fixture(subs, PUBLICATIONS, 7);
        for (label, stages) in stage_sets() {
            let config = Config { stages, track_provenance: false, ..Config::default() };
            let matcher = matcher_for(&fixture, config);
            let result = timed_sweep(&matcher, &fixture.publications, WARMUP);
            let mut row: JsonRow = vec![
                ("workload", JsonValue::Str("jobfinder".to_owned())),
                ("axis", JsonValue::Str("stages".to_owned())),
                ("stages", JsonValue::Str(label.to_owned())),
                ("subscriptions", JsonValue::UInt(subs as u64)),
            ];
            row.extend(sweep_json_fields(&result));
            rows.push(row);
        }
    }
    rows
}

fn tier_row(axis: &str, path: &str, result: &SweepResult) -> JsonRow {
    let mut row: JsonRow = vec![
        ("workload", JsonValue::Str("synthetic-hier".to_owned())),
        ("axis", JsonValue::Str(axis.to_owned())),
        ("path", JsonValue::Str(path.to_owned())),
    ];
    row.extend(sweep_json_fields(result));
    row
}

/// The tier-cache axis: cached vs oracle per-candidate work on the
/// hierarchy-heavy workload, for provenance classification and for
/// mixed-tolerance verification. Returns the rows plus the provenance-on
/// cached-over-oracle throughput ratio (the PR's headline number).
fn tier_cache_rows() -> (Vec<JsonRow>, f64) {
    let fixture = hierarchy_fixture();
    let stages = StageMask::SYNONYM.with(StageMask::HIERARCHY);
    let warmup = 15;
    let mut rows = Vec::new();

    // Provenance axis: off / on-cached / on-oracle, uniform tolerance.
    let base = Config { stages, ..Config::default() };
    let off = timed_sweep(
        &matcher_for(&fixture, base.with_provenance(false)),
        &fixture.publications,
        warmup,
    );
    rows.push(tier_row("provenance-off", "-", &off));
    let cached = timed_sweep(&matcher_for(&fixture, base), &fixture.publications, warmup);
    rows.push(tier_row("provenance-on", "cached", &cached));
    let oracle = timed_sweep(
        &matcher_for(&fixture, base.with_tier_cache(false)),
        &fixture.publications,
        warmup,
    );
    rows.push(tier_row("provenance-on", "oracle", &oracle));
    let provenance_speedup =
        if cached.ns_per_event > 0.0 { oracle.ns_per_event / cached.ns_per_event } else { 0.0 };

    // Verify axis: mixed per-subscription tolerances, provenance off so
    // the rows isolate verification cost.
    let verify_base = base.with_provenance(false);
    let cycle = verify_cycle();
    let v_cached = timed_sweep(
        &matcher_with_cycled_tolerances(&fixture, verify_base, &cycle),
        &fixture.publications,
        warmup,
    );
    rows.push(tier_row("verify-mixed", "cached", &v_cached));
    let v_oracle = timed_sweep(
        &matcher_with_cycled_tolerances(&fixture, verify_base.with_tier_cache(false), &cycle),
        &fixture.publications,
        warmup,
    );
    rows.push(tier_row("verify-mixed", "oracle", &v_oracle));

    (rows, provenance_speedup)
}

criterion_group!(benches, bench_overhead);

fn main() {
    benches();
    // Opt-in trajectory: plain `cargo bench` stays a fast smoke run.
    if std::env::var_os("BENCH_TRAJECTORY").is_none() {
        return;
    }
    let mut rows = trajectory_rows();
    let (tier_rows, provenance_speedup) = tier_cache_rows();
    rows.extend(tier_rows);
    let json = render_bench_json(
        "semantic_overhead",
        &[
            ("workload", JsonValue::Str("jobfinder + synthetic-hier".to_owned())),
            ("publications", JsonValue::UInt(PUBLICATIONS as u64)),
            // Provenance-on publish throughput, tier cache over the
            // per-candidate oracle path, on the hierarchy-heavy workload.
            ("provenance_cached_speedup", JsonValue::Float(provenance_speedup)),
        ],
        &rows,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_semantic.json");
    std::fs::write(path, json).expect("write BENCH_semantic.json");
    println!("wrote {path}");
}
