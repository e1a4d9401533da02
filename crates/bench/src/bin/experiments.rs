//! Regenerates every paper-claim table under `results/`.
//!
//! The S-ToPSS paper is a demonstration paper: its evaluation artifacts
//! are Figure 1 (the semantic-stage architecture), Figure 2 (the demo
//! setup), and a set of qualitative claims. Each experiment below turns
//! one of them into a measured table.
//!
//! Usage:
//!   experiments [--quick] [--check] [exp ...]
//! where `exp` ∈ {fig1, fig2, overhead, ontology, engines, tolerance,
//! multidomain, strategy, hierarchy, scenarios, all} (default: all).
//! Tables are printed and written to `results/<exp>.md` / `.csv`
//! (`results/quick/<exp>.*` with `--quick`, so the fast sweep has its own
//! committed goldens at its own scale).
//!
//! `--check` is the CI freshness gate: instead of writing, regenerated
//! tables are compared against the committed CSVs with *timing columns
//! masked* (latency/rate cells vary run to run; match counts, recall,
//! delivery conservation and derivation counters are deterministic), and
//! the process exits non-zero on any drift — guarding the oracle tables
//! against silent decay. It also asserts exact laws on the regenerated
//! tables themselves (today E8's, see `e8_law`), so a regression fails
//! even if the committed tables were regenerated along with it. An
//! unknown argument, and a failed write while regenerating, also exit
//! non-zero.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stopss_types::sync::Arc;

use stopss_bench::{match_sets, matcher_for, recall, timed_sweep, total_matches};
use stopss_broker::{run_chaos, Broker, BrokerConfig, ChaosConfig, TransportKind};
use stopss_core::{
    expand_subscription, materialize_match, semantic_closure, synonym_resolve_subscription, Config,
    OriginCounts, StageMask, Tolerance,
};
use stopss_matching::EngineKind;
use stopss_ontology::{
    DomainRegistry, Expr, MappingFunction, Ontology, PatternItem, Production, SemanticSource,
};
use stopss_types::{
    Event, FxHashSet, Interner, Predicate, SharedInterner, SubId, Subscription, Value,
};
use stopss_workload::{
    build_synthetic, churn_scenario, fmt_f64, fmt_nanos, geo_fixture, iot_fixture,
    jobfinder_fixture, market_fixture, replay_interleaved, replay_sequential, synthetic_fixture,
    ChurnMode, ChurnOp, Fixture, Rng, SyntheticConfig, SyntheticWorkload, Table,
};

struct Scale {
    subs: usize,
    pubs: usize,
    big_subs: Vec<usize>,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale { subs: 500, pubs: 500, big_subs: vec![100, 1_000, 5_000] }
    } else {
        Scale { subs: 2_000, pubs: 2_000, big_subs: vec![100, 1_000, 10_000, 50_000] }
    }
}

/// Every experiment, in run order.
const EXPERIMENTS: [&str; 10] = [
    "fig1",
    "fig2",
    "overhead",
    "ontology",
    "engines",
    "tolerance",
    "multidomain",
    "strategy",
    "hierarchy",
    "scenarios",
];

/// Prints `message` and exits non-zero.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    // A misspelled flag or name must fail: skipping it would let
    // `--check` pass without checking anything.
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !matches!(*a, "--quick" | "--check" | "all") && !EXPERIMENTS.contains(a))
        .collect();
    if !unknown.is_empty() {
        fail(&format!(
            "unknown argument(s): {}\nusage: experiments [--quick] [--check] [all | {} ...]",
            unknown.join(", "),
            EXPERIMENTS.join(" | ")
        ));
    }
    let mut selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if selected.is_empty() || selected.contains(&"all") {
        selected = EXPERIMENTS.to_vec();
    }
    let s = scale(quick);
    let dir = if quick { "results/quick" } else { "results" };
    if !check {
        if let Err(err) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create {dir}: {err}"));
        }
    }

    let started = Instant::now();
    let mut drifted: Vec<String> = Vec::new();
    let mut broken_laws: Vec<String> = Vec::new();
    for exp in selected {
        let tables = match exp {
            "fig1" => exp_fig1(&s),
            "fig2" => exp_fig2(&s),
            "overhead" => exp_overhead(&s),
            "ontology" => exp_ontology(quick),
            "engines" => exp_engines(&s),
            "tolerance" => exp_tolerance(&s),
            "multidomain" => exp_multidomain(&s),
            "strategy" => exp_strategy(quick),
            "hierarchy" => exp_hierarchy(quick),
            "scenarios" => exp_scenarios(&s, quick),
            other => unreachable!("experiment '{other}' was validated above"),
        };
        let mut md = String::new();
        let mut csv = String::new();
        for table in &tables {
            println!("{}", table.to_text());
            writeln!(md, "{}", table.to_markdown()).unwrap();
            writeln!(csv, "# {}\n{}", table.title, table.to_csv()).unwrap();
        }
        if check {
            if exp == "strategy" {
                broken_laws.extend(e8_law(&tables[0]));
            }
            let path = format!("{dir}/{exp}.csv");
            match std::fs::read_to_string(&path) {
                Ok(committed) => {
                    if let Err(diff) = compare_masked(&committed, &csv) {
                        eprintln!("freshness: {path} drifted\n{diff}");
                        drifted.push(path);
                    }
                }
                Err(err) => {
                    eprintln!("freshness: cannot read {path}: {err}");
                    drifted.push(path);
                }
            }
        } else {
            for (ext, text) in [("md", md), ("csv", csv)] {
                let path = format!("{dir}/{exp}.{ext}");
                if let Err(err) = std::fs::write(&path, text) {
                    fail(&format!("cannot write {path}: {err}"));
                }
            }
        }
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    if check {
        for law in &broken_laws {
            eprintln!("{law}");
        }
        if drifted.is_empty() && broken_laws.is_empty() {
            eprintln!("freshness check passed: regenerated tables match the committed ones");
        } else {
            fail(&format!(
                "freshness check FAILED: {} table file(s) drifted{}, {} law violation(s)",
                drifted.len(),
                drifted.iter().map(|d| format!(" {d}")).collect::<String>(),
                broken_laws.len()
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Freshness gate: committed-vs-regenerated comparison with timing masked.

/// True if a column holds wall-clock-dependent values (latencies, rates,
/// ratios of latencies): masked out of the freshness comparison. Count
/// columns (matches, recall, deliveries, derivation counters) stay.
fn is_timing_column(header: &str) -> bool {
    const TIMING: [&str; 9] = [
        "publish", // "mean publish"
        "pubs/sec",
        "time",     // "closure time", "engine time", "subscribe time"
        "overhead", // "overhead vs syntactic"
        "closure share",
        "speedup", // "speedup vs naive"
        "resolve", // E4 "synonym resolve"
        "check",   // E4 "is_a check"
        "walk",    // E4 "ancestor walk" (+ "mapping candidates" below)
    ];
    let h = header.to_ascii_lowercase();
    TIMING.iter().any(|p| h.contains(p)) || h.contains("candidates")
}

/// Splits one CSV line into cells, honoring `"…"` quoting with `""`
/// escapes (the inverse of `Table::to_csv`).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cell.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => cells.push(std::mem::take(&mut cell)),
            c => cell.push(c),
        }
    }
    cells.push(cell);
    cells
}

/// Renders a results CSV with every timing cell replaced by `~`, so two
/// runs of the same deterministic experiment normalize identically.
fn mask_timing_cells(text: &str) -> String {
    let mut out = String::new();
    let mut mask: Vec<bool> = Vec::new();
    let mut expect_header = false;
    for line in text.lines() {
        if let Some(title) = line.strip_prefix("# ") {
            writeln!(out, "# {title}").unwrap();
            expect_header = true;
            continue;
        }
        let cells = split_csv_line(line);
        if expect_header {
            mask = cells.iter().map(|h| is_timing_column(h)).collect();
            expect_header = false;
            writeln!(out, "{}", cells.join("|")).unwrap();
            continue;
        }
        let masked: Vec<String> = cells
            .iter()
            .enumerate()
            .map(
                |(k, c)| {
                    if mask.get(k).copied().unwrap_or(false) {
                        "~".to_owned()
                    } else {
                        c.clone()
                    }
                },
            )
            .collect();
        writeln!(out, "{}", masked.join("|")).unwrap();
    }
    out
}

/// Compares two results CSVs modulo timing columns; `Err` carries the
/// first differing line pair.
fn compare_masked(committed: &str, fresh: &str) -> Result<(), String> {
    let committed = mask_timing_cells(committed);
    let fresh = mask_timing_cells(fresh);
    if committed == fresh {
        return Ok(());
    }
    let mut c_lines = committed.lines();
    let mut f_lines = fresh.lines();
    loop {
        match (c_lines.next(), f_lines.next()) {
            (Some(c), Some(f)) if c == f => continue,
            (c, f) => {
                return Err(format!(
                    "  committed: {}\n  fresh:     {}",
                    c.unwrap_or("<eof>"),
                    f.unwrap_or("<eof>")
                ));
            }
        }
    }
}

/// E1 / Figure 1 — stage ablation: every combination of the three
/// semantic stages; match counts and cost on the job-finder workload.
fn exp_fig1(s: &Scale) -> Vec<Table> {
    let fixture = jobfinder_fixture(s.subs, s.pubs, 2003);
    let mut table = Table::new(
        format!("E1 (Figure 1): stage ablation — job-finder, {} subs x {} pubs", s.subs, s.pubs),
        &["stages", "matches", "uplift vs syntactic", "mean publish", "pubs/sec"],
    );
    let mut syntactic_matches = 0u64;
    for stages in StageMask::all_combinations() {
        let config = Config { stages, track_provenance: false, ..Config::default() };
        let matcher = matcher_for(&fixture, config);
        let result = timed_sweep(&matcher, &fixture.publications, 50);
        if stages.is_syntactic() {
            syntactic_matches = result.matches;
        }
        let uplift = if syntactic_matches > 0 {
            format!("{:.2}x", result.matches as f64 / syntactic_matches as f64)
        } else {
            "-".into()
        };
        table.push_row(vec![
            stages.to_string(),
            result.matches.to_string(),
            uplift,
            fmt_nanos(result.ns_per_event),
            fmt_f64(result.events_per_sec),
        ]);
    }

    // Attribution: where do full-semantics matches come from?
    let mut origin_table = Table::new(
        "E1b: match origins under full semantics (provenance on)",
        &["origin", "matches", "share"],
    );
    let matcher = matcher_for(&fixture, Config::default());
    let mut counts = OriginCounts::default();
    for event in fixture.publications.iter().take(s.pubs.min(500)) {
        for m in matcher.publish(event) {
            counts.record(m.origin);
        }
    }
    let total = counts.total().max(1);
    for (label, n) in [
        ("syntactic", counts.syntactic),
        ("synonym", counts.synonym),
        ("hierarchy", counts.hierarchy),
        ("mapping", counts.mapping),
    ] {
        origin_table.push_row(vec![
            label.into(),
            n.to_string(),
            format!("{:.1}%", 100.0 * n as f64 / total as f64),
        ]);
    }
    vec![table, origin_table]
}

/// E2 / Figure 2 — the demonstration setup: broker + workload generator +
/// notification engine, semantic vs syntactic mode.
fn exp_fig2(s: &Scale) -> Vec<Table> {
    let fixture = jobfinder_fixture(s.subs.min(1_000), s.pubs, 42);
    let mut mode_table = Table::new(
        format!(
            "E2 (Figure 2): demo end-to-end — {} subs, {} pubs, 4 transports",
            fixture.subscriptions.len(),
            fixture.publications.len()
        ),
        &["mode", "matches", "pubs/sec", "notifications delivered", "lost (udp)", "sms retries"],
    );
    let mut transport_table = Table::new(
        "E2b: per-transport delivery (semantic mode)",
        &["transport", "attempted", "delivered", "lost", "retried", "rate-dropped"],
    );

    for semantic in [true, false] {
        let broker = Broker::new(
            BrokerConfig {
                udp_loss: 0.02,
                matcher: Config { track_provenance: false, ..Config::default() },
                ..Default::default()
            },
            fixture.source.clone(),
            fixture.interner.clone(),
        );
        broker.set_semantic_mode(semantic);
        let clients: Vec<_> = TransportKind::ALL
            .iter()
            .map(|kind| broker.register_client(format!("co-{}", kind.name()), *kind))
            .collect();
        for (k, sub) in fixture.subscriptions.iter().enumerate() {
            broker.subscribe(clients[k % clients.len()], sub.predicates().to_vec()).unwrap();
        }
        let start = Instant::now();
        let mut matches = 0usize;
        for event in &fixture.publications {
            matches += broker.publish(event);
        }
        let elapsed = start.elapsed();
        let stats = broker.shutdown();
        let udp = stats.get(TransportKind::Udp);
        let sms = stats.get(TransportKind::Sms);
        mode_table.push_row(vec![
            if semantic { "semantic" } else { "syntactic" }.into(),
            matches.to_string(),
            fmt_f64(fixture.publications.len() as f64 / elapsed.as_secs_f64()),
            stats.total_delivered().to_string(),
            udp.lost.to_string(),
            sms.retried.to_string(),
        ]);
        if semantic {
            for kind in TransportKind::ALL {
                let t = stats.get(kind);
                transport_table.push_row(vec![
                    kind.name().into(),
                    t.attempted.to_string(),
                    t.delivered.to_string(),
                    t.lost.to_string(),
                    t.retried.to_string(),
                    t.rate_dropped.to_string(),
                ]);
            }
        }
    }
    vec![mode_table, transport_table]
}

/// E3 / Claim C1 — "the semantic stage is very fast without affecting the
/// already good performance of the matching algorithms": overhead factor
/// of each stage over raw syntactic matching, versus subscription count.
fn exp_overhead(s: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "E3 (claim C1): semantic-stage overhead vs raw matching (counting engine)",
        &["subscriptions", "stages", "mean publish", "overhead vs syntactic"],
    );
    for &n in &s.big_subs {
        let fixture = jobfinder_fixture(n, s.pubs.min(1_000), 7);
        let mut baseline = 0.0f64;
        for stages in [
            StageMask::syntactic(),
            StageMask::SYNONYM,
            StageMask::SYNONYM.with(StageMask::HIERARCHY),
            StageMask::all(),
        ] {
            let config = Config { stages, track_provenance: false, ..Config::default() };
            let matcher = matcher_for(&fixture, config);
            let result = timed_sweep(&matcher, &fixture.publications, 50);
            if stages.is_syntactic() {
                baseline = result.ns_per_event;
            }
            table.push_row(vec![
                n.to_string(),
                stages.to_string(),
                fmt_nanos(result.ns_per_event),
                format!("{:.2}x", result.ns_per_event / baseline),
            ]);
        }
    }
    vec![table, exp_overhead_breakdown(s)]
}

/// E3b — where does publish time go? The closure (semantic stage) and the
/// engine match are both public APIs, so they can be timed separately.
fn exp_overhead_breakdown(s: &Scale) -> Table {
    use stopss_core::ClosureLimits;
    let mut table = Table::new(
        "E3b: publish-time breakdown — semantic closure vs engine match",
        &["subscriptions", "closure time", "engine time", "closure share"],
    );
    for &n in &s.big_subs {
        let fixture = jobfinder_fixture(n, s.pubs.min(500), 7);
        // Closure-only timing.
        let source = fixture.source.clone();
        let interner = fixture.interner.snapshot();
        let events = &fixture.publications;
        let mut idx = 0usize;
        let closure_ns = stopss_bench::time_mean_ns(events.len(), || {
            let event = &events[idx % events.len()];
            idx += 1;
            std::hint::black_box(semantic_closure(
                event,
                source.as_ref(),
                StageMask::all(),
                None,
                2003,
                &interner,
                &ClosureLimits::default(),
            ));
        });
        // Engine-only timing: match the pre-closed events.
        let closed: Vec<stopss_types::Event> = events
            .iter()
            .map(|event| {
                semantic_closure(
                    event,
                    source.as_ref(),
                    StageMask::all(),
                    None,
                    2003,
                    &interner,
                    &ClosureLimits::default(),
                )
                .event
            })
            .collect();
        let mut engine = stopss_matching::EngineKind::Counting.build();
        for sub in &fixture.subscriptions {
            engine.insert(
                stopss_core::synonym_resolve_subscription(sub, source.as_ref()).into_owned(),
            );
        }
        let mut out = Vec::new();
        let mut idx = 0usize;
        let engine_ns = stopss_bench::time_mean_ns(closed.len(), || {
            out.clear();
            let event = &closed[idx % closed.len()];
            idx += 1;
            engine.match_event(event, &interner, &mut out);
            std::hint::black_box(out.len());
        });
        table.push_row(vec![
            n.to_string(),
            fmt_nanos(closure_ns),
            fmt_nanos(engine_ns),
            format!("{:.0}%", 100.0 * closure_ns / (closure_ns + engine_ns)),
        ]);
    }
    table
}

/// E4 / Claim C2 — hash structures keep semantic lookups fast as the
/// ontology grows.
fn exp_ontology(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E4 (claim C2): semantic lookup latency vs ontology size",
        &["concepts", "synonym resolve", "is_a check", "ancestor walk", "mapping candidates"],
    );
    let depths: &[usize] = if quick { &[2, 4, 6] } else { &[2, 4, 6, 8] };
    for &depth in depths {
        let mut interner = Interner::new();
        let shape = SyntheticConfig {
            attrs: 1,
            depth,
            fanout: 4,
            synonyms_per_concept: 0.5,
            mapping_chain: 4,
            seed: 3,
        };
        let domain = build_synthetic(&mut interner, &shape);
        let concepts = domain.concept_count();
        let leaves = domain.leaves(0).to_vec();
        let root = domain.level(0, 0)[0];
        let aliases = domain.aliases.clone();
        let ontology = &domain.ontology;

        // Warm the taxonomy's ancestor cache once.
        let _ = ontology.is_a(leaves[0], root);

        let iters = 20_000usize;
        let mut rng = Rng::new(1);
        let resolve_ns = stopss_bench::time_mean_ns(iters, || {
            let term = if aliases.is_empty() { leaves[0] } else { *rng.pick(&aliases) };
            std::hint::black_box(ontology.resolve_synonym(term));
        });
        let mut rng = Rng::new(2);
        let isa_ns = stopss_bench::time_mean_ns(iters, || {
            let leaf = *rng.pick(&leaves);
            std::hint::black_box(ontology.is_a(leaf, root));
        });
        let mut rng = Rng::new(3);
        let anc_ns = stopss_bench::time_mean_ns(iters, || {
            let leaf = *rng.pick(&leaves);
            let mut count = 0u32;
            ontology.for_each_ancestor(leaf, &mut |_, _| count += 1);
            std::hint::black_box(count);
        });
        let chain_start = domain.chain_start.unwrap();
        let event = stopss_types::Event::new().with(chain_start, Value::Int(1));
        let map_ns = stopss_bench::time_mean_ns(iters, || {
            let mut fired = 0u32;
            ontology.apply_mappings(&event, &interner, 0, &mut |_, _| fired += 1);
            std::hint::black_box(fired);
        });
        table.push_row(vec![
            concepts.to_string(),
            fmt_nanos(resolve_ns),
            fmt_nanos(isa_ns),
            fmt_nanos(anc_ns),
            fmt_nanos(map_ns),
        ]);
    }
    vec![table]
}

/// E5 — the syntactic substrate baseline: engine comparison (references
/// \[1\] and \[4\] of the paper).
fn exp_engines(s: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "E5: syntactic engine comparison (semantic stages off)",
        &["subscriptions", "engine", "mean publish", "speedup vs naive", "matches"],
    );
    for &n in &s.big_subs {
        let fixture = jobfinder_fixture(n, s.pubs.min(500), 11);
        let mut naive_ns = 0.0f64;
        for engine in EngineKind::ALL {
            let config = Config {
                engine,
                stages: StageMask::syntactic(),
                track_provenance: false,
                ..Config::default()
            };
            let matcher = matcher_for(&fixture, config);
            let result = timed_sweep(&matcher, &fixture.publications, 20);
            if engine == EngineKind::Naive {
                naive_ns = result.ns_per_event;
            }
            table.push_row(vec![
                n.to_string(),
                engine.name().into(),
                fmt_nanos(result.ns_per_event),
                format!("{:.2}x", naive_ns / result.ns_per_event),
                result.matches.to_string(),
            ]);
        }
    }
    vec![table]
}

/// E6 / Claim C3 — the information-loss knob: recall vs cost across
/// tolerance settings.
fn exp_tolerance(s: &Scale) -> Vec<Table> {
    let fixture = jobfinder_fixture(s.subs, s.pubs.min(1_000), 13);
    // Reference: full semantics.
    let reference_matcher =
        matcher_for(&fixture, Config { track_provenance: false, ..Config::default() });
    let reference = match_sets(&reference_matcher, &fixture.publications);
    let reference_total = total_matches(&reference);

    let mut table = Table::new(
        format!("E6 (claim C3): tolerance — recall vs cost ({reference_total} reference matches)"),
        &["tolerance", "matches", "recall", "mean publish"],
    );
    let settings: Vec<(String, Tolerance)> = vec![
        ("syntactic".into(), Tolerance::syntactic()),
        ("synonym only".into(), Tolerance::stages(StageMask::SYNONYM)),
        (
            "syn+hier, k=1".into(),
            Tolerance {
                stages: StageMask::SYNONYM.with(StageMask::HIERARCHY),
                max_distance: Some(1),
            },
        ),
        ("all, k=1".into(), Tolerance::bounded(1)),
        ("all, k=2".into(), Tolerance::bounded(2)),
        ("all, k=3".into(), Tolerance::bounded(3)),
        ("all, unbounded".into(), Tolerance::full()),
    ];
    for (label, tolerance) in settings {
        // The tolerance is applied as the system configuration so the cost
        // column reflects the reduced closure work (a per-subscription
        // tolerance would measure verification cost instead).
        let config = Config {
            stages: tolerance.stages,
            max_distance: tolerance.max_distance,
            track_provenance: false,
            ..Config::default()
        };
        let matcher = matcher_for(&fixture, config);
        let start = Instant::now();
        let sets = match_sets(&matcher, &fixture.publications);
        let elapsed = start.elapsed();
        table.push_row(vec![
            label,
            total_matches(&sets).to_string(),
            format!("{:.3}", recall(&sets, &reference)),
            fmt_nanos(elapsed.as_nanos() as f64 / fixture.publications.len() as f64),
        ]);
    }
    vec![table]
}

/// E7 / Claim C4 — multi-domain operation with inter-domain bridges.
fn exp_multidomain(s: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "E7 (claim C4): multi-domain registry — cross-domain matches appear once a bridge exists",
        &["configuration", "in-domain matches", "cross-domain matches", "mean publish"],
    );
    for with_bridge in [false, true] {
        let mut interner = Interner::new();
        // Domain A: a value taxonomy plus a numeric signal attribute.
        let shape = SyntheticConfig {
            attrs: 2,
            depth: 3,
            fanout: 3,
            seed: 5,
            mapping_chain: 0,
            ..Default::default()
        };
        let domain_a = build_synthetic(&mut interner, &shape);
        let a_signal = interner.intern("a_signal");
        // Domain B: its own attribute vocabulary, one internal function.
        let b_metric = interner.intern("b_metric");
        let b_flag = interner.intern("b_flag");
        let mut domain_b = Ontology::new("domain_b");
        domain_b
            .mappings
            .register(MappingFunction::new(
                "b_internal",
                vec![PatternItem { attr: b_metric, guard: None }],
                vec![Production { attr: b_flag, expr: Expr::Const(Value::Bool(true)) }],
            ))
            .unwrap();

        let mut registry = DomainRegistry::new();
        let a0 = domain_a.attrs[0];
        registry.add_domain(domain_a.ontology.clone()).unwrap();
        registry.add_domain(domain_b).unwrap();
        if with_bridge {
            registry
                .add_bridge(MappingFunction::new(
                    "a_to_b",
                    vec![PatternItem { attr: a_signal, guard: None }],
                    vec![Production { attr: b_metric, expr: Expr::Attr(a_signal) }],
                ))
                .unwrap();
        }

        // Subscriptions: half on domain A terms, half on domain B's flag.
        let n = s.subs.min(500);
        let mut subs = Vec::new();
        let mut rng = Rng::new(17);
        let generals = domain_a.level(0, 1).to_vec();
        for k in 0..n {
            if k % 2 == 0 {
                subs.push(Subscription::new(
                    SubId(k as u64),
                    vec![Predicate::eq(a0, *rng.pick(&generals))],
                ));
            } else {
                subs.push(Subscription::new(
                    SubId(k as u64),
                    vec![Predicate::eq(b_flag, Value::Bool(true))],
                ));
            }
        }
        // Publications: domain A events carrying the bridged signal.
        let leaves = domain_a.leaves(0).to_vec();
        let events: Vec<stopss_types::Event> = (0..s.pubs.min(500))
            .map(|_| {
                stopss_types::Event::new()
                    .with(a0, Value::Sym(*rng.pick(&leaves)))
                    .with(a_signal, Value::Int(rng.range_i64(0, 100)))
            })
            .collect();

        let matcher = stopss_core::SToPSS::new(
            Config { track_provenance: false, ..Config::default() },
            Arc::new(registry),
            SharedInterner::from_interner(interner),
        );
        for sub in &subs {
            matcher.subscribe(sub.clone());
        }
        let start = Instant::now();
        let mut in_domain = 0usize;
        let mut cross_domain = 0usize;
        for event in &events {
            for m in matcher.publish(event) {
                if m.sub.0 % 2 == 0 {
                    in_domain += 1;
                } else {
                    cross_domain += 1;
                }
            }
        }
        let elapsed = start.elapsed();
        table.push_row(vec![
            if with_bridge { "two domains + bridge" } else { "two domains, no bridge" }.into(),
            in_domain.to_string(),
            cross_domain.to_string(),
            fmt_nanos(elapsed.as_nanos() as f64 / events.len() as f64),
        ]);
    }
    vec![table]
}

/// E8 — strategy ablation across taxonomy depth, with the subscribe-time
/// cost rewriting pays. `generalized` is the matcher: one flattened
/// closure per publication, matched once. The other two rows drive the
/// same engine through the cold references in `stopss_core::strategy`, as
/// the matcher once did: `materialize` (Figure 1 verbatim) matches every
/// event of the derivation lattice, at most 256 per publication;
/// `sub-rewrite` expands each subscription over taxonomy descendants, at
/// most 1 024 engine entries each, and skips the hierarchy stage at
/// publish time. Recall is against the closure semantics computed with no
/// engine; `--check` holds the `generalized` rows to [`e8_law`].
fn exp_strategy(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E8: strategy ablation across taxonomy depth",
        &[
            "depth",
            "strategy",
            "mean publish",
            "derived events/pub",
            "engine subs",
            "recall",
            "subscribe time",
        ],
    );
    let depths: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4, 5] };
    for &depth in depths {
        let shape = SyntheticConfig {
            attrs: 4,
            depth,
            fanout: 3,
            mapping_chain: 2,
            seed: 23,
            ..Default::default()
        };
        let workload = SyntheticWorkload {
            subscriptions: if quick { 300 } else { 1_000 },
            publications: if quick { 200 } else { 500 },
            general_term_bias: 0.6,
            ..Default::default()
        };
        let fixture = synthetic_fixture(&shape, &workload);
        let config = Config { track_provenance: false, ..Config::default() };
        let (source, pubs) = (fixture.source.as_ref(), fixture.publications.len());
        let closure = |event: &Event, stages: StageMask, i: &Interner| {
            let limits = &config.limits.closure;
            semantic_closure(event, source, stages, None, config.now_year, i, limits).event
        };
        // The subscriptions synonym-resolved, as the matcher indexes them.
        let resolved: Vec<Subscription> = fixture
            .subscriptions
            .iter()
            .map(|sub| synonym_resolve_subscription(sub, source).into_owned())
            .collect();
        let (_, reference) = sweep(&fixture, |event, i| {
            let closed = closure(event, config.stages, i);
            resolved.iter().filter(|sub| sub.matches(&closed, i)).map(Subscription::id).collect()
        });
        // (strategy, subscribe time, publish time, engine events, engine
        // entries, match sets)
        let mut rows = Vec::new();

        let start = Instant::now();
        let mut engine = config.engine.build();
        resolved.iter().for_each(|sub| engine.insert(sub.clone()));
        let subscribe = start.elapsed();
        let mut events = 0;
        let (publish, sets) = sweep(&fixture, |event, i| {
            let mut candidates = FxHashSet::default();
            let (stages, year) = (config.stages, config.now_year);
            let (engine, found) = (engine.as_mut(), &mut candidates);
            events += materialize_match(event, source, stages, None, year, i, 256, engine, found)
                .derived_events;
            candidates.into_iter().collect()
        });
        rows.push(("materialize", subscribe, publish, events, engine.len(), sets));

        let start = Instant::now();
        let matcher = matcher_for(&fixture, config);
        let subscribe = start.elapsed();
        let start = Instant::now();
        let sets = match_sets(&matcher, &fixture.publications);
        let publish = start.elapsed();
        let events = matcher.stats().derived_events as usize;
        rows.push(("generalized", subscribe, publish, events, matcher.len(), sets));

        let start = Instant::now();
        let mut engine = config.engine.build();
        // Engine entry k belongs to subscription `owner[k]`.
        let mut owner: Vec<SubId> = Vec::new();
        for sub in &resolved {
            let hierarchy = config.stages.hierarchy();
            for combo in expand_subscription(sub, source, hierarchy, None, 1024).combos {
                engine.insert(Subscription::new(SubId(owner.len() as u64), combo));
                owner.push(sub.id());
            }
        }
        let subscribe = start.elapsed();
        let (mut out, stages) = (Vec::new(), config.stages.without(StageMask::HIERARCHY));
        let (publish, sets) = sweep(&fixture, |event, i| {
            out.clear();
            engine.match_event(&closure(event, stages, i), i, &mut out);
            out.iter().map(|k| owner[k.0 as usize]).collect()
        });
        rows.push(("sub-rewrite", subscribe, publish, pubs, owner.len(), sets));

        for (name, subscribe, publish, events, engine_subs, sets) in rows {
            table.push_row(vec![
                depth.to_string(),
                name.into(),
                fmt_nanos(publish.as_nanos() as f64 / pubs as f64),
                format!("{:.1}", events as f64 / pubs.max(1) as f64),
                engine_subs.to_string(),
                format!("{:.3}", recall(&sets, &reference)),
                fmt_nanos(subscribe.as_nanos() as f64),
            ]);
        }
    }
    vec![table]
}

/// Runs `matches` over every publication of `fixture`; returns the time it
/// took and each publication's matched ids, sorted and deduplicated.
fn sweep(
    fixture: &Fixture,
    mut matches: impl FnMut(&Event, &Interner) -> Vec<SubId>,
) -> (Duration, Vec<Vec<SubId>>) {
    let start = Instant::now();
    let sets = fixture.interner.with(|i| {
        let sets = fixture.publications.iter().map(|event| {
            let mut ids = matches(event, i);
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        sets.collect()
    });
    (start.elapsed(), sets)
}

/// The E8 law: at every depth the matcher (`generalized`) finds every
/// match the closure semantics defines (recall `1.000`) and feeds the
/// engine one event per publication (`1.0`). Returns each violation.
fn e8_law(table: &Table) -> Vec<String> {
    let column = |name: &str| {
        table.headers.iter().position(|h| h == name).expect("E8 has the column the law reads")
    };
    let (strategy, events, recall) =
        (column("strategy"), column("derived events/pub"), column("recall"));
    let rows: Vec<&Vec<String>> =
        table.rows.iter().filter(|row| row[strategy] == "generalized").collect();
    if rows.is_empty() {
        return vec!["E8 law: no generalized row".to_owned()];
    }
    let mut violations = Vec::new();
    for row in rows {
        for (k, want) in [(recall, "1.000"), (events, "1.0")] {
            if row[k] != want {
                violations.push(format!(
                    "E8 law: generalized at depth {} reads {} = {}, not {want}",
                    row[0], table.headers[k], row[k]
                ));
            }
        }
    }
    violations
}

/// E9 — hierarchy scaling: publish cost vs taxonomy depth and fanout.
fn exp_hierarchy(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E9: hierarchy stage scaling (generalized-event strategy)",
        &["depth", "fanout", "concepts", "closure pairs/pub", "mean publish", "matches"],
    );
    let depths: &[usize] = if quick { &[1, 3, 5] } else { &[1, 2, 3, 4, 5, 6] };
    for &depth in depths {
        for fanout in [2usize, 4] {
            let shape = SyntheticConfig {
                attrs: 3,
                depth,
                fanout,
                mapping_chain: 0,
                synonyms_per_concept: 0.2,
                seed: 31,
            };
            let workload = SyntheticWorkload {
                subscriptions: if quick { 300 } else { 1_000 },
                publications: if quick { 300 } else { 1_000 },
                ..Default::default()
            };
            let fixture = synthetic_fixture(&shape, &workload);
            let concepts = {
                let mut interner = Interner::new();
                build_synthetic(&mut interner, &shape).concept_count()
            };
            let config = Config { track_provenance: false, ..Config::default() };
            let matcher = matcher_for(&fixture, config);
            let result = timed_sweep(&matcher, &fixture.publications, 50);
            let stats = matcher.stats();
            table.push_row(vec![
                depth.to_string(),
                fanout.to_string(),
                concepts.to_string(),
                format!("{:.1}", stats.closure_pairs as f64 / stats.published.max(1) as f64),
                fmt_nanos(result.ns_per_event),
                result.matches.to_string(),
            ]);
        }
    }
    vec![table]
}

/// E10 — scenario diversity and the chaos harness: match profiles of the
/// four workload domains (origin attribution included), the churn
/// differential (interleaved replay vs the fresh-matcher oracle), and
/// delivery conservation under injected broker faults. Every column is a
/// deterministic count or parity verdict, so the freshness gate covers
/// this experiment unmasked.
fn exp_scenarios(s: &Scale, quick: bool) -> Vec<Table> {
    let domains: Vec<(&str, Fixture)> = vec![
        ("jobfinder", jobfinder_fixture(s.subs, s.pubs, 2003)),
        ("iot", iot_fixture(s.subs, s.pubs, 2003)),
        ("market", market_fixture(s.subs, s.pubs, 2003)),
        ("geo", geo_fixture(s.subs, s.pubs, 2003)),
    ];

    let mut profile = Table::new(
        format!("E10: per-domain match profile — {} subs x {} pubs", s.subs, s.pubs),
        &[
            "domain",
            "syntactic matches",
            "semantic matches",
            "uplift",
            "synonym",
            "hierarchy",
            "mapping",
        ],
    );
    for (name, fixture) in &domains {
        let syn_config =
            Config { stages: StageMask::syntactic(), track_provenance: false, ..Config::default() };
        let syn_matcher = matcher_for(fixture, syn_config);
        let syntactic: usize =
            fixture.publications.iter().map(|e| syn_matcher.publish(e).len()).sum();
        let matcher = matcher_for(fixture, Config::default());
        let mut counts = OriginCounts::default();
        for event in &fixture.publications {
            for m in matcher.publish(event) {
                counts.record(m.origin);
            }
        }
        let total = counts.total();
        profile.push_row(vec![
            (*name).into(),
            syntactic.to_string(),
            total.to_string(),
            format!("{:.2}x", total as f64 / syntactic.max(1) as f64),
            counts.synonym.to_string(),
            counts.hierarchy.to_string(),
            counts.mapping.to_string(),
        ]);
    }

    let mut churn = Table::new(
        "E10b: churn differential — interleaved replay vs fresh-matcher oracle",
        &[
            "domain",
            "mode",
            "ops",
            "subs added",
            "subs removed",
            "onto swaps",
            "pubs",
            "interleaved matches",
            "sequential parity",
        ],
    );
    let steps = if quick { 120 } else { 240 };
    let churn_fixtures: Vec<(&str, Fixture)> = vec![
        ("jobfinder", jobfinder_fixture(150, 100, 7)),
        ("iot", iot_fixture(150, 100, 7)),
        ("market", market_fixture(150, 100, 7)),
        ("geo", geo_fixture(150, 100, 7)),
    ];
    for (name, fixture) in &churn_fixtures {
        for mode in [ChurnMode::UnsubscribeHeavy, ChurnMode::FlashCrowd] {
            let scenario = churn_scenario(fixture, mode, steps, 42);
            let (mut added, mut removed, mut swaps) = (0usize, 0usize, 0usize);
            for op in &scenario.ops {
                match op {
                    ChurnOp::Subscribe(_) => added += 1,
                    ChurnOp::Unsubscribe(_) => removed += 1,
                    ChurnOp::SetOntology(_) => swaps += 1,
                    ChurnOp::Publish(_) => {}
                }
            }
            let config = Config::default();
            let interleaved = replay_interleaved(fixture, &scenario, config);
            let sequential = replay_sequential(fixture, &scenario, config);
            let matches: usize = interleaved.iter().map(Vec::len).sum();
            churn.push_row(vec![
                (*name).into(),
                match mode {
                    ChurnMode::UnsubscribeHeavy => "unsubscribe-heavy",
                    ChurnMode::FlashCrowd => "flash-crowd",
                }
                .into(),
                scenario.ops.len().to_string(),
                added.to_string(),
                removed.to_string(),
                swaps.to_string(),
                scenario.publishes.to_string(),
                matches.to_string(),
                if interleaved == sequential { "agree" } else { "DIVERGED" }.into(),
            ]);
        }
    }

    let mut chaos_table = Table::new(
        "E10c: chaos harness — delivery conservation under injected faults",
        &[
            "faults",
            "pubs",
            "matches",
            "delivered",
            "lost",
            "rate-dropped",
            "orphaned",
            "retried",
            "clients dropped",
            "conserved",
            "order",
        ],
    );
    let quiet = ChaosConfig {
        seed: 2003,
        drop_client: 0.0,
        slow_consumer: 0.0,
        udp_loss: 0.0,
        sms_budget: 1_000_000,
    };
    let presets: Vec<(&str, ChaosConfig)> = vec![
        ("none", quiet),
        ("connection drops", ChaosConfig { drop_client: 0.15, ..quiet }),
        ("slow consumers", ChaosConfig { slow_consumer: 0.3, ..quiet }),
        ("all faults", ChaosConfig::default()),
    ];
    let fixture = jobfinder_fixture(48, if quick { 150 } else { 400 }, 9);
    for (name, chaos) in presets {
        let report = run_chaos(
            BrokerConfig::default(),
            &chaos,
            fixture.source.clone(),
            fixture.interner.clone(),
            &fixture.subscriptions,
            &fixture.publications,
        );
        chaos_table.push_row(vec![
            name.into(),
            report.published.to_string(),
            report.matches.to_string(),
            report.delivered.to_string(),
            report.lost.to_string(),
            report.rate_dropped.to_string(),
            report.orphaned.to_string(),
            report.retried.to_string(),
            report.dropped_clients.to_string(),
            if report.matches == report.accounted() { "yes" } else { "NO" }.into(),
            if report.ordering_violations.is_empty() { "intact" } else { "VIOLATED" }.into(),
        ]);
    }

    vec![profile, churn, chaos_table]
}
