//! The in-process workloads: `match-fanout`, `match-closure` (publish
//! only) and `churn-index` (publishes interleaved with control ops), all
//! against one `SToPSS` driven from the single driver thread.

use std::sync::Arc;
use std::time::Instant;

use stopss_core::{semantic_match, SToPSS};
use stopss_ontology::Ontology;
use stopss_types::{SubId, Subscription};
use stopss_workload::{churn_scenario, ChurnMode, Fixture, Rng};

use crate::harness::{
    ns, peak_rss_mib, timed_setups, Args, Deadline, EndToEnd, Latencies, Ledger, Windows,
};
use crate::population::{shuffled_order, Population, POPULATION_SEED};
use crate::trace::Tracer;

/// Publishes between two control ops of `churn-index`.
const PUBLISHES_PER_CONTROL_OP: usize = 128;
/// Control-op mix of `churn-index`: every `SET_SOURCE_EVERY`-th op swaps
/// the ontology (10 %), the others subscribe or unsubscribe by a seeded
/// coin (45 % each). The swap costs ~8 subscribes, so it comes at a fixed
/// period — drawn independently, its count per window would decide which
/// windows look fast.
const SET_SOURCE_EVERY: usize = 10;
/// Subscription × event pairs one oracle pass may evaluate; each pair
/// costs a semantic closure, so 200 events over 10^4 subscriptions would
/// outlast the run they check.
const ORACLE_PAIR_BUDGET: usize = 200_000;
/// Ids of subscriptions issued by churn streams start here, clear of the
/// population's own `0..n`.
const CHURN_ID_BASE: u64 = 1_000_000;

/// What distinguishes the three workloads.
pub struct Spec {
    pub population: Population,
    /// Fixed-count warm-up pass at the end of every set-up.
    pub warmup_publishes: usize,
    /// Interleave control ops (`churn-index`).
    pub churn: bool,
}

/// Evolved ontology variants for `set_source`, part of the population.
pub fn ontology_variants(population: &Population) -> Vec<Arc<Ontology>> {
    let (source, interner) = population.domain.build();
    let fixture = Fixture {
        interner: stopss_types::SharedInterner::from_interner(interner),
        source,
        subscriptions: population.subs.iter().map(|(s, _)| s.clone()).collect(),
        publications: population.pubs.clone(),
    };
    // 1 + steps/50 variants; only the variants are used, the generated op
    // stream is not (this benchmark interleaves its own, deterministically).
    churn_scenario(&fixture, ChurnMode::UnsubscribeHeavy, 350, POPULATION_SEED).ontologies
}

/// Timed set-up: ontology build, matcher construction, one batched
/// admission of the whole population, fixed-count warm-up pass. Returns
/// the matcher, the seconds it took and the warm-up's match total.
pub fn setup(spec: &Spec, order: &[usize]) -> (SToPSS, f64, u64) {
    let start = Instant::now();
    let population = &spec.population;
    let (source, interner) = population.domain.build();
    let matcher = SToPSS::new(
        population.config,
        source,
        stopss_types::SharedInterner::from_interner(interner),
    );
    matcher.subscribe_batch(population.subs.clone());
    let mut matches = 0u64;
    for k in 0..spec.warmup_publishes {
        matches += matcher.publish(&population.pubs[order[k % order.len()]]).len() as u64;
    }
    (matcher, start.elapsed().as_secs_f64(), matches)
}

/// One applied control op, logged so the run can be replayed.
#[derive(Clone)]
pub enum ControlOp {
    Subscribe(Subscription),
    Unsubscribe(SubId),
    SetSource(usize),
}

/// A sampled publish of the churn stream: after `ops_applied` control
/// ops, pool event `event` matched exactly `matched` (sorted ids).
pub struct ChurnSample {
    pub ops_applied: usize,
    pub event: usize,
    pub matched: Vec<SubId>,
}

/// What driving the real path produced.
#[derive(Default)]
pub struct RealPath {
    /// Publishes, and the gated latencies (control ops when the stream
    /// churns, publishes otherwise), by window.
    pub windows: Windows,
    pub publishes: u64,
    pub wall_s: f64,
    pub publish_ns: Latencies,
    pub control_ns: Latencies,
    pub matches: u64,
    pub control_log: Vec<ControlOp>,
    pub samples: Vec<ChurnSample>,
}

/// The seeded state of a churn stream (which subscriptions are live,
/// what comes next); survives across `drive` calls on one matcher.
pub struct ChurnState {
    rng: Rng,
    live: Vec<SubId>,
    ops: usize,
    next_id: u64,
    next_variant: usize,
    variants: Vec<Arc<Ontology>>,
}

impl ChurnState {
    pub fn new(population: &Population, variants: Vec<Arc<Ontology>>, seed: u64) -> ChurnState {
        ChurnState {
            rng: Rng::new(seed ^ 0xc0de_c4a5),
            live: population.subs.iter().map(|(s, _)| s.id()).collect(),
            ops: 0,
            next_id: 0,
            next_variant: 1,
            variants,
        }
    }
}

/// Drives the real path until `deadline`: publishes cycling through
/// `order`, and — with a churn state — one seeded control op after every
/// `PUBLISHES_PER_CONTROL_OP` publishes, all on this thread so match
/// counts are exact.
pub fn drive(
    matcher: &SToPSS,
    population: &Population,
    order: &[usize],
    mut churn: Option<&mut ChurnState>,
    deadline: Deadline,
    tracer: &mut Tracer,
) -> RealPath {
    let mut out = RealPath {
        windows: Windows::new(
            deadline.start,
            deadline.end.duration_since(deadline.start).as_secs_f64(),
        ),
        ..RealPath::default()
    };
    let mut cursor = 0usize;
    'run: loop {
        for _ in 0..PUBLISHES_PER_CONTROL_OP {
            let event = order[cursor % order.len()];
            cursor += 1;
            let start = Instant::now();
            let matched = matcher.publish(&population.pubs[event]);
            let end = Instant::now();
            out.publish_ns.push(ns(end - start));
            out.windows.events(end, 1);
            if churn.is_none() {
                out.windows.latency(end, ns(end - start));
            }
            out.matches += matched.len() as u64;
            tracer.record("publish", out.publishes, None, start, end);
            out.publishes += 1;
            // Sample sparsely: the replay check rebuilds a matcher per sample.
            if churn.is_some() && out.publishes % (1 << 15) == 1 {
                let mut ids: Vec<SubId> = matched.iter().map(|m| m.sub).collect();
                ids.sort_unstable();
                out.samples.push(ChurnSample {
                    ops_applied: out.control_log.len(),
                    event,
                    matched: ids,
                });
            }
            if deadline.passed(end) {
                break 'run;
            }
        }
        let Some(state) = churn.as_deref_mut() else { continue };
        state.ops += 1;
        let op = if state.ops % SET_SOURCE_EVERY == 0 {
            let variant = state.next_variant;
            state.next_variant = (variant + 1) % state.variants.len();
            ControlOp::SetSource(variant)
        } else if state.rng.chance(0.5) || state.live.is_empty() {
            let id = SubId(CHURN_ID_BASE + state.next_id);
            state.next_id += 1;
            state.live.push(id);
            ControlOp::Subscribe(population.reissue(state.rng.index(population.subs.len()), id))
        } else {
            let k = state.rng.index(state.live.len());
            ControlOp::Unsubscribe(state.live.swap_remove(k))
        };
        let req = out.control_log.len() as u64;
        let start = Instant::now();
        let name = match &op {
            ControlOp::Subscribe(sub) => {
                matcher.subscribe(sub.clone());
                "control.subscribe"
            }
            ControlOp::Unsubscribe(id) => {
                matcher.unsubscribe(*id);
                "control.unsubscribe"
            }
            ControlOp::SetSource(variant) => {
                matcher.set_source(state.variants[*variant].clone());
                "control.set_source"
            }
        };
        let end = Instant::now();
        out.control_ns.push(ns(end - start));
        out.windows.latency(end, ns(end - start));
        tracer.record(name, req, None, start, end);
        out.control_log.push(op);
    }
    out.wall_s = deadline.start.elapsed().as_secs_f64();
    out
}

/// Oracle check: for seeded pool events, the published id set equals
/// `semantic_match` over every live subscription under its effective
/// tolerance.
pub fn check_against_oracle(
    matcher: &SToPSS,
    population: &Population,
    live: &[Subscription],
    args: &Args,
    ledger: &mut Ledger,
) {
    let events = (ORACLE_PAIR_BUDGET / live.len().max(1)).clamp(10, 200);
    let events = if args.smoke { 3 } else { events };
    let mut rng = Rng::new(args.seed ^ 0x0a_c1e5);
    let source = matcher.source();
    let config = matcher.config();
    for _ in 0..events {
        let k = rng.index(population.pubs.len());
        let event = &population.pubs[k];
        let mut got: Vec<SubId> = matcher.publish(event).iter().map(|m| m.sub).collect();
        got.sort_unstable();
        let mut want: Vec<SubId> = matcher.interner().with(|interner| {
            live.iter()
                .filter(|sub| {
                    let tolerance = matcher.tolerance(sub.id()).expect("live subscription");
                    semantic_match(
                        sub,
                        event,
                        source.as_ref(),
                        &tolerance,
                        config.now_year,
                        interner,
                        &config.limits.closure,
                    )
                })
                .map(Subscription::id)
                .collect()
        });
        want.sort_unstable();
        ledger.check(got == want, || {
            format!("pool event {k}: matcher returned {} ids, oracle {}", got.len(), want.len())
        });
    }
}

/// Replays the logged control ops against a model of the live set and
/// checks (a) the live matcher's final subscription set equals the
/// model's and (b) every sampled publish equals what a fresh matcher,
/// built from the then-live set and then-current ontology, returns.
fn check_churn_replay(
    matcher: &SToPSS,
    spec: &Spec,
    variants: &[Arc<Ontology>],
    path: &RealPath,
    args: &Args,
    ledger: &mut Ledger,
) {
    let population = &spec.population;
    let mut live: std::collections::BTreeMap<SubId, Subscription> =
        population.subs.iter().map(|(s, _)| (s.id(), s.clone())).collect();
    let mut variant = 0usize;
    let mut samples = path.samples.iter().peekable();
    let max_samples = if args.smoke { 1 } else { 6 };
    let mut checked = 0;
    for applied in 0..=path.control_log.len() {
        while let Some(sample) = samples.peek() {
            if sample.ops_applied != applied {
                break;
            }
            if checked < max_samples {
                checked += 1;
                let (_, interner) = population.domain.build();
                let fresh = SToPSS::new(
                    population.config,
                    variants[variant].clone(),
                    stopss_types::SharedInterner::from_interner(interner),
                );
                fresh.subscribe_batch(live.values().map(|s| (s.clone(), None)).collect());
                let mut want: Vec<SubId> =
                    fresh.publish(&population.pubs[sample.event]).iter().map(|m| m.sub).collect();
                want.sort_unstable();
                ledger.check(want == sample.matched, || {
                    format!(
                        "churn sample after {applied} control ops: live matcher matched {} \
                         ids, fresh replay {}",
                        sample.matched.len(),
                        want.len()
                    )
                });
            }
            samples.next();
        }
        match path.control_log.get(applied) {
            Some(ControlOp::Subscribe(sub)) => {
                live.insert(sub.id(), sub.clone());
            }
            Some(ControlOp::Unsubscribe(id)) => {
                live.remove(id);
            }
            Some(ControlOp::SetSource(v)) => variant = *v,
            None => {}
        }
    }
    let same_set =
        matcher.len() == live.len() && live.keys().all(|id| matcher.subscription(*id).is_some());
    ledger.check(same_set, || {
        format!("final live set: matcher holds {}, replay model {}", matcher.len(), live.len())
    });
}

/// End-to-end run (tracing off).
pub fn run(spec: &Spec, args: &Args, ledger: &mut Ledger) -> EndToEnd {
    let population = &spec.population;
    let order = shuffled_order(population.pubs.len(), &mut Rng::new(args.seed));
    let variants = if spec.churn { ontology_variants(population) } else { Vec::new() };

    let ((matcher, warm_matches), setup_s) = timed_setups(
        args.setup_repeats(),
        || {
            let (matcher, seconds, warm_matches) = setup(spec, &order);
            ((matcher, warm_matches), seconds)
        },
        drop,
    );

    let mut churn = spec.churn.then(|| ChurnState::new(population, variants.clone(), args.seed));
    let mut tracer = Tracer::new(false);
    let path = drive(
        &matcher,
        population,
        &order,
        churn.as_mut(),
        Deadline::after(args.seconds),
        &mut tracer,
    );
    let peak_rss_mb = peak_rss_mib();

    ledger.ops(path.publishes + path.control_log.len() as u64);
    if spec.churn {
        check_churn_replay(&matcher, spec, &variants, &path, args, ledger);
    }
    let live: Vec<Subscription> = match &churn {
        None => population.subs.iter().map(|(s, _)| s.clone()).collect(),
        Some(state) => state
            .live
            .iter()
            .map(|id| matcher.subscription(*id).expect("model and matcher agree"))
            .collect(),
    };
    check_against_oracle(&matcher, population, &live, args, ledger);

    let fact =
        |samples: &Latencies, p: f64| format!("{:.0} (n={})", samples.percentile(p), samples.len());
    let mut facts = vec![
        ("matches_total".to_owned(), warm_matches.to_string()),
        ("subscriptions".to_owned(), population.subs.len().to_string()),
        ("publishes".to_owned(), path.publishes.to_string()),
        (
            "matches_per_event".to_owned(),
            format!("{:.3}", path.matches as f64 / path.publishes.max(1) as f64),
        ),
        ("p50_publish_ns".to_owned(), fact(&path.publish_ns, 0.50)),
        ("p99_publish_ns".to_owned(), fact(&path.publish_ns, 0.99)),
    ];
    let latency_of = if spec.churn {
        facts.push(("p50_control_ns".to_owned(), fact(&path.control_ns, 0.50)));
        facts.push(("p99_control_ns".to_owned(), fact(&path.control_ns, 0.99)));
        "one control op (subscribe 45 % / unsubscribe 45 % / set_source 10 %)"
    } else {
        "one SToPSS::publish, match set returned"
    };
    facts.push((
        "whole_run_events_per_sec".to_owned(),
        format!("{:.1}", path.publishes as f64 / path.wall_s),
    ));
    EndToEnd { setup_s, windows: path.windows, latency_of, peak_rss_mb, facts }
}
