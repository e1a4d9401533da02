//! Workload inputs: the subscription population and publication pool of
//! each workload, and the seeded streams that drive them.
//!
//! Two seeds are kept apart on purpose. The **population** (ontology
//! shape, subscriptions, publication pool) is drawn from the fixed
//! [`POPULATION_SEED`]; `--seed` drives every **stream** over it — the
//! order publications are sent in, Zipf draws, which connection holds
//! which template, the control-op mix, which subscription leaves, which
//! sessions die first. A population's macroscopic shape (fan-out,
//! selectivity, closure size) is what a workload *is*: 64 Zipf-weighted
//! templates redrawn per seed move `serve-fanout`'s fan-out by tens of
//! percent, which would make two seeds two different workloads and drown
//! the 10 % regression bound in input variance. Streams of 10^4–10^5
//! draws over a fixed population average out, so results of different
//! seeds are comparable within the bounds while no two seeds present the
//! same sequence of inputs to the program.

use std::sync::Arc;

use stopss_core::{Config, Tolerance};
use stopss_ontology::Ontology;
use stopss_types::{Event, Interner, SubId, Subscription};
use stopss_workload::{
    build_synthetic, generate_jobfinder, synthetic_fixture, JobFinderDomain, Rng, SyntheticConfig,
    SyntheticWorkload, WorkloadConfig,
};

/// Seed of every population (see the module docs).
pub const POPULATION_SEED: u64 = 2003;

/// Which ontology a population lives in. Rebuilding it is deterministic,
/// so set-up can time the ontology build against a fresh interner and
/// still agree symbol-for-symbol with the generated inputs.
#[derive(Clone, Copy, Debug)]
pub enum Domain {
    /// The paper's job-finder demo ontology.
    JobFinder,
    /// A generated taxonomy forest (see `stopss_workload::taxonomy_gen`).
    Synthetic(SyntheticConfig),
}

impl Domain {
    /// Builds the ontology and the interner holding its terms — the first
    /// step of every timed set-up.
    pub fn build(&self) -> (Arc<Ontology>, Interner) {
        let mut interner = Interner::new();
        let ontology = match self {
            Domain::JobFinder => JobFinderDomain::build(&mut interner).ontology,
            Domain::Synthetic(shape) => build_synthetic(&mut interner, shape).ontology,
        };
        (Arc::new(ontology), interner)
    }
}

/// One workload's generated inputs.
pub struct Population {
    /// The ontology the inputs were generated against.
    pub domain: Domain,
    /// Matcher configuration the workload runs under.
    pub config: Config,
    /// Subscriptions with their subscriber tolerance (`None` = system).
    pub subs: Vec<(Subscription, Option<Tolerance>)>,
    /// Publication pool the streams draw from.
    pub pubs: Vec<Event>,
    /// Interner covering every term of `subs` and `pubs` (a snapshot of
    /// what [`Domain::build`] returns, used to render wire frames).
    pub interner: Interner,
}

impl Population {
    /// The subscription with the given id re-issued under `id` — how
    /// churn streams let one template live, die and return.
    pub fn reissue(&self, template: usize, id: SubId) -> Subscription {
        self.subs[template % self.subs.len()].0.with_id(id)
    }
}

/// Seed of `serve-fanout`'s 64 templates: the one the committed
/// `broker_load` bench draws its template pool from. Template pools of
/// other seeds have fan-outs between 60 and 200 per event; this one's 146
/// is where the figures quoted for the serving path were taken.
pub const BROKER_LOAD_SEED: u64 = 17;

/// `match-fanout` / `serve-fanout` source: the job-finder domain.
/// `subscriptions` generated templates, `publications` pool events.
pub fn jobfinder(subscriptions: usize, publications: usize, seed: u64) -> Population {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let workload = generate_jobfinder(
        &domain,
        &WorkloadConfig { subscriptions, publications, seed, ..WorkloadConfig::default() },
    );
    Population {
        domain: Domain::JobFinder,
        config: Config::default(),
        subs: workload.subscriptions.into_iter().map(|s| (s, None)).collect(),
        pubs: workload.publications,
        interner,
    }
}

/// Shape of the `match-closure` ontology: deep narrow trees, an alias on
/// every concept and a six-link mapping chain, so the event-side closure
/// is large and the engine's share small.
pub const CLOSURE_SHAPE: SyntheticConfig = SyntheticConfig {
    attrs: 8,
    depth: 8,
    fanout: 2,
    synonyms_per_concept: 1.0,
    mapping_chain: 6,
    seed: POPULATION_SEED,
};

/// Shape of the `churn-index` / `serve-selective` ontology: shallow wide
/// trees and no mappings, so events stay small and the engine's index —
/// 20 000 subscriptions deep — does the work.
pub const INDEX_SHAPE: SyntheticConfig = SyntheticConfig {
    attrs: 8,
    depth: 4,
    fanout: 5,
    synonyms_per_concept: 0.25,
    mapping_chain: 0,
    seed: POPULATION_SEED,
};

fn synthetic(shape: SyntheticConfig, workload: SyntheticWorkload) -> Population {
    let fixture = synthetic_fixture(&shape, &workload);
    Population {
        domain: Domain::Synthetic(shape),
        config: Config::default(),
        subs: fixture.subscriptions.into_iter().map(|s| (s, None)).collect(),
        pubs: fixture.publications,
        interner: fixture.interner.snapshot(),
    }
}

/// `match-closure`: 500 subscriptions whose tolerances cycle over
/// full / bounded(1) / syntactic / bounded(3), eight pairs per event.
pub fn closure() -> Population {
    let mut population = synthetic(
        CLOSURE_SHAPE,
        SyntheticWorkload {
            subscriptions: 500,
            publications: 4_000,
            preds_per_sub: 2,
            pairs_per_event: 8,
            general_term_bias: 0.45,
            seed: POPULATION_SEED,
        },
    );
    const CYCLE: [Tolerance; 4] =
        [Tolerance::full(), Tolerance::bounded(1), Tolerance::syntactic(), Tolerance::bounded(3)];
    for (k, (_, tolerance)) in population.subs.iter_mut().enumerate() {
        *tolerance = Some(CYCLE[k % CYCLE.len()]);
    }
    population
}

/// `churn-index` / `serve-selective`: 20 000 selective subscriptions.
pub fn index() -> Population {
    synthetic(
        INDEX_SHAPE,
        SyntheticWorkload {
            subscriptions: 20_000,
            publications: 4_000,
            preds_per_sub: 3,
            pairs_per_event: 3,
            general_term_bias: 0.65,
            seed: POPULATION_SEED,
        },
    )
}

/// A seeded visiting order over `0..n` that revisits nothing until every
/// index was seen once: streams cycle through it, so a run of any length
/// covers the pool evenly and two seeds present different sequences.
pub fn shuffled_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}
