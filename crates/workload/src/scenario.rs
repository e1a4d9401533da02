//! Ready-to-run experiment fixtures.
//!
//! A [`Fixture`] bundles everything a bench or the experiments binary
//! needs: a shared interner, a semantic source, and a deterministic
//! workload. Construction helpers cover the two experiment families —
//! the realistic job-finder domain and parameterized synthetic domains.

use stopss_types::sync::Arc;

use stopss_core::{Config, SToPSS};
use stopss_ontology::Ontology;
use stopss_types::{
    Event, Interner, Operator, Predicate, SharedInterner, SubId, Subscription, Value,
};

use crate::generator::{generate_jobfinder, WorkloadConfig};
use crate::geo::{generate_geo, GeoDomain, GeoWorkloadConfig};
use crate::iot::{generate_iot, IotDomain, IotWorkloadConfig};
use crate::jobfinder::JobFinderDomain;
use crate::market::{generate_market, MarketDomain, MarketWorkloadConfig};
use crate::rng::Rng;
use crate::taxonomy_gen::{build_synthetic, SyntheticConfig, SyntheticDomain};

/// A complete, deterministic experiment input.
pub struct Fixture {
    /// Interner shared by ontology, subscriptions and events.
    pub interner: SharedInterner,
    /// The semantic knowledge source.
    pub source: Arc<Ontology>,
    /// Subscriptions to register.
    pub subscriptions: Vec<Subscription>,
    /// Publications to feed.
    pub publications: Vec<Event>,
}

impl Fixture {
    /// Builds a matcher over this fixture's ontology with every
    /// subscription registered.
    pub fn matcher(&self, config: Config) -> SToPSS {
        let matcher = SToPSS::new(config, self.source.clone(), self.interner.clone());
        for sub in &self.subscriptions {
            matcher.subscribe(sub.clone());
        }
        matcher
    }
}

/// Builds the job-finder fixture used by experiments E1–E3 and E6.
pub fn jobfinder_fixture(subscriptions: usize, publications: usize, seed: u64) -> Fixture {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let config = WorkloadConfig { subscriptions, publications, seed, ..Default::default() };
    let workload = generate_jobfinder(&domain, &config);
    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions: workload.subscriptions,
        publications: workload.publications,
    }
}

/// Builds the job-finder fixture with custom workload knobs.
pub fn jobfinder_fixture_with(config: &WorkloadConfig) -> Fixture {
    let mut interner = Interner::new();
    let domain = JobFinderDomain::build(&mut interner);
    let workload = generate_jobfinder(&domain, config);
    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions: workload.subscriptions,
        publications: workload.publications,
    }
}

/// Builds the IoT/telemetry fixture (shallow taxonomy, event-heavy).
pub fn iot_fixture(subscriptions: usize, publications: usize, seed: u64) -> Fixture {
    let mut interner = Interner::new();
    let domain = IotDomain::build(&mut interner);
    let config = IotWorkloadConfig { subscriptions, publications, seed, ..Default::default() };
    let workload = generate_iot(&domain, &config);
    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions: workload.subscriptions,
        publications: workload.publications,
    }
}

/// Builds the market-data fixture (numeric-heavy, Zipf hot-key skew).
pub fn market_fixture(subscriptions: usize, publications: usize, seed: u64) -> Fixture {
    let mut interner = Interner::new();
    let domain = MarketDomain::build(&mut interner);
    let config = MarketWorkloadConfig { subscriptions, publications, seed, ..Default::default() };
    let workload = generate_market(&domain, &config);
    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions: workload.subscriptions,
        publications: workload.publications,
    }
}

/// Builds the geo/alerting fixture (deep hierarchy, mapping-heavy).
pub fn geo_fixture(subscriptions: usize, publications: usize, seed: u64) -> Fixture {
    let mut interner = Interner::new();
    let domain = GeoDomain::build(&mut interner);
    let config = GeoWorkloadConfig { subscriptions, publications, seed, ..Default::default() };
    let workload = generate_geo(&domain, &config);
    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions: workload.subscriptions,
        publications: workload.publications,
    }
}

/// Workload knobs for synthetic fixtures.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticWorkload {
    /// Number of subscriptions.
    pub subscriptions: usize,
    /// Number of publications.
    pub publications: usize,
    /// Predicates per subscription.
    pub preds_per_sub: usize,
    /// Pairs per publication.
    pub pairs_per_event: usize,
    /// Probability a subscription's term is general (drawn from an upper
    /// taxonomy level) rather than a leaf.
    pub general_term_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticWorkload {
    fn default() -> Self {
        SyntheticWorkload {
            subscriptions: 1_000,
            publications: 1_000,
            preds_per_sub: 2,
            pairs_per_event: 3,
            general_term_bias: 0.6,
            seed: 9,
        }
    }
}

/// Builds a synthetic fixture: publications carry leaf terms, and
/// subscriptions reference terms at random levels (biased general), so
/// match rates track taxonomy shape. Used by E4, E8 and E9.
pub fn synthetic_fixture(shape: &SyntheticConfig, workload: &SyntheticWorkload) -> Fixture {
    let mut interner = Interner::new();
    let domain = build_synthetic(&mut interner, shape);
    let mut rng = Rng::new(workload.seed);
    let mut sub_rng = rng.fork(1);
    let mut pub_rng = rng.fork(2);

    let subscriptions = (0..workload.subscriptions)
        .map(|k| synthetic_subscription(&domain, workload, &mut sub_rng, SubId(k as u64)))
        .collect();
    let publications = (0..workload.publications)
        .map(|_| synthetic_publication(&domain, workload, &mut pub_rng))
        .collect();

    Fixture {
        interner: SharedInterner::from_interner(interner),
        source: Arc::new(domain.ontology),
        subscriptions,
        publications,
    }
}

fn synthetic_subscription(
    domain: &SyntheticDomain,
    workload: &SyntheticWorkload,
    rng: &mut Rng,
    id: SubId,
) -> Subscription {
    let mut attr_order: Vec<usize> = (0..domain.attrs.len()).collect();
    rng.shuffle(&mut attr_order);
    let mut preds = Vec::with_capacity(workload.preds_per_sub);
    for &attr_idx in attr_order.iter().take(workload.preds_per_sub) {
        let n_levels = domain.levels[attr_idx].len();
        let level = if rng.chance(workload.general_term_bias) {
            // General: any non-leaf level, root included.
            rng.index(n_levels.saturating_sub(1).max(1))
        } else {
            n_levels - 1
        };
        let term = *rng.pick(domain.level(attr_idx, level));
        preds.push(Predicate::eq(domain.attrs[attr_idx], term));
    }
    Subscription::new(id, preds)
}

fn synthetic_publication(
    domain: &SyntheticDomain,
    workload: &SyntheticWorkload,
    rng: &mut Rng,
) -> Event {
    let mut attr_order: Vec<usize> = (0..domain.attrs.len()).collect();
    rng.shuffle(&mut attr_order);
    let mut event = Event::with_capacity(workload.pairs_per_event + 1);
    for &attr_idx in attr_order.iter().take(workload.pairs_per_event) {
        // Publications may use alias spellings where available.
        let leaf = *rng.pick(domain.leaves(attr_idx));
        event.push(domain.attrs[attr_idx], Value::Sym(leaf));
    }
    if let Some(chain_start) = domain.chain_start {
        if rng.chance(0.3) {
            event.push(chain_start, Value::Int(rng.range_i64(0, 100)));
        }
    }
    event
}

/// A subscription matching events whose chain-end attribute exists — used
/// to measure mapping-chain depth effects.
pub fn chain_subscription(domain: &SyntheticDomain, id: SubId) -> Option<Subscription> {
    domain.chain_end.map(|end| {
        Subscription::new(id, vec![Predicate::new(end, Operator::Exists, Value::Bool(true))])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobfinder_fixture_is_complete_and_deterministic() {
        let f1 = jobfinder_fixture(100, 100, 42);
        let f2 = jobfinder_fixture(100, 100, 42);
        assert_eq!(f1.subscriptions.len(), 100);
        assert_eq!(f1.publications.len(), 100);
        assert_eq!(f1.subscriptions, f2.subscriptions);
        assert_eq!(f1.publications, f2.publications);
        assert!(f1.interner.len() > 50);
    }

    #[test]
    fn synthetic_fixture_respects_shape() {
        let shape = SyntheticConfig { attrs: 3, depth: 2, fanout: 2, ..Default::default() };
        let workload = SyntheticWorkload {
            subscriptions: 50,
            publications: 50,
            preds_per_sub: 2,
            pairs_per_event: 3,
            ..Default::default()
        };
        let f = synthetic_fixture(&shape, &workload);
        assert_eq!(f.subscriptions.len(), 50);
        for sub in &f.subscriptions {
            assert_eq!(sub.len(), 2);
        }
        for event in &f.publications {
            assert!(event.len() >= 3);
        }
    }

    #[test]
    fn synthetic_matching_produces_semantic_uplift() {
        use stopss_core::{Config, SToPSS, StageMask};
        let shape = SyntheticConfig { attrs: 3, depth: 3, fanout: 2, ..Default::default() };
        let workload = SyntheticWorkload {
            subscriptions: 100,
            publications: 100,
            general_term_bias: 0.8,
            ..Default::default()
        };
        let f = synthetic_fixture(&shape, &workload);

        let count = |config: Config| {
            let matcher = SToPSS::new(config, f.source.clone(), f.interner.clone());
            for s in &f.subscriptions {
                matcher.subscribe(s.clone());
            }
            f.publications.iter().map(|e| matcher.publish(e).len()).sum::<usize>()
        };
        let syntactic = count(Config::syntactic().with_provenance(false));
        let semantic = count(
            Config::default()
                .with_stages(StageMask::SYNONYM.with(StageMask::HIERARCHY))
                .with_provenance(false),
        );
        assert!(
            semantic > syntactic,
            "hierarchy must unlock general-term matches: semantic {semantic} vs syntactic {syntactic}"
        );
    }

    #[test]
    fn chain_subscription_requires_full_chain() {
        use stopss_core::{Config, SToPSS};
        let shape = SyntheticConfig { mapping_chain: 3, attrs: 1, ..Default::default() };
        let mut interner = Interner::new();
        let domain = build_synthetic(&mut interner, &shape);
        let sub = chain_subscription(&domain, SubId(1)).unwrap();
        let start = domain.chain_start.unwrap();
        let source = Arc::new(domain.ontology.clone());
        let matcher =
            SToPSS::new(Config::default(), source, SharedInterner::from_interner(interner));
        matcher.subscribe(sub);
        let event = Event::new().with(start, Value::Int(5));
        let matches = matcher.publish(&event);
        assert_eq!(matches.len(), 1, "the 3-link chain must fire transitively");
    }
}
