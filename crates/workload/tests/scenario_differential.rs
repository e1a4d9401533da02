//! Property test: every generated scenario — all four domains, in both
//! churn modes — replayed against one live matcher with subscriptions,
//! unsubscriptions and ontology swaps interleaved between publications
//! equals the fresh-matcher oracle holding exactly the live set under the
//! then-current ontology.

use proptest::prelude::*;

use stopss_core::Config;
use stopss_workload::{
    churn_scenario, geo_fixture, iot_fixture, jobfinder_fixture, market_fixture,
    replay_interleaved, replay_sequential, ChurnMode, Fixture,
};

fn fixture_for(domain: usize, seed: u64) -> (&'static str, Fixture) {
    match domain {
        0 => ("jobfinder", jobfinder_fixture(25, 20, seed)),
        1 => ("iot", iot_fixture(25, 20, seed)),
        2 => ("market", market_fixture(25, 20, seed)),
        _ => ("geo", geo_fixture(25, 20, seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All domains × churn modes: the interleaved replay matches the
    /// fresh-matcher oracle.
    #[test]
    fn every_domain_survives_churn(
        domain in 0usize..4,
        mode in 0usize..2,
        seed in 0u64..500,
    ) {
        let (name, fixture) = fixture_for(domain, seed);
        let mode = if mode == 0 { ChurnMode::UnsubscribeHeavy } else { ChurnMode::FlashCrowd };
        let scenario = churn_scenario(&fixture, mode, 60, seed ^ 0xC0FFEE);
        let config = Config::default();
        let sequential = replay_sequential(&fixture, &scenario, config);
        let interleaved = replay_interleaved(&fixture, &scenario, config);
        prop_assert_eq!(&interleaved, &sequential, "{}/{:?}: live matcher diverged", name, mode);
    }
}
