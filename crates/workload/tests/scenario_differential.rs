//! Property test: every generated scenario — all four domains, optionally
//! pre-churned — round-trips through [`Fixture`] with identical match
//! sets and matcher stats on both publish paths: the inline one
//! (`publish_detailed`, the semantic pass recomputed per event) and the
//! detached one the broker's batch path runs (`frontend().prepare_batch`
//! then `try_publish_prepared_batch`). The two-stage split must be
//! invisible to every workload shape, not just the jobfinder the
//! existing differential covers.

use proptest::prelude::*;

use stopss_core::{Config, Match, MatcherStats};
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

/// Match sets + final stats on one publish path.
fn run(fixture: &Fixture, detached: bool) -> (Vec<Vec<Match>>, MatcherStats) {
    let matcher = fixture.matcher(Config::default());
    let matches = if detached {
        let frontend = matcher.frontend();
        let prepared = frontend.prepare_batch(&fixture.publications);
        matcher
            .try_publish_prepared_batch(&prepared, frontend.epoch())
            .expect("no control op ran since the front end was detached")
            .into_iter()
            .map(|r| r.matches)
            .collect()
    } else {
        fixture.publications.iter().map(|e| matcher.publish_detailed(e).matches).collect()
    };
    (matches, matcher.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All domains: the detached path agrees with the inline one on
    /// matches and stats.
    #[test]
    fn every_domain_is_path_invariant(
        domain in 0usize..4,
        seed in 0u64..500,
    ) {
        let (name, fixture) = fixture_for(domain, seed);
        let (want_matches, want_stats) = run(&fixture, false);
        let (matches, stats) = run(&fixture, true);
        prop_assert_eq!(&matches, &want_matches, "{}: match sets diverged", name);
        prop_assert_eq!(stats, want_stats, "{}: stats diverged", name);
    }

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
