//! Broker fault injection scored on delivery invariants: under dropped
//! connections, slow consumers, UDP loss and SMS rate limiting — alone and combined — every match must be
//! delivered or explicitly accounted (no silent loss), per-subscriber
//! notification order must hold, and the whole run must be a pure
//! function of its seeds.

use s_topss::broker::{run_chaos, ChaosConfig, ChaosReport};
use s_topss::prelude::*;
use s_topss::workload::{iot_fixture, jobfinder_fixture, Fixture};

fn run(fixture: &Fixture, chaos: &ChaosConfig) -> ChaosReport {
    run_chaos(
        BrokerConfig::default(),
        chaos,
        fixture.source.clone(),
        fixture.interner.clone(),
        &fixture.subscriptions,
        &fixture.publications,
    )
}

fn quiet() -> ChaosConfig {
    ChaosConfig {
        drop_client: 0.0,
        slow_consumer: 0.0,
        udp_loss: 0.0,
        sms_budget: 1_000_000,
        ..ChaosConfig::default()
    }
}

/// Baseline: with every fault disabled, all matches are delivered and
/// order holds trivially.
#[test]
fn no_faults_delivers_every_match() {
    let fixture = jobfinder_fixture(24, 60, 5);
    let report = run(&fixture, &quiet());
    report.assert_invariants();
    assert!(report.matches > 0, "workload must produce matches to be a meaningful baseline");
    assert_eq!(report.delivered, report.matches, "no fault, no loss");
    assert_eq!(report.orphaned + report.lost + report.rate_dropped, 0);
}

/// Dropped connections: matches for dead clients land in the orphaned
/// accounting, never vanish.
#[test]
fn connection_drops_are_accounted_as_orphans() {
    let fixture = jobfinder_fixture(24, 60, 5);
    let report = run(&fixture, &ChaosConfig { drop_client: 0.2, ..quiet() });
    report.assert_invariants();
    assert!(report.dropped_clients > 0, "the fault must actually fire");
    assert!(report.orphaned > 0, "dead clients' matches are counted, not lost");
    assert_eq!(
        report.delivered + report.orphaned,
        report.matches,
        "only orphaning, no transport loss"
    );
}

/// Slow consumers: stalls burn retries and may exhaust the budget, but
/// every exhausted delivery is counted rate-dropped.
#[test]
fn slow_consumers_cost_retries_not_silence() {
    let fixture = jobfinder_fixture(24, 60, 5);
    let report = run(&fixture, &ChaosConfig { slow_consumer: 0.4, ..quiet() });
    report.assert_invariants();
    assert!(report.retried > 0, "stalls must trigger the retry path");
}

/// Everything at once, on the event-heavy IoT domain: the full
/// conservation law and ordering invariant under combined faults.
#[test]
fn combined_chaos_holds_the_invariants() {
    let fixture = iot_fixture(32, 300, 9);
    let chaos = ChaosConfig {
        drop_client: 0.05,
        slow_consumer: 0.2,
        udp_loss: 0.2,
        sms_budget: 4,
        ..ChaosConfig::default()
    };
    let report = run(&fixture, &chaos);
    report.assert_invariants();
    assert!(report.matches > 0);
    assert!(report.dropped_clients > 0, "drops fired");
    assert!(report.lost > 0, "UDP loss fired");
    assert!(report.delivered > 0, "the system still delivers under fire");
}

/// Determinism: the same seeds produce byte-identical reports, and a
/// different chaos seed produces a different fault schedule.
#[test]
fn chaos_runs_are_deterministic_in_the_seed() {
    let fixture = iot_fixture(32, 200, 9);
    let chaos = ChaosConfig {
        drop_client: 0.1,
        slow_consumer: 0.2,
        udp_loss: 0.2,
        sms_budget: 4,
        seed: 77,
    };
    let a = run(&fixture, &chaos);
    let b = run(&fixture, &chaos);
    assert_eq!(a, b, "same seed ⇒ same injected faults ⇒ same report");
    a.assert_invariants();

    let c = run(&fixture, &ChaosConfig { seed: 78, ..chaos });
    c.assert_invariants();
    assert_ne!(a, c, "the seed drives the fault schedule");
}
