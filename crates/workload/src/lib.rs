//! # stopss-workload
//!
//! Workload generation and experiment fixtures for the S-ToPSS
//! reproduction — the "workload generator" box of the paper's Figure 2,
//! plus the synthetic domains the scaling experiments sweep.
//!
//! * [`rng`] / [`zipf`] — deterministic randomness (hand-rolled PCG32 so
//!   experiment streams never change underneath us);
//! * [`jobfinder`] — the paper's demo domain, compiled from `.sto` text;
//! * [`iot`] — IoT/telemetry domain: shallow taxonomies, huge event
//!   rates, a Fahrenheit→Celsius mapping bridging publisher conventions;
//! * [`market`] — market-data domain: numeric-tolerance-heavy predicates
//!   with Zipf hot-key ticker skew and a chained block-trade classifier;
//! * [`geo`] — geo/alerting domain: five-level place hierarchy and a
//!   six-rule mapping pipeline (including a transitive red-alert chain);
//! * [`generator`] — recruiter-subscription / resume-publication
//!   generators;
//! * [`taxonomy_gen`] — parameterized synthetic ontologies (depth ×
//!   fanout sweeps);
//! * [`scenario`] — ready-made fixtures for every experiment;
//! * [`churn`] — subscribe/unsubscribe-dominated op streams with
//!   interleaved-vs-sequential differential replay;
//! * [`report`] — text/markdown/CSV result tables.

#![warn(missing_docs)]

pub mod churn;
pub mod generator;
pub mod geo;
pub mod iot;
pub mod jobfinder;
pub mod market;
pub mod report;
pub mod rng;
pub mod scenario;
pub mod taxonomy_gen;
pub mod zipf;

pub use churn::{
    churn_scenario, replay_concurrent, replay_interleaved, replay_sequential, ChurnMode, ChurnOp,
    ChurnScenario, ConcurrentChurnSummary,
};
pub use generator::{generate_jobfinder, Workload, WorkloadConfig};
pub use geo::{generate_geo, GeoDomain, GeoWorkloadConfig, GEO_STO};
pub use iot::{generate_iot, IotDomain, IotWorkloadConfig, IOT_STO};
pub use jobfinder::{JobFinderDomain, JOBFINDER_STO};
pub use market::{generate_market, MarketDomain, MarketWorkloadConfig, MARKET_STO};
pub use report::{fmt_f64, fmt_nanos, fmt_ratio, Table};
pub use rng::{Rng, SplitMix64};
pub use scenario::{
    chain_subscription, geo_fixture, iot_fixture, jobfinder_fixture, jobfinder_fixture_with,
    market_fixture, synthetic_fixture, Fixture, SyntheticWorkload,
};
pub use taxonomy_gen::{build_synthetic, SyntheticConfig, SyntheticDomain};
pub use zipf::Zipf;
