//! # s-topss
//!
//! A from-scratch Rust reproduction of **S-ToPSS: Semantic Toronto
//! Publish/Subscribe System** (Petrovic, Burcea, Jacobsen — VLDB 2003):
//! content-based publish/subscribe extended with a semantic stage so that
//! syntactically different but semantically related publications and
//! subscriptions match.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! * [`types`] — interned symbols, values, predicates, subscriptions,
//!   events;
//! * [`matching`] — the syntactic engines the paper builds on (naive,
//!   counting, cluster, trie);
//! * [`ontology`] — synonyms, concept hierarchies, mapping functions,
//!   multi-domain registry, the `.sto` text format;
//! * [`core`] — the semantic stages, strategies, tolerances and the
//!   [`core::SToPSS`] matcher (the semantic pass runs once per
//!   publication; [`core::SToPSS::prepare`] exposes it as a
//!   [`core::PreparedEvent`] artifact for the engine-match + verify
//!   stage);
//! * [`broker`] — the Figure 2 runtime: dispatcher, notification engine,
//!   simulated transports, wire protocol, and the networked
//!   [`broker::NetBroker`] event loop (connection multiplexing with
//!   explicit backpressure);
//! * [`workload`] — deterministic workload generation and experiment
//!   fixtures.
//!
//! The repository-level guides cover how the pieces fit together:
//! `docs/ARCHITECTURE.md` (system shape, with the differential-proof
//! map), `docs/WIRE_PROTOCOL.md` (the framed wire format, normative) and
//! `docs/OPERATIONS.md` (every knob, plus how to read the committed
//! `BENCH_*.json` perf trajectories).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use s_topss::prelude::*;
//!
//! // Build an ontology: "school" means "university".
//! let mut interner = Interner::new();
//! let mut ontology = Ontology::new("jobs");
//! let university = interner.intern("university");
//! let school = interner.intern("school");
//! ontology.synonyms.add_synonym(university, school, &interner).unwrap();
//!
//! // A recruiter subscribes; a candidate publishes with the other word.
//! let sub = SubscriptionBuilder::new(&mut interner)
//!     .term_eq("university", "toronto")
//!     .build(SubId(1));
//! let event = EventBuilder::new(&mut interner).term("school", "toronto").build();
//!
//! let matcher = SToPSS::new(
//!     Config::default(),
//!     Arc::new(ontology),
//!     SharedInterner::from_interner(interner),
//! );
//! matcher.subscribe(sub);
//! let matches = matcher.publish(&event);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].origin, MatchOrigin::Synonym);
//! ```

pub use stopss_broker as broker;
pub use stopss_core as core;
pub use stopss_matching as matching;
pub use stopss_ontology as ontology;
pub use stopss_types as types;
pub use stopss_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use stopss_broker::{Broker, BrokerConfig, DemoServer, TransportKind};
    pub use stopss_core::{
        semantic_match, Config, Match, MatchOrigin, MatcherStats, PreparedEvent, SToPSS, StageMask,
        Strategy, Tolerance,
    };
    pub use stopss_matching::{EngineKind, MatchingEngine};
    pub use stopss_ontology::{
        parse_ontology, write_ontology, DomainRegistry, Expr, Guard, MappingFunction, Ontology,
        PatternItem, Production, SemanticSource,
    };
    pub use stopss_types::{
        Event, EventBuilder, Interner, Operator, Predicate, SharedInterner, SubId, Subscription,
        SubscriptionBuilder, Symbol, Value,
    };
    pub use stopss_workload::{JobFinderDomain, WorkloadConfig};
}
