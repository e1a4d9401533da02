//! # stopss-core
//!
//! The primary contribution of the S-ToPSS paper: a semantic layer that
//! wraps unmodified content-based matching engines so that syntactically
//! different but semantically related publications and subscriptions match
//! (Petrovic, Burcea, Jacobsen — VLDB 2003).
//!
//! The architecture follows Figure 1 of the paper:
//!
//! ```text
//! event ──▶ synonym stage ──▶ hierarchy stage ⇄ mapping stage ──▶ engine ──▶ matches
//! sub  ───▶ synonym stage ──▶ (strategy-dependent rewrite)   ──▶ engine
//! ```
//!
//! * [`semantic_closure`] — the bounded fixpoint of the hierarchy/mapping
//!   interplay, flattened into one multi-valued event;
//! * [`Strategy`] — three ways to drive the engine (paper-faithful event
//!   materialization, flattened closure, subscription rewriting);
//! * [`Tolerance`] / [`StageMask`] — the information-loss knob (§3.2);
//! * [`SToPSS`] — the matcher: subscribe / publish / provenance;
//! * [`frontend`] — the shared event-side semantic pass:
//!   [`prepare_event`] computes a [`PreparedEvent`] artifact (closure or
//!   materialized derivation lattice + counters + the per-publication
//!   [`TierCache`] serving tolerance verification and provenance
//!   classification) once per publication, and [`SemanticFrontEnd`] is
//!   the detachable, epoch-stamped handle that runs it against one
//!   consistent snapshot, fully decoupled from the matcher;
//! * [`oracle`] — the executable definition of semantic matching, used as
//!   ground truth by the property tests.

#![warn(missing_docs)]

pub mod closure;
pub mod config;
pub mod frontend;
pub mod matcher;
pub mod oracle;
pub mod provenance;
pub mod strategy;
pub mod tolerance;

pub use closure::{
    semantic_closure, synonym_resolve_event, synonym_resolve_subscription, ClosedEvent,
    ClosureLimits, PairInfo,
};
pub use config::{Config, Limits, Strategy};
pub use frontend::{prepare_event, EventSide, PreparedEvent, SemanticFrontEnd, TierCache};
pub use matcher::{MatcherStats, PublishResult, SToPSS};
pub use oracle::{classify_match, semantic_match, CLASSIFY_DISTANCE_CAP};
pub use provenance::{Match, MatchOrigin, OriginCounts};
pub use strategy::{
    expand_subscription, materialize_closure, materialize_match, MaterializeOutcome,
    MaterializedEvents, RewriteExpansion,
};
pub use tolerance::{StageMask, Tolerance};

/// The former sharded matcher's name, kept so the benchmark package
/// (`benchmark/`) keeps compiling; it goes with the next benchmark-package
/// change. There is one matcher type, [`SToPSS`].
#[doc(hidden)]
pub type ShardedSToPSS = SToPSS;
