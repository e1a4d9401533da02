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
//!           └────── one flattened event, matched once ──────┘
//! sub  ───▶ synonym stage ──────────────────────────────────────▶ engine (under its own SubId)
//! ```
//!
//! * [`semantic_closure`] — the bounded fixpoint of the hierarchy/mapping
//!   interplay, flattened into one multi-valued event: the one event the
//!   engine sees per publication;
//! * [`Tolerance`] / [`StageMask`] — the information-loss knob (§3.2);
//! * [`SToPSS`] — the matcher: subscribe / publish / provenance;
//! * [`frontend`] — the event-side semantic pass: [`prepare_event`]
//!   computes a [`PreparedEvent`] artifact (the closure + counters) once
//!   per publication, and the per-publication [`TierCache`] serves
//!   tolerance verification and provenance classification from it;
//! * [`strategy`] — cold references for the two alternatives the matcher
//!   does not use, Figure 1's event materialization and subscription
//!   rewriting, measured against it in experiment E8;
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
pub use config::{Config, Limits};
pub use frontend::{prepare_event, EventSide, PreparedEvent, TierCache};
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
