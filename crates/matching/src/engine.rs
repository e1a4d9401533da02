//! The engine abstraction.
//!
//! S-ToPSS is explicitly designed as a *wrapper* around existing
//! content-based matching algorithms ("our goals are to minimize the
//! changes to the algorithms", §3.1). This trait is the seam: the semantic
//! layer transforms events and subscriptions, engines stay purely
//! syntactic.

use stopss_types::{Event, Interner, SubId, Subscription};

/// A content-based (syntactic) matching engine.
///
/// # Contract
///
/// * `match_event` must append exactly the ids of the live subscriptions
///   `s` with `s.matches(event, interner)` — no duplicates, any order.
/// * `insert` with an id that is already live replaces the old
///   subscription.
/// * Engines may keep interior scratch state (`match_event` takes
///   `&mut self`); they must not retain references to the event.
pub trait MatchingEngine: Send {
    /// A short stable name for reports ("naive", "counting", ...).
    fn name(&self) -> &'static str;

    /// Adds (or replaces) a subscription.
    fn insert(&mut self, sub: Subscription);

    /// Removes a subscription; returns whether it was present.
    fn remove(&mut self, id: SubId) -> bool;

    /// Appends every matching subscription id to `out`.
    fn match_event(&mut self, event: &Event, interner: &Interner, out: &mut Vec<SubId>);

    /// Number of live subscriptions.
    fn len(&self) -> usize;

    /// True if no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all subscriptions.
    fn clear(&mut self);

    /// Clones the engine (index, live subscriptions, scratch) into a new
    /// boxed instance. The copy-on-write step of the snapshot control
    /// plane: a control op on a snapshot that a publisher still holds
    /// forks the engine aside and publishes the fork.
    fn boxed_clone(&self) -> Box<dyn MatchingEngine>;
}

/// Convenience wrapper: collect matches into a fresh, sorted `Vec`.
pub fn collect_matches(
    engine: &mut dyn MatchingEngine,
    event: &Event,
    interner: &Interner,
) -> Vec<SubId> {
    let mut out = Vec::new();
    engine.match_event(event, interner, &mut out);
    out.sort_unstable();
    debug_assert!(out.windows(2).all(|w| w[0] != w[1]), "engine emitted duplicate ids");
    out
}
