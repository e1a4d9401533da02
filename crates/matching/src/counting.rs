//! The counting algorithm (Aguilera et al. PODC'99) with Fabret et al.'s
//! access-predicate filtering (SIGMOD'01) — references \[1\] and \[4\] of
//! the S-ToPSS paper.
//!
//! Identical predicates across subscriptions are stored once in a global
//! predicate table, and per attribute an `AttrIndex` finds the predicates
//! an event value satisfies. Each subscription is *filed* once, under its
//! *access predicate*: the one of its predicates with the fewest
//! subscribers when it is inserted, ties going to the earlier predicate.
//! The filed entry carries the indexes of the subscription's other
//! predicates inline (or boxed, past five of them).
//!
//! `match_event` runs in two phases:
//!
//! 1. probe the attribute indexes, stamping every satisfied predicate with
//!    the event's epoch in a dense per-predicate array (so resetting
//!    between events is O(1), and a predicate satisfied by two pairs of a
//!    multi-valued event is collected once);
//! 2. walk the filed lists of the satisfied predicates only, and emit a
//!    subscription when all of its other predicates carry the current
//!    stamp.
//!
//! This is exact: a matching subscription has every predicate satisfied,
//! its access predicate included, so it is checked exactly once and the
//! check passes; a subscription some predicate of which is unsatisfied
//! either is never visited or fails the check. Which predicate is chosen
//! as access predicate therefore affects speed only: filing under the
//! rarest one keeps subscriptions off the lists of popular predicates
//! (in S-ToPSS, the general ancestor terms that hierarchy closure adds to
//! every event), so an event visits few filed entries beyond its matches.

use stopss_types::{Event, FxHashMap, Interner, Predicate, SubId, Subscription, Symbol};

use crate::engine::MatchingEngine;
use crate::index::{AttrIndex, PredIdx};

/// Other predicates a filed entry holds without a heap allocation; the
/// entry stays 32 bytes.
const INLINE: usize = 5;

/// Access "predicate" of the subscriptions with no predicates, which match
/// every event.
const UNIVERSAL: PredIdx = PredIdx::MAX;

#[derive(Clone, Debug)]
struct PredEntry {
    pred: Predicate,
    /// How many live subscriptions reference this predicate.
    refcount: u32,
    /// The subscriptions whose access predicate this is.
    filed: Vec<Filed>,
}

/// One subscription, filed under its access predicate.
#[derive(Clone, Debug)]
struct Filed {
    id: SubId,
    /// Its predicates other than the access predicate.
    rest: Rest,
}

#[derive(Clone, Debug)]
enum Rest {
    Inline { len: u8, idxs: [PredIdx; INLINE] },
    Boxed(Box<[PredIdx]>),
}

impl Rest {
    fn new(idxs: &[PredIdx]) -> Self {
        if idxs.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..idxs.len()].copy_from_slice(idxs);
            Rest::Inline { len: idxs.len() as u8, idxs: inline }
        } else {
            Rest::Boxed(idxs.into())
        }
    }

    fn as_slice(&self) -> &[PredIdx] {
        match self {
            Rest::Inline { len, idxs } => &idxs[..*len as usize],
            Rest::Boxed(idxs) => idxs,
        }
    }
}

/// Where a live subscription is filed.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Its access predicate, or [`UNIVERSAL`].
    access: PredIdx,
    /// Its position in that predicate's filed list.
    pos: u32,
}

/// Counting-algorithm matching engine with access-predicate filing.
#[derive(Clone, Default, Debug)]
pub struct CountingEngine {
    preds: Vec<PredEntry>,
    /// Epoch of the last event that satisfied each predicate, by index.
    stamps: Vec<u64>,
    free_preds: Vec<PredIdx>,
    pred_ids: FxHashMap<Predicate, PredIdx>,
    attrs: FxHashMap<Symbol, AttrIndex>,
    by_id: FxHashMap<SubId, Loc>,
    /// Subscriptions with zero predicates; they match every event.
    universal: Vec<Filed>,
    /// Phase 1's output: the predicates the current event satisfies.
    satisfied: Vec<PredIdx>,
    epoch: u64,
}

impl CountingEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct predicates currently indexed (diagnostic;
    /// predicate sharing across subscriptions is the point of the
    /// algorithm).
    pub fn distinct_predicates(&self) -> usize {
        self.pred_ids.len()
    }

    fn intern_predicate(&mut self, pred: Predicate) -> PredIdx {
        if let Some(&idx) = self.pred_ids.get(&pred) {
            self.preds[idx as usize].refcount += 1;
            return idx;
        }
        let entry = PredEntry { pred, refcount: 1, filed: Vec::new() };
        let idx = match self.free_preds.pop() {
            Some(idx) => {
                self.preds[idx as usize] = entry;
                idx
            }
            None => {
                self.preds.push(entry);
                self.stamps.push(0);
                (self.preds.len() - 1) as PredIdx
            }
        };
        self.pred_ids.insert(pred, idx);
        self.attrs.entry(pred.attr).or_default().insert(pred, idx);
        idx
    }

    fn release_predicate(&mut self, idx: PredIdx) {
        let entry = &mut self.preds[idx as usize];
        entry.refcount -= 1;
        if entry.refcount > 0 {
            return;
        }
        debug_assert!(entry.filed.is_empty(), "a filed subscription holds its access predicate");
        let pred = entry.pred;
        self.pred_ids.remove(&pred);
        if let Some(ix) = self.attrs.get_mut(&pred.attr) {
            ix.remove(&pred, idx);
            if ix.is_empty() {
                self.attrs.remove(&pred.attr);
            }
        }
        self.free_preds.push(idx);
    }

    fn filed_mut(&mut self, access: PredIdx) -> &mut Vec<Filed> {
        if access == UNIVERSAL {
            &mut self.universal
        } else {
            &mut self.preds[access as usize].filed
        }
    }

    /// Filed entries phase 2 visited for the last matched event.
    #[cfg(test)]
    fn last_visits(&self) -> usize {
        self.satisfied.iter().map(|&p| self.preds[p as usize].filed.len()).sum()
    }
}

impl MatchingEngine for CountingEngine {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn insert(&mut self, sub: Subscription) {
        self.remove(sub.id());
        // Each distinct predicate once: a repeated predicate is one
        // condition, and must hold one reference.
        let preds = sub.predicates();
        let mut idxs: Vec<PredIdx> = Vec::with_capacity(preds.len());
        for (k, p) in preds.iter().enumerate() {
            if !preds[..k].contains(p) {
                idxs.push(self.intern_predicate(*p));
            }
        }
        // The rarest predicate, the first of equally rare ones.
        let rarest = idxs.iter().enumerate().min_by_key(|&(_, &p)| self.preds[p as usize].refcount);
        let access = match rarest {
            Some((k, _)) => idxs.remove(k),
            None => UNIVERSAL,
        };
        let filed = Filed { id: sub.id(), rest: Rest::new(&idxs) };
        let list = self.filed_mut(access);
        if list.capacity() == 0 {
            // Access predicates are the rare ones, so many lists stay
            // short: start at one entry, not `Vec`'s four.
            list.reserve_exact(1);
        }
        let pos = list.len() as u32;
        list.push(filed);
        self.by_id.insert(sub.id(), Loc { access, pos });
    }

    fn remove(&mut self, id: SubId) -> bool {
        let Some(Loc { access, pos }) = self.by_id.remove(&id) else {
            return false;
        };
        let list = self.filed_mut(access);
        let filed = list.swap_remove(pos as usize);
        if let Some(moved) = list.get(pos as usize) {
            let moved = moved.id;
            self.by_id.get_mut(&moved).expect("invariant: filed entries are live").pos = pos;
        }
        if access != UNIVERSAL {
            self.release_predicate(access);
        }
        for &p in filed.rest.as_slice() {
            self.release_predicate(p);
        }
        true
    }

    fn match_event(&mut self, event: &Event, interner: &Interner, out: &mut Vec<SubId>) {
        self.epoch += 1;
        let epoch = self.epoch;
        let Self { preds, stamps, attrs, universal, satisfied, .. } = self;
        out.extend(universal.iter().map(|f| f.id));
        // Phase 1: stamp and collect the satisfied predicates, each once
        // however many pairs of the event satisfy it.
        satisfied.clear();
        for (attr, value) in event.pairs() {
            let Some(ix) = attrs.get(attr) else {
                continue;
            };
            ix.probe(value, interner, &mut |pidx: PredIdx| {
                let stamp = &mut stamps[pidx as usize];
                if *stamp != epoch {
                    *stamp = epoch;
                    satisfied.push(pidx);
                }
            });
        }
        // Phase 2: every subscription filed under a satisfied predicate
        // matches when its other predicates are satisfied too.
        for &pidx in satisfied.iter() {
            for filed in &preds[pidx as usize].filed {
                if filed.rest.as_slice().iter().all(|&p| stamps[p as usize] == epoch) {
                    out.push(filed.id);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    fn clear(&mut self) {
        self.preds.clear();
        self.stamps.clear();
        self.free_preds.clear();
        self.pred_ids.clear();
        self.attrs.clear();
        self.by_id.clear();
        self.universal.clear();
        self.satisfied.clear();
    }

    fn boxed_clone(&self) -> Box<dyn MatchingEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::collect_matches;
    use stopss_types::{EventBuilder, Operator, SubscriptionBuilder, Value};

    #[test]
    fn basic_conjunction_matching() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(
            SubscriptionBuilder::new(&mut i)
                .term_eq("university", "toronto")
                .pred("experience", Operator::Ge, 4i64)
                .build(SubId(1)),
        );
        eng.insert(
            SubscriptionBuilder::new(&mut i).term_eq("university", "toronto").build(SubId(2)),
        );

        let hit = EventBuilder::new(&mut i)
            .term("university", "toronto")
            .pair("experience", 5i64)
            .build();
        let partial = EventBuilder::new(&mut i)
            .term("university", "toronto")
            .pair("experience", 2i64)
            .build();
        assert_eq!(collect_matches(&mut eng, &hit, &i), vec![SubId(1), SubId(2)]);
        assert_eq!(collect_matches(&mut eng, &partial, &i), vec![SubId(2)]);
    }

    #[test]
    fn predicates_are_shared_across_subscriptions() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        for k in 0..10 {
            eng.insert(SubscriptionBuilder::new(&mut i).term_eq("city", "berlin").build(SubId(k)));
        }
        assert_eq!(eng.distinct_predicates(), 1);
        assert_eq!(eng.len(), 10);
    }

    #[test]
    fn duplicate_predicates_in_one_subscription_still_match() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(
            SubscriptionBuilder::new(&mut i).term_eq("a", "x").term_eq("a", "x").build(SubId(1)),
        );
        let e = EventBuilder::new(&mut i).term("a", "x").build();
        assert_eq!(collect_matches(&mut eng, &e, &i), vec![SubId(1)]);
    }

    #[test]
    fn multi_valued_event_satisfies_predicate_once() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        // Two predicates on the same attribute, satisfied by different pairs.
        eng.insert(
            SubscriptionBuilder::new(&mut i)
                .pred("x", Operator::Gt, 5i64)
                .pred("x", Operator::Lt, 3i64)
                .build(SubId(1)),
        );
        let x = i.get("x").unwrap();
        let e = stopss_types::Event::new().with(x, Value::Int(10)).with(x, Value::Int(1));
        assert_eq!(collect_matches(&mut eng, &e, &i), vec![SubId(1)]);
        // A pair satisfying the same predicate twice must not double-count.
        let e2 = stopss_types::Event::new().with(x, Value::Int(10)).with(x, Value::Int(11));
        assert!(collect_matches(&mut eng, &e2, &i).is_empty());
    }

    #[test]
    fn universal_subscription_matches_every_event() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(Subscription::new(SubId(9), vec![]));
        let e = EventBuilder::new(&mut i).pair("anything", 1i64).build();
        assert_eq!(collect_matches(&mut eng, &e, &i), vec![SubId(9)]);
        assert_eq!(collect_matches(&mut eng, &stopss_types::Event::new(), &i), vec![SubId(9)]);
        assert!(eng.remove(SubId(9)));
        assert!(collect_matches(&mut eng, &e, &i).is_empty());
    }

    #[test]
    fn remove_releases_shared_predicates() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(SubscriptionBuilder::new(&mut i).term_eq("city", "berlin").build(SubId(1)));
        eng.insert(SubscriptionBuilder::new(&mut i).term_eq("city", "berlin").build(SubId(2)));
        assert_eq!(eng.distinct_predicates(), 1);
        assert!(eng.remove(SubId(1)));
        assert_eq!(eng.distinct_predicates(), 1, "still referenced by sub#2");
        assert!(eng.remove(SubId(2)));
        assert_eq!(eng.distinct_predicates(), 0);
        let e = EventBuilder::new(&mut i).term("city", "berlin").build();
        assert!(collect_matches(&mut eng, &e, &i).is_empty());
    }

    #[test]
    fn slots_and_predicates_are_recycled() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        for round in 0..5 {
            for k in 0..20u64 {
                eng.insert(
                    SubscriptionBuilder::new(&mut i).term_eq("k", &format!("v{k}")).build(SubId(k)),
                );
            }
            assert_eq!(eng.len(), 20, "round {round}");
            for k in 0..20u64 {
                assert!(eng.remove(SubId(k)));
            }
            assert_eq!(eng.len(), 0);
        }
        assert!(eng.by_id.is_empty() && eng.preds.iter().all(|p| p.filed.is_empty()));
        assert!(eng.preds.len() <= 20, "pred entries must be reused, got {}", eng.preds.len());
        assert_eq!(eng.stamps.len(), eng.preds.len());
    }

    #[test]
    fn reinsert_same_id_replaces() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(SubscriptionBuilder::new(&mut i).term_eq("a", "x").build(SubId(1)));
        eng.insert(SubscriptionBuilder::new(&mut i).term_eq("a", "y").build(SubId(1)));
        assert_eq!(eng.len(), 1);
        let ex = EventBuilder::new(&mut i).term("a", "x").build();
        let ey = EventBuilder::new(&mut i).term("a", "y").build();
        assert!(collect_matches(&mut eng, &ex, &i).is_empty());
        assert_eq!(collect_matches(&mut eng, &ey, &i), vec![SubId(1)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(SubscriptionBuilder::new(&mut i).term_eq("a", "x").build(SubId(1)));
        eng.insert(Subscription::new(SubId(2), vec![]));
        eng.clear();
        assert!(eng.is_empty());
        let e = EventBuilder::new(&mut i).term("a", "x").build();
        assert!(collect_matches(&mut eng, &e, &i).is_empty());
    }

    #[test]
    fn subscriptions_are_visited_from_their_rarest_predicate() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        for k in 0..1_000i64 {
            eng.insert(
                SubscriptionBuilder::new(&mut i)
                    .pred(&format!("cold_{k}"), Operator::Eq, k)
                    .pred("hot", Operator::Eq, 1i64)
                    .build(SubId(k as u64)),
            );
        }
        // Every subscription is filed under its `cold_k` (written first, so
        // it wins subscription 0's tie with `hot`): an event that
        // satisfies only `hot` visits nothing, where counting increments
        // 1 000 counters.
        let hot = EventBuilder::new(&mut i).pair("hot", 1i64).build();
        assert!(collect_matches(&mut eng, &hot, &i).is_empty());
        assert_eq!(eng.last_visits(), 0);
        let one = EventBuilder::new(&mut i).pair("hot", 1i64).pair("cold_7", 7i64).build();
        assert_eq!(collect_matches(&mut eng, &one, &i), vec![SubId(7)]);
        assert_eq!(eng.last_visits(), 1);
    }

    #[test]
    fn range_and_string_predicates_integrate() {
        let mut i = Interner::new();
        let mut eng = CountingEngine::new();
        eng.insert(
            SubscriptionBuilder::new(&mut i)
                .pred("salary", Operator::Ge, 50_000i64)
                .term("title", Operator::Contains, "developer")
                .build(SubId(1)),
        );
        let hit = EventBuilder::new(&mut i)
            .pair("salary", 60_000i64)
            .term("title", "mainframe developer")
            .build();
        let miss = EventBuilder::new(&mut i)
            .pair("salary", 40_000i64)
            .term("title", "mainframe developer")
            .build();
        assert_eq!(collect_matches(&mut eng, &hit, &i), vec![SubId(1)]);
        assert!(collect_matches(&mut eng, &miss, &i).is_empty());
    }
}
