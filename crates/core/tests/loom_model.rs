//! Bounded model checking of the matcher's one lock with the vendored
//! `loom-lite` checker.
//!
//! Run with the `loom` feature so `stopss_types::sync` swaps to the
//! instrumented primitives:
//!
//! ```text
//! cargo test -p stopss-core --features loom --test loom_model
//! ```
//!
//! Each test explores every thread interleaving of the instrumented lock
//! operations within a preemption bound (2 unless noted), asserting its
//! invariants on all of them. `SToPSS` holds its whole state behind one
//! `Mutex`, so every publication and control op is one critical section.
//! Three models race a publisher against a control op on the real
//! `SToPSS` — a subscribe, an unsubscribe and a two-subscription batch —
//! and check the epoch witness: whatever epoch a publication reports, it
//! saw exactly that epoch's subscriptions. A fourth races two publishers
//! and checks that the counters under the lock lose no publication. The
//! `_caught` test is the negative control: a toy control op that
//! publishes its epoch in one critical section and its content in a
//! second — the bug class `SToPSS::mutate_if`'s single lock acquisition
//! rules out — and proves the checker both finds the torn read and
//! replays the failing schedule deterministically.
#![cfg(feature = "loom")]

use loom_lite::sync::{Arc, Mutex};
use loom_lite::{replay, thread, Builder};
use stopss_core::{Config, SToPSS};
use stopss_ontology::Ontology;
use stopss_types::{
    Event, Interner, Operator, Predicate, SharedInterner, SubId, Subscription, Value,
};

/// A minimal matcher world: one attribute, one term, syntactic config
/// (no semantic stages — the point is the snapshot plumbing, not the
/// matching pipeline).
fn small_world() -> (SToPSS, Subscription, Event) {
    let mut interner = Interner::new();
    let attr = interner.intern("a0");
    let term = interner.intern("t0");
    let shared = SharedInterner::from_interner(interner);
    let matcher = SToPSS::new(Config::syntactic(), Arc::new(Ontology::new("model")), shared);
    let sub =
        Subscription::new(SubId(1), vec![Predicate::new(attr, Operator::Eq, Value::Sym(term))]);
    let event = Event::from_pairs(vec![(attr, Value::Sym(term))]);
    (matcher, sub, event)
}

/// A publisher racing a control-plane subscribe observes either the old
/// snapshot or the new one — never a torn state — and the epoch it
/// reports is the linearization token: epoch 1 implies the subscription
/// is visible, a reported match implies epoch 1.
#[test]
fn epoch_snapshot_swap_is_linearized() {
    let report = Builder::default().check(|| {
        let (matcher, sub, event) = small_world();
        let matcher = Arc::new(matcher);
        let writer = {
            let matcher = matcher.clone();
            thread::spawn(move || matcher.subscribe(sub))
        };
        let result = matcher.publish_detailed(&event);
        let new_epoch = writer.join().expect("subscriber thread must not panic");
        assert_eq!(new_epoch, 1, "one mutation bumps the control epoch once");
        assert!(result.epoch <= 1, "publisher saw an epoch no mutation created");
        if result.epoch == 1 {
            assert_eq!(
                result.matches.len(),
                1,
                "epoch-1 snapshot must already contain the subscription"
            );
        } else {
            assert!(
                result.matches.is_empty(),
                "epoch-0 snapshot must not contain the subscription"
            );
        }
        assert_eq!(matcher.control_epoch(), 1);
        assert_eq!(matcher.publish(&event).len(), 1, "post-join snapshot serves the sub");
    });
    assert!(report.complete, "epoch-swap space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// A publisher racing a control-plane unsubscribe sees the whole epoch
/// it reports: epoch 1 still serves the subscription, epoch 2 does not.
#[test]
fn publisher_racing_unsubscribe_sees_whole_epochs() {
    let report = Builder::default().check(|| {
        let (matcher, sub, event) = small_world();
        assert_eq!(matcher.subscribe(sub), 1);
        let matcher = Arc::new(matcher);
        let publisher = {
            let matcher = matcher.clone();
            thread::spawn(move || matcher.publish_detailed(&event))
        };
        let removed = matcher.unsubscribe(SubId(1));
        let result = publisher.join().expect("publisher thread must not panic");
        assert_eq!(removed, Some(2), "one mutation bumps the control epoch once");
        match result.epoch {
            1 => assert_eq!(result.matches.len(), 1, "epoch 1 must still serve the sub"),
            2 => assert!(result.matches.is_empty(), "epoch 2 must not serve the sub"),
            other => panic!("publisher saw epoch {other}, which no mutation created"),
        }
    });
    assert!(report.complete, "unsubscribe-race space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// A publisher racing a two-subscription batch sees it whole or not at
/// all: a torn batch would show as one match, so the witness demands 0
/// matches at epoch 0 and both at epoch 1.
#[test]
fn publisher_racing_batch_sees_it_whole() {
    let report = Builder::default().check(|| {
        let (matcher, sub, event) = small_world();
        let matcher = Arc::new(matcher);
        let publisher = {
            let matcher = matcher.clone();
            thread::spawn(move || matcher.publish_detailed(&event))
        };
        let batch = vec![(sub.with_id(SubId(2)), None), (sub, None)];
        let epoch = matcher.subscribe_batch(batch);
        let result = publisher.join().expect("publisher thread must not panic");
        assert_eq!(epoch, 1, "one batch bumps the control epoch once");
        match result.epoch {
            0 => assert!(result.matches.is_empty(), "epoch 0 has no subscriptions"),
            1 => assert_eq!(result.matches.len(), 2, "epoch 1 holds the whole batch"),
            other => panic!("publisher saw epoch {other}, which no mutation created"),
        }
    });
    assert!(report.complete, "batch-race space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// Two concurrent publishers bump the core's counters, plain fields
/// under the matcher's one lock; the counts are exact under every
/// interleaving, and each publisher sees its own publication counted.
#[test]
fn concurrent_publishers_count_every_publication() {
    let report = Builder::default().check(|| {
        let (matcher, _sub, event) = small_world();
        let matcher = Arc::new(matcher);
        let other = {
            let matcher = matcher.clone();
            let event = event.clone();
            thread::spawn(move || matcher.publish(&event))
        };
        matcher.publish(&event);
        let mid = matcher.stats().published;
        assert!(mid >= 1, "own publication must be visible to its own thread");
        other.join().expect("publisher thread must not panic");
        assert_eq!(matcher.stats().published, 2, "a concurrent publication was lost");
    });
    assert!(report.complete, "two-publisher space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// A toy control op on `(epoch, items)`: bump the epoch and push
/// `value`, in one critical section or, with `split`, in two. The split
/// version publishes the epoch before the content it stands for — the bug
/// class `SToPSS::mutate_if` rules out by running the whole op under one
/// lock acquisition.
fn bump_and_push(slot: &Mutex<(u64, Vec<u32>)>, value: u32, split: bool) {
    if split {
        slot.lock().0 += 1;
        slot.lock().1.push(value);
    } else {
        let mut state = slot.lock();
        state.0 += 1;
        state.1.push(value);
    }
}

/// A reader racing one `bump_and_push`: the epoch it reads must count the
/// items it reads.
fn read_during_bump_and_push(split: bool) {
    let slot = Arc::new(Mutex::new((0, Vec::new())));
    let writer = {
        let slot = slot.clone();
        thread::spawn(move || bump_and_push(&slot, 1, split))
    };
    let (epoch, items) = {
        let state = slot.lock();
        (state.0, state.1.len())
    };
    writer.join().expect("writer thread must not panic");
    assert_eq!(items as u64, epoch, "torn read: epoch {epoch} with {items} items");
}

/// Negative control, documenting the bug class the single lock
/// acquisition prevents: a reader between the two sections sees epoch 1
/// with no item, and loom-lite both catches it and hands back a schedule
/// that replays the failure deterministically.
#[test]
fn split_critical_sections_torn_read_caught() {
    let run = || read_during_bump_and_push(true);
    let outcome = Builder::default().check_outcome(run);
    let (message, schedule) = outcome.failure.expect("bounded exploration must find the torn read");
    assert!(message.contains("torn read: epoch 1 with 0 items"), "unexpected failure: {message}");
    // The recorded schedule is a seed: replaying it reproduces the same
    // failure without searching. This is what a CI failure hands you.
    let replayed = replay(&schedule, run).expect("replaying the schedule must fail again");
    assert!(replayed.contains("torn read: epoch 1 with 0 items"), "replay diverged: {replayed}");
}

/// The one-section version of the same op — the discipline
/// `SToPSS::mutate_if` implements — survives exhaustive exploration.
#[test]
fn one_critical_section_reads_whole() {
    let report = Builder::default().check(|| read_during_bump_and_push(false));
    assert!(report.complete, "one-section space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}
