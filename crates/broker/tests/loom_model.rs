//! Bounded model checking of the broker's session/queue accounting with
//! the vendored `loom-lite` checker.
//!
//! Run with the `loom` feature so `stopss_types::sync` swaps to the
//! instrumented primitives:
//!
//! ```text
//! cargo test -p stopss-broker --features loom --test loom_model
//! ```
//!
//! Two surfaces are explored:
//!
//! * [`Session::try_retain`] racing a cumulative [`Session::ack`] — the
//!   replay buffer never overruns its bound and every retained frame
//!   ends in exactly one terminal bucket (the session half of the
//!   `delivered == acked + replayed + dropped + expired + in-flight`
//!   conservation identity in `docs/OPERATIONS.md`);
//! * the `SharedQueue` shape the event loop drains every turn, with a
//!   bounded producer — produced frames are conserved across
//!   drop/drain/remain. The loop's own publishes fill the queue on its
//!   thread; in-process publishers on other threads still race the
//!   drain.
//!
//! The seeded negative control proving that loom-lite finds a race and
//! replays its schedule lives in `crates/core/tests/loom_model.rs`.
#![cfg(feature = "loom")]

use std::collections::VecDeque;

use loom_lite::sync::{Arc, Mutex};
use loom_lite::{thread, Builder};
use mio_lite::Token;
use stopss_broker::session::Session;

/// Replay-buffer bound under a producer/acker race: the buffer never
/// exceeds `MAX`, sequence numbers stay contiguous, and
/// `retained == acked + still-buffered` holds on every interleaving.
#[test]
fn session_replay_buffer_bound_and_ack_conserve() {
    const MAX: usize = 2;
    let report = Builder::default().check(|| {
        let session = Arc::new(Mutex::new(Session::new(Token(0))));
        let producer = {
            let session = session.clone();
            thread::spawn(move || {
                let (mut retained, mut dropped) = (0u64, 0u64);
                for i in 0..3 {
                    let mut s = session.lock();
                    match s.try_retain(format!("p{i}"), MAX) {
                        Some(_) => retained += 1,
                        None => dropped += 1,
                    }
                    assert!(s.replay.len() <= MAX, "replay buffer overran its bound");
                }
                (retained, dropped)
            })
        };
        let (mut fresh, mut replayed) = (0u64, 0u64);
        for upto in 1..=2u64 {
            let mut s = session.lock();
            let (f, r) = s.ack(upto);
            fresh += f;
            replayed += r;
            assert!(s.replay.len() <= MAX, "ack path let the buffer overrun");
        }
        let (retained, dropped) = producer.join().expect("producer must not panic");
        let s = session.lock();
        assert_eq!(retained + dropped, 3, "every delivery got a terminal decision");
        assert_eq!(
            retained,
            fresh + replayed + s.replay.len() as u64,
            "a retained frame escaped both the ack buckets and the buffer"
        );
        // Never-retransmitted frames ack as fresh only.
        assert_eq!(replayed, 0, "no resume happened, nothing can count as replayed");
        // Remaining frames are contiguous immediately above the ack line.
        for (k, frame) in s.replay.iter().enumerate() {
            assert_eq!(frame.seq, s.acked + 1 + k as u64, "retained seqs must stay contiguous");
        }
    });
    assert!(report.complete, "session space must be exhausted, ran {report:?}");
    assert!(report.schedules >= 2, "expected real interleaving, ran {report:?}");
}

/// The `SharedQueue` accounting the event loop relies on: a producer
/// applying a `DropNewest`-style bound races a drainer, and
/// `produced == dropped + drained + remaining` holds on every
/// interleaving — the queue half of the backpressure conservation
/// identity.
#[test]
fn shared_queue_backpressure_accounting_conserves() {
    const BOUND: usize = 2;
    let report = Builder::default().check(|| {
        let queue: Arc<Mutex<VecDeque<u64>>> = Arc::new(Mutex::new(VecDeque::new()));
        let producer = {
            let queue = queue.clone();
            thread::spawn(move || {
                let mut dropped = 0u64;
                for seq in 0..3u64 {
                    let mut q = queue.lock();
                    if q.len() >= BOUND {
                        dropped += 1;
                    } else {
                        q.push_back(seq);
                    }
                }
                dropped
            })
        };
        let mut drained = 0u64;
        let mut last_seen = None;
        for _ in 0..3 {
            if let Some(seq) = queue.lock().pop_front() {
                drained += 1;
                // FIFO: the drainer sees sequence numbers in publish order.
                assert!(last_seen < Some(seq), "queue reordered deliveries");
                last_seen = Some(seq);
            }
        }
        let dropped = producer.join().expect("producer must not panic");
        let remaining = queue.lock().len() as u64;
        assert_eq!(3, dropped + drained + remaining, "a queued delivery vanished");
    });
    assert!(report.complete, "queue space must be exhausted, ran {report:?}");
}
