//! Property-based tests for the event engine's ordering invariants and the
//! ClockSet/Engine differential equivalence.

use gals_events::{ClockSet, Control, Engine, Time};
use proptest::prelude::*;

proptest! {
    /// Whatever order one-shot events are inserted in, they execute in
    /// non-decreasing (time, priority) order and the engine clock never
    /// moves backwards.
    #[test]
    fn events_fire_in_order(events in prop::collection::vec((0u64..10_000, -5i32..5), 1..200)) {
        let mut engine: Engine<Vec<(u64, i32)>> = Engine::new();
        for &(t, p) in &events {
            engine.schedule_once(Time::from_fs(t), p, move |log, e| {
                log.push((e.now().as_fs(), p));
            });
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        prop_assert_eq!(log.len(), events.len());
        for pair in log.windows(2) {
            prop_assert!(pair[0] <= pair[1], "events out of order: {:?}", pair);
        }
    }

    /// A periodic clock fires exactly floor((deadline - 1 - phase)/period) + 1
    /// times before `deadline` (when phase < deadline).
    #[test]
    fn periodic_tick_count(phase in 0u64..1_000, period in 1u64..5_000, horizon in 1_000u64..100_000) {
        prop_assume!(phase < horizon);
        let mut engine: Engine<u64> = Engine::new();
        engine.schedule_periodic(Time::from_fs(phase), Time::from_fs(period), 0, |c, _| {
            *c += 1;
            Control::Keep
        });
        let mut count = 0;
        engine.run_until(&mut count, Time::from_fs(horizon));
        let expected = (horizon - 1 - phase) / period + 1;
        prop_assert_eq!(count, expected);
    }

    /// Cancelling an arbitrary subset of one-shot events runs exactly the
    /// complement.
    #[test]
    fn cancellation_is_exact(times in prop::collection::vec(0u64..10_000, 1..100), mask in prop::collection::vec(any::<bool>(), 100)) {
        let mut engine: Engine<u64> = Engine::new();
        let ids: Vec<_> = times
            .iter()
            .map(|&t| engine.schedule_once(Time::from_fs(t), 0, |c: &mut u64, _| *c += 1))
            .collect();
        let mut kept = 0u64;
        for (i, id) in ids.iter().enumerate() {
            if mask[i % mask.len()] {
                engine.cancel(*id);
            } else {
                kept += 1;
            }
        }
        let mut count = 0;
        engine.run(&mut count);
        prop_assert_eq!(count, kept);
    }

    /// The static ClockSet scheduler and the general engine produce the
    /// identical `(time, clock)` edge sequence for any set of periodic
    /// clocks with distinct priorities — the ordering contract `simulate()`
    /// relies on when it drives the pipeline through the fast path.
    #[test]
    fn clockset_matches_engine_edge_for_edge(
        specs in prop::collection::vec((0u64..4_000, 1u64..4_000), 1..6),
        horizon in 4_000u64..40_000,
    ) {
        // Engine path: one periodic event per clock, priority = index.
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        for (i, &(phase, period)) in specs.iter().enumerate() {
            engine.schedule_periodic(
                Time::from_fs(phase),
                Time::from_fs(period),
                i as i32,
                move |log: &mut Vec<(u64, usize)>, e| {
                    log.push((e.now().as_fs(), i));
                    Control::Keep
                },
            );
        }
        let mut engine_log = Vec::new();
        engine.run_until(&mut engine_log, Time::from_fs(horizon));

        // ClockSet path, single-edge ticking.
        let mut cs = ClockSet::new();
        for (i, &(phase, period)) in specs.iter().enumerate() {
            cs.add_clock(Time::from_fs(phase), Time::from_fs(period), i as i32);
        }
        let mut cs_log = Vec::new();
        while let Some((t, _)) = cs.peek() {
            if t.as_fs() >= horizon {
                break;
            }
            let (t, slot) = cs.tick().expect("peeked edge exists");
            cs_log.push((t.as_fs(), slot));
        }
        prop_assert_eq!(&engine_log, &cs_log);
    }

    /// The differential contract extends to stretched (pausible) clocks:
    /// with an arbitrary stream of one-shot stretch requests injected after
    /// each dispatched edge, the ClockSet and the Engine still produce the
    /// identical `(time, clock)` edge sequence. This exercises both the
    /// direct-application path and the deferred path (a request targeting a
    /// clock whose same-instant edge is still pending).
    #[test]
    fn clockset_matches_engine_under_random_stretches(
        specs in prop::collection::vec((0u64..4_000, 1u64..4_000), 1..6),
        stretches in prop::collection::vec((0usize..8, 0u64..6_000), 0..60),
        horizon in 4_000u64..40_000,
    ) {
        let n = specs.len();

        // Engine path, stepped one event at a time so the k-th stretch
        // request lands right after the k-th dispatched edge.
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut ids = Vec::new();
        for (i, &(phase, period)) in specs.iter().enumerate() {
            ids.push(engine.schedule_periodic(
                Time::from_fs(phase),
                Time::from_fs(period),
                i as i32,
                move |log: &mut Vec<(u64, usize)>, e| {
                    log.push((e.now().as_fs(), i));
                    Control::Keep
                },
            ));
        }
        let mut engine_log = Vec::new();
        let mut k = 0usize;
        while let Some(t) = engine.peek_time() {
            if t.as_fs() >= horizon {
                break;
            }
            engine.step(&mut engine_log);
            if let Some(&(slot, extra)) = stretches.get(k) {
                engine.stretch(ids[slot % n], Time::from_fs(extra));
            }
            k += 1;
        }

        // ClockSet path, identical drive.
        let mut cs = ClockSet::new();
        for (i, &(phase, period)) in specs.iter().enumerate() {
            cs.add_clock(Time::from_fs(phase), Time::from_fs(period), i as i32);
        }
        let mut cs_log = Vec::new();
        let mut k = 0usize;
        while let Some((t, _)) = cs.peek() {
            if t.as_fs() >= horizon {
                break;
            }
            let (t, slot) = cs.tick().expect("peeked edge exists");
            cs_log.push((t.as_fs(), slot));
            if let Some(&(s, extra)) = stretches.get(k) {
                cs.stretch(s % n, Time::from_fs(extra));
            }
            k += 1;
        }
        prop_assert_eq!(&engine_log, &cs_log);
    }

    /// Two interleaved clocks process a number of events equal to the sum of
    /// their individual tick counts (no event lost or duplicated).
    #[test]
    fn two_clock_interleaving(p1 in 1u64..400, p2 in 1u64..400) {
        let horizon = 20_000u64;
        let mut engine: Engine<(u64, u64)> = Engine::new();
        engine.schedule_periodic(Time::ZERO, Time::from_fs(p1), 0, |w, _| { w.0 += 1; Control::Keep });
        engine.schedule_periodic(Time::ZERO, Time::from_fs(p2), 1, |w, _| { w.1 += 1; Control::Keep });
        let mut w = (0, 0);
        engine.run_until(&mut w, Time::from_fs(horizon));
        prop_assert_eq!(w.0, (horizon - 1) / p1 + 1);
        prop_assert_eq!(w.1, (horizon - 1) / p2 + 1);
        prop_assert_eq!(engine.events_processed(), w.0 + w.1);
    }
}
