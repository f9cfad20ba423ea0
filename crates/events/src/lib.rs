//! # gals-events
//!
//! A general-purpose, deterministic, discrete-event simulation engine — the
//! Rust port of the engine described in section 4.2 of *"Power and
//! Performance Evaluation of Globally Asynchronous Locally Synchronous
//! Processors"* (Iyer & Marculescu, ISCA 2002).
//!
//! The engine "can be used to simulate any asynchronous system, synchronous
//! (clocked) system, or a system which contains both asynchronous and
//! synchronous components". Clock domains are periodic events with
//! independent period and phase; asynchronous completions (cache misses,
//! FIFO synchronisations) are one-shot events.
//!
//! ## Two schedulers, one ordering contract
//!
//! The crate deliberately ships **two** schedulers:
//!
//! * [`Engine`] — the faithful general-purpose port of the paper's engine.
//!   It supports arbitrary one-shot events, self-rescheduling periodic
//!   events, cancellation, and dynamic handlers. Every edge costs a binary
//!   heap pop, a re-push of a boxed handler, and cancellation bookkeeping.
//! * [`ClockSet`] — the static fast path for *purely periodic* clock sets
//!   (the pipeline's actual workload: five free-running domain clocks).
//!   One inline `(next_edge, period, priority)` record per clock, a
//!   branchless min-scan instead of a heap, zero allocation and zero
//!   dynamic dispatch per edge, and batched dispatch of simultaneous edges.
//!
//! Both dispatch every edge of every clock, in `(time, priority)` order;
//! for clocks with distinct priorities the two produce identical edge
//! sequences, which is pinned by a differential property test
//! (`tests/properties.rs`) and an end-to-end report-identity test in the
//! simulator. Distinct priorities are the contract, not a convention:
//! duplicate clock priorities would fall through to scheduler-private
//! tie-breaks (insertion sequence in the engine, slot order in the clock
//! set) and silently diverge the oracle, so both registration paths reject
//! them with an always-on assertion that fires at registration time, before
//! any simulation runs.
//!
//! ## Stretchable (pausible) clocks
//!
//! Both schedulers support one-shot **clock stretching** — the timing
//! primitive behind pausible clocking, where an arbiter holds a ring
//! oscillator while an inter-domain handshake completes. A dispatched
//! handler (or the driver between events) may request that a clock's next
//! edge be delayed by some amount: [`Engine::stretch`] takes the periodic
//! event's id, [`ClockSet::stretch`] the clock's slot. Both implement the
//! same semantics — the stretch lands on the target's first edge *strictly
//! after* the request time, requests accumulate, and subsequent edges
//! follow the period from the stretched edge — so the differential
//! ClockSet-vs-Engine contract extends to stretched clocks (also pinned in
//! `tests/properties.rs`).
//!
//! ## Example: the paper's Figure 4
//!
//! Three free-running clocks with periods 2 ns, 3 ns and 2.5 ns:
//!
//! ```
//! use gals_events::{Engine, Control, Time};
//!
//! let mut engine = Engine::new();
//! for (i, (start, period)) in [(500, 2_000), (1_000, 3_000), (0, 2_500)]
//!     .into_iter()
//!     .enumerate()
//! {
//!     engine.schedule_periodic(
//!         Time::from_ps(start),
//!         Time::from_ps(period),
//!         i as i32, // distinct per-clock priorities (the contract)
//!         |edges: &mut u32, _| {
//!             *edges += 1;
//!             Control::Keep
//!         },
//!     );
//! }
//! let mut edges = 0;
//! engine.run_until(&mut edges, Time::from_ns(8));
//! assert_eq!(edges, 11);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clockset;
mod engine;
mod time;

pub use clockset::{ClockSet, MAX_CLOCKS};
pub use engine::{Control, Engine, EventId, Priority};
pub use time::{Time, FS_PER_NS, FS_PER_PS};
