//! Top-level simulation drivers.
//!
//! Two drivers share one pipeline model:
//!
//! * [`simulate`] — the production path. The five domain clocks are purely
//!   periodic, so they run on [`ClockSet`], the static clock-tick scheduler:
//!   no heap, no boxed handlers, no per-edge allocation. Domain dispatch is
//!   static — a `match` in [`Pipeline::tick`] — instead of the engine's
//!   `Box<dyn FnMut>` indirection. The loop is: take the earliest edge,
//!   tick its domain, forward any stretch requests to the clock set.
//! * [`simulate_with_engine`] — the original general-engine path, kept as
//!   the reference implementation (the framework of the paper's section
//!   4.2) and as the differential-testing oracle: both drivers must produce
//!   bit-identical [`SimReport`]s, which `tests/end_to_end.rs` pins, and
//!   equal [`DeadlockReport`](crate::DeadlockReport)s.
//!
//! Both drivers tick every edge of every domain, as the paper's simulator
//! does with one periodic event per clock domain.
//!
//! The domain clocks carry distinct priorities (their domain index), so the
//! `(time, priority)` edge order — and therefore every architectural and
//! energy statistic — is identical between the two schedulers.
//!
//! In pausible mode ([`crate::Clocking::Pausible`]) the pipeline emits
//! clock-stretch requests as transfers cross domains; each driver drains
//! them after the tick that produced them and forwards them to its
//! scheduler ([`ClockSet::stretch`] / [`Engine::stretch`]). Both schedulers
//! implement the same strictly-after-now stretch semantics, so the
//! bit-identity contract holds in pausible mode too. (An edge pending at
//! the current instant defers its stretch to the next edge in both
//! schedulers, which is why draining after every tick matches the engine.)

use std::cell::RefCell;
use std::rc::Rc;

use gals_clocks::Domain;
use gals_events::{ClockSet, Control, Engine, EventId, Time};
use gals_isa::Program;

use crate::config::{ProcessorConfig, SimLimits};
use crate::error::SimError;
use crate::pipeline::Pipeline;
use crate::report::SimReport;

/// Shared driver prologue: run the static analyzer, refuse error-level
/// findings, and hand back the static verdict (worst warning's code) for
/// the pipeline to stamp into any eventual deadlock report.
fn preflight(config: &ProcessorConfig, limits: &SimLimits) -> Result<Option<String>, SimError> {
    let analysis = crate::analysis::analyze(config, limits);
    if let Some(finding) = analysis.first_error() {
        return Err(SimError::InvalidConfig(Box::new(finding.clone())));
    }
    Ok(analysis.static_verdict().map(|f| f.code.to_string()))
}

/// Runs one processor over one program and returns the measurements.
///
/// For the synchronous machine the five domain events share one period and
/// phase (one clock); for the GALS machine each domain's event carries its
/// own period and phase ("to simulate clocked systems, we need to insert
/// one event for each clock domain").
///
/// # Examples
///
/// ```
/// use gals_core::{simulate, ProcessorConfig, SimLimits};
/// use gals_workload::micro;
///
/// let program = micro::alu_loop(2_000, 4);
/// let report = simulate(&program, ProcessorConfig::synchronous_1ghz(), SimLimits::insts(5_000))
///     .expect("valid config, no deadlock");
/// assert_eq!(report.committed, 5_000);
/// assert!(report.insts_per_ns() > 1.0); // superscalar on independent ALU work
/// ```
///
/// # Errors
///
/// [`SimError::InvalidConfig`] if the configuration fails the static
/// pre-flight analysis ([`crate::analyze`], run before any simulation
/// state is built — the boxed finding carries the stable `GA…` code);
/// [`SimError::Deadlock`] if the machine stops making progress — the
/// commit watchdog in [`SimLimits`] fires. The report inside is a
/// deterministic snapshot of the stuck machine, cross-referencing the
/// analyzer's static verdict when the wedge was flagged at submit.
pub fn simulate(
    program: &Program,
    config: ProcessorConfig,
    limits: SimLimits,
) -> Result<SimReport, SimError> {
    let static_finding = preflight(&config, &limits)?;
    let clocking = config.clocking.clone();
    let mut pipeline = Pipeline::new(program, config, limits);
    pipeline.set_static_finding(static_finding);
    let mut clocks = ClockSet::new();
    for d in Domain::ALL {
        let clock = clocking.domain_clock(d);
        clocks.add_clock(clock.phase, clock.period, d.index() as i32);
    }
    let mut exec_time = Time::ZERO;
    while !pipeline.done() {
        let Some((t, slot)) = clocks.tick() else {
            break;
        };
        exec_time = t;
        pipeline.tick(Domain::ALL[slot], t);
        // Pausible mode: apply this tick's stretch requests. An edge
        // pending at the current instant stays unstretched (ClockSet
        // defers it), matching the engine driver's per-event drain.
        if let Some(requests) = pipeline.take_stretch_requests() {
            for (s, extra) in requests.into_iter().enumerate() {
                if extra > Time::ZERO {
                    clocks.stretch(s, extra);
                }
            }
        }
    }
    if let Some(report) = pipeline.take_deadlock() {
        return Err(SimError::Deadlock(report));
    }
    Ok(pipeline.into_report(exec_time))
}

/// Runs the identical simulation through the general [`Engine`] — the
/// paper's original event-queue framework.
///
/// This is the reference/oracle path: slower (heap + boxed handlers per
/// edge) but able to host aperiodic events alongside the clocks. The
/// production [`simulate`] must match it bit-for-bit on every report field.
///
/// # Errors
///
/// Same conditions as [`simulate`], with an equal
/// [`DeadlockReport`](crate::DeadlockReport) when the run deadlocks.
pub fn simulate_with_engine(
    program: &Program,
    config: ProcessorConfig,
    limits: SimLimits,
) -> Result<SimReport, SimError> {
    let static_finding = preflight(&config, &limits)?;
    let clocking = config.clocking.clone();
    let mut pipeline = Pipeline::new(program, config, limits);
    pipeline.set_static_finding(static_finding);
    let mut engine: Engine<Pipeline<'_>> = Engine::new();
    // Every domain handler needs all five clock ids to forward pausible
    // stretch requests, but ids only exist once scheduled — so they are
    // shared through a cell each closure captures and reads at dispatch
    // time (by which point all five are registered).
    let clock_ids: Rc<RefCell<Vec<EventId>>> = Rc::new(RefCell::new(Vec::with_capacity(5)));
    for d in Domain::ALL {
        let clock = clocking.domain_clock(d);
        let ids = Rc::clone(&clock_ids);
        let id = engine.schedule_periodic(
            clock.phase,
            clock.period,
            d.index() as i32,
            move |p: &mut Pipeline<'_>, e| {
                p.tick(d, e.now());
                // Pausible mode: apply this tick's stretch requests before
                // the next event runs. An edge at the current instant stays
                // unstretched (the engine defers it), matching the ClockSet
                // driver, which also drains after every tick.
                if let Some(requests) = p.take_stretch_requests() {
                    let ids = ids.borrow();
                    for (slot, extra) in requests.into_iter().enumerate() {
                        if extra > Time::ZERO {
                            e.stretch(ids[slot], extra);
                        }
                    }
                }
                if p.done() {
                    Control::Cancel
                } else {
                    Control::Keep
                }
            },
        );
        clock_ids.borrow_mut().push(id);
    }
    engine.run_while(&mut pipeline, |p| !p.done());
    let exec_time = engine.now();
    if let Some(report) = pipeline.take_deadlock() {
        return Err(SimError::Deadlock(report));
    }
    Ok(pipeline.into_report(exec_time))
}
