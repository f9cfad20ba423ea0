//! Criterion micro-benchmarks of the simulator's hot substrates: the event
//! queue, the mixed-clock channel, the caches, the branch predictor and the
//! issue queue. These guard the simulation *speed* (simulated instructions
//! per host second), which every paper experiment depends on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gals_clocks::Channel;
use gals_core::{simulate, ProcessorConfig, SimLimits};
use gals_events::{ClockSet, Control, Engine, Time};
use gals_isa::rng::hash3;
use gals_uarch::{BpredConfig, BranchPredictor, Cache, CacheGeometry, IssueQueue, PhysReg};
use gals_workload::{generate, Benchmark};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("events/three_clock_engine_1us", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for (i, (phase, period)) in [(500u64, 2_000u64), (1_000, 3_000), (0, 2_500)]
                .into_iter()
                .enumerate()
            {
                engine.schedule_periodic(
                    Time::from_ps(phase),
                    Time::from_ps(period),
                    i as i32, // distinct per-clock priorities (the contract)
                    |count: &mut u64, _| {
                        *count += 1;
                        Control::Keep
                    },
                );
            }
            let mut count = 0;
            engine.run_until(&mut count, Time::from_ns(1_000));
            black_box(count)
        })
    });
}

fn bench_clockset(c: &mut Criterion) {
    // The same three paper clocks on the static scheduler — the direct
    // comparison against events/three_clock_engine_1us.
    c.bench_function("events/clockset_1us", |b| {
        b.iter(|| {
            let mut cs = ClockSet::new();
            for (i, (phase, period)) in [(500u64, 2_000u64), (1_000, 3_000), (0, 2_500)]
                .into_iter()
                .enumerate()
            {
                cs.add_clock(Time::from_ps(phase), Time::from_ps(period), i as i32);
            }
            let mut count = 0u64;
            while let Some((t, _)) = cs.peek() {
                if t >= Time::from_ns(1_000) {
                    break;
                }
                cs.tick();
                count += 1;
            }
            black_box(count)
        })
    });
}

fn bench_sim_throughput(c: &mut Criterion) {
    // End-to-end simulated-instructions-per-host-second — the number every
    // paper experiment is bottlenecked on. Same-host comparisons across
    // commits use the layered benchmark in perfbench/.
    let program = generate(Benchmark::Gcc, 42);
    c.bench_function("sim/throughput_insts_per_sec", |b| {
        b.iter(|| {
            black_box(
                simulate(
                    &program,
                    ProcessorConfig::synchronous_1ghz(),
                    SimLimits::insts(10_000),
                )
                .expect("simulation failed"),
            )
        })
    });
}

fn bench_channel(c: &mut Criterion) {
    c.bench_function("clocks/fifo_push_pop_10k", |b| {
        b.iter(|| {
            let mut ch: Channel<u64> =
                Channel::mixed_clock_fifo(8, Time::from_ns(1), Time::from_ns(1));
            let mut popped = 0u64;
            for i in 0..10_000u64 {
                let t = Time::from_ns(2 * i + 1);
                let _ = ch.try_push(i, t);
                if ch.try_pop(t + Time::from_ns(1)).is_some() {
                    popped += 1;
                }
            }
            black_box(popped)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("uarch/l1d_access_10k", |b| {
        let mut cache = Cache::new(CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 1,
        });
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..10_000u64 {
                if cache.access(hash3(1, 2, i) % (1 << 18)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("uarch/gshare_predict_update_10k", |b| {
        let mut bp = BranchPredictor::new(BpredConfig::default());
        b.iter(|| {
            let mut taken = 0u64;
            for i in 0..10_000u64 {
                let pc = (i % 64) * 4;
                let outcome = hash3(3, pc, i) & 3 != 0;
                let p = bp.predict_cond(pc);
                bp.update_cond(pc, outcome, pc + 64, p.taken);
                taken += u64::from(p.taken);
            }
            black_box(taken)
        })
    });
}

fn bench_issue_queue(c: &mut Criterion) {
    c.bench_function("uarch/issue_queue_cycle_20deep", |b| {
        b.iter(|| {
            let mut iq = IssueQueue::new(20);
            let mut issued = 0u64;
            for round in 0..500u64 {
                for k in 0..4 {
                    let token = round * 4 + k;
                    let _ = iq.insert(token, token, vec![PhysReg((token % 64) as u16)]);
                }
                iq.wakeup(PhysReg((round % 64) as u16));
                issued += iq.select(4).len() as u64;
            }
            black_box(issued)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_clockset,
    bench_channel,
    bench_cache,
    bench_bpred,
    bench_issue_queue,
    bench_sim_throughput
);
criterion_main!(benches);
