//! The benchmark's three workloads. Each is a serial sweep of one matrix
//! at several workload seeds, and each stresses a different layer:
//!
//! * `paper_default` — the paper's regenerated result set
//!   ([`SweepMatrix::paper_default`], 116 points). Most points are
//!   pausible, so `ClockSet` leaves uniform rotation for its general
//!   stretch path; `simulate` is nearly all of the wall time and workload
//!   generation is negligible.
//! * `prog_kernels` — the three `.gasm` kernels over the same 10 modes × 3
//!   DVFS points × 5 phase seeds (435 points) at a budget short next to
//!   the kernels' ~100k-instruction traces. Every point re-parses and
//!   re-executes its kernel, so per-point fixed costs (workload generation)
//!   are a large share of the wall: the workload where a kernel-trace cache
//!   or a harness shrink shows, and which `paper_default` bypasses.
//! * `dvfs_slowdown` — FIFO-GALS only, at the per-domain slowdown points of
//!   Figures 11–13 on six integer profiles × 3 phase seeds (72 points).
//!   Clock periods differ, so `ClockSet` runs its min-scan path with no
//!   stretches while the slowed or idle FP domain parks: the workload where
//!   idle-tick elision and the scheduler have the most to gain or lose.
//!
//! Why several workload seeds: host time per committed instruction depends
//! on the generated program (one seed's `paper_default` programs simulate
//! ~8% slower than another's at equal budgets), so a run over one program
//! set would measure its seed as much as the simulator. Each run sweeps
//! [`BenchWorkload::seeds`] program sets derived from `--seed`, which
//! averages that out while the same `--seed` still gives the same inputs.

use gals_sweep::{DvfsPoint, ModePoint, SweepMatrix};
use gals_workload::{Benchmark, ProgramKernel, Workload};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// The paper's 116-point default matrix.
    PaperDefault,
    /// The `prog:` kernels at a short budget.
    ProgKernels,
    /// FIFO-GALS at per-domain DVFS slowdown points.
    DvfsSlowdown,
}

impl BenchWorkload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::PaperDefault,
        BenchWorkload::ProgKernels,
        BenchWorkload::DvfsSlowdown,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::PaperDefault => "paper_default",
            BenchWorkload::ProgKernels => "prog_kernels",
            BenchWorkload::DvfsSlowdown => "dvfs_slowdown",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<BenchWorkload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Committed-instruction budget per point.
    pub fn budget(self) -> u64 {
        match self {
            BenchWorkload::PaperDefault | BenchWorkload::DvfsSlowdown => 20_000,
            BenchWorkload::ProgKernels => 5_000,
        }
    }

    /// Number of points one matrix expands to.
    pub fn points(self) -> usize {
        match self {
            BenchWorkload::PaperDefault => 116,
            BenchWorkload::ProgKernels => 435,
            BenchWorkload::DvfsSlowdown => 72,
        }
    }

    /// Number of workload seeds (program sets) one run sweeps. The kernels'
    /// control flow does not depend on the seed, so they need fewer.
    pub fn seeds(self) -> usize {
        match self {
            BenchWorkload::PaperDefault | BenchWorkload::DvfsSlowdown => 6,
            BenchWorkload::ProgKernels => 2,
        }
    }

    /// The matrices of one run: the workload's matrix at each of
    /// [`BenchWorkload::seeds`] workload seeds derived from `seed`, with
    /// `budget` instructions per point. The derived seeds are hashed, not
    /// consecutive: the generator maps nearby seeds to programs of similar
    /// speed, so consecutive seeds would not average out.
    pub fn matrices(self, seed: u64, budget: u64) -> Vec<SweepMatrix> {
        let k = self.seeds() as u64;
        (0..k)
            .map(|j| self.matrix(splitmix64(seed.wrapping_mul(k).wrapping_add(j)), budget))
            .collect()
    }

    /// The workload's matrix for one workload seed. Phase seeds stay the
    /// paper's, so the workload seed changes the generated programs and
    /// nothing else.
    pub fn matrix(self, workload_seed: u64, budget: u64) -> SweepMatrix {
        let mut m = SweepMatrix::paper_default(budget);
        m.workload_seed = workload_seed;
        let phase = m.phase_seeds[0];
        match self {
            BenchWorkload::PaperDefault => {}
            BenchWorkload::ProgKernels => {
                m.benchmarks = ProgramKernel::ALL.map(Workload::Kernel).to_vec();
                m.phase_seeds = (phase..phase + 5).collect();
            }
            BenchWorkload::DvfsSlowdown => {
                m.benchmarks = [
                    Benchmark::Gcc,
                    Benchmark::Perl,
                    Benchmark::Ijpeg,
                    Benchmark::Compress,
                    Benchmark::Go,
                    Benchmark::Li,
                ]
                .map(Workload::Profile)
                .to_vec();
                m.modes = vec![ModePoint::Gals {
                    wakeup_filter: false,
                }];
                // Slowdown factors in domain order: fetch, decode, int, fp, mem.
                m.dvfs = vec![
                    DvfsPoint::per_domain("fetch_mem1.1x_fp1.5x", [1.1, 1.0, 1.0, 1.5, 1.1]),
                    DvfsPoint::per_domain("fp3x", [1.0, 1.0, 1.0, 3.0, 1.0]),
                    DvfsPoint::per_domain("fetch1.1x_fp2x", [1.1, 1.0, 1.0, 2.0, 1.0]),
                    DvfsPoint::per_domain("fp1.2x_mem1.5x", [1.0, 1.0, 1.0, 1.2, 1.5]),
                ];
                m.phase_seeds = (phase..phase + 3).collect();
            }
        }
        m
    }
}

/// SplitMix64's output function: a bijection on `u64` that scatters
/// nearby inputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The warm-up matrix run during set-up: every program of `matrix` at
/// every mode, at its first DVFS point and phase seed, so each program is
/// generated and each clocking path simulated before timing starts.
pub fn warmup_matrix(matrix: &SweepMatrix) -> SweepMatrix {
    let mut m = matrix.clone();
    m.dvfs.truncate(1);
    m.phase_seeds.truncate(1);
    m
}
