//! The eight-stage out-of-order pipeline over five clock domains — the
//! heart of both processor models.
//!
//! Stage-to-domain mapping (the paper's Table 2):
//!
//! | # | Stage                       | Domain      |
//! |---|-----------------------------|-------------|
//! | 1 | Fetch from I-cache          | 1 (fetch)   |
//! | 2 | Decode                      | 2 (decode)  |
//! | 3 | Rename, regfile read        | 2           |
//! | 4 | Dispatch into issue queue   | 2 → 3/4/5   |
//! | 5 | Issue to functional unit    | 3/4/5       |
//! | 6 | Execute                     | 3/4/5       |
//! | 7 | Wakeup, writeback           | 3/4/5       |
//! | 8 | Regfile write, commit       | 3/4/5 → 2   |
//!
//! Every arrow is a [`Channel`]: a 1-cycle pipeline latch in the
//! synchronous machine, a mixed-clock FIFO in the GALS machine. All other
//! behaviour is byte-identical between the two models, which is what makes
//! the paper's comparison meaningful.
//!
//! ## The handle-based instruction store
//!
//! Instruction state lives once, in the slab-backed [`InFlightTable`];
//! everything that flows between stages — the decode buffer, the ROB, the
//! issue-queue tokens, every inter-domain channel — is an 8-byte
//! [`InstrId`] handle. Each stage reads and writes the instruction's one
//! [`InFlight`] record through the handle; see `crate::inflight` for the
//! slab and the stale-handle semantics.
//!
//! ## Driving the pipeline
//!
//! Each domain edge calls [`Pipeline::tick`], which runs that domain's
//! stage logic in full: there are no skipped or deferred edges, so an idle
//! domain still advances its cycle counter, charges its idle energy and
//! samples its occupancies on every edge. Both drivers in `crate::sim`
//! dispatch every edge of all five clocks, in the same `(time, priority)`
//! order.
//!
//! ## Modelling notes (divergences from RTL truth)
//!
//! * Branch predictor training happens at fetch (immediate update) rather
//!   than at resolution; the misprediction *penalty* is still paid through
//!   the resolve-and-redirect loop. Identical in both machines.
//! * Wakeup tags crossing domains use generously sized channels (the bypass
//!   network is not a literal queue); a stale in-flight wakeup can in rare
//!   interleavings mark a freshly reallocated register ready a few cycles
//!   early. The effect is orders of magnitude below the FIFO latencies
//!   being measured.
//! * The store buffer drains logically at commit; the cache write is
//!   charged at issue time.

use std::collections::VecDeque;

use gals_clocks::{Channel, Domain, PausibleModel};
use gals_events::Time;
use gals_isa::{Cluster, DynStream, OpClass, Program, EXIT_PC};
use gals_power::{MacroBlock, PowerAccountant};
use gals_uarch::{BranchPredictor, Cache, FuPool, IssueQueue, RenameUnit, Rob, StoreBuffer};

use crate::config::{Clocking, ProcessorConfig, SimLimits};
use crate::error::{DeadlockReport, PortState};
use crate::inflight::{
    BranchInfo, InFlight, InFlightTable, InstrId, Redirect, SrcTags, Tag, TAG_SPACE,
};
use crate::report::SimReport;

/// Salt mixed into wrong-path memory-address hashing so speculative loads
/// touch plausible but distinct addresses.
const WRONG_PATH_SALT: u64 = 0xD00D_F00D_5EED_0001;

/// Clock domain of each execution cluster, indexed like `Pipeline::clusters`.
const CLUSTER_DOMAINS: [Domain; 3] = [Domain::IntCluster, Domain::FpCluster, Domain::MemCluster];

/// `wakeup_interest` flag: the producer of this tag has already run its
/// writeback broadcast (bits 0..=2 hold per-cluster consumer interest).
const WAKEUP_DONE: u8 = 1 << 7;

/// A `TAG_SPACE`-wide bitset: cluster-local operand availability packed
/// 64 tags per word (two cache lines instead of a 1 KB byte array — the
/// rename stage writes one bit in every cluster's view per destination,
/// so density matters).
struct ReadyBits([u64; TAG_SPACE / 64]);

impl ReadyBits {
    fn all_ready() -> Self {
        ReadyBits([u64::MAX; TAG_SPACE / 64])
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        self.0[idx >> 6] & (1 << (idx & 63)) != 0
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.0[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.0[idx >> 6] &= !(1 << (idx & 63));
    }
}

/// One execution cluster (domains 3, 4, 5).
struct ClusterState {
    domain: Domain,
    iq: IssueQueue,
    fus: FuPool,
    /// Cluster-local operand availability, indexed by `Tag::index`.
    ready: ReadyBits,
    /// `(done_at_local_cycle, seq, id)` of instructions in execution.
    executing: Vec<(u64, u64, InstrId)>,
    /// Local cycle counter.
    cycle: u64,
    /// Per-tick scratch: instructions finishing execution this cycle,
    /// `(seq, id)`. Hoisted out of `tick_cluster` so the steady-state path
    /// allocates nothing.
    finished_scratch: Vec<(u64, InstrId)>,
    /// Per-tick scratch: tokens picked by issue selection.
    picked_scratch: Vec<u64>,
    /// Per-tick scratch: `(token, seq, latency)` of admitted instructions.
    latency_scratch: Vec<(u64, u64, u64)>,
    /// Rendezvous mode only: finished executions whose writeback waits
    /// on an occupied outbound port (completion, wakeup or redirect), as
    /// `(seq, id)` in program order. Retried every tick; always empty in
    /// the latched machines.
    writeback_pending: Vec<(u64, InstrId)>,
}

impl ClusterState {
    fn new(domain: Domain, iq_size: usize, fu_count: u32, rob_size: usize) -> Self {
        ClusterState {
            domain,
            iq: IssueQueue::new(iq_size),
            fus: FuPool::new(fu_count),
            ready: ReadyBits::all_ready(),
            // In-flight executions are bounded by the ROB (everything
            // executing holds a ROB entry); sizing to that bound keeps the
            // steady-state loop allocation-free even when a burst of
            // long-latency misses piles up.
            executing: Vec::with_capacity(rob_size),
            cycle: 0,
            finished_scratch: Vec::with_capacity(rob_size),
            picked_scratch: Vec::with_capacity(2 * fu_count as usize),
            latency_scratch: Vec::with_capacity(2 * fu_count as usize),
            writeback_pending: Vec::with_capacity(rob_size),
        }
    }
}

/// The complete microarchitectural state of one simulated processor.
///
/// Driven by the event engine: each domain's periodic clock event calls
/// [`Pipeline::tick`].
pub struct Pipeline<'p> {
    program: &'p Program,
    cfg: ProcessorConfig,
    limits: SimLimits,

    // ---- front end (domain 1) ----
    stream: DynStream<'p>,
    peeked: Option<gals_isa::DynInst>,
    fetch_pc: u64,
    wrong_path: bool,
    wrong_pc: u64,
    fetch_halted: bool,
    icache: Cache,
    bpred: BranchPredictor,
    icache_stall: u32,
    /// `log2(l1i line bytes)` — the per-fetch line-boundary check is a
    /// shift, not a division.
    l1i_line_shift: u32,

    // ---- decode/rename/commit (domain 2) ----
    decode_buf: VecDeque<InstrId>,
    rename: RenameUnit,
    /// Program order only: completion is the in-flight record's
    /// `completed` flag, and commit pops the head with [`Rob::pop_head`]
    /// once it is set.
    rob: Rob<InstrId>,
    decode_cycle: u64,

    // ---- clusters (domains 3, 4, 5) ----
    clusters: [ClusterState; 3],
    store_buffer: StoreBuffer,
    dcache: Cache,
    l2: Cache,
    l2_touched: bool,

    // ---- channels ----
    ch_fetch_decode: Channel<InstrId>,
    ch_dispatch: [Channel<InstrId>; 3],
    ch_complete: [Channel<InstrId>; 3],
    /// Wakeup tag channels `[from][to]` (diagonal unused).
    ch_wakeup: [[Channel<Tag>; 3]; 3],
    ch_redirect: Channel<Redirect>,

    // ---- bookkeeping ----
    inflight: InFlightTable,
    next_seq: u64,
    /// The one unresolved-recovery mispredicted branch: set at resolution,
    /// cleared when fetch recovers.
    pending_recovery: Option<u64>,
    committed: u64,
    fetched: u64,
    wrong_path_fetched: u64,
    slip_total: Time,
    slip_fifo: Time,
    store_forwards_total: u64,
    issued_total: u64,
    issued_wrong_path: u64,
    /// Pausible clocking: handshake duration charged to both endpoint
    /// clocks per inter-domain transfer; `None` in the synchronous and
    /// FIFO-GALS machines.
    stretch_handshake: Option<Time>,
    /// Rendezvous pausible mode (`PausibleModel::Rendezvous`): every
    /// inter-domain channel is a single-entry rendezvous port and the push
    /// sites wait and retry against an occupied port. `false` everywhere
    /// else (the counters below then stay zero).
    rendezvous: bool,
    /// Cycles in which a domain's stage made *no* progress because its
    /// rendezvous port was occupied (fetch pushed nothing, decode renamed
    /// nothing, a cluster wrote back nothing — at most one per domain per
    /// tick), indexed by [`Domain::index`]. Rendezvous mode only.
    rendezvous_blocked: [u64; 5],
    /// Stretch time accumulated since the driver last drained it, indexed
    /// by [`Domain::index`].
    pending_stretch: [Time; 5],
    /// Fast-path flag: whether `pending_stretch` holds anything.
    stretch_pending: bool,
    /// Lifetime stretch-event count per domain (each transfer counts once
    /// at each endpoint).
    stretch_events: [u64; 5],
    /// Lifetime stretch time per domain.
    stretch_time: [Time; 5],
    /// Wakeup-coalescing state (pausible + `coalesce_wakeup_stretch` only):
    /// the last producer-cluster cycle in which a wakeup handshake was
    /// charged on link `[from][to]`. Further wakeup tags pushed on the same
    /// link in the same cycle ride the already-paid handshake.
    wakeup_stretch_cycle: [[u64; 3]; 3],
    /// Producer-side dependence-filter state per wakeup tag (all zero
    /// unless `cfg.cross_cluster_wakeup_filter`): bits 0..=2 record which
    /// clusters renamed a consumer of the tag's current allocation;
    /// [`WAKEUP_DONE`] records that the producer's writeback broadcast has
    /// already run.
    ///
    /// Deadlock-freedom: a consumer renamed *before* the producer's
    /// writeback registers interest here, so the wakeup is delivered to its
    /// cluster; a consumer renamed *after* sees [`WAKEUP_DONE`] and marks
    /// the operand ready in its cluster view at rename (the busy-bit table
    /// read real rename stages do — the value is in the register file by
    /// then). Either way every dependent observes the wakeup.
    wakeup_interest: Box<[u8]>,
    halted: bool,
    last_commit_time: Time,
    /// Precomputed watchdog window (`max domain period × watchdog_cycles`);
    /// `Time::MAX` disables (the per-tick check is a compare, not a scan).
    watchdog_span: Time,
    /// Set (once) when the commit watchdog detects the machine wedged.
    /// [`Pipeline::done`] then reports the run finished so both drivers
    /// exit their loops, and they surface the report as
    /// `SimError::Deadlock` instead of a `SimReport`.
    deadlock: Option<Box<DeadlockReport>>,
    /// The static analyzer's pre-flight verdict (worst warning's code),
    /// stamped by the drivers so a deadlock report can cross-reference
    /// it. Cold: read only when a report is built.
    static_finding: Option<String>,
    fetch_cycles: u64,
    pub(crate) accountant: PowerAccountant,
    now: Time,
}

impl<'p> Pipeline<'p> {
    /// Builds the pipeline for a program under a configuration that has
    /// passed [`analyze`](crate::analyze) without an error.
    pub fn new(program: &'p Program, cfg: ProcessorConfig, limits: SimLimits) -> Self {
        let u = &cfg.uarch;
        let mk_data_channel = |from: Domain, to: Domain, cap: usize| -> Channel<InstrId> {
            Self::make_channel(&cfg, from, to, cap)
        };
        let clusters = [
            ClusterState::new(Domain::IntCluster, u.int_iq_size, u.int_alus, u.rob_size),
            ClusterState::new(Domain::FpCluster, u.fp_iq_size, u.fp_alus, u.rob_size),
            ClusterState::new(Domain::MemCluster, u.mem_iq_size, u.mem_ports, u.rob_size),
        ];
        let ch_dispatch = std::array::from_fn(|i| {
            mk_data_channel(Domain::Decode, CLUSTER_DOMAINS[i], cfg.channel_capacity)
        });
        let ch_complete = std::array::from_fn(|i| {
            mk_data_channel(
                CLUSTER_DOMAINS[i],
                Domain::Decode,
                cfg.side_channel_capacity,
            )
        });
        let ch_wakeup = std::array::from_fn(|from| {
            std::array::from_fn(|to| {
                Self::make_channel::<Tag>(
                    &cfg,
                    CLUSTER_DOMAINS[from],
                    CLUSTER_DOMAINS[to],
                    cfg.side_channel_capacity,
                )
            })
        });
        let mut accountant = PowerAccountant::new(cfg.energy.clone());
        if cfg.clocking.is_synchronous() {
            if cfg.dvfs.is_active() {
                accountant.set_global_voltage_factor(cfg.dvfs.energy_factor(Domain::Fetch));
            }
        } else {
            // GALS and pausible machines scale supplies per domain.
            for d in Domain::ALL {
                accountant.set_domain_voltage_factor(d, cfg.dvfs.energy_factor(d));
            }
        }

        let mut stream = DynStream::new(program);
        let peeked = stream.next();
        let fetch_pc = peeked.as_ref().map_or(EXIT_PC, |d| d.pc);

        Pipeline {
            ch_fetch_decode: mk_data_channel(Domain::Fetch, Domain::Decode, cfg.channel_capacity),
            ch_redirect: Self::make_channel(
                &cfg,
                Domain::IntCluster,
                Domain::Fetch,
                cfg.side_channel_capacity,
            ),
            ch_dispatch,
            ch_complete,
            ch_wakeup,
            icache: Cache::new(u.l1i),
            bpred: BranchPredictor::new(u.bpred),
            icache_stall: 0,
            l1i_line_shift: u.l1i.line_bytes.trailing_zeros(),
            decode_buf: VecDeque::with_capacity(2 * u.decode_width as usize),
            rename: RenameUnit::new(u.int_phys_regs, u.fp_phys_regs, u.max_branches),
            rob: Rob::new(u.rob_size),
            decode_cycle: 0,
            clusters,
            store_buffer: StoreBuffer::new(u.store_buffer_size),
            dcache: Cache::new(u.l1d),
            l2: Cache::new(u.l2),
            l2_touched: false,
            inflight: InFlightTable::with_capacity(
                u.rob_size
                    + 2 * u.decode_width as usize
                    + cfg.channel_capacity
                    + u.fetch_width as usize
                    + 8,
            ),
            next_seq: 0,
            pending_recovery: None,
            committed: 0,
            fetched: 0,
            wrong_path_fetched: 0,
            slip_total: Time::ZERO,
            slip_fifo: Time::ZERO,
            store_forwards_total: 0,
            issued_total: 0,
            issued_wrong_path: 0,
            stretch_handshake: match &cfg.clocking {
                Clocking::Pausible { model, .. } => Some(model.handshake),
                _ => None,
            },
            rendezvous: matches!(
                &cfg.clocking,
                Clocking::Pausible {
                    transfer: PausibleModel::Rendezvous,
                    ..
                }
            ),
            rendezvous_blocked: [0; 5],
            pending_stretch: [Time::ZERO; 5],
            stretch_pending: false,
            stretch_events: [0; 5],
            stretch_time: [Time::ZERO; 5],
            wakeup_stretch_cycle: [[0; 3]; 3],
            wakeup_interest: vec![0u8; TAG_SPACE].into_boxed_slice(),
            halted: false,
            last_commit_time: Time::ZERO,
            watchdog_span: if limits.watchdog_cycles > 0 {
                cfg.clocking.max_period() * limits.watchdog_cycles
            } else {
                Time::MAX
            },
            deadlock: None,
            static_finding: None,
            fetch_cycles: 0,
            accountant,
            stream,
            peeked,
            fetch_pc,
            wrong_path: false,
            wrong_pc: EXIT_PC,
            fetch_halted: false,
            program,
            cfg,
            limits,
            now: Time::ZERO,
        }
    }

    fn make_channel<T>(cfg: &ProcessorConfig, from: Domain, to: Domain, cap: usize) -> Channel<T> {
        match &cfg.clocking {
            Clocking::Synchronous(_) => Channel::sync_latch(cap),
            Clocking::Gals(clocks) => {
                let fwd = clocks[to.index()].period.scale(cfg.fifo_sync_periods);
                let bwd = clocks[from.index()].period.scale(cfg.fifo_sync_periods);
                Channel::mixed_clock_fifo(cap, fwd, bwd)
            }
            // Pausible clocking has no synchronisers: the transfer happens
            // with both clocks held, so the timing cost is paid as clock
            // stretch (see `note_transfer`). The latched model keeps the
            // full latch capacity (only timing is charged); the rendezvous
            // model strips every crossing to a single-entry port, so the
            // capacity cost of unbuffered handshakes is charged too.
            Clocking::Pausible { transfer, .. } => match transfer {
                PausibleModel::Latched => Channel::sync_latch(cap),
                PausibleModel::Rendezvous => Channel::rendezvous(),
            },
        }
    }

    /// Records one inter-domain transfer in pausible mode: both endpoint
    /// clocks stretch their current phase by the handshake duration while
    /// the arbiters settle and the data crosses (the paper's section-3.2
    /// objection, simulated). A transaction is charged at the *push*; the
    /// consumer-side pop reads a latch that is already local and costs
    /// nothing extra. No-op in the synchronous and FIFO-GALS machines.
    #[inline]
    fn note_transfer(&mut self, from: Domain, to: Domain) {
        let Some(handshake) = self.stretch_handshake else {
            return;
        };
        for d in [from, to] {
            let i = d.index();
            self.pending_stretch[i] += handshake;
            self.stretch_events[i] += 1;
            self.stretch_time[i] += handshake;
        }
        self.stretch_pending = true;
    }

    /// Records one cross-cluster wakeup transfer, coalescing the pausible
    /// handshake charge: with `coalesce_wakeup_stretch` on, all wakeup tags
    /// a producer cluster pushes onto one link within one local cycle share
    /// a single handshake (the arbitration is won once and the tag batch
    /// crosses together) instead of stretching both clocks once per tag.
    /// The tags themselves still travel individually. No-op difference
    /// outside pausible mode, where `note_transfer` charges nothing.
    #[inline]
    fn note_tag_transfer(&mut self, ci: usize, to: usize) {
        if self.stretch_handshake.is_some() && self.cfg.coalesce_wakeup_stretch {
            let cycle = self.clusters[ci].cycle;
            if self.wakeup_stretch_cycle[ci][to] == cycle {
                return;
            }
            self.wakeup_stretch_cycle[ci][to] = cycle;
        }
        self.note_transfer(CLUSTER_DOMAINS[ci], CLUSTER_DOMAINS[to]);
    }

    /// Drains the clock-stretch requests accumulated by pausible-mode
    /// transfers since the last call, indexed by [`Domain::index`]. The
    /// driver applies them to its scheduler — [`gals_events::ClockSet`]
    /// slots or [`gals_events::Engine`] periodic events — after the tick
    /// that produced them. Returns `None` when nothing is pending (always,
    /// outside pausible mode).
    pub fn take_stretch_requests(&mut self) -> Option<[Time; 5]> {
        if !self.stretch_pending {
            return None;
        }
        self.stretch_pending = false;
        Some(std::mem::take(&mut self.pending_stretch))
    }

    /// True once the run is finished (instruction budget met, program
    /// fully drained, or a deadlock was detected — see
    /// [`Pipeline::take_deadlock`]).
    pub fn done(&self) -> bool {
        self.halted || self.committed >= self.limits.max_insts || self.deadlock.is_some()
    }

    /// Advances one clock edge of `domain` at absolute time `now`.
    pub fn tick(&mut self, domain: Domain, now: Time) {
        self.now = now;
        match domain {
            Domain::Fetch => self.tick_fetch(),
            Domain::Decode => self.tick_decode(),
            Domain::IntCluster => self.tick_cluster(0),
            Domain::FpCluster => self.tick_cluster(1),
            Domain::MemCluster => self.tick_cluster(2),
        }
    }

    // ------------------------------------------------------------------
    // Domain 1: fetch
    // ------------------------------------------------------------------

    fn tick_fetch(&mut self) {
        let now = self.now;
        self.check_watchdog(now);
        self.fetch_cycles += 1;
        self.accountant.tick_domain(Domain::Fetch);
        // The base machine's global grid toggles once per (shared) cycle;
        // the GALS and pausible machines have no global grid.
        if self.cfg.clocking.is_synchronous() {
            self.accountant.tick_global();
        }

        // 1. Redirect handling (branch recovery).
        while let Some((r, res)) = self.ch_redirect.try_pop_timed(now) {
            // The redirect's residency is pipeline recovery latency; it is
            // charged to the mispredicted branch for slip accounting.
            if let Some(b) = self.inflight.get_mut(r.branch) {
                b.fifo_time += res;
            }
            self.process_redirect(r);
        }

        // 2. Fetch.
        let mut icache_active = false;
        let mut bpred_active = false;
        if self.icache_stall > 0 {
            self.icache_stall -= 1;
            icache_active = true;
        } else if !self.fetch_halted && self.pending_recovery.is_none() {
            // Once a misprediction has *resolved*, further wrong-path fetch
            // is gated (the squash broadcast reaches the front end with the
            // redirect); until resolution, fetch honestly runs down the
            // predicted path.
            let pc = if self.wrong_path {
                self.wrong_pc
            } else {
                self.fetch_pc
            };
            if pc != EXIT_PC {
                icache_active = true;
                if self.icache.access(pc) {
                    // One I-cache line per cycle: the fetch group ends at
                    // the line boundary (and at predicted-taken branches).
                    let line = pc >> self.l1i_line_shift;
                    let fetched_before = self.fetched;
                    let mut port_blocked = false;
                    for _ in 0..self.cfg.uarch.fetch_width {
                        let cur = if self.wrong_path {
                            self.wrong_pc
                        } else {
                            self.fetch_pc
                        };
                        if cur == EXIT_PC || cur >> self.l1i_line_shift != line {
                            break;
                        }
                        match self.fetch_one(&mut bpred_active, &mut port_blocked) {
                            FetchOutcome::Continue => {}
                            FetchOutcome::Stop => break,
                        }
                    }
                    // Rendezvous mode: a blocked cycle is a tick in which
                    // fetch produced *nothing* because its output port was
                    // occupied.
                    if self.rendezvous && port_blocked && self.fetched == fetched_before {
                        self.rendezvous_blocked[Domain::Fetch.index()] += 1;
                    }
                } else {
                    self.icache_stall = self.l2_fill_latency();
                }
            }
        }
        self.accountant
            .block_cycle(MacroBlock::ICache, icache_active);
        self.accountant
            .block_cycle(MacroBlock::BranchPredictor, bpred_active);
    }

    /// Latency charged for an L1 miss: L2 hit latency, plus memory latency
    /// when L2 also misses. (Shared between I- and D-side.)
    fn l2_fill_latency_for(
        l2: &mut Cache,
        l2_touched: &mut bool,
        addr: u64,
        mem_latency: u32,
    ) -> u32 {
        *l2_touched = true;
        if l2.access(addr) {
            l2.latency()
        } else {
            l2.latency() + mem_latency
        }
    }

    fn l2_fill_latency(&mut self) -> u32 {
        let pc = if self.wrong_path {
            self.wrong_pc
        } else {
            self.fetch_pc
        };
        // A fetch-side L2 touch is consumed by the memory cluster's next
        // tick (it charges the L2 block's activity and resets the flag).
        Self::l2_fill_latency_for(
            &mut self.l2,
            &mut self.l2_touched,
            pc,
            self.cfg.uarch.mem_latency,
        )
    }

    fn fetch_one(&mut self, bpred_active: &mut bool, port_blocked: &mut bool) -> FetchOutcome {
        let now = self.now;
        if !self.ch_fetch_decode.can_push(now) {
            // The occupied output port stops the group; the caller counts
            // a rendezvous-blocked cycle only when the whole tick fetched
            // nothing (a partially fetched group made progress).
            *port_blocked = true;
            return FetchOutcome::Stop;
        }
        if self.wrong_path {
            self.fetch_one_wrong_path(bpred_active)
        } else {
            self.fetch_one_correct_path(bpred_active)
        }
    }

    fn fetch_one_correct_path(&mut self, bpred_active: &mut bool) -> FetchOutcome {
        // `take` instead of `clone`: the cursor is re-primed from the stream
        // below on every path that continues fetching.
        let Some(d) = self.peeked.take() else {
            self.fetch_halted = true;
            return FetchOutcome::Stop;
        };
        debug_assert_eq!(d.pc, self.fetch_pc, "front end desynchronised from stream");

        let mut branch_info = None;
        let mut stop_after = false;

        if d.op.is_branch() {
            *bpred_active = true;
            let fallthrough = self.program.next_sequential_pc(d.block, d.index);
            let (predicted_taken, predicted_target) = match d.op {
                OpClass::BranchCond => {
                    let p = self.bpred.predict_cond(d.pc);
                    // Immediate training (see module docs).
                    let train_target = if d.taken { d.next_pc } else { 0 };
                    self.bpred.update_cond(d.pc, d.taken, train_target, p.taken);
                    (p.taken, p.target)
                }
                OpClass::Jump | OpClass::Call => {
                    let p = self.bpred.predict_uncond(d.pc);
                    self.bpred.update_uncond(d.pc, d.next_pc);
                    if d.op == OpClass::Call {
                        self.bpred.push_return(fallthrough);
                    }
                    (true, p.target)
                }
                OpClass::Ret => {
                    let p = self.bpred.predict_return(d.pc);
                    (true, p.target)
                }
                _ => unreachable!("is_branch covers these"),
            };
            // Where fetch believes it should go next.
            let predicted_next = if predicted_taken {
                predicted_target.unwrap_or(fallthrough)
            } else {
                fallthrough
            };
            let mispredicted = predicted_next != d.next_pc;
            branch_info = Some(BranchInfo {
                predicted_taken,
                actual_taken: d.taken,
                recovery_pc: d.next_pc,
                mispredicted,
            });
            if mispredicted {
                self.wrong_path = true;
                self.wrong_pc = predicted_next;
            }
            // Taken (predicted) control transfers end the fetch group.
            stop_after = predicted_taken;
        }

        let seq = self.alloc_seq();
        let inst = &self.program.block(d.block).insts[d.index as usize];
        self.push_fetched(InFlight {
            seq,
            pc: d.pc,
            op: inst.op,
            wrong_path: false,
            is_exit: d.is_exit(),
            completed: false,
            arch_dst: inst.dst,
            arch_srcs: [inst.src1, inst.src2],
            mem_addr: d.mem_addr,
            branch: branch_info,
            srcs: SrcTags::new(),
            dst: None,
            fetched_at: self.now,
            fifo_time: Time::ZERO,
        });

        // Advance the architectural cursor.
        self.fetch_pc = d.next_pc;
        self.peeked = self.stream.next();
        if d.is_exit() {
            self.fetch_halted = true;
            return FetchOutcome::Stop;
        }
        if stop_after || self.wrong_path {
            return FetchOutcome::Stop;
        }
        FetchOutcome::Continue
    }

    fn fetch_one_wrong_path(&mut self, bpred_active: &mut bool) -> FetchOutcome {
        // As in decode, copying the program reference out of self lets the
        // located instruction borrow the program directly — no clone.
        let program = self.program;
        let Some((block, index, inst)) = program.locate(self.wrong_pc) else {
            // Ran off the program on the wrong path: fetch bubbles until
            // the redirect arrives.
            return FetchOutcome::Stop;
        };
        let pc = self.wrong_pc;
        let seq = self.alloc_seq();

        let mut stop_after = false;
        if inst.op.is_branch() {
            *bpred_active = true;
            let fallthrough = self.program.next_sequential_pc(block, index);
            let taken_target = self.program.taken_target_pc(block);
            let (ptaken, ptarget) = match inst.op {
                OpClass::BranchCond => {
                    let p = self.bpred.predict_cond_nospec(pc);
                    (p.taken, p.target)
                }
                OpClass::Jump | OpClass::Call => {
                    let p = self.bpred.predict_uncond(pc);
                    if inst.op == OpClass::Call {
                        self.bpred.push_return(fallthrough);
                    }
                    // Wrong-path fetch may still know the static target.
                    (true, p.target.or(taken_target))
                }
                OpClass::Ret => {
                    let p = self.bpred.predict_return(pc);
                    (true, p.target)
                }
                _ => unreachable!(),
            };
            self.wrong_pc = if ptaken {
                ptarget.unwrap_or(fallthrough)
            } else {
                fallthrough
            };
            stop_after = ptaken;
        } else {
            self.wrong_pc = self.program.next_sequential_pc(block, index);
        }

        let mem_addr = inst.mem.map(|mid| {
            let behavior = self.program.mem_behavior(mid);
            let flat = self.program.flat_index(block, index);
            behavior.address(self.program.seed() ^ WRONG_PATH_SALT, flat, seq)
        });
        // Wrong-path branches never carry misprediction info: they have no
        // architectural outcome and are squashed before resolution matters.
        let branch_info = inst.op.is_branch().then_some(BranchInfo {
            predicted_taken: true,
            actual_taken: false,
            recovery_pc: EXIT_PC,
            mispredicted: false,
        });
        self.push_fetched(InFlight {
            seq,
            pc,
            op: inst.op,
            wrong_path: true,
            is_exit: false,
            completed: false,
            arch_dst: inst.dst,
            arch_srcs: [inst.src1, inst.src2],
            mem_addr,
            branch: branch_info,
            srcs: SrcTags::new(),
            dst: None,
            fetched_at: self.now,
            fifo_time: Time::ZERO,
        });

        if stop_after {
            FetchOutcome::Stop
        } else {
            FetchOutcome::Continue
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn push_fetched(&mut self, f: InFlight) {
        let wrong = f.wrong_path;
        let id = self.inflight.insert(f);
        self.ch_fetch_decode
            .try_push(id, self.now)
            .expect("push guarded by can_push");
        self.note_transfer(Domain::Fetch, Domain::Decode);
        self.fetched += 1;
        if wrong {
            self.wrong_path_fetched += 1;
        }
    }

    fn process_redirect(&mut self, r: Redirect) {
        // Drop stale redirects for branches already squashed.
        if self.pending_recovery != Some(r.branch_seq) {
            return;
        }
        let now = self.now;
        let bseq = r.branch_seq;

        // Squash younger state everywhere.
        self.rob.squash_younger(bseq);
        let recovered = self.rename.recover(bseq);
        debug_assert!(recovered, "mispredicted branch must hold a checkpoint");
        for cl in &mut self.clusters {
            cl.iq.squash_younger(bseq);
            cl.executing.retain(|&(_, s, _)| s <= bseq);
            // Rendezvous mode: port-blocked writebacks of squashed
            // instructions evaporate too (the list is empty otherwise).
            cl.writeback_pending.retain(|&(s, _)| s <= bseq);
        }
        self.store_buffer.squash_younger(bseq);
        // Flush the handles of squashed instructions out of the decode
        // buffer and the data channels (their table entries are still live
        // here, so the age test reads straight through the handle; a stale
        // handle — impossible today — would flush as squashed too).
        let inflight = &self.inflight;
        let keep = |id: &InstrId| inflight.get(*id).is_some_and(|f| f.seq <= bseq);
        self.decode_buf.retain(keep);
        self.ch_fetch_decode.flush_where(now, keep);
        for ch in &mut self.ch_dispatch {
            ch.flush_where(now, keep);
        }
        for ch in &mut self.ch_complete {
            ch.flush_where(now, keep);
        }
        // Wakeup channels carry register tags, not handles; stale tags are
        // tolerated (module docs).
        self.inflight.remove_younger(bseq);

        // Resume correct-path fetch.
        self.wrong_path = false;
        self.wrong_pc = EXIT_PC;
        debug_assert_eq!(
            r.target_pc, self.fetch_pc,
            "recovery target must match the architectural cursor"
        );
        self.icache_stall = 0;
        self.pending_recovery = None;
    }

    // ------------------------------------------------------------------
    // Domain 2: decode, rename, dispatch, commit
    // ------------------------------------------------------------------

    fn tick_decode(&mut self) {
        let now = self.now;
        self.decode_cycle += 1;
        self.accountant.tick_domain(Domain::Decode);

        // 1. Absorb completions.
        for ci in 0..3 {
            while let Some((id, res)) = self.ch_complete[ci].try_pop_timed(now) {
                // Stale messages for squashed instructions are no-ops.
                if let Some(f) = self.inflight.get_mut(id) {
                    f.completed = true;
                    f.fifo_time += res;
                }
            }
        }

        // 2. Commit. (The budget check keeps runs with different clockings
        // at exactly equal committed counts for paired comparisons.)
        let mut commits = 0;
        while commits < self.cfg.uarch.commit_width && self.committed < self.limits.max_insts {
            let Some((head_seq, &head_id)) = self.rob.head() else {
                break;
            };
            // Hold a mispredicted branch at the head until its recovery has
            // executed: the checkpoint must survive, and nothing younger
            // (wrong-path) may commit.
            if self.pending_recovery == Some(head_seq) {
                break;
            }
            if !self.inflight.get(head_id).is_some_and(|f| f.completed) {
                break;
            }
            let (seq, id) = self.rob.pop_head().expect("head exists");
            let retired = self
                .inflight
                .remove(id)
                .expect("committing unknown instruction");
            debug_assert!(!retired.wrong_path, "wrong-path instruction reached commit");
            if let Some((arch, _new_tag, old)) = retired.dst {
                self.rename.commit_release(arch, old);
            }
            if retired.op.is_branch() {
                self.rename.release_checkpoint(seq);
            }
            if retired.op == OpClass::Store {
                self.store_buffer.retire_through(seq);
            }
            self.slip_total += now - retired.fetched_at;
            self.slip_fifo += retired.fifo_time;
            self.committed += 1;
            self.last_commit_time = now;
            if retired.is_exit {
                self.halted = true;
            }
            commits += 1;
        }

        // Deadlock watchdog (development aid).
        self.check_watchdog(now);

        // 3. Rename + dispatch, in order, stalling at the first hazard.
        let mut renamed = 0;
        while renamed < self.cfg.uarch.decode_width {
            let Some(&id) = self.decode_buf.front() else {
                break;
            };
            if !self.rob.has_space() {
                break;
            }
            // The architectural operands were captured at fetch, so rename
            // needs no PC re-locate.
            let &InFlight {
                seq,
                op,
                arch_dst,
                arch_srcs,
                ..
            } = self.inflight.get(id).expect("decoded instruction vanished");
            let is_branch = op.is_branch();
            if is_branch && !self.rename.can_checkpoint() {
                break;
            }
            // Stores reserve their buffer slot here, in program order, so an
            // older store can never be starved by younger out-of-order
            // stores (deadlock avoidance; see gals_uarch::StoreBuffer).
            if op == OpClass::Store && !self.store_buffer.has_space() {
                break;
            }
            let ci = cluster_index(op.cluster());
            if !self.ch_dispatch[ci].can_push(now) {
                // Rendezvous mode: a blocked cycle is a tick whose rename
                // stage moved *nothing* because the head's dispatch port
                // was occupied (breaking after some renames is progress,
                // not a stall).
                if self.rendezvous && renamed == 0 {
                    self.rendezvous_blocked[Domain::Decode.index()] += 1;
                }
                break;
            }
            // Rename sources first (RAW within the group resolves to the
            // younger mapping naturally because older group members already
            // updated the RAT this cycle).
            let mut src_tags = SrcTags::new();
            for r in arch_srcs.into_iter().flatten() {
                src_tags.push(Tag::new(self.rename.lookup(r), r.is_fp()));
            }
            let dst = if let Some(d) = arch_dst {
                match self.rename.rename_dst(d) {
                    Ok(renamed_dst) => {
                        Some((d, Tag::new(renamed_dst.new, d.is_fp()), renamed_dst.old))
                    }
                    Err(_) => break, // out of physical registers: stall
                }
            } else {
                None
            };
            if is_branch {
                self.rename.checkpoint(seq);
            }
            let f = self.inflight.get_mut(id).expect("read above");
            f.srcs = src_tags;
            f.dst = dst;
            // Producer-side wakeup filter: register this consumer's cluster
            // against each source tag, or — when the producer has already
            // broadcast — mark the operand ready in this cluster's view now
            // (the rename-time busy-bit read; see `wakeup_interest` docs).
            if self.cfg.cross_cluster_wakeup_filter {
                for t in src_tags.iter() {
                    if self.wakeup_interest[t.index()] & WAKEUP_DONE != 0 {
                        self.clusters[ci].ready.set(t.index());
                    } else {
                        self.wakeup_interest[t.index()] |= 1 << ci;
                    }
                }
            }
            // Mark the destination not-ready in every cluster view (and
            // reset the filter state of the tag's fresh allocation — the
            // interest table is only touched when the filter is active).
            if let Some((_, tag, _)) = dst {
                if self.cfg.cross_cluster_wakeup_filter {
                    self.wakeup_interest[tag.index()] = 0;
                }
                for cl in &mut self.clusters {
                    cl.ready.clear(tag.index());
                }
            }
            if op == OpClass::Store {
                self.store_buffer.reserve(seq).expect("space checked above");
            }
            self.rob.alloc(seq, id).expect("space checked above");
            self.ch_dispatch[ci]
                .try_push(id, now)
                .expect("push guarded by can_push");
            self.note_transfer(Domain::Decode, CLUSTER_DOMAINS[ci]);
            self.decode_buf.pop_front();
            renamed += 1;
        }

        // 4. Decode: pull from the fetch channel into the decode buffer.
        let mut decoded = 0;
        while decoded < self.cfg.uarch.decode_width
            && self.decode_buf.len() < 2 * self.cfg.uarch.decode_width as usize
        {
            let Some((id, res)) = self.ch_fetch_decode.try_pop_timed(now) else {
                break;
            };
            if let Some(f) = self.inflight.get_mut(id) {
                f.fifo_time += res;
                self.decode_buf.push_back(id);
            }
            // (A flushed-but-raced handle simply evaporates.)
            decoded += 1;
        }

        self.accountant
            .block_cycle(MacroBlock::RenameLogic, renamed > 0 || decoded > 0);
        self.accountant
            .block_cycle(MacroBlock::RegisterFile, renamed > 0 || commits > 0);
        self.rename.sample_occupancy();
        self.rob.sample_occupancy();
    }

    /// Deadlock watchdog: records a [`DeadlockReport`] when no instruction
    /// has committed for the configured window. Checked on every fetch,
    /// decode and cluster tick, so both drivers trip it at the same edge.
    /// Once the report is recorded, [`Pipeline::done`] is true and the
    /// check never re-fires.
    #[inline]
    fn check_watchdog(&mut self, now: Time) {
        if now.saturating_sub(self.last_commit_time) >= self.watchdog_span && !self.done() {
            self.deadlock = Some(self.build_deadlock_report(now));
        }
    }

    /// Takes the deadlock report, if the run wedged. Drivers call this
    /// after their event loop exits; `Some` means the run failed and no
    /// [`SimReport`] exists.
    pub fn take_deadlock(&mut self) -> Option<Box<DeadlockReport>> {
        self.deadlock.take()
    }

    /// Stamps the static analyzer's pre-flight verdict (see
    /// [`crate::analyze`]) so any deadlock report built later can say
    /// "this wedge was flagged at submit".
    pub fn set_static_finding(&mut self, finding: Option<String>) {
        self.static_finding = finding;
    }

    /// Snapshots the stuck machine. Every field is a pure function of the
    /// configuration and workload, so re-running the same point rebuilds
    /// the same report bit-for-bit.
    fn build_deadlock_report(&self, now: Time) -> Box<DeadlockReport> {
        let port = |ch: &Channel<InstrId>| PortState {
            len: ch.len(),
            capacity: ch.capacity(),
            rendezvous: ch.is_rendezvous(),
        };
        Box::new(DeadlockReport {
            now,
            last_commit_time: self.last_commit_time,
            watchdog_cycles: self.limits.watchdog_cycles,
            committed: self.committed,
            rob_len: self.rob.len(),
            rob_head_seq: self.rob.head().map(|(seq, _)| seq),
            decode_buf_len: self.decode_buf.len(),
            iq_len: std::array::from_fn(|ci| self.clusters[ci].iq.len()),
            writeback_pending_len: std::array::from_fn(|ci| {
                self.clusters[ci].writeback_pending.len()
            }),
            ch_fetch_decode: port(&self.ch_fetch_decode),
            ch_dispatch: std::array::from_fn(|ci| port(&self.ch_dispatch[ci])),
            ch_complete: std::array::from_fn(|ci| port(&self.ch_complete[ci])),
            ch_redirect: PortState {
                len: self.ch_redirect.len(),
                capacity: self.ch_redirect.capacity(),
                rendezvous: self.ch_redirect.is_rendezvous(),
            },
            ch_wakeup_total: self.ch_wakeup.iter().flatten().map(|ch| ch.len()).sum(),
            rendezvous_blocked: self.rendezvous_blocked,
            pending_recovery: self.pending_recovery,
            fetch_halted: self.fetch_halted,
            wrong_path: self.wrong_path,
            static_finding: self.static_finding.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Domains 3/4/5: the execution clusters
    // ------------------------------------------------------------------

    fn tick_cluster(&mut self, ci: usize) {
        let now = self.now;
        self.check_watchdog(now);
        self.clusters[ci].cycle += 1;
        let domain = self.clusters[ci].domain;
        self.accountant.tick_domain(domain);

        // 1. Apply cross-domain wakeups.
        for from in 0..3 {
            if from == ci {
                continue;
            }
            while let Some(tag) = self.ch_wakeup[from][ci].try_pop(now) {
                let cl = &mut self.clusters[ci];
                cl.ready.set(tag.index());
                cl.iq.wakeup(tag.as_iq_tag());
            }
        }

        // 2. Writeback of finished executions. The scratch buffer lives in
        // the cluster and is moved out for the duration of the walk so
        // `writeback(&mut self)` can run while it is held.
        let cycle = self.clusters[ci].cycle;
        let mut finished = std::mem::take(&mut self.clusters[ci].finished_scratch);
        finished.clear();
        self.clusters[ci].executing.retain(|&(done, seq, id)| {
            if done <= cycle {
                finished.push((seq, id));
                false
            } else {
                true
            }
        });
        finished.sort_unstable_by_key(|&(seq, _)| seq);
        if self.rendezvous {
            // Rendezvous mode: a writeback pushes into single-entry ports
            // (wakeup broadcasts, the completion notice, possibly the
            // redirect), so it runs only when *every* port it needs can
            // accept — an atomic rendezvous. Blocked writebacks wait in
            // program order on the pending list and retry next tick; one
            // blocked cycle is charged per tick that ends with the head
            // still waiting.
            let mut pending = std::mem::take(&mut self.clusters[ci].writeback_pending);
            pending.extend_from_slice(&finished);
            // Seqs are unique, so the merged order is deterministic.
            pending.sort_unstable_by_key(|&(seq, _)| seq);
            let mut done = 0;
            while let Some(&(_, id)) = pending.get(done) {
                if !self.writeback_ports_free(ci, id) {
                    // A blocked cycle is a tick in which *no* writeback got
                    // through — a partially drained pending list made
                    // progress.
                    if done == 0 {
                        self.rendezvous_blocked[CLUSTER_DOMAINS[ci].index()] += 1;
                    }
                    break;
                }
                self.writeback(ci, id);
                done += 1;
            }
            pending.drain(..done);
            self.clusters[ci].writeback_pending = pending;
        } else {
            for &(_, id) in &finished {
                self.writeback(ci, id);
            }
        }
        self.clusters[ci].finished_scratch = finished;

        // 3. Select + issue.
        let issued = self.issue(ci);

        // 4. Fill the IQ from the dispatch channel. The outstanding-source
        // tags stream straight into the queue's inline storage — no
        // per-instruction `Vec`.
        let mut inserted = 0;
        while self.clusters[ci].iq.has_space() {
            let Some((id, res)) = self.ch_dispatch[ci].try_pop_timed(now) else {
                break;
            };
            let Some(f) = self.inflight.get_mut(id) else {
                continue;
            };
            f.fifo_time += res;
            let (age, srcs) = (f.seq, f.srcs);
            let ClusterState { iq, ready, .. } = &mut self.clusters[ci];
            iq.insert(
                id.bits(),
                age,
                srcs.iter()
                    .filter(|t| !ready.get(t.index()))
                    .map(|t| t.as_iq_tag()),
            )
            .expect("space checked by has_space");
            inserted += 1;
        }

        // 5. Power activity.
        let cl = &mut self.clusters[ci];
        cl.iq.sample_occupancy();
        let iq_active = !cl.iq.is_empty() || inserted > 0;
        let alu_active = issued > 0 || !cl.executing.is_empty();
        let (iq_block, alu_block) = match ci {
            0 => (MacroBlock::IntIssueWindow, MacroBlock::IntAlus),
            1 => (MacroBlock::FpIssueWindow, MacroBlock::FpAlus),
            _ => (MacroBlock::MemIssueWindow, MacroBlock::FpAlus), // alu handled below
        };
        self.accountant.block_cycle(iq_block, iq_active);
        if ci == 2 {
            // Memory cluster: charge the caches instead of ALUs.
            self.accountant
                .block_cycle(MacroBlock::DCache, issued > 0 || !cl.executing.is_empty());
            self.accountant
                .block_cycle(MacroBlock::L2Cache, self.l2_touched);
            self.l2_touched = false;
            let _ = alu_block;
        } else {
            self.accountant.block_cycle(alu_block, alu_active);
        }
        if ci == 2 {
            self.store_buffer.sample_occupancy();
        }
    }

    fn issue(&mut self, ci: usize) -> u32 {
        let now = self.now;
        let width = self.cfg.uarch.issue_width;
        let cycle = self.clusters[ci].cycle;
        // Reused per-tick scratch, moved out so the split borrows below
        // stay disjoint. Each admitted instruction records everything the
        // post-selection loop needs — `(token, seq, latency, wrong_path)` —
        // so issue re-probes nothing.
        let mut admitted = std::mem::take(&mut self.clusters[ci].latency_scratch);
        let mut picked = std::mem::take(&mut self.clusters[ci].picked_scratch);
        admitted.clear();
        // Split borrows: the IQ needs &mut independent of the rest.
        let ClusterState { iq, fus, .. } = &mut self.clusters[ci];
        let inflight = &self.inflight;
        let store_buffer = &mut self.store_buffer;
        let dcache = &mut self.dcache;
        let l2 = &mut self.l2;
        let l2_touched = &mut self.l2_touched;
        let mem_latency = self.cfg.uarch.mem_latency;
        let mut store_forwards = 0u64;
        let mut wrong_path_issues = 0u64;

        iq.select_into(
            width,
            |token| {
                let id = InstrId::from_bits(token);
                let Some(&InFlight {
                    seq,
                    op,
                    wrong_path,
                    mem_addr,
                    ..
                }) = inflight.get(id)
                else {
                    return true; /* squash race: drop */
                };
                let base_lat = op.exec_latency();
                let lat = match op {
                    OpClass::Store => {
                        if !fus.try_issue(cycle, base_lat, true) {
                            return false;
                        }
                        let addr = mem_addr.expect("stores carry addresses");
                        // Slot reserved at dispatch; fill the address now.
                        store_buffer.fill(seq, addr);
                        u64::from(base_lat)
                    }
                    OpClass::Load => {
                        if !fus.try_issue(cycle, base_lat, true) {
                            return false;
                        }
                        let addr = mem_addr.expect("loads carry addresses");
                        if store_buffer.forwards_to(addr) {
                            store_forwards += 1;
                            u64::from(dcache.latency())
                        } else if dcache.access(addr) {
                            u64::from(dcache.latency())
                        } else {
                            u64::from(dcache.latency())
                                + u64::from(Self::l2_fill_latency_for(
                                    l2,
                                    l2_touched,
                                    addr,
                                    mem_latency,
                                ))
                        }
                    }
                    op => {
                        if !fus.try_issue(cycle, op.exec_latency(), op.is_pipelined()) {
                            return false;
                        }
                        u64::from(op.exec_latency())
                    }
                };
                if wrong_path {
                    wrong_path_issues += 1;
                }
                admitted.push((token, seq, lat));
                true
            },
            &mut picked,
        );
        self.store_forwards_total += store_forwards;
        let issued = picked.len() as u32;
        self.issued_total += u64::from(issued);
        self.issued_wrong_path += wrong_path_issues;
        for &(token, seq, lat) in &admitted {
            self.clusters[ci]
                .executing
                .push((cycle + lat.max(1), seq, InstrId::from_bits(token)));
        }
        admitted.clear();
        picked.clear();
        self.clusters[ci].latency_scratch = admitted;
        self.clusters[ci].picked_scratch = picked;
        let _ = now;
        issued
    }

    /// Rendezvous mode: true when every rendezvous port this instruction's
    /// writeback will push into — the completion notice, the redirect for
    /// a mispredicted branch, and each wakeup link the broadcast (or the
    /// producer-side filter) selects — can accept an item at `now`. The
    /// check mirrors [`Pipeline::writeback`] exactly, so a `true` here
    /// guarantees the writeback's pushes all succeed.
    fn writeback_ports_free(&mut self, ci: usize, id: InstrId) -> bool {
        let now = self.now;
        let Some(f) = self.inflight.get(id) else {
            return true; // squashed under us: the writeback is a no-op
        };
        if !self.ch_complete[ci].can_push(now) {
            return false;
        }
        if recovery_pc(f).is_some() && !self.ch_redirect.can_push(now) {
            return false;
        }
        if let Some((_, tag, _)) = f.dst {
            let filter = self.cfg.cross_cluster_wakeup_filter;
            let interest = if filter {
                self.wakeup_interest[tag.index()]
            } else {
                0
            };
            for to in 0..3 {
                if to == ci || (filter && interest & (1 << to) == 0) {
                    continue;
                }
                if !self.ch_wakeup[ci][to].can_push(now) {
                    return false;
                }
            }
        }
        true
    }

    fn writeback(&mut self, ci: usize, id: InstrId) {
        let now = self.now;
        let Some(f) = self.inflight.get(id) else {
            return;
        };
        let (seq, dst, recovery) = (f.seq, f.dst, recovery_pc(f));

        // Chaos mode: drop this writeback on the floor. The threshold is a
        // `>=` (not an exact match) so the wedge survives the targeted seq
        // being a squashed wrong-path instruction: the first *correct-path*
        // instruction past it never completes, commit wedges behind it,
        // and the deadlock layer must turn the hang into a structured
        // report.
        #[cfg(feature = "chaos")]
        if self
            .limits
            .chaos
            .withhold_writeback
            .is_some_and(|n| seq >= n)
        {
            return;
        }

        // Local + remote wakeup. With the producer-side filter on, remote
        // clusters receive the tag only when they registered a consumer at
        // rename; later consumers take the WAKEUP_DONE path instead.
        if let Some((_, tag, _)) = dst {
            let cl = &mut self.clusters[ci];
            cl.ready.set(tag.index());
            cl.iq.wakeup(tag.as_iq_tag());
            let filter = self.cfg.cross_cluster_wakeup_filter;
            let interest = if filter {
                self.wakeup_interest[tag.index()]
            } else {
                0
            };
            for to in 0..3 {
                if to == ci || (filter && interest & (1 << to) == 0) {
                    continue;
                }
                self.ch_wakeup[ci][to]
                    .try_push(tag, now)
                    .expect("wakeup channel sized to never fill");
                self.note_tag_transfer(ci, to);
            }
            if filter {
                self.wakeup_interest[tag.index()] = WAKEUP_DONE;
            }
        }

        // Mispredicted branch: launch the redirect.
        if let Some(recovery_pc) = recovery {
            debug_assert!(
                self.pending_recovery.is_none(),
                "only one correct-path misprediction can be outstanding"
            );
            self.pending_recovery = Some(seq);
            self.ch_redirect
                .try_push(
                    Redirect {
                        branch: id,
                        branch_seq: seq,
                        target_pc: recovery_pc,
                    },
                    now,
                )
                .expect("redirect channel sized to never fill");
            self.note_transfer(CLUSTER_DOMAINS[ci], Domain::Fetch);
        }

        // Completion notice to the ROB.
        self.ch_complete[ci]
            .try_push(id, now)
            .expect("completion channel sized to never fill");
        self.note_transfer(CLUSTER_DOMAINS[ci], Domain::Decode);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Finalises the run into a [`SimReport`]. `exec_time` is the timestamp
    /// of the last processed event.
    pub fn into_report(mut self, exec_time: Time) -> SimReport {
        // FIFO transfer energy (GALS only): every push and pop toggles the
        // FIFO's synchronisers and data latches.
        let mut channel_ops = 0u64;
        let mut add = |st: gals_clocks::ChannelStats| {
            channel_ops += st.pushes + st.pops;
        };
        add(self.ch_fetch_decode.stats());
        add(self.ch_redirect.stats());
        for ch in &self.ch_dispatch {
            add(ch.stats());
        }
        for ch in &self.ch_complete {
            add(ch.stats());
        }
        for row in &self.ch_wakeup {
            for ch in row {
                add(ch.stats());
            }
        }
        if self.cfg.clocking.is_gals() {
            self.accountant.fifo_access(channel_ops);
        }

        // Pausible clocking: the local clock trees stay driven over the
        // *effective* (stretched) period, so stretch time burns local grid
        // energy like ordinary cycles, pro-rated in nominal-cycle units.
        if let Clocking::Pausible { clocks, .. } = &self.cfg.clocking {
            for d in Domain::ALL {
                let i = d.index();
                if self.stretch_time[i] > Time::ZERO {
                    let extra_cycles =
                        self.stretch_time[i].as_fs() as f64 / clocks[i].period.as_fs() as f64;
                    self.accountant.stretched_clock(d, extra_cycles);
                }
            }
        }

        SimReport {
            committed: self.committed,
            fetched: self.fetched,
            wrong_path_fetched: self.wrong_path_fetched,
            exec_time,
            domain_cycles: [
                self.fetch_cycles,
                self.decode_cycle,
                self.clusters[0].cycle,
                self.clusters[1].cycle,
                self.clusters[2].cycle,
            ],
            slip_total: self.slip_total,
            slip_fifo: self.slip_fifo,
            bpred: self.bpred.stats(),
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            l2: self.l2.stats(),
            iq: [
                self.clusters[0].iq.stats(),
                self.clusters[1].iq.stats(),
                self.clusters[2].iq.stats(),
            ],
            rob_mean_occupancy: self.rob.mean_occupancy(),
            rat_mean_occupancy: self.rename.mean_occupancy(),
            rat_peak_occupancy: self.rename.peak_occupancy(),
            store_forwards: self.store_forwards_total,
            issued: self.issued_total,
            issued_wrong_path: self.issued_wrong_path,
            channel_ops,
            stretches: self.stretch_events,
            stretch_time: self.stretch_time,
            rendezvous_blocked: self.rendezvous_blocked,
            energy: self.accountant.breakdown(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchOutcome {
    Continue,
    Stop,
}

/// The recovery target of a correct-path branch the front end
/// mispredicted, whose writeback launches a redirect; `None` for every
/// other instruction.
fn recovery_pc(f: &InFlight) -> Option<u64> {
    let b = f.branch?;
    (!f.wrong_path && b.mispredicted).then_some(b.recovery_pc)
}

fn cluster_index(c: Cluster) -> usize {
    match c {
        Cluster::Int => 0,
        Cluster::Fp => 1,
        Cluster::Mem => 2,
    }
}
