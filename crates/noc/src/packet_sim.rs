//! Event-driven packet-level network simulator (primary engine).
//!
//! Each [`Message`](crate::Message) is split into maximum-size packets that
//! traverse the XY route hop by hop under virtual cut-through switching:
//!
//! * a packet occupies each directed link for its serialization time
//!   (`bytes / bandwidth`); contending packets queue FIFO in arrival order,
//! * forwarding on the next hop begins one per-flit (header) latency after
//!   the packet wins the current link — consecutive-hop occupancies overlap,
//!   as in cut-through switching, instead of store-and-forward,
//! * a stalled packet buffers at the blocked router (the paper's 318-flit VC
//!   buffers comfortably hold a 16-flit packet, so upstream links are not
//!   back-pressured — matching BookSim's virtual-cut-through configuration).
//!
//! Dependencies are honored at message granularity: a message is injected
//! when all messages it depends on have delivered their last packet.
//!
//! Two engines implement these semantics. The exact per-packet engine
//! serves every packet at every hop, in the global `(time, seq)` order of a
//! one-event-per-packet-hop simulation, but its heap holds only the head of
//! each active (message, hop) stream (see `run_per_packet`); the
//! packet-train coalescing fast path (see [`crate::coalesce`]) advances
//! whole trains in O(messages × hops) and is used by default whenever no two
//! trains interleave on a link. The [`SimMode`] policy selects between them.
//! Runs under a [`FaultTimeline`](meshcoll_topo::FaultTimeline) (see
//! [`crate::online`]) use the same two engines and the same partition
//! driver: the per-packet loop takes per-link death times, and a fast-path
//! result counts only when it finishes by the earliest death it could meet.
//!
//! # Steady-state execution model
//!
//! Under [`SimMode::Auto`] (no transient flaps), every run is partitioned
//! first: union-find over dependency edges and shared route links splits the
//! DAG into mutually link-disjoint, dependency-closed components, and each
//! component runs through the coalescing fast path independently — on the
//! calling thread, or fanned out over scoped worker threads when
//! [`PacketSim::with_run_threads`] allows more than one. Only the components
//! whose own links are contended drop to the per-packet reference engine;
//! a component *error* re-runs the whole DAG through the reference engine so
//! typed errors stay bit-identical to an unpartitioned run. Completion,
//! busy-time, and trace merging are deterministic (components are processed
//! and flushed in first-appearance order), so results are bit-identical
//! across run-thread counts.
//!
//! All per-run working memory — route tables, partition state, coalescer
//! curves/events, outcome buffers — lives in pools on the `PacketSim` and is
//! reused across runs; after a warmup run, the steady-state path allocates
//! nothing (asserted by the counting-allocator test in
//! `crates/sim/tests/zero_alloc.rs`). Callers that run in a tight loop can
//! hand finished outcomes back via [`PacketSim::recycle`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use meshcoll_topo::{LinkId, Mesh, RouteCache};

use crate::coalesce::{self, Attempt, Coalesce, WorkScratch};
use crate::message::validate_one;
use crate::online::Drain;
use crate::trace::{MemorySink, NullSink, TraceEvent, TraceSink};
use crate::{LinkStats, Message, MsgId, NetworkSim, NocConfig, NocError, SimOutcome};

/// Smallest DAG worth parallelizing across intra-run worker threads:
/// below this, a run completes in well under a millisecond and scoped
/// workers cost more than they save.
const PAR_MIN_MESSAGES: usize = 8192;

/// Engine-selection policy for [`PacketSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Try the packet-train coalescing fast path and fall back to the exact
    /// per-packet engine when trains interleave on a link (or when transient
    /// link flaps are configured). This is the default; its results match
    /// the per-packet engine to within floating-point reassociation.
    #[default]
    Auto,
    /// Always run the exact per-packet reference engine.
    PerPacket,
}

/// The event-driven packet-granularity simulator. See the module docs.
#[derive(Debug, Clone)]
pub struct PacketSim {
    pub(crate) cfg: NocConfig,
    pub(crate) routes: Arc<RouteCache>,
    pub(crate) mode: SimMode,
    /// Worker threads per run (`0` = auto-detect); see `with_run_threads`.
    run_threads: usize,
    /// Reusable per-run buffers, shared by clones of this simulator.
    pools: Arc<ScratchPools>,
}

/// Per-run preparation shared by both engines: deduplicated cached routes
/// and the flags for messages whose route crosses a permanently dead link.
///
/// Routes are stored once per distinct `(src, dst)` pair in `unique`, with
/// `route_of[i]` mapping message `i` to its entry — large schedules repeat
/// the same few hundred pairs tens of thousands of times, so this keeps
/// per-run route storage O(pairs), not O(messages).
#[derive(Debug, Default)]
pub(crate) struct RunSetup {
    pub(crate) unique: Vec<Arc<[LinkId]>>,
    pub(crate) route_of: Vec<u32>,
    pub(crate) blocked: Vec<bool>,
}

impl RunSetup {
    /// Message `i`'s route.
    #[inline]
    pub(crate) fn route(&self, i: usize) -> &[LinkId] {
        &self.unique[self.route_of[i] as usize]
    }
}

/// Union-find partition of one run's DAG in CSR form: `comp_members`
/// concatenates the components' member lists (global message ids, ascending
/// within a component), `comp_off` delimits them, and `g2l[i]` is message
/// `i`'s dense local index inside its component. Components are numbered in
/// first-appearance (= lowest-member) order, which fixes the deterministic
/// merge order regardless of which worker thread simulates which component.
#[derive(Debug, Default)]
struct PartitionScratch {
    parent: Vec<u32>,
    link_owner: Vec<u32>,
    route_owner: Vec<u32>,
    root_comp: Vec<u32>,
    cid: Vec<u32>,
    comp_off: Vec<u32>,
    cursor: Vec<u32>,
    comp_members: Vec<u32>,
    g2l: Vec<u32>,
}

impl PartitionScratch {
    fn ncomps(&self) -> usize {
        self.comp_off.len().saturating_sub(1)
    }

    fn members(&self, c: usize) -> &[u32] {
        &self.comp_members[self.comp_off[c] as usize..self.comp_off[c + 1] as usize]
    }

    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.parent.capacity()
            + self.link_owner.capacity()
            + self.route_owner.capacity()
            + self.root_comp.capacity()
            + self.cid.capacity()
            + self.comp_off.capacity()
            + self.cursor.capacity()
            + self.comp_members.capacity()
            + self.g2l.capacity())
            * size_of::<u32>()
    }
}

/// Whole-run scratch: the prepared setup, the dense route memo behind it,
/// per-link bandwidths, and the partition state.
#[derive(Debug, Default)]
struct RunScratch {
    setup: RunSetup,
    /// Dense `(src, dst) → unique route` memo (`u32::MAX` = unset), rebuilt
    /// each run (the mesh may differ between runs of one simulator). Used
    /// only up to 256 nodes — beyond that the dense table is O(nodes²) and
    /// the hashed `pair_memo` takes over, sized by *touched* pairs.
    memo: Vec<u32>,
    /// Hashed `(src, dst) → unique route` memo for >256-node fabrics.
    /// Cleared (capacity kept) per run, so the steady state allocates
    /// nothing once warmed up.
    pair_memo: std::collections::HashMap<u64, u32>,
    /// Blocked flag per unique route, computed once and fanned out.
    unique_blocked: Vec<bool>,
    /// Per-link bandwidth cache for the coalescer.
    bw: Vec<f64>,
    /// Identity index map (`0..n`) for the whole-DAG fast-path attempt,
    /// which runs before any partitioning and so serves as both the member
    /// list and the global→local map.
    ident: Vec<u32>,
    parts: PartitionScratch,
}

impl RunScratch {
    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.setup.unique.capacity() * size_of::<Arc<[LinkId]>>()
            + self.setup.route_of.capacity() * size_of::<u32>()
            + self.setup.blocked.capacity()
            + self.memo.capacity() * size_of::<u32>()
            + self.pair_memo.capacity() * (size_of::<u64>() + size_of::<u32>() + 1)
            + self.unique_blocked.capacity()
            + self.bw.capacity() * size_of::<f64>()
            + self.ident.capacity() * size_of::<u32>()
            + self.parts.retained_bytes()
    }
}

/// Per-worker scratch: the coalescer's working memory plus the buffers a
/// worker thread needs to simulate components independently of its peers.
#[derive(Debug, Default)]
struct WorkerScratch {
    co: WorkScratch,
    /// Global-length id-remap scratch for the per-component fallback.
    new_id: Vec<u32>,
    /// Worker-private global-sized outcome buffers (parallel path only; the
    /// serial path writes the shared outcome buffers directly).
    completion: Vec<f64>,
    busy: Vec<f64>,
    /// Component indices this worker simulated, for the deterministic merge.
    mine: Vec<u32>,
}

impl WorkerScratch {
    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.co.retained_bytes()
            + (self.new_id.capacity() + self.mine.capacity()) * size_of::<u32>()
            + (self.completion.capacity() + self.busy.capacity()) * size_of::<f64>()
    }
}

/// Buffered per-component trace events, tagged with the component index so
/// the parallel merge can flush them in deterministic component order.
type Traces = Vec<(usize, Vec<TraceEvent>)>;

/// What every component of one partitioned run shares: the run's inputs,
/// its partition, and the per-link reciprocal bandwidths.
#[derive(Clone, Copy)]
struct Comps<'a> {
    mesh: &'a Mesh,
    messages: &'a [Message],
    setup: &'a RunSetup,
    parts: &'a PartitionScratch,
    bw: &'a [f64],
}

/// Buffer pools persisting across runs (and shared by clones) so the
/// steady-state simulate path allocates nothing after warmup.
#[derive(Debug, Default)]
struct ScratchPools {
    run: Mutex<Vec<RunScratch>>,
    work: Mutex<Vec<WorkerScratch>>,
    /// Recycled `(completion, busy)` outcome buffers (see `recycle`).
    outcome: Mutex<Vec<(Vec<f64>, Vec<f64>)>>,
}

impl ScratchPools {
    fn take_run(&self) -> RunScratch {
        self.run.lock().expect("run pool").pop().unwrap_or_default()
    }

    fn put_run(&self, rs: RunScratch) {
        self.run.lock().expect("run pool").push(rs);
    }

    fn take_work(&self) -> WorkerScratch {
        self.work
            .lock()
            .expect("work pool")
            .pop()
            .unwrap_or_default()
    }

    fn put_work(&self, ws: WorkerScratch) {
        self.work.lock().expect("work pool").push(ws);
    }

    fn take_outcome(&self) -> (Vec<f64>, Vec<f64>) {
        self.outcome
            .lock()
            .expect("outcome pool")
            .pop()
            .unwrap_or_default()
    }

    fn put_outcome(&self, bufs: (Vec<f64>, Vec<f64>)) {
        self.outcome.lock().expect("outcome pool").push(bufs);
    }
}

impl PacketSim {
    /// Creates a simulator with the given configuration and a fresh private
    /// route cache.
    pub fn new(cfg: NocConfig) -> Self {
        PacketSim {
            cfg,
            routes: Arc::new(RouteCache::new()),
            mode: SimMode::Auto,
            run_threads: 1,
            pools: Arc::new(ScratchPools::default()),
        }
    }

    /// Shares an existing route cache, e.g. across engines or sweep threads.
    #[must_use]
    pub fn with_route_cache(mut self, routes: Arc<RouteCache>) -> Self {
        self.routes = routes;
        self
    }

    /// Selects the engine policy (see [`SimMode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets how many scoped worker threads one `simulate` call may use to
    /// run independent DAG components concurrently. `0` auto-detects the
    /// available parallelism; the default is `1` (fully on the calling
    /// thread, no spawns). Results are bit-identical for every setting —
    /// components are merged in a deterministic order — so this is purely a
    /// wall-clock knob. It composes with sweep-level fan-out: keep
    /// `sweep_jobs × run_threads` within the machine's core budget.
    #[must_use]
    pub fn with_run_threads(mut self, threads: usize) -> Self {
        self.run_threads = threads;
        self
    }

    /// The configured per-run thread count (`0` = auto-detect).
    pub fn run_threads(&self) -> usize {
        self.run_threads
    }

    fn resolved_run_threads(&self) -> usize {
        if self.run_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.run_threads
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The route cache in use.
    pub fn route_cache(&self) -> &Arc<RouteCache> {
        &self.routes
    }

    /// The engine policy in use.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Returns a finished outcome's buffers to the simulator's pool, so the
    /// next `simulate` call can reuse them instead of allocating. Optional —
    /// dropping an outcome is always correct — but a tight
    /// simulate/inspect/recycle loop stays allocation-free after warmup.
    pub fn recycle(&self, outcome: SimOutcome) {
        let (completion, stats) = outcome.into_parts();
        self.pools.put_outcome((completion, stats.into_busy()));
    }

    /// Total bytes currently retained by the reusable run/worker/outcome
    /// pools (capacity high-water marks). Used by the scalability smoke test
    /// to check that per-run memory stays O(messages).
    pub fn retained_scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        let run: usize = self
            .pools
            .run
            .lock()
            .expect("run pool")
            .iter()
            .map(RunScratch::retained_bytes)
            .sum();
        let work: usize = self
            .pools
            .work
            .lock()
            .expect("work pool")
            .iter()
            .map(WorkerScratch::retained_bytes)
            .sum();
        let outcome: usize = self
            .pools
            .outcome
            .lock()
            .expect("outcome pool")
            .iter()
            .map(|(c, b)| (c.capacity() + b.capacity()) * size_of::<f64>())
            .sum();
        run + work + outcome
    }

    /// Simulates the message DAG to completion.
    ///
    /// Unlike [`NetworkSim::run`] this takes `&self`, so one simulator can
    /// serve many runs — including concurrently from several threads (the
    /// route cache and scratch pools are internally synchronized).
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] when a message references an out-of-range node,
    /// a missing or cyclic dependency, or a zero-byte payload, and when
    /// messages can never deliver because their route crosses a dead link.
    pub fn simulate(&self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.simulate_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::simulate`], but emits the run's [`TraceEvent`]
    /// stream into `sink`. With the default [`NullSink`] this monomorphizes
    /// to the untraced hot path. Because the fast path may decline mid-run,
    /// an enabled sink only receives events of the engine that actually
    /// completed each component: a declined fast-path attempt's partial
    /// trace is discarded, never replayed into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn simulate_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        // A run interrupted by a timed fault has undeliverable messages,
        // which this completion-only entry point reports as a
        // (first-blocked-enriched) stall; `simulate_online` drains instead.
        let report = self.simulate_online(mesh, messages, sink)?;
        match report.interruption {
            None => Ok(report.outcome),
            Some(snap) => Err(snap.into_stall_error()),
        }
    }

    /// Prepares the run into pooled scratch (see `prepare_into`) and hands
    /// the setup to `run`.
    pub(crate) fn with_setup<R>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        run: impl FnOnce(&RunSetup) -> Result<R, NocError>,
    ) -> Result<R, NocError> {
        let mut rs = self.pools.take_run();
        let result = self
            .prepare_into(mesh, messages, &mut rs)
            .and_then(|()| run(&rs.setup));
        self.pools.put_run(rs);
        result
    }

    /// The simulation body: partitioned fast path with per-component
    /// fallback under [`SimMode::Auto`], per-packet reference otherwise.
    /// With a [`Drain`] the run executes against its per-link death times
    /// and records what it delivered and lost there; a fast-path result
    /// counts only when it finishes by the earliest death on its routes.
    pub(crate) fn simulate_prepared<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        setup: &RunSetup,
        mut drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        if self.mode == SimMode::Auto && self.cfg.faults.flaps().is_empty() {
            let mut rs = self.pools.take_run();
            let out =
                self.run_components(mesh, messages, setup, &mut rs, drain.as_deref_mut(), sink);
            self.pools.put_run(rs);
            if let Some(out) = out {
                return Ok(out);
            }
        }
        // An erroring component aborts the partitioned attempt and the whole
        // DAG re-runs through the reference engine, which arbitrates FIFO
        // order exactly and keeps error bookkeeping bit-identical; a declined
        // single-component DAG lands here directly.
        self.run_per_packet(mesh, messages, setup, drain, sink)
    }

    /// Partition-first execution: splits the DAG into link- and
    /// dependency-disjoint components and simulates each through the fast
    /// path (contended components drop to the per-packet engine alone).
    /// Components run serially on the calling thread, or across scoped
    /// worker threads under `with_run_threads`; either way completions,
    /// busy time, and traces are merged in component order, so the result
    /// is bit-identical for every thread count.
    ///
    /// Returns `None` when the whole DAG must run through the reference
    /// engine instead: when any component *errors* (so typed errors and
    /// their bookkeeping stay bit-identical to an unpartitioned run), and
    /// when the whole-DAG fast-path attempt declined a DAG that partitions
    /// into a single component (re-attempting it would decline again).
    ///
    /// With a `drain`, components run serially, and a fast-path result is
    /// accepted only when its makespan is at most the earliest death on
    /// its routes: every packet starts before it delivers, so no start can
    /// then land in a dead window, and the static result is exact. A
    /// rejected component runs the per-packet loop with the death times.
    fn run_components<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        setup: &RunSetup,
        rs: &mut RunScratch,
        mut drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> Option<SimOutcome> {
        let n = messages.len();
        if let Some(d) = drain.as_deref_mut() {
            d.reset(n);
        }
        let link_space = mesh.link_id_space();
        // Reciprocal bandwidth per link: the coalescing engine multiplies
        // instead of dividing on its per-event path (tens of cycles saved
        // per event; any sub-EPS reordering this could cause falls into the
        // fallback tiers, so equivalence is unaffected).
        rs.bw.clear();
        rs.bw
            .extend((0..link_space).map(|i| 1.0 / self.cfg.bandwidth_of(LinkId(i))));
        // Below ~8k messages a run completes in well under a millisecond;
        // spawning scoped workers (and zeroing their global-sized private
        // outcome buffers) costs more than it saves, so small DAGs always
        // take the sequential path. The merge is identical either way, so
        // this is invisible in the results — only in the wall-clock.
        let want_threads = if n < PAR_MIN_MESSAGES || drain.is_some() {
            1
        } else {
            self.resolved_run_threads()
        };
        let (mut completion, busy) = self.pools.take_outcome();
        completion.clear();
        completion.resize(n, f64::NAN);
        let mut stats = LinkStats::recycled(mesh, &self.cfg.faults, busy);
        // Whole-DAG-first: with one run thread and no trace sink, try the
        // fast path on the entire DAG before paying for the union-find
        // partition — the congested schedules collapse to a single component
        // anyway, so the partition would buy nothing. A `Done` here is
        // bit-identical to the partitioned run: components share no links,
        // and the only cross-component interaction, EPS-window taint, can
        // force a `Contended` decline but never changes `Done` arithmetic
        // (a taint-denied exact tie declines before committing). On decline
        // the partial busy time is zeroed and the partitioned path below
        // re-runs from scratch, isolating the contention to its component.
        let whole_first = want_threads <= 1 && !T::ENABLED;
        if whole_first {
            // The identity map only ever grows — top it up, don't rebuild.
            let have = rs.ident.len();
            if have < n {
                rs.ident.extend(have as u32..n as u32);
            }
            let mut w = self.pools.take_work();
            let attempt = coalesce::run_subset(
                &self.cfg,
                mesh,
                messages,
                setup,
                &rs.ident[..n],
                &rs.ident,
                &rs.bw,
                &mut w.co,
                &mut completion,
                stats.busy_mut(),
                sink,
            );
            self.pools.put_work(w);
            // The whole makespan bounds every component's, and the earliest
            // death on any route bounds every component's earliest death.
            let in_time = |completion: &[f64]| {
                drain.as_deref().is_none_or(|d| {
                    completion.iter().copied().fold(0.0, f64::max)
                        <= d.earliest_death(setup.unique.iter().map(|r| &**r))
                })
            };
            match attempt {
                Ok(Attempt::Done) if in_time(&completion) => {
                    return Some(SimOutcome::new(completion, stats));
                }
                Err(_) if drain.is_none() => {
                    self.pools.put_outcome((completion, stats.into_busy()));
                    return None;
                }
                // Declined, late, or an error a component may drain past.
                _ => {
                    for b in stats.busy_mut() {
                        *b = 0.0;
                    }
                }
            }
        }
        partition_into(mesh, messages, setup, &mut rs.parts);
        if whole_first && rs.parts.ncomps() == 1 {
            // The single component is the DAG the fast path just declined.
            self.pools.put_outcome((completion, stats.into_busy()));
            return None;
        }
        let cx = Comps {
            mesh,
            messages,
            setup,
            parts: &rs.parts,
            bw: &rs.bw,
        };
        let threads = want_threads.min(rs.parts.ncomps()).max(1);
        let ok = if threads <= 1 {
            self.run_comps_serial(cx, &mut completion, &mut stats, drain, sink)
        } else {
            self.run_comps_parallel(cx, threads, &mut completion, &mut stats, sink)
        };
        if ok {
            Some(SimOutcome::new(completion, stats))
        } else {
            self.pools.put_outcome((completion, stats.into_busy()));
            None
        }
    }

    /// Runs every component on the calling thread, in component order,
    /// writing the shared outcome buffers directly (the zero-alloc
    /// steady-state path). Like the parallel path, a traced run buffers
    /// every component's events and flushes them only once all components
    /// succeeded, so an erroring component leaves `sink` untouched.
    fn run_comps_serial<T: TraceSink>(
        &self,
        cx: Comps,
        completion: &mut [f64],
        stats: &mut LinkStats,
        mut drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> bool {
        let mut w = self.pools.take_work();
        let mut buf = MemorySink::new();
        let WorkerScratch { co, new_id, .. } = &mut w;
        let ok = (0..cx.parts.ncomps()).all(|c| {
            let (busy, drain) = (stats.busy_mut(), drain.as_deref_mut());
            if T::ENABLED {
                self.run_one_comp(cx, c, co, new_id, completion, busy, drain, &mut buf)
            } else {
                self.run_one_comp(cx, c, co, new_id, completion, busy, drain, sink)
            }
        });
        self.pools.put_work(w);
        if ok {
            for ev in buf.events() {
                sink.record(*ev);
            }
        }
        ok
    }

    /// Fans the components out over `threads` scoped workers. Workers claim
    /// components from a shared counter and record results into private
    /// buffers; the merge afterwards is order-independent for completions
    /// and busy time (components are disjoint, so each slot is written by
    /// exactly one worker and every other contribution is an exact `+0.0`),
    /// and traces are sorted by component index before flushing — making
    /// the outcome bit-identical to the serial path.
    fn run_comps_parallel<T: TraceSink>(
        &self,
        cx: Comps,
        threads: usize,
        completion: &mut [f64],
        stats: &mut LinkStats,
        sink: &mut T,
    ) -> bool {
        let ncomps = cx.parts.ncomps();
        let n = cx.messages.len();
        let link_space = cx.mesh.link_id_space();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let finished: Mutex<Vec<(WorkerScratch, Traces)>> = Mutex::new(Vec::with_capacity(threads));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut w = self.pools.take_work();
                    w.completion.clear();
                    w.completion.resize(n, f64::NAN);
                    w.busy.clear();
                    w.busy.resize(link_space, 0.0);
                    w.mine.clear();
                    let mut traces: Traces = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= ncomps {
                            break;
                        }
                        w.mine.push(c as u32);
                        let WorkerScratch {
                            co,
                            new_id,
                            completion: done,
                            busy,
                            ..
                        } = &mut w;
                        let mut buf = MemorySink::new();
                        let ok = if T::ENABLED {
                            self.run_one_comp(cx, c, co, new_id, done, busy, None, &mut buf)
                        } else {
                            self.run_one_comp(cx, c, co, new_id, done, busy, None, &mut NullSink)
                        };
                        if !ok {
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                        if T::ENABLED {
                            traces.push((c, buf.events().to_vec()));
                        }
                    }
                    finished.lock().expect("worker results").push((w, traces));
                });
            }
        });
        let mut finished = finished.into_inner().expect("worker results");
        let ok = !failed.load(Ordering::Relaxed);
        if ok {
            let busy = stats.busy_mut();
            for (w, _) in &finished {
                for &c in &w.mine {
                    for &g in cx.parts.members(c as usize) {
                        completion[g as usize] = w.completion[g as usize];
                    }
                }
                for (a, b) in busy.iter_mut().zip(&w.busy) {
                    *a += b;
                }
            }
            if T::ENABLED {
                let mut all: Traces = Vec::new();
                for (_, t) in &mut finished {
                    all.append(t);
                }
                all.sort_by_key(|e| e.0);
                for (_, evs) in all {
                    for ev in evs {
                        sink.record(ev);
                    }
                }
            }
        }
        for (w, _) in finished {
            self.pools.put_work(w);
        }
        ok
    }

    /// Simulates component `c`: fast path first, per-packet fallback when
    /// the component's own links are contended. Returns `false` on any
    /// error, which aborts the partitioned attempt (the caller re-runs the
    /// whole DAG through the reference engine). Trace events reach `sink`
    /// only from the engine that completed the component, with global ids.
    ///
    /// With a `drain`, a fast-path result counts only when it finishes by
    /// the earliest death on the component's routes; otherwise (or when the
    /// attempt errs, which the per-packet loop may drain past) the
    /// component runs the per-packet loop with the death times. A component
    /// no death can reach keeps full static semantics.
    #[allow(clippy::too_many_arguments)]
    fn run_one_comp<T: TraceSink>(
        &self,
        cx: Comps,
        c: usize,
        co: &mut WorkScratch,
        new_id: &mut Vec<u32>,
        completion: &mut [f64],
        busy: &mut [f64],
        mut drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> bool {
        let Comps {
            mesh,
            messages,
            setup,
            parts,
            bw,
        } = cx;
        let members = parts.members(c);
        let routes = || members.iter().map(|&g| setup.route(g as usize));
        let death = drain
            .as_deref()
            .map_or(f64::INFINITY, |d| d.earliest_death(routes()));
        let reachable = death < f64::INFINITY;
        // Buffer a traced attempt so a mid-run decline leaves no partial
        // trace in the caller's sink.
        let mut buf = MemorySink::new();
        let g2l = &parts.g2l;
        let attempt = if T::ENABLED {
            coalesce::run_subset(
                &self.cfg, mesh, messages, setup, members, g2l, bw, co, completion, busy, &mut buf,
            )
        } else {
            coalesce::run_subset(
                &self.cfg, mesh, messages, setup, members, g2l, bw, co, completion, busy, sink,
            )
        };
        let fast = match attempt {
            Ok(Attempt::Done) => {
                let makespan = members.iter().map(|&g| completion[g as usize]);
                !reachable || makespan.fold(0.0, f64::max) <= death
            }
            Ok(Attempt::Contended) => false,
            Err(_) if reachable => false,
            Err(_) => return false,
        };
        if fast {
            for ev in buf.events() {
                sink.record(*ev);
            }
        } else {
            // Only a component a death can reach runs the per-packet loop
            // with the death times, and so drains itself.
            let d = drain.as_deref_mut().filter(|_| reachable);
            let ok = self.run_comp_fallback(cx, members, new_id, completion, busy, d, sink);
            if !ok || reachable {
                return ok;
            }
        }
        if let Some(d) = drain {
            d.absorb_clean(&self.cfg, messages, members, routes(), completion);
        }
        true
    }

    /// Per-packet fallback for one contended component. The declined
    /// fast-path attempt may have charged partial busy time, so the
    /// component's links (its exclusive property — components are
    /// link-disjoint) are zeroed before the reference run's busy time is
    /// merged back in. With a `drain`, the component runs against its
    /// death times and its drain bookkeeping is merged back in too.
    #[allow(clippy::too_many_arguments)]
    fn run_comp_fallback<T: TraceSink>(
        &self,
        cx: Comps,
        members: &[u32],
        new_id: &mut Vec<u32>,
        completion: &mut [f64],
        busy: &mut [f64],
        drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> bool {
        for &g in members {
            for &l in cx.setup.route(g as usize) {
                busy[l.index()] = 0.0;
            }
        }
        new_id.clear();
        new_id.resize(cx.messages.len(), 0);
        let (msgs_c, setup_c) = component_problem(cx.messages, cx.setup, members, new_id);
        let mut part = drain.as_deref().map(|d| Drain::new(d.death));
        let mut buf = MemorySink::new();
        let out_c = if T::ENABLED {
            self.run_per_packet(cx.mesh, &msgs_c, &setup_c, part.as_mut(), &mut buf)
        } else {
            self.run_per_packet(cx.mesh, &msgs_c, &setup_c, part.as_mut(), sink)
        };
        let Ok(out_c) = out_c else {
            return false;
        };
        for ev in buf.events() {
            sink.record(remap_msg(*ev, members));
        }
        if let (Some(d), Some(part)) = (drain, &part) {
            d.absorb(part, members);
        }
        for (j, &g) in members.iter().enumerate() {
            completion[g as usize] = out_c.completions()[j];
        }
        for (a, b) in busy.iter_mut().zip(out_c.link_stats().busy_slice()) {
            *a += b;
        }
        self.recycle(out_c);
        true
    }

    /// Runs the exact per-packet reference engine unconditionally.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_reference(&self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.run_reference_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::run_reference`], but traced into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_reference_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        self.with_setup(mesh, messages, |setup| {
            self.run_per_packet(mesh, messages, setup, None, sink)
        })
    }

    /// Attempts only the coalescing fast path on the *whole* DAG (global
    /// taint semantics, no partitioning), returning `Ok(None)` when it
    /// declines (interleaved contention, or transient flaps configured).
    /// Used by the equivalence tests to assert which engine actually ran.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_coalesced(
        &self,
        mesh: &Mesh,
        messages: &[Message],
    ) -> Result<Option<SimOutcome>, NocError> {
        self.run_coalesced_traced(mesh, messages, &mut NullSink)
    }

    /// Like [`PacketSim::run_coalesced`], but traced into `sink`. On a
    /// declined attempt (`Ok(None)`), nothing reaches `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`PacketSim::simulate`].
    pub fn run_coalesced_traced<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        sink: &mut T,
    ) -> Result<Option<SimOutcome>, NocError> {
        self.with_setup(mesh, messages, |setup| {
            if !self.cfg.faults.flaps().is_empty() {
                return Ok(None);
            }
            let mut buf = MemorySink::new();
            let attempt = if T::ENABLED {
                coalesce::run(&self.cfg, mesh, messages, setup, &mut buf)?
            } else {
                coalesce::run(&self.cfg, mesh, messages, setup, sink)?
            };
            Ok(match attempt {
                Coalesce::Done(out) => {
                    for ev in buf.events() {
                        sink.record(*ev);
                    }
                    Some(out)
                }
                Coalesce::Contended => None,
            })
        })
    }

    /// Validates the DAG, resolves routes through the shared cache, and
    /// flags messages that can never deliver because their route crosses a
    /// permanently dead link (or dead chiplet) — rather than waiting forever
    /// the engines report those as stalled. Writes into reusable scratch:
    /// the dense per-pair memo keeps the shared cache's lock+hash cost off
    /// the per-message path, the blocked flag is computed once per unique
    /// route, and DAG validation is folded into the same pass (per message:
    /// dense-id/payload/endpoint/dep checks first, then node-range checks —
    /// one sweep instead of two).
    fn prepare_into(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        rs: &mut RunScratch,
    ) -> Result<(), NocError> {
        let RunScratch {
            setup,
            memo,
            pair_memo,
            unique_blocked,
            ..
        } = rs;
        crate::message::check_count(messages.len())?;
        setup.unique.clear();
        setup.route_of.clear();
        setup.route_of.reserve(messages.len());
        setup.blocked.clear();
        setup.blocked.reserve(messages.len());
        unique_blocked.clear();
        let nn = mesh.rows() * mesh.cols();
        let faults = &self.cfg.faults;
        if nn <= 256 {
            memo.clear();
            memo.resize(nn * nn, u32::MAX);
            for (i, m) in messages.iter().enumerate() {
                validate_one(i, m, messages.len())?;
                mesh.check_node(m.src)?;
                mesh.check_node(m.dst)?;
                let slot = m.src.index() * nn + m.dst.index();
                let mut u = memo[slot];
                if u == u32::MAX {
                    let r = self.routes.route(mesh, m.src, m.dst, self.cfg.routing)?;
                    u = setup.unique.len() as u32;
                    unique_blocked.push(r.iter().any(|&l| !faults.link_usable(mesh, l)));
                    setup.unique.push(r);
                    memo[slot] = u;
                }
                setup.route_of.push(u);
                setup.blocked.push(unique_blocked[u as usize]);
            }
        } else {
            // Past 256 nodes the dense memo would be O(nodes²) — 64 MB of
            // table for a 64×64 fabric — so pairs are deduplicated through a
            // hash map sized by the pairs the DAG actually touches. Route
            // storage stays O(pairs), exactly as on small meshes.
            pair_memo.clear();
            for (i, m) in messages.iter().enumerate() {
                validate_one(i, m, messages.len())?;
                mesh.check_node(m.src)?;
                mesh.check_node(m.dst)?;
                let key = m.src.index() as u64 * nn as u64 + m.dst.index() as u64;
                let u = match pair_memo.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let r = self.routes.route(mesh, m.src, m.dst, self.cfg.routing)?;
                        let u = setup.unique.len() as u32;
                        unique_blocked.push(r.iter().any(|&l| !faults.link_usable(mesh, l)));
                        setup.unique.push(r);
                        *e.insert(u)
                    }
                };
                setup.route_of.push(u);
                setup.blocked.push(unique_blocked[u as usize]);
            }
        }
        Ok(())
    }

    /// The exact per-packet event loop (reference engine).
    ///
    /// Semantically every packet is one event per hop, served in global
    /// `(time, seq)` order: it waits FIFO for its hop's link, holds the link
    /// for its serialization plus the per-packet router overhead, and
    /// reaches the next hop one header latency after winning the link.
    ///
    /// The loop never materializes those events. Within one message, packet
    /// arrivals at any hop are already sorted by `(time, seq)` — each packet
    /// holds the link before the next one can follow, and seqs grow in push
    /// order — so the heap holds only the *head* of each active
    /// `(message, hop)` stream, and popping stream heads reproduces the
    /// per-packet pop order exactly:
    ///
    /// * hop 0 (injection): a message's packets share one arrival time and a
    ///   contiguous seq block, so they always pop back to back; one heap
    ///   entry serves the whole batch;
    /// * hop 1: arrivals are replayed lazily from the hop-0 recurrence (the
    ///   batch ran uninterrupted, so its link state is reproducible) rather
    ///   than stored;
    /// * hops ≥ 2: arrivals buffer in one slab, linked per stream.
    ///
    /// Only a message's final packet is delivered through the heap: earlier
    /// deliveries have no effect, and seqs only need to stay monotone.
    ///
    /// With a [`Drain`], links die at its per-link death times: a packet
    /// whose start on a link would fall at or past the link's death is
    /// dropped there (taking no seq and no busy time), and a message that
    /// becomes ready after a route link died is withheld, never injected.
    /// A message's packets reach each link in index order and a link's
    /// availability only moves forward, so its drops on a link form a
    /// suffix of its packets: the batch, the hop-1 replay and the
    /// final-packet delivery stay exact. Static-fault stalls and watchdog
    /// trips stay typed errors; an interrupted run skips the
    /// dependency-cycle check (its undelivered messages are the suffix).
    pub(crate) fn run_per_packet<T: TraceSink>(
        &self,
        mesh: &Mesh,
        messages: &[Message],
        setup: &RunSetup,
        mut drain: Option<&mut Drain>,
        sink: &mut T,
    ) -> Result<SimOutcome, NocError> {
        let n = messages.len();
        if let Some(d) = drain.as_deref_mut() {
            d.reset(n);
        }
        let blocked = &setup.blocked;
        let cfg = &self.cfg;
        let faults = &cfg.faults;
        let hop_lat = cfg.per_flit_latency_ns;
        let mut links = LinkState::new(cfg, mesh, setup);
        let (mut completion, busy) = self.pools.take_outcome();
        completion.clear();
        completion.resize(n, f64::NAN);
        let mut stats = LinkStats::recycled(mesh, faults, busy);

        // Dependency bookkeeping: dependents in CSR form, each list in
        // ascending id order (the order dependents are injected in).
        let mut pending_deps: Vec<u32> = Vec::with_capacity(n);
        let mut dep_off = vec![0u32; n + 1];
        for m in messages {
            pending_deps.push(m.deps.len() as u32);
            for d in &m.deps {
                dep_off[d.index() + 1] += 1;
            }
        }
        for i in 0..n {
            dep_off[i + 1] += dep_off[i];
        }
        let mut dependents = vec![0u32; dep_off[n] as usize];
        for (i, m) in messages.iter().enumerate() {
            for d in &m.deps {
                let at = &mut dep_off[d.index()];
                dependents[*at as usize] = i as u32;
                *at += 1;
            }
        }
        // Filling advanced each start to the next list's start; shift back.
        dep_off.copy_within(0..n, 1);
        dep_off[0] = 0;
        // Earliest start implied by explicit ready times; dependency
        // completions fold in as they happen. Once a message is injected
        // this is its injection time, which the hop-1 replay reads back.
        let mut earliest: Vec<f64> = messages.iter().map(|m| m.ready_at_ns).collect();

        // Hop-1 replay state: the hop-0 start of the packet whose hop-1
        // arrival heads the stream. Hop-1 seqs are contiguous (the batch
        // took one per packet), so the next head's seq is the popped one's
        // plus one.
        let mut h1_start = vec![0.0f64; n];
        // One buffered stream per (message, hop ≥ 2) link hop.
        let mut stream_off = Vec::with_capacity(n + 1);
        stream_off.push(0u32);
        for i in 0..n {
            let extra = setup.route(i).len().saturating_sub(2) as u32;
            stream_off.push(stream_off[i] + extra);
        }
        let mut streams = vec![Stream::IDLE; stream_off[n] as usize];
        let mut slab = Slab::EMPTY;

        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut injected = 0usize;
        let mut stalled = 0usize;
        let mut delivered = 0usize;
        let mut last_progress: f64 = 0.0;
        // Watchdog budget: the loop does one unit of work per packet-hop
        // (served or dropped) plus one per delivered message, so exceeding
        // this count means it is no longer making forward progress
        // (defensive; cannot trip on well-formed input).
        let work_budget: u64 = messages
            .iter()
            .enumerate()
            .map(|(i, m)| cfg.packets_for(m.bytes) * setup.route(i).len() as u64 + 1)
            .sum::<u64>()
            .saturating_add(cfg.stall_budget_slack);
        let mut work: u64 = 0;
        let mut tick = |at: f64, delivered: usize, last_progress: f64| {
            work += 1;
            if work > work_budget {
                // Watchdog trip: no single culprit message/link to name.
                return Err(NocError::Stalled {
                    pending_msgs: n - delivered,
                    last_progress_ns: last_progress as u64,
                    first_blocked_msg: None,
                    first_blocked_link: None,
                    stalled_at_ns: at as u64,
                });
            }
            Ok(())
        };

        let inject = |heap: &mut BinaryHeap<Reverse<Event>>,
                      seq: &mut u64,
                      sink: &mut T,
                      id: usize,
                      at: f64| {
            let count = cfg.packets_for(messages[id].bytes);
            if T::ENABLED {
                sink.record(TraceEvent::Inject {
                    msg: messages[id].id,
                    src: messages[id].src,
                    dst: messages[id].dst,
                    bytes: messages[id].bytes,
                    packets: count,
                    at_ns: at,
                });
            }
            // One entry stands for the whole seq block `seq+1 ..= seq+count`.
            push(heap, at, *seq + 1, id, 0, 0);
            *seq += count;
        };

        // A message becoming ready after a route link died belongs to the
        // un-executed suffix: it is withheld rather than injected to die
        // downstream.
        let withheld = |drain: &mut Option<&mut Drain>, i: usize, at: f64| {
            drain
                .as_deref_mut()
                .is_some_and(|d| d.withholds(setup.route(i), at))
        };
        let death_of = |drain: &Option<&mut Drain>, link: LinkId| {
            drain
                .as_deref()
                .map_or(f64::INFINITY, |d| d.death[link.index()])
        };
        for (i, m) in messages.iter().enumerate() {
            if pending_deps[i] == 0 {
                if blocked[i] {
                    stalled += 1;
                } else if !withheld(&mut drain, i, m.ready_at_ns) {
                    inject(&mut heap, &mut seq, sink, i, m.ready_at_ns);
                }
                injected += 1;
            }
        }

        while let Some(Reverse(ev)) = heap.pop() {
            let mi = ev.msg as usize;
            let at = ev.at.0;
            let hop = ev.hop as usize;
            let route = setup.route(mi);
            if hop == route.len() {
                // The final packet arrived: the message is delivered.
                tick(at, delivered, last_progress)?;
                completion[mi] = at;
                delivered += 1;
                last_progress = last_progress.max(at);
                if T::ENABLED {
                    sink.record(TraceEvent::Deliver {
                        msg: messages[mi].id,
                        bytes: messages[mi].bytes,
                        at_ns: at,
                    });
                }
                for &d in &dependents[dep_off[mi] as usize..dep_off[mi + 1] as usize] {
                    let di = d as usize;
                    earliest[di] = earliest[di].max(at);
                    pending_deps[di] -= 1;
                    if pending_deps[di] == 0 {
                        if blocked[di] {
                            stalled += 1;
                        } else if !withheld(&mut drain, di, earliest[di]) {
                            inject(&mut heap, &mut seq, sink, di, earliest[di]);
                        }
                        injected += 1;
                    }
                }
                continue;
            }
            let total = messages[mi].bytes;
            let count = cfg.packets_for(total);
            let last = count - 1;
            let bytes_of = |p: u64| {
                if p < last {
                    cfg.packet_bytes
                } else {
                    last_packet_bytes(cfg, total, count)
                }
            };
            let final_hop = hop + 1 == route.len();
            let dies = death_of(&drain, route[hop]);
            // One packet-hop: the packet contends for the link at this hop
            // (a transient flap defers it until the link's next up window),
            // then the link is held for serialization plus the per-packet
            // router overhead — unless the link died first (`start >=
            // dies`), which drops the packet where it stands.
            let mut hop_once = |p: u64, seq: &mut u64, sink: &mut T| {
                let link = route[hop];
                let bytes = bytes_of(p);
                let start = links.start(link, at);
                if start >= dies {
                    let at = at.max(dies);
                    if let Some(d) = drain.as_deref_mut() {
                        d.drop_packet(at, messages[mi].id, link, bytes);
                    }
                    if T::ENABLED {
                        sink.record(TraceEvent::PacketDrop {
                            msg: messages[mi].id,
                            packet: p,
                            hop: hop as u32,
                            link,
                            bytes,
                            at_ns: at,
                        });
                    }
                    return (start, 0.0);
                }
                let ser = links.serialization(link, bytes);
                links.hold(link, start, ser, stats.busy_mut());
                if T::ENABLED {
                    sink.record(TraceEvent::PacketHop {
                        msg: messages[mi].id,
                        packet: p,
                        hop: hop as u32,
                        link,
                        bytes,
                        arrive_ns: at,
                        start_ns: start,
                        busy_until_ns: links.free[link.index()],
                    });
                }
                *seq += 1;
                if let Some(d) = drain.as_deref_mut().filter(|_| final_hop) {
                    d.delivered_bytes[mi] += bytes;
                    d.end_ns = d.end_ns.max(start + ser + hop_lat);
                }
                (start, ser)
            };
            let won = |start: f64| start < dies;
            let (p, start, ser) = if hop == 0 {
                // Injection batch: every packet's first hop, back to back.
                // The packets that won the link form a prefix.
                let mut served = (0.0, 0.0);
                let mut won0 = 0;
                for p in 0..count {
                    tick(at, delivered, last_progress)?;
                    served = hop_once(p, &mut seq, sink);
                    if won(served.0) {
                        debug_assert_eq!(won0, p, "drops form a suffix");
                        won0 += 1;
                    }
                    if p == 0 {
                        h1_start[mi] = served.0;
                    }
                }
                if won0 == 0 {
                    continue;
                }
                // Past the prefix only `p` matters: a dropped tail has no
                // final-packet delivery, and the hop-1 head is packet 0.
                (won0 - 1, served.0, served.1)
            } else {
                tick(at, delivered, last_progress)?;
                let p = u64::from(ev.packet);
                let (start, ser) = hop_once(p, &mut seq, sink);
                // Arm this stream's next head (a dropped packet's stream
                // goes on: its successors arrive and drop in turn).
                if hop == 1 {
                    debug_assert_eq!((h1_start[mi] + hop_lat).to_bits(), at.to_bits());
                    if p < last {
                        // Replay the hop-0 recurrence for packet p+1 with the
                        // same f64 operations, in the same order, as the
                        // batch; a replayed start past the link's death is a
                        // packet the batch dropped, and so is every later one.
                        let link0 = route[0];
                        let ser0 = links.serialization(link0, bytes_of(p));
                        let free = h1_start[mi] + ser0 + cfg.per_packet_overhead_ns;
                        h1_start[mi] = links.available(link0, earliest[mi].max(free));
                        if h1_start[mi] < death_of(&drain, link0) {
                            push(&mut heap, h1_start[mi] + hop_lat, ev.seq + 1, mi, p + 1, 1);
                        }
                    }
                } else {
                    let s = stream_off[mi] as usize + hop - 2;
                    match streams[s].take(&mut slab) {
                        Some((next_at, next_seq)) => {
                            push(&mut heap, next_at, next_seq, mi, p + 1, hop);
                        }
                        None => streams[s].live = false,
                    }
                }
                if !won(start) {
                    continue;
                }
                (p, start, ser)
            };
            if !final_hop {
                // Cut-through: the header reaches the next router after one
                // per-flit latency; occupancies overlap.
                let next_at = start + hop_lat;
                if hop == 0 {
                    // Packet 0 heads the lazily replayed hop-1 stream.
                    let seq0 = seq - p;
                    push(&mut heap, h1_start[mi] + hop_lat, seq0, mi, 0, 1);
                } else {
                    let s = stream_off[mi] as usize + hop - 1;
                    if streams[s].live {
                        streams[s].append(slab.alloc(next_at, seq), &mut slab);
                    } else {
                        streams[s].live = true;
                        push(&mut heap, next_at, seq, mi, p, hop + 1);
                    }
                }
            } else if p == last {
                // Final hop: the tail is delivered after full serialization
                // plus the hop latency. Drops form a suffix, so every
                // earlier packet delivered too.
                debug_assert!(drain
                    .as_deref()
                    .is_none_or(|d| d.delivered_bytes[mi] == total));
                push(&mut heap, start + ser + hop_lat, seq, mi, p, hop + 1);
            }
        }

        if stalled > 0 {
            // Some ready messages route over dead links; everything awaiting
            // them (transitively) is pending too. Name the first blocked
            // message (in id order) and the first dead link on its route so
            // a dead-route stall is distinguishable from a watchdog trip.
            let culprit = (0..n).find(|&i| blocked[i] && completion[i].is_nan());
            let culprit_link = culprit.and_then(|i| {
                setup
                    .route(i)
                    .iter()
                    .copied()
                    .find(|&l| !faults.link_usable(mesh, l))
            });
            return Err(NocError::Stalled {
                pending_msgs: n - delivered,
                last_progress_ns: last_progress as u64,
                first_blocked_msg: culprit.map(MsgId),
                first_blocked_link: culprit_link,
                stalled_at_ns: last_progress as u64,
            });
        }
        let mut interrupted = false;
        if let Some(d) = drain {
            // Every busy interval ends at its link's final `free` time.
            d.end_ns = links.free.iter().copied().fold(d.end_ns, f64::max);
            interrupted = d.interrupted;
        }
        if !interrupted && injected < n {
            return Err(NocError::DependencyCycle {
                stuck: n - injected,
            });
        }
        Ok(SimOutcome::new(completion, stats))
    }
}

/// Pushes one stream head onto the per-packet engine's heap.
#[inline]
fn push(
    heap: &mut BinaryHeap<Reverse<Event>>,
    at: f64,
    seq: u64,
    msg: usize,
    packet: u64,
    hop: usize,
) {
    heap.push(Reverse(Event {
        at: Time(at),
        seq,
        msg: msg as u32,
        packet: packet as u32,
        hop: hop as u32,
    }));
}

/// Per-link state of one per-packet run: when each link frees, plus the
/// bandwidth and full-packet serialization time of every link a route
/// uses, resolved once (a `bandwidth_of` lookup scans the overrides and
/// hashes the degradation map) with the same division, so the bits match.
struct LinkState<'a> {
    free: Vec<f64>,
    bandwidth: Vec<f64>,
    full_ser: Vec<f64>,
    packet_bytes: u64,
    overhead: f64,
    /// The fault model, only when transient flaps can defer a start.
    flaps: Option<&'a meshcoll_topo::FaultModel>,
}

impl<'a> LinkState<'a> {
    fn new(cfg: &'a NocConfig, mesh: &Mesh, setup: &RunSetup) -> Self {
        let space = mesh.link_id_space();
        let mut bandwidth = vec![f64::NAN; space];
        let mut full_ser = vec![f64::NAN; space];
        for route in &setup.unique {
            for &l in route.iter() {
                if bandwidth[l.index()].is_nan() {
                    bandwidth[l.index()] = cfg.bandwidth_of(l);
                    full_ser[l.index()] = cfg.serialization_on(l, cfg.packet_bytes);
                }
            }
        }
        LinkState {
            free: vec![0.0; space],
            bandwidth,
            full_ser,
            packet_bytes: cfg.packet_bytes,
            overhead: cfg.per_packet_overhead_ns,
            flaps: (!cfg.faults.flaps().is_empty()).then_some(&cfg.faults),
        }
    }

    /// `cfg.serialization_on(link, bytes)`, bit for bit.
    #[inline]
    fn serialization(&self, link: LinkId, bytes: u64) -> f64 {
        if bytes == self.packet_bytes {
            self.full_ser[link.index()]
        } else {
            bytes as f64 / self.bandwidth[link.index()]
        }
    }

    /// Earliest time `>= t` outside every flap window of `link`.
    #[inline]
    fn available(&self, link: LinkId, t: f64) -> f64 {
        match self.flaps {
            Some(faults) => faults.available_at(link, t),
            None => t,
        }
    }

    /// When a packet arriving at `at` on `link` starts, FIFO behind the
    /// link's previous occupant.
    #[inline]
    fn start(&self, link: LinkId, at: f64) -> f64 {
        self.available(link, at.max(self.free[link.index()]))
    }

    /// Holds `link` from `start` for `ser` plus the per-packet overhead,
    /// charging the busy time.
    #[inline]
    fn hold(&mut self, link: LinkId, start: f64, ser: f64, busy: &mut [f64]) {
        let li = link.index();
        self.free[li] = start + ser + self.overhead;
        busy[li] += ser + self.overhead;
    }
}

/// Slab index meaning "no node".
const NIL: u32 = u32::MAX;

/// One buffered packet arrival at a hop ≥ 2, linked to the next arrival of
/// the same stream (or the next free node).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: f64,
    seq: u64,
    next: u32,
}

/// Flat storage for every buffered arrival, with a free list: one
/// allocation for the whole run instead of one queue per stream.
#[derive(Debug)]
struct Slab {
    nodes: Vec<Arrival>,
    free: u32,
}

impl Slab {
    const EMPTY: Slab = Slab {
        nodes: Vec::new(),
        free: NIL,
    };

    fn alloc(&mut self, at: f64, seq: u64) -> u32 {
        let node = Arrival { at, seq, next: NIL };
        if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        }
    }
}

/// One `(message, hop ≥ 2)` stream: whether its head sits in the heap, and
/// the FIFO of arrivals buffered behind that head.
#[derive(Debug, Clone, Copy)]
struct Stream {
    live: bool,
    head: u32,
    tail: u32,
}

impl Stream {
    const IDLE: Stream = Stream {
        live: false,
        head: NIL,
        tail: NIL,
    };

    fn append(&mut self, node: u32, slab: &mut Slab) {
        if self.tail == NIL {
            self.head = node;
        } else {
            slab.nodes[self.tail as usize].next = node;
        }
        self.tail = node;
    }

    /// Unlinks the oldest buffered arrival, returning its `(at, seq)`.
    fn take(&mut self, slab: &mut Slab) -> Option<(f64, u64)> {
        if self.head == NIL {
            return None;
        }
        let i = self.head;
        let a = slab.nodes[i as usize];
        self.head = a.next;
        if self.head == NIL {
            self.tail = NIL;
        }
        slab.nodes[i as usize].next = slab.free;
        slab.free = i;
        Some((a.at, a.seq))
    }
}

/// Totally ordered f64 event key (all simulation times are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: Time,
    seq: u64,
    msg: u32,
    packet: u32,
    hop: u32,
}

impl NetworkSim for PacketSim {
    fn run(&mut self, mesh: &Mesh, messages: &[Message]) -> Result<SimOutcome, NocError> {
        self.simulate(mesh, messages)
    }
}

/// Builds the union-find partition into reusable scratch (see
/// [`PartitionScratch`]): connected components over dependency edges and
/// shared route links, path-halving find. Components are mutually
/// link-disjoint and dependency-closed, listed in first-appearance order
/// with members in id order, so each component run arbitrates same-time
/// events exactly like the global run restricted to it.
fn partition_into(mesh: &Mesh, messages: &[Message], setup: &RunSetup, ps: &mut PartitionScratch) {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    /// Unions `a` and `b`, returning whether two distinct sets merged.
    fn union(parent: &mut [u32], a: u32, b: u32) -> bool {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra as usize] = rb;
            return true;
        }
        false
    }
    let n = messages.len();
    let PartitionScratch {
        parent,
        link_owner,
        route_owner,
        root_comp,
        cid,
        comp_off,
        cursor,
        comp_members,
        g2l,
    } = ps;
    parent.clear();
    parent.extend(0..n as u32);
    link_owner.clear();
    link_owner.resize(mesh.link_id_space(), u32::MAX);
    route_owner.clear();
    route_owner.resize(setup.unique.len(), u32::MAX);
    // One fused sweep: dependency edges union directly; link sharing unions
    // through each *unique route's* first owner — messages repeating a
    // (src, dst) pair collapse to a single union, and a route's links are
    // walked exactly once across the whole run (the congested schedules
    // have ~10^5 messages over a few hundred distinct pairs). A live set
    // count lets the sweep stop the moment everything has merged: the
    // congested schedules collapse to a single component, whose labeling is
    // then written directly without the find/label pass.
    let mut nsets = n as u32;
    'sweep: for (i, m) in messages.iter().enumerate() {
        for d in &m.deps {
            if union(parent, i as u32, d.index() as u32) {
                nsets -= 1;
            }
        }
        let u = setup.route_of[i] as usize;
        let o = route_owner[u];
        if o == u32::MAX {
            route_owner[u] = i as u32;
            for &l in setup.route(i) {
                let lo = link_owner[l.index()];
                if lo == u32::MAX {
                    link_owner[l.index()] = i as u32;
                } else if union(parent, i as u32, lo) {
                    nsets -= 1;
                }
            }
        } else if union(parent, i as u32, o) {
            nsets -= 1;
        }
        if nsets == 1 {
            break 'sweep;
        }
    }
    if nsets == 1 {
        comp_off.clear();
        comp_off.extend([0, n as u32]);
        comp_members.clear();
        comp_members.extend(0..n as u32);
        g2l.clear();
        g2l.extend(0..n as u32);
        return;
    }
    root_comp.clear();
    root_comp.resize(n, u32::MAX);
    cid.clear();
    cid.resize(n, 0);
    let mut ncomps: u32 = 0;
    for i in 0..n as u32 {
        let r = find(parent, i) as usize;
        if root_comp[r] == u32::MAX {
            root_comp[r] = ncomps;
            ncomps += 1;
        }
        cid[i as usize] = root_comp[r];
    }
    comp_off.clear();
    comp_off.resize(ncomps as usize + 1, 0);
    for &c in cid.iter() {
        comp_off[c as usize + 1] += 1;
    }
    for c in 0..ncomps as usize {
        comp_off[c + 1] += comp_off[c];
    }
    cursor.clear();
    cursor.extend_from_slice(&comp_off[..ncomps as usize]);
    comp_members.clear();
    comp_members.resize(n, 0);
    g2l.clear();
    g2l.resize(n, 0);
    for i in 0..n {
        let c = cid[i] as usize;
        let slot = cursor[c];
        comp_members[slot as usize] = i as u32;
        g2l[i] = slot - comp_off[c];
        cursor[c] += 1;
    }
}

/// Builds the standalone sub-problem for one component of
/// [`partition_into`]: messages with dense remapped ids (recorded in
/// `new_id`, a scratch array of global length) and the matching
/// route/blocked setup.
fn component_problem(
    messages: &[Message],
    setup: &RunSetup,
    comp: &[u32],
    new_id: &mut [u32],
) -> (Vec<Message>, RunSetup) {
    for (j, &i) in comp.iter().enumerate() {
        new_id[i as usize] = j as u32;
    }
    let msgs_c: Vec<Message> = comp
        .iter()
        .map(|&i| {
            let m = &messages[i as usize];
            Message::new(MsgId(new_id[i as usize] as usize), m.src, m.dst, m.bytes)
                .with_deps(m.deps.iter().map(|d| MsgId(new_id[d.index()] as usize)))
                .with_ready_at(m.ready_at_ns)
        })
        .collect();
    let unique: Vec<Arc<[LinkId]>> = comp
        .iter()
        .map(|&i| Arc::clone(&setup.unique[setup.route_of[i as usize] as usize]))
        .collect();
    let route_of: Vec<u32> = (0..comp.len() as u32).collect();
    let blocked: Vec<bool> = comp.iter().map(|&i| setup.blocked[i as usize]).collect();
    (
        msgs_c,
        RunSetup {
            unique,
            route_of,
            blocked,
        },
    )
}

/// Rewrites a component-local trace event's message id back to the global
/// DAG's id (`comp[local] == global`); used when the per-component fallback
/// flushes its buffered trace to the caller's sink.
fn remap_msg(ev: TraceEvent, comp: &[u32]) -> TraceEvent {
    let orig = |m: MsgId| MsgId(comp[m.index()] as usize);
    let mut ev = ev;
    match &mut ev {
        TraceEvent::Inject { msg, .. }
        | TraceEvent::PacketHop { msg, .. }
        | TraceEvent::TrainHop { msg, .. }
        | TraceEvent::TrainSplit { msg, .. }
        | TraceEvent::PacketDrop { msg, .. }
        | TraceEvent::Deliver { msg, .. } => *msg = orig(*msg),
        TraceEvent::Reduce { .. }
        | TraceEvent::FaultArrival { .. }
        | TraceEvent::Drain { .. }
        | TraceEvent::Resume { .. } => {}
    }
    ev
}

/// Size of the final packet of a `total_bytes` message split into `count`
/// packets (the last packet carries the remainder).
pub(crate) fn last_packet_bytes(cfg: &NocConfig, total_bytes: u64, count: u64) -> u64 {
    let rem = total_bytes - (count - 1) * cfg.packet_bytes;
    if rem == 0 {
        cfg.packet_bytes
    } else {
        rem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgId;
    use meshcoll_topo::NodeId;

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    fn sim(mesh: &Mesh, msgs: &[Message]) -> SimOutcome {
        PacketSim::new(cfg()).run(mesh, msgs).unwrap()
    }

    #[test]
    fn single_hop_latency_matches_model() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let out = sim(&mesh, &msgs);
        let expect = cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn multi_hop_is_cut_through_not_store_and_forward() {
        let mesh = Mesh::new(1, 5).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(4), 8192)];
        let out = sim(&mesh, &msgs);
        let c = cfg();
        // 4 hops: 3 header latencies + final (ser + hop latency).
        let cut_through =
            3.0 * c.per_flit_latency_ns + c.serialization_ns(8192) + c.per_flit_latency_ns;
        let store_fwd = 4.0 * (c.serialization_ns(8192) + c.per_flit_latency_ns);
        assert!((out.makespan_ns() - cut_through).abs() < 1e-6);
        assert!(out.makespan_ns() < store_fwd / 2.0);
    }

    #[test]
    fn big_message_achieves_link_bandwidth() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 64 * 1024 * 1024;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let out = sim(&mesh, &msgs);
        let bw = out.bandwidth_gbps(bytes);
        // Sustained throughput is the 25 GB/s wire rate minus the per-packet
        // router overhead (21 ns per 8 KiB packet, ~6%).
        let c = cfg();
        let expect =
            c.packet_bytes as f64 / (c.serialization_ns(c.packet_bytes) + c.per_packet_overhead_ns);
        assert!(
            (bw - expect).abs() < 0.1 && bw < c.link_bandwidth,
            "bandwidth {bw} not near {expect} GB/s"
        );
    }

    #[test]
    fn contending_messages_serialize_on_shared_link() {
        let mesh = Mesh::new(1, 3).unwrap();
        // Both messages need link 1->2.
        let msgs = vec![
            Message::new(MsgId(0), NodeId(1), NodeId(2), 8192 * 10),
            Message::new(MsgId(1), NodeId(0), NodeId(2), 8192 * 10),
        ];
        let out = sim(&mesh, &msgs);
        let solo = sim(
            &mesh,
            &[Message::new(MsgId(0), NodeId(1), NodeId(2), 8192 * 10)],
        );
        // Shared-link makespan is roughly double the solo time.
        assert!(out.makespan_ns() > 1.8 * solo.makespan_ns());
    }

    #[test]
    fn disjoint_messages_run_in_parallel() {
        let mesh = Mesh::new(2, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20),
            Message::new(MsgId(1), NodeId(2), NodeId(3), 1 << 20),
        ];
        let out = sim(&mesh, &msgs);
        let solo = sim(
            &mesh,
            &[Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20)],
        );
        assert!((out.makespan_ns() - solo.makespan_ns()).abs() < 1.0);
    }

    #[test]
    fn dependencies_are_honored() {
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192).with_deps([MsgId(0)]),
            Message::new(MsgId(2), NodeId(2), NodeId(3), 8192).with_deps([MsgId(1)]),
        ];
        let out = sim(&mesh, &msgs);
        assert!(out.completion_ns(MsgId(0)).unwrap() < out.completion_ns(MsgId(1)).unwrap());
        assert!(out.completion_ns(MsgId(1)).unwrap() < out.completion_ns(MsgId(2)).unwrap());
        let step = cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - 3.0 * step).abs() < 1e-6);
    }

    #[test]
    fn ready_at_delays_injection() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192).with_ready_at(1000.0)];
        let out = sim(&mesh, &msgs);
        let expect = 1000.0 + cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!((out.makespan_ns() - expect).abs() < 1e-6);
    }

    #[test]
    fn cyclic_deps_are_an_error() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8).with_deps([MsgId(1)]),
            Message::new(MsgId(1), NodeId(1), NodeId(0), 8).with_deps([MsgId(0)]),
        ];
        let err = PacketSim::new(cfg()).run(&mesh, &msgs).unwrap_err();
        assert!(matches!(err, NocError::DependencyCycle { stuck: 2 }));
    }

    #[test]
    fn link_stats_account_busy_time() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 8192 * 4;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let out = sim(&mesh, &msgs);
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let expect = cfg().serialization_ns(bytes) + 4.0 * cfg().per_packet_overhead_ns;
        assert!((out.link_stats().busy_ns(link) - expect).abs() < 1e-6);
        assert_eq!(out.link_stats().used_links(), 1);
        assert_eq!(out.link_stats().used_link_percent(), 50.0);
    }

    #[test]
    fn degraded_link_slows_only_its_traffic() {
        let mesh = Mesh::new(1, 3).unwrap();
        let slow = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.link_overrides.push((slow, 5.0)); // 5 GB/s instead of 25
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 1 << 20),
        ];
        let out = PacketSim::new(c.clone()).run(&mesh, &msgs).unwrap();
        let slow_t = out.completion_ns(MsgId(0)).unwrap();
        let fast_t = out.completion_ns(MsgId(1)).unwrap();
        assert!(slow_t > 4.0 * fast_t, "slow {slow_t} vs fast {fast_t}");
        assert!((c.bandwidth_of(slow) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_are_ordered() {
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs: Vec<Message> = (0..6)
            .map(|i| Message::new(MsgId(i), NodeId(i % 3), NodeId(3), 8192))
            .collect();
        let out = sim(&mesh, &msgs);
        let stats = out.latency_stats(|_| 0.0);
        assert!(stats.p50_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.max_ns);
        assert!(stats.mean_ns > 0.0 && stats.mean_ns <= stats.max_ns);
    }

    #[test]
    fn packet_bytes_splits_remainder() {
        let c = cfg();
        assert_eq!(last_packet_bytes(&c, 8192, 1), 8192);
        assert_eq!(last_packet_bytes(&c, 8192 * 3, 3), 8192);
        assert_eq!(last_packet_bytes(&c, 10000, 2), 1808);
        assert_eq!(last_packet_bytes(&c, 100, 1), 100);
    }

    #[test]
    fn dead_link_stalls_instead_of_spinning() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(1), NodeId(2))
            .unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(0), NodeId(2), 8192),
        ];
        let dead = mesh.link_between(NodeId(1), NodeId(2)).unwrap();
        let err = PacketSim::new(c).run(&mesh, &msgs).unwrap_err();
        match err {
            NocError::Stalled {
                pending_msgs,
                last_progress_ns,
                first_blocked_msg,
                first_blocked_link,
                ..
            } => {
                // Message 0 delivers; message 1 is routed over the dead link.
                assert_eq!(pending_msgs, 1);
                assert!(last_progress_ns > 0, "message 0 should have delivered");
                assert_eq!(first_blocked_msg, Some(MsgId(1)));
                assert_eq!(first_blocked_link, Some(dead));
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn stall_counts_transitive_dependents_as_pending() {
        let mesh = Mesh::new(1, 3).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(0), NodeId(1))
            .unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192).with_deps([MsgId(0)]),
        ];
        let err = PacketSim::new(c).run(&mesh, &msgs).unwrap_err();
        assert!(
            matches!(
                err,
                NocError::Stalled {
                    pending_msgs: 2,
                    last_progress_ns: 0,
                    first_blocked_msg: Some(MsgId(0)),
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn watchdog_budget_needs_no_slack_on_congested_runs() {
        // The budget counts exactly the loop's work — one unit per
        // packet-hop plus one per delivered message — so a congested run
        // over multi-hop routes, remainder packets, dependencies and a flap
        // completes with zero slack, bit-identical to a roomy budget.
        let mesh = Mesh::new(1, 5).unwrap();
        let mut msgs: Vec<Message> = (0..4)
            .map(|i| Message::new(MsgId(i), NodeId(i), NodeId(4), 8192 * 6 + 100 * i as u64))
            .collect();
        msgs.push(
            Message::new(MsgId(4), NodeId(4), NodeId(0), 8192 * 3).with_deps([MsgId(0), MsgId(3)]),
        );
        let mut c = cfg();
        c.faults.add_flap(meshcoll_topo::LinkFlap {
            link: mesh.link_between(NodeId(3), NodeId(4)).unwrap(),
            down_ns: 500.0,
            up_ns: 2_000.0,
        });
        let roomy = PacketSim::new(c.clone())
            .run_reference(&mesh, &msgs)
            .unwrap();
        c.stall_budget_slack = 0;
        let tight = PacketSim::new(c).run_reference(&mesh, &msgs).unwrap();
        assert_eq!(tight.completions(), roomy.completions());
    }

    #[test]
    fn degraded_link_fraction_halves_throughput() {
        let mesh = Mesh::new(1, 2).unwrap();
        let bytes = 1 << 20;
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), bytes)];
        let healthy = sim(&mesh, &msgs).makespan_ns();
        let mut c = cfg();
        c.faults
            .degrade_link_between(&mesh, NodeId(0), NodeId(1), 0.5)
            .unwrap();
        let degraded = PacketSim::new(c).run(&mesh, &msgs).unwrap().makespan_ns();
        // Serialization dominates at 1 MiB, so half the bandwidth is close
        // to double the time (per-packet overhead keeps it under 2x).
        assert!(
            degraded > 1.8 * healthy && degraded < 2.0 * healthy,
            "healthy {healthy}, degraded {degraded}"
        );
    }

    #[test]
    fn link_flap_defers_packets_until_recovery() {
        let mesh = Mesh::new(1, 2).unwrap();
        let link = mesh.link_between(NodeId(0), NodeId(1)).unwrap();
        let mut c = cfg();
        c.faults.add_flap(meshcoll_topo::LinkFlap {
            link,
            down_ns: 0.0,
            up_ns: 5000.0,
        });
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 8192)];
        let out = PacketSim::new(c).run(&mesh, &msgs).unwrap();
        let expect = 5000.0 + cfg().serialization_ns(8192) + cfg().per_flit_latency_ns;
        assert!(
            (out.makespan_ns() - expect).abs() < 1e-6,
            "got {}",
            out.makespan_ns()
        );
    }

    #[test]
    fn fast_path_handles_uncongested_runs() {
        // A dependency chain of multi-packet trains on disjoint links has no
        // interleaved contention: the fast path must accept it and agree
        // with the reference engine.
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 7 + 100),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192 * 7 + 100).with_deps([MsgId(0)]),
            Message::new(MsgId(2), NodeId(2), NodeId(3), 8192 * 7 + 100).with_deps([MsgId(1)]),
        ];
        let sim = PacketSim::new(cfg());
        let fast = sim.run_coalesced(&mesh, &msgs).unwrap().expect("fast path");
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        for id in 0..3 {
            let (a, b) = (
                fast.completion_ns(MsgId(id)).unwrap(),
                exact.completion_ns(MsgId(id)).unwrap(),
            );
            assert!((a - b).abs() < 1e-6, "msg {id}: fast {a} vs exact {b}");
        }
    }

    #[test]
    fn fast_path_arbitrates_exact_injection_ties() {
        // Several sources inject onto shared links at the bit-identical
        // instant. Both engines then serve the trains back-to-back in
        // injection order, so the fast path accepts the tie and must match
        // the per-packet reference within the equivalence tolerance.
        let mesh = Mesh::new(1, 4).unwrap();
        let msgs: Vec<Message> = (0..6)
            .map(|i| Message::new(MsgId(i), NodeId(i % 3), NodeId(3), 8192 * 3))
            .collect();
        let sim = PacketSim::new(cfg());
        let fast = sim.run_coalesced(&mesh, &msgs).unwrap().expect("fast path");
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        for id in 0..6 {
            let (a, b) = (
                fast.completion_ns(MsgId(id)).unwrap(),
                exact.completion_ns(MsgId(id)).unwrap(),
            );
            assert!((a - b).abs() < 1e-6, "msg {id}: fast {a} vs exact {b}");
        }
    }

    #[test]
    fn fast_path_declines_near_tie_contention() {
        // Heads separated by less than the equivalence tolerance: the
        // engines may disagree on which goes first, so the fast path must
        // decline and Auto must match the per-packet reference exactly.
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 3),
            Message::new(MsgId(1), NodeId(0), NodeId(1), 8192 * 3).with_ready_at(5e-7),
        ];
        let sim = PacketSim::new(cfg());
        assert!(sim.run_coalesced(&mesh, &msgs).unwrap().is_none());
        let auto = sim.simulate(&mesh, &msgs).unwrap();
        let exact = sim.run_reference(&mesh, &msgs).unwrap();
        assert_eq!(auto.makespan_ns(), exact.makespan_ns());
    }

    #[test]
    fn per_packet_mode_forces_reference_engine() {
        let mesh = Mesh::new(1, 2).unwrap();
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 1 << 20)];
        let sim = PacketSim::new(cfg()).with_mode(SimMode::PerPacket);
        assert_eq!(sim.mode(), SimMode::PerPacket);
        let forced = sim.simulate(&mesh, &msgs).unwrap();
        let reference = sim.run_reference(&mesh, &msgs).unwrap();
        assert_eq!(forced.makespan_ns(), reference.makespan_ns());
    }

    #[test]
    fn route_cache_is_shared_and_populated() {
        let mesh = Mesh::new(2, 2).unwrap();
        let cache = std::sync::Arc::new(meshcoll_topo::RouteCache::new());
        let sim = PacketSim::new(cfg()).with_route_cache(cache.clone());
        let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(3), 8192)];
        sim.simulate(&mesh, &msgs).unwrap();
        assert_eq!(cache.len(), 1);
        sim.simulate(&mesh, &msgs).unwrap();
        assert!(cache.hits() >= 1);
        assert_eq!(
            std::sync::Arc::as_ptr(sim.route_cache()),
            std::sync::Arc::as_ptr(&cache)
        );
    }

    #[test]
    fn run_threads_knob_defaults_to_one_and_builds() {
        let sim = PacketSim::new(cfg());
        assert_eq!(sim.run_threads(), 1);
        let sim = sim.with_run_threads(8);
        assert_eq!(sim.run_threads(), 8);
        // 0 = auto-detect resolves to at least one thread.
        assert!(
            PacketSim::new(cfg())
                .with_run_threads(0)
                .resolved_run_threads()
                >= 1
        );
    }

    #[test]
    fn results_are_bit_identical_across_run_thread_counts() {
        // Four link-disjoint contention funnels (two messages racing for a
        // shared link each) exercise both the fast path and the per-packet
        // component fallback under every thread count.
        let mesh = Mesh::new(4, 3).unwrap();
        let mut msgs = Vec::new();
        for row in 0..4u16 {
            let base = row as usize * 3;
            let id = msgs.len();
            msgs.push(Message::new(
                MsgId(id),
                NodeId(base),
                NodeId(base + 2),
                8192 * 5,
            ));
            msgs.push(
                Message::new(MsgId(id + 1), NodeId(base + 1), NodeId(base + 2), 8192 * 5)
                    .with_ready_at(if row % 2 == 0 { 0.0 } else { 5e-7 }),
            );
        }
        let base = PacketSim::new(cfg());
        let reference = base.simulate(&mesh, &msgs).unwrap();
        for threads in [2usize, 8] {
            let sim = PacketSim::new(cfg()).with_run_threads(threads);
            let out = sim.simulate(&mesh, &msgs).unwrap();
            assert_eq!(
                out.completions(),
                reference.completions(),
                "{threads} threads"
            );
            assert_eq!(out.makespan_ns(), reference.makespan_ns());
            for l in 0..mesh.link_id_space() {
                let link = LinkId(l);
                assert_eq!(
                    out.link_stats().busy_ns(link),
                    reference.link_stats().busy_ns(link),
                    "link {l} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn traced_auto_error_leaves_only_the_reference_trace() {
        // Component 0 finishes on the fast path before component 1 meets
        // its dead route, so the whole DAG re-runs through the reference
        // engine: the sink must hold that run's events and nothing else.
        let mesh = Mesh::new(1, 4).unwrap();
        let mut c = cfg();
        c.faults
            .fail_link_between(&mesh, NodeId(2), NodeId(3))
            .unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 3),
            Message::new(MsgId(1), NodeId(2), NodeId(3), 8192),
        ];
        let sim = PacketSim::new(c);
        let mut auto = MemorySink::new();
        let err = sim.simulate_traced(&mesh, &msgs, &mut auto).unwrap_err();
        let mut reference = MemorySink::new();
        let expect = sim
            .run_reference_traced(&mesh, &msgs, &mut reference)
            .unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{expect:?}"));
        assert_eq!(auto.events(), reference.events());
    }

    #[test]
    fn recycle_keeps_steady_state_buffers_warm() {
        let mesh = Mesh::new(1, 3).unwrap();
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 8192 * 3),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 8192 * 3).with_deps([MsgId(0)]),
        ];
        let sim = PacketSim::new(cfg());
        let first = sim.simulate(&mesh, &msgs).unwrap();
        let makespan = first.makespan_ns();
        sim.recycle(first);
        assert!(sim.retained_scratch_bytes() > 0);
        let second = sim.simulate(&mesh, &msgs).unwrap();
        assert_eq!(second.makespan_ns(), makespan);
    }
}
