//! Schedule → network-simulation bridge.

use std::sync::{Arc, Mutex, MutexGuard};

use meshcoll_collectives::{
    fault, Algorithm, CollectiveError, OpId, OpKind, OpSink, Schedule, ScheduleOptions,
};
use meshcoll_noc::{LinkStats, Message, MsgId, NocConfig, PacketSim, SimMode, SimOutcome};
use meshcoll_topo::{Mesh, NodeId};

use crate::{SimContext, SimError};

/// Times collective schedules on the packet-level network simulator.
///
/// Reduction at a receiving chiplet is modelled as free, matching the
/// paper's methodology (double buffering and sufficient memory bandwidth are
/// assumed, so aggregation keeps up with line rate).
///
/// The engine owns one [`PacketSim`] constructed up front (no per-run
/// configuration cloning) and is usable from several threads at once —
/// [`SweepRunner`](crate::SweepRunner) fans sweep points across a shared
/// engine. Lowered message buffers and simulation outcomes are pooled
/// across runs (clones share the pool), so steady-state sweeps reuse their
/// allocations instead of rebuilding ~10^5-entry DAG buffers per point.
#[derive(Debug, Clone)]
pub struct SimEngine {
    sim: PacketSim,
    /// Recycled schedule-lowering buffers; one per concurrently running
    /// thread at the high-water mark.
    lowered: Arc<Mutex<Vec<Vec<Message>>>>,
}

/// The timing result of one schedule execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Time from injection of the first op to delivery of the last, ns.
    pub total_time_ns: f64,
    /// Time-averaged fraction of directed links busy, in percent
    /// (the Fig 12 / Table I metric).
    pub link_utilization_percent: f64,
    /// Fraction of directed links that carried any traffic, in percent.
    pub used_link_percent: f64,
}

impl RunResult {
    /// The timing of a run that ended at `makespan` ns with per-link busy
    /// time `stats`.
    pub(crate) fn from_stats(makespan: f64, stats: &LinkStats) -> RunResult {
        RunResult {
            total_time_ns: makespan,
            link_utilization_percent: stats.utilization_percent(makespan),
            used_link_percent: stats.used_link_percent(),
        }
    }

    /// Achieved AllReduce bandwidth for `data_bytes` of gradient:
    /// `bytes / time` in GB/s (the Fig 8 metric).
    pub fn bandwidth_gbps(&self, data_bytes: u64) -> f64 {
        if self.total_time_ns <= 0.0 {
            return 0.0;
        }
        data_bytes as f64 / self.total_time_ns
    }
}

/// How a fault-aware run ([`SimEngine::run_degraded`]) concluded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunStatus {
    /// The original schedule already executes under the configured faults
    /// (they only degrade bandwidth, or miss its routes entirely).
    Completed,
    /// The original schedule failed the fault lint; a repaired schedule was
    /// generated over the surviving topology and timed instead.
    Repaired {
        /// Lint issues found on the original schedule.
        lint_issues: usize,
        /// The repair strategy used (see
        /// [`fault::Repair`](meshcoll_collectives::fault::Repair)).
        strategy: &'static str,
        /// Surviving chiplets the repair sidelined as relays.
        sidelined: usize,
        /// Wall-clock time spent generating the repair, in microseconds
        /// (the schedule-regeneration overhead a runtime would pay).
        repair_micros: f64,
    },
    /// A fault timeline interrupted the run mid-collective; the schedule
    /// suffix was repaired live and resumed on the surviving topology
    /// (see [`SimEngine::run_online`]).
    RepairedOnline {
        /// Timestamp of the first fault arrival that interrupted a
        /// segment, ns.
        at_ns: f64,
        /// Total measured wall-clock repair latency, ns: reported for
        /// observability, not charged into the simulated makespan.
        repair_ns: f64,
        /// Online repairs performed (one per interrupting fault batch).
        attempts: usize,
        /// Payload bytes dropped in flight across all interruptions.
        lost_bytes: u64,
        /// Total ops across all resumed suffix schedules.
        resumed_ops: usize,
    },
    /// No repaired schedule exists on the fault-masked topology (e.g. the
    /// survivors are partitioned).
    Infeasible {
        /// Why no repair exists.
        reason: &'static str,
    },
}

/// Result of [`SimEngine::run_degraded`]: the conclusion plus, when a
/// schedule actually executed, its timing. Achieved bandwidth under the
/// faults comes from [`RunResult::bandwidth_gbps`] on `result`.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// How the run concluded.
    pub status: RunStatus,
    /// Timing of whichever schedule executed (`None` when infeasible).
    pub result: Option<RunResult>,
}

impl SimEngine {
    /// Creates an engine with the given network configuration and a private
    /// route cache.
    pub fn new(noc: NocConfig) -> Self {
        SimEngine {
            sim: PacketSim::new(noc),
            lowered: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Creates an engine sharing `ctx`'s route cache, so repeated runs on
    /// the same mesh — including from other engines built on the same
    /// context — reuse each other's routes.
    pub fn with_context(noc: NocConfig, ctx: &SimContext) -> Self {
        SimEngine {
            sim: PacketSim::new(noc).with_route_cache(ctx.route_cache().clone()),
            lowered: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// An engine at the paper's Table II configuration.
    pub fn paper_default() -> Self {
        SimEngine::new(NocConfig::paper_default())
    }

    /// Selects the packet-engine mode ([`SimMode::Auto`] by default).
    ///
    /// [`SimMode::PerPacket`] forces the exact per-packet reference engine;
    /// the equivalence suite uses it to check the packet-train fast path
    /// against the reference through the full schedule pipeline.
    #[must_use]
    pub fn with_mode(mut self, mode: SimMode) -> Self {
        self.sim = self.sim.with_mode(mode);
        self
    }

    /// Sets the intra-run worker-thread budget of the underlying
    /// [`PacketSim`] (see [`PacketSim::with_run_threads`]): `1` (the
    /// default) simulates inline, `0` resolves to the machine's available
    /// parallelism, `n > 1` simulates independent DAG components on up to
    /// `n` scoped threads. Results are bit-identical at every setting.
    #[must_use]
    pub fn with_run_threads(mut self, n: usize) -> Self {
        self.sim = self.sim.with_run_threads(n);
        self
    }

    /// The configured intra-run worker-thread budget.
    pub fn run_threads(&self) -> usize {
        self.sim.run_threads()
    }

    /// The network configuration.
    pub fn noc(&self) -> &NocConfig {
        self.sim.config()
    }

    /// Bytes currently retained by this engine's reusable pools: the
    /// underlying packet engine's scratch (high-water capacities that
    /// persist across runs) plus the recycled schedule-lowering message
    /// buffers. Stays `O(messages)` of the largest schedule simulated so
    /// far; the scalability smoke test pins that down.
    pub fn retained_scratch_bytes(&self) -> usize {
        let lowered: usize = self
            .pool()
            .iter()
            .map(|buf| {
                buf.capacity() * std::mem::size_of::<Message>()
                    + buf
                        .iter()
                        .map(|m| m.deps.capacity() * std::mem::size_of::<MsgId>())
                        .sum::<usize>()
            })
            .sum();
        self.sim.retained_scratch_bytes() + lowered
    }

    /// Times one schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] if the schedule produces an invalid
    /// message DAG (cannot happen for schedules built by this workspace's
    /// algorithms; defensive).
    pub fn run(&self, mesh: &Mesh, schedule: &Schedule) -> Result<RunResult, SimError> {
        self.run_phased(mesh, &[(schedule, 0.0)])
            .map(|(result, _)| result)
    }

    /// Times `algorithm` under the faults configured in this engine's
    /// [`NocConfig::faults`], degrading gracefully:
    ///
    /// 1. the healthy schedule is linted against the fault model; if clean
    ///    it runs as-is ([`RunStatus::Completed`] — degraded links merely
    ///    lower the achieved bandwidth),
    /// 2. otherwise a repaired schedule is generated over the surviving
    ///    topology and timed ([`RunStatus::Repaired`], with the
    ///    wall-clock repair overhead),
    /// 3. when no repair exists the typed verdict is returned
    ///    ([`RunStatus::Infeasible`]) — no panic, no hang.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Collective`] when the healthy construction
    /// itself is invalid on this mesh (wrong size, data too small), and
    /// [`SimError::Network`] for malformed message DAGs (defensive).
    pub fn run_degraded(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<DegradedRun, SimError> {
        let (schedule, status) = self.lint_or_repair(mesh, algorithm, data_bytes, opts)?;
        let result = schedule.map(|s| self.run(mesh, &s)).transpose()?;
        Ok(DegradedRun { status, result })
    }

    /// The static fault phase shared by [`SimEngine::run_degraded`] and
    /// [`SimEngine::run_online`]: generates the healthy schedule, lints it
    /// against the configured fault model, and repairs it over the
    /// surviving topology when dirty. Returns the schedule to execute with
    /// its [`RunStatus`], or no schedule and [`RunStatus::Infeasible`] when
    /// no repair exists.
    pub(crate) fn lint_or_repair(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<(Option<Schedule>, RunStatus), SimError> {
        let faults = &self.noc().faults;
        let schedule = algorithm.schedule_with(mesh, data_bytes, opts)?;
        let issues = fault::lint(mesh, faults, &schedule, self.noc().routing);
        if issues.is_empty() {
            return Ok((Some(schedule), RunStatus::Completed));
        }
        let t0 = std::time::Instant::now();
        match fault::repair(algorithm, mesh, faults, data_bytes, opts) {
            Ok(rep) => {
                let status = RunStatus::Repaired {
                    lint_issues: issues.len(),
                    strategy: rep.strategy,
                    sidelined: rep.sidelined.len(),
                    repair_micros: t0.elapsed().as_secs_f64() * 1e6,
                };
                Ok((Some(rep.schedule), status))
            }
            Err(CollectiveError::Infeasible { reason }) => {
                Ok((None, RunStatus::Infeasible { reason }))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Times `algorithm` without ever materializing its [`Schedule`]: ops
    /// stream from the generator straight into the pooled message buffer
    /// (one message per op, written in place), so peak retained memory is a
    /// single O(messages) buffer instead of schedule + deps arena +
    /// messages. This is the intended entry point for 1,000+ chiplet
    /// fabrics; results are bit-identical to
    /// [`SimEngine::run`] on the materialized schedule (the generators are
    /// shared — see [`meshcoll_collectives::stream`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Collective`] when the algorithm cannot run on
    /// `mesh` (as for [`Algorithm::schedule_with`]) and [`SimError::Network`]
    /// for malformed message DAGs (defensive).
    pub fn run_streamed(
        &self,
        mesh: &Mesh,
        algorithm: Algorithm,
        data_bytes: u64,
        opts: &ScheduleOptions,
    ) -> Result<RunResult, SimError> {
        self.staged(
            |lowering| algorithm.emit_with(mesh, data_bytes, opts, lowering),
            |messages, ()| Ok(self.result_of(self.sim.simulate(mesh, messages)?)),
        )
    }

    /// Times several schedules sharing the network, each with its own
    /// earliest-start time (used by the layer-wise overlap experiment, where
    /// layer `l`'s AllReduce may not start before its gradient exists).
    ///
    /// Returns the overall result plus each schedule's completion time.
    ///
    /// # Errors
    ///
    /// As for [`SimEngine::run`].
    pub fn run_phased(
        &self,
        mesh: &Mesh,
        schedules: &[(&Schedule, f64)],
    ) -> Result<(RunResult, Vec<f64>), SimError> {
        self.staged(
            |lowering| {
                Ok(schedules
                    .iter()
                    .map(|&(s, ready_at)| lowering.lower(s, ready_at))
                    .collect::<Vec<_>>())
            },
            |messages, spans| {
                let outcome = self.sim.simulate(mesh, messages)?;
                let per_schedule = spans
                    .iter()
                    .map(|&(a, b)| {
                        outcome.completions()[a..b]
                            .iter()
                            .copied()
                            .fold(0.0, f64::max)
                    })
                    .collect();
                Ok((self.result_of(outcome), per_schedule))
            },
        )
    }

    /// The one staged path every run takes: pops a pooled message buffer,
    /// lowers into it through the one [`MessageSink`] (`lower` returns
    /// whatever `simulate` needs to know about the lowering), hands the
    /// lowered DAG to `simulate`, and returns the buffer to the pool.
    pub(crate) fn staged<L, T>(
        &self,
        lower: impl FnOnce(&mut MessageSink<'_>) -> Result<L, CollectiveError>,
        simulate: impl FnOnce(&[Message], L) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        let mut messages = self.pool().pop().unwrap_or_default();
        let lowered = {
            let mut sink = MessageSink {
                messages: &mut messages,
                len: 0,
                base: 0,
                ready_at: 0.0,
            };
            lower(&mut sink).map(|l| (l, sink.len))
        };
        let result = match lowered {
            Ok((l, len)) => {
                messages.truncate(len);
                simulate(&messages, l)
            }
            Err(e) => Err(e.into()),
        };
        self.pool().push(messages);
        result
    }

    /// The [`RunResult`] of an outcome of this engine's packet simulator,
    /// whose buffers then go back to the simulator's pool.
    pub(crate) fn result_of(&self, outcome: SimOutcome) -> RunResult {
        let result = RunResult::from_stats(outcome.makespan_ns(), outcome.link_stats());
        self.sim.recycle(outcome);
        result
    }

    /// The recycled schedule-lowering buffers.
    fn pool(&self) -> MutexGuard<'_, Vec<Vec<Message>>> {
        self.lowered.lock().expect("message pool poisoned")
    }

    /// The underlying packet engine, for the audit layer.
    pub(crate) fn packet_sim(&self) -> &PacketSim {
        &self.sim
    }
}

/// Lowers ops to the simulator's message DAG, writing a (possibly
/// recycled) buffer entry by entry so it keeps both its spine and its
/// per-message dependency-list allocations — the congested schedules lower
/// ~10^5 ops, and rebuilding that buffer from scratch costs more than a
/// third of the fast path's whole simulation time.
///
/// Message ids are dense over the whole buffer, so several schedules share
/// one id space: op `k` of the schedule being lowered becomes message
/// `base + k`, its dependencies shift by the same `base`, and every message
/// carries the schedule's ready time. Generators stream into it as an
/// [`OpSink`]; materialized schedules go through [`MessageSink::lower`],
/// which calls the same writer — so the streamed, materialized, audited and
/// online paths all time byte-for-byte the same DAG.
pub(crate) struct MessageSink<'a> {
    messages: &'a mut Vec<Message>,
    /// Messages written so far; the next message's id.
    len: usize,
    /// Id of the current schedule's op 0.
    base: usize,
    /// Earliest start of the current schedule's messages, ns.
    ready_at: f64,
}

impl MessageSink<'_> {
    /// Lowers `schedule`'s ops as the next messages, each ready no earlier
    /// than `ready_at`; returns their `[start, end)` id span.
    pub(crate) fn lower(&mut self, schedule: &Schedule, ready_at: f64) -> (usize, usize) {
        self.base = self.len;
        self.ready_at = ready_at;
        for id in schedule.op_ids() {
            let op = schedule.op(id);
            self.write(op.src, op.dst, op.bytes, schedule.deps(id));
        }
        (self.base, self.len)
    }

    /// Writes the next message; `deps` are op ids of the current schedule.
    fn write(&mut self, src: NodeId, dst: NodeId, bytes: u64, deps: &[OpId]) -> OpId {
        let idx = self.len;
        let op =
            u32::try_from(idx - self.base).expect("schedule exceeds u32::MAX ops, the OpId limit");
        let base = self.base;
        let dep_ids = deps.iter().map(|d| MsgId(base + d.index()));
        if let Some(m) = self.messages.get_mut(idx) {
            m.id = MsgId(idx);
            m.src = src;
            m.dst = dst;
            m.bytes = bytes;
            m.ready_at_ns = self.ready_at;
            m.deps.clear();
            m.deps.extend(dep_ids);
        } else {
            self.messages.push(
                Message::new(MsgId(idx), src, dst, bytes)
                    .with_deps(dep_ids)
                    .with_ready_at(self.ready_at),
            );
        }
        self.len += 1;
        OpId(op)
    }
}

impl OpSink for MessageSink<'_> {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _offset: u64,
        bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        self.write(src, dst, bytes, deps)
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {
        // Timing needs only the message DAG; participants matter to the
        // functional verifier and audits, which run on materialized
        // schedules.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshcoll_collectives::Algorithm;

    #[test]
    fn ring_bi_beats_unidirectional_ring() {
        let mesh = Mesh::square(4).unwrap();
        let e = SimEngine::paper_default();
        let d = 8 << 20;
        let ring = e
            .run(&mesh, &Algorithm::Ring.schedule(&mesh, d).unwrap())
            .unwrap();
        let bi = e
            .run(&mesh, &Algorithm::RingBiEven.schedule(&mesh, d).unwrap())
            .unwrap();
        let speedup = ring.total_time_ns / bi.total_time_ns;
        assert!(
            (1.6..2.4).contains(&speedup),
            "bidirectional speedup {speedup}"
        );
    }

    #[test]
    fn link_utilization_orders_match_paper() {
        // TTO > RingBi > Ring in time-averaged link utilization.
        let mesh = Mesh::square(5).unwrap();
        let e = SimEngine::paper_default();
        let d = 4 << 20;
        let util = |a: Algorithm| {
            e.run(&mesh, &a.schedule(&mesh, d).unwrap())
                .unwrap()
                .link_utilization_percent
        };
        let (ring, bi, tto) = (
            util(Algorithm::Ring),
            util(Algorithm::RingBiOdd),
            util(Algorithm::Tto),
        );
        assert!(tto > bi && bi > ring, "tto={tto} bi={bi} ring={ring}");
        assert!(tto > 60.0, "tto utilization {tto}");
        assert!(ring < 40.0, "ring utilization {ring}");
    }

    #[test]
    fn streamed_run_is_bit_identical_to_materialized() {
        let e = SimEngine::paper_default();
        let opts = ScheduleOptions::default();
        for (dims, algorithms) in [
            (
                (4, 4),
                &[
                    Algorithm::Ring,
                    Algorithm::RingBiEven,
                    Algorithm::MultiTree,
                    Algorithm::Tto,
                    Algorithm::DBTree,
                ][..],
            ),
            ((5, 5), &[Algorithm::RingBiOdd, Algorithm::Tto][..]),
        ] {
            let mesh = Mesh::new(dims.0, dims.1).unwrap();
            let d = 1 << 20;
            for &a in algorithms {
                let s = a.schedule_with(&mesh, d, &opts).unwrap();
                let materialized = e.run(&mesh, &s).unwrap();
                let streamed = e.run_streamed(&mesh, a, d, &opts).unwrap();
                assert_eq!(materialized, streamed, "{a} on {dims:?}");
            }
        }
    }

    #[test]
    fn streamed_run_surfaces_construction_errors() {
        let e = SimEngine::paper_default();
        let mesh = Mesh::square(5).unwrap();
        let err = e.run_streamed(&mesh, Algorithm::RingBiEven, 1 << 20, &Default::default());
        assert!(matches!(err, Err(crate::SimError::Collective(_))));
    }

    #[test]
    fn phased_runs_respect_ready_times() {
        let mesh = Mesh::square(3).unwrap();
        let e = SimEngine::paper_default();
        let s = Algorithm::Ring.schedule(&mesh, 9000).unwrap();
        let (solo, _) = e.run_phased(&mesh, &[(&s, 0.0)]).unwrap();
        let (delayed, per) = e.run_phased(&mesh, &[(&s, 50_000.0)]).unwrap();
        assert!(delayed.total_time_ns >= solo.total_time_ns + 50_000.0 - 1.0);
        assert_eq!(per.len(), 1);
    }

    #[test]
    fn dead_links_are_excluded_from_percent_denominators() {
        // Regression for the `ablation_faults` sweep: the percent metrics
        // are over *usable* links. On a 1x3 row with the right channel dead
        // in both directions, a 2-node exchange saturates every usable link
        // — 100%, not the 50% a stale all-links denominator would report.
        use meshcoll_collectives::{OpKind, Schedule};
        use meshcoll_topo::NodeId;

        let mesh = Mesh::new(1, 3).unwrap();
        let mut noc = NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, NodeId(1), NodeId(2))
            .unwrap();
        let e = SimEngine::new(noc);
        let mut b = Schedule::builder("pair", 8192);
        b.set_participants(vec![NodeId(0), NodeId(1)]);
        let r = b.push(NodeId(0), NodeId(1), 0, 8192, OpKind::Reduce, 0, &[]);
        b.push(NodeId(1), NodeId(0), 0, 8192, OpKind::Gather, 0, &[r]);
        let run = e.run(&mesh, &b.build()).unwrap();
        assert_eq!(run.used_link_percent, 100.0);
        assert!(run.link_utilization_percent <= 100.0);
    }

    #[test]
    fn degraded_run_repairs_and_completes_with_nonzero_bandwidth() {
        // Kill the first link each algorithm's healthy schedule actually
        // routes over, so the lint is guaranteed dirty and the repair path
        // is guaranteed to execute.
        let mesh = Mesh::square(5).unwrap();
        let d = 1 << 20;
        let opts = ScheduleOptions::default();
        for a in [
            Algorithm::Ring,
            Algorithm::RingBiOdd,
            Algorithm::MultiTree,
            Algorithm::Tto,
        ] {
            let s = a.schedule_with(&mesh, d, &opts).unwrap();
            let op = &s.ops()[0];
            let link = meshcoll_topo::routing::route(
                &mesh,
                op.src,
                op.dst,
                meshcoll_topo::RoutingAlgorithm::Xy,
            )
            .unwrap()[0];
            let (x, y) = mesh.link_endpoints(link);
            let mut noc = NocConfig::paper_default();
            noc.faults.fail_link_between(&mesh, x, y).unwrap();
            let e = SimEngine::new(noc);
            let run = e.run_degraded(&mesh, a, d, &opts).unwrap();
            assert!(
                matches!(run.status, RunStatus::Repaired { .. }),
                "{a}: {:?}",
                run.status
            );
            let bw = run
                .result
                .expect("repaired run has timing")
                .bandwidth_gbps(d);
            assert!(bw > 0.0, "{a}: bandwidth {bw}");
        }
    }

    #[test]
    fn partitioned_package_is_infeasible_not_a_panic() {
        let mesh = Mesh::square(5).unwrap();
        let corner = mesh.node_at(meshcoll_topo::Coord::new(0, 0));
        let mut noc = NocConfig::paper_default();
        noc.faults
            .fail_link_between(&mesh, corner, mesh.node_at(meshcoll_topo::Coord::new(0, 1)))
            .unwrap();
        noc.faults
            .fail_link_between(&mesh, corner, mesh.node_at(meshcoll_topo::Coord::new(1, 0)))
            .unwrap();
        let e = SimEngine::new(noc);
        let run = e
            .run_degraded(&mesh, Algorithm::Ring, 1 << 20, &ScheduleOptions::default())
            .unwrap();
        assert!(matches!(run.status, RunStatus::Infeasible { .. }));
        assert!(run.result.is_none());
    }

    #[test]
    fn pure_degradation_completes_unrepaired_at_lower_bandwidth() {
        let mesh = Mesh::square(4).unwrap();
        let d = 1 << 20;
        let opts = ScheduleOptions::default();
        let healthy = SimEngine::paper_default()
            .run_degraded(&mesh, Algorithm::Ring, d, &opts)
            .unwrap();
        let mut noc = NocConfig::paper_default();
        for (_, _, link) in mesh.links() {
            noc.faults.degrade_link(link, 0.25);
        }
        let degraded = SimEngine::new(noc)
            .run_degraded(&mesh, Algorithm::Ring, d, &opts)
            .unwrap();
        assert_eq!(healthy.status, RunStatus::Completed);
        assert_eq!(degraded.status, RunStatus::Completed);
        let hb = healthy.result.unwrap().bandwidth_gbps(d);
        let db = degraded.result.unwrap().bandwidth_gbps(d);
        assert!(
            db < hb / 3.0 && db > 0.0,
            "healthy {hb} GB/s vs degraded {db} GB/s"
        );
    }
}
