//! The three workloads: their sweep points, the expected simulated outputs
//! the committed results hold, the end-to-end call each point makes, and
//! the traced decomposition of that call into its layers.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

use meshcoll_collectives::{Algorithm, Applicability, OpId, OpKind, OpSink, Schedule};
use meshcoll_compute::{training, ChipletConfig};
use meshcoll_models::DnnModel;
use meshcoll_noc::{Message, MsgId, NocConfig, PacketSim};
use meshcoll_sim::epoch::EpochParams;
use meshcoll_sim::overlap::{overlapped_iteration, MIN_BUCKET_BYTES};
use meshcoll_sim::{bandwidth, SimContext, SimEngine};
use meshcoll_topo::routing::for_each_route_link;
use meshcoll_topo::{Hierarchy, Mesh, NodeId, RouteCacheStats, RoutingAlgorithm};

use crate::trace::{HopCounter, Recorder};

/// Simulated outputs of one point (makespans, iteration times; ns).
pub type Outputs = Vec<f64>;

const MIB: u64 = 1 << 20;

/// Simulated outputs must match the committed results, and the fast path
/// the per-packet reference, this closely (ns).
pub const TOLERANCE_NS: f64 = 1e-6;

/// Where the committed results live, relative to this package.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");

/// One workload of the benchmark: a fixed list of sweep points.
pub trait Workload {
    /// Number of sweep points.
    fn len(&self) -> usize;
    /// Human-readable point label.
    fn label(&self, i: usize) -> String;
    /// The outputs the committed results hold for point `i`.
    fn expected(&self, i: usize) -> &[f64];
    /// Runs point `i` through the public entry point a sweep uses.
    fn run(&self, i: usize) -> Result<Outputs, String>;
    /// Runs point `i` call by call under spans, probing the network layer
    /// on the same message DAG.
    fn run_traced(&self, i: usize, probe: &mut Probe) -> Result<Outputs, String>;
    /// Bytes the simulator's reusable pools retain (for a fresh engine per
    /// point, the largest any point's engine retained).
    fn retained_scratch_bytes(&self) -> usize;
    /// The shared route cache's counters.
    fn route_stats(&self) -> RouteCacheStats;
}

/// Builds workload `name`: context, engines and expected outputs.
pub fn build(name: &str) -> Result<Box<dyn Workload>, String> {
    match name {
        "fig8_sweep" => Ok(Box::new(Fig8::new()?)),
        "overlap_fig11" => Ok(Box::new(Overlap::new()?)),
        "scale_stream" => Ok(Box::new(Scale::new()?)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// What one point moves through the network, computed by the benchmark
/// from the schedule and XY routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointSize {
    /// Schedule ops (one message each).
    pub ops: u64,
    /// Packets x route length, summed over ops.
    pub packet_hops: u64,
}

/// Each point's [`PointSize`] for workload `name`. Computed once per
/// process: it is the benchmark's own bookkeeping, not the simulator's.
pub fn point_sizes(name: &str) -> Result<Vec<PointSize>, String> {
    let noc = NocConfig::paper_default();
    match name {
        "fig8_sweep" => fig8_points()
            .iter()
            .map(|(mesh, algo, bytes)| {
                let s = algo.schedule(mesh, *bytes).map_err(|e| e.to_string())?;
                Ok(schedule_size(mesh, &noc, &[&s]))
            })
            .collect(),
        "overlap_fig11" => {
            let mesh = overlap_mesh();
            overlap_points()
                .iter()
                .map(|&(model, algo)| {
                    let (buckets, _) = overlap_buckets(model);
                    let schedules = buckets
                        .iter()
                        .map(|&(bytes, _)| algo.schedule(&mesh, bytes))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| e.to_string())?;
                    let refs: Vec<&Schedule> = schedules.iter().collect();
                    Ok(schedule_size(&mesh, &noc, &refs))
                })
                .collect()
        }
        "scale_stream" => scale_points()
            .iter()
            .map(|p| {
                let (mesh, noc) = p.fabric();
                let mut sink = HopSink::new(&mesh, &noc);
                p.algo
                    .emit_with(&mesh, SCALE_DATA, &Default::default(), &mut sink)
                    .map_err(|e| e.to_string())?;
                Ok(sink.size)
            })
            .collect(),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn route_len(mesh: &Mesh, src: NodeId, dst: NodeId) -> u64 {
    let mut n = 0;
    for_each_route_link(mesh, src, dst, RoutingAlgorithm::Xy, |_| n += 1)
        .expect("schedules only name nodes of their mesh");
    n
}

fn schedule_size(mesh: &Mesh, noc: &NocConfig, schedules: &[&Schedule]) -> PointSize {
    let ops = schedules.iter().flat_map(|s| s.ops());
    PointSize {
        ops: schedules.iter().map(|s| s.len() as u64).sum(),
        packet_hops: ops
            .map(|op| noc.packets_for(op.bytes) * route_len(mesh, op.src, op.dst))
            .sum(),
    }
}

/// Sums packet-hops over a streamed schedule without retaining it.
struct HopSink<'a> {
    mesh: &'a Mesh,
    noc: &'a NocConfig,
    lens: HashMap<(NodeId, NodeId), u64>,
    size: PointSize,
}

impl<'a> HopSink<'a> {
    fn new(mesh: &'a Mesh, noc: &'a NocConfig) -> Self {
        HopSink {
            mesh,
            noc,
            lens: HashMap::new(),
            size: PointSize::default(),
        }
    }
}

impl OpSink for HopSink<'_> {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _offset: u64,
        bytes: u64,
        _kind: OpKind,
        _chunk: u32,
        _deps: &[OpId],
    ) -> OpId {
        let mesh = self.mesh;
        let len = *self
            .lens
            .entry((src, dst))
            .or_insert_with(|| route_len(mesh, src, dst));
        let id = OpId(u32::try_from(self.size.ops).expect("fewer than 2^32 ops"));
        self.size.packet_hops += self.noc.packets_for(bytes) * len;
        self.size.ops += 1;
        id
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
}

/// Lowers a streamed schedule to the network's message DAG, op `k` to
/// message `k` — the lowering `SimEngine::run_streamed` performs.
#[derive(Default)]
struct MessageSink {
    messages: Vec<Message>,
}

impl OpSink for MessageSink {
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
        let id = self.messages.len();
        self.messages.push(
            Message::new(MsgId(id), src, dst, bytes)
                .with_deps(deps.iter().map(|d| MsgId(d.index()))),
        );
        OpId(u32::try_from(id).expect("fewer than 2^32 ops"))
    }

    fn set_participants(&mut self, _nodes: Vec<NodeId>) {}
}

/// Lowers schedules sharing one network to its message DAG: one message
/// per op, ids offset per schedule, each with its schedule's ready time —
/// the lowering `SimEngine::run_phased` performs.
fn lower(schedules: &[(&Schedule, f64)]) -> Vec<Message> {
    let mut messages = Vec::with_capacity(schedules.iter().map(|(s, _)| s.len()).sum());
    for &(s, ready_at) in schedules {
        let base = messages.len();
        for id in s.op_ids() {
            let op = s.op(id);
            let deps = s.deps(id).iter().map(|d| MsgId(base + d.index()));
            messages.push(
                Message::new(MsgId(base + id.index()), op.src, op.dst, op.bytes)
                    .with_deps(deps)
                    .with_ready_at(ready_at),
            );
        }
    }
    messages
}

/// Per-layer counters of the traced run, alongside its spans.
#[derive(Debug)]
pub struct Probe {
    pub rec: Recorder,
    pub hops: HopCounter,
    pub ops: u64,
    pub coalesce_attempts: u64,
    pub coalesce_accepts: u64,
    pub wasted_ns: u64,
    /// Auto (`simulate`) and per-packet reference time over the points
    /// the reference ran on.
    pub simulate_ns_vs_ref: u64,
    pub reference_ns: u64,
    pub reference_points: u64,
    pub auto_slower_points: u64,
    pub drift_ns: f64,
    /// Packet-hops the current point must move (packets x route length);
    /// the engines' hop events must add up to it.
    pub expected_hops: u64,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            rec: Recorder::new(),
            hops: HopCounter::default(),
            ops: 0,
            coalesce_attempts: 0,
            coalesce_accepts: 0,
            wasted_ns: 0,
            simulate_ns_vs_ref: 0,
            reference_ns: 0,
            reference_points: 0,
            auto_slower_points: 0,
            drift_ns: 0.0,
            expected_hops: 0,
        }
    }

    /// Probes the network layer on `messages`, the DAG an engine call just
    /// timed with makespan `makespan`: untraced `simulate` (timed), a
    /// counting traced run, one whole-DAG `run_coalesced` attempt and, when
    /// `reference`, the per-packet reference. Fails the point when a
    /// makespan differs from the engine call's, when the hop events do not
    /// add up to [`Probe::expected_hops`], or when the fast path strays
    /// more than [`TOLERANCE_NS`] from the reference.
    fn network(
        &mut self,
        sim: &PacketSim,
        mesh: &Mesh,
        messages: &[Message],
        makespan: f64,
        reference: bool,
    ) -> Result<(), String> {
        let same = |what: &str, got: f64| {
            if got.to_bits() == makespan.to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "{what} makespan {got} differs from the engine's {makespan}"
                ))
            }
        };
        let (out, simulate_ns) = self
            .rec
            .span("noc.simulate", || sim.simulate(mesh, messages));
        same("lowered DAG", out.map_err(|e| e.to_string())?.makespan_ns())?;
        let mut counter = HopCounter::default();
        let (out, _) = self.rec.span("noc.simulate_traced", || {
            sim.simulate_traced(mesh, messages, &mut counter)
        });
        same("traced", out.map_err(|e| e.to_string())?.makespan_ns())?;
        self.hops.add(counter);

        let (out, coalesce_ns) = self
            .rec
            .span("noc.run_coalesced", || sim.run_coalesced(mesh, messages));
        self.coalesce_attempts += 1;
        match out.map_err(|e| e.to_string())? {
            Some(o) => {
                self.coalesce_accepts += 1;
                same("whole-DAG fast path", o.makespan_ns())?;
            }
            None => self.wasted_ns += coalesce_ns,
        }

        let mut drift = 0.0;
        if reference {
            let (out, reference_ns) = self
                .rec
                .span("noc.run_reference", || sim.run_reference(mesh, messages));
            drift = (makespan - out.map_err(|e| e.to_string())?.makespan_ns()).abs();
            self.drift_ns = self.drift_ns.max(drift);
            self.reference_points += 1;
            self.reference_ns += reference_ns;
            self.simulate_ns_vs_ref += simulate_ns;
            if simulate_ns > reference_ns {
                self.auto_slower_points += 1;
            }
        }
        if counter.all_packet_hops() != self.expected_hops {
            return Err(format!(
                "engines traced {} packet-hops, schedule and routing give {}",
                counter.all_packet_hops(),
                self.expected_hops
            ));
        }
        if drift > TOLERANCE_NS {
            return Err(format!(
                "fast path strays {drift} ns from the per-packet reference"
            ));
        }
        Ok(())
    }
}

/// Expected outputs, keyed by (experiment, mesh, algorithm, workload).
type Expected = BTreeMap<(String, String, String, String), BTreeMap<String, f64>>;

fn load_expected(file: &str) -> Result<Expected, String> {
    let path = format!("{RESULTS_DIR}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = meshcoll_util::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = doc
        .as_array()
        .ok_or_else(|| format!("{path}: not an array"))?;
    let mut out = Expected::new();
    for r in records {
        let field = |k: &str| {
            r.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: record without {k}"))
        };
        let key = (
            field("experiment")?,
            field("mesh")?,
            field("algorithm")?,
            field("workload")?,
        );
        let metrics = r
            .get("metrics")
            .ok_or_else(|| format!("{path}: record without metrics"))?;
        out.insert(key, metrics.to_f64_map());
    }
    Ok(out)
}

fn expect(
    table: &Expected,
    key: (&str, &str, &str, &str),
    metrics: &[&str],
) -> Result<Outputs, String> {
    let k = (
        key.0.to_string(),
        key.1.to_string(),
        key.2.to_string(),
        key.3.to_string(),
    );
    let rec = table
        .get(&k)
        .ok_or_else(|| format!("no committed result for {key:?}"))?;
    metrics
        .iter()
        .map(|m| {
            rec.get(*m)
                .copied()
                .ok_or_else(|| format!("committed result {key:?} lacks {m}"))
        })
        .collect()
}

// ---------------------------------------------------------------- fig8_sweep

fn fig8_points() -> Vec<(Mesh, Algorithm, u64)> {
    let mut points = Vec::new();
    for n in [4usize, 5, 8, 9] {
        let mesh = Mesh::square(n).expect("square meshes up to 9x9 exist");
        for algo in Algorithm::BENCHMARKS {
            if algo.applicability(&mesh) == Applicability::Inapplicable {
                continue;
            }
            for mb in [1, 4, 16, 64] {
                points.push((mesh.clone(), algo, mb * MIB));
            }
        }
    }
    points
}

/// Fig 8: every applicable algorithm on 4x4/5x5/8x8/9x9 at 1-64 MB through
/// `bandwidth::measure`, on one engine sharing one route cache.
struct Fig8 {
    ctx: SimContext,
    engine: SimEngine,
    sim: PacketSim,
    points: Vec<(Mesh, Algorithm, u64)>,
    expected: Vec<Outputs>,
}

impl Fig8 {
    fn new() -> Result<Self, String> {
        let ctx = SimContext::new();
        let table = load_expected("fig8_bandwidth.json")?;
        let points = fig8_points();
        let expected = points
            .iter()
            .map(|(mesh, algo, bytes)| {
                let size = format!("{}MB", bytes / MIB);
                let key = ("fig8", &*mesh.to_string(), algo.name(), &*size);
                expect(&table, key, &["time_ns"])
            })
            .collect::<Result<_, _>>()?;
        Ok(Fig8 {
            engine: ctx.paper_engine(),
            sim: PacketSim::new(NocConfig::paper_default())
                .with_route_cache(ctx.route_cache().clone()),
            ctx,
            points,
            expected,
        })
    }
}

impl Workload for Fig8 {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn label(&self, i: usize) -> String {
        let (mesh, algo, bytes) = &self.points[i];
        format!("{mesh} {algo} {}MB", bytes / MIB)
    }

    fn expected(&self, i: usize) -> &[f64] {
        &self.expected[i]
    }

    fn run(&self, i: usize) -> Result<Outputs, String> {
        let (mesh, algo, bytes) = &self.points[i];
        let p = bandwidth::measure(&self.engine, mesh, *algo, *bytes).map_err(|e| e.to_string())?;
        Ok(vec![p.time_ns])
    }

    fn run_traced(&self, i: usize, probe: &mut Probe) -> Result<Outputs, String> {
        let (mesh, algo, bytes) = &self.points[i];
        let (s, _) = probe
            .rec
            .span("collectives.schedule", || algo.schedule(mesh, *bytes));
        let s = s.map_err(|e| e.to_string())?;
        probe.ops += s.len() as u64;
        let (run, _) = probe.rec.span("sim.run", || self.engine.run(mesh, &s));
        let run = run.map_err(|e| e.to_string())?;
        let (messages, _) = probe.rec.span("bench.lower", || lower(&[(&s, 0.0)]));
        probe.network(&self.sim, mesh, &messages, run.total_time_ns, true)?;
        Ok(vec![run.total_time_ns])
    }

    fn retained_scratch_bytes(&self) -> usize {
        self.engine.retained_scratch_bytes()
    }

    fn route_stats(&self) -> RouteCacheStats {
        self.ctx.route_cache_stats()
    }
}

// ------------------------------------------------------------- overlap_fig11

const OVERLAP_MODELS: [DnnModel; 3] = [DnnModel::GoogLeNet, DnnModel::Ncf, DnnModel::AlphaGoZero];

fn overlap_mesh() -> Mesh {
    Mesh::square(8).expect("8x8 mesh exists")
}

fn overlap_points() -> Vec<(DnnModel, Algorithm)> {
    let mesh = overlap_mesh();
    OVERLAP_MODELS
        .iter()
        .flat_map(|&m| {
            Algorithm::BENCHMARKS
                .into_iter()
                .filter(|a| a.applicability(&mesh) != Applicability::Inapplicable)
                .map(move |a| (m, a))
        })
        .collect()
}

/// The gradient buckets `overlapped_iteration` releases into the network:
/// `(bytes, ready_at_ns)` in release order, plus the compute time. Mirrors
/// its bucketing step so the traced run can time each bucket's schedule;
/// the run asserts the mirrored iteration is bit-identical to the library's.
fn overlap_buckets(model: DnnModel) -> (Vec<(u64, f64)>, f64) {
    let model = model.model();
    let chiplet = ChipletConfig::paper_default();
    let params = EpochParams::default();
    let waves = params.samples_per_chiplet.div_ceil(chiplet.pes).max(1) as f64;
    let mut t = chiplet.cycles_to_ns(training::forward_cycles(model.layers(), &chiplet)) * waves;
    let mut buckets = Vec::new();
    let mut pending = 0u64;
    for (i, layer) in model.layers().iter().enumerate().rev() {
        t += chiplet.cycles_to_ns(training::layer_backward_cycles(layer, &chiplet)) * waves;
        pending += layer.params() * chiplet.precision_bytes;
        if pending >= MIN_BUCKET_BYTES || i == 0 {
            if pending > 0 {
                buckets.push((pending, t));
            }
            pending = 0;
        }
    }
    (buckets, t)
}

/// Fig 11: layer-wise overlapped iterations on 8x8 through
/// `overlapped_iteration` (one `run_phased` of every bucket's schedule).
struct Overlap {
    ctx: SimContext,
    engine: SimEngine,
    sim: PacketSim,
    mesh: Mesh,
    chiplet: ChipletConfig,
    params: EpochParams,
    points: Vec<(DnnModel, Algorithm)>,
    expected: Vec<Outputs>,
}

impl Overlap {
    fn new() -> Result<Self, String> {
        let ctx = SimContext::new();
        let table = load_expected("fig11_overlap.json")?;
        let mesh = overlap_mesh();
        let points = overlap_points();
        let label = mesh.to_string();
        let expected = points
            .iter()
            .map(|(model, algo)| {
                let key = ("fig11", &*label, algo.name(), model.name());
                expect(&table, key, &["iteration_ns", "exposed_comm_ns"])
            })
            .collect::<Result<_, _>>()?;
        Ok(Overlap {
            engine: ctx.paper_engine(),
            sim: PacketSim::new(NocConfig::paper_default())
                .with_route_cache(ctx.route_cache().clone()),
            ctx,
            mesh,
            chiplet: ChipletConfig::paper_default(),
            params: EpochParams::default(),
            points,
            expected,
        })
    }
}

impl Workload for Overlap {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn label(&self, i: usize) -> String {
        let (model, algo) = self.points[i];
        format!("{} {} {algo}", self.mesh, model.name())
    }

    fn expected(&self, i: usize) -> &[f64] {
        &self.expected[i]
    }

    fn run(&self, i: usize) -> Result<Outputs, String> {
        let (model, algo) = self.points[i];
        let r = overlapped_iteration(
            &self.engine,
            &self.mesh,
            algo,
            &model.model(),
            &self.chiplet,
            &self.params,
        )
        .map_err(|e| e.to_string())?;
        Ok(vec![r.iteration_ns, r.exposed_comm_ns])
    }

    fn run_traced(&self, i: usize, probe: &mut Probe) -> Result<Outputs, String> {
        let (model, algo) = self.points[i];
        let (buckets, compute_ns) = overlap_buckets(model);
        let mut schedules = Vec::with_capacity(buckets.len());
        for &(bytes, _) in &buckets {
            let (s, _) = probe
                .rec
                .span("collectives.schedule", || algo.schedule(&self.mesh, bytes));
            let s = s.map_err(|e| e.to_string())?;
            probe.ops += s.len() as u64;
            schedules.push(s);
        }
        let phased: Vec<(&Schedule, f64)> = schedules
            .iter()
            .zip(&buckets)
            .map(|(s, &(_, ready))| (s, ready))
            .collect();
        let (run, _) = probe.rec.span("sim.run_phased", || {
            self.engine.run_phased(&self.mesh, &phased)
        });
        let (run, _) = run.map_err(|e| e.to_string())?;
        let (messages, _) = probe.rec.span("bench.lower", || lower(&phased));
        probe.network(&self.sim, &self.mesh, &messages, run.total_time_ns, true)?;
        let iteration_ns = run.total_time_ns.max(compute_ns);
        Ok(vec![iteration_ns, iteration_ns - compute_ns])
    }

    fn retained_scratch_bytes(&self) -> usize {
        self.engine.retained_scratch_bytes()
    }

    fn route_stats(&self) -> RouteCacheStats {
        self.ctx.route_cache_stats()
    }
}

// -------------------------------------------------------------- scale_stream

/// The `fig9_scalability` scale section's gradient: 64 MiB per chiplet.
const SCALE_DATA: u64 = 64 * MIB;

#[derive(Clone, Copy)]
struct ScalePoint {
    topo: &'static str,
    algo: Algorithm,
}

impl ScalePoint {
    /// The 1,024-chiplet fabric and its network configuration, built as
    /// `fig9_scalability` builds them.
    fn fabric(self) -> (Mesh, NocConfig) {
        let mut noc = NocConfig::paper_default();
        let mesh = match self.topo {
            "mesh" => Mesh::square(32).expect("32x32 mesh exists"),
            "torus" => Mesh::torus(32, 32).expect("32x32 torus exists"),
            _ => {
                let h = Hierarchy::new(2, 2, 16, 16, 0.25).expect("2x2 of 16x16 packages");
                h.apply_to(&mut noc.faults)
                    .expect("hierarchy seams lie on its fabric");
                h.fabric().clone()
            }
        };
        (mesh, noc)
    }
}

fn scale_points() -> Vec<ScalePoint> {
    [Algorithm::Ring, Algorithm::Tto]
        .into_iter()
        .flat_map(|algo| {
            ["mesh", "torus", "hier"]
                .into_iter()
                .map(move |topo| ScalePoint { topo, algo })
        })
        .collect()
}

/// The `fig9_scalability` scale section at 1,024 chiplets: Ring and TTO at
/// 64 MiB on 32x32 mesh, torus and 2x2 hierarchy through `run_streamed`,
/// with a fresh engine per point (sharing one route cache).
struct Scale {
    ctx: SimContext,
    points: Vec<ScalePoint>,
    fabrics: Vec<(Mesh, NocConfig)>,
    expected: Vec<Outputs>,
    /// Largest retained scratch of any point's engine.
    retained: Cell<usize>,
}

impl Scale {
    fn new() -> Result<Self, String> {
        let table = load_expected("fig9_scalability.json")?;
        let points = scale_points();
        let expected = points
            .iter()
            .map(|p| {
                expect(
                    &table,
                    ("fig9_scale", "32x32", p.algo.name(), p.topo),
                    &["time_ns"],
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Scale {
            ctx: SimContext::new(),
            fabrics: points.iter().map(|p| p.fabric()).collect(),
            points,
            expected,
            retained: Cell::new(0),
        })
    }
}

impl Workload for Scale {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn label(&self, i: usize) -> String {
        let p = self.points[i];
        format!("32x32 {} {}", p.topo, p.algo)
    }

    fn expected(&self, i: usize) -> &[f64] {
        &self.expected[i]
    }

    fn run(&self, i: usize) -> Result<Outputs, String> {
        let (mesh, noc) = &self.fabrics[i];
        let engine = self.ctx.engine(noc.clone());
        let run = engine
            .run_streamed(mesh, self.points[i].algo, SCALE_DATA, &Default::default())
            .map_err(|e| e.to_string())?;
        self.retained
            .set(self.retained.get().max(engine.retained_scratch_bytes()));
        Ok(vec![run.total_time_ns])
    }

    fn run_traced(&self, i: usize, probe: &mut Probe) -> Result<Outputs, String> {
        let (mesh, noc) = &self.fabrics[i];
        let algo = self.points[i].algo;
        let opts = Default::default();
        let (emitted, _) = probe.rec.span("collectives.emit_with", || {
            let mut sink = HopSink::new(mesh, noc);
            algo.emit_with(mesh, SCALE_DATA, &opts, &mut sink)
                .map(|()| sink.size.ops)
        });
        probe.ops += emitted.map_err(|e| e.to_string())?;
        let engine = self.ctx.engine(noc.clone());
        let (run, _) = probe.rec.span("sim.run_streamed", || {
            engine.run_streamed(mesh, algo, SCALE_DATA, &opts)
        });
        let run = run.map_err(|e| e.to_string())?;
        drop(engine);
        let (messages, _) = probe.rec.span("bench.lower", || {
            let mut sink = MessageSink::default();
            algo.emit_with(mesh, SCALE_DATA, &opts, &mut sink)
                .map(|()| sink.messages)
        });
        let messages = messages.map_err(|e| e.to_string())?;
        let sim = PacketSim::new(noc.clone()).with_route_cache(self.ctx.route_cache().clone());
        probe.network(&sim, mesh, &messages, run.total_time_ns, false)?;
        Ok(vec![run.total_time_ns])
    }

    fn retained_scratch_bytes(&self) -> usize {
        self.retained.get()
    }

    fn route_stats(&self) -> RouteCacheStats {
        self.ctx.route_cache_stats()
    }
}
