//! The meshcoll benchmark: host wall-clock of the paper's sweeps, end to
//! end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `fig8_sweep`, `overlap_fig11`, `scale_stream` (see
//! `perfbench/README.md`). The seed permutes the order the points run in
//! and nothing else. Every simulated output is checked against the
//! committed results. The last line of standard output is one JSON object
//! with the run's end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`); the traced run also writes its spans and per-layer
//! numbers under `perfbench/out/`.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use meshcoll_util::rng::Rng;

use workload::{PointSize, Probe, Workload, TOLERANCE_NS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fig8_sweep|overlap_fig11|\
                 scale_stream> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Point order of pass `pass`: a seeded Fisher-Yates shuffle.
fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Checks every point's outputs against the committed results and against
/// the first outputs the same point gave in this run, bit for bit (each
/// pass runs the points in a different order, so state leaking between
/// points shows up as a mismatch).
struct Checker {
    first: Vec<Option<Vec<f64>>>,
    attempted: u64,
    failed: u64,
    reports: Vec<String>,
}

impl Checker {
    fn new(points: usize) -> Self {
        Checker {
            first: vec![None; points],
            attempted: 0,
            failed: 0,
            reports: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reports.len() < 8 {
            self.reports.push(why);
        }
    }

    fn check(&mut self, w: &dyn Workload, i: usize, out: Result<Vec<f64>, String>) {
        self.attempted += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => return self.fail(format!("{}: {e}", w.label(i))),
        };
        let want = w.expected(i);
        let close = out.len() == want.len()
            && out
                .iter()
                .zip(want)
                .all(|(a, b)| (a - b).abs() <= TOLERANCE_NS);
        if !close {
            return self.fail(format!("{}: got {out:?}, committed {want:?}", w.label(i)));
        }
        match &self.first[i] {
            None => self.first[i] = Some(out),
            Some(first) => {
                let same = first
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    let why = format!("{}: {out:?} differs from {first:?}", w.label(i));
                    self.fail(why);
                }
            }
        }
    }

    /// Hash of every point's outputs, to compare runs under other seeds.
    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for bits in self.first.iter().flatten().flatten().map(|x| x.to_bits()) {
            h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// One untraced pass in `order`: its wall-clock. Each point's latency is
/// appended to `lat_ms[point]`.
fn pass(
    w: &dyn Workload,
    order: &[usize],
    check: &mut Checker,
    lat_ms: &mut [Vec<f64>],
) -> Duration {
    let t0 = Instant::now();
    for &i in order {
        let t = Instant::now();
        let out = w.run(i);
        lat_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
        check.check(w, i, out);
    }
    t0.elapsed()
}

/// One traced pass in `order`, each point under a root span.
fn traced_pass(
    w: &dyn Workload,
    order: &[usize],
    sizes: &[PointSize],
    check: &mut Checker,
) -> (Duration, Probe) {
    let mut probe = Probe::new();
    let t0 = Instant::now();
    for &i in order {
        probe.rec.set_point(u32::try_from(i).expect("few points"));
        let root = probe.rec.open("bench.point");
        probe.expected_hops = sizes[i].packet_hops;
        let out = w.run_traced(i, &mut probe);
        check.check(w, i, out);
        probe.rec.close(root);
    }
    let wall = t0.elapsed();
    (wall, probe)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Percentile `q` of `v`, interpolated linearly between the two nearest
/// ranks.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (pos - lo as f64) * (s[hi] - s[lo])
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The last set-up's workload, the checker its warm-up passes fed, and
/// the seconds each set-up took.
struct SetUp {
    w: Box<dyn Workload>,
    check: Checker,
    seconds: Vec<f64>,
}

/// Sets up `count` times — context, engines and expected outputs, then
/// one untimed warm-up pass that fills the route cache and the scratch
/// pools — and keeps the last set-up. The warm-up runs the points in their
/// listed order, so set-up (and the pools' high-water marks it leaves) is
/// the same under every seed. The first set-up counts from process start.
fn set_up(name: &str, count: u64, start: Instant) -> Result<SetUp, String> {
    let mut seconds = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    let mut check = None;
    for k in 0..count {
        let t0 = if k == 0 { start } else { Instant::now() };
        drop(kept.take());
        let w = workload::build(name)?;
        let chk = check.get_or_insert_with(|| Checker::new(w.len()));
        let listed: Vec<usize> = (0..w.len()).collect();
        pass(&*w, &listed, chk, &mut vec![Vec::new(); w.len()]);
        seconds.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    Ok(SetUp {
        w: kept.expect("at least one set-up"),
        check: check.expect("at least one set-up"),
        seconds,
    })
}

fn run(args: &Args, start: Instant) -> Result<(), String> {
    let name = args.workload.as_str();
    let budget = Duration::from_secs(args.seconds);
    let setups = if args.trace { 1 } else { SETUPS };
    let SetUp {
        w,
        mut check,
        seconds: setup_s,
    } = set_up(name, setups, start)?;
    let routes = w.route_stats();
    let sizes = workload::point_sizes(name)?;
    let hops: u64 = sizes.iter().map(|s| s.packet_hops).sum();
    let mut passes = 0u64;
    let mut next_order = || {
        passes += 1;
        order(w.len(), args.seed, passes)
    };

    let metrics = if args.trace {
        // Untraced and traced passes alternate; the difference of their
        // walls is the tracing overhead.
        let max_ops = sizes.iter().map(|s| s.ops).max().unwrap_or(1);
        let mut layer_runs: Vec<Metrics> = Vec::new();
        let mut counts = None;
        let mut spans_json = String::new();
        let t0 = Instant::now();
        loop {
            let u = pass(
                &*w,
                &next_order(),
                &mut check,
                &mut vec![Vec::new(); w.len()],
            );
            let (t, probe) = traced_pass(&*w, &next_order(), &sizes, &mut check);
            let c = (
                probe.hops,
                probe.ops,
                probe.coalesce_attempts,
                probe.coalesce_accepts,
            );
            if *counts.get_or_insert(c) != c {
                check.fail(format!(
                    "per-layer counts changed between traced passes: {c:?}"
                ));
            }
            if spans_json.is_empty() {
                spans_json = probe.rec.to_json();
            }
            let retained = w.retained_scratch_bytes();
            layer_runs.push(layer_metrics(&probe, t, u, retained, max_ops, &routes));
            if t0.elapsed() >= budget {
                break;
            }
        }
        let metrics = median_metrics(&layer_runs);
        write_trace_files(name, &spans_json, &metrics)?;
        println!("traced passes: {}", layer_runs.len());
        metrics
    } else {
        let mut walls = Vec::new();
        let mut lat_ms = vec![Vec::new(); w.len()];
        let t0 = Instant::now();
        loop {
            let wall = pass(&*w, &next_order(), &mut check, &mut lat_ms);
            walls.push(wall.as_secs_f64());
            if t0.elapsed() >= budget {
                break;
            }
        }
        let rates: Vec<f64> = walls.iter().map(|s| hops as f64 / s).collect();
        // A point's latency is its median over the passes, so the
        // percentiles do not jump between the point clusters of pooled
        // samples as a sample lands on either side of a cluster's edge.
        let point_ms: Vec<f64> = lat_ms.iter().map(|v| median(v)).collect();
        let n = point_ms.len();
        println!(
            "passes: {} ({n} point latencies, each a median over the passes; {} beyond \
             the p90); pass walls (s): {walls:?}",
            walls.len(),
            n - 1 - (0.9 * (n - 1) as f64).floor() as usize
        );
        println!("set-ups (s): {setup_s:?}");
        vec![
            ("wall_s", median(&walls), "s"),
            ("point_p50_ms", percentile(&point_ms, 0.5), "ms"),
            ("point_p90_ms", percentile(&point_ms, 0.9), "ms"),
            ("hops_per_s", median(&rates), "1/s"),
            ("peak_rss_mb", peak_rss_mib()?, "MiB"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };

    println!(
        "workload {name}: {} points, {hops} packet-hops per pass, seed {}",
        w.len(),
        args.seed
    );
    println!(
        "checked {} point runs, {} failed (error_rate {}); output digest {:016x}",
        check.attempted,
        check.failed,
        check.failed as f64 / check.attempted as f64,
        check.digest()
    );
    for r in &check.reports {
        println!("FAILED {r}");
    }
    for (k, v, u) in &metrics {
        println!("{k:<32} {v:>20} {u}");
    }
    println!("{}", result_line(&check, &metrics));
    Ok(())
}

fn layer_metrics(
    p: &Probe,
    traced: Duration,
    untraced: Duration,
    retained: usize,
    max_ops: u64,
    routes: &meshcoll_topo::RouteCacheStats,
) -> Metrics {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ns = |n: u64| n as f64 * 1e-9;
    let rec = &p.rec;
    let self_by_layer = rec.self_seconds_by_layer();
    let layer_self = |l: &str| {
        self_by_layer
            .iter()
            .find(|(k, _)| *k == l)
            .map_or(0.0, |&(_, s)| s)
    };
    let generate = layer_self("collectives");
    let run = layer_self("sim");
    let simulate = rec.seconds_in("noc.simulate");
    let hits = routes.hits as f64;
    let misses = routes.misses as f64;
    vec![
        (
            "noc.fallback_hop_share",
            ratio(p.hops.packet_hops as f64, p.hops.all_packet_hops() as f64),
            "ratio",
        ),
        ("noc.packet_hops", p.hops.packet_hops as f64, "count"),
        ("noc.train_hops", p.hops.train_hops as f64, "count"),
        ("noc.train_splits", p.hops.train_splits as f64, "count"),
        ("noc.simulate_s", simulate, "s"),
        ("noc.reference_s", ns(p.reference_ns), "s"),
        ("noc.reference_points", p.reference_points as f64, "count"),
        (
            "noc.fastpath_speedup",
            ratio(p.reference_ns as f64, p.simulate_ns_vs_ref as f64),
            "x",
        ),
        ("noc.coalesce_attempts", p.coalesce_attempts as f64, "count"),
        ("noc.coalesce_accepts", p.coalesce_accepts as f64, "count"),
        (
            "noc.coalesce_accept_ratio",
            ratio(p.coalesce_accepts as f64, p.coalesce_attempts as f64),
            "ratio",
        ),
        ("noc.wasted_s", ns(p.wasted_ns), "s"),
        (
            "noc.auto_slower_points",
            p.auto_slower_points as f64,
            "count",
        ),
        ("noc.fastpath_drift_ns", p.drift_ns, "ns"),
        ("noc.self_s", layer_self("noc"), "s"),
        ("collectives.generate_s", generate, "s"),
        ("collectives.ops", p.ops as f64, "count"),
        ("sim.run_s", run, "s"),
        (
            "sim.self_s",
            run - simulate - rec.seconds_in("collectives.emit_with"),
            "s",
        ),
        ("sim.retained_scratch_bytes", retained as f64, "B"),
        ("sim.bytes_per_op", retained as f64 / max_ops as f64, "B/op"),
        ("topo.route_hits", hits, "count"),
        ("topo.route_misses", misses, "count"),
        ("topo.route_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("topo.route_bytes", routes.retained_bytes as f64, "B"),
        ("bench.self_s", layer_self("bench"), "s"),
        ("trace.wall_s", traced.as_secs_f64(), "s"),
        ("trace.untraced_wall_s", untraced.as_secs_f64(), "s"),
        (
            "trace.overhead_s",
            traced.as_secs_f64() - untraced.as_secs_f64(),
            "s",
        ),
        (
            "trace.self_sum_s",
            self_by_layer.iter().map(|(_, s)| s).sum(),
            "s",
        ),
    ]
}

/// Per-metric median over the traced passes.
fn median_metrics(runs: &[Metrics]) -> Metrics {
    runs[0]
        .iter()
        .enumerate()
        .map(|(j, &(name, _, unit))| {
            let values: Vec<f64> = runs.iter().map(|r| r[j].1).collect();
            (name, median(&values), unit)
        })
        .collect()
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (j, (k, v, u)) in metrics.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}").expect("String write");
    }
    out.push('}');
    out
}

fn result_line(check: &Checker, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.failed == 0,
        check.attempted,
        check.failed,
        metrics_json(metrics)
    )
}

/// Writes the traced run's spans and per-layer numbers under
/// `perfbench/out/`.
fn write_trace_files(name: &str, spans: &str, metrics: &Metrics) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for (file, body) in [
        (format!("{dir}/{name}-spans.json"), spans.to_string()),
        (format!("{dir}/{name}-layers.json"), metrics_json(metrics)),
    ] {
        std::fs::write(&file, body + "\n").map_err(|e| format!("{file}: {e}"))?;
    }
    Ok(())
}
