//! The traced run's instruments: a span recorder around every layer call
//! the benchmark makes, and a counting [`TraceSink`] for the network
//! engines' hop events.

use std::fmt::Write as _;
use std::time::Instant;

use meshcoll_noc::{TraceEvent, TraceSink};

/// One timed call into a layer. Spans of one sweep point share `point`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub point: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; they are written out once the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    point: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Tags every span opened from now on with sweep point `point`.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part its child spans cover, summed by layer (sorted by name).
    pub fn self_seconds_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *by_layer.entry(s.layer()).or_default() += s.dur_ns() - c;
        }
        by_layer
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 * 1e-9))
            .collect()
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn seconds_in(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n  {{\"id\": {i}, \"parent\": {parent}, \"point\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.point, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]");
        out
    }
}

/// Counts the hop events of a traced network run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HopCounter {
    /// Packet-hops served by the per-packet engine.
    pub packet_hops: u64,
    /// Whole-train link traversals on the coalescing fast path.
    pub train_hops: u64,
    /// Packet-hops the fast path's trains carried.
    pub train_packet_hops: u64,
    /// Trains the fast path split around an interloper.
    pub train_splits: u64,
}

impl HopCounter {
    pub fn add(&mut self, o: HopCounter) {
        self.packet_hops += o.packet_hops;
        self.train_hops += o.train_hops;
        self.train_packet_hops += o.train_packet_hops;
        self.train_splits += o.train_splits;
    }

    /// All packet-hops, whichever engine served them.
    pub fn all_packet_hops(&self) -> u64 {
        self.packet_hops + self.train_packet_hops
    }
}

impl TraceSink for HopCounter {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PacketHop { .. } => self.packet_hops += 1,
            TraceEvent::TrainHop { packets, .. } => {
                self.train_hops += 1;
                self.train_packet_hops += packets;
            }
            TraceEvent::TrainSplit { .. } => self.train_splits += 1,
            _ => {}
        }
    }
}
