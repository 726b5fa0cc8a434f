//! Golden bit-identity table for online fault arrival
//! ([`PacketSim::simulate_online`]).
//!
//! Each row pins, for one message DAG under a fault timeline, the full
//! online report in four variants — `SimMode::Auto` and
//! `SimMode::PerPacket`, each untraced and traced into a [`MemorySink`]:
//! the bits of every completion and per-link busy time, and, when a timed
//! fault interrupted the run, the drained snapshot (per-message delivered
//! bytes, lost bytes, the bits of `first_fault_ns` and `drain_ns`,
//! `faults_applied`, `first_lost_msg`, `first_dead_link`). Error rows pin
//! the typed error verbatim. Traced variants also pin an FNV-1a hash and
//! the length of the emitted event sequence.
//!
//! The rows cover deaths before the first start, in the middle of an
//! injection batch, on hop-1 and hop ≥ 2 links and after completion, a
//! chiplet death, scoped `Auto` runs (an unaffected component beside an
//! interrupted one, an affected component whose fast path finishes before
//! the death), flaps, `ready_at` offsets with remainder packets, and a
//! static dead route that must stay a typed `Stalled`.
//!
//! Hashes are FNV-1a over `to_bits()` of each field, stable across
//! platforms, builds and Rust versions. On a mismatch the test prints
//! every row's current values in table form.

use meshcoll_noc::{
    MemorySink, Message, MsgId, NocConfig, NocError, NullSink, OnlineReport, PacketSim, SimMode,
    TraceEvent, TraceSink,
};
use meshcoll_topo::{LinkFlap, LinkId, Mesh, NodeId};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// `None` as 0, `Some(i)` as `i + 1`.
    fn opt(&mut self, x: Option<usize>) {
        self.word(x.map_or(0, |i| i as u64 + 1));
    }

    fn text(&mut self, s: &str) {
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }
}

fn hash_trace(events: &[TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    for ev in events {
        match *ev {
            TraceEvent::Inject {
                msg,
                src,
                dst,
                bytes,
                packets,
                at_ns,
            } => {
                h.word(1);
                h.word(msg.index() as u64);
                h.word(src.index() as u64);
                h.word(dst.index() as u64);
                h.word(bytes);
                h.word(packets);
                h.f(at_ns);
            }
            TraceEvent::PacketHop {
                msg,
                packet,
                hop,
                link,
                bytes,
                arrive_ns,
                start_ns,
                busy_until_ns,
            } => {
                h.word(2);
                h.word(msg.index() as u64);
                h.word(packet);
                h.word(u64::from(hop));
                h.word(link.index() as u64);
                h.word(bytes);
                h.f(arrive_ns);
                h.f(start_ns);
                h.f(busy_until_ns);
            }
            TraceEvent::Deliver { msg, bytes, at_ns } => {
                h.word(3);
                h.word(msg.index() as u64);
                h.word(bytes);
                h.f(at_ns);
            }
            TraceEvent::TrainHop {
                msg,
                hop,
                link,
                packets,
                arrive_ns,
                first_start_ns,
                last_start_ns,
            } => {
                h.word(4);
                h.word(msg.index() as u64);
                h.word(u64::from(hop));
                h.word(link.index() as u64);
                h.word(packets);
                h.f(arrive_ns);
                h.f(first_start_ns);
                h.f(last_start_ns);
            }
            TraceEvent::TrainSplit {
                msg,
                hop,
                link,
                split_index,
                first_start_ns,
                last_start_ns,
            } => {
                h.word(5);
                h.word(msg.index() as u64);
                h.word(u64::from(hop));
                h.word(link.index() as u64);
                h.word(split_index);
                h.f(first_start_ns);
                h.f(last_start_ns);
            }
            TraceEvent::PacketDrop {
                msg,
                packet,
                hop,
                link,
                bytes,
                at_ns,
            } => {
                h.word(6);
                h.word(msg.index() as u64);
                h.word(packet);
                h.word(u64::from(hop));
                h.word(link.index() as u64);
                h.word(bytes);
                h.f(at_ns);
            }
            TraceEvent::FaultArrival { link, node, at_ns } => {
                h.word(7);
                h.opt(link.map(LinkId::index));
                h.opt(node.map(NodeId::index));
                h.f(at_ns);
            }
            TraceEvent::Drain {
                at_ns,
                lost_msgs,
                lost_bytes,
            } => {
                h.word(8);
                h.f(at_ns);
                h.word(lost_msgs);
                h.word(lost_bytes);
            }
            other => panic!("unexpected online-engine event {other:?}"),
        }
    }
    h.0
}

/// Hashes the whole report (or the typed error) and renders a one-line
/// summary of it.
fn hash_report(mesh: &Mesh, result: &Result<OnlineReport, NocError>) -> (u64, String) {
    let mut h = Fnv::new();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            let text = format!("{e:?}");
            h.text(&text);
            return (h.0, text);
        }
    };
    for &t in report.outcome.completions() {
        h.f(t);
    }
    for l in 0..mesh.link_id_space() {
        h.f(report.outcome.link_stats().busy_ns(LinkId(l)));
    }
    let Some(s) = &report.interruption else {
        h.word(0);
        return (h.0, "complete".to_string());
    };
    h.word(1);
    for (&d, &b) in s.delivered.iter().zip(&s.delivered_bytes) {
        h.word(u64::from(d));
        h.word(b);
    }
    h.word(s.lost_bytes);
    h.word(s.lost_msgs as u64);
    h.word(s.faults_applied as u64);
    h.f(s.first_fault_ns);
    h.f(s.drain_ns);
    h.opt(s.first_lost_msg.map(MsgId::index));
    h.opt(s.first_dead_link.map(LinkId::index));
    h.word(s.remaining.len() as u64);
    let summary = format!(
        "lost {} msgs / {} B, first {:?} on {:?}, {} faults, drain {} ns",
        s.lost_msgs,
        s.lost_bytes,
        s.first_lost_msg,
        s.first_dead_link,
        s.faults_applied,
        s.drain_ns
    );
    (h.0, summary)
}

/// Splitmix-style deterministic generator — same seed, same DAG, on every
/// platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random backward-dependency DAG on a `side × side` mesh. Sizes mix
/// single-packet, exact-multiple and remainder messages; readiness mixes
/// exact ties at 0 with fractional offsets.
fn random_dag(seed: u64, side: usize, n: usize) -> Vec<Message> {
    const SIZES: [u64; 6] = [100, 8192, 8192 * 3 + 777, 65_536, 65_536 + 1, 1 << 18];
    const READY: [f64; 4] = [0.0, 0.0, 137.5, 1_000.25];
    let nodes = (side * side) as u64;
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let s = rng.below(nodes) as usize;
            let mut d = rng.below(nodes) as usize;
            if s == d {
                d = (d + 1) % nodes as usize;
            }
            let bytes = SIZES[rng.below(SIZES.len() as u64) as usize];
            let ready = READY[rng.below(READY.len() as u64) as usize];
            let mut m = Message::new(MsgId(i), NodeId(s), NodeId(d), bytes).with_ready_at(ready);
            if i > 0 && rng.below(3) == 0 {
                let a = rng.below(i as u64) as usize;
                let b = rng.below(i as u64) as usize;
                m = m.with_deps(if a == b {
                    vec![MsgId(a)]
                } else {
                    vec![MsgId(a), MsgId(b)]
                });
            }
            m
        })
        .collect()
}

fn msg(id: usize, src: usize, dst: usize, bytes: u64) -> Message {
    Message::new(MsgId(id), NodeId(src), NodeId(dst), bytes)
}

fn link(mesh: &Mesh, a: usize, b: usize) -> LinkId {
    mesh.link_between(NodeId(a), NodeId(b)).unwrap()
}

fn case(name: &str) -> (NocConfig, Mesh, Vec<Message>) {
    let mut cfg = NocConfig::paper_default();
    match name {
        "death_before_first_start" => {
            // The only root becomes ready after its first link died: it is
            // withheld, and its dependent never becomes ready.
            let mesh = Mesh::new(1, 3).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 0, 1), 50.0);
            let msgs = vec![
                msg(0, 0, 2, 8192 * 3 + 5).with_ready_at(100.0),
                msg(1, 2, 0, 8192).with_deps([MsgId(0)]),
            ];
            (cfg, mesh, msgs)
        }
        "withheld_dependent" => {
            // Message 0 delivers; its dependent needs a link that died
            // before it became ready and is withheld at injection.
            let mesh = Mesh::new(1, 3).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 1, 2), 10.0);
            let msgs = vec![
                msg(0, 0, 1, 1 << 16),
                msg(1, 1, 2, 8192).with_deps([MsgId(0)]),
                msg(2, 2, 1, 8192 * 2 + 9),
            ];
            (cfg, mesh, msgs)
        }
        "death_mid_hop0_batch" => {
            // Link 0→1 dies after three packets of message 0's injection
            // batch won it; message 1 contends downstream.
            let mesh = Mesh::new(1, 4).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 0, 1), 1_000.0);
            let msgs = vec![msg(0, 0, 3, 8192 * 6 + 777), msg(1, 1, 3, 8192 * 4)];
            (cfg, mesh, msgs)
        }
        "death_on_hop1_link" => {
            let mesh = Mesh::new(1, 4).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 1, 2), 1_200.0);
            let msgs = vec![
                msg(0, 0, 3, 8192 * 6 + 777),
                msg(1, 1, 2, 8192 * 2).with_ready_at(300.25),
            ];
            (cfg, mesh, msgs)
        }
        "death_on_hop2_and_hop3_links" => {
            let mesh = Mesh::new(1, 5).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 2, 3), 1_500.0);
            cfg.timeline.link_dies_at(link(&mesh, 3, 4), 2_500.0);
            let msgs = vec![
                msg(0, 0, 4, 8192 * 8 + 5),
                msg(1, 1, 4, 8192 * 5).with_ready_at(10.5),
                msg(2, 0, 3, 8192 * 3).with_deps([MsgId(0)]),
            ];
            (cfg, mesh, msgs)
        }
        "line_funnel_death" => {
            // Every node funnels into node 5; a tail link dies mid-run.
            let mesh = Mesh::new(1, 6).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 3, 4), 4_000.0);
            let msgs = (0..5)
                .map(|i| msg(i, i, 5, 8192 * 4 + 777 * i as u64))
                .collect();
            (cfg, mesh, msgs)
        }
        "death_after_completion" => {
            let mesh = Mesh::square(4).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 5, 6), 1e9);
            (cfg, mesh, random_dag(11, 4, 24))
        }
        "chiplet_death" => {
            let mesh = Mesh::square(3).unwrap();
            cfg.timeline.chiplet_dies_at(NodeId(4), 3_000.0);
            (cfg, mesh, random_dag(12, 3, 24))
        }
        "unaffected_beside_interrupted" => {
            // Row 0: a near-tie funnel the fast path declines. Row 1: a
            // clean train. Row 2: interrupted on its hop-1 link. Rows 0
            // and 1 run long after row 2 drains.
            let mesh = Mesh::square(3).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 7, 8), 400.0);
            let msgs = vec![
                msg(0, 0, 2, 1 << 16),
                msg(1, 1, 2, 1 << 16).with_ready_at(5e-7),
                msg(2, 3, 5, 1 << 16),
                msg(3, 6, 8, 8192 * 4),
            ];
            (cfg, mesh, msgs)
        }
        "affected_fast_path_before_death" => {
            // Message 0's link dies long after it delivers; message 1 is
            // interrupted on its hop-1 link.
            let mesh = Mesh::new(2, 3).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 0, 1), 5_000.0);
            cfg.timeline.link_dies_at(link(&mesh, 4, 5), 900.0);
            let msgs = vec![msg(0, 0, 1, 8192 * 2), msg(1, 3, 5, 8192 * 6)];
            (cfg, mesh, msgs)
        }
        "flaps_plus_timeline" => {
            let mesh = Mesh::square(4).unwrap();
            for (i, (_, _, l)) in mesh.links().enumerate() {
                if i % 3 == 0 {
                    cfg.faults.add_flap(LinkFlap {
                        link: l,
                        down_ns: 500.0 + 10.0 * i as f64,
                        up_ns: 4_000.5 + 10.0 * i as f64,
                    });
                }
            }
            cfg.timeline.link_dies_at(link(&mesh, 5, 6), 3_000.0);
            cfg.timeline.chiplet_dies_at(NodeId(10), 6_000.0);
            (cfg, mesh, random_dag(13, 4, 32))
        }
        "ready_at_remainders" => {
            let mesh = Mesh::square(5).unwrap();
            cfg.timeline.chiplet_dies_at(NodeId(12), 2_000.5);
            cfg.timeline.link_dies_at(link(&mesh, 6, 7), 4_000.0);
            (cfg, mesh, random_dag(14, 5, 40))
        }
        "random_4x4_three_deaths" => {
            let mesh = Mesh::square(4).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 1, 2), 1_500.0);
            cfg.timeline.link_dies_at(link(&mesh, 9, 5), 2_500.25);
            cfg.timeline.link_dies_at(link(&mesh, 14, 15), 6_000.0);
            (cfg, mesh, random_dag(16, 4, 48))
        }
        "cycle_beside_interruption" => {
            // An interrupted run skips the dependency-cycle check: the
            // cycle's messages are simply undelivered.
            let mesh = Mesh::square(2).unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 0, 1), 500.0);
            let msgs = vec![
                msg(0, 0, 1, 8192 * 4),
                msg(1, 2, 3, 8192).with_deps([MsgId(2)]),
                msg(2, 3, 2, 8192).with_deps([MsgId(1)]),
            ];
            (cfg, mesh, msgs)
        }
        "static_dead_route" => {
            let mesh = Mesh::square(4).unwrap();
            cfg.faults
                .fail_link_between(&mesh, NodeId(5), NodeId(6))
                .unwrap();
            cfg.timeline.link_dies_at(link(&mesh, 0, 1), 2_000.0);
            (cfg, mesh, random_dag(8, 4, 40))
        }
        other => panic!("unknown golden case {other}"),
    }
}

/// One golden row. `report` holds the report hash of the four variants in
/// the order Auto, Auto traced, PerPacket, PerPacket traced; `trace` the
/// `(hash, length)` of the Auto and PerPacket event sequences. `summary`
/// renders the untraced Auto report for a reader.
struct Golden {
    name: &'static str,
    summary: &'static str,
    report: [u64; 4],
    trace: [(u64, usize); 2],
}

fn run<T: TraceSink>(
    cfg: &NocConfig,
    mesh: &Mesh,
    msgs: &[Message],
    mode: SimMode,
    sink: &mut T,
) -> (u64, String) {
    let sim = PacketSim::new(cfg.clone()).with_mode(mode);
    hash_report(mesh, &sim.simulate_online(mesh, msgs, sink))
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "death_before_first_start",
        summary: "lost 2 msgs / 0 B, first Some(MsgId(0)) on None, 1 faults, drain 100 ns",
        report: [
            0x7e37cf0fa586b3c6,
            0x7e37cf0fa586b3c6,
            0x7e37cf0fa586b3c6,
            0x7e37cf0fa586b3c6,
        ],
        trace: [(0x882dc1e952046f49, 2), (0x882dc1e952046f49, 2)],
    },
    Golden {
        name: "withheld_dependent",
        summary: "lost 1 msgs / 0 B, first Some(MsgId(1)) on None, 1 faults, drain 2789.4399999999996 ns",
        report: [
            0x06d9227405005080,
            0x06d9227405005080,
            0x06d9227405005080,
            0x06d9227405005080,
        ],
        trace: [(0x06b479a092611462, 15), (0xb2119cf125d81343, 17)],
    },
    Golden {
        name: "death_mid_hop0_batch",
        summary: "lost 1 msgs / 25353 B, first Some(MsgId(0)) on Some(LinkId(0)), 1 faults, drain 2461.7599999999998 ns",
        report: [
            0x73937667230a663f,
            0x73937667230a663f,
            0x73937667230a663f,
            0x73937667230a663f,
        ],
        trace: [(0x3bad60056462d27c, 26), (0x3bad60056462d27c, 26)],
    },
    Golden {
        name: "death_on_hop1_link",
        summary: "lost 1 msgs / 33545 B, first Some(MsgId(0)) on Some(LinkId(4)), 1 faults, drain 2144.16 ns",
        report: [
            0x6356afee0a61c532,
            0x6356afee0a61c532,
            0x6356afee0a61c532,
            0x6356afee0a61c532,
        ],
        trace: [(0xcbeb482b458ad42f, 23), (0xcbeb482b458ad42f, 23)],
    },
    Golden {
        name: "death_on_hop2_and_hop3_links",
        summary: "lost 2 msgs / 65541 B, first Some(MsgId(0)) on Some(LinkId(8)), 2 faults, drain 4564.539999999999 ns",
        report: [
            0xffa15c792146776a,
            0xffa15c792146776a,
            0xffa15c792146776a,
            0xffa15c792146776a,
        ],
        trace: [(0xe8f28cc02620d258, 48), (0xe8f28cc02620d258, 48)],
    },
    Golden {
        name: "line_funnel_death",
        summary: "lost 2 msgs / 41737 B, first Some(MsgId(1)) on Some(LinkId(12)), 1 faults, drain 5572.92 ns",
        report: [
            0x4881c708b4c72211,
            0x4881c708b4c72211,
            0x4881c708b4c72211,
            0x4881c708b4c72211,
        ],
        trace: [(0xd59d121976455079, 74), (0xd59d121976455079, 74)],
    },
    Golden {
        name: "death_after_completion",
        summary: "complete",
        report: [
            0xc3d06abffc8c5279,
            0xc3d06abffc8c5279,
            0xc98ffb8591988347,
            0xc98ffb8591988347,
        ],
        trace: [(0xc3d130ca66e3d228, 458), (0xdc4eef8becf33000, 486)],
    },
    Golden {
        name: "chiplet_death",
        summary: "lost 7 msgs / 16384 B, first Some(MsgId(19)) on Some(LinkId(19)), 1 faults, drain 15066.320000000007 ns",
        report: [
            0x0c3b7cab5ee9b752,
            0x0c3b7cab5ee9b752,
            0xe4ce7ce884905f56,
            0xe4ce7ce884905f56,
        ],
        trace: [(0xebc395b7d7eee5c7, 253), (0xebea2cc45cea85e7, 261)],
    },
    Golden {
        name: "unaffected_beside_interrupted",
        summary: "lost 1 msgs / 16384 B, first Some(MsgId(3)) on Some(LinkId(28)), 1 faults, drain 5927.5600005000015 ns",
        report: [
            0xaec8f018d37f21bd,
            0xaec8f018d37f21bd,
            0x89f5c46fc29e60e7,
            0x89f5c46fc29e60e7,
        ],
        trace: [(0x7e648acf7da611aa, 22), (0xb540a01fbed2e620, 57)],
    },
    Golden {
        name: "affected_fast_path_before_death",
        summary: "lost 1 msgs / 24576 B, first Some(MsgId(1)) on Some(LinkId(16)), 1 faults, drain 2092.08 ns",
        report: [
            0x3ad650f6ea5f4b7e,
            0x3ad650f6ea5f4b7e,
            0x3ad650f6ea5f4b7e,
            0x3ad650f6ea5f4b7e,
        ],
        trace: [(0xa3343e25cd79803b, 18), (0xd2470f8af44c8dc0, 19)],
    },
    Golden {
        name: "flaps_plus_timeline",
        summary: "lost 9 msgs / 65536 B, first Some(MsgId(12)) on Some(LinkId(27)), 2 faults, drain 33494.28000000002 ns",
        report: [
            0xc18ee59d12c9e218,
            0xc18ee59d12c9e218,
            0xc18ee59d12c9e218,
            0xc18ee59d12c9e218,
        ],
        trace: [(0xe1009cf7c9fe7b5e, 591), (0xe1009cf7c9fe7b5e, 591)],
    },
    Golden {
        name: "ready_at_remainders",
        summary: "lost 8 msgs / 278529 B, first Some(MsgId(35)) on Some(LinkId(53)), 2 faults, drain 25330.460000000017 ns",
        report: [
            0x0798cdfcf9f821eb,
            0x0798cdfcf9f821eb,
            0xd637a4229a184ba7,
            0xd637a4229a184ba7,
        ],
        trace: [(0x9facf1947c6b782a, 673), (0x25deb1459724b136, 680)],
    },
    Golden {
        name: "random_4x4_three_deaths",
        summary: "lost 5 msgs / 25354 B, first Some(MsgId(25)) on Some(LinkId(4)), 3 faults, drain 29154.480000000018 ns",
        report: [
            0x8c61063415abce9c,
            0x8c61063415abce9c,
            0x8c61063415abce9c,
            0x8c61063415abce9c,
        ],
        trace: [(0x66b1ce1d07e993de, 1085), (0x66b1ce1d07e993de, 1085)],
    },
    Golden {
        name: "cycle_beside_interruption",
        summary: "lost 3 msgs / 16384 B, first Some(MsgId(0)) on Some(LinkId(0)), 1 faults, drain 697.36 ns",
        report: [
            0x7c492938801ab978,
            0x7c492938801ab978,
            0x7c492938801ab978,
            0x7c492938801ab978,
        ],
        trace: [(0x46d1b4462c9e5d53, 7), (0x46d1b4462c9e5d53, 7)],
    },
    Golden {
        name: "static_dead_route",
        summary: "Stalled { pending_msgs: 24, last_progress_ns: 23808, first_blocked_msg: Some(MsgId(0)), first_blocked_link: Some(LinkId(25)), stalled_at_ns: 23808 }",
        report: [
            0xeecf8dbf55637560,
            0xeecf8dbf55637560,
            0xeecf8dbf55637560,
            0xeecf8dbf55637560,
        ],
        trace: [(0x7a11447b215de4ff, 464), (0x7a11447b215de4ff, 464)],
    },
];

#[test]
fn online_engine_output_is_bit_identical_to_golden() {
    let mut table = String::new();
    let mut mismatches = 0;
    for g in GOLDEN {
        let (cfg, mesh, msgs) = case(g.name);
        let mut report = [0u64; 4];
        let mut trace = [(0u64, 0usize); 2];
        let mut summary = String::new();
        for (k, mode) in [SimMode::Auto, SimMode::PerPacket].into_iter().enumerate() {
            let (plain, text) = run(&cfg, &mesh, &msgs, mode, &mut NullSink);
            let mut sink = MemorySink::new();
            let (traced, _) = run(&cfg, &mesh, &msgs, mode, &mut sink);
            report[2 * k] = plain;
            report[2 * k + 1] = traced;
            trace[k] = (hash_trace(sink.events()), sink.events().len());
            if k == 0 {
                summary = text;
            }
        }
        if summary != g.summary || report != g.report || trace != g.trace {
            mismatches += 1;
        }
        table.push_str(&format!(
            "    Golden {{\n        name: {:?},\n        summary: {summary:?},\n        report: [\n{}        ],\n        trace: [{}],\n    }},\n",
            g.name,
            report
                .iter()
                .map(|h| format!("            {h:#018x},\n"))
                .collect::<String>(),
            trace
                .iter()
                .map(|(h, n)| format!("({h:#018x}, {n})"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    assert_eq!(mismatches, 0, "current values:\n{table}");
}
