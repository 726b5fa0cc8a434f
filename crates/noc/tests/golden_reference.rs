//! Golden bit-identity table for the exact per-packet reference engine.
//!
//! Each row pins, for one message DAG, the bits of every completion time and
//! every per-link busy time, and a stable FNV-1a hash over the bits of the
//! full `run_reference_traced` event sequence (or, for the error rows, the
//! typed error verbatim). The reference engine's event loop may be
//! restructured for speed, but its output must not move by a single bit:
//! pop order, link arithmetic, busy-time accumulation order and trace order
//! all feed these values.
//!
//! The hashes are FNV-1a over `to_bits()` of each field, so they are stable
//! across platforms, builds and Rust versions (unlike `DefaultHasher`). On a
//! mismatch the test prints every row's current values in table form.

use meshcoll_noc::{MemorySink, Message, MsgId, NocConfig, PacketSim, SimOutcome, TraceEvent};
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
            other => panic!("unexpected reference-engine event {other:?}"),
        }
    }
    h.0
}

fn hash_outcome(out: &SimOutcome, mesh: &Mesh) -> (u64, u64) {
    let mut c = Fnv::new();
    for &t in out.completions() {
        c.f(t);
    }
    let mut b = Fnv::new();
    for l in 0..mesh.link_id_space() {
        b.f(out.link_stats().busy_ns(LinkId(l)));
    }
    (c.0, b.0)
}

fn hash_auto(sim: &PacketSim, mesh: &Mesh, msgs: &[Message]) -> u64 {
    let mut h = Fnv::new();
    match sim.simulate(mesh, msgs) {
        Ok(out) => {
            let (c, b) = hash_outcome(&out, mesh);
            h.word(c);
            h.word(b);
        }
        Err(e) => {
            for byte in format!("{e:?}").bytes() {
                h.word(u64::from(byte));
            }
        }
    }
    h.0
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

/// Every message on a 1×`len` line heads for the last node: routes of 1 up
/// to `len - 1` hops contend on the shared tail links, injected at the same
/// instant (exact ties broken by injection order).
fn line_funnel(len: usize, bytes: u64) -> Vec<Message> {
    (0..len - 1)
        .map(|i| Message::new(MsgId(i), NodeId(i), NodeId(len - 1), bytes + 777 * i as u64))
        .collect()
}

/// One golden row: the DAG's name and its pinned values. `expect` is
/// `Ok((makespan bits, completions hash, busy hash))` or the typed error's
/// `Debug` form; `trace` is `(hash, length)` of the traced event sequence,
/// for error rows the events emitted before the engine gave up.
struct Golden {
    name: &'static str,
    expect: Result<(u64, u64, u64), &'static str>,
    trace: (u64, usize),
    /// Hash of the default [`PacketSim::simulate`] outcome (completion and
    /// busy bits, or the error's `Debug` form), which mixes the fast path
    /// with per-component fallbacks onto this engine.
    auto: u64,
}

fn case(name: &str) -> (NocConfig, Mesh, Vec<Message>) {
    let mut cfg = NocConfig::paper_default();
    match name {
        "one_hop_single_packet" => {
            let msgs = vec![Message::new(MsgId(0), NodeId(0), NodeId(1), 100)];
            (cfg, Mesh::new(1, 2).unwrap(), msgs)
        }
        "two_hop_remainder_chain" => {
            let msgs = vec![
                Message::new(MsgId(0), NodeId(0), NodeId(2), 8192 * 5 + 777),
                Message::new(MsgId(1), NodeId(2), NodeId(0), 8192 * 2 + 1)
                    .with_deps([MsgId(0)])
                    .with_ready_at(50.5),
            ];
            (cfg, Mesh::new(1, 3).unwrap(), msgs)
        }
        "line_funnel_1_to_6_hops" => (cfg, Mesh::new(1, 7).unwrap(), line_funnel(7, 8192 * 6)),
        "line_funnel_1mb" => (cfg, Mesh::new(1, 5).unwrap(), line_funnel(5, 1 << 20)),
        "random_4x4_a" => (cfg, Mesh::square(4).unwrap(), random_dag(1, 4, 24)),
        "random_4x4_b" => (cfg, Mesh::square(4).unwrap(), random_dag(2, 4, 40)),
        "random_5x5_ready_at" => (cfg, Mesh::square(5).unwrap(), random_dag(3, 5, 48)),
        "random_8x8_long_routes" => (cfg, Mesh::square(8).unwrap(), random_dag(4, 8, 32)),
        "degraded_and_overrides" => {
            let mesh = Mesh::square(4).unwrap();
            for (i, (_, _, l)) in mesh.links().enumerate() {
                match i % 4 {
                    0 => cfg.faults.degrade_link(l, 0.5),
                    1 => cfg.link_overrides.push((l, cfg.link_bandwidth / 3.0)),
                    _ => {}
                }
            }
            (cfg, mesh, random_dag(5, 4, 32))
        }
        "flapped" => {
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
            (cfg, mesh, random_dag(6, 4, 32))
        }
        "flapped_and_degraded" => {
            let mesh = Mesh::square(4).unwrap();
            for (i, (_, _, l)) in mesh.links().enumerate() {
                match i % 3 {
                    0 => cfg.faults.degrade_link(l, 0.25),
                    1 => cfg.faults.add_flap(LinkFlap {
                        link: l,
                        down_ns: 0.0,
                        up_ns: 2_500.0,
                    }),
                    _ => {}
                }
            }
            (cfg, mesh, random_dag(7, 4, 32))
        }
        "stalled_dead_link" => {
            let mesh = Mesh::square(4).unwrap();
            cfg.faults
                .fail_link_between(&mesh, NodeId(5), NodeId(6))
                .unwrap();
            (cfg, mesh, random_dag(8, 4, 40))
        }
        "dependency_cycle" => {
            let mut msgs = random_dag(9, 4, 12);
            msgs.push(Message::new(MsgId(12), NodeId(0), NodeId(5), 8192).with_deps([MsgId(13)]));
            msgs.push(Message::new(MsgId(13), NodeId(5), NodeId(0), 8192).with_deps([MsgId(12)]));
            (cfg, Mesh::square(4).unwrap(), msgs)
        }
        other => panic!("unknown golden case {other}"),
    }
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "one_hop_single_packet",
        expect: Ok((0x4039000000000000, 0xa8060232277538e4, 0x62410134041b2864)),
        trace: (0xb592b94cc2c1df61, 3),
        auto: 0xd5b09da105c85f7c,
    },
    Golden {
        name: "two_hop_remainder_chain",
        expect: Ok((0x40a3f7c28f5c28f5, 0x72a8a0331a032636, 0xad632fc73419a5b5)),
        trace: (0x7ae35b94f293861f, 22),
        auto: 0xbbbd9ba9a99e542d,
    },
    Golden {
        name: "line_funnel_1_to_6_hops",
        expect: Ok((0x40c9a1d70a3d70a7, 0x175afa88159fe1f0, 0x5fad6932eb1bbb40)),
        trace: (0x3b6e50e2fa26bf45, 153),
        auto: 0x285d22c76d00a38f,
    },
    Golden {
        name: "line_funnel_1mb",
        expect: Ok((0x4105d2ad1eb8519f, 0xe17b2395f8044226, 0xd311ea35d8119065)),
        trace: (0xd4d23b9ac60ded54, 1294),
        auto: 0x7af953a843d81381,
    },
    Golden {
        name: "random_4x4_a",
        expect: Ok((0x40d382f333333336, 0x5882a16295e11677, 0x0ee2b11393113dfb)),
        trace: (0x79de947b9605d751, 501),
        auto: 0xa44919de9820f3ff,
    },
    Golden {
        name: "random_4x4_b",
        expect: Ok((0x40dbbfc7ae147ae6, 0xb9a50f7664b7ab5e, 0x77fe2ee9b9cb63cb)),
        trace: (0xaf6fce6f3fb24766, 1013),
        auto: 0x18320280af47a976,
    },
    Golden {
        name: "random_5x5_ready_at",
        expect: Ok((0x40e0f12f5c28f5c6, 0x14d451ebaaf827e5, 0x615c3f4ba26fb827)),
        trace: (0x8d6f148b22dceeae, 1609),
        auto: 0x4f64f8836ec76fe0,
    },
    Golden {
        name: "random_8x8_long_routes",
        expect: Ok((0x40dc207333333338, 0x34e40ff109f95c57, 0x3cee21a6d6a7722d)),
        trace: (0x25a0ed14ba4e3462, 1337),
        auto: 0xb57503721595027a,
    },
    Golden {
        name: "degraded_and_overrides",
        expect: Ok((0x40e5a6a800000004, 0x03948173552b0a34, 0xed709f77d20174ac)),
        trace: (0x27c212f24424840d, 583),
        auto: 0x448583643991408c,
    },
    Golden {
        name: "flapped",
        expect: Ok((0x40d4a70b851eb856, 0x4b2e89de1a5dc06e, 0x768659dc87141368)),
        trace: (0xfde4bcdf07f9914c, 657),
        auto: 0x45f00d5efb4b95d1,
    },
    Golden {
        name: "flapped_and_degraded",
        expect: Ok((0x40f5264cccccccd0, 0x4244e13c58307b1c, 0x9b4c1cf08a476b18)),
        trace: (0xf0148337f8327148, 670),
        auto: 0xe6eb3a78c393b2f4,
    },
    Golden {
        name: "stalled_dead_link",
        expect: Err("Stalled { pending_msgs: 24, last_progress_ns: 23808, first_blocked_msg: Some(MsgId(0)), first_blocked_link: Some(LinkId(25)), stalled_at_ns: 23808 }"),
        trace: (0x7a11447b215de4ff, 464),
        auto: 0xeecf8dbf55637560,
    },
    Golden {
        name: "dependency_cycle",
        expect: Err("DependencyCycle { stuck: 2 }"),
        trace: (0x91cb78014d49e18d, 277),
        auto: 0x7151cdf7e8691b6e,
    },
];

#[test]
fn reference_engine_output_is_bit_identical_to_golden() {
    let mut report = String::new();
    let mut mismatches = 0;
    for g in GOLDEN {
        let (cfg, mesh, msgs) = case(g.name);
        let sim = PacketSim::new(cfg);
        let mut sink = MemorySink::new();
        let got = match sim.run_reference_traced(&mesh, &msgs, &mut sink) {
            Ok(out) => {
                let (c, b) = hash_outcome(&out, &mesh);
                Ok((out.makespan_ns().to_bits(), c, b))
            }
            Err(e) => Err(format!("{e:?}")),
        };
        let trace = (hash_trace(sink.events()), sink.events().len());
        let auto = hash_auto(&sim, &mesh, &msgs);
        let ok = match (&got, &g.expect) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a == b,
            _ => false,
        } && trace == g.trace
            && auto == g.auto;
        if !ok {
            mismatches += 1;
        }
        let expect = match &got {
            Ok((m, c, b)) => format!("Ok(({m:#018x}, {c:#018x}, {b:#018x}))"),
            Err(e) => format!("Err({e:?})"),
        };
        report.push_str(&format!(
            "    Golden {{\n        name: {:?},\n        expect: {expect},\n        trace: ({:#018x}, {}),\n        auto: {auto:#018x},\n    }},\n",
            g.name, trace.0, trace.1
        ));
    }
    assert_eq!(mismatches, 0, "current values:\n{report}");
}
