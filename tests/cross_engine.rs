//! Cross-engine validation: the flit-level router model and the packet-level
//! event simulator must agree on real collective schedules, not just on the
//! micro-workloads in the noc crate's unit tests.

use meshcoll::collectives::Algorithm;
use meshcoll::noc::{FlitSim, Message, MsgId, NetworkSim, NocConfig, PacketSim};
use meshcoll::prelude::*;

fn schedule_to_messages(s: &meshcoll::collectives::Schedule) -> Vec<Message> {
    s.op_ids()
        .map(|id| {
            let op = s.op(id);
            Message::new(MsgId(id.index()), op.src, op.dst, op.bytes)
                .with_deps(s.deps(id).iter().map(|d| MsgId(d.index())))
        })
        .collect()
}

#[test]
fn engines_agree_on_ring_allreduce() {
    let mesh = Mesh::square(3).unwrap();
    let s = Algorithm::Ring.schedule(&mesh, 9 * 2048).unwrap();
    let msgs = schedule_to_messages(&s);
    let cfg = NocConfig::paper_default();
    let pkt = PacketSim::new(cfg.clone()).run(&mesh, &msgs).unwrap();
    let flit = FlitSim::new(cfg).run(&mesh, &msgs).unwrap();
    let ratio = flit.makespan_ns() / pkt.makespan_ns();
    assert!(
        (0.6..1.7).contains(&ratio),
        "flit {} vs packet {} (ratio {ratio})",
        flit.makespan_ns(),
        pkt.makespan_ns()
    );
}

#[test]
fn engines_agree_on_tto_overlap() {
    // TTO's chunk overlap is the mechanism under test: both engines must
    // show pipelining (many chunks barely slower than few chunks of the
    // same total bytes would suggest serially).
    let mesh = Mesh::square(3).unwrap();
    let opts = meshcoll::collectives::ScheduleOptions {
        tto_chunk_bytes: 12 * 1024,
        ..Default::default()
    };
    let s = Algorithm::Tto
        .schedule_with(&mesh, 96 * 1024, &opts)
        .unwrap();
    let msgs = schedule_to_messages(&s);
    let cfg = NocConfig::paper_default();
    let pkt = PacketSim::new(cfg.clone()).run(&mesh, &msgs).unwrap();
    let flit = FlitSim::new(cfg).run(&mesh, &msgs).unwrap();
    let ratio = flit.makespan_ns() / pkt.makespan_ns();
    assert!(
        (0.6..1.8).contains(&ratio),
        "flit {} vs packet {} (ratio {ratio})",
        flit.makespan_ns(),
        pkt.makespan_ns()
    );
}

#[test]
fn engines_on_a_degraded_link_config() {
    // Per-link degradation is a packet-engine feature: `NocConfig::bandwidth_of`
    // scales each link by `FaultModel::degradation`, while the flit-level
    // router model performs only the static dead-route check and keeps its
    // nominal per-hop timing. Both engines must still complete on a degraded
    // (not failed) config; the packet engine must slow down; and the flit
    // engine's makespan must be bit-identical to its healthy run.
    let mesh = Mesh::square(3).unwrap();
    let s = Algorithm::Ring.schedule(&mesh, 9 * 2048).unwrap();
    let msgs = schedule_to_messages(&s);

    let healthy = NocConfig::paper_default();
    let mut degraded = healthy.clone();
    for (_, _, link) in mesh.links() {
        degraded.faults.degrade_link(link, 0.5);
    }

    let pkt_healthy = PacketSim::new(healthy.clone()).run(&mesh, &msgs).unwrap();
    let pkt_degraded = PacketSim::new(degraded.clone()).run(&mesh, &msgs).unwrap();
    let flit_healthy = FlitSim::new(healthy).run(&mesh, &msgs).unwrap();
    let flit_degraded = FlitSim::new(degraded).run(&mesh, &msgs).unwrap();

    // Half bandwidth on every link: serialization doubles, per-hop latency
    // does not, so the slowdown lands between 1.4x and 2.0x.
    let slowdown = pkt_degraded.makespan_ns() / pkt_healthy.makespan_ns();
    assert!(
        (1.4..=2.0).contains(&slowdown),
        "packet engine on half-bandwidth links: healthy {} vs degraded {} (x{slowdown})",
        pkt_healthy.makespan_ns(),
        pkt_degraded.makespan_ns()
    );
    assert!(
        (flit_degraded.makespan_ns() - flit_healthy.makespan_ns()).abs() < 1e-9,
        "flit engine models no degradation, so its timing must not move: {} vs {}",
        flit_healthy.makespan_ns(),
        flit_degraded.makespan_ns()
    );
    // Cross-engine window widened by the one-sided slowdown.
    let ratio = flit_degraded.makespan_ns() / pkt_degraded.makespan_ns();
    assert!(
        (0.3..1.8).contains(&ratio),
        "flit {} vs degraded packet {} (ratio {ratio})",
        flit_degraded.makespan_ns(),
        pkt_degraded.makespan_ns()
    );
}

#[test]
fn engines_agree_on_ring_bi_odd() {
    let mesh = Mesh::square(3).unwrap();
    let s = Algorithm::RingBiOdd.schedule(&mesh, 8 * 2048).unwrap();
    let msgs = schedule_to_messages(&s);
    let cfg = NocConfig::paper_default();
    let pkt = PacketSim::new(cfg.clone()).run(&mesh, &msgs).unwrap();
    let flit = FlitSim::new(cfg).run(&mesh, &msgs).unwrap();
    let ratio = flit.makespan_ns() / pkt.makespan_ns();
    assert!((0.6..1.8).contains(&ratio), "ratio {ratio}");
}
