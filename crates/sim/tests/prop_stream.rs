//! Property sweep for the streaming fast path: over random mesh/torus
//! shapes, algorithms, gradient sizes, and fault masks, the streamed run
//! must be bit-identical to the materialized one — result for result (or
//! error for error) through the full simulation pipeline.

use meshcoll_collectives::{Algorithm, ScheduleOptions};
use meshcoll_noc::NocConfig;
use meshcoll_sim::SimEngine;
use meshcoll_topo::Mesh;
use proptest::prelude::*;

const ALGOS: [Algorithm; 7] = [
    Algorithm::Ring,
    Algorithm::RingBiEven,
    Algorithm::RingBiOdd,
    Algorithm::MultiTree,
    Algorithm::Tto,
    Algorithm::DBTree,
    Algorithm::Ring2D,
];

fn opts() -> ScheduleOptions {
    ScheduleOptions {
        tto_chunk_bytes: 4096,
        dbtree_segment_bytes: 4096,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Through the engines — healthy or under a random static fault mask —
    /// the streamed run returns exactly what the materialized run returns:
    /// the same timing on success, the same diagnostic on failure.
    #[test]
    fn streamed_run_equals_materialized_under_fault_masks(
        rows in 3usize..7,
        cols in 3usize..7,
        torus in 0usize..2,
        algo in 0usize..ALGOS.len(),
        data_kb in 16u64..128,
        dead_links in 0usize..3,
        degrade in 0usize..2,
        victim in 0usize..1024,
    ) {
        let mesh = if torus == 1 {
            Mesh::torus(rows, cols).unwrap()
        } else {
            Mesh::new(rows, cols).unwrap()
        };
        let a = ALGOS[algo];
        let d = data_kb * 1024;
        if a.schedule_with(&mesh, d, &opts()).is_err() {
            return Ok(());
        }

        let mut noc = NocConfig::paper_default();
        let links: Vec<_> = mesh.links().collect();
        for k in 0..dead_links {
            let (_, _, l) = links[(victim + k * 37) % links.len()];
            noc.faults.fail_link(l);
        }
        if degrade == 1 {
            let (_, _, l) = links[(victim + 101) % links.len()];
            noc.faults.degrade_link(l, 0.5);
        }
        let engine = SimEngine::new(noc);

        let s = a.schedule_with(&mesh, d, &opts()).unwrap();
        let materialized = engine.run(&mesh, &s);
        let streamed = engine.run_streamed(&mesh, a, d, &opts());
        match (materialized, streamed) {
            (Ok(m), Ok(st)) => prop_assert_eq!(m, st),
            (Err(m), Err(st)) => prop_assert_eq!(format!("{m:?}"), format!("{st:?}")),
            (m, st) => {
                return Err(TestCaseError::fail(format!(
                    "{a} on {mesh}: materialized {m:?} vs streamed {st:?}"
                )));
            }
        }
    }
}
