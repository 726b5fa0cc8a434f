//! DBTree — topology-oblivious Double Binary Tree AllReduce [59].
//!
//! Two binary trees are built over the node *ranks* (row-major ids), each
//! handling half the gradient, pipelined over fixed-size segments:
//!
//! * tree 1 is the classic in-order binary tree over 1-based ranks — odd
//!   ranks are leaves, even ranks interior,
//! * tree 2 is its mirror (`r -> N+1-r`) when `N` is even, so every rank is a
//!   leaf in one tree and interior in the other (full-bandwidth property of
//!   Sanders et al.); for odd `N` the shifted tree (`r -> r+1 mod N`) is used
//!   and the property holds approximately.
//!
//! Because ranks are mapped to chiplets without any topology awareness, tree
//! edges become multi-hop XY routes that contend heavily on a mesh — the
//! paper's motivation for topology-aware algorithms (DBTree is the weakest
//! baseline throughout the evaluation).

use meshcoll_topo::{Mesh, NodeId, Tree};

use crate::schedule::{split_bytes, split_range};
use crate::stream::OpSink;
use crate::tree_common::TreePlan;
use crate::CollectiveError;

/// Default pipeline segment size (bytes); matches TTO's default chunk for a
/// fair comparison.
pub const DEFAULT_SEGMENT_BYTES: u64 = 98_304;

/// Streams the DBTree ops for `data_bytes` of gradient per node into
/// `sink`, pipelined over `segment_bytes` segments.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] on a single-node mesh,
/// * [`CollectiveError::DataTooSmall`] when `data_bytes < 2`.
pub(crate) fn emit_with(
    mesh: &Mesh,
    data_bytes: u64,
    segment_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    let n = mesh.nodes();
    if n < 2 {
        return Err(CollectiveError::Inapplicable {
            algorithm: "DBTree",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "double binary trees need at least two nodes",
        });
    }
    let halves = split_bytes(data_bytes, 2)?;
    let trees = [
        build_tree(n, Variant::InOrder),
        build_tree(n, second_variant(n)),
    ];
    let plans: Vec<TreePlan> = trees.iter().map(|t| TreePlan::new(t, n)).collect();

    sink.set_participants(mesh.node_ids().collect());
    let mut scratch = Vec::new();
    for (plan, half) in plans.iter().zip(halves) {
        let segments = segment_count(half.1, segment_bytes);
        for (off, len) in split_range(half.0, half.0 + half.1, segments)? {
            let root_done = plan.reduce_ops(sink, (off, off + len), 0, &mut scratch);
            plan.gather_ops(sink, (off, off + len), 0, &root_done, &mut scratch);
        }
    }
    Ok(())
}

fn segment_count(bytes: u64, segment_bytes: u64) -> u64 {
    bytes.div_ceil(segment_bytes.max(1)).max(1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The in-order binary tree over ranks `1..=N`.
    InOrder,
    /// The mirrored tree (`r -> N+1-r`); complementary to `InOrder` for even `N`.
    Mirror,
    /// The shifted tree (`r -> (r mod N)+1`); used when `N` is odd.
    Shift,
}

fn second_variant(n: usize) -> Variant {
    if n.is_multiple_of(2) {
        Variant::Mirror
    } else {
        Variant::Shift
    }
}

/// Parent of 1-based rank `k` in the in-order binary tree over `1..=n`, or
/// `None` for the root (the largest power of two `<= n`).
fn in_order_parent(k: usize, n: usize) -> Option<usize> {
    let root = prev_pow2(n);
    if k == root {
        return None;
    }
    let j = k.trailing_zeros();
    let step = 1usize << j;
    let block = k >> (j + 1);
    let up = k + step;
    let down = k - step;
    let preferred = if block.is_multiple_of(2) { up } else { down };
    Some(if preferred <= n && preferred >= 1 {
        preferred
    } else {
        down
    })
}

fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// Builds one of the two trees over mesh ranks, as a [`Tree`] over node ids.
fn build_tree(n: usize, variant: Variant) -> Tree {
    // Rank transform phi maps "logical" in-order rank to physical rank.
    let phi = |k: usize| -> usize {
        match variant {
            Variant::InOrder => k,
            Variant::Mirror => n + 1 - k,
            Variant::Shift => (k % n) + 1,
        }
    };
    let root_logical = prev_pow2(n);
    let root = NodeId(phi(root_logical) - 1);
    let mut tree = Tree::new(root, n);
    // Attach in BFS order from the root so parents exist before children.
    let mut parent_of = vec![0usize; n + 1]; // physical rank -> physical parent rank
    for k in 1..=n {
        if let Some(p) = in_order_parent(k, n) {
            parent_of[phi(k)] = phi(p);
        }
    }
    // Repeatedly attach ranks whose parent is already in the tree.
    let mut attached = vec![false; n + 1];
    attached[root.index() + 1] = true;
    let mut remaining = n - 1;
    while remaining > 0 {
        let mut progressed = false;
        for r in 1..=n {
            if attached[r] {
                continue;
            }
            let p = parent_of[r];
            if attached[p] {
                tree.attach(NodeId(r - 1), NodeId(p - 1));
                attached[r] = true;
                remaining -= 1;
                progressed = true;
            }
        }
        assert!(progressed, "in-order tree construction stalled");
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Algorithm, Schedule, ScheduleOptions};

    fn schedule_with(
        mesh: &Mesh,
        data_bytes: u64,
        segment_bytes: u64,
    ) -> Result<Schedule, CollectiveError> {
        let opts = ScheduleOptions {
            dbtree_segment_bytes: segment_bytes,
            ..ScheduleOptions::default()
        };
        Algorithm::DBTree.schedule_with(mesh, data_bytes, &opts)
    }

    #[test]
    fn in_order_tree_is_connected_for_all_sizes() {
        for n in 2..=128 {
            let t = build_tree(n, Variant::InOrder);
            assert_eq!(t.len(), n, "tree over {n} ranks incomplete");
            let t2 = build_tree(n, second_variant(n));
            assert_eq!(t2.len(), n);
        }
    }

    #[test]
    fn in_order_tree_has_even_ranks_as_leaves() {
        // 1-based odd ranks are leaves of the in-order tree.
        let n = 16;
        let t = build_tree(n, Variant::InOrder);
        for k in (1..=n).step_by(2) {
            assert!(
                t.children(NodeId(k - 1)).is_empty(),
                "rank {k} should be a leaf"
            );
        }
    }

    #[test]
    fn mirror_tree_is_complementary_for_even_n() {
        // Every rank is a leaf in exactly one of the two trees.
        for n in [2usize, 4, 8, 16, 36, 64] {
            let t1 = build_tree(n, Variant::InOrder);
            let t2 = build_tree(n, Variant::Mirror);
            for r in 0..n {
                let leaf1 = t1.children(NodeId(r)).is_empty();
                let leaf2 = t2.children(NodeId(r)).is_empty();
                assert!(
                    leaf1 != leaf2,
                    "rank {} is a leaf in {} trees (n={n})",
                    r + 1,
                    if leaf1 { 2 } else { 0 }
                );
            }
        }
    }

    #[test]
    fn dbtree_allreduce_is_correct() {
        for (r, c) in [(1, 2), (2, 2), (3, 3), (4, 4), (2, 5)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = schedule_with(&mesh, 4096, 1024).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            for seed in 0..3 {
                verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
            }
        }
    }

    #[test]
    fn segments_pipeline_each_half() {
        let mesh = Mesh::square(4).unwrap();
        let s = schedule_with(&mesh, 64 * 1024, 8 * 1024).unwrap();
        // 4 segments per half, 15 reduce + 15 gather edges each.
        assert_eq!(s.len(), 2 * 4 * 2 * 15);
    }

    #[test]
    fn single_node_is_inapplicable() {
        let mesh = Mesh::new(1, 1).unwrap();
        assert!(matches!(
            Algorithm::DBTree.schedule(&mesh, 1024),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }
}
