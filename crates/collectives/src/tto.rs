//! TTO — Three Tree Overlap AllReduce (paper §V, Algorithm 2; the second of
//! the paper's two contributions).
//!
//! TTO builds **three directed-link-disjoint spanning trees** over a 2D mesh
//! and pipelines many gradient chunks through them:
//!
//! * tree rooted at the **top-left** corner: the first column is a chain to
//!   the root, each row hangs off its column-0 node (y-axis first),
//! * tree rooted at the **bottom-right** corner: the bottom row is a chain to
//!   the root, each column hangs off its bottom-row node (x-axis first),
//! * tree rooted at the **top-right** corner: BFS over the directed links the
//!   first two trees left free.
//!
//! Three disjoint trees that include every node are impossible (the fourth
//! corner would need three outgoing links but has two), so the **bottom-left
//! corner is excluded from training**: it contributes no gradient and only
//! relays traffic inside the first two trees. The gradient of the remaining
//! `N-1` chiplets is cut into chunks (default 96 KiB), each chunk split three
//! ways across the trees; chunk `c+1` starts flowing up a tree as soon as
//! chunk `c` releases each link, which keeps ~all tree links busy for the
//! whole AllReduce — the overlap that gives TTO its bandwidth lead.

use meshcoll_topo::{Coord, Mesh, NodeId, Tree};

use crate::schedule::{split_bytes, split_range, OpId};
use crate::stream::OpSink;
use crate::tree_common::TreePlan;
use crate::{CollectiveError, Schedule};

/// Default chunk size (paper §VI-B: 98304 B, chosen so a chunk's three
/// per-tree parts are whole packets).
pub const DEFAULT_CHUNK_BYTES: u64 = 98_304;

/// Streams the TTO ops for `data_bytes` of gradient per node into `sink`,
/// pipelined over `chunk_bytes` chunks (Fig 14 sweeps the chunk size). Ops
/// are emitted chunk by chunk, so a streaming consumer's live window is one
/// chunk's three tree traversals, not the whole pipelined schedule.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] unless both dimensions are at least 2,
/// * [`CollectiveError::DataTooSmall`] when a chunk cannot split three ways.
pub(crate) fn emit_with(
    mesh: &Mesh,
    data_bytes: u64,
    chunk_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    let trees = disjoint_trees(mesh)?;
    let excluded = excluded_node(mesh);
    let participants = mesh.node_ids().filter(|&x| x != excluded).collect();
    emit_chunks(sink, mesh, &trees, participants, data_bytes, chunk_bytes)
}

/// The chunk loop behind every TTO variant (healthy, two-tree and
/// fault-repaired): cuts the gradient into `chunk_bytes` chunks, splits
/// each chunk evenly across `trees`, and reduces then gathers every part
/// over its tree.
pub(crate) fn emit_chunks(
    sink: &mut dyn OpSink,
    mesh: &Mesh,
    trees: &[Tree],
    participants: Vec<NodeId>,
    data_bytes: u64,
    chunk_bytes: u64,
) -> Result<(), CollectiveError> {
    let n = mesh.nodes();
    let plans: Vec<TreePlan> = trees.iter().map(|t| TreePlan::new(t, n)).collect();

    let chunk_count = data_bytes.div_ceil(chunk_bytes.max(1)).max(1);
    let chunks = split_bytes(data_bytes, chunk_count)?;

    sink.set_participants(participants);
    let mut scratch: Vec<OpId> = Vec::new();
    for (c, (coff, clen)) in chunks.iter().enumerate() {
        let parts = split_range(*coff, coff + clen, plans.len() as u64)?;
        for (plan, (off, len)) in plans.iter().zip(parts) {
            let range = (off, off + len);
            let root_done = plan.reduce_ops(sink, range, c as u32, &mut scratch);
            plan.gather_ops(sink, range, c as u32, &root_done, &mut scratch);
        }
    }
    Ok(())
}

/// Ablation variant: chunk overlap over only **two** disjoint trees (the
/// top-left and bottom-right rooted trees), keeping **all `N` chiplets
/// training** — with two trees no corner needs three outgoing links, so no
/// node must be excluded.
///
/// This is the design alternative the paper's §V-B discussion implicitly
/// rejects: it trades TTO's third tree (a third of the bandwidth) for one
/// extra training chiplet. The `ablation_tto_trees` benchmark quantifies
/// that trade-off.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] unless both dimensions are at least 2,
/// * [`CollectiveError::DataTooSmall`] when a chunk cannot split two ways.
pub fn two_tree_schedule_with(
    mesh: &Mesh,
    data_bytes: u64,
    chunk_bytes: u64,
) -> Result<Schedule, CollectiveError> {
    let trees = disjoint_trees(mesh)?;
    let mut b = Schedule::builder("TTO-2tree", data_bytes);
    let participants = mesh.node_ids().collect();
    emit_chunks(
        &mut b,
        mesh,
        &trees[..2],
        participants,
        data_bytes,
        chunk_bytes,
    )?;
    Ok(b.build())
}

/// The corner excluded from training: bottom-left (paper Algorithm 2's node
/// `n(m-1)+1` in 1-based row-major numbering).
pub fn excluded_node(mesh: &Mesh) -> NodeId {
    mesh.node_at(Coord::new(mesh.rows() - 1, 0))
}

/// Builds the three directed-link-disjoint spanning trees (paper Fig 6 /
/// Algorithm 2). Trees 0 and 1 (top-left and bottom-right roots) contain
/// every node, including the excluded bottom-left corner, which acts as a
/// relay; tree 2 (top-right root) contains every node *except* the excluded
/// corner.
///
/// # Errors
///
/// Returns [`CollectiveError::Inapplicable`] unless both dimensions are at
/// least 2.
///
/// # Example
///
/// ```
/// use meshcoll_collectives::tto;
/// use meshcoll_topo::Mesh;
/// let mesh = Mesh::square(3)?;
/// let trees = tto::disjoint_trees(&mesh)?;
/// assert_eq!(trees[0].root().index(), 0); // top-left
/// assert_eq!(trees[1].root().index(), 8); // bottom-right
/// assert_eq!(trees[2].root().index(), 2); // top-right
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn disjoint_trees(mesh: &Mesh) -> Result<[Tree; 3], CollectiveError> {
    let (m, n) = (mesh.rows(), mesh.cols());
    if m < 2 || n < 2 {
        return Err(CollectiveError::Inapplicable {
            algorithm: "TTO",
            rows: m,
            cols: n,
            reason: "three disjoint trees need both dimensions of size at least 2",
        });
    }
    let count = mesh.nodes();
    let at = |r: usize, c: usize| mesh.node_at(Coord::new(r, c));

    // Tree rooted at the top-left corner: y-axis first.
    let mut t_tl = Tree::new(at(0, 0), count);
    for r in 1..m {
        t_tl.attach(at(r, 0), at(r - 1, 0));
    }
    for r in 0..m {
        for c in 1..n {
            t_tl.attach(at(r, c), at(r, c - 1));
        }
    }

    // Tree rooted at the bottom-right corner: x-axis first.
    let mut t_br = Tree::new(at(m - 1, n - 1), count);
    for c in (0..n - 1).rev() {
        t_br.attach(at(m - 1, c), at(m - 1, c + 1));
    }
    for c in 0..n {
        for r in (0..m - 1).rev() {
            t_br.attach(at(r, c), at(r + 1, c));
        }
    }

    // Tree rooted at the top-right corner: BFS over the remaining directed
    // links (east links above the bottom row, north links right of the first
    // column), skipping the excluded bottom-left corner.
    let excluded = excluded_node(mesh);
    let mut t_tr = Tree::new(at(0, n - 1), count);
    let mut queue = std::collections::VecDeque::from([at(0, n - 1)]);
    let free_link = |child: NodeId, parent: NodeId| -> bool {
        let cc = mesh.coord(child);
        let pc = mesh.coord(parent);
        // east link child -> parent (parent is right neighbor), valid above
        // the bottom row...
        (cc.row == pc.row && pc.col == cc.col + 1 && cc.row < m - 1)
            // ...or north link child -> parent (parent above), valid right of
            // the first column.
            || (cc.col == pc.col && pc.row + 1 == cc.row && cc.col > 0)
    };
    while let Some(u) = queue.pop_front() {
        for v in mesh.neighbors(u) {
            if v == excluded || t_tr.contains(v) || !free_link(v, u) {
                continue;
            }
            t_tr.attach(v, u);
            queue.push_back(v);
        }
    }
    if t_tr.len() != count - 1 {
        return Err(CollectiveError::Construction(format!(
            "third TTO tree covers {} of {} nodes on a {m}x{n} mesh",
            t_tr.len(),
            count - 1
        )));
    }
    Ok([t_tl, t_br, t_tr])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{link_usage, verify, Algorithm, ScheduleOptions};
    use std::collections::HashSet;

    fn schedule_with(
        mesh: &Mesh,
        data_bytes: u64,
        chunk_bytes: u64,
    ) -> Result<Schedule, CollectiveError> {
        let opts = ScheduleOptions {
            tto_chunk_bytes: chunk_bytes,
            ..ScheduleOptions::default()
        };
        Algorithm::Tto.schedule_with(mesh, data_bytes, &opts)
    }

    fn all_sizes() -> Vec<(usize, usize)> {
        vec![
            (2, 2),
            (3, 3),
            (3, 5),
            (4, 4),
            (5, 3),
            (5, 5),
            (6, 6),
            (8, 8),
            (9, 9),
        ]
    }

    #[test]
    fn trees_are_directed_link_disjoint() {
        for (r, c) in all_sizes() {
            let mesh = Mesh::new(r, c).unwrap();
            let trees = disjoint_trees(&mesh).unwrap();
            let mut seen = HashSet::new();
            for t in &trees {
                assert!(t.is_valid_on(&mesh));
                for l in t.links_up(&mesh) {
                    assert!(seen.insert(l), "{r}x{c}: link {l} shared between trees");
                }
            }
        }
    }

    #[test]
    fn trees_cover_expected_nodes() {
        for (r, c) in all_sizes() {
            let mesh = Mesh::new(r, c).unwrap();
            let trees = disjoint_trees(&mesh).unwrap();
            let ex = excluded_node(&mesh);
            assert_eq!(trees[0].len(), mesh.nodes());
            assert_eq!(trees[1].len(), mesh.nodes());
            assert_eq!(trees[2].len(), mesh.nodes() - 1);
            assert!(!trees[2].contains(ex));
            assert!(trees[0].contains(ex) && trees[1].contains(ex));
        }
    }

    #[test]
    fn tree_heights_are_minimal() {
        // Paper §V-C: heights are 2n-2 for an n x n mesh (the first two
        // trees; the BFS tree can be shorter).
        for n in [3usize, 5, 8, 9] {
            let mesh = Mesh::square(n).unwrap();
            let trees = disjoint_trees(&mesh).unwrap();
            assert_eq!(trees[0].height(), 2 * n - 2);
            assert_eq!(trees[1].height(), 2 * n - 2);
            assert!(trees[2].height() <= 2 * n - 2);
        }
    }

    #[test]
    fn paper_fig6_roots_and_exclusion() {
        let mesh = Mesh::square(3).unwrap();
        let trees = disjoint_trees(&mesh).unwrap();
        // Paper numbers 1-based: roots 1, 9, 3; excluded 7.
        assert_eq!(trees[0].root(), NodeId(0));
        assert_eq!(trees[1].root(), NodeId(8));
        assert_eq!(trees[2].root(), NodeId(2));
        assert_eq!(excluded_node(&mesh), NodeId(6));
    }

    #[test]
    fn tto_allreduce_is_correct() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (3, 5)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = schedule_with(&mesh, 4096, 512).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            for seed in 0..3 {
                verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
            }
        }
    }

    #[test]
    fn two_tree_variant_is_correct_and_includes_all_nodes() {
        for (r, c) in [(2, 2), (3, 3), (4, 4)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = two_tree_schedule_with(&mesh, 4096, 512).unwrap();
            assert_eq!(s.participants().len(), mesh.nodes());
            verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            verify::check_allreduce_seeded(&mesh, &s, 11).unwrap();
        }
    }

    #[test]
    fn excluded_node_is_not_a_participant() {
        let mesh = Mesh::square(3).unwrap();
        let s = schedule_with(&mesh, 1024, 512).unwrap();
        assert_eq!(s.participants().len(), 8);
        assert!(!s.participants().contains(&NodeId(6)));
    }

    #[test]
    fn chunk_count_follows_chunk_size() {
        let mesh = Mesh::square(3).unwrap();
        let s = schedule_with(&mesh, 10_000, 1000).unwrap();
        let max_chunk = s.ops().iter().map(|o| o.chunk).max().unwrap();
        assert_eq!(max_chunk, 9);
    }

    #[test]
    fn link_usage_matches_paper_9x9() {
        // Paper §V-B / Fig 12: 3 trees x 80 links = 240 of 288 directed
        // links on a 9x9 mesh (~83%).
        let mesh = Mesh::square(9).unwrap();
        let s = schedule_with(&mesh, 1 << 20, DEFAULT_CHUNK_BYTES).unwrap();
        let used = link_usage::used_links(&mesh, &s).len();
        // ReduceScatter alone uses the up-links of all three trees
        // (80 + 80 + 79 = 239 of 288 directed links, 83%); AllGather adds
        // their reverses, so static usage is at least that.
        assert!(used >= 239, "used {used}");
        assert!(used <= mesh.directed_links());
    }

    #[test]
    fn one_dimensional_mesh_is_inapplicable() {
        let mesh = Mesh::new(1, 8).unwrap();
        assert!(matches!(
            Algorithm::Tto.schedule(&mesh, 1 << 20),
            Err(CollectiveError::Inapplicable { .. })
        ));
    }
}
