//! MultiTree — topology-aware tree-based AllReduce (Huang et al., ISCA'21 [31]).
//!
//! One tree is grown per node (its root), all `N` trees simultaneously, by a
//! greedy conflict-free construction: construction proceeds in timesteps; in
//! each timestep every tree (visited in a rotating order for fairness) may
//! attach not-yet-covered nodes to members it already had *before* the
//! timestep, using directed links no other tree has claimed *in this
//! timestep*. Tree `k` then reduces gradient part `k` (of `N`) bottom-up and
//! gathers it top-down; because an edge attached at construction timestep `t`
//! fires at ReduceScatter step `T-1-t`, the per-timestep link-disjointness of
//! the construction translates into a conflict-free communication schedule.
//!
//! On a mesh (no wrap-around links) the greedy trees grow tall, which is the
//! latency weakness of MultiTree that TTO attacks.

use std::collections::HashSet;

use meshcoll_topo::{masked, FaultModel, LinkId, Mesh, NodeId, Tree};

use crate::schedule::{split_bytes, OpId, OpKind};
use crate::stream::OpSink;
use crate::{CollectiveError, Schedule};

/// Streams the MultiTree ops for `data_bytes` of gradient per node into
/// `sink`.
///
/// # Errors
///
/// * [`CollectiveError::Inapplicable`] on a single-node mesh,
/// * [`CollectiveError::DataTooSmall`] when `data_bytes < N`,
/// * [`CollectiveError::Construction`] if the greedy growth stalls (cannot
///   happen on a connected mesh; defensive).
pub(crate) fn emit(
    mesh: &Mesh,
    data_bytes: u64,
    sink: &mut dyn OpSink,
) -> Result<(), CollectiveError> {
    let n = mesh.nodes();
    if n < 2 {
        return Err(CollectiveError::Inapplicable {
            algorithm: "MultiTree",
            rows: mesh.rows(),
            cols: mesh.cols(),
            reason: "MultiTree needs at least two nodes",
        });
    }
    let built = build_trees(mesh)?;
    let parts = split_bytes(data_bytes, n as u64)?;

    sink.set_participants(mesh.node_ids().collect());
    emit_tree_ops(sink, &built, &parts, n);
    Ok(())
}

/// Fault-aware MultiTree: grows one conflict-free tree per *surviving*
/// chiplet over the usable links and splits the gradient `K'` ways (the dead
/// participants' shares are redistributed across the survivors, per the
/// Kumar-&-Jouppi degraded-allreduce approach).
///
/// # Errors
///
/// * [`CollectiveError::Infeasible`] when the survivors are partitioned (or
///   none survive),
/// * [`CollectiveError::DataTooSmall`] when `data_bytes` cannot split
///   `K'` ways.
pub fn schedule_masked(
    mesh: &Mesh,
    faults: &FaultModel,
    data_bytes: u64,
) -> Result<Schedule, CollectiveError> {
    let survivors = faults.surviving_nodes(mesh);
    if survivors.len() < 2 {
        return Err(CollectiveError::Infeasible {
            reason: "MultiTree repair needs at least two surviving chiplets",
        });
    }
    let built = build_trees_masked(mesh, faults)?;
    let parts = split_bytes(data_bytes, survivors.len() as u64)?;

    let mut b = Schedule::builder("MultiTree-repair", data_bytes);
    b.set_participants(survivors);
    emit_tree_ops(&mut b, &built, &parts, mesh.nodes());
    Ok(b.build())
}

/// Emits the per-tree ReduceScatter/AllGather ops; `parts[k]` is tree `k`'s
/// gradient slice.
fn emit_tree_ops(b: &mut dyn OpSink, built: &[BuiltTree], parts: &[(u64, u64)], n: usize) {
    let mut scratch: Vec<OpId> = Vec::new();
    for (k, bt) in built.iter().enumerate() {
        let (off, len) = parts[k];
        let range = (off, off + len);
        // ReduceScatter: edges in decreasing construction timestep (deepest
        // first), so every child's op exists before its parent's send.
        scratch.clear();
        scratch.resize(n, OpId(u32::MAX));
        let mut deps: Vec<OpId> = Vec::new();
        for &(child, parent, _t) in &bt.edges_desc {
            deps.clear();
            for &c in &bt.children[child.index()] {
                deps.push(scratch[c.index()]);
            }
            scratch[child.index()] = b.push(child, parent, range.0, len, OpKind::Reduce, 0, &deps);
        }
        let root = bt.tree.root();
        let root_done: Vec<OpId> = bt.children[root.index()]
            .iter()
            .map(|c| scratch[c.index()])
            .collect();
        // AllGather: edges in increasing construction timestep (shallowest
        // first), reversed direction.
        let mut down: Vec<OpId> = vec![OpId(u32::MAX); n];
        for &(child, parent, _t) in bt.edges_desc.iter().rev() {
            let d: &[OpId] = if parent == root {
                &root_done
            } else {
                std::slice::from_ref(&down[parent.index()])
            };
            down[child.index()] = b.push(parent, child, range.0, len, OpKind::Gather, 0, d);
        }
    }
}

/// One grown tree plus its construction metadata.
#[derive(Debug)]
pub struct BuiltTree {
    /// The spanning tree rooted at its node.
    pub tree: Tree,
    /// `(child, parent, construction_timestep)`, sorted by decreasing
    /// timestep (deepest edges first).
    pub edges_desc: Vec<(NodeId, NodeId, usize)>,
    /// Children lists indexed by node.
    pub children: Vec<Vec<NodeId>>,
    /// Total construction timesteps used across all trees (the synchronized
    /// ReduceScatter step count).
    pub timesteps: usize,
}

/// Grows the `N` conflict-free trees. Exposed so experiments can inspect
/// tree heights and the construction timestep count.
///
/// # Errors
///
/// Returns [`CollectiveError::Construction`] if growth stalls (defensive).
pub fn build_trees(mesh: &Mesh) -> Result<Vec<BuiltTree>, CollectiveError> {
    build_trees_masked(mesh, &FaultModel::default())
}

/// Grows one conflict-free tree per surviving chiplet, using only links that
/// are usable under `faults` (the healthy case reduces to [`build_trees`]).
///
/// # Errors
///
/// * [`CollectiveError::Infeasible`] when no chiplet survives or the
///   survivors are partitioned,
/// * [`CollectiveError::Construction`] if growth stalls (defensive).
pub fn build_trees_masked(
    mesh: &Mesh,
    faults: &FaultModel,
) -> Result<Vec<BuiltTree>, CollectiveError> {
    faults.validate(mesh)?;
    let n = mesh.nodes();
    let survivors = faults.surviving_nodes(mesh);
    let target = survivors.len();
    if target == 0 {
        return Err(CollectiveError::Infeasible {
            reason: "no surviving chiplets",
        });
    }
    if !masked::is_connected(mesh, faults) {
        return Err(CollectiveError::Infeasible {
            reason: "surviving chiplets are partitioned",
        });
    }
    let count = target;
    let mut trees: Vec<Tree> = survivors.iter().map(|&r| Tree::new(r, n)).collect();
    let mut edges: Vec<Vec<(NodeId, NodeId, usize)>> = vec![Vec::new(); count];
    let mut t = 0usize;
    while trees.iter().any(|tr| tr.len() < target) {
        let mut used: HashSet<LinkId> = HashSet::new();
        let before: Vec<Vec<bool>> = trees
            .iter()
            .map(|tr| (0..n).map(|i| tr.contains(NodeId(i))).collect())
            .collect();
        let mut progressed = false;
        for rot in 0..count {
            let k = (t + rot) % count;
            if trees[k].len() == target {
                continue;
            }
            for &v in &survivors {
                if trees[k].contains(v) {
                    continue;
                }
                for u in masked::usable_neighbors(mesh, faults, v) {
                    if !before[k][u.index()] {
                        continue;
                    }
                    let l = mesh.link_between(v, u)?;
                    if used.contains(&l) {
                        continue;
                    }
                    used.insert(l);
                    trees[k].attach(v, u);
                    edges[k].push((v, u, t));
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            return Err(CollectiveError::Construction(format!(
                "MultiTree growth stalled at timestep {t}"
            )));
        }
        t += 1;
        if t > 16 * n {
            return Err(CollectiveError::Construction(
                "MultiTree growth exceeded timestep bound".into(),
            ));
        }
    }
    Ok(trees
        .into_iter()
        .zip(edges)
        .map(|(tree, mut e)| {
            e.sort_by_key(|x| std::cmp::Reverse(x.2));
            let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for &(c, p, _) in &e {
                children[p.index()].push(c);
            }
            BuiltTree {
                tree,
                edges_desc: e,
                children,
                timesteps: t,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Algorithm};

    #[test]
    fn trees_span_and_are_valid() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (2, 5), (5, 5)] {
            let mesh = Mesh::new(r, c).unwrap();
            let built = build_trees(&mesh).unwrap();
            assert_eq!(built.len(), mesh.nodes());
            for bt in &built {
                assert_eq!(bt.tree.len(), mesh.nodes());
                assert!(bt.tree.is_valid_on(&mesh));
            }
        }
    }

    #[test]
    fn construction_timesteps_are_conflict_free() {
        let mesh = Mesh::square(4).unwrap();
        let built = build_trees(&mesh).unwrap();
        let mut seen: HashSet<(usize, LinkId)> = HashSet::new();
        for bt in &built {
            for &(c, p, t) in &bt.edges_desc {
                let l = mesh.link_between(c, p).unwrap();
                assert!(seen.insert((t, l)), "link {l} reused at timestep {t}");
            }
        }
    }

    #[test]
    fn children_attach_strictly_after_parents() {
        // A node's incoming edges (from its children) must be constructed at
        // strictly later timesteps than its own edge to its parent.
        let mesh = Mesh::square(3).unwrap();
        for bt in build_trees(&mesh).unwrap() {
            let mut ts = vec![usize::MAX; mesh.nodes()];
            for &(c, _p, t) in &bt.edges_desc {
                ts[c.index()] = t;
            }
            for &(c, p, t) in &bt.edges_desc {
                if p != bt.tree.root() {
                    assert!(
                        ts[p.index()] < t,
                        "edge ({c},{p}) at t={t} not after parent"
                    );
                }
            }
        }
    }

    #[test]
    fn multitree_allreduce_is_correct() {
        for (r, c) in [(2, 2), (3, 3), (4, 4), (1, 4), (2, 3)] {
            let mesh = Mesh::new(r, c).unwrap();
            let s = Algorithm::MultiTree.schedule(&mesh, 3600).unwrap();
            verify::check_allreduce(&mesh, &s).unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
            for seed in 0..3 {
                verify::check_allreduce_seeded(&mesh, &s, seed).unwrap();
            }
        }
    }

    #[test]
    fn static_link_usage_is_near_total() {
        // N trees rooted everywhere collectively touch almost every directed
        // link at least once; the paper's Table I "used link percentage"
        // (~53%) is the *time-averaged* busy fraction, measured by the
        // network simulator in meshcoll-sim.
        let mesh = Mesh::square(8).unwrap();
        let s = Algorithm::MultiTree.schedule(&mesh, 1 << 20).unwrap();
        let pct = crate::link_usage::used_link_percent(&mesh, &s);
        assert!(pct > 90.0, "got {pct}%");
    }
}
