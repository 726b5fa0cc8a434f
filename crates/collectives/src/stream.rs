//! Streaming schedule generation.
//!
//! Materializing a full [`Schedule`](crate::Schedule) before lowering it to
//! simulator messages retains two copies of an O(total ops) structure —
//! fine at the paper's 256 chiplets, prohibitive at 4,096. [`OpSink`]
//! decouples op *generation* from op *storage*: every algorithm's generator
//! emits ops **in dependency order** (the same topological insertion order
//! [`ScheduleBuilder`] enforces) into any sink, through the one dispatch
//! [`Algorithm::emit_with`](crate::Algorithm::emit_with). [`ScheduleBuilder`]
//! itself is a sink, so the materialized path and the streamed path run the
//! *identical* generation code and streamed schedules are bit-identical to
//! materialized ones by construction.
//!
//! The `meshcoll-sim` engine consumes [`OpSink`] directly (its sink lowers
//! each op straight into the pooled message buffer), which is how 64×64
//! runs keep peak retained memory at one O(messages) buffer instead of
//! three (ops + deps arena + messages).

use meshcoll_topo::NodeId;

use crate::schedule::{OpId, OpKind, ScheduleBuilder};

/// Push-based consumer of a schedule's op stream.
///
/// Generators call [`OpSink::set_participants`] exactly once, *before* the
/// first op, then [`OpSink::push`] once per op in topological insertion
/// order (dependencies always refer to already-pushed ops). The returned
/// [`OpId`]s are dense (`0..n` in push order), mirroring
/// [`ScheduleBuilder::push`].
pub trait OpSink {
    /// Accepts one op; returns its dense id.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        offset: u64,
        bytes: u64,
        kind: OpKind,
        chunk: u32,
        deps: &[OpId],
    ) -> OpId;

    /// Accepts the participating (training) nodes. Called before any op.
    fn set_participants(&mut self, nodes: Vec<NodeId>);
}

impl OpSink for ScheduleBuilder {
    fn push(
        &mut self,
        src: NodeId,
        dst: NodeId,
        offset: u64,
        bytes: u64,
        kind: OpKind,
        chunk: u32,
        deps: &[OpId],
    ) -> OpId {
        ScheduleBuilder::push(self, src, dst, offset, bytes, kind, chunk, deps)
    }

    fn set_participants(&mut self, nodes: Vec<NodeId>) {
        ScheduleBuilder::set_participants(self, nodes);
    }
}
