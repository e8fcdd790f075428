//! The static stage registry: every instrumented pipeline stage in the
//! workspace with its exposition name (every stage samples wall-clock
//! microseconds), plus the structured-event vocabulary ([`ObsEvent`]).
//!
//! Stages are a closed enum rather than string keys so span creation and
//! histogram lookup are a single array index — no hashing, no interning,
//! no allocation on the record path.

/// One instrumented pipeline stage. The discriminant doubles as the index
/// into a [`Registry`](crate::Registry)'s histogram table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Producer-side blocking enqueue into a service/cluster handle — the
    /// ingest latency a client observes, backpressure stalls included.
    IngestEnqueue,
    /// Same enqueue, sampled only while a reshard is in flight (the
    /// ROADMAP's ingest-latency-under-reshard histogram).
    IngestReshard,
    /// Flush worker: draining/absorbing queued commands into the batch.
    FlushDrain,
    /// Flush worker: the GPMA+ `flush()` apply (update kernel + monitors).
    FlushApply,
    /// Flush worker: delta + snapshot publication to readers.
    FlushPublish,
    /// One whole flush, drain → apply → publish.
    FlushTotal,
    /// Router: partitioning one ingest burst into per-shard sub-batches.
    RouteBatch,
    /// Router: forwarding coalesced sub-batches to shard services.
    Forward,
    /// Coordinated cut: the all-shards barrier round.
    CutBarrier,
    /// Coordinated cut: assembling + publishing the `ClusterSnapshot`.
    CutPublish,
    /// Encoding + persisting one shard checkpoint.
    CheckpointSave,
    /// Reshard: forwarding the pre-swap residue (ingest paused from here).
    ReshardQuiesce,
    /// Reshard: shipping the moving edges of the barrier images to their
    /// new owners (ingest keeps flowing, mirrored, around it).
    ReshardMigrate,
    /// Reshard: plan swap and retraction enqueue (ingest resumes after).
    ReshardResume,
    /// Recovery: a shard worker's death, put on the event timeline as it
    /// dies. The router learns of it from the barrier it leaves
    /// unanswered; the histogram holds, per rebuilt shard, the time from
    /// that barrier round's issue to the router finding the shard silent.
    RecoveryDetect,
    /// Recovery: checkpoint decode / snapshot rebase of the lost state.
    RecoveryRestore,
    /// Recovery: rebuild from the router's deltas and op log, and respawn.
    RecoveryReplay,
    /// Serving front: admission (quota check + queue submission) for one
    /// query — the shed/accept decision a tenant observes.
    QueryAdmit,
    /// Serving worker: executing one query against the cache's refreshed
    /// snapshot — every point query and every whole-graph cache miss
    /// (hits never reach this stage).
    QueryExec,
    /// Serving worker: answering one whole-graph query from the
    /// delta-maintained result cache (lock, any refresh, lookup).
    QueryCacheHit,
    /// One whole query, submission → completion, queue wait included.
    QueryTotal,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 21] = [
        Stage::IngestEnqueue,
        Stage::IngestReshard,
        Stage::FlushDrain,
        Stage::FlushApply,
        Stage::FlushPublish,
        Stage::FlushTotal,
        Stage::RouteBatch,
        Stage::Forward,
        Stage::CutBarrier,
        Stage::CutPublish,
        Stage::CheckpointSave,
        Stage::ReshardQuiesce,
        Stage::ReshardMigrate,
        Stage::ReshardResume,
        Stage::RecoveryDetect,
        Stage::RecoveryRestore,
        Stage::RecoveryReplay,
        Stage::QueryAdmit,
        Stage::QueryExec,
        Stage::QueryCacheHit,
        Stage::QueryTotal,
    ];

    /// Number of stages (the registry's histogram-table size).
    pub const COUNT: usize = Self::ALL.len();

    /// Index into a registry's histogram table.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Dotted exposition name (`flush.apply`, `reshard.quiesce`, …).
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestEnqueue => "ingest.enqueue",
            Stage::IngestReshard => "ingest.reshard",
            Stage::FlushDrain => "flush.drain",
            Stage::FlushApply => "flush.apply",
            Stage::FlushPublish => "flush.publish",
            Stage::FlushTotal => "flush.total",
            Stage::RouteBatch => "router.route",
            Stage::Forward => "router.forward",
            Stage::CutBarrier => "cut.barrier",
            Stage::CutPublish => "cut.publish",
            Stage::CheckpointSave => "checkpoint.save",
            Stage::ReshardQuiesce => "reshard.quiesce",
            Stage::ReshardMigrate => "reshard.migrate",
            Stage::ReshardResume => "reshard.resume",
            Stage::RecoveryDetect => "recovery.detect",
            Stage::RecoveryRestore => "recovery.restore",
            Stage::RecoveryReplay => "recovery.replay",
            Stage::QueryAdmit => "query.admit",
            Stage::QueryExec => "query.exec",
            Stage::QueryCacheHit => "query.cache_hit",
            Stage::QueryTotal => "query.total",
        }
    }
}

/// What happened, for timeline events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flush published an epoch.
    Flush,
    /// A coordinated cut published.
    Cut,
    /// A reshard started (quiesce entered).
    ReshardBegin,
    /// A reshard completed (ingest resumed).
    ReshardEnd,
    /// A shard worker was found (or made) dead.
    ShardDead,
    /// A dead shard rejoined after recovery.
    Recovered,
    /// A checkpoint was persisted.
    Checkpoint,
    /// The skew policy triggered an automatic rebalance.
    Rebalance,
}

/// One structured timeline event: *when* (µs since registry start),
/// *where* (stage + shard), *what* (kind + a kind-specific value, e.g. the
/// epoch a flush published or the microseconds a reshard paused ingest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Microseconds since the owning registry was created.
    pub ts: u64,
    /// Pipeline stage the event belongs to.
    pub stage: Stage,
    /// Shard id (`u32::MAX` for cluster-wide events).
    pub shard: u32,
    /// Epoch / cut number the event refers to (0 when not applicable).
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (duration µs, bytes, …).
    pub value: u64,
}

/// Shard id used for events not attributable to one shard.
pub const NO_SHARD: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_match_all() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::COUNT, Stage::ALL.len());
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = std::collections::HashSet::new();
        for s in Stage::ALL {
            assert!(seen.insert(s.name()), "duplicate stage name {}", s.name());
            assert!(s.name().contains('.'), "{} not dotted", s.name());
        }
    }
}
