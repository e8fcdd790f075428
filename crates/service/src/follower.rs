//! Read-only follower replicas that tail a leader's delta ring.
//!
//! A [`Follower`] holds its own immutable [`GraphSnapshot`] and catches up
//! by pulling the missing delta chain from the leader's bounded
//! [`DeltaLog`](gpma_core::delta::DeltaLog) ring
//! ([`StreamingService::deltas_since`]). When the follower lags past the
//! ring capacity it is *rebased* onto a full leader snapshot instead — the
//! same outrun fallback the incremental engine uses — and the event is
//! counted. Reads never touch the leader at all, so follower replicas scale
//! read throughput at the cost of bounded, measured staleness.
//!
//! The follower is deliberately passive (no thread of its own): callers
//! choose the sync cadence, which is exactly the staleness-vs-throughput
//! knob the `recovery` experiment sweeps.

use std::sync::Arc;

use gpma_core::delta::{apply_delta, DeltaCatchUp};
use gpma_core::framework::GraphSnapshot;
use gpma_obs::{Registry as ObsRegistry, Stage};

use crate::service::StreamingService;

/// A passive read-only replica of a [`StreamingService`] leader.
///
/// Create one with [`StreamingService::spawn_follower`], then alternate
/// [`sync`](Self::sync) (pull the leader's delta chain) and
/// [`query`](Self::query) (serve reads from local state) on whatever
/// cadence the read path wants.
pub struct Follower {
    state: Arc<GraphSnapshot>,
    syncs: u64,
    deltas_applied: u64,
    rebases: u64,
    reads: u64,
    lag_sum: u64,
    lag_max: u64,
    /// Telemetry sink for the `follower.staleness` histogram — the leader's
    /// registry when spawned via [`StreamingService::spawn_follower`], a
    /// private inert one for hand-built followers.
    obs: Arc<ObsRegistry>,
}

/// Replication counters frozen by [`Follower::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FollowerStats {
    /// Epoch of the follower's current local snapshot.
    pub epoch: u64,
    /// Reads served from local state.
    pub reads: u64,
    /// [`Follower::sync`] calls made.
    pub syncs: u64,
    /// Epoch deltas applied across all syncs.
    pub deltas_applied: u64,
    /// Full-snapshot rebases forced by outrunning the leader's delta ring.
    pub rebases: u64,
    /// Mean staleness observed at sync time (epochs the follower was
    /// behind, averaged over syncs).
    pub avg_staleness: f64,
    /// Worst staleness observed at any single sync (epochs).
    pub max_staleness: u64,
}

impl Follower {
    /// A follower seeded from `initial` local state (epoch-stamped). Used
    /// by [`StreamingService::spawn_follower`]; public so recovery tooling
    /// can seed a follower straight from a restored checkpoint.
    pub fn new(initial: Arc<GraphSnapshot>) -> Self {
        Follower {
            state: initial,
            syncs: 0,
            deltas_applied: 0,
            rebases: 0,
            reads: 0,
            lag_sum: 0,
            lag_max: 0,
            obs: Arc::new(ObsRegistry::disabled()),
        }
    }

    /// Redirect staleness telemetry into `obs` (normally the leader's
    /// registry). Builder-style; used by
    /// [`StreamingService::spawn_follower`].
    pub fn with_obs(mut self, obs: Arc<ObsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// Epoch of the follower's local snapshot.
    pub fn epoch(&self) -> u64 {
        self.state.epoch()
    }

    /// The follower's local snapshot (cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.state.clone()
    }

    /// Serve a read from local state — never touches the leader.
    pub fn query<R>(&mut self, f: impl FnOnce(&GraphSnapshot) -> R) -> R {
        self.reads += 1;
        f(&self.state)
    }

    /// Epochs the follower currently trails the leader's latest published
    /// snapshot by (instantaneous staleness, without syncing).
    pub fn lag(&self, leader: &StreamingService) -> u64 {
        leader.latest_epoch().saturating_sub(self.state.epoch())
    }

    /// Catch up from the leader: apply the missing delta chain when the
    /// ring still covers this follower's epoch, or rebase onto a full
    /// leader snapshot when outrun. Returns the number of epochs advanced
    /// and records it as the staleness observed at this sync.
    pub fn sync(&mut self, leader: &StreamingService) -> u64 {
        self.syncs += 1;
        let advanced = match leader.deltas_since(self.state.epoch()) {
            DeltaCatchUp::Deltas(chain) => {
                if let Some(first) = chain.first() {
                    let mut state = apply_delta(&self.state, first);
                    for d in &chain[1..] {
                        state = apply_delta(&state, d);
                    }
                    self.state = Arc::new(state);
                }
                self.deltas_applied += chain.len() as u64;
                chain.len() as u64
            }
            DeltaCatchUp::Snapshot(snap) => {
                let jump = snap.epoch().saturating_sub(self.state.epoch());
                self.state = snap;
                self.rebases += 1;
                jump
            }
        };
        self.lag_sum += advanced;
        self.lag_max = self.lag_max.max(advanced);
        // Staleness-at-sync feeds the `follower.staleness` histogram — the
        // one stage measured in epochs, not microseconds.
        self.obs.record(Stage::FollowerStaleness, advanced);
        advanced
    }

    /// Replication counters so far.
    pub fn stats(&self) -> FollowerStats {
        FollowerStats {
            epoch: self.state.epoch(),
            reads: self.reads,
            syncs: self.syncs,
            deltas_applied: self.deltas_applied,
            rebases: self.rebases,
            avg_staleness: if self.syncs == 0 {
                0.0
            } else {
                self.lag_sum as f64 / self.syncs as f64
            },
            max_staleness: self.lag_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::service::{ServiceConfig, StreamingService};
    use gpma_core::framework::DynamicGraphSystem;
    use gpma_graph::Edge;
    use gpma_sim::{Device, DeviceConfig};

    fn leader(cfg: ServiceConfig) -> StreamingService {
        let dev = Device::new(DeviceConfig::deterministic());
        let sys = DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], 4);
        StreamingService::spawn(cfg, sys)
    }

    #[test]
    fn follower_tails_the_delta_ring() {
        let svc = leader(ServiceConfig::default());
        let mut follower = svc.spawn_follower();
        assert_eq!(follower.epoch(), 0);

        let h = svc.handle();
        for i in 0..16u32 {
            h.insert(Edge::new(i, 63)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        assert_eq!(follower.lag(&svc), snap.epoch());

        let advanced = follower.sync(&svc);
        assert_eq!(advanced, snap.epoch());
        assert_eq!(follower.epoch(), snap.epoch());
        assert_eq!(
            follower.query(|s| s.edges().to_vec()),
            snap.edges().to_vec()
        );

        let stats = follower.stats();
        assert_eq!(stats.syncs, 1);
        assert_eq!(stats.deltas_applied, snap.epoch());
        assert_eq!(stats.rebases, 0);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.max_staleness, snap.epoch());
        svc.shutdown();
    }

    #[test]
    fn outrun_follower_rebases_on_a_full_snapshot() {
        // A 2-deep ring is outrun by 16 edges at threshold 4 (4 epochs).
        let svc = leader(ServiceConfig {
            delta_log_capacity: 2,
            ..ServiceConfig::default()
        });
        let mut follower = svc.spawn_follower();

        let h = svc.handle();
        for i in 0..16u32 {
            h.insert(Edge::new(i, 63)).unwrap();
        }
        let snap = svc.barrier().unwrap();

        let advanced = follower.sync(&svc);
        assert_eq!(advanced, snap.epoch());
        assert_eq!(follower.epoch(), snap.epoch());
        assert_eq!(follower.snapshot().edges(), snap.edges());

        let stats = follower.stats();
        assert_eq!(stats.rebases, 1);
        assert_eq!(stats.deltas_applied, 0);
        svc.shutdown();
    }

    #[test]
    fn incremental_syncs_track_every_epoch() {
        let svc = leader(ServiceConfig::default());
        let mut follower = svc.spawn_follower();
        let h = svc.handle();

        // Sync after every barrier: staleness stays at one epoch per sync.
        for round in 0..4u32 {
            for i in 0..4u32 {
                h.insert(Edge::new(round * 4 + i, 62)).unwrap();
            }
            svc.barrier().unwrap();
            follower.sync(&svc);
        }
        let stats = follower.stats();
        assert_eq!(stats.epoch, 4);
        assert_eq!(stats.syncs, 4);
        assert_eq!(stats.deltas_applied, 4);
        assert_eq!(stats.rebases, 0);
        assert!((stats.avg_staleness - 1.0).abs() < 1e-12);
        assert_eq!(stats.max_staleness, 1);

        assert_eq!(
            follower.snapshot().edges(),
            svc.snapshot().edges(),
            "fully synced follower serves the leader's exact edge set"
        );
        svc.shutdown();
    }
}
