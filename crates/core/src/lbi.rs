use proxbal_chord::{ChordNetwork, PeerId, VsId};
use proxbal_id::{Arc, Id};
use proxbal_ktree::Merge;
use proxbal_workload::{CapacityClass, CapacityProfile, LoadModel};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Load-balancing information, the `<L, C, L_min>` triple of §3.2.
///
/// A single node reports `<L_i, C_i, L_{i,min}>` (its total virtual-server
/// load, its capacity and the minimum load among its virtual servers);
/// interior KT nodes [`Merge`] triples by summing loads and capacities and
/// taking the minimum of the minima, so the root ends up with the
/// system-wide `<L, C, L_min>`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Lbi {
    /// Total load (`L_i`, aggregating to `L`).
    pub load: f64,
    /// Total capacity (`C_i`, aggregating to `C`).
    pub capacity: f64,
    /// Minimum virtual-server load seen (`L_{i,min}`, aggregating to
    /// `L_min`).
    pub min_vs_load: f64,
}

impl Merge for Lbi {
    fn merge(&mut self, other: Self) {
        self.load += other.load;
        self.capacity += other.capacity;
        self.min_vs_load = self.min_vs_load.min(other.min_vs_load);
    }
}

/// Mutable load/capacity bookkeeping for the whole system: the per-VS loads
/// and per-peer capacities the balancer reads and the transfers update.
///
/// Loads ride with virtual servers: transferring a VS moves its load to the
/// receiving peer (the defining property of virtual-server-based balancing).
///
/// [`VsId`] and [`PeerId`] are dense indices, so the state is three flat
/// vectors rather than hash maps — at million-peer scale the map overhead
/// (control bytes, load-factor headroom, rehash transients) dominates the
/// payload, while a `Vec<f64>` is exactly 8 bytes per virtual server.
/// Absent entries are encoded in-band: loads default to `0.0`, capacities
/// to `NaN` ("never assigned", [`Self::capacity`] panics on it).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LoadState {
    vs_load: Vec<f64>,
    capacity: Vec<f64>,
    class: Vec<Option<CapacityClass>>,
}

/// Grows `v` with `fill` so that `idx` is addressable, then returns the slot.
fn slot<T: Copy>(v: &mut Vec<T>, idx: usize, fill: T) -> &mut T {
    if idx >= v.len() {
        v.resize(idx + 1, fill);
    }
    &mut v[idx]
}

impl LoadState {
    /// Empty state.
    pub fn new() -> Self {
        LoadState::default()
    }

    /// Samples capacities for every alive peer from `profile` and loads for
    /// every alive virtual server from `model` (load scales with the
    /// fraction of the identifier space the VS owns, per §5.1).
    pub fn generate<R: Rng>(
        net: &ChordNetwork,
        profile: &CapacityProfile,
        model: &LoadModel,
        rng: &mut R,
    ) -> Self {
        let mut state = LoadState::new();
        state.vs_load.reserve(net.ring().len());
        for p in net.alive_peers() {
            let class = profile.sample_class(rng);
            state.set_class(p, class);
            state.set_capacity(p, profile.capacity_of(class));
        }
        // A region runs from just past the previous position to its own;
        // walking clockwise from 0, the first one's predecessor is the last
        // position on the ring (itself, if it is alone).
        let ring = net.ring();
        let mut pred = ring.predecessor(Id::ZERO).map(|(pos, _)| pos);
        for (pos, vs) in ring.iter() {
            let region = match pred.replace(pos) {
                Some(pred) if pred != pos => {
                    Arc::from_bounds(pred.wrapping_add(1), pos.wrapping_add(1))
                }
                _ => Arc::full(pos.wrapping_add(1)),
            };
            debug_assert_eq!(region, ring.region(pos));
            state.set_vs_load(vs, model.sample_vs_load(region.fraction(), rng));
        }
        state
    }

    /// Sets a virtual server's load explicitly.
    pub fn set_vs_load(&mut self, vs: VsId, load: f64) {
        assert!(load >= 0.0 && load.is_finite());
        *slot(&mut self.vs_load, vs.0 as usize, 0.0) = load;
    }

    /// Sets a peer's capacity explicitly.
    pub fn set_capacity(&mut self, p: PeerId, capacity: f64) {
        assert!(capacity > 0.0 && capacity.is_finite());
        *slot(&mut self.capacity, p.0 as usize, f64::NAN) = capacity;
    }

    /// Sets a peer's capacity class label (for per-class reporting).
    pub fn set_class(&mut self, p: PeerId, class: CapacityClass) {
        *slot(&mut self.class, p.0 as usize, None) = Some(class);
    }

    /// A virtual server's load (0 if never assigned).
    pub fn vs_load(&self, vs: VsId) -> f64 {
        self.vs_load.get(vs.0 as usize).copied().unwrap_or(0.0)
    }

    /// Adds `delta` to a virtual server's load (used when a dropped VS's
    /// region is absorbed by its successor in the CFS baseline).
    pub fn add_vs_load(&mut self, vs: VsId, delta: f64) {
        let slot = slot(&mut self.vs_load, vs.0 as usize, 0.0);
        *slot = (*slot + delta).max(0.0);
    }

    /// A peer's capacity (panics if the peer has no capacity assigned).
    pub fn capacity(&self, p: PeerId) -> f64 {
        match self.capacity.get(p.0 as usize) {
            Some(&c) if !c.is_nan() => c,
            _ => panic!("peer {p:?} has no capacity"),
        }
    }

    /// A peer's capacity class, if recorded.
    pub fn class(&self, p: PeerId) -> Option<CapacityClass> {
        self.class.get(p.0 as usize).copied().flatten()
    }

    /// Total load currently hosted by a peer.
    pub fn node_load(&self, net: &ChordNetwork, p: PeerId) -> f64 {
        net.vss_of(p).iter().map(|&v| self.vs_load(v)).sum()
    }

    /// The minimum virtual-server load on a peer (`L_{i,min}`);
    /// `f64::INFINITY` for a peer hosting nothing.
    pub fn min_vs_load(&self, net: &ChordNetwork, p: PeerId) -> f64 {
        net.vss_of(p)
            .iter()
            .map(|&v| self.vs_load(v))
            .fold(f64::INFINITY, f64::min)
    }

    /// The node-level LBI triple `<L_i, C_i, L_{i,min}>` of §3.2.
    pub fn node_lbi(&self, net: &ChordNetwork, p: PeerId) -> Lbi {
        Lbi {
            load: self.node_load(net, p),
            capacity: self.capacity(p),
            min_vs_load: self.min_vs_load(net, p),
        }
    }

    /// System totals computed centrally (tests compare the tree-aggregated
    /// LBI against this ground truth).
    pub fn totals(&self, net: &ChordNetwork) -> Lbi {
        let mut acc = Lbi {
            load: 0.0,
            capacity: 0.0,
            min_vs_load: f64::INFINITY,
        };
        for p in net.alive_peers() {
            acc.merge(self.node_lbi(net, p));
        }
        acc
    }

    /// Load per unit capacity of a peer — the paper's "unit load"
    /// (Figure 4's y-axis).
    pub fn unit_load(&self, net: &ChordNetwork, p: PeerId) -> f64 {
        self.node_load(net, p) / self.capacity(p)
    }
}

impl LoadState {
    /// Builds loads from an explicit object population: each object's load
    /// is charged to the virtual server owning its key — the paper's
    /// microfoundation for the Gaussian model ("a large number of small
    /// objects"). Capacities come from `profile` as in
    /// [`LoadState::generate`].
    pub fn from_objects<R: Rng>(
        net: &ChordNetwork,
        profile: &CapacityProfile,
        objects: &[proxbal_workload::StoredObject],
        rng: &mut R,
    ) -> Self {
        let mut state = LoadState::new();
        for p in net.alive_peers() {
            let class = profile.sample_class(rng);
            state.set_class(p, class);
            state.set_capacity(p, profile.capacity_of(class));
        }
        // Every alive VS starts at zero so min_vs_load is well defined.
        for (_, vs) in net.ring().iter() {
            state.set_vs_load(vs, 0.0);
        }
        for obj in objects {
            let owner = net.ring().owner(Id::new(obj.key)).expect("non-empty ring");
            *slot(&mut state.vs_load, owner.0 as usize, 0.0) += obj.load;
        }
        state
    }
}
