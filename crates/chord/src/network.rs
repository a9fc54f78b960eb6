use crate::ring::Ring;
use proxbal_id::{Arc, Id};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Handle of a physical DHT peer (an end host). Dense index; peers are never
/// reused after leaving, so handles stay valid for the life of the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PeerId(pub u32);

/// Handle of a virtual server. Dense index, stable across transfers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VsId(pub u32);

/// Lifecycle state of a physical peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PeerState {
    /// Participating in the overlay.
    Alive,
    /// Departed gracefully (virtual servers handed over).
    Left,
    /// Crashed (virtual servers vanished with it).
    Crashed,
}

/// A virtual server: one Chord protocol participant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VirtualServer {
    /// Self handle.
    pub id: VsId,
    /// Position on the identifier ring (the VS's Chord id).
    pub position: Id,
    /// Physical peer currently hosting this VS.
    pub host: PeerId,
    /// False once the VS has left the ring (host crashed/left and the VS was
    /// not transferred).
    pub alive: bool,
}

/// A physical peer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Peer {
    /// Self handle.
    pub id: PeerId,
    /// Lifecycle state.
    pub state: PeerState,
    /// Virtual servers currently hosted here (alive ones only).
    pub virtual_servers: Vec<VsId>,
    /// Attachment point in the physical topology
    /// (`proxbal_topology::NodeId`), set by the experiment harness;
    /// `u32::MAX` when unattached.
    pub underlay: u32,
}

/// The simulated Chord overlay: peers, virtual servers and the ring.
///
/// All mutating operations keep the invariant that the set of alive virtual
/// servers exactly matches the ring contents, and that every alive VS is
/// listed by its host peer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChordNetwork {
    peers: Vec<Peer>,
    vss: Vec<VirtualServer>,
    ring: Ring,
}

impl ChordNetwork {
    /// An empty overlay.
    pub fn new() -> Self {
        ChordNetwork::default()
    }

    /// Read access to the ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Number of peers ever created (including departed ones).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Ids of currently alive peers.
    pub fn alive_peers(&self) -> Vec<PeerId> {
        self.peers
            .iter()
            .filter(|p| p.state == PeerState::Alive)
            .map(|p| p.id)
            .collect()
    }

    /// Number of alive virtual servers.
    pub fn alive_vs_count(&self) -> usize {
        self.ring.len()
    }

    /// Peer metadata. Panics on an invalid handle.
    pub fn peer(&self, p: PeerId) -> &Peer {
        &self.peers[p.0 as usize]
    }

    /// Virtual server metadata. Panics on an invalid handle.
    pub fn vs(&self, v: VsId) -> &VirtualServer {
        &self.vss[v.0 as usize]
    }

    /// Sets the underlay attachment point of a peer.
    pub fn attach(&mut self, p: PeerId, underlay: u32) {
        self.peers[p.0 as usize].underlay = underlay;
    }

    /// All alive virtual servers of a peer.
    pub fn vss_of(&self, p: PeerId) -> &[VsId] {
        &self.peers[p.0 as usize].virtual_servers
    }

    /// The ownership region of an alive virtual server.
    pub fn region_of(&self, v: VsId) -> Arc {
        let vs = &self.vss[v.0 as usize];
        assert!(vs.alive, "region of dead virtual server {v:?}");
        self.ring.region(vs.position)
    }

    /// Joins a new peer hosting `vs_count` virtual servers at uniformly
    /// random ring positions. Returns the new peer's id.
    pub fn join_peer<R: Rng>(&mut self, vs_count: usize, rng: &mut R) -> PeerId {
        let pid = PeerId(self.peers.len() as u32);
        self.peers.push(Peer {
            id: pid,
            state: PeerState::Alive,
            virtual_servers: Vec::with_capacity(vs_count),
            underlay: u32::MAX,
        });
        for _ in 0..vs_count {
            self.spawn_vs(pid, rng);
        }
        pid
    }

    /// Joins a new peer whose virtual servers sit at the given precomputed
    /// ring positions. Positions that collide with an already-occupied slot
    /// fall back to a fresh draw from `rng`, exactly as [`Self::spawn_vs`]
    /// resamples. The incremental counterpart of [`Self::join_peers_at`],
    /// and what that one is defined — and tested — to equal.
    pub fn join_peer_at<R: Rng>(&mut self, positions: &[Id], rng: &mut R) -> PeerId {
        let pid = PeerId(self.peers.len() as u32);
        self.peers.push(Peer {
            id: pid,
            state: PeerState::Alive,
            virtual_servers: Vec::with_capacity(positions.len()),
            underlay: u32::MAX,
        });
        for &position in positions {
            if self.spawn_vs_at(pid, position).is_none() {
                self.spawn_vs(pid, rng);
            }
        }
        pid
    }

    /// Joins `positions.len() / vs_per_peer` peers into a network nothing has
    /// joined yet, indistinguishable — ring, stamp and journal, every
    /// handle, the state `rng` is left in — from calling
    /// [`Self::join_peer_at`] on each `vs_per_peer`-chunk in order, without
    /// the one ring search per virtual server.
    ///
    /// One sort of `(position, join order)` finds every entry whose
    /// position an earlier one holds; those resample from `rng`, earliest
    /// first, exactly as their failed insert would have. A draw is taken
    /// when nothing that joined *earlier* sits there. If a later batch entry
    /// holds it, that entry is the one that will find the slot occupied, so
    /// it queues up to resample in turn — always behind the entry that
    /// displaced it, which keeps the draws in join order.
    pub fn join_peers_at<R: Rng>(&mut self, positions: &[Id], vs_per_peer: usize, rng: &mut R) {
        assert!(
            self.peers.is_empty() && self.vss.is_empty() && self.ring.version() == 0,
            "bulk join needs a network nothing has joined yet"
        );
        assert!(
            vs_per_peer > 0 && positions.len().is_multiple_of(vs_per_peer),
            "{} positions do not make whole peers of {vs_per_peer}",
            positions.len()
        );
        assert!(
            u32::try_from(positions.len()).is_ok(),
            "virtual-server handles are 32-bit"
        );
        let mut keys: Vec<u64> = positions
            .iter()
            .zip(0u64..)
            .map(|(p, seq)| u64::from(p.raw()) << 32 | seq)
            .collect();
        keys.sort_unstable();
        let (pos_of, seq_of) = (|key: u64| (key >> 32) as u32, |key: u64| key as u32);

        // Entries still to resample (join order on top), and the positions
        // handed out so far with the entry each went to.
        let mut colliders: BinaryHeap<Reverse<u32>> = keys
            .windows(2)
            .filter(|w| pos_of(w[0]) == pos_of(w[1]))
            .map(|w| Reverse(seq_of(w[1])))
            .collect();
        let mut resampled: BTreeMap<u32, u32> = BTreeMap::new();
        while let Some(Reverse(seq)) = colliders.pop() {
            loop {
                let x: u32 = rng.gen();
                if resampled.contains_key(&x) {
                    continue;
                }
                let at = keys.partition_point(|&key| key < u64::from(x) << 32);
                match keys.get(at).filter(|&&key| pos_of(key) == x) {
                    Some(&first) if seq_of(first) < seq => continue,
                    Some(&later) => colliders.push(Reverse(seq_of(later))),
                    None => {}
                }
                resampled.insert(x, seq);
                break;
            }
        }

        self.vss = positions
            .iter()
            .zip(0u32..)
            .map(|(&position, seq)| VirtualServer {
                id: VsId(seq),
                position,
                host: PeerId(seq / vs_per_peer as u32),
                alive: true,
            })
            .collect();
        for (&x, &seq) in &resampled {
            self.vss[seq as usize].position = Id::new(x);
        }
        let vs_per_peer = vs_per_peer as u32;
        self.peers = (0..positions.len() as u32 / vs_per_peer)
            .map(|p| Peer {
                id: PeerId(p),
                state: PeerState::Alive,
                virtual_servers: (p * vs_per_peer..(p + 1) * vs_per_peer).map(VsId).collect(),
                underlay: u32::MAX,
            })
            .collect();

        // The sorted keys, less every entry that joined elsewhere, merged
        // with the resampled positions: the ring in clockwise order.
        let mut sorted = Vec::with_capacity(keys.len());
        let mut moved = resampled.iter().map(|(&x, &seq)| (x, VsId(seq))).peekable();
        let mut prev = None;
        for &key in &keys {
            let pos = pos_of(key);
            if prev.replace(pos) == Some(pos) {
                continue;
            }
            while let Some(entry) = moved.next_if(|&(x, _)| x < pos) {
                sorted.push(entry);
            }
            // A resample took `pos` before this entry joined: it resampled
            // too, and the taker is merged in next.
            if moved.peek().is_none_or(|&(x, _)| x != pos) {
                sorted.push((pos, VsId(seq_of(key))));
            }
        }
        sorted.extend(moved);
        self.ring = Ring::bulk_load(sorted, self.vss.iter().map(|vs| (vs.position.raw(), vs.id)));
    }

    /// Adds one more virtual server to an alive peer at a random position
    /// (CFS-style capacity provisioning). Returns its id.
    pub fn spawn_vs<R: Rng>(&mut self, host: PeerId, rng: &mut R) -> VsId {
        loop {
            // Resample on (astronomically unlikely) position collisions.
            if let Some(vid) = self.spawn_vs_at(host, Id::new(rng.gen())) {
                return vid;
            }
        }
    }

    /// Adds a virtual server at an exact ring position. Returns `None` if
    /// the position is already taken.
    pub fn spawn_vs_at(&mut self, host: PeerId, position: Id) -> Option<VsId> {
        assert_eq!(
            self.peers[host.0 as usize].state,
            PeerState::Alive,
            "cannot spawn a virtual server on a non-alive peer"
        );
        let vid = VsId(self.vss.len() as u32);
        if !self.ring.insert(position, vid) {
            return None;
        }
        self.vss.push(VirtualServer {
            id: vid,
            position,
            host,
            alive: true,
        });
        self.peers[host.0 as usize].virtual_servers.push(vid);
        Some(vid)
    }

    /// Graceful departure: the peer's virtual servers leave the ring one by
    /// one (their regions are absorbed by their successors, which is
    /// automatic under successor ownership).
    pub fn leave_peer(&mut self, p: PeerId) {
        self.retire_peer(p, PeerState::Left);
    }

    /// Crash: identical ring effect to a graceful leave (regions are
    /// re-absorbed by successors); the peer is recorded as
    /// [`PeerState::Crashed`] rather than [`PeerState::Left`].
    pub fn crash_peer(&mut self, p: PeerId) {
        self.retire_peer(p, PeerState::Crashed);
    }

    fn retire_peer(&mut self, p: PeerId, state: PeerState) {
        let peer = &mut self.peers[p.0 as usize];
        assert_eq!(peer.state, PeerState::Alive, "peer {p:?} is not alive");
        peer.state = state;
        let vss = std::mem::take(&mut peer.virtual_servers);
        for v in vss {
            let vs = &mut self.vss[v.0 as usize];
            vs.alive = false;
            self.ring.remove(vs.position);
        }
    }

    /// Removes a single virtual server from the ring (e.g. CFS-style load
    /// shedding). Its region is absorbed by its successor.
    pub fn drop_vs(&mut self, v: VsId) {
        let vs = &mut self.vss[v.0 as usize];
        assert!(vs.alive, "virtual server {v:?} already dead");
        vs.alive = false;
        self.ring.remove(vs.position);
        let host = vs.host;
        self.peers[host.0 as usize]
            .virtual_servers
            .retain(|&x| x != v);
    }

    /// Transfers a virtual server to another alive peer — the unit of load
    /// movement in the paper (a Chord *leave* followed by a *join* at the
    /// same ring position, so ownership of the region moves wholesale).
    pub fn transfer_vs(&mut self, v: VsId, to: PeerId) {
        assert_eq!(
            self.peers[to.0 as usize].state,
            PeerState::Alive,
            "transfer target {to:?} is not alive"
        );
        let vs = &mut self.vss[v.0 as usize];
        assert!(vs.alive, "cannot transfer dead virtual server {v:?}");
        let from = vs.host;
        if from == to {
            return;
        }
        vs.host = to;
        self.peers[from.0 as usize]
            .virtual_servers
            .retain(|&x| x != v);
        self.peers[to.0 as usize].virtual_servers.push(v);
    }

    /// Splits a virtual server in two: a new virtual server is created at
    /// the midpoint of `v`'s region on the same host, taking over the first
    /// half of the region (Chord ownership splits automatically once the
    /// new position is on the ring). Returns the new virtual server.
    ///
    /// This is the classic remedy (Rao et al.) for a virtual server too
    /// loaded to fit any light node: halve it and place the halves
    /// separately. Panics if the region is too small to split (length < 2).
    pub fn split_vs(&mut self, v: VsId) -> VsId {
        let vs = &self.vss[v.0 as usize];
        assert!(vs.alive, "cannot split dead virtual server {v:?}");
        let host = vs.host;
        let region = self.region_of(v);
        assert!(region.len() >= 2, "region too small to split");
        // The midpoint key: the new VS sits there and owns (start-1, mid].
        let mid = region.start().wrapping_add(region.len() / 2 - 1);
        let vid = VsId(self.vss.len() as u32);
        assert!(
            self.ring.insert(mid, vid),
            "split midpoint collides with an existing virtual server"
        );
        self.vss.push(VirtualServer {
            id: vid,
            position: mid,
            host,
            alive: true,
        });
        self.peers[host.0 as usize].virtual_servers.push(vid);
        vid
    }

    /// The peer owning `key` (via its owning virtual server).
    pub fn owner_peer(&self, key: Id) -> Option<PeerId> {
        self.ring.owner(key).map(|v| self.vss[v.0 as usize].host)
    }

    /// Checks internal consistency; used by tests and debug assertions.
    /// Returns an error description on the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every ring entry is an alive VS at that position, hosted by an
        // alive peer that lists it.
        for (pos, v) in self.ring.iter() {
            let vs = &self.vss[v.0 as usize];
            if !vs.alive {
                return Err(format!("ring references dead vs {v:?}"));
            }
            if vs.position != pos {
                return Err(format!("vs {v:?} position mismatch"));
            }
            let host = &self.peers[vs.host.0 as usize];
            if host.state != PeerState::Alive {
                return Err(format!("vs {v:?} hosted by non-alive peer"));
            }
            if !host.virtual_servers.contains(&v) {
                return Err(format!("host of {v:?} does not list it"));
            }
        }
        // Every listed VS is alive and on the ring.
        let mut listed = 0;
        for peer in &self.peers {
            for &v in &peer.virtual_servers {
                listed += 1;
                let vs = &self.vss[v.0 as usize];
                if !vs.alive || vs.host != peer.id {
                    return Err(format!("peer {:?} lists invalid vs {v:?}", peer.id));
                }
                if self.ring.at(vs.position) != Some(v) {
                    return Err(format!("vs {v:?} missing from ring"));
                }
            }
        }
        if listed != self.ring.len() {
            return Err(format!(
                "listed vs count {listed} != ring size {}",
                self.ring.len()
            ));
        }
        Ok(())
    }
}
