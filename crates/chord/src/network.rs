use crate::ring::Ring;
use proxbal_id::{Arc, Id};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;
use std::ops::Range;

/// Handle of a physical DHT peer (an end host). Dense index; peers are never
/// reused after leaving, so handles stay valid for the life of the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PeerId(pub u32);

/// Handle of a virtual server. Dense index, stable across transfers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VsId(pub u32);

/// Lifecycle state of a physical peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerState {
    /// Participating in the overlay.
    Alive,
    /// Departed gracefully (virtual servers handed over).
    Left,
    /// Crashed (virtual servers vanished with it).
    Crashed,
}

/// A virtual server: one Chord protocol participant, as
/// [`ChordNetwork::vs`] reads it from the network's columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VirtualServer {
    /// Position on the identifier ring (the VS's Chord id).
    pub position: Id,
    /// Physical peer currently hosting this VS.
    pub host: PeerId,
    /// False once the VS has left the ring (host crashed/left and the VS was
    /// not transferred).
    pub alive: bool,
}

/// A physical peer.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Lifecycle state.
    pub state: PeerState,
    /// Attachment point in the physical topology
    /// (`proxbal_topology::NodeId`), set by the experiment harness;
    /// `u32::MAX` when unattached.
    pub underlay: u32,
    /// Its run of the network's shared column: `[start, start + len)` lists
    /// the peer's alive virtual servers, `[start + len, start + cap)` is
    /// slack it can grow into.
    start: u32,
    len: u32,
    cap: u32,
}

impl Peer {
    /// An alive, unattached peer listing the run `[start, start + len)`
    /// with room for `cap` entries.
    fn alive(start: u32, len: u32, cap: u32) -> Self {
        Peer {
            state: PeerState::Alive,
            underlay: u32::MAX,
            start,
            len,
            cap,
        }
    }

    fn run(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// What a slack entry of the shared column holds.
const SLACK: VsId = VsId(u32::MAX);

/// Bit `i` of a bitmap held 64 bits to a word.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// The simulated Chord overlay: peers, virtual servers and the ring.
///
/// Everything is a flat column. A virtual server is an index into a
/// position column, a host column and an alive bit. A peer's virtual
/// servers are one run of a shared column, in the order they arrived: a run
/// that outgrows its capacity moves to the column's end — with twice the
/// capacity when a server spawns on it, with room for all a batch of
/// transfers brings it — leaving slack behind, and the column is compacted
/// in place once its slack exceeds a quarter of its listed entries.
///
/// All mutating operations keep the invariant that the set of alive virtual
/// servers exactly matches the ring contents, and that every alive VS is
/// listed by its host peer.
#[derive(Clone, Default)]
pub struct ChordNetwork {
    peers: Vec<Peer>,
    positions: Vec<Id>,
    hosts: Vec<PeerId>,
    /// One alive bit per virtual server, 64 to a word.
    alive: Vec<u64>,
    /// Every peer's run of virtual servers, and slack.
    runs: Vec<VsId>,
    ring: Ring,
}

/// Prints what the overlay holds — every peer's state, attachment and
/// run, the server columns and the ring — and nothing of where the runs sit
/// in the shared column, so two overlays that hold the same print the same.
impl fmt::Debug for ChordNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peers: Vec<_> = (0..self.peers.len() as u32)
            .map(PeerId)
            .map(|p| (self.peer(p).state, self.peer(p).underlay, self.vss_of(p)))
            .collect();
        f.debug_struct("ChordNetwork")
            .field("peers", &peers)
            .field("positions", &self.positions)
            .field("hosts", &self.hosts)
            .field("alive", &self.alive)
            .field("ring", &self.ring)
            .finish()
    }
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
        (0..self.peers.len() as u32)
            .filter(|&p| self.peers[p as usize].state == PeerState::Alive)
            .map(PeerId)
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
    pub fn vs(&self, v: VsId) -> VirtualServer {
        let i = v.0 as usize;
        VirtualServer {
            position: self.positions[i],
            host: self.hosts[i],
            alive: self.is_alive(v),
        }
    }

    fn is_alive(&self, v: VsId) -> bool {
        bit(&self.alive, v.0 as usize)
    }

    fn set_alive(&mut self, v: VsId, alive: bool) {
        let (word, bit) = (v.0 as usize / 64, v.0 % 64);
        if alive {
            self.alive[word] |= 1 << bit;
        } else {
            self.alive[word] &= !(1 << bit);
        }
    }

    /// Sets the underlay attachment point of a peer.
    pub fn attach(&mut self, p: PeerId, underlay: u32) {
        self.peers[p.0 as usize].underlay = underlay;
    }

    /// All alive virtual servers of a peer, in the order they arrived.
    pub fn vss_of(&self, p: PeerId) -> &[VsId] {
        &self.runs[self.peers[p.0 as usize].run()]
    }

    /// The ownership region of an alive virtual server.
    pub fn region_of(&self, v: VsId) -> Arc {
        assert!(self.is_alive(v), "region of dead virtual server {v:?}");
        self.ring.region(self.positions[v.0 as usize])
    }

    /// A new alive peer whose run reserves `cap` entries at the column's
    /// end.
    fn new_peer(&mut self, cap: usize) -> PeerId {
        let pid = PeerId(self.peers.len() as u32);
        let start = self.runs.len();
        self.runs.resize(start + cap, SLACK);
        self.peers.push(Peer::alive(start as u32, 0, cap as u32));
        pid
    }

    /// A new alive virtual server at `position` on `host`, in the columns
    /// only: neither the ring nor the host's run lists it yet.
    fn new_vs(&mut self, position: Id, host: PeerId) -> VsId {
        let vid = VsId(self.positions.len() as u32);
        self.positions.push(position);
        self.hosts.push(host);
        if vid.0.is_multiple_of(64) {
            self.alive.push(0);
        }
        self.set_alive(vid, true);
        vid
    }

    /// Appends `v` to `p`'s run, moving the run to the column's end with
    /// twice the capacity when it is full.
    fn push_to_run(&mut self, p: PeerId, v: VsId) {
        let peer = &mut self.peers[p.0 as usize];
        if peer.len == peer.cap {
            let (run, start) = (peer.run(), self.runs.len());
            let cap = (peer.cap * 2).max(1);
            self.runs.extend_from_within(run.clone());
            self.runs[run].fill(SLACK);
            self.runs.resize(start + cap as usize, SLACK);
            (peer.start, peer.cap) = (start as u32, cap);
        }
        self.runs[(peer.start + peer.len) as usize] = v;
        peer.len += 1;
    }

    /// Deletes `v` from `p`'s run, keeping the others in order.
    fn remove_from_run(&mut self, p: PeerId, v: VsId) {
        let peer = &mut self.peers[p.0 as usize];
        let run = peer.run();
        let at = self.runs[run.clone()]
            .iter()
            .position(|&x| x == v)
            .expect("host lists its virtual server");
        self.runs
            .copy_within(run.start + at + 1..run.end, run.start + at);
        self.runs[run.end - 1] = SLACK;
        peer.len -= 1;
    }

    /// Compacts the shared column in place once its slack is more than a
    /// quarter of its listed entries: the slack is squeezed out, and runs
    /// keep their column order but lose their own slack. Called after the
    /// operations that unlist entries — a move, a drop, a departure — and
    /// never during a join, whose reserved slack is about to fill.
    fn compact_if_sparse(&mut self) {
        let listed = self.ring.len();
        if self.runs.len().saturating_sub(listed) <= listed / 4 {
            return;
        }
        // A run's new start is the number of listed entries before its old
        // one: a bit per entry, and a count before every word of 64.
        let words = self.runs.len().div_ceil(64);
        let (mut bits, mut before) = (Vec::with_capacity(words), Vec::with_capacity(words));
        let mut total = 0;
        for chunk in self.runs.chunks(64) {
            let flags = chunk
                .iter()
                .zip(0..)
                .map(|(&v, i)| u64::from(v != SLACK) << i);
            let word = flags.fold(0, |word, flag| word | flag);
            bits.push(word);
            before.push(total);
            total += word.count_ones();
        }
        for peer in &mut self.peers {
            let (word, bit) = (peer.start as usize / 64, peer.start % 64);
            peer.start = match peer.len {
                0 => 0,
                _ => before[word] + (bits[word] & ((1 << bit) - 1)).count_ones(),
            };
            peer.cap = peer.len;
        }
        self.runs.retain(|&v| v != SLACK);
    }

    /// Joins a new peer hosting `vs_count` virtual servers at uniformly
    /// random ring positions. Returns the new peer's id.
    pub fn join_peer<R: Rng>(&mut self, vs_count: usize, rng: &mut R) -> PeerId {
        let pid = self.new_peer(vs_count);
        for _ in 0..vs_count {
            self.spawn_vs(pid, rng);
        }
        pid
    }

    /// Joins `peers` peers of `vs_per_peer` virtual servers each into a
    /// network nothing has joined yet, indistinguishable from `peers` calls
    /// of [`Self::join_peer`] — ring, stamp and journal, every handle, the
    /// state `rng` is left in.
    ///
    /// Every position is drawn first, in join order, and a draw an earlier
    /// one already took is redrawn at once, exactly as [`Self::spawn_vs`]
    /// resamples on an occupied slot. The positions then join in one
    /// [`Self::join_peers_at`], which draws nothing since none repeats.
    pub fn join_peers<R: Rng>(&mut self, peers: usize, vs_per_peer: usize, rng: &mut R) {
        if vs_per_peer == 0 {
            for _ in 0..peers {
                self.join_peer(0, rng);
            }
            return;
        }
        let count = peers * vs_per_peer;
        let mut taken = HashSet::with_capacity(count);
        let positions: Vec<Id> = (0..count)
            .map(|_| loop {
                let x: u32 = rng.gen();
                if taken.insert(x) {
                    break Id::new(x);
                }
            })
            .collect();
        drop(taken);
        self.join_peers_at(positions, vs_per_peer, rng);
    }

    /// Joins a new peer whose virtual servers sit at the given precomputed
    /// ring positions. Positions that collide with an already-occupied slot
    /// fall back to a fresh draw from `rng`, exactly as [`Self::spawn_vs`]
    /// resamples. The incremental counterpart of [`Self::join_peers_at`],
    /// and what that one is defined — and tested — to equal.
    pub fn join_peer_at<R: Rng>(&mut self, positions: &[Id], rng: &mut R) -> PeerId {
        let pid = self.new_peer(positions.len());
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
    ///
    /// Every column is allocated once; `positions` becomes the position
    /// column. The shared run column reserves half as much again as it
    /// lists, more than compaction lets it hold, so the round's transfers
    /// move runs into capacity that is already there; capacity nothing has
    /// touched costs no memory.
    pub fn join_peers_at<R: Rng>(&mut self, positions: Vec<Id>, vs_per_peer: usize, rng: &mut R) {
        assert!(
            self.peers.is_empty() && self.positions.is_empty() && self.ring.version() == 0,
            "bulk join needs a network nothing has joined yet"
        );
        assert!(
            vs_per_peer > 0 && positions.len().is_multiple_of(vs_per_peer),
            "{} positions do not make whole peers of {vs_per_peer}",
            positions.len()
        );
        let count = u32::try_from(positions.len()).expect("virtual-server handles are 32-bit");
        let mut keys: Vec<u64> = positions
            .iter()
            .zip(0u64..)
            .map(|(p, seq)| u64::from(p.raw()) << 32 | seq)
            .collect();
        keys.sort_unstable();
        let (pos_of, seq_of) = (|key: u64| (key >> 32) as u32, |key: u64| key as u32);

        // Entries still to resample (join order on top), and the positions
        // handed out so far with the entry each went to, by position.
        let mut colliders: BinaryHeap<Reverse<u32>> = keys
            .windows(2)
            .filter(|w| pos_of(w[0]) == pos_of(w[1]))
            .map(|w| Reverse(seq_of(w[1])))
            .collect();
        let mut resampled: Vec<(u32, u32)> = Vec::with_capacity(colliders.len());
        while let Some(Reverse(seq)) = colliders.pop() {
            loop {
                let x: u32 = rng.gen();
                let Err(slot) = resampled.binary_search_by_key(&x, |&(x, _)| x) else {
                    continue;
                };
                let at = keys.partition_point(|&key| key < u64::from(x) << 32);
                match keys.get(at).filter(|&&key| pos_of(key) == x) {
                    Some(&first) if seq_of(first) < seq => continue,
                    Some(&later) => colliders.push(Reverse(seq_of(later))),
                    None => {}
                }
                resampled.insert(slot, (x, seq));
                break;
            }
        }

        // The sorted keys, less every entry that joined elsewhere, merged
        // with the resampled positions: the ring in clockwise order.
        let mut ring_positions = Vec::with_capacity(keys.len());
        let mut servers = Vec::with_capacity(keys.len());
        let mut push = |pos: u32, seq: u32| {
            ring_positions.push(pos);
            servers.push(VsId(seq));
        };
        let mut moved = resampled.iter().copied().peekable();
        let mut prev = None;
        for &key in &keys {
            let pos = pos_of(key);
            if prev.replace(pos) == Some(pos) {
                continue;
            }
            while let Some((x, seq)) = moved.next_if(|&(x, _)| x < pos) {
                push(x, seq);
            }
            // A resample took `pos` before this entry joined: it resampled
            // too, and the taker is merged in next.
            if moved.peek().is_none_or(|&(x, _)| x != pos) {
                push(pos, seq_of(key));
            }
        }
        moved.for_each(|(x, seq)| push(x, seq));
        drop(keys);

        self.positions = positions;
        for &(x, seq) in &resampled {
            self.positions[seq as usize] = Id::new(x);
        }
        let vs_per_peer = vs_per_peer as u32;
        self.hosts = (0..count).map(|seq| PeerId(seq / vs_per_peer)).collect();
        self.alive = vec![u64::MAX; count.div_ceil(64) as usize];
        if !count.is_multiple_of(64) {
            *self.alive.last_mut().expect("a partial word") = (1 << (count % 64)) - 1;
        }
        self.runs = Vec::with_capacity(count as usize * 3 / 2);
        self.runs.extend((0..count).map(VsId));
        self.peers = (0..count / vs_per_peer)
            .map(|p| Peer::alive(p * vs_per_peer, vs_per_peer, vs_per_peer))
            .collect();
        let joined = self
            .positions
            .iter()
            .zip(0..)
            .map(|(p, seq)| (p.raw(), VsId(seq)));
        self.ring = Ring::bulk_load(ring_positions, servers, joined);
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
        let vid = VsId(self.positions.len() as u32);
        if !self.ring.insert(position, vid) {
            return None;
        }
        self.new_vs(position, host);
        self.push_to_run(host, vid);
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
        let run = peer.run();
        peer.len = 0;
        for i in run {
            let v = std::mem::replace(&mut self.runs[i], SLACK);
            self.set_alive(v, false);
            self.ring.remove(self.positions[v.0 as usize]);
        }
        self.compact_if_sparse();
    }

    /// Removes a single virtual server from the ring (e.g. CFS-style load
    /// shedding). Its region is absorbed by its successor.
    pub fn drop_vs(&mut self, v: VsId) {
        assert!(self.is_alive(v), "virtual server {v:?} already dead");
        self.set_alive(v, false);
        self.ring.remove(self.positions[v.0 as usize]);
        self.remove_from_run(self.hosts[v.0 as usize], v);
        self.compact_if_sparse();
    }

    /// Transfers virtual servers to other alive peers — the unit of load
    /// movement in the paper (a Chord *leave* followed by a *join* at the
    /// same ring position, so ownership of the region moves wholesale).
    ///
    /// The moves apply in order and leave the overlay one call per move
    /// would: a move to the server's current host does nothing, a server
    /// moved twice ends where its last move put it, and every run lists its
    /// servers in the order they arrived. One pass sets the hosts; each
    /// sender's run then drops what left it, in place; each receiver's run
    /// moves to the column's end at most once, sized for everything it
    /// gets; and the column is compacted at most once.
    pub fn transfer_vs(&mut self, moves: &[(VsId, PeerId)]) {
        // Which servers left a run, which peers lost one, and every move
        // that changed a host.
        let mut moved = vec![0u64; self.alive.len()];
        let mut senders = vec![0u64; self.peers.len().div_ceil(64)];
        let mut arrivals = Vec::with_capacity(moves.len());
        for (&(v, to), i) in moves.iter().zip(0u32..) {
            assert_eq!(
                self.peers[to.0 as usize].state,
                PeerState::Alive,
                "transfer target {to:?} is not alive"
            );
            assert!(
                self.is_alive(v),
                "cannot transfer dead virtual server {v:?}"
            );
            let from = std::mem::replace(&mut self.hosts[v.0 as usize], to);
            if from == to {
                continue;
            }
            if !bit(&moved, v.0 as usize) {
                moved[v.0 as usize / 64] |= 1 << (v.0 % 64);
                senders[from.0 as usize / 64] |= 1 << (from.0 % 64);
            }
            arrivals.push(i);
        }
        if arrivals.is_empty() {
            return;
        }
        for p in (0..self.peers.len()).filter(|&p| bit(&senders, p)) {
            let peer = &mut self.peers[p];
            let run = peer.run();
            let mut kept = run.start;
            for i in run.clone() {
                let v = self.runs[i];
                if !bit(&moved, v.0 as usize) {
                    self.runs[kept] = v;
                    kept += 1;
                }
            }
            self.runs[kept..run.end].fill(SLACK);
            peer.len = (kept - run.start) as u32;
        }
        // A server arrives once, at the last move that changed its host:
        // from the back, its first arrival, whose bit is then cleared.
        arrivals.reverse();
        arrivals.retain(|&i| {
            let v = moves[i as usize].0 .0 as usize;
            let last = bit(&moved, v);
            moved[v / 64] &= !(1 << (v % 64));
            last
        });
        arrivals.reverse();
        let mut gets = vec![0u32; self.peers.len()];
        for &i in &arrivals {
            gets[moves[i as usize].1 .0 as usize] += 1;
        }
        for (peer, &n) in self.peers.iter_mut().zip(&gets) {
            if peer.len + n > peer.cap {
                let (run, start) = (peer.run(), self.runs.len());
                self.runs.extend_from_within(run.clone());
                self.runs[run].fill(SLACK);
                self.runs.resize(start + (peer.len + n) as usize, SLACK);
                (peer.start, peer.cap) = (start as u32, peer.len + n);
            }
        }
        drop(gets);
        for &i in &arrivals {
            let (v, to) = moves[i as usize];
            let peer = &mut self.peers[to.0 as usize];
            self.runs[(peer.start + peer.len) as usize] = v;
            peer.len += 1;
        }
        self.compact_if_sparse();
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
        assert!(self.is_alive(v), "cannot split dead virtual server {v:?}");
        let host = self.hosts[v.0 as usize];
        let region = self.region_of(v);
        assert!(region.len() >= 2, "region too small to split");
        // The midpoint key: the new VS sits there and owns (start-1, mid].
        let mid = region.start().wrapping_add(region.len() / 2 - 1);
        self.spawn_vs_at(host, mid)
            .expect("split midpoint collides with an existing virtual server")
    }

    /// The peer owning `key` (via its owning virtual server).
    pub fn owner_peer(&self, key: Id) -> Option<PeerId> {
        self.ring.owner(key).map(|v| self.hosts[v.0 as usize])
    }

    /// Checks internal consistency; used by tests and debug assertions.
    /// Returns an error description on the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every ring entry is an alive VS at that position, hosted by an
        // alive peer that lists it.
        for (pos, v) in self.ring.iter() {
            if v.0 as usize >= self.positions.len() {
                return Err(format!("ring references unknown vs {v:?}"));
            }
            let vs = self.vs(v);
            if !vs.alive {
                return Err(format!("ring references dead vs {v:?}"));
            }
            if vs.position != pos {
                return Err(format!("vs {v:?} position mismatch"));
            }
            if self.peer(vs.host).state != PeerState::Alive {
                return Err(format!("vs {v:?} hosted by non-alive peer"));
            }
            if !self.vss_of(vs.host).contains(&v) {
                return Err(format!("host of {v:?} does not list it"));
            }
        }
        // Every run lies inside the column, apart from every other one, and
        // lists alive virtual servers on the ring.
        let mut spans = Vec::new();
        let mut listed = 0;
        for (p, peer) in (0..).map(PeerId).zip(&self.peers) {
            if peer.len > peer.cap || (peer.start + peer.cap) as usize > self.runs.len() {
                return Err(format!("peer {p:?} has a run outside the column"));
            }
            if peer.state != PeerState::Alive && peer.len > 0 {
                return Err(format!("departed peer {p:?} lists virtual servers"));
            }
            if peer.cap > 0 {
                spans.push((peer.start, peer.start + peer.cap));
            }
            for &v in self.vss_of(p) {
                listed += 1;
                let vs = self.vs(v);
                if !vs.alive || vs.host != p {
                    return Err(format!("peer {p:?} lists invalid vs {v:?}"));
                }
                if self.ring.at(vs.position) != Some(v) {
                    return Err(format!("vs {v:?} missing from ring"));
                }
            }
        }
        spans.sort_unstable();
        if spans.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err("two peers' runs overlap".to_string());
        }
        if self.runs.iter().filter(|&&v| v != SLACK).count() != listed {
            return Err("the run column holds an entry outside every run".to_string());
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
