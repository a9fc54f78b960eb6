use crate::classify::{ClassifyParams, NodeClass};
use crate::error::Error;
use crate::lbi::{Lbi, LoadState};
use crate::pairing::{LightSlot, ShedCandidate};
use crate::selection::choose_shed_set;
use crate::transfer::attachment;
use proxbal_chord::{ChordNetwork, PeerId, VsId};
use proxbal_hilbert::{CurveKind, LandmarkMapper};
use proxbal_id::Id;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::{DistanceOracle, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed chunk size of the parallel per-peer sweeps in this module. A
/// compile-time constant — never derived from the thread count — so chunk
/// boundaries, and with them every drain order, are thread-invariant.
const CLASSIFY_CHUNK: usize = 8192;

/// The per-node classification computed after LBI dissemination: every
/// alive peer, ascending, beside its class, and the count of each class.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The disseminated system LBI `<L, C, L_min>`.
    pub system: Lbi,
    /// Every alive peer, ascending.
    peers: Vec<PeerId>,
    /// The class of `peers[i]` at `i`.
    classes: Vec<NodeClass>,
    /// Peers per class, indexed by [`NodeClass`] discriminant.
    counts: [usize; 3],
}

impl Classification {
    /// Classifies every alive peer against the (already aggregated) system
    /// LBI on `threads` workers: the class column is filled over fixed-size
    /// chunks of peers in parallel and concatenated in chunk order —
    /// identical at any thread count.
    pub fn compute(
        net: &ChordNetwork,
        loads: &LoadState,
        params: &ClassifyParams,
        system: Lbi,
        threads: usize,
    ) -> Self {
        let peers = net.alive_peers();
        let classes =
            proxbal_parallel::map_chunked(peers.len(), CLASSIFY_CHUNK, threads, |range| {
                peers[range]
                    .iter()
                    .map(|&p| params.classify(&loads.node_lbi(net, p), &system))
                    .collect::<Vec<_>>()
            })
            .concat();
        let mut counts = [0; 3];
        for &class in &classes {
            counts[class as usize] += 1;
        }
        Classification {
            system,
            peers,
            classes,
            counts,
        }
    }

    /// Every alive peer, ascending.
    pub(crate) fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// The class of every peer of [`Self::peers`], in the same order.
    pub(crate) fn classes(&self) -> &[NodeClass] {
        &self.classes
    }

    /// Peers of a given class, ascending.
    pub fn peers_of(&self, class: NodeClass) -> Vec<PeerId> {
        self.peers
            .iter()
            .zip(&self.classes)
            .filter(|&(_, &c)| c == class)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Count of peers of a given class.
    pub fn count_of(&self, class: NodeClass) -> usize {
        self.counts[class as usize]
    }

    /// Count of every class present — the `before` / `after` pictures of a
    /// [`crate::BalanceReport`] (a class no peer has is absent).
    pub(crate) fn class_counts(&self) -> HashMap<NodeClass, usize> {
        [NodeClass::Heavy, NodeClass::Light, NodeClass::Neutral]
            .into_iter()
            .map(|class| (class, self.count_of(class)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// The shed set of every heavy node: the minimum-total-load subset of its
/// virtual servers whose removal takes it to (or below) its target (§3.4).
///
/// The sets come flat, in one vector: each heavy peer's candidates form
/// one run (adjacent candidates with one `from`), in the order the
/// selection chose them, and the runs ascend by peer; a heavy peer with
/// nothing to shed has no run.
/// Runs on `threads` workers: each heavy peer's subset is an independent
/// knapsack-style selection, computed over fixed-size chunks of the
/// classified peers in parallel, each chunk appending to one buffer of its
/// own with one pair of scratch buffers for all its peers; the buffers are
/// concatenated in chunk order — identical at any thread count.
pub fn shed_candidates(
    net: &ChordNetwork,
    loads: &LoadState,
    params: &ClassifyParams,
    classification: &Classification,
    threads: usize,
) -> Vec<ShedCandidate> {
    let (peers, classes) = (classification.peers(), classification.classes());
    proxbal_parallel::map_chunked(peers.len(), CLASSIFY_CHUNK, threads, |range| {
        let mut vss: Vec<(VsId, f64)> = Vec::new();
        let mut chosen: Vec<VsId> = Vec::new();
        let mut out: Vec<ShedCandidate> = Vec::new();
        for i in range.filter(|&i| classes[i] == NodeClass::Heavy) {
            let p = peers[i];
            let node = loads.node_lbi(net, p);
            let excess = params.excess(&node, &classification.system);
            vss.clear();
            vss.extend(net.vss_of(p).iter().map(|&v| (v, loads.vs_load(v))));
            choose_shed_set(&vss, excess, &mut chosen);
            out.extend(chosen.iter().map(|&v| ShedCandidate {
                load: loads.vs_load(v),
                vs: v,
                from: p,
            }));
        }
        out
    })
    .concat()
}

/// The shed sets of [`shed_candidates`]' flat output, one slice per
/// shedding peer, ascending by peer.
pub(crate) fn shed_sets(shed: &[ShedCandidate]) -> impl Iterator<Item = &[ShedCandidate]> + Clone {
    shed.chunk_by(|a, b| a.from == b.from)
}

/// The spare-room slot of every light node with room to offer, ascending
/// by peer, on `threads` workers (same structure as [`shed_candidates`]).
pub fn light_slots(
    net: &ChordNetwork,
    loads: &LoadState,
    params: &ClassifyParams,
    classification: &Classification,
    threads: usize,
) -> Vec<LightSlot> {
    let (peers, classes) = (classification.peers(), classification.classes());
    proxbal_parallel::map_chunked(peers.len(), CLASSIFY_CHUNK, threads, |range| {
        range
            .filter(|&i| classes[i] == NodeClass::Light)
            .filter_map(|i| {
                let peer = peers[i];
                let spare = params.spare(&loads.node_lbi(net, peer), &classification.system);
                (spare > 0.0).then_some(LightSlot { spare, peer })
            })
            .collect::<Vec<_>>()
    })
    .concat()
}

/// The entry nodes of the VSA sweep the **proximity-ignorant** way (§3.4):
/// every heavy/light node reports its records through the KT leaf of one of
/// its own randomly chosen virtual servers, so records enter the tree
/// wherever the node happens to sit on the ring. One entry node per
/// participant, in publication order ([`crate::run_vsa`]).
pub fn ignorant_inputs<R: Rng>(
    net: &ChordNetwork,
    tree: &KTree,
    shed: &[ShedCandidate],
    light: &[LightSlot],
    rng: &mut R,
) -> Vec<KtNodeId> {
    // One draw per participant, shed peers then light peers. A peer with no
    // virtual servers (possible for light peers that shed everything in an
    // earlier pass) enters at the root.
    let chosen: Vec<Option<VsId>> = participants(shed, light)
        .map(|p| net.vss_of(p).choose(rng).copied())
        .collect();
    entry_nodes(net, tree, chosen.iter().copied())
}

/// The publishing peers of a VSA phase in publication order: every
/// shedding peer of `shed` (a flat [`shed_candidates`] output), then every
/// peer of `light`, each ascending.
fn participants<'a>(
    shed: &'a [ShedCandidate],
    light: &'a [LightSlot],
) -> impl Iterator<Item = PeerId> + 'a {
    let shedding = shed_sets(shed).map(|set| set[0].from);
    shedding.chain(light.iter().map(|slot| slot.peer))
}

/// The report target of every virtual server of `vss` in one path-sharing
/// descent ([`KTree::report_targets`]), in order; a `None` — a peer
/// hosting no virtual server — enters at the root.
pub(crate) fn entry_nodes(
    net: &ChordNetwork,
    tree: &KTree,
    vss: impl Iterator<Item = Option<VsId>> + Clone,
) -> Vec<KtNodeId> {
    let mut bound = tree.report_targets(net, vss.clone().flatten()).into_iter();
    vss.map(|vs| match vs {
        Some(_) => bound.next().expect("one target per virtual server"),
        None => tree.root(),
    })
    .collect()
}

/// Proximity publication configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProximityParams {
    /// Hilbert grid bits per landmark dimension (`n = m·bits` grids total).
    /// The paper's default landmark space is 15-dimensional; 2 bits per
    /// dimension gives 2³⁰ grids.
    pub bits_per_dim: u32,
    /// Center landmark vectors (subtract the minimum coordinate) before
    /// quantization, removing the common-mode gateway offset that integer
    /// hop counts introduce — see [`LandmarkMapper::centered`].
    pub center_vectors: bool,
    /// Min–max scale each dimension to its observed range across the
    /// participating nodes before quantization, so the grid uses its full
    /// resolution — see [`LandmarkMapper::with_ranges`].
    pub per_dim_scaling: bool,
    /// Number of landmark dimensions used for the **Hilbert key** (`None` =
    /// all). A 32-bit ring key keeps only the top ~2 bit-planes of an
    /// m-dimensional Hilbert index, and rendezvous granularity (one virtual
    /// server's arc, ~2¹⁸ ids at paper scale) cuts that to barely one
    /// plane — so with all 15 dimensions the key cannot resolve anything
    /// finer than "which quadrant of the landmark space". Using the first
    /// few landmarks (they are spread across transit domains) keeps 4–7
    /// usable bit-planes and restores stub-level rendezvous. See DESIGN.md.
    pub key_dims: Option<usize>,
    /// Space-filling curve ordering the grid cells (Hilbert in the paper;
    /// Morton available as an ablation baseline).
    pub curve: CurveKind,
}

impl Default for ProximityParams {
    fn default() -> Self {
        ProximityParams {
            bits_per_dim: 16,
            center_vectors: false,
            per_dim_scaling: true,
            key_dims: Some(2),
            curve: CurveKind::Hilbert,
        }
    }
}

/// The entry nodes of the VSA sweep the **proximity-aware** way (§4.3):
/// every heavy/light node measures its landmark vector, maps it to a
/// Hilbert number used as a DHT key, and publishes its records *at that
/// key* — so records of physically close nodes land close together on the
/// ring and meet at deep rendezvous points. Each record is routed to the
/// owner virtual server of the key, which reports it through its own KT
/// leaf. One entry node per participant, in publication order
/// ([`crate::run_vsa`]).
///
/// Fails with [`Error::UnattachedPeer`] for the first participant (shed
/// peers, then light peers, each ascending) that was never attached to the
/// underlay — its landmark vector cannot be measured.
///
/// Runs on `threads` workers: landmark vectors, and the DHT key of each
/// distinct vector, are pure functions of immutable state, computed in
/// parallel. The keys' entry nodes are found in one path-sharing descent in
/// ring order ([`KTree::report_targets`]) and scattered back to the
/// participants, so the entry nodes are identical at any thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn proximity_inputs(
    net: &ChordNetwork,
    tree: &KTree,
    shed: &[ShedCandidate],
    light: &[LightSlot],
    params: &ProximityParams,
    oracle: &DistanceOracle,
    landmarks: &[NodeId],
    threads: usize,
) -> Result<Vec<KtNodeId>, Error> {
    let participants: Vec<PeerId> = participants(shed, light).collect();
    let (keys, key_of) = dht_keys(net, &participants, params, oracle, landmarks, threads)?;
    let entry = key_targets(net, tree, &keys)?;
    Ok(key_of.iter().map(|&k| entry[k as usize]).collect())
}

/// The DHT keys `participants` publish at: each one's landmark vector,
/// projected onto the key dimensions and mapped to a Hilbert number.
/// Physically close peers share a vector (peers attached to one underlay
/// node always do), so each distinct vector is mapped once. Returns the
/// keys of the distinct vectors, in order of first appearance, and for
/// each participant the index of its key.
pub(crate) fn dht_keys(
    net: &ChordNetwork,
    participants: &[PeerId],
    params: &ProximityParams,
    oracle: &DistanceOracle,
    landmarks: &[NodeId],
    threads: usize,
) -> Result<(Vec<u32>, Vec<u32>), Error> {
    assert!(!landmarks.is_empty(), "need at least one landmark");
    // Landmark vectors of every participating node, projected onto the
    // key dimensions.
    let dims = params
        .key_dims
        .map(|k| k.clamp(1, landmarks.len()))
        .unwrap_or(landmarks.len());
    // The Hilbert index is carried as u128: clamp bits so dims·bits ≤ 128.
    let bits = params.bits_per_dim.clamp(1, (128 / dims as u32).min(32));
    // One row of `dims` landmark distances per participant, in
    // `participants` order, in one flat vector.
    let rows: Vec<_> = landmarks[..dims].iter().map(|&l| oracle.row(l)).collect();
    let measured =
        proxbal_parallel::map_chunked(participants.len(), CLASSIFY_CHUNK, threads, |range| {
            let mut out = Vec::with_capacity(range.len() * dims);
            for &p in &participants[range] {
                let attach = attachment(net, p)? as usize;
                out.extend(rows.iter().map(|row| row.get(attach)));
            }
            Ok(out)
        });
    let mut vectors: Vec<u32> = Vec::with_capacity(participants.len() * dims);
    for chunk in measured {
        vectors.extend(chunk?);
    }
    let scale_max = vectors.iter().copied().max().unwrap_or(0).max(1);
    if params.center_vectors {
        for v in vectors.chunks_exact_mut(dims) {
            let min = v.iter().copied().min().unwrap_or(0);
            v.iter_mut().for_each(|d| *d -= min);
        }
    }
    let mapper = if params.per_dim_scaling {
        let mut ranges = vec![(u32::MAX, 0u32); dims];
        for v in vectors.chunks_exact(dims) {
            for (r, &d) in ranges.iter_mut().zip(v) {
                r.0 = r.0.min(d);
                r.1 = r.1.max(d);
            }
        }
        for r in ranges.iter_mut() {
            if r.0 > r.1 {
                *r = (0, 1);
            }
        }
        LandmarkMapper::with_ranges(dims as u32, bits, ranges)
    } else if params.center_vectors {
        LandmarkMapper::centered(dims as u32, bits, scale_max)
    } else {
        LandmarkMapper::new(dims as u32, bits, scale_max)
    }
    .with_curve(params.curve);
    let mut distinct: HashMap<&[u32], u32> = HashMap::new();
    let mut firsts: Vec<&[u32]> = Vec::new();
    let key_of: Vec<u32> = vectors
        .chunks_exact(dims)
        .map(|v| {
            *distinct.entry(v).or_insert_with(|| {
                firsts.push(v);
                (firsts.len() - 1) as u32
            })
        })
        .collect();
    let keys = proxbal_parallel::map_chunked(firsts.len(), CLASSIFY_CHUNK, threads, |range| {
        firsts[range]
            .iter()
            .map(|v| mapper.dht_key(v).raw())
            .collect::<Vec<u32>>()
    });
    Ok((keys.into_iter().flatten().collect(), key_of))
}

/// The entry node of every key of `keys`, in order: the report target of
/// the key's owner (keys past the last ring position wrap to the first
/// virtual server), all found in one path-sharing descent in ring order.
pub(crate) fn key_targets(
    net: &ChordNetwork,
    tree: &KTree,
    keys: &[u32],
) -> Result<Vec<KtNodeId>, Error> {
    let owners = keys
        .iter()
        .map(|&key| net.ring().owner(Id::new(key)).ok_or(Error::EmptyNetwork))
        .collect::<Result<Vec<VsId>, Error>>()?;
    Ok(tree.report_targets(net, owners))
}
