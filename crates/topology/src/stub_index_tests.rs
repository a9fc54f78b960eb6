//! Differential tests: the structural index and the transit-source rows
//! against plain Dijkstra.
//!
//! Every point-query check goes through the public path the simulator uses
//! (`DistanceOracle::for_topology(..).distance(u, v)`) and compares with
//! `Graph::dijkstra_into` rows of the same graph. `rows_filled == 0` proves
//! the index answered; `> 0` proves the row fallback did. The BFS-filled
//! per-domain tables are also compared whole with the per-domain Dijkstra
//! fill they replaced (`StubIndex::reference_intra`). Rows from transit
//! sources are compared with `Graph::dijkstra_into` rows in both metrics,
//! straight from `TransitRows` and through `DistanceOracle::precompute`.

use crate::decomposition::TransitRows;
use crate::stub_index::StubIndex;
use crate::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Barrier;

fn generate(config: TransitStubConfig, seed: u64) -> TransitStubTopology {
    TransitStubTopology::generate(config, &mut StdRng::seed_from_u64(seed))
}

/// A topology around a hand-made hop graph: only `graph` and `kinds` are
/// read by the oracle, the rest is filled in consistently.
fn hand_made(graph: Graph, kinds: Vec<DomainKind>) -> TransitStubTopology {
    let graph = std::sync::Arc::new(graph);
    let mut transit_by_domain: Vec<Vec<NodeId>> = Vec::new();
    let mut stub_by_domain: Vec<Vec<NodeId>> = Vec::new();
    for (node, kind) in kinds.iter().enumerate() {
        let (groups, domain) = match *kind {
            DomainKind::Transit { domain } => (&mut transit_by_domain, domain),
            DomainKind::Stub { domain } => (&mut stub_by_domain, domain),
        };
        if groups.len() <= domain as usize {
            groups.resize(domain as usize + 1, Vec::new());
        }
        groups[domain as usize].push(node as NodeId);
    }
    TransitStubTopology {
        latency_graph: std::sync::Arc::clone(&graph),
        coords: vec![(0.0, 0.0); kinds.len()],
        graph,
        kinds: kinds.into(),
        transit_by_domain,
        stub_by_domain,
        config: TransitStubConfig::tiny(),
    }
}

const T: DomainKind = DomainKind::Transit { domain: 0 };
const fn stub(domain: u32) -> DomainKind {
    DomainKind::Stub { domain }
}

fn graph_of(nodes: usize, edges: &[(NodeId, NodeId, u32)]) -> Graph {
    let g = Graph::from_edges(nodes, edges, &[]);
    assert_eq!(g.edge_count(), edges.len(), "duplicate edge or self-loop");
    g
}

fn rows_filled(oracle: &DistanceOracle) -> u64 {
    oracle.cache_stats().computes
}

/// Checks `oracle.distance(src, v)` against a Dijkstra row for every `src`
/// in `sources` and every `v`, both argument orders.
fn assert_rows_exact(
    topo: &TransitStubTopology,
    oracle: &DistanceOracle,
    sources: impl IntoIterator<Item = NodeId>,
) -> Result<(), String> {
    let mut scratch = DijkstraScratch::new();
    for src in sources {
        let row = topo.graph.dijkstra_into(src, &mut scratch);
        for (v, &want) in row.iter().enumerate() {
            let v = v as NodeId;
            let (there, back) = (oracle.distance(src, v), oracle.distance(v, src));
            if there != want || back != want {
                return Err(format!(
                    "d({src},{v}): index {there} / {back}, dijkstra {want}"
                ));
            }
        }
    }
    Ok(())
}

/// The index's BFS-filled tables equal the per-domain Dijkstra reference,
/// entry for entry.
fn assert_tables_match_reference(graph: &Graph, kinds: &[DomainKind]) -> Result<(), String> {
    let index = StubIndex::build(graph, kinds).ok_or("the index declined")?;
    let want = StubIndex::reference_intra(graph, kinds).ok_or("the reference declined")?;
    let got = index.intra();
    if got.len() != want.len() {
        return Err(format!(
            "{} table entries, reference {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(&want).position(|(a, b)| a != b) {
        Some(i) => Err(format!("entry {i}: {} vs reference {}", got[i], want[i])),
        None => Ok(()),
    }
}

/// All pairs through the index, and proof that it was the index.
fn assert_index_exact(topo: &TransitStubTopology) {
    assert_tables_match_reference(&topo.graph, &topo.kinds).unwrap_or_else(|e| panic!("{e}"));
    let oracle = DistanceOracle::for_topology(topo, &topo.graph, 0);
    let all = 0..topo.node_count() as NodeId;
    assert_rows_exact(topo, &oracle, all).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(rows_filled(&oracle), 0, "a point query filled a row");
    assert!(oracle.resident_bytes() > 0, "index bytes are not accounted");
}

/// All pairs through the row fallback, and proof that the index declined.
fn assert_falls_back_exact(topo: &TransitStubTopology) {
    assert!(StubIndex::build(&topo.graph, &topo.kinds).is_none());
    let oracle = DistanceOracle::for_topology(topo, &topo.graph, 0);
    let all = 0..topo.node_count() as NodeId;
    assert_rows_exact(topo, &oracle, all).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        rows_filled(&oracle) > 0,
        "nothing went through the row path"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_index_matches_dijkstra_on_random_configs(
        seed in 0u64..1_000_000,
        transit_domains in 1usize..=4,
        transit_nodes_per_domain in 1usize..=4,
        stub_domains_per_transit_node in 0usize..=3,
        avg_stub_domain_size in 1usize..=16, // sizes are drawn from [avg/2, 3·avg/2]: 1–24
        density in 0usize..3,
        uplink in 0usize..3,
        extra_transit_edges in 0usize..=3,
        extra_inter_domain_edges in 0usize..=3,
    ) {
        let config = TransitStubConfig {
            transit_domains,
            transit_nodes_per_domain,
            stub_domains_per_transit_node,
            avg_stub_domain_size,
            extra_transit_edges,
            extra_inter_domain_edges,
            stub_edge_density: [0.0, 0.42, 1.0][density],
            extra_stub_uplink_prob: [0.0, 0.5, 1.0][uplink],
        };
        let topo = generate(config, seed);
        let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
        // All pairs, transit endpoints included.
        let all = 0..topo.node_count() as NodeId;
        if let Err(e) = assert_rows_exact(&topo, &oracle, all) {
            prop_assert!(false, "{config:?} seed {seed}: {e}");
        }
        prop_assert_eq!(rows_filled(&oracle), 0);
    }
}

/// One stub of `size` members (nodes `transit..`) hung off `transit`
/// transit nodes by up to three weight-3 uplinks. Its unit-weight interior
/// is a spine — none (so usually disconnected), a path (diameter
/// `size − 1`) or a random recursive tree — plus each other pair with
/// probability `density`.
fn single_stub(
    seed: u64,
    size: usize,
    transit: usize,
    spine: usize,
    density: f64,
) -> (Graph, Vec<DomainKind>) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let member = |i: usize| (transit + i) as NodeId;
    if transit == 2 {
        edges.push((0, 1, 3));
    }
    for i in 1..size {
        let parent = match spine {
            1 => i - 1,
            2 => rng.gen_range(0..i),
            _ => break,
        };
        edges.push((member(parent), member(i), 1));
    }
    for a in 0..size {
        for b in a + 1..size {
            if rng.gen::<f64>() < density {
                edges.push((member(a), member(b), 1));
            }
        }
    }
    for _ in 0..rng.gen_range(1..=3) {
        let t = rng.gen_range(0..transit) as NodeId;
        edges.push((member(rng.gen_range(0..size)), t, 3));
    }
    let mut kinds = vec![T; transit];
    kinds.resize(transit + size, stub(0));
    (Graph::from_edges(transit + size, &edges, &[]), kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_bfs_tables_match_dijkstra_reference_on_one_stub(
        seed in 0u64..1_000_000,
        size in 1usize..=200, // one to four 64-bit words a row
        transit in 1usize..=2,
        spine in 0usize..3,
        density in 0usize..4,
    ) {
        let density = [0.0, 0.02, 0.42, 1.0][density];
        let (graph, kinds) = single_stub(seed, size, transit, spine, density);
        if let Err(e) = assert_tables_match_reference(&graph, &kinds) {
            prop_assert!(false, "seed {seed} size {size} spine {spine} density {density}: {e}");
        }
    }
}

#[test]
fn index_matches_dijkstra_on_tiny() {
    for seed in 0..40 {
        assert_index_exact(&generate(TransitStubConfig::tiny(), seed));
    }
}

#[test]
fn index_matches_dijkstra_on_sparse_tree_stubs() {
    // Tree-shaped stubs, every one multi-homed: the regime where leaving a
    // stub and re-entering it beats staying inside, and where stubs carry
    // transit traffic.
    let config = TransitStubConfig {
        avg_stub_domain_size: 16,
        stub_edge_density: 0.0,
        extra_stub_uplink_prob: 1.0,
        ..TransitStubConfig::tiny()
    };
    for seed in 0..20 {
        assert_index_exact(&generate(config, seed));
    }
}

/// Full rows from a spread of sources (transit nodes first, then stubs).
fn assert_preset_rows(config: TransitStubConfig, seed: u64, rows: usize) {
    let topo = generate(config, seed);
    assert_tables_match_reference(&topo.graph, &topo.kinds)
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
    let n = topo.node_count();
    let sources = (0..rows).map(|i| (i * n / rows) as NodeId);
    assert_rows_exact(&topo, &oracle, sources).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert_eq!(rows_filled(&oracle), 0);
}

#[test]
fn index_matches_dijkstra_on_ts5k_large() {
    for seed in [1, 2, 3] {
        assert_preset_rows(TransitStubConfig::ts5k_large(), seed, 64);
    }
}

#[test]
fn index_matches_dijkstra_on_ts5k_small() {
    for seed in [1, 2, 3] {
        assert_preset_rows(TransitStubConfig::ts5k_small(), seed, 64);
    }
}

#[test]
fn index_matches_dijkstra_on_ts50k() {
    assert_preset_rows(TransitStubConfig::ts50k(), 1, 16);
}

#[test]
fn single_transit_domain() {
    let config = TransitStubConfig {
        transit_domains: 1,
        extra_inter_domain_edges: 0,
        ..TransitStubConfig::tiny()
    };
    for seed in 0..8 {
        assert_index_exact(&generate(config, seed));
    }
}

#[test]
fn one_node_stubs() {
    let config = TransitStubConfig {
        avg_stub_domain_size: 1,
        extra_stub_uplink_prob: 1.0,
        ..TransitStubConfig::tiny()
    };
    for seed in 0..8 {
        let topo = generate(config, seed);
        assert!(topo.stub_by_domain.iter().all(|s| s.len() == 1));
        assert_index_exact(&topo);
    }
}

#[test]
fn both_uplinks_on_one_gateway() {
    // 0 ─5─ 1 (transit); stub {2,3,4} is a path whose end 2 holds both
    // uplinks; stub {5} hangs off 1.
    let graph = graph_of(
        6,
        &[
            (0, 1, 5),
            (2, 3, 1),
            (3, 4, 1),
            (2, 0, 3),
            (2, 1, 1),
            (5, 1, 3),
        ],
    );
    let topo = hand_made(graph, vec![T, T, stub(0), stub(0), stub(0), stub(1)]);
    assert_index_exact(&topo);
    // The gateway is a through-route: 0 → 2 → 1 (4) beats the direct 5.
    assert_eq!(
        DistanceOracle::for_topology(&topo, &topo.graph, 0).distance(0, 1),
        4
    );
}

#[test]
fn both_uplinks_to_one_transit_node() {
    // Stub {1,2,3,4} is a path with both ends uplinked to transit node 0.
    let graph = graph_of(5, &[(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 0, 1), (4, 0, 1)]);
    let topo = hand_made(graph, vec![T, stub(0), stub(0), stub(0), stub(0)]);
    assert_index_exact(&topo);
    // Out through one uplink and back through the other: 1 → 0 → 4.
    assert_eq!(
        DistanceOracle::for_topology(&topo, &topo.graph, 0).distance(1, 4),
        2
    );
}

#[test]
fn multi_homed_stub_is_a_through_route() {
    // Transit 0 ─20─ 1. Stub A {2,3} bridges them cheaply (0─2─3─1); stubs
    // B {4} and C {5} hang off 0 and 1. d(4,5) must route *through* A.
    let graph = graph_of(
        6,
        &[
            (0, 1, 20),
            (2, 3, 1),
            (2, 0, 3),
            (3, 1, 3),
            (4, 0, 3),
            (5, 1, 3),
        ],
    );
    let topo = hand_made(graph, vec![T, T, stub(0), stub(0), stub(1), stub(2)]);
    assert_index_exact(&topo);
    assert_eq!(
        DistanceOracle::for_topology(&topo, &topo.graph, 0).distance(4, 5),
        13
    );
}

#[test]
fn distance_to_self_is_zero() {
    let topo = generate(TransitStubConfig::tiny(), 5);
    let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
    for u in 0..topo.node_count() as NodeId {
        assert_eq!(oracle.distance(u, u), 0);
    }
}

#[test]
fn unreachable_pairs_are_infinite() {
    // Stub {2} has no uplink; stub {3,4} is internally disconnected but
    // joined through the core.
    let graph = graph_of(5, &[(0, 1, 1), (3, 0, 3), (4, 1, 3)]);
    let topo = hand_made(graph, vec![T, T, stub(0), stub(1), stub(1)]);
    assert_index_exact(&topo);
    let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
    assert_eq!(oracle.distance(2, 3), INFINITE_DISTANCE);
    assert_eq!(oracle.distance(3, 4), 7);
}

#[test]
fn uplink_weights_are_read_from_the_graph() {
    // Nothing outside the stub interior is 1 or 3 here, and the stub has
    // three uplinks.
    let graph = graph_of(
        7,
        &[
            (0, 1, 7),
            (1, 2, 11),
            (3, 4, 1),
            (4, 5, 1),
            (3, 0, 4),
            (4, 1, 6),
            (5, 2, 5),
            (6, 2, 8),
        ],
    );
    let topo = hand_made(graph, vec![T, T, T, stub(0), stub(0), stub(0), stub(1)]);
    assert_index_exact(&topo);
}

#[test]
fn stub_to_stub_edge_falls_back_to_rows() {
    // Stubs {2,3} and {4,5} are joined directly by 3─4: the one shape the
    // index does not cover.
    let graph = graph_of(
        6,
        &[
            (0, 1, 3),
            (2, 3, 1),
            (4, 5, 1),
            (2, 0, 3),
            (5, 1, 3),
            (3, 4, 1),
        ],
    );
    let topo = hand_made(graph, vec![T, T, stub(0), stub(0), stub(1), stub(1)]);
    assert_falls_back_exact(&topo);
    // Rows from transit sources then come from Dijkstra too.
    assert!(TransitRows::build(&topo.graph, &topo.kinds).is_none());
    let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
    oracle.precompute(&[0, 1], 1);
    for src in [0, 1] {
        assert_eq!(oracle.row(src).to_vec(), topo.graph.dijkstra(src));
    }
}

#[test]
fn weighted_stub_interior_falls_back_to_rows() {
    // The tables are filled by BFS, so an intra-stub edge that does not
    // weigh 1 — here 2, and one whose distances would not fit 8 bits —
    // sends every query to the row path.
    let graph = graph_of(4, &[(1, 2, 2), (2, 3, 300), (1, 0, 3)]);
    let topo = hand_made(graph, vec![T, stub(0), stub(0), stub(0)]);
    assert_falls_back_exact(&topo);
}

/// One stub that is a path of `members` nodes, hung off transit node 0 at
/// one end: its ends are `members − 1` hops apart.
fn path_stub(members: usize) -> TransitStubTopology {
    let mut edges: Vec<_> = (1..members as NodeId).map(|i| (i, i + 1, 1)).collect();
    edges.push((1, 0, 3));
    let mut kinds = vec![T];
    kinds.resize(members + 1, stub(0));
    hand_made(graph_of(members + 1, &edges), kinds)
}

#[test]
fn a_stub_254_hops_across_is_indexed() {
    // The largest distance the one-byte tables hold.
    assert_index_exact(&path_stub(255));
}

#[test]
fn a_stub_255_hops_across_falls_back_to_rows() {
    // One hop more than the tables hold: the index declines and the oracle
    // still answers exactly.
    assert_falls_back_exact(&path_stub(256));
}

#[test]
fn core_sweep_matches_all_pairs_on_preset_skeletons() {
    for config in [
        TransitStubConfig::ts5k_small(),
        TransitStubConfig::ts5k_large(),
        TransitStubConfig::ts50k(),
    ] {
        let topo = generate(config, 1);
        let skeleton = StubIndex::skeleton(&topo.graph, &topo.kinds).expect("an indexable preset");
        let want = skeleton.all_pairs().concat();
        assert_eq!(skeleton.distance_table(), want, "{config:?}");
        let index = StubIndex::build(&topo.graph, &topo.kinds).expect("an indexable preset");
        assert_eq!(index.core(), want, "{config:?}");
    }
}

#[test]
fn concurrent_first_callers_agree() {
    // Every caller arrives before the index exists; exactly one builds it
    // and all read the same answers.
    let topo = generate(TransitStubConfig::ts5k_large(), 4);
    let n = topo.node_count() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..512).map(|i| (i * 7 % n, i * 131 % n)).collect();
    let mut scratch = DijkstraScratch::new();
    let want: Vec<u32> = pairs
        .iter()
        .map(|&(u, v)| topo.graph.dijkstra_into(u, &mut scratch)[v as usize])
        .collect();
    for callers in [1usize, 2, 8] {
        let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
        let gate = Barrier::new(callers);
        let answers: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        pairs.iter().map(|&(u, v)| oracle.distance(u, v)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller panicked"))
                .collect()
        });
        for got in &answers {
            assert_eq!(got, &want, "{callers} callers");
        }
        assert_eq!(rows_filled(&oracle), 0);
    }
}

/// The row from each of `sources`, straight from [`TransitRows`] (transit
/// sources) and through `precompute` on `threads` workers (every source;
/// a stub source takes Dijkstra), equals its Dijkstra row on `graph`.
fn assert_transit_rows_exact(
    topo: &TransitStubTopology,
    graph: &std::sync::Arc<Graph>,
    sources: &[NodeId],
    threads: usize,
) -> Result<(), String> {
    let rows = TransitRows::build(graph, &topo.kinds).ok_or("the decomposition declined")?;
    let oracle = DistanceOracle::for_topology(topo, graph, 0);
    oracle.precompute(sources, threads);
    assert_eq!(rows_filled(&oracle), sources.len() as u64);
    let (mut scratch, mut reference) = (DijkstraScratch::new(), DijkstraScratch::new());
    let mut direct = Vec::new();
    for &src in sources {
        let want = graph.dijkstra_into(src, &mut reference);
        let transit = matches!(topo.kind(src), DomainKind::Transit { .. });
        if rows.row(src, &mut scratch, &mut direct) != transit {
            return Err(format!("source {src}: transit {transit}, rows disagree"));
        }
        if let Some(v) = (0..want.len()).find(|&v| transit && direct[v] != want[v]) {
            return Err(format!(
                "d({src},{v}): rows {} dijkstra {}",
                direct[v], want[v]
            ));
        }
        if oracle.row(src).to_vec() != want {
            return Err(format!("precomputed row {src} differs"));
        }
    }
    Ok(())
}

/// The 15 landmarks `prepare` would pick (transit nodes, topped up with
/// stub nodes on tiny) and one stub node, in both metrics.
fn assert_preset_transit_rows(config: TransitStubConfig, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let topo = generate(config, seed);
        let mut sources = select_landmarks(&topo, 15, &mut StdRng::seed_from_u64(seed));
        if !sources.contains(&topo.stub_by_domain[0][0]) {
            sources.push(topo.stub_by_domain[0][0]);
        }
        for graph in [&topo.graph, &topo.latency_graph] {
            assert_transit_rows_exact(&topo, graph, &sources, 2)
                .unwrap_or_else(|e| panic!("{config:?} seed {seed}: {e}"));
        }
    }
}

#[test]
fn transit_rows_match_dijkstra_on_tiny() {
    assert_preset_transit_rows(TransitStubConfig::tiny(), 0..8);
}

#[test]
fn transit_rows_match_dijkstra_on_ts5k_large() {
    assert_preset_transit_rows(TransitStubConfig::ts5k_large(), 1..3);
}

#[test]
fn transit_rows_match_dijkstra_on_ts5k_small() {
    assert_preset_transit_rows(TransitStubConfig::ts5k_small(), 1..3);
}

#[test]
fn transit_rows_match_dijkstra_on_ts50k() {
    assert_preset_transit_rows(TransitStubConfig::ts50k(), 1..2);
}

/// A random underlay the generator never makes: a transit core of 1–6
/// nodes (possibly disconnected), 0–6 stubs of 1–8 members with intra-stub
/// weights 1–9, each stub with 0–3 uplinks (0: unreachable) that often
/// share a gateway or a transit node, every weight off the 1:3 model, and
/// node ids shuffled so that no domain is a run.
fn random_underlay(seed: u64) -> TransitStubTopology {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let transit = rng.gen_range(1..=6usize);
    let sizes: Vec<usize> = (0..rng.gen_range(0..=6))
        .map(|_| rng.gen_range(1..=8))
        .collect();
    let n = transit + sizes.iter().sum::<usize>();
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    ids.shuffle(&mut rng);
    let mut kinds = vec![T; n];
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..=2 * transit) {
        let (a, b) = (rng.gen_range(0..transit), rng.gen_range(0..transit));
        edges.push((ids[a], ids[b], rng.gen_range(1..=20)));
    }
    let mut first = transit;
    for (domain, &size) in sizes.iter().enumerate() {
        let members = &ids[first..first + size];
        for &m in members {
            kinds[m as usize] = stub(domain as u32);
        }
        let density = rng.gen_range(0.0..1.0);
        for a in 0..size {
            for b in a + 1..size {
                if rng.gen_bool(density) {
                    edges.push((members[a], members[b], rng.gen_range(1..=9)));
                }
            }
        }
        let (mut gateway, mut to) = (members[0], ids[0]);
        for _ in 0..rng.gen_range(0..=3) {
            if rng.gen_bool(0.6) {
                gateway = *members.choose(&mut rng).unwrap();
            }
            if rng.gen_bool(0.6) {
                to = ids[rng.gen_range(0..transit)];
            }
            edges.push((gateway, to, rng.gen_range(1..=20)));
        }
        first += size;
    }
    hand_made(Graph::from_edges(n, &edges, &[]), kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_transit_rows_match_dijkstra_on_random_underlays(seed in 0u64..1_000_000) {
        let topo = random_underlay(seed);
        // Every transit node, and a stub landmark when there is one: it
        // takes the Dijkstra fallback.
        let transit = (0..topo.node_count() as NodeId)
            .filter(|&v| matches!(topo.kind(v), DomainKind::Transit { .. }));
        let sources: Vec<NodeId> = transit.chain(topo.stub_nodes().first().copied()).collect();
        if let Err(e) = assert_transit_rows_exact(&topo, &topo.graph, &sources, 1 + seed as usize % 2) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }
}
