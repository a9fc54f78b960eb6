use crate::transit_stub::{INTER_DOMAIN_WEIGHT, INTRA_DOMAIN_WEIGHT};
use crate::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc as StdArc;

fn small_topo(seed: u64) -> TransitStubTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng)
}

#[test]
fn graph_basic_ops() {
    // A duplicate (either direction, any weight) and a self-loop are dropped.
    let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (1, 0, 5), (2, 2, 1)], &[]);
    assert_eq!(g.edge_count(), 2);
    assert_eq!(g.max_weight(), 2);
    assert!(g.neighbors(0).eq([(1, 1)]));
    assert!(g.neighbors(1).eq([(0, 1), (2, 2)]));
    assert_eq!(g.neighbors(3).len(), 0);
    assert!(!g.is_connected()); // node 3 isolated
}

#[test]
fn dijkstra_matches_hand_computed() {
    // 0 -1- 1 -1- 2
    //  \----5----/
    let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 5)], &[]);
    let d = g.dijkstra(0);
    assert_eq!(d, vec![0, 1, 2]);
}

#[test]
fn dijkstra_unreachable_is_infinite() {
    let g = Graph::from_edges(2, &[], &[]);
    let d = g.dijkstra(0);
    assert_eq!(d[1], INFINITE_DISTANCE);
}

/// Brute-force Bellman-Ford style relaxation as an independent check.
fn bellman_ford(g: &Graph, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![u64::from(INFINITE_DISTANCE); n];
    dist[src as usize] = 0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n as NodeId {
            if dist[u as usize] == u64::from(INFINITE_DISTANCE) {
                continue;
            }
            for (v, w) in g.neighbors(u) {
                let nd = dist[u as usize] + u64::from(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist.into_iter()
        .map(|d| d.min(u64::from(INFINITE_DISTANCE)) as u32)
        .collect()
}

#[test]
fn dijkstra_agrees_with_bellman_ford_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..20 {
        let n = 30;
        let edges: Vec<_> = (0..60)
            .map(|_| {
                let u = rand::Rng::gen_range(&mut rng, 0..n as NodeId);
                let v = rand::Rng::gen_range(&mut rng, 0..n as NodeId);
                (u, v, rand::Rng::gen_range(&mut rng, 1..5))
            })
            .collect();
        let g = Graph::from_edges(n, &edges, &[]);
        for src in [0, 7, 29] {
            assert_eq!(g.dijkstra(src), bellman_ford(&g, src));
        }
    }
}

#[test]
fn tiny_topology_is_connected_and_shaped() {
    let topo = small_topo(1);
    assert!(topo.graph.is_connected());
    let cfg = topo.config;
    assert_eq!(topo.transit_by_domain.len(), cfg.transit_domains);
    assert_eq!(
        topo.stub_by_domain.len(),
        cfg.transit_domains * cfg.transit_nodes_per_domain * cfg.stub_domains_per_transit_node
    );
    // Every node is classified, and classification matches group membership.
    for (d, ids) in topo.transit_by_domain.iter().enumerate() {
        for &n in ids {
            assert_eq!(topo.kind(n), DomainKind::Transit { domain: d as u32 });
        }
    }
    for (d, ids) in topo.stub_by_domain.iter().enumerate() {
        for &n in ids {
            assert_eq!(topo.kind(n), DomainKind::Stub { domain: d as u32 });
        }
    }
}

#[test]
fn ts5k_presets_have_paper_scale() {
    // Around 5,000 nodes each (paper: "approximately 5,000 nodes each").
    let large = TransitStubConfig::ts5k_large().expected_nodes();
    let small = TransitStubConfig::ts5k_small().expected_nodes();
    assert!((4000..7000).contains(&large), "ts5k-large expected {large}");
    assert!((4000..7000).contains(&small), "ts5k-small expected {small}");
}

#[test]
fn ts5k_large_generates_connected() {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    assert!(topo.graph.is_connected());
    let n = topo.node_count();
    assert!((4000..7000).contains(&n), "actual node count {n}");
}

#[test]
fn interdomain_edges_cost_three() {
    let topo = small_topo(3);
    // Every edge between nodes of different domains must have weight 3,
    // intradomain edges weight 1.
    for u in 0..topo.node_count() as NodeId {
        for (v, w) in topo.graph.neighbors(u) {
            let same_domain = topo.kind(u) == topo.kind(v);
            if same_domain {
                assert_eq!(w, INTRA_DOMAIN_WEIGHT, "intra edge {u}-{v}");
            } else {
                assert_eq!(w, INTER_DOMAIN_WEIGHT, "inter edge {u}-{v}");
            }
        }
    }
}

#[test]
fn generation_is_deterministic_per_seed() {
    let a = small_topo(99);
    let b = small_topo(99);
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    for u in 0..a.node_count() as NodeId {
        assert!(a.graph.neighbors(u).eq(b.graph.neighbors(u)));
        assert!(a
            .latency_graph
            .neighbors(u)
            .eq(b.latency_graph.neighbors(u)));
    }
}

#[test]
fn landmarks_spread_over_transit_domains() {
    let mut rng = StdRng::seed_from_u64(5);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let lms = select_landmarks(&topo, 15, &mut rng);
    assert_eq!(lms.len(), 15);
    // No duplicates.
    let mut sorted = lms.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 15);
    // ts5k-large has 15 transit nodes across 5 domains: all must be used,
    // hitting every domain.
    let mut domains: Vec<u32> = lms
        .iter()
        .map(|&l| match topo.kind(l) {
            DomainKind::Transit { domain } => domain,
            DomainKind::Stub { .. } => panic!("landmark should be transit node here"),
        })
        .collect();
    domains.sort_unstable();
    domains.dedup();
    assert_eq!(domains.len(), 5);
}

#[test]
fn landmarks_fill_from_stubs_when_needed() {
    let topo = small_topo(11); // only 4 transit nodes
    let mut rng = StdRng::seed_from_u64(6);
    let lms = select_landmarks(&topo, 10, &mut rng);
    assert_eq!(lms.len(), 10);
}

#[test]
fn zero_landmarks_selects_nothing() {
    let topo = small_topo(11);
    let mut rng = StdRng::seed_from_u64(6);
    assert!(select_landmarks(&topo, 0, &mut rng).is_empty());
}

#[test]
fn oracle_matches_direct_dijkstra() {
    let topo = small_topo(2);
    let g = StdArc::clone(&topo.graph);
    let oracle = DistanceOracle::new(g.clone());
    let direct = g.dijkstra(0);
    for v in 0..g.node_count() as NodeId {
        assert_eq!(oracle.distance(0, v), direct[v as usize]);
    }
    assert_eq!(oracle.stored_rows(), 1);
}

#[test]
fn oracle_precompute_parallel() {
    let topo = small_topo(8);
    let oracle = DistanceOracle::new(StdArc::clone(&topo.graph));
    let sources: Vec<NodeId> = (0..topo.node_count() as NodeId).collect();
    oracle.precompute(&sources, 4);
    assert_eq!(oracle.stored_rows(), topo.node_count());
    // Spot-check symmetry (undirected graph ⇒ symmetric distances).
    for &u in sources.iter().step_by(3) {
        for &v in sources.iter().step_by(5) {
            assert_eq!(oracle.distance(u, v), oracle.distance(v, u));
        }
    }
}

#[test]
fn oracle_precompute_cursor_any_thread_count() {
    // Work is handed out through a shared atomic cursor, so every thread
    // count fills exactly the same rows with exactly the same contents.
    let topo = small_topo(9);
    let graph = StdArc::clone(&topo.graph);
    let baseline = DistanceOracle::new(StdArc::clone(&graph));
    let sources: Vec<NodeId> = (0..topo.node_count() as NodeId).step_by(2).collect();
    baseline.precompute(&sources, 1);
    for threads in [1usize, 2, 8] {
        let oracle = DistanceOracle::new(StdArc::clone(&graph));
        oracle.precompute(&sources, threads);
        assert_eq!(oracle.stored_rows(), sources.len(), "threads={threads}");
        for &src in &sources {
            assert_eq!(
                oracle.row(src).to_vec(),
                baseline.row(src).to_vec(),
                "row {src} differs at threads={threads}"
            );
        }
    }
}

#[test]
fn landmark_vector_has_expected_shape() {
    let topo = small_topo(4);
    let mut rng = StdRng::seed_from_u64(4);
    let lms = select_landmarks(&topo, 4, &mut rng);
    let oracle = DistanceOracle::new(StdArc::clone(&topo.graph));
    let stub = topo.stub_nodes()[0];
    let vec = oracle.landmark_vector(stub, &lms);
    assert_eq!(vec.len(), 4);
    // A landmark's own vector has a zero coordinate at its position.
    let own = oracle.landmark_vector(lms[2], &lms);
    assert_eq!(own[2], 0);
}

#[test]
fn same_stub_nodes_have_similar_landmark_vectors() {
    // The premise of landmark clustering (§4.1): physically close nodes have
    // similar landmark vectors. Two nodes in the same stub domain must have
    // coordinates differing by at most the stub's internal diameter, while a
    // node in a different transit domain differs by interdomain distances.
    let mut rng = StdRng::seed_from_u64(21);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let lms = select_landmarks(&topo, 15, &mut rng);
    let oracle = DistanceOracle::new(StdArc::clone(&topo.graph));

    let stub0 = &topo.stub_by_domain[0];
    let a = oracle.landmark_vector(stub0[0], &lms);
    let b = oracle.landmark_vector(stub0[1], &lms);
    let same_diff: u32 = a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).sum();

    // A node hanging off the *last* transit domain.
    let far = *topo.stub_by_domain.last().unwrap().first().unwrap();
    let c = oracle.landmark_vector(far, &lms);
    let far_diff: u32 = a.iter().zip(&c).map(|(x, y)| x.abs_diff(*y)).sum();

    assert!(
        same_diff < far_diff,
        "same-stub diff {same_diff} should be below cross-domain diff {far_diff}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_generated_topologies_connected(seed in 0u64..500) {
        let topo = small_topo(seed);
        prop_assert!(topo.graph.is_connected());
    }

    #[test]
    fn prop_bucket_dijkstra_matches_heap(seed in 0u64..200) {
        // The bucket-queue kernel must agree with the binary-heap baseline
        // on every source, in both weight regimes (hop costs well inside
        // the bucket threshold; latency weights that may fall back).
        let topo = small_topo(seed);
        let mut scratch = DijkstraScratch::new();
        for graph in [&topo.graph, &topo.latency_graph] {
            let n = graph.node_count() as NodeId;
            for src in (0..n).step_by(7) {
                let heap = graph.dijkstra_reference(src);
                prop_assert_eq!(&graph.dijkstra(src), &heap);
                // The scratch is deliberately reused across sources and
                // graphs — stale state must not leak between runs.
                prop_assert_eq!(graph.dijkstra_into(src, &mut scratch), &heap[..]);
            }
        }
    }

    #[test]
    fn prop_precompute_threads_match_sequential(seed in 0u64..50) {
        // Batched multi-source precompute fills exactly the same rows
        // regardless of thread count.
        let topo = small_topo(seed);
        let graph = StdArc::clone(&topo.graph);
        let sequential = DistanceOracle::new(StdArc::clone(&graph));
        let threaded = DistanceOracle::new(graph);
        let n = topo.node_count() as NodeId;
        let sources: Vec<NodeId> = (0..n).step_by(3).collect();
        sequential.precompute(&sources, 1);
        threaded.precompute(&sources, 4);
        prop_assert_eq!(sequential.stored_rows(), threaded.stored_rows());
        for &src in &sources {
            let seq_row = sequential.row(src);
            let thr_row = threaded.row(src);
            prop_assert_eq!(seq_row.to_vec(), thr_row.to_vec());
        }
    }

    /// The row memo against an independent reference: on random graphs,
    /// at capacities 0, 1, 2 and 16, after a landmark `precompute` at 1 and
    /// 4 threads, a random sequence of `row`, `distance` and
    /// `landmark_vector` calls answers exactly what Bellman-Ford gives. The
    /// memo never stores more rows than its capacity and never evicts, and
    /// unbounded it fills each distinct source's row exactly once.
    #[test]
    fn prop_row_memo_matches_bellman_ford(seed in 0u64..150) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..40usize);
        let edges: Vec<_> = (0..rng.gen_range(0..3 * n))
            .map(|_| {
                let u = rng.gen_range(0..n as NodeId);
                (u, rng.gen_range(0..n as NodeId), rng.gen_range(1..9))
            })
            .collect();
        let graph = StdArc::new(Graph::from_edges(n, &edges, &[]));
        let reference: Vec<Vec<u32>> = (0..n as NodeId).map(|s| bellman_ford(&graph, s)).collect();
        let mut landmarks: Vec<NodeId> = Vec::new();
        while landmarks.len() < n.min(4) {
            let l = rng.gen_range(0..n as NodeId);
            if !landmarks.contains(&l) {
                landmarks.push(l);
            }
        }
        for capacity in [0, 1, 2, 16] {
            for threads in [1, 4] {
                let oracle = DistanceOracle::with_capacity(StdArc::clone(&graph), capacity);
                oracle.precompute(&landmarks, threads);
                // The sources an unbounded memo has stored.
                let mut sources: std::collections::BTreeSet<NodeId> =
                    landmarks.iter().copied().collect();
                for _ in 0..30 {
                    let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
                    let from_u = &reference[u as usize];
                    match rng.gen_range(0..3) {
                        0 => {
                            prop_assert_eq!(&oracle.row(u).to_vec(), from_u);
                            sources.insert(u);
                        }
                        1 => {
                            prop_assert_eq!(oracle.distance(u, v), from_u[v as usize]);
                            if u != v && !sources.contains(&u) && !sources.contains(&v) {
                                sources.insert(u);
                            }
                        }
                        _ => {
                            let want: Vec<u32> =
                                landmarks.iter().map(|&l| reference[l as usize][u as usize]).collect();
                            prop_assert_eq!(oracle.landmark_vector(u, &landmarks), want);
                        }
                    }
                    prop_assert!(capacity == 0 || oracle.stored_rows() <= capacity);
                }
                let stats = oracle.cache_stats();
                prop_assert_eq!(stats.evictions, 0);
                if capacity == 0 {
                    prop_assert_eq!(stats.computes, sources.len() as u64);
                    prop_assert_eq!(oracle.stored_rows(), sources.len());
                }
            }
        }
    }

    #[test]
    fn prop_compact_row_roundtrip(seed in 0u64..200) {
        // Block compression is lossless for arbitrary u32 rows, including
        // INFINITE_DISTANCE entries and spreads needing every width class.
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rand::Rng::gen_range(&mut rng, 0usize..2000);
        let values: Vec<u32> = (0..len)
            .map(|_| match rand::Rng::gen_range(&mut rng, 0u8..5) {
                0 => rand::Rng::gen_range(&mut rng, 0u32..4),
                1 => rand::Rng::gen_range(&mut rng, 0u32..300),
                2 => rand::Rng::gen_range(&mut rng, 0u32..100_000),
                3 => rand::Rng::gen(&mut rng),
                _ => INFINITE_DISTANCE,
            })
            .collect();
        let row = CompactRow::compress(&values);
        prop_assert_eq!(row.len(), values.len());
        prop_assert_eq!(row.to_vec(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(row.get(i), v);
        }
    }

    #[test]
    fn prop_landmark_bounds_bracket_exact_distance(seed in 0u64..50) {
        // The LandmarkOracle's triangle-inequality bounds must always
        // bracket the exact shortest-path distance, and the approximate
        // estimate (the upper bound) must never undershoot.
        let topo = small_topo(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let lms = select_landmarks(&topo, 6, &mut rng);
        let oracle = DistanceOracle::new(StdArc::clone(&topo.graph));
        let lm = LandmarkOracle::build(&oracle, &lms, 2);
        let n = topo.node_count() as NodeId;
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(7) {
                let exact = oracle.distance(u, v);
                let (lo, hi) = lm.bounds(u, v);
                prop_assert!(lo <= exact, "lower {lo} > exact {exact} for ({u},{v})");
                prop_assert!(exact <= hi, "upper {hi} < exact {exact} for ({u},{v})");
                prop_assert!(lm.estimate(u, v) >= exact);
            }
        }
        // A landmark's own distances are recovered exactly.
        for &l in &lms {
            for v in (0..n).step_by(11) {
                let (lo, hi) = lm.bounds(l, v);
                let exact = oracle.distance(l, v);
                prop_assert_eq!(lo, exact);
                prop_assert_eq!(hi, exact);
            }
        }
    }

    #[test]
    fn prop_triangle_inequality(seed in 0u64..50) {
        let topo = small_topo(seed);
        let oracle = DistanceOracle::new(StdArc::clone(&topo.graph));
        let n = topo.node_count() as NodeId;
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(7) {
                for w in (0..n).step_by(3) {
                    let duv = u64::from(oracle.distance(u, v));
                    let duw = u64::from(oracle.distance(u, w));
                    let dwv = u64::from(oracle.distance(w, v));
                    prop_assert!(duv <= duw + dwv);
                }
            }
        }
    }
}

#[test]
fn oracle_accounts_resident_bytes() {
    let topo = small_topo(12);
    let graph = StdArc::clone(&topo.graph);
    let oracle = DistanceOracle::new(StdArc::clone(&graph));
    assert_eq!(oracle.resident_bytes(), 0);
    let r0 = oracle.row(0).size_bytes();
    assert_eq!(oracle.resident_bytes(), r0);
    // Compression on the hop metric beats the raw 4 B/entry row by a wide
    // margin: stub domains share distances, so most blocks are 0–1 B/entry.
    // (Allow for the fixed struct + block-directory overhead, which
    // dominates on the tiny test topology.)
    let overhead = std::mem::size_of::<CompactRow>() + 64;
    assert!(
        r0 < overhead + graph.node_count() * 2,
        "row bytes {r0} too large for {} nodes",
        graph.node_count()
    );
    // Every stored row is accounted, and a stored row is never refilled.
    let r1 = oracle.row(1).size_bytes();
    let _ = oracle.row(0);
    assert_eq!(oracle.resident_bytes(), r0 + r1);
    assert_eq!(oracle.cache_stats().computes, 2);
}

#[test]
fn latency_graph_shares_edges_with_hop_graph() {
    // Arc for arc: the same targets in the same order, each weighted by
    // its rounded Euclidean length and never below 1.
    for (config, seed) in [
        (TransitStubConfig::tiny(), 31),
        (TransitStubConfig::ts5k_small(), 32),
    ] {
        let topo = TransitStubTopology::generate(config, &mut StdRng::seed_from_u64(seed));
        let (hops, latency) = (&topo.graph, &topo.latency_graph);
        assert_eq!(hops.node_count(), latency.node_count());
        assert_eq!(hops.edge_count(), latency.edge_count());
        let mut max_weight = 0;
        for u in 0..topo.node_count() as NodeId {
            let (arcs, lat_arcs) = (hops.neighbors(u), latency.neighbors(u));
            assert_eq!(arcs.len(), lat_arcs.len(), "node {u}");
            for ((v, _), (lat_v, w)) in arcs.zip(lat_arcs) {
                assert_eq!(v, lat_v, "node {u}");
                let (ux, uy) = topo.coords[u as usize];
                let (vx, vy) = topo.coords[v as usize];
                let euclid = ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt();
                assert_eq!(w, (euclid.round() as u32).max(1), "arc {u}-{v}");
                assert!(w >= 1);
                max_weight = max_weight.max(w);
            }
        }
        assert_eq!(latency.max_weight(), max_weight);
        assert!(latency.is_connected());
    }
}

#[test]
fn hop_and_latency_graphs_store_one_adjacency() {
    // ts50k, seed 1: two 4-byte offset columns and a 4-byte block base per
    // node, stored once. An intradomain arc is a 1-byte offset, plus a
    // 1-byte latency (its hop weight, 1, is not stored); any other arc is
    // a 4-byte target, plus a 2-byte weight in each metric.
    let topo =
        TransitStubTopology::generate(TransitStubConfig::ts50k(), &mut StdRng::seed_from_u64(1));
    let (hops, latency) = (&topo.graph, &topo.latency_graph);
    assert!(hops.shares_adjacency(latency));
    let (n, arcs) = (topo.node_count(), 2 * hops.edge_count());
    assert_eq!((n, arcs), (50_073, 2_323_572));
    let local = (0..n as NodeId)
        .flat_map(|u| hops.neighbors(u).map(move |(v, _)| (u, v)))
        .filter(|&(u, v)| topo.kind(u) == topo.kind(v))
        .count();
    assert_eq!(local, 2_321_962);
    let together = hops.size_bytes() + latency.size_bytes();
    let bound = 2 * 4 * (n + 1) + 4 * n + 2 * local + (4 + 2 * 2) * (arcs - local) + 512;
    assert!(together <= bound, "{together} bytes > {bound}");
}

#[test]
fn oracles_share_the_topology_graph() {
    let topo = small_topo(35);
    let oracle = DistanceOracle::for_topology(&topo, &topo.graph, 0);
    assert!(std::ptr::eq(oracle.graph(), &*topo.graph));
}

#[test]
fn coords_cluster_stub_members() {
    let mut rng = StdRng::seed_from_u64(33);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let dist = |a: NodeId, b: NodeId| -> f64 {
        let (ax, ay) = topo.coords[a as usize];
        let (bx, by) = topo.coords[b as usize];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    };
    // Same-stub pairs are far closer in the plane than cross-domain pairs.
    let s0 = &topo.stub_by_domain[0];
    let s_far = topo.stub_by_domain.last().unwrap();
    let same = dist(s0[0], s0[1]);
    let cross = dist(s0[0], s_far[0]);
    assert!(
        same * 5.0 < cross,
        "same-stub {same:.1} should be well below cross-domain {cross:.1}"
    );
}

#[test]
fn latency_distances_distinguish_sibling_stubs() {
    // The property the landmark mapping relies on (DESIGN.md §4b.2): two
    // stub domains hanging off the same transit node get different latency
    // signatures, even though their hop-count signatures are nearly equal.
    let mut rng = StdRng::seed_from_u64(34);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let lat = DistanceOracle::new(StdArc::clone(&topo.latency_graph));
    let lms = select_landmarks(&topo, 15, &mut rng);
    // Stub domains 0 and 1 hang off the same transit node by construction.
    let a = lat.landmark_vector(topo.stub_by_domain[0][0], &lms);
    let b = lat.landmark_vector(topo.stub_by_domain[1][0], &lms);
    let diff: u64 = a
        .iter()
        .zip(&b)
        .map(|(x, y)| u64::from(x.abs_diff(*y)))
        .sum();
    // Same-stub neighbours differ far less.
    let a2 = lat.landmark_vector(topo.stub_by_domain[0][1], &lms);
    let same_diff: u64 = a
        .iter()
        .zip(&a2)
        .map(|(x, y)| u64::from(x.abs_diff(*y)))
        .sum();
    assert!(
        diff > 3 * same_diff.max(1),
        "sibling stubs should separate: cross {diff} vs same {same_diff}"
    );
}
