//! The four workloads. Each composes public `proxbal_*` calls exactly as
//! `repro` does, timing them from outside; nothing here reaches into a
//! crate. README.md lists every item called, for whoever redesigns those
//! APIs.

use crate::child::{Ctx, MIB};
use crate::stats::{median, tail_percentile};
use proxbal_chord::ChordNetwork;
use proxbal_core::{
    total_moved_load, ApproxTransfer, BalanceReport, BalancerConfig, LoadBalancer, LoadState,
    NodeClass, ProximityMode, ProximityParams, RoundWalls, TransferRecord, Underlay,
};
use proxbal_hilbert::LandmarkMapper;
use proxbal_id::Id;
use proxbal_ktree::KTree;
use proxbal_sim::des::RetryPolicy;
use proxbal_sim::experiments::{self, XL2_SPLIT_DEPTH};
use proxbal_sim::faults::{
    simulate_aggregation_faulty, simulate_dissemination_faulty, FaultConfig, FaultPlan,
};
use proxbal_sim::metrics::DistanceHistogram;
use proxbal_sim::protocol::ProtocolScratch;
use proxbal_sim::{parallel, EngineConfig, Prepared, Scenario, TopologyKind};
use proxbal_topology::{CacheStats, DijkstraScratch};
use proxbal_trace::Trace;
use proxbal_workload::LoadModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

fn plus(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        computes: a.computes + b.computes,
        evictions: a.evictions + b.evictions,
    }
}

/// Cache accounting of both oracles of a prepared scenario, summed.
fn oracle_stats(prepared: &Prepared) -> CacheStats {
    [&prepared.oracle, &prepared.latency_oracle]
        .into_iter()
        .flatten()
        .fold(CacheStats::default(), |sum, o| plus(sum, o.cache_stats()))
}

fn oracle_resident_mib(prepared: &Prepared) -> f64 {
    let bytes: usize = [&prepared.oracle, &prepared.latency_oracle]
        .into_iter()
        .flatten()
        .map(|o| o.resident_bytes())
        .sum();
    bytes as f64 / MIB
}

/// Row-cache work done during the timed section(s), and what stayed
/// resident. Traced runs only: with a bounded cache the totals depend on
/// thread interleaving, so they are diagnostics, not deterministic fields.
fn topology_metrics(ctx: &mut Ctx, delta: CacheStats, resident_mib: f64) {
    if !ctx.args.traced {
        return;
    }
    ctx.set("topology.rows_computed", delta.computes as f64);
    ctx.set("topology.row_hits", delta.hits as f64);
    ctx.set("topology.row_evictions", delta.evictions as f64);
    let queries = (delta.hits + delta.computes).max(1) as f64;
    ctx.set("topology.row_hit_ratio", delta.hits as f64 / queries);
    ctx.set("topology.oracle_resident_mib", resident_mib);
}

fn message_count(report: &BalanceReport) -> usize {
    let m = &report.messages;
    m.lbi_messages + m.dissemination_messages + m.vsa_record_hops + m.vsa_notifications
}

fn histogram_of(transfers: &[TransferRecord]) -> DistanceHistogram {
    let mut h = DistanceHistogram::new();
    for t in transfers {
        if let Some(d) = t.distance {
            h.add(d, t.assignment.load);
        }
    }
    h
}

/// Both structural checks walk every virtual server or tree node — seconds
/// at a million peers — and are independent, so they run side by side.
fn invariant_checks(ctx: &mut Ctx, net: &ChordNetwork, tree: &KTree) {
    let (chord, kt) = std::thread::scope(|scope| {
        let kt = scope.spawn(|| tree.check_invariants(net));
        let chord = net.check_invariants();
        (chord, kt.join().expect("the tree check does not panic"))
    });
    ctx.check(
        "chord_invariants",
        chord.is_ok(),
        chord.err().unwrap_or_default(),
    );
    ctx.check("ktree_invariants", kt.is_ok(), kt.err().unwrap_or_default());
}

fn rng_for(ctx: &Ctx, label: u64) -> StdRng {
    StdRng::seed_from_u64(ctx.args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label)
}

/// Mean nanoseconds (or any unit per second given by `scale`) of one call,
/// timing `calls` calls of `f` on one thread.
fn per_call(calls: usize, scale: f64, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_secs_f64() * scale / calls.max(1) as f64
}

// ── exact_16k and approx_1m: one proximity-aware round, in place ─────────

/// `exact_16k`: the xl preset at 16,384 peers, exact distances — 98 % of the
/// run is Dijkstra row fills in phase 4. `approx_1m`: the xl2 preset —
/// landmark-approximate distances, sharded prepare and tree build.
pub fn round(ctx: &mut Ctx, approx: bool) {
    let threads = ctx.args.threads;
    let mut builder = if approx {
        Scenario::builder().xl2()
    } else {
        Scenario::builder().xl().peers(16_384)
    };
    if ctx.args.smoke {
        builder = builder.peers(1024);
    }
    let scenario = builder.seed(ctx.args.seed).build();
    ctx.set_params(json!({
        "peers": scenario.peers,
        "vs_per_peer": scenario.vs_per_peer,
        "topology": format!("{:?}", scenario.topology),
        "distance_mode": format!("{:?}", scenario.distance_mode),
        "oracle_capacity": scenario.oracle_capacity,
        "refine_sources": scenario.refine_sources,
        "shards": scenario.shards,
        "mode": "aware",
        "rng_label": 78,
    }));

    let mut prepared = ctx.prepare(&scenario);
    let k = scenario.balancer.k;
    let mut tree = ctx.build_tree(|| {
        if approx {
            proxbal_sim::shard::build_tree_sharded(&prepared.net, k, XL2_SPLIT_DEPTH, threads)
        } else {
            KTree::build(&prepared.net, k)
        }
    });
    ctx.set("ktree.build_s", ctx.span_seconds("ktree.build"));
    ctx.set("ktree.nodes", tree.len() as f64);
    ctx.set("ktree.height", f64::from(tree.height()));

    let before = prepared.loads.totals(&prepared.net);
    let peers = prepared.net.alive_peers().len();
    let stats0 = oracle_stats(&prepared);

    // Field-level borrows, as `xl2_scale_run` does: the underlay reads the
    // oracles while the balancer mutates the overlay and loads in place.
    let underlay = Underlay {
        oracle: prepared.oracle.as_ref().expect("runs over a topology"),
        latency_oracle: prepared.latency_oracle.as_ref(),
        landmarks: &prepared.landmarks,
        approx: prepared
            .hop_landmarks
            .as_ref()
            .map(|landmarks| ApproxTransfer {
                landmarks,
                refine_sources: prepared.scenario.refine_sources,
            }),
    };
    let cfg = BalancerConfig {
        mode: ProximityMode::Aware(ProximityParams::default()),
        ..prepared.scenario.balancer
    };
    // Label 78 = aware, the xl / Figure-7 RNG stream.
    let mut rng = prepared.derived_rng(78);
    let mut walls = RoundWalls::default();
    let mut track = Trace::new(ctx.trace.is_enabled(), "aware");

    ctx.attempted += 1;
    let timed = ctx.begin_timed("core.round");
    let result = LoadBalancer::new(cfg)
        .with_threads(threads)
        .run_with_tree_walls(
            &mut prepared.net,
            &mut prepared.loads,
            &mut tree,
            Some(underlay),
            &mut rng,
            &mut track,
            &mut walls,
        );
    ctx.end_timed(&timed);
    let pair_misfits = track.counter("vsa_pair_misfits");
    let pairings = track.counter("vsa_pairings");
    ctx.trace.absorb(track);

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            ctx.failed += 1;
            ctx.check("round_completed", false, e.to_string());
            return;
        }
    };

    // The four phase walls, laid end to end from the round's start.
    let mut at = ctx.spans.get(timed.span).start_ns;
    for (name, wall) in [
        ("core.round.lbi", walls.lbi_wall_s),
        ("ktree.aggregate", walls.aggregate_wall_s),
        ("core.round.vsa", walls.vsa_wall_s),
        ("core.round.transfer", walls.transfer_wall_s),
    ] {
        let end = at + (wall * 1e9) as u64;
        ctx.spans.add(name, at, end, Some(timed.span));
        at = end;
    }
    ctx.set("core.round_s", ctx.spans.get(timed.span).seconds());
    ctx.set("core.round.lbi_s", walls.lbi_wall_s);
    ctx.set("ktree.aggregate_s", walls.aggregate_wall_s);
    ctx.set("core.round.vsa_s", walls.vsa_wall_s);
    ctx.set("core.round.transfer_s", walls.transfer_wall_s);
    ctx.set("core.round.other_s", ctx.spans.self_seconds(timed.span));

    let heavy_before = report.before.get(&NodeClass::Heavy).copied().unwrap_or(0);
    let heavy_after = report.heavy_after();
    let moved = total_moved_load(&report.transfers);
    let histogram = histogram_of(&report.transfers);
    ctx.set("heavy_after_frac", heavy_after as f64 / peers as f64);
    ctx.set("moved_load_frac", moved / before.load);
    ctx.set("moved_within2_frac", histogram.fraction_within(2));
    ctx.set("mean_transfer_hops", histogram.mean_distance());
    ctx.set(
        "msgs_per_peer",
        message_count(&report) as f64 / peers as f64,
    );
    ctx.set("core.assignments", report.vsa.assignments.len() as f64);
    ctx.set("core.transfers", report.transfers.len() as f64);
    ctx.set("core.vsa_rounds", f64::from(report.vsa.rounds));
    ctx.set("core.vsa_unassigned", report.vsa.unassigned.len() as f64);

    // Checks, outside the timed section.
    let checks = ctx.spans.open("pbench.checks", Some(ctx.root));
    if ctx.args.corrupt_load {
        let (_, vs) = prepared.net.ring().iter().next().expect("non-empty ring");
        prepared.loads.add_vs_load(vs, before.load * 1e-6);
    }
    let after = prepared.loads.totals(&prepared.net);
    let drift = (after.load - before.load).abs() / before.load;
    ctx.check(
        "load_conserved",
        drift <= 1e-9,
        format!(
            "total load {} -> {} (relative change {drift:e})",
            before.load, after.load
        ),
    );
    invariant_checks(ctx, &prepared.net, &tree);
    ctx.check(
        "heavy_not_increased",
        heavy_after <= heavy_before,
        format!("heavy {heavy_before} -> {heavy_after} of {peers}"),
    );
    let without = report
        .transfers
        .iter()
        .filter(|t| t.distance.is_none())
        .count();
    ctx.check(
        "transfers_carry_distance",
        without == 0,
        format!("{without} of {} transfers without", report.transfers.len()),
    );
    ctx.spans.close(checks);

    if !ctx.args.traced {
        return;
    }
    topology_metrics(
        ctx,
        oracle_stats(&prepared).since(&stats0),
        oracle_resident_mib(&prepared),
    );
    let attempts = (pairings + pair_misfits).max(1) as f64;
    ctx.set("core.pair_misfit_ratio", pair_misfits as f64 / attempts);
    round_probes(ctx, &prepared, &tree, approx);
}

/// Replays one public call each on the prepared inputs, on one thread, so a
/// layer's per-call cost is known apart from how often the round calls it.
fn round_probes(ctx: &mut Ctx, prepared: &Prepared, tree: &KTree, approx: bool) {
    let id = ctx.spans.open("pbench.probes", Some(ctx.root));
    let shrink = if ctx.args.smoke { 64 } else { 1 };
    let net = &prepared.net;
    let peers = net.alive_peers();
    let attach_of = |rng: &mut StdRng| net.peer(peers[rng.gen_range(0..peers.len())]).underlay;

    // What one exact row costs on this workload's hop graph.
    let graph = prepared.oracle.as_ref().expect("topology").graph();
    let mut rng = rng_for(ctx, 0xD1_7857);
    // 256 sources; 16 in a smoke run.
    let sources: Vec<u32> = (0..256 / shrink.min(16))
        .map(|_| rng.gen_range(0..graph.node_count() as u32))
        .collect();
    let mut scratch = DijkstraScratch::new();
    let row_us = per_call(sources.len(), 1e6, |i| {
        black_box(graph.dijkstra_into(sources[i], &mut scratch).len());
    });
    ctx.set("topology.dijkstra_row_us", row_us);

    if approx {
        let landmarks = prepared.hop_landmarks.as_ref().expect("approximate mode");
        ctx.set(
            "topology.landmark_oracle_mib",
            landmarks.size_bytes() as f64 / MIB,
        );
        let mut rng = rng_for(ctx, 0xB0_0D5);
        let pairs: Vec<(u32, u32)> = (0..1_000_000 / shrink)
            .map(|_| (attach_of(&mut rng), attach_of(&mut rng)))
            .collect();
        let bounds_ns = per_call(pairs.len(), 1e9, |i| {
            black_box(landmarks.bounds(pairs[i].0, pairs[i].1));
        });
        ctx.set("topology.landmark_bounds_ns", bounds_ns);

        // The mapper `ProximityParams::default()` builds: the first two
        // landmarks, 16 bits each, every dimension scaled to its range.
        let params = ProximityParams::default();
        let dims = params.key_dims.expect("default keys on two landmarks");
        let latency = prepared.latency_oracle.as_ref().expect("topology");
        let vectors: Vec<Vec<u32>> = peers
            .iter()
            .step_by(shrink)
            .map(|&p| latency.landmark_vector(net.peer(p).underlay, &prepared.landmarks[..dims]))
            .collect();
        let ranges = (0..dims)
            .map(|d| {
                let column = vectors.iter().map(|v| v[d]);
                (column.clone().min().unwrap_or(0), column.max().unwrap_or(1))
            })
            .collect();
        let mapper = LandmarkMapper::with_ranges(dims as u32, params.bits_per_dim, ranges)
            .with_curve(params.curve);
        let key_ns = per_call(vectors.len(), 1e9, |i| {
            black_box(mapper.dht_key(&vectors[i]));
        });
        ctx.set("hilbert.key_ns", key_ns);

        let mut rng = rng_for(ctx, 0x0_E4E2);
        let keys: Vec<Id> = (0..1_000_000 / shrink)
            .map(|_| Id::new(rng.gen::<u32>()))
            .collect();
        let owner_ns = per_call(keys.len(), 1e9, |i| {
            black_box(net.ring().owner(keys[i]));
        });
        ctx.set("chord.ring_owner_ns", owner_ns);

        let servers: Vec<_> = net.ring().iter().map(|(_, vs)| vs).collect();
        let target_ns = per_call(servers.len(), 1e9, |i| {
            black_box(tree.report_target(net, servers[i]));
        });
        ctx.set("ktree.report_target_ns", target_ns);
    }
    ctx.spans.close(id);
}

// ── engine_4k: continuous operation ──────────────────────────────────────

/// `engine_4k`: the `repro engine` scenario for 120 epochs. Ring and tree
/// are mutated every epoch, rounds are incremental, the fault DES runs; the
/// four round phases are a small share of the wall, so a distance-oracle
/// change must not move this workload.
pub fn engine(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let cfg = EngineConfig {
        epochs: if ctx.args.smoke { 8 } else { 120 },
        ..EngineConfig::default()
    };
    let faults = FaultConfig::with_loss(0.01, seed ^ 0xE9_614E);
    let mut builder = Scenario::builder().seed(seed);
    if ctx.args.smoke {
        builder = builder.peers(1024);
    }
    let scenario = builder
        .balancer(BalancerConfig {
            max_splits: 256,
            ..BalancerConfig::default()
        })
        .churn(proxbal_sim::churn::ChurnConfig::default())
        .drift(proxbal_sim::drift::DriftConfig::default())
        .faults(faults)
        .build();
    ctx.set_params(json!({
        "peers": scenario.peers,
        "topology": format!("{:?}", scenario.topology),
        "epochs": cfg.epochs,
        "balance_interval": cfg.balance_interval,
        "max_splits": 256,
        "loss": 0.01,
        "mode": "ignorant",
    }));

    let mut prepared = ctx.prepare(&scenario);
    let peers = prepared.net.alive_peers().len();
    let before = prepared.loads.totals(&prepared.net);
    let stats0 = oracle_stats(&prepared);

    ctx.attempted += cfg.epochs as u64;
    let mark = ctx.sink.len();
    let mut trace = std::mem::replace(&mut ctx.trace, Trace::disabled());
    let timed = ctx.begin_timed("sim.engine");
    let result = proxbal_sim::run_engine_with(&mut prepared, &cfg, &mut trace, &ctx.sink);
    ctx.end_timed(&timed);
    ctx.trace = trace;

    // One span per epoch, delimited by the engine's own heartbeats.
    let mut at = ctx.spans.get(timed.span).start_ns;
    let mut epoch_ms = Vec::with_capacity(cfg.epochs);
    for (ts, msg) in ctx.sink.since(mark) {
        if msg.starts_with("engine: epoch") {
            ctx.spans.add("sim.engine.epoch", at, ts, Some(timed.span));
            epoch_ms.push((ts - at) as f64 / 1e6);
            at = ts;
        }
    }

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            ctx.failed += (cfg.epochs - epoch_ms.len().min(cfg.epochs)) as u64;
            ctx.check("engine_completed", false, e.to_string());
            return;
        }
    };
    ctx.check(
        "one_heartbeat_per_epoch",
        epoch_ms.len() == cfg.epochs && report.samples.len() == cfg.epochs,
        format!(
            "{} heartbeats, {} samples, {} epochs",
            epoch_ms.len(),
            report.samples.len(),
            cfg.epochs
        ),
    );

    ctx.set("epoch_p50_ms", median(&epoch_ms));
    match tail_percentile(&epoch_ms, 0.9) {
        Ok(p90) => ctx.set("epoch_p90_ms", p90),
        Err(e) => ctx.refuse("epoch_p90_ms", e.to_string()),
    }
    let samples = &report.samples;
    let heavy: f64 = samples
        .iter()
        .map(|s| s.heavy as f64 / s.alive_peers.max(1) as f64)
        .sum();
    ctx.set("heavy_after_frac", heavy / samples.len() as f64);
    ctx.set("moved_load_frac", report.total_moved / before.load);
    let passes_of_all = (peers * report.balances.max(1)) as f64;
    ctx.set(
        "msgs_per_peer",
        report.total_messages as f64 / passes_of_all,
    );

    let sum = |f: fn(&proxbal_sim::EpochSample) -> usize| samples.iter().map(f).sum::<usize>();
    ctx.set("sim.engine.balances", report.balances as f64);
    ctx.set("sim.engine.emergencies", report.emergencies as f64);
    ctx.set("sim.engine.passes", sum(|s| s.balance_passes) as f64);
    ctx.set(
        "ktree.repair_reattached",
        sum(|s| s.repair_reattached) as f64,
    );
    ctx.set("ktree.repair_pruned", sum(|s| s.repair_pruned) as f64);
    ctx.set(
        "ktree.maintenance_rounds",
        sum(|s| s.maintenance_rounds) as f64,
    );
    let (des_messages, des_retries) = (sum(|s| s.des_messages), sum(|s| s.des_retries));
    ctx.set("sim.faults.des_messages", des_messages as f64);
    ctx.set("sim.faults.des_retries", des_retries as f64);
    ctx.set(
        "sim.faults.retry_ratio",
        des_retries as f64 / des_messages.max(1) as f64,
    );

    // The engine keeps its tree to itself; a tree built on the final ring
    // must satisfy the same invariants the engine's repaired one does.
    let k = scenario.balancer.k;
    let mut tree = KTree::build(&prepared.net, k);
    invariant_checks(ctx, &prepared.net, &tree);

    if !ctx.args.traced {
        return;
    }
    topology_metrics(
        ctx,
        oracle_stats(&prepared).since(&stats0),
        oracle_resident_mib(&prepared),
    );
    let split = |balanced: bool| -> Vec<f64> {
        let pairs = samples.iter().zip(&epoch_ms);
        pairs
            .filter(|(s, _)| s.balanced == balanced)
            .map(|(_, ms)| *ms)
            .collect()
    };
    ctx.set("sim.engine.epoch_quiet_ms", median(&split(false)));
    ctx.set("sim.engine.epoch_balanced_ms", median(&split(true)));

    // Probes on the final engine state: what a no-op repair and one DES
    // shadow pass cost, apart from how often the engine runs them.
    let id = ctx.spans.open("pbench.probes", Some(ctx.root));
    let t = Instant::now();
    black_box(tree.repair(&prepared.net, 256));
    ctx.set("ktree.repair_noop_ms", t.elapsed().as_secs_f64() * 1e3);

    let oracle = prepared.oracle.as_ref().expect("engine runs over ts5k");
    let mut contributors: Vec<_> = prepared
        .net
        .ring()
        .iter()
        .map(|(_, vs)| tree.report_target(&prepared.net, vs))
        .collect();
    contributors.sort_unstable();
    contributors.dedup();
    let mut plan = FaultPlan::new(faults);
    let mut scratch = ProtocolScratch::new();
    let retry = RetryPolicy::protocol_default();
    let t = Instant::now();
    let aggregation = simulate_aggregation_faulty(
        &prepared.net,
        &tree,
        oracle,
        &contributors,
        &mut plan,
        retry,
        &[],
        &mut scratch,
    );
    let dissemination = simulate_dissemination_faulty(
        &prepared.net,
        &tree,
        oracle,
        &mut plan,
        retry,
        &[],
        &mut scratch,
    );
    ctx.set("sim.faults.des_probe_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.check(
        "des_probe_completed",
        aggregation.is_ok() && dissemination.is_ok(),
        format!("{:?} {:?}", aggregation.err(), dissemination.err()),
    );
    ctx.spans.close(id);
}

// ── paper_all: the twelve phases of `repro all` ──────────────────────────

struct PaperSizes {
    peers: usize,
    graphs: usize,
    rounds: &'static [usize],
    repair_peers: usize,
    baseline_peers: usize,
    sweep_peers: usize,
    latency: &'static [usize],
    drift_peers: usize,
}

const PAPER_FULL: PaperSizes = PaperSizes {
    peers: 4096,
    graphs: 10,
    rounds: &[256, 512, 1024, 2048, 4096],
    repair_peers: 2048,
    baseline_peers: 1024,
    sweep_peers: 2048,
    latency: &[1024, 4096],
    drift_peers: 1024,
};

const PAPER_SMOKE: PaperSizes = PaperSizes {
    peers: 1024,
    graphs: 2,
    rounds: &[256, 512],
    repair_peers: 512,
    baseline_peers: 512,
    sweep_peers: 1024,
    latency: &[1024],
    drift_peers: 512,
};

/// Runs one driver call as a timed `sim.paper.<phase>` span and reports its
/// wall as `sim.paper.<phase>_s`.
fn phase<T>(ctx: &mut Ctx, name: &'static str, run: impl FnOnce(&mut Trace) -> T) -> T {
    ctx.attempted += 1;
    let mut trace = std::mem::replace(&mut ctx.trace, Trace::disabled());
    trace.relabel(name);
    let timed = ctx.begin_timed(&format!("sim.paper.{name}"));
    let out = run(&mut trace);
    ctx.end_timed(&timed);
    ctx.trace = trace;
    if ctx.args.traced {
        let metric = crate::metrics::lookup(&format!("sim.paper.{name}_s"))
            .expect("every paper phase is declared")
            .name;
        ctx.set(metric, ctx.spans.get(timed.span).seconds());
    }
    out
}

/// `paper_all`: Figures 4–8 and the seven claims at full scale, through
/// the drivers and with the arguments `repro all` passes, one after
/// another, text rendering dropped. Many small prepares and 4,096-peer
/// rounds through the sweep engine: per-call overheads and
/// `sim::parallel` matter, nothing is large.
pub fn paper(ctx: &mut Ctx) {
    let threads = ctx.args.threads;
    let seed = ctx.args.seed;
    let sizes = if ctx.args.smoke {
        PAPER_SMOKE
    } else {
        PAPER_FULL
    };
    ctx.set_params(json!({
        "peers": sizes.peers,
        "graphs": sizes.graphs,
        "rounds_sizes": sizes.rounds,
        "latency_sizes": sizes.latency,
        "phases": 12,
    }));
    let scenario = |topology: TopologyKind, peers: usize| {
        let mut s = Scenario::builder().seed(seed).peers(peers).build();
        s.topology = topology;
        s
    };
    let mut cache = CacheStats::default();
    let mut resident_mib: f64 = 0.0;

    let mut prepared = ctx.prepare(&scenario(TopologyKind::None, sizes.peers));
    phase(ctx, "figure_4", |t| {
        experiments::fig4_unit_load_traced(&mut prepared, t)
    });

    for (name, load) in [
        ("figure_5", None),
        ("figure_6", Some(LoadModel::pareto(1_000_000.0))),
    ] {
        let mut s = scenario(TopologyKind::None, sizes.peers);
        if let Some(load) = load {
            s.load = load;
        }
        let mut prepared = ctx.prepare(&s);
        phase(ctx, name, |t| {
            experiments::fig56_class_loads_traced(&mut prepared, t)
        });
    }

    let base = scenario(TopologyKind::Ts5kLarge, sizes.peers);
    let fig7 = phase(ctx, "figure_7", |t| {
        experiments::fig78_replicated_traced(&base, sizes.graphs, threads, t)
    });
    let base = scenario(TopologyKind::Ts5kSmall, sizes.peers);
    let fig8 = phase(ctx, "figure_8", |t| {
        experiments::fig78_replicated_traced(&base, sizes.graphs, threads, t)
    });
    // `repro`'s own assertion: a one-shot greedy pairing may leave a small
    // residue of heavy nodes; bound it instead of demanding zero.
    for (name, out) in [("figure_7_residue", &fig7), ("figure_8_residue", &fig8)] {
        let residue = out.max_heavy_after as f64 / sizes.peers as f64;
        ctx.check(
            name,
            residue <= 0.02,
            format!("worst residual heavy fraction {residue:.4} (limit 0.02)"),
        );
    }
    ctx.set(
        "heavy_after_frac",
        fig7.max_heavy_after as f64 / sizes.peers as f64,
    );
    ctx.set("moved_within2_frac", fig7.aware.fraction_within(2));
    ctx.set("mean_transfer_hops", fig7.aware.mean_distance());

    phase(ctx, "claim_rounds", |t| {
        experiments::rounds_scaling_traced(sizes.rounds, &[2, 8], seed, threads, t)
    });

    let cells: Vec<(usize, f64)> = [2usize, 8]
        .iter()
        .flat_map(|&k| [0.1, 0.25, 0.5].iter().map(move |&f| (k, f)))
        .collect();
    phase(ctx, "claim_repair", |t| {
        parallel::map_items_traced(&cells, threads, t, |_, &(k, frac), t| {
            t.relabel(&format!("k{k}_crash{frac}"));
            experiments::repair_after_crash_traced(sizes.repair_peers, frac, k, seed, t)
        })
    });

    let prepared = ctx.prepare(&scenario(TopologyKind::None, sizes.baseline_peers));
    phase(ctx, "claim_baselines", |_| {
        experiments::scheme_comparison(&prepared)
    });

    let prepared = ctx.prepare(&scenario(TopologyKind::Ts5kLarge, sizes.sweep_peers));
    let stats0 = oracle_stats(&prepared);
    phase(ctx, "claim_ablations", |t| {
        experiments::ablation_sweep_traced(&prepared, threads, t)
    });
    cache = plus(cache, oracle_stats(&prepared).since(&stats0));
    resident_mib = resident_mib.max(oracle_resident_mib(&prepared));

    // Claim `overhead`: both modes from identical clones of the prepared
    // state with their own derived RNGs, through the sweep engine.
    let prepared = ctx.prepare(&scenario(TopologyKind::Ts5kLarge, sizes.sweep_peers));
    let stats0 = oracle_stats(&prepared);
    let underlay = prepared.underlay().expect("ts5k-large has a topology");
    let modes = [
        ("ignorant", ProximityMode::Ignorant),
        ("aware", ProximityMode::Aware(ProximityParams::default())),
    ];
    let total_before = prepared.loads.totals(&prepared.net).load;
    let runs = phase(ctx, "claim_overhead", |t| {
        parallel::map_items_traced(&modes, threads, t, |_, &(name, mode), t| {
            t.relabel(name);
            let mut net = prepared.net.clone();
            let mut loads: LoadState = prepared.loads.clone();
            let cfg = BalancerConfig {
                mode,
                ..prepared.scenario.balancer
            };
            let mut rng = prepared.derived_rng(0x0F0F);
            let report = LoadBalancer::new(cfg).run_traced(
                &mut net,
                &mut loads,
                Some(underlay),
                &mut rng,
                t,
            );
            let total_after = loads.totals(&net).load;
            (report, total_after)
        })
    });
    cache = plus(cache, oracle_stats(&prepared).since(&stats0));
    resident_mib = resident_mib.max(oracle_resident_mib(&prepared));
    for ((name, _), (report, total_after)) in modes.iter().zip(&runs) {
        let drift = (total_after - total_before).abs() / total_before;
        ctx.check(
            "overhead_load_conserved",
            report.is_ok() && drift <= 1e-9,
            format!("{name}: relative change of total load {drift:e}"),
        );
    }
    // The aware run of claim `overhead` stands for the paper workload where
    // the figure drivers keep their reports to themselves.
    match &runs[1].0 {
        Ok(aware) => {
            let moved = total_moved_load(&aware.transfers);
            ctx.set("moved_load_frac", moved / total_before);
            let per_peer = message_count(aware) as f64 / sizes.sweep_peers as f64;
            ctx.set("msgs_per_peer", per_peer);
        }
        Err(e) => {
            ctx.failed += 1;
            ctx.check("overhead_completed", false, e.to_string());
        }
    }

    phase(ctx, "claim_latency", |t| {
        experiments::protocol_latency_traced(sizes.latency, &[2, 8], &[0.0, 0.05], seed, threads, t)
    });

    let mut prepared = ctx.prepare(&scenario(TopologyKind::None, sizes.drift_peers));
    let drift_cfg = proxbal_sim::drift::DriftConfig {
        steps: 50,
        rebalance_every: 10,
        sigma: 0.1,
    };
    let balancer_cfg = BalancerConfig {
        max_splits: 16,
        ..prepared.scenario.balancer
    };
    let mut rng = prepared.derived_rng(0xD21F7);
    let drift = phase(ctx, "claim_drift", |_| {
        proxbal_sim::drift::run_drift(
            &mut prepared.net,
            &mut prepared.loads,
            &drift_cfg,
            balancer_cfg,
            None,
            &mut rng,
        )
    });
    let chord = prepared.net.check_invariants();
    ctx.check(
        "chord_invariants",
        chord.is_ok(),
        chord.err().unwrap_or_default(),
    );
    let due = drift_cfg.steps / drift_cfg.rebalance_every;
    ctx.check(
        "drift_rebalanced",
        drift.rebalances == due,
        format!("{} of {due} rebalances", drift.rebalances),
    );

    topology_metrics(ctx, cache, resident_mib);
}
