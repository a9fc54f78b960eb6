//! The continuous-operation engine's determinism contract, mirroring
//! `trace_determinism.rs`: for a fixed scenario the per-epoch time series —
//! and its trace — are **byte-identical** across repeats, a traced run
//! never perturbs an untraced one, and with every event source disabled the
//! engine degenerates to the one-shot balancer. Plus the builder contract
//! of the `ScenarioBuilder` redesign: presets are deterministic field
//! rewrites over the paper defaults.

use proxbal_chord::PeerId;
use proxbal_core::{DirtySet, Error, LoadBalancer, RoundCache, RoundWalls};
use proxbal_ktree::KTree;
use proxbal_profile::{NullSink, ProgressSink};
use proxbal_sim::churn::ChurnConfig;
use proxbal_sim::drift::DriftConfig;
use proxbal_sim::engine::BALANCE_LABEL;
use proxbal_sim::faults::FaultConfig;
use proxbal_sim::{run_engine, run_engine_with, EngineConfig, EpochSample, Scenario, TopologyKind};
use proxbal_trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A small scenario with every event source on — churn, drift and a lossy
/// fault plan — the combination `repro engine` runs at full scale.
fn stormy() -> Scenario {
    Scenario::builder()
        .small()
        .seed(41)
        .balancer(proxbal_core::BalancerConfig {
            max_splits: 32,
            ..proxbal_core::BalancerConfig::default()
        })
        .churn(ChurnConfig {
            join_rate: 0.2,
            crash_rate: 0.2,
        })
        .drift(DriftConfig::default())
        .faults(FaultConfig::with_loss(0.01, 0xE9))
        .build()
}

/// The same scenario with every source off: no churn, no drift, no faults.
fn quiescent() -> Scenario {
    Scenario::builder().small().seed(43).build()
}

fn short(epochs: usize) -> EngineConfig {
    EngineConfig {
        epochs,
        ..EngineConfig::default()
    }
}

#[test]
fn engine_series_and_trace_are_repeat_deterministic() {
    let run = || {
        let mut prepared = stormy().prepare();
        let mut trace = Trace::enabled("engine");
        let report = run_engine_with(&mut prepared, &short(8), &mut trace, &NullSink).unwrap();
        (
            serde_json::to_string(&report).unwrap(),
            trace.to_ndjson(),
            trace.to_chrome_json(),
        )
    };
    let (report1, nd1, ch1) = run();
    let (report2, nd2, ch2) = run();
    assert_eq!(report1, report2, "per-epoch series must be byte-identical");
    assert_eq!(nd1, nd2, "ndjson trace must be byte-identical");
    assert_eq!(ch1, ch2, "chrome trace must be byte-identical");
    // The trace actually carries the engine's epoch structure.
    assert!(nd1.contains("engine/epoch0"), "per-epoch tracks present");
    assert!(
        nd1.contains("\"engine/epoch\""),
        "epoch summary spans present"
    );
}

#[test]
fn engine_report_and_trace_do_not_depend_on_the_thread_count() {
    // The stormy scenario exercises everything a thread count could leak
    // into: the round's chunked kernels, the DES shadow's bind and run, the
    // per-epoch child traces.
    let run = |threads: usize| {
        let mut prepared = stormy().prepare_run(threads, &NullSink);
        let mut trace = Trace::enabled("engine");
        let report = run_engine_with(&mut prepared, &short(8), &mut trace, &NullSink).unwrap();
        assert!(report.samples.iter().any(|s| s.des_messages > 0));
        (report.to_json_pretty(), trace.to_ndjson())
    };
    let (report1, nd1) = run(1);
    for threads in [2, 8] {
        let (report, nd) = run(threads);
        assert_eq!(report, report1, "report JSON at {threads} threads");
        assert_eq!(nd, nd1, "trace NDJSON at {threads} threads");
    }
}

#[test]
fn a_failed_des_shadow_is_the_typed_error_at_any_thread_count() {
    let run = |threads: usize| {
        let mut prepared = stormy().prepare_run(threads, &NullSink);
        // Detach every peer: the first inter-peer tree edge a shadow
        // message takes has no latency, and neither has the round's first
        // transfer; the shadow is first.
        for p in prepared.net.alive_peers() {
            prepared.net.attach(p, u32::MAX);
        }
        run_engine(&mut prepared, &short(8)).expect_err("unattached peers")
    };
    let err = run(1);
    assert!(matches!(err, Error::UnattachedPeer(_)), "{err:?}");
    for threads in [2, 8] {
        assert_eq!(run(threads), err, "{threads} threads");
    }
}

/// Counts the engine's per-epoch heartbeats: how many epochs completed.
struct Heartbeats(AtomicUsize);

impl ProgressSink for Heartbeats {
    fn event(&self, _msg: &str) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn always(&self, _msg: &str) {}
}

/// Where the shadow and a round both fail, the engine returns the shadow's
/// error — it runs first in its epoch — whether the round fails in the same
/// epoch (the shadow is still in flight beside it) or in a later one (the
/// shadow lands at the next bind, before that round). The runs start from a
/// balanced system with the underlay pool gone, so every joining peer is
/// unattached and fails the first round that moves load to it, and link
/// damage is off, so the world evolves alike with and without a shadow.
#[test]
fn a_shadow_failure_wins_over_the_rounds() {
    let cfg = EngineConfig {
        epochs: 12,
        balance_interval: 2,
        stale_link_interval: 10,
    };
    // `(detached, with_shadow, threads)` → (error, epochs completed).
    let run = |detached: Option<u32>, with_shadow: bool, threads: usize| {
        let mut prepared = Scenario::builder()
            .small()
            .seed(41)
            .churn(ChurnConfig {
                join_rate: 0.05,
                crash_rate: 0.0,
            })
            .drift(DriftConfig::default())
            .faults(FaultConfig {
                stale_parents: 0,
                ..FaultConfig::with_loss(0.01, 0xE9)
            })
            .build()
            .prepare_run(threads, &NullSink);
        if detached.is_some() {
            run_engine(&mut prepared, &cfg).unwrap();
        }
        if !with_shadow {
            prepared.scenario.faults = None;
        }
        prepared.topo = None;
        if let Some(peer) = detached {
            prepared.net.attach(PeerId(peer), u32::MAX);
        }
        let epochs = Heartbeats(AtomicUsize::new(0));
        let err = run_engine_with(&mut prepared, &cfg, &mut Trace::disabled(), &epochs)
            .expect_err("an unattached peer");
        (err, epochs.0.into_inner())
    };

    // Same epoch: the round at epoch 5 meets one joiner, the shadow beside
    // it another.
    let (round_err, round_epochs) = run(None, false, 1);
    let (err, epochs) = run(None, true, 1);
    assert_eq!(epochs, round_epochs, "both fail in one epoch");
    assert_ne!(err, round_err, "the shadow's joiner, not the round's");
    for threads in [2, 8] {
        assert_eq!(run(None, true, threads), (err, epochs), "{threads} threads");
    }

    // Earlier epoch: an old peer detached after the warm-up is in no
    // transfer for a while, but its tree edges fail the first shadow.
    let (round_err, round_epochs) = run(Some(2), false, 1);
    let (err, epochs) = run(Some(2), true, 1);
    assert_eq!(err, Error::UnattachedPeer(PeerId(2)));
    assert_ne!(round_err, err, "a joiner fails the round");
    assert!(epochs < round_epochs, "{epochs} vs {round_epochs} epochs");
    for threads in [2, 8] {
        assert_eq!(
            run(Some(2), true, threads),
            (err, epochs),
            "{threads} threads"
        );
    }
}

/// The shadow of a balancing epoch runs beside its round and the quiet
/// epochs after it, and lands at the next bind: at once when every epoch
/// balances, after the loop when the forced final balance is the last. The
/// report and the trace are the same at any thread count, and each
/// balanced sample carries its own shadow's totals.
#[test]
fn a_pipelined_shadow_lands_in_its_own_epoch() {
    for balance_interval in [1, 7] {
        let cfg = EngineConfig {
            epochs: 12,
            balance_interval,
            ..EngineConfig::default()
        };
        let run = |threads: usize| {
            let mut prepared = stormy().prepare_run(threads, &NullSink);
            let mut trace = Trace::enabled("engine");
            let report = run_engine_with(&mut prepared, &cfg, &mut trace, &NullSink).unwrap();
            (report, trace.to_ndjson())
        };
        let (report, nd1) = run(1);
        for s in &report.samples {
            if s.balanced {
                assert!(s.des_messages > 0, "epoch {}: no shadow", s.epoch);
            } else {
                assert_eq!(s.des_messages + s.des_retries, 0, "epoch {}", s.epoch);
            }
        }
        assert!(report.samples.last().unwrap().des_messages > 0);
        if balance_interval > 1 {
            assert!(report.samples.iter().any(|s| !s.balanced), "quiet epochs");
        }
        let json1 = report.to_json_pretty();
        for threads in [2, 8] {
            let (report, nd) = run(threads);
            assert_eq!(report.to_json_pretty(), json1, "{threads} threads");
            assert_eq!(nd, nd1, "{threads} threads");
        }
    }
}

/// `EpochSample::emergency` flags every balancing epoch on which the
/// threshold was crossed; `EngineReport::emergencies` counts only those
/// that neither the schedule nor the final epoch would have balanced.
#[test]
fn emergencies_count_only_the_unscheduled_balances() {
    let cfg = EngineConfig {
        epochs: 30,
        balance_interval: 3,
        ..EngineConfig::default()
    };
    let mut prepared = stormy().prepare();
    let report = run_engine(&mut prepared, &cfg).unwrap();
    let unscheduled = |s: &&EpochSample| {
        s.emergency
            && !(s.epoch + 1).is_multiple_of(cfg.balance_interval)
            && s.epoch + 1 != cfg.epochs
    };
    let flagged = report.samples.iter().filter(|s| s.emergency).count();
    assert_eq!(
        report.emergencies,
        report.samples.iter().filter(unscheduled).count()
    );
    assert!(report.emergencies > 0, "the threshold fired off schedule");
    assert!(flagged > report.emergencies, "and on schedule: {flagged}");
    for s in &report.samples {
        assert!(s.balanced || !s.emergency, "epoch {}", s.epoch);
    }
}

#[test]
fn traced_and_untraced_engine_runs_agree() {
    let mut plain_prep = stormy().prepare();
    let plain = run_engine(&mut plain_prep, &short(6)).unwrap();

    let mut traced_prep = stormy().prepare();
    let mut trace = Trace::enabled("engine");
    let traced = run_engine_with(&mut traced_prep, &short(6), &mut trace, &NullSink).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "tracing must never perturb the engine"
    );

    let mut disabled_prep = stormy().prepare();
    let mut disabled = Trace::disabled();
    let silent = run_engine_with(&mut disabled_prep, &short(6), &mut disabled, &NullSink).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&silent).unwrap()
    );
    assert_eq!(disabled.event_count(), 0);
}

/// With every source off, a single engine epoch is exactly one one-shot
/// balancing round: same moved load, same transfers, same message counts —
/// because the engine replays the one-shot code path
/// ([`LoadBalancer::run_round`] with a cold cache) on the `BALANCE_LABEL`
/// RNG stream.
#[test]
fn quiescent_single_epoch_matches_one_shot_round() {
    let mut engine_prep = quiescent().prepare();
    let report = run_engine(&mut engine_prep, &short(1)).unwrap();
    assert_eq!(report.samples.len(), 1);
    let epoch = &report.samples[0];
    assert!(epoch.balanced, "the final epoch always balances");

    let mut prepared = quiescent().prepare();
    let balancer = LoadBalancer::new(prepared.scenario.balancer);
    let mut tree = KTree::build(&prepared.net, prepared.scenario.balancer.k);
    let mut rng = prepared.derived_rng(BALANCE_LABEL);
    let (net, loads, underlay) = prepared.split();
    let one_shot = balancer
        .run_round(
            net,
            loads,
            &mut tree,
            underlay,
            &mut RoundCache::new(),
            &DirtySet::All,
            &mut rng,
            &mut Trace::disabled(),
            &mut RoundWalls::default(),
        )
        .unwrap();

    assert_eq!(epoch.transfers, one_shot.transfers.len());
    assert_eq!(
        epoch.moved,
        proxbal_core::total_moved_load(&one_shot.transfers)
    );
    let msgs = one_shot.messages.lbi_messages
        + one_shot.messages.dissemination_messages
        + one_shot.messages.vsa_record_hops
        + one_shot.messages.vsa_notifications;
    assert_eq!(epoch.messages, msgs);
    assert_eq!(epoch.heavy, one_shot.heavy_after());
    // No sources: no membership events, no stale links, no DES shadow.
    assert_eq!(report.joins + report.crashes + report.stale_links, 0);
    assert_eq!(epoch.des_messages + epoch.des_retries, 0);
}

/// With every source off, later balancing rounds find an already-balanced
/// system and move nothing — the incremental round's cache keeps the report
/// bindings, and without dirt there is nothing to re-report.
#[test]
fn quiescent_engine_settles_after_first_balance() {
    let mut prepared = quiescent().prepare();
    let cfg = EngineConfig {
        epochs: 6,
        balance_interval: 1,
        ..EngineConfig::default()
    };
    let report = run_engine(&mut prepared, &cfg).unwrap();
    assert_eq!(
        report.balances, 6,
        "balance_interval 1 balances every epoch"
    );
    assert_eq!(report.emergencies, 0);
    let first = &report.samples[0];
    assert!(first.moved > 0.0, "the first round does the work");
    assert_eq!(first.heavy, 0);
    for s in &report.samples[1..] {
        assert_eq!(s.moved, 0.0, "epoch {}: moved {}", s.epoch, s.moved);
        assert_eq!(s.transfers, 0);
        assert_eq!(s.heavy, 0);
        assert_eq!(s.alive_peers, report.samples[0].alive_peers);
    }
}

/// The full stormy combination — churn, drift, 1% loss — still ends its
/// last (forced) balancing epoch with zero heavy nodes, and every source
/// actually fired.
#[test]
fn stormy_engine_clears_heavy_by_final_epoch() {
    let mut prepared = stormy().prepare();
    let report = run_engine(&mut prepared, &short(10)).unwrap();
    assert_eq!(report.final_heavy(), 0);
    assert!(report.joins > 0, "churn joins must fire at rate 0.2");
    assert!(report.crashes > 0, "churn crashes must fire at rate 0.2");
    assert!(
        report.stale_links > 0,
        "fault source must inject stale links"
    );
    assert!(report.balances > 0);
    assert!(report.total_moved > 0.0);
    // The DES shadow ran on balancing epochs and saw retries under loss.
    let des: usize = report.samples.iter().map(|s| s.des_messages).sum();
    assert!(des > 0, "DES shadow must run under a fault plan");
    // Membership really changed on the overlay.
    let last = report.samples.last().unwrap();
    assert_eq!(
        last.alive_peers,
        128 + report.joins - report.crashes,
        "alive count must track joins and crashes"
    );
    prepared.net.check_invariants().unwrap();
}

/// In debug builds (how this test runs) the engine asserts
/// `KTree::check_invariants` and `ChordNetwork::check_invariants` after
/// every epoch's repair. This run makes each epoch hard for change-driven
/// maintenance: fresh stale links every epoch, joins and crashes between
/// repairs, and balancing rounds that split virtual servers — so a node the
/// filter wrongly skipped shows up as a failed audit, not a drifted metric.
#[test]
fn every_epoch_repair_passes_the_invariant_audit() {
    let mut prepared = stormy().prepare();
    let cfg = EngineConfig {
        epochs: 16,
        balance_interval: 3,
        stale_link_interval: 1,
    };
    let mut trace = Trace::enabled("engine");
    let report = run_engine_with(&mut prepared, &cfg, &mut trace, &NullSink).unwrap();
    assert!(report.stale_links >= cfg.epochs, "stale links every epoch");
    assert!(report.joins > 0 && report.crashes > 0, "churn fired");
    assert!(
        trace.counter("vsa_split_placed") > 0,
        "balancing split virtual servers"
    );
    assert!(
        trace.counter("kt_reattached") > 0,
        "repairs re-attached subtrees"
    );
    prepared.net.check_invariants().unwrap();
}

/// Churn alone — the setting of the paper's self-repair claim (§3.1.1).
/// Debug builds audit the ring and tree invariants after every epoch's
/// repair, so a run that completes is a run whose every repair held; a
/// zero-rate process fires nothing and leaves the membership as it was.
#[test]
fn churn_only_engine_repairs_every_epoch() {
    let quiet = ChurnConfig {
        join_rate: 0.0,
        crash_rate: 0.0,
    };
    for (churn, fires) in [(ChurnConfig::default(), true), (quiet, false)] {
        let scenario = Scenario::builder().small().seed(1).churn(churn).build();
        let mut prepared = scenario.prepare();
        let before = prepared.net.alive_peers().len();
        let report = run_engine(&mut prepared, &short(60)).unwrap();
        let after = prepared.net.alive_peers().len();
        if fires {
            assert!(report.joins > 10, "joins {}", report.joins);
            assert!(report.crashes > 10, "crashes {}", report.crashes);
            assert_eq!(after, before + report.joins - report.crashes);
        } else {
            assert_eq!(report.joins + report.crashes, 0);
            assert_eq!(after, before);
        }
        prepared.net.check_invariants().unwrap();
    }
}

#[test]
fn engine_rejects_invalid_configs() {
    let mut prepared = quiescent().prepare();
    for bad in [
        EngineConfig {
            epochs: 0,
            ..EngineConfig::default()
        },
        EngineConfig {
            balance_interval: 0,
            ..EngineConfig::default()
        },
    ] {
        let err = run_engine(&mut prepared, &bad).unwrap_err();
        assert!(matches!(err, Error::InvalidEngineConfig(_)), "{err}");
    }
}

/// The builder contract that replaced the removed preset constructors:
/// every preset is a plain field rewrite, serializable and reproducible —
/// two builders with the same spelling yield byte-identical scenarios, and
/// each preset pins the documented knobs.
#[test]
fn builder_presets_are_deterministic_field_rewrites() {
    let json = |s: &Scenario| serde_json::to_string(s).unwrap();
    // Same spelling → byte-identical scenario (presets are pure).
    assert_eq!(
        json(&Scenario::builder().seed(5).build()),
        json(&Scenario::builder().seed(5).build())
    );
    assert_eq!(
        json(&Scenario::builder().small().seed(6).build()),
        json(&Scenario::builder().small().seed(6).build())
    );
    assert_eq!(
        json(&Scenario::builder().xl().seed(7).build()),
        json(&Scenario::builder().xl().seed(7).build())
    );
    assert_eq!(
        json(&Scenario::builder().xl2().seed(7).build()),
        json(&Scenario::builder().xl2().seed(7).build())
    );
    // Presets only rewrite their documented knobs on top of the defaults.
    let default = Scenario::builder().seed(9).build();
    let xl = Scenario::builder().xl().seed(9).build();
    assert_eq!(xl.peers, 65_536);
    assert_eq!(xl.topology, TopologyKind::Ts50k);
    assert_eq!(xl.oracle_capacity, proxbal_sim::XL_ORACLE_CAPACITY);
    assert_eq!(xl.distance_mode, default.distance_mode);
    assert_eq!(xl.shards, 0);
    let xl2 = Scenario::builder().xl2().seed(9).build();
    assert_eq!(xl2.peers, 1_048_576);
    assert_eq!(xl2.topology, TopologyKind::Ts50k);
    assert_eq!(xl2.oracle_capacity, proxbal_sim::XL2_ORACLE_CAPACITY);
    assert_eq!(xl2.distance_mode, proxbal_sim::DistanceMode::Approximate);
    assert_eq!(xl2.shards, 8);
    // The oracle_capacity knob flows through prepare(): bounded and
    // unbounded caches build the identical network and landmarks.
    let mut bounded = Scenario::builder().small().seed(8).build();
    bounded.oracle_capacity = 16;
    let bounded = bounded.prepare();
    let unbounded = Scenario::builder().small().seed(8).build().prepare();
    assert_eq!(bounded.net.alive_vs_count(), unbounded.net.alive_vs_count());
    assert_eq!(bounded.landmarks, unbounded.landmarks);
}
