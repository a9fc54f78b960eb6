//! Allocator-counter determinism: with the counting allocator installed
//! and enabled, a fixed single-threaded workload performs exactly the
//! same number of allocations (and bytes) every time, as observed through
//! the per-thread ledger; and the process-global ledger moves by at least
//! what a thread allocates while its live-bytes peak follows.

use proxbal_profile::{AllocSnapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A deterministic allocation-heavy workload: growing vectors, a BTreeMap
/// and string formatting — the shapes the simulator actually exercises.
fn workload() -> u64 {
    let mut acc = 0u64;
    let mut map = std::collections::BTreeMap::new();
    for i in 0..500u64 {
        let v: Vec<u64> = (0..(i % 17)).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
        map.insert(format!("key{i}"), v);
    }
    acc.wrapping_add(map.len() as u64)
}

fn measured_workload() -> (AllocSnapshot, u64) {
    let before = AllocSnapshot::current_thread();
    let out = workload();
    (AllocSnapshot::current_thread().since(before), out)
}

fn per_thread_alloc_counts_are_deterministic() {
    let (d1, o1) = measured_workload();
    let (d2, o2) = measured_workload();
    let (d3, o3) = measured_workload();
    assert_eq!(o1, o2);
    assert_eq!(o2, o3);
    assert!(d1.allocs > 0, "workload must allocate");
    assert!(d1.bytes > 0, "workload must allocate bytes");
    assert_eq!(d1, d2, "alloc counts must repeat exactly");
    assert_eq!(d2, d3, "alloc counts must repeat exactly");
}

fn global_ledger_moves_and_peak_tracks_live() {
    use proxbal_profile::alloc::{live_bytes, peak_live_bytes};
    const MIB: u64 = 1 << 20;
    // The signed live ledger sits below zero by whatever was allocated
    // before `enable_counting` and freed since, and its readers clamp at
    // zero: hold 1 MiB first, then assert on how the readings *move*.
    let ballast = std::hint::black_box(vec![0u8; MIB as usize]);
    let (before, live, peak) = (AllocSnapshot::global(), live_bytes(), peak_live_bytes());
    let big = std::hint::black_box(vec![0u8; MIB as usize]);
    assert!(AllocSnapshot::global().since(before).bytes >= MIB);
    assert!(live_bytes() >= live + MIB);
    assert!(peak_live_bytes() >= peak.max(live + MIB));
    drop(big);
    assert!(live_bytes() < live + MIB);
    assert!(peak_live_bytes() >= live + MIB, "the peak never comes down");
    drop(ballast);
}

/// One test on purpose: the global ledger is process-wide, so a second
/// `#[test]` allocating and freeing on a sibling harness thread would move
/// it under the assertions above.
#[test]
fn counting_ledgers() {
    proxbal_profile::enable_counting();
    per_thread_alloc_counts_are_deterministic();
    global_ledger_moves_and_peak_tracks_live();
}
