use crate::{HilbertCurve, LandmarkMapper};
use proptest::prelude::*;

/// Every cell of the `dims`-dimensional grid of `order` bits a side, in
/// the order `encode` numbers them — found by encoding each cell, so no
/// inverse is trusted. Asserts that the numbering is a bijection onto
/// `0..2^(dims·order)`.
pub(crate) fn walk(dims: u32, order: u32, encode: impl Fn(&[u32]) -> u128) -> Vec<Vec<u32>> {
    let cells = 1usize << (dims * order);
    let mut walk = vec![None; cells];
    for cell in 0..cells {
        let side = 1usize << order;
        let point: Vec<u32> = (0..dims as usize)
            .map(|d| (cell / side.pow(d as u32) % side) as u32)
            .collect();
        let index = usize::try_from(encode(&point)).expect("index in range");
        assert!(walk[index].replace(point).is_none(), "index {index} twice");
    }
    walk.into_iter()
        .map(|p| p.expect("every index hit"))
        .collect()
}

/// Sum of the L1 steps between consecutive cells of a walk.
pub(crate) fn steps(walk: &[Vec<u32>]) -> Vec<u32> {
    let l1 = |(a, b): (&Vec<u32>, &Vec<u32>)| a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).sum();
    walk.iter().zip(&walk[1..]).map(l1).collect()
}

fn hilbert_walk(dims: u32, order: u32) -> Vec<Vec<u32>> {
    let c = HilbertCurve::new(dims, order);
    walk(dims, order, |p| c.encode(p))
}

#[test]
fn order1_dim2_is_the_classic_4_cell_curve() {
    // The order-1, 2-D Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
    let cells = [[0, 0], [0, 1], [1, 1], [1, 0]].map(Vec::from);
    assert_eq!(hilbert_walk(2, 1), cells);
}

#[test]
fn consecutive_indices_are_grid_neighbors() {
    for (dims, order) in [(2u32, 4u32), (3, 3), (5, 2), (1, 8)] {
        let steps = steps(&hilbert_walk(dims, order));
        assert!(steps.iter().all(|&s| s == 1), "dims={dims} order={order}");
    }
}

#[test]
fn paper_configuration_15_dims() {
    // The paper's landmark space: m = 15 landmarks. With 2 bits per
    // dimension the curve index has 30 bits (2^30 grids).
    let c = HilbertCurve::new(15, 2);
    assert_eq!(c.index_bits(), 30);
    assert!(c.encode(&[3; 15]) < 1 << 30);
    assert_ne!(c.encode(&[1; 15]), c.encode(&[2; 15]));
}

#[test]
fn one_dimension_is_identity() {
    let c = HilbertCurve::new(1, 8);
    for v in [0u32, 1, 17, 200, 255] {
        assert_eq!(c.encode(&[v]), u128::from(v));
    }
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn encode_rejects_wrong_dims() {
    HilbertCurve::new(3, 2).encode(&[0, 1]);
}

#[test]
#[should_panic(expected = "coordinate exceeds")]
fn encode_rejects_out_of_range_coord() {
    HilbertCurve::new(2, 2).encode(&[4, 0]);
}

#[test]
fn mapper_quantizes_uniformly() {
    let m = LandmarkMapper::new(1, 2, 99); // 4 bins over 0..=99
    assert_eq!(m.grid_cell(&[0]), vec![0]);
    assert_eq!(m.grid_cell(&[24]), vec![0]);
    assert_eq!(m.grid_cell(&[25]), vec![1]);
    assert_eq!(m.grid_cell(&[99]), vec![3]);
    // Saturation above scale_max.
    assert_eq!(m.grid_cell(&[5000]), vec![3]);
}

#[test]
fn mapper_identical_vectors_same_key() {
    let m = LandmarkMapper::new(15, 2, 64);
    let v = vec![3u32, 9, 27, 5, 1, 0, 44, 12, 7, 30, 2, 18, 21, 9, 9];
    assert_eq!(m.dht_key(&v), m.dht_key(&v.clone()));
    // Nearby vector in the same grid cells → same key.
    let mut w = v.clone();
    w[0] += 1; // 3 and 4 quantize to the same of 4 bins over 0..=64
    assert_eq!(m.grid_cell(&v)[0], m.grid_cell(&w)[0]);
    assert_eq!(m.dht_key(&v), m.dht_key(&w));
}

#[test]
fn mapper_close_vectors_close_keys() {
    // Statistical locality check: pairs of similar landmark vectors should
    // get closer DHT keys (ring distance) than random pairs, on average.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let m = LandmarkMapper::new(8, 3, 100);

    let ring_dist =
        |a: proxbal_id::Id, b: proxbal_id::Id| -> u64 { a.distance_to(b).min(b.distance_to(a)) };

    let mut close_sum = 0u128;
    let mut far_sum = 0u128;
    let trials = 300;
    for _ in 0..trials {
        let v: Vec<u32> = (0..8).map(|_| rng.gen_range(0..=100)).collect();
        // Perturb each coordinate by at most 3 units.
        let close: Vec<u32> = v
            .iter()
            .map(|&x| {
                let delta = rng.gen_range(0..=3);
                if rng.gen() {
                    x.saturating_add(delta).min(100)
                } else {
                    x.saturating_sub(delta)
                }
            })
            .collect();
        let far: Vec<u32> = (0..8).map(|_| rng.gen_range(0..=100)).collect();
        close_sum += u128::from(ring_dist(m.dht_key(&v), m.dht_key(&close)));
        far_sum += u128::from(ring_dist(m.dht_key(&v), m.dht_key(&far)));
    }
    assert!(
        close_sum * 2 < far_sum,
        "expected perturbation distance ({close_sum}) well below random distance ({far_sum})"
    );
}

#[test]
fn mapper_key_alignment_under_and_over_32_bits() {
    // 15 dims × 2 bits = 30 bits < 32: keys are multiples of 4.
    let m = LandmarkMapper::new(15, 2, 10);
    let key = m.dht_key(&[1u32; 15]).raw();
    assert_eq!(key % 4, 0);
    // 15 dims × 4 bits = 60 bits > 32: top 32 bits kept, still valid keys.
    let m2 = LandmarkMapper::new(15, 4, 10);
    let _ = m2.dht_key(&[7u32; 15]);
}

proptest! {
    #[test]
    fn prop_every_grid_is_one_unit_step_walk(dims in 1u32..7, order in 1u32..4) {
        // Up to 2^12 cells: the whole grid, whatever the shape.
        let order = order.min(12 / dims).max(1);
        let steps = steps(&hilbert_walk(dims, order));
        prop_assert!(steps.iter().all(|&s| s == 1));
    }

    #[test]
    fn prop_quantize_monotone(scale in 1u32..1000, a: u32, b: u32) {
        let m = LandmarkMapper::new(1, 3, scale);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.grid_cell(&[lo])[0] <= m.grid_cell(&[hi])[0]);
    }
}

#[test]
fn mapper_with_ranges_uses_full_resolution() {
    // Values concentrated in [100, 131]: global scaling to 0..=1000 wastes
    // almost all bins; per-dim ranges spread them over the full grid.
    let global = LandmarkMapper::new(2, 4, 1000);
    let ranged = LandmarkMapper::with_ranges(2, 4, vec![(100, 131), (100, 131)]);
    let mut global_cells = std::collections::HashSet::new();
    let mut ranged_cells = std::collections::HashSet::new();
    for a in (100..=131).step_by(2) {
        for b in (100..=131).step_by(2) {
            global_cells.insert(global.grid_cell(&[a, b]));
            ranged_cells.insert(ranged.grid_cell(&[a, b]));
        }
    }
    assert!(
        global_cells.len() <= 4,
        "global scaling nearly collapses the band: {} cells",
        global_cells.len()
    );
    assert!(
        ranged_cells.len() > 100,
        "per-dim scaling spreads: {} cells",
        ranged_cells.len()
    );
}

#[test]
fn mapper_with_ranges_clamps_out_of_range() {
    let m = LandmarkMapper::with_ranges(1, 3, vec![(10, 17)]);
    assert_eq!(m.grid_cell(&[5]), vec![0]); // below range
    assert_eq!(m.grid_cell(&[10]), vec![0]);
    assert_eq!(m.grid_cell(&[17]), vec![7]);
    assert_eq!(m.grid_cell(&[1000]), vec![7]); // above range
}

#[test]
fn mapper_degenerate_range_is_single_bin() {
    let m = LandmarkMapper::with_ranges(2, 4, vec![(5, 5), (0, 100)]);
    assert_eq!(m.grid_cell(&[5, 50])[0], 0);
    assert_eq!(m.grid_cell(&[7, 50])[0], 0);
}

#[test]
fn mapper_curve_kinds_differ_but_cells_agree() {
    use crate::CurveKind;
    let h = LandmarkMapper::with_ranges(2, 4, vec![(0, 100), (0, 100)]);
    let m = h.clone().with_curve(CurveKind::Morton);
    let v = [42u32, 77];
    assert_eq!(h.grid_cell(&v), m.grid_cell(&v), "quantization identical");
    // Indices generally differ (different curve orders).
    let mut differ = false;
    for a in (0..100).step_by(7) {
        for b in (0..100).step_by(11) {
            if h.hilbert_number(&[a, b]) != m.hilbert_number(&[a, b]) {
                differ = true;
            }
        }
    }
    assert!(differ, "Hilbert and Morton must order cells differently");
}

#[test]
fn mapper_centered_removes_common_offset() {
    let m = LandmarkMapper::centered(3, 4, 100);
    let base = [10u32, 40, 70];
    let shifted = [15u32, 45, 75]; // +5 on every coordinate
    assert_eq!(m.grid_cell(&base), m.grid_cell(&shifted));
    assert_eq!(m.dht_key(&base), m.dht_key(&shifted));
}
