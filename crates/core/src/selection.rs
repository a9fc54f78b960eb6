use proxbal_chord::VsId;

/// Chooses the subset of a heavy node's virtual servers to shed (§3.4):
/// minimize the total shed load `Σ L_{i,k}` subject to shedding at least
/// `excess` (so the node drops to its target). "This choice of virtual
/// servers on heavy nodes would minimize the total amount of load moved for
/// load balancing throughout the system."
///
/// This is a *minimum subset-sum ≥ threshold* problem. For realistic VS
/// counts (a node hosts `O(log N)` virtual servers) an exact branch-and-
/// bound over loads sorted descending is cheap; beyond
/// [`EXACT_LIMIT`] virtual servers a greedy that is within one virtual
/// server of optimal is used.
///
/// The chosen set replaces the contents of `out`, heaviest first. If the
/// search finds no subset that reaches `excess` — even shedding everything
/// falls short, summed as the search sums — every virtual server is
/// returned in input order (best effort). Up to [`EXACT_LIMIT`] virtual
/// servers nothing is allocated, so a caller reusing `out` sheds any
/// number of peers from one buffer.
pub(crate) fn choose_shed_set(vss: &[(VsId, f64)], excess: f64, out: &mut Vec<VsId>) {
    assert!(excess.is_finite());
    out.clear();
    if excess <= 0.0 {
        return;
    }
    let descending = |a: &(VsId, f64), b: &(VsId, f64)| b.1.total_cmp(&a.1);
    let found = if vss.len() <= EXACT_LIMIT {
        let mut buf = [(VsId(0), 0.0); EXACT_LIMIT];
        let sorted = &mut buf[..vss.len()];
        sorted.copy_from_slice(vss);
        // Stable, and an insertion sort at this length: no scratch.
        sorted.sort_by(descending);
        exact(sorted, excess, out)
    } else {
        let mut sorted = vss.to_vec();
        sorted.sort_by(descending);
        greedy(&mut sorted, excess, out)
    };
    if !found {
        out.extend(vss.iter().map(|&(v, _)| v));
    }
}

/// Above this many virtual servers, fall back from exact search to greedy.
/// At most 32: the exact search keeps its subsets as `u32` bit masks.
pub const EXACT_LIMIT: usize = 20;

/// Exact branch-and-bound: loads sorted descending, suffix sums for
/// pruning; explores "take / skip" per item, keeping the best feasible sum
/// and its subset as a mask over `sorted` (bit `i` = item `i` taken).
/// Appends the best subset to `out` in `sorted` order; `false` when no
/// subset reaches `excess`.
fn exact(sorted: &[(VsId, f64)], excess: f64, out: &mut Vec<VsId>) -> bool {
    let n = sorted.len();
    debug_assert!(n <= EXACT_LIMIT);
    // suffix[i] = sum of loads from i to end.
    let mut suffix = [0.0; EXACT_LIMIT + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + sorted[i].1;
    }

    struct Search<'a> {
        sorted: &'a [(VsId, f64)],
        suffix: &'a [f64],
        excess: f64,
        best_sum: f64,
        best: u32,
        current: u32,
    }

    impl Search<'_> {
        fn run(&mut self, i: usize, sum: f64) {
            if sum >= self.excess {
                if sum < self.best_sum {
                    self.best_sum = sum;
                    self.best = self.current;
                }
                return; // adding more only increases the sum
            }
            if i == self.sorted.len() {
                return;
            }
            // Prune: even taking everything left cannot reach the excess.
            if sum + self.suffix[i] < self.excess {
                return;
            }
            let bit = 1u32 << i;
            // Prune: the smallest feasible completion is already worse.
            if sum + self.sorted[i].1 >= self.best_sum {
                // Taking item i overshoots the best; skipping keeps sum the
                // same but later items are smaller — still explore skip.
                self.current &= !bit;
                self.run(i + 1, sum);
                return;
            }
            self.current |= bit;
            self.run(i + 1, sum + self.sorted[i].1);
            self.current &= !bit;
            self.run(i + 1, sum);
        }
    }

    let mut search = Search {
        sorted,
        suffix: &suffix[..=n],
        excess,
        best_sum: f64::INFINITY,
        best: 0,
        current: 0,
    };
    search.run(0, 0.0);
    let taken = |&(i, _): &(usize, _)| search.best & 1 << i != 0;
    out.extend(
        sorted
            .iter()
            .enumerate()
            .filter(taken)
            .map(|(_, &(v, _))| v),
    );
    search.best_sum.is_finite()
}

/// Greedy: walk loads descending, take an item only if still needed; the
/// final (smallest taken) item bounds the overshoot. Appends the chosen
/// items to `out`, heaviest first; `false` when taking every item falls
/// short of `excess`.
fn greedy(sorted: &mut Vec<(VsId, f64)>, excess: f64, out: &mut Vec<VsId>) -> bool {
    let mut sum = 0.0;
    // First pass: take from the largest down while short of the excess.
    let mut taken = 0;
    for &(_, l) in sorted.iter() {
        if sum >= excess {
            break;
        }
        sum += l;
        taken += 1;
    }
    if sum < excess {
        return false;
    }
    sorted.truncate(taken);
    // Second pass: drop items that became unnecessary (smallest first).
    let mut i = sorted.len();
    while i > 0 {
        i -= 1;
        if sum - sorted[i].1 >= excess {
            sum -= sorted[i].1;
            sorted.remove(i);
        }
    }
    out.extend(sorted.iter().map(|&(v, _)| v));
    true
}
