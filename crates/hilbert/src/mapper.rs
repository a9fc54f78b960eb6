use crate::{HilbertCurve, MortonCurve};
use proxbal_id::Id;
use serde::{Deserialize, Serialize};

/// Which space-filling curve orders the grid cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CurveKind {
    /// Hilbert curve — unit-step locality; the paper's choice (§4.2.1).
    Hilbert,
    /// Z-order (Morton) curve — cheaper, worse locality; ablation baseline.
    Morton,
}

/// Internal curve dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum AnyCurve {
    Hilbert(HilbertCurve),
    Morton(MortonCurve),
}

impl AnyCurve {
    fn new(kind: CurveKind, dims: u32, order: u32) -> Self {
        match kind {
            CurveKind::Hilbert => AnyCurve::Hilbert(HilbertCurve::new(dims, order)),
            CurveKind::Morton => AnyCurve::Morton(MortonCurve::new(dims, order)),
        }
    }

    fn encode(&self, point: &[u32]) -> u128 {
        match self {
            AnyCurve::Hilbert(c) => c.encode(point),
            AnyCurve::Morton(c) => c.encode(point),
        }
    }

    fn index_bits(&self) -> u32 {
        match self {
            AnyCurve::Hilbert(c) => c.index_bits(),
            AnyCurve::Morton(c) => c.index_bits(),
        }
    }

    fn max_coord(&self) -> u32 {
        match self {
            AnyCurve::Hilbert(c) => c.max_coord(),
            AnyCurve::Morton(c) => c.max_coord(),
        }
    }
}

/// Maps raw landmark vectors (distances in latency units) onto the 32-bit
/// identifier ring via grid quantization + Hilbert encoding (§4.2.1).
///
/// The paper "divides the m-dimensional landmark space into 2^n grids of
/// equal size (where n controls the number of grids used to divide the
/// landmark space)" and numbers grids along a Hilbert curve; a node's
/// **Hilbert number** is the grid number containing its landmark vector.
/// Here `n = m·b` where `b` is bits per dimension: smaller `b` means coarser
/// grids and a higher chance that two physically close nodes share a Hilbert
/// number — exactly the paper's "a smaller n increases the likelihood that
/// two physically close nodes have the same Hilbert number".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LandmarkMapper {
    curve: AnyCurve,
    /// Upper bound (inclusive) of the coordinate range used for scaling;
    /// distances above it saturate into the last grid cell.
    scale_max: u32,
    /// Subtract the minimum coordinate from every coordinate before
    /// quantizing (see [`LandmarkMapper::centered`]).
    center: bool,
    /// Per-dimension `(lo, hi)` ranges for min–max scaling (see
    /// [`LandmarkMapper::with_ranges`]). Overrides `scale_max` when set.
    ranges: Option<Vec<(u32, u32)>>,
}

impl LandmarkMapper {
    /// Creates a mapper for `dims`-dimensional landmark vectors with
    /// `bits_per_dim` grid bits per dimension, scaling raw distances from
    /// `[0, scale_max]` onto the grid. `scale_max` is typically the network
    /// diameter (or the maximum observed landmark distance).
    pub fn new(dims: u32, bits_per_dim: u32, scale_max: u32) -> Self {
        assert!(scale_max > 0, "scale_max must be positive");
        LandmarkMapper {
            curve: AnyCurve::new(CurveKind::Hilbert, dims, bits_per_dim),
            scale_max,
            center: false,
            ranges: None,
        }
    }

    /// Like [`LandmarkMapper::new`], but each dimension `d` is min–max
    /// scaled from its own observed range `ranges[d] = (lo, hi)` onto the
    /// full grid resolution (values outside the range saturate).
    ///
    /// Raw landmark distances in a hop-count model occupy a narrow band
    /// (every coordinate is dominated by a few interdomain hops), so plain
    /// global scaling packs the whole population into a handful of grid
    /// cells — and therefore onto a handful of ring arcs, destroying the
    /// rendezvous granularity the VSA sweep needs. Stretching each
    /// dimension to its observed range restores full grid resolution. See
    /// DESIGN.md.
    pub fn with_ranges(dims: u32, bits_per_dim: u32, ranges: Vec<(u32, u32)>) -> Self {
        assert_eq!(ranges.len(), dims as usize, "one range per dimension");
        assert!(ranges.iter().all(|&(lo, hi)| lo <= hi));
        LandmarkMapper {
            curve: AnyCurve::new(CurveKind::Hilbert, dims, bits_per_dim),
            scale_max: 1,
            center: false,
            ranges: Some(ranges),
        }
    }

    /// Switches the mapper to a different space-filling curve (same
    /// dimensions and order). Used by the curve ablation.
    pub fn with_curve(mut self, kind: CurveKind) -> Self {
        let (dims, order) = match self.curve {
            AnyCurve::Hilbert(c) => (c.dims(), c.order()),
            AnyCurve::Morton(c) => (c.dims(), c.order()),
        };
        self.curve = AnyCurve::new(kind, dims, order);
        self
    }

    /// Like [`LandmarkMapper::new`], but each vector is first **centered**:
    /// its minimum coordinate is subtracted from every coordinate.
    ///
    /// With integer hop-count distances, a node's distance to each landmark
    /// is (distance to its domain gateway) + (gateway's distance to the
    /// landmark): the first term is a common-mode offset that shifts all
    /// coordinates *diagonally*, and diagonal neighbours can land far apart
    /// on a Hilbert curve, scattering one LAN's nodes over many grid cells.
    /// Real RTT measurements have negligible LAN components, so centering
    /// restores the behaviour the paper's landmark clustering presumes
    /// ("nodes in a stub domain have close (or even same) Hilbert
    /// numbers"). See DESIGN.md.
    pub fn centered(dims: u32, bits_per_dim: u32, scale_max: u32) -> Self {
        LandmarkMapper {
            center: true,
            ..Self::new(dims, bits_per_dim, scale_max)
        }
    }

    /// Quantizes one raw coordinate into `0 ..= 2^b − 1`.
    fn quantize(&self, raw: u32) -> u32 {
        let cells = u64::from(self.curve.max_coord()) + 1;
        let raw = raw.min(self.scale_max);
        // floor(raw * cells / (scale_max + 1)) — uniform bins over the range.
        ((u64::from(raw) * cells) / (u64::from(self.scale_max) + 1)) as u32
    }

    /// The grid cell of a landmark vector.
    pub fn grid_cell(&self, landmark_vector: &[u32]) -> Vec<u32> {
        let mut cell = vec![0; landmark_vector.len()];
        self.fill_cell(landmark_vector, &mut cell);
        cell
    }

    /// Writes the grid cell of `landmark_vector` into `cell`, one
    /// coordinate per dimension.
    fn fill_cell(&self, landmark_vector: &[u32], cell: &mut [u32]) {
        if let Some(ref ranges) = self.ranges {
            assert_eq!(landmark_vector.len(), ranges.len(), "dimension mismatch");
            let cells = u64::from(self.curve.max_coord()) + 1;
            for ((c, &d), &(lo, hi)) in cell.iter_mut().zip(landmark_vector).zip(ranges) {
                let d = d.clamp(lo, hi) - lo;
                let span = u64::from(hi - lo) + 1;
                *c = ((u64::from(d) * cells) / span) as u32;
            }
            return;
        }
        let min = match self.center {
            true => landmark_vector.iter().copied().min().unwrap_or(0),
            false => 0,
        };
        for (c, &d) in cell.iter_mut().zip(landmark_vector) {
            *c = self.quantize(d - min);
        }
    }

    /// The Hilbert number of a landmark vector: the index of its grid cell
    /// along the space-filling curve. Allocates nothing: a curve has at
    /// most 128 dimensions (`dims · bits ≤ 128`), so the cell fits a fixed
    /// buffer.
    pub fn hilbert_number(&self, landmark_vector: &[u32]) -> u128 {
        let mut buf = [0; 128];
        let cell = buf
            .get_mut(..landmark_vector.len())
            .expect("dimension mismatch");
        self.fill_cell(landmark_vector, cell);
        self.curve.encode(cell)
    }

    /// Maps a landmark vector all the way to a 32-bit DHT key: the Hilbert
    /// number is left-aligned into the ring so that curve locality becomes
    /// ring locality.
    ///
    /// If the curve has more than 32 index bits, the *most significant* 32
    /// are kept (nearby curve points still map to nearby ring points); with
    /// fewer bits, the number is shifted up so cells partition the ring into
    /// equal arcs.
    pub fn dht_key(&self, landmark_vector: &[u32]) -> Id {
        let h = self.hilbert_number(landmark_vector);
        let bits = self.curve.index_bits();
        let key = if bits > 32 {
            (h >> (bits - 32)) as u32
        } else {
            (h as u32) << (32 - bits)
        };
        Id::new(key)
    }
}
