use crate::lbi::Lbi;
use serde::{Deserialize, Serialize};

/// Node classification of §3.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeClass {
    /// `L_i > T_i` — must shed load.
    Heavy,
    /// `T_i − L_i ≥ L_min` — has room for at least the lightest virtual
    /// server in the system.
    Light,
    /// `0 ≤ T_i − L_i < L_min` — neither sheds nor usefully receives.
    Neutral,
}

/// Classification parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClassifyParams {
    /// Balance-quality knob `ε ≥ 0`: the target load is
    /// `T_i = (L/C)·C_i·(1+ε)`. "ε is a parameter for a trade-off between
    /// the amount of load moved and the quality of balance achieved.
    /// Ideally, ε is 0." (§3.3; formula reconstructed — see DESIGN.md.)
    pub epsilon: f64,
}

impl Default for ClassifyParams {
    fn default() -> Self {
        ClassifyParams { epsilon: 0.05 }
    }
}

impl ClassifyParams {
    /// Strict fairness (`ε = 0`).
    pub fn strict() -> Self {
        ClassifyParams { epsilon: 0.0 }
    }

    /// The target load `T_i` of a node with capacity `capacity`, given the
    /// system totals: the fair share proportional to capacity, relaxed by
    /// `(1+ε)`.
    pub fn target(&self, capacity: f64, system: &Lbi) -> f64 {
        assert!(system.capacity > 0.0, "system has no capacity");
        (system.load / system.capacity) * capacity * (1.0 + self.epsilon)
    }

    /// Classifies a node from its LBI and the disseminated system LBI.
    pub fn classify(&self, node: &Lbi, system: &Lbi) -> NodeClass {
        let target = self.target(node.capacity, system);
        if node.load > target {
            NodeClass::Heavy
        } else if target - node.load >= system.min_vs_load {
            NodeClass::Light
        } else {
            NodeClass::Neutral
        }
    }

    /// The excess load a heavy node must shed to reach its target
    /// (0 for non-heavy nodes).
    pub fn excess(&self, node: &Lbi, system: &Lbi) -> f64 {
        (node.load - self.target(node.capacity, system)).max(0.0)
    }

    /// The spare room `ΔL_j = T_j − L_j` of a light node
    /// (0 for non-light nodes).
    pub(crate) fn spare(&self, node: &Lbi, system: &Lbi) -> f64 {
        let spare = self.target(node.capacity, system) - node.load;
        if spare >= system.min_vs_load {
            spare
        } else {
            0.0
        }
    }
}
