//! Configuration of the PROP partitioner.

use crate::error::PartitionError;

/// How the chicken-and-egg cycle between gains and probabilities is
/// seeded at the start of each pass (§3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GainInit {
    /// Every node starts at the same probability `p_init` ("blind" method).
    #[default]
    Uniform,
    /// Probabilities are seeded from the deterministic FM gains (Eqn. 1),
    /// mapped through the probability function.
    Deterministic,
}

/// Parameters of PROP. The defaults are the settings used for every
/// experiment in the paper (§4): `p_init = p_max = 0.95`, `p_min = 0.4`,
/// the linear probability function with thresholds `g_up = 1`,
/// `g_lo = −1`, two gain/probability refinement iterations, and a top-5
/// refresh per side after each move.
///
/// ```
/// use prop_core::PropConfig;
///
/// let cfg = PropConfig::default();
/// assert_eq!(cfg.p_init, 0.95);
/// assert_eq!(cfg.p_min, 0.4);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct PropConfig {
    /// Initial node probability for the [`GainInit::Uniform`] seeding.
    pub p_init: f64,
    /// Upper clamp on node probabilities (`p_max ≤ 1`; the paper notes
    /// `p_max = 1` is not unreasonable).
    pub p_max: f64,
    /// Lower clamp on node probabilities. Must be strictly positive: a
    /// zero probability is reserved for locked nodes.
    pub p_min: f64,
    /// Gain threshold at and above which a node gets `p_max`.
    pub g_up: f64,
    /// Gain threshold below which a node gets `p_min`.
    pub g_lo: f64,
    /// Probability seeding method.
    pub init: GainInit,
    /// Number of (gain → probability) refinement iterations before the
    /// move phase of each pass. The paper uses 2.
    pub refine_iterations: usize,
    /// Number of top-ranked nodes per side whose gains are recomputed
    /// after every move, in addition to the moved node's neighbors
    /// (§3.4; the paper suggests five).
    pub top_k_refresh: usize,
    /// Safety bound on passes per run. The paper observes convergence in
    /// two to four passes; this bound only guards pathological inputs.
    pub max_passes: usize,
}

impl Default for PropConfig {
    fn default() -> Self {
        PropConfig {
            p_init: 0.95,
            p_max: 0.95,
            p_min: 0.4,
            g_up: 1.0,
            g_lo: -1.0,
            init: GainInit::Uniform,
            refine_iterations: 2,
            top_k_refresh: 5,
            max_passes: 64,
        }
    }
}

impl PropConfig {
    /// The profile used by this suite's experiment harness: the paper's
    /// parameters with the probability floor raised from 0.4 to 0.85.
    ///
    /// On the synthetic proxy circuits (see `prop-netlist::generate`) the
    /// quality of PROP is monotone in `p_min` over `[0.4, 0.95]`: a high
    /// floor keeps the per-net products optimistic enough for whole
    /// clusters to migrate within a pass, which is where PROP's margin
    /// over FM comes from. The published floor of 0.4 was tuned on the
    /// real ACM/SIGDA circuits; on the proxies it erases the margin. The
    /// `ablation` experiment binary (`prop-experiments`) regenerates this
    /// sensitivity curve.
    pub fn calibrated() -> Self {
        PropConfig {
            p_min: 0.85,
            ..PropConfig::default()
        }
    }

    /// Checks parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] when probabilities leave
    /// `(0, 1]`, the clamps are inverted, the thresholds are inverted, or
    /// the pass bound is zero.
    pub fn validate(&self) -> Result<(), PartitionError> {
        let fail = |message: String| Err(PartitionError::InvalidConfig { message });
        if !(self.p_min > 0.0 && self.p_min <= self.p_max && self.p_max <= 1.0) {
            return fail(format!(
                "need 0 < p_min <= p_max <= 1, got p_min={} p_max={}",
                self.p_min, self.p_max
            ));
        }
        if !(self.p_init > 0.0 && self.p_init <= 1.0) {
            return fail(format!("p_init={} outside (0, 1]", self.p_init));
        }
        if !(self.g_lo.is_finite() && self.g_up.is_finite() && self.g_lo < self.g_up) {
            return fail(format!(
                "need finite g_lo < g_up, got g_lo={} g_up={}",
                self.g_lo, self.g_up
            ));
        }
        if self.max_passes == 0 {
            return fail("max_passes must be at least 1".into());
        }
        Ok(())
    }

    /// The linear probability function of §3.2: monotone in the gain,
    /// clamped to `[p_min, p_max]`, with saturation thresholds `g_lo` and
    /// `g_up`.
    pub fn probability_of(&self, gain: f64) -> f64 {
        if gain >= self.g_up {
            self.p_max
        } else if gain < self.g_lo {
            self.p_min
        } else {
            let t = (gain - self.g_lo) / (self.g_up - self.g_lo);
            self.p_min + t * (self.p_max - self.p_min)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_settings() {
        let c = PropConfig::default();
        assert_eq!((c.p_init, c.p_max, c.p_min), (0.95, 0.95, 0.4));
        assert_eq!((c.g_up, c.g_lo), (1.0, -1.0));
        assert_eq!(c.refine_iterations, 2);
        assert_eq!(c.top_k_refresh, 5);
        assert_eq!(c.init, GainInit::Uniform);
        c.validate().unwrap();
    }

    #[test]
    fn probability_function_is_monotone_and_clamped() {
        let c = PropConfig::default();
        assert_eq!(c.probability_of(5.0), 0.95);
        assert_eq!(c.probability_of(1.0), 0.95);
        assert_eq!(c.probability_of(-1.5), 0.4);
        let mid = c.probability_of(0.0);
        assert!((mid - 0.675).abs() < 1e-12); // midpoint of [0.4, 0.95]
        let mut prev = f64::NEG_INFINITY;
        for i in -40..=40 {
            let p = c.probability_of(f64::from(i) * 0.1);
            assert!(p >= prev - 1e-15);
            assert!((c.p_min..=c.p_max).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn boundary_at_g_lo_uses_linear_branch() {
        let c = PropConfig::default();
        assert_eq!(c.probability_of(c.g_lo), c.p_min);
    }

    #[test]
    fn invalid_configs() {
        let bad = |f: fn(&mut PropConfig)| {
            let mut c = PropConfig::default();
            f(&mut c);
            assert!(c.validate().is_err(), "{c:?}");
        };
        bad(|c| c.p_min = 0.0);
        bad(|c| c.p_min = 0.99); // > p_max
        bad(|c| c.p_max = 1.5);
        bad(|c| c.p_init = 0.0);
        bad(|c| c.p_init = 1.1);
        bad(|c| c.g_lo = 2.0); // >= g_up
        bad(|c| c.g_up = f64::INFINITY);
        bad(|c| c.max_passes = 0);
    }

    #[test]
    fn pmax_one_is_legal() {
        let c = PropConfig {
            p_max: 1.0,
            ..PropConfig::default()
        };
        c.validate().unwrap();
        assert_eq!(c.probability_of(10.0), 1.0);
    }
}
