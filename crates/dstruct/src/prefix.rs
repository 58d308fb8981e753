//! Pass bookkeeping: immediate gains and the best committed prefix.

/// Outcome of a pass: how many tentative moves to commit and the total cut
/// improvement they realise.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BestPrefix {
    /// Number of leading moves to commit (may be 0).
    pub moves: usize,
    /// Sum of immediate gains over the committed prefix.
    pub gain: f64,
}

/// Records the immediate gain of each tentative move in a pass and selects
/// the prefix with the maximum cumulative gain among prefixes whose end
/// state is balance-feasible.
///
/// FM, LA, and PROP all share this mechanism: every node is (virtually)
/// moved once, then only the first `p` moves — where the running sum of
/// immediate gains peaks — are actually applied (§2 and step 9–10 of
/// Fig. 2 in the paper).
///
/// The best prefix is kept up to date as moves are pushed, so a pass can
/// ask how far it has gone past it ([`PrefixTracker::moves_since_best`])
/// and stop once it stalls.
///
/// ```
/// use prop_dstruct::PrefixTracker;
///
/// let mut t = PrefixTracker::new();
/// t.push(2.0, true);
/// t.push(-1.0, true);
/// t.push(3.0, true);  // cumulative 4.0 — the peak
/// t.push(-2.0, true);
/// let best = t.best().expect("positive prefix exists");
/// assert_eq!(best.moves, 3);
/// assert_eq!(best.gain, 4.0);
/// assert_eq!(t.moves_since_best(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PrefixTracker {
    gains: Vec<f64>,
    feasible: Vec<bool>,
    /// Running sum of `gains`, accumulated in push order.
    sum: f64,
    best: Option<BestPrefix>,
}

impl PrefixTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tracker with capacity for `n` moves.
    pub fn with_capacity(n: usize) -> Self {
        PrefixTracker {
            gains: Vec::with_capacity(n),
            feasible: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Records one tentative move: its immediate cut gain and whether the
    /// partition state *after* the move satisfies the strict balance
    /// constraint (an infeasible end state may not be committed, but the
    /// pass may still pass through it).
    ///
    /// The move becomes the new best prefix when its end state is
    /// feasible and its cumulative gain is strictly positive and strictly
    /// above the best so far, so among equal cumulative gains the
    /// shortest prefix wins and no zero-gain suffix is committed.
    pub fn push(&mut self, gain: f64, feasible: bool) {
        self.gains.push(gain);
        self.feasible.push(feasible);
        self.sum += gain;
        if !feasible {
            return;
        }
        let better = match self.best {
            None => self.sum > 0.0,
            Some(b) => self.sum > b.gain,
        };
        if better {
            self.best = Some(BestPrefix {
                moves: self.gains.len(),
                gain: self.sum,
            });
        }
    }

    /// Number of recorded moves.
    pub fn len(&self) -> usize {
        self.gains.len()
    }

    /// Returns `true` if no moves are recorded.
    pub fn is_empty(&self) -> bool {
        self.gains.is_empty()
    }

    /// Clears the tracker for the next pass, retaining allocation.
    pub fn clear(&mut self) {
        self.gains.clear();
        self.feasible.clear();
        self.sum = 0.0;
        self.best = None;
    }

    /// The immediate gains recorded so far.
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    /// The per-move feasibility flags recorded so far, parallel to
    /// [`PrefixTracker::gains`]. Exposed so external auditors can rerun
    /// the best-prefix selection against a naive scan.
    pub fn feasibility(&self) -> &[bool] {
        &self.feasible
    }

    /// The best strictly positive, feasible prefix, or `None` when every
    /// feasible prefix has non-positive cumulative gain (the pass failed to
    /// improve and the partitioner should stop).
    ///
    /// Among prefixes with equal cumulative gain the shortest is chosen, so
    /// no zero-gain suffix is committed.
    pub fn best(&self) -> Option<BestPrefix> {
        self.best
    }

    /// Moves recorded after the best prefix: all of them while there is
    /// none. A pass that has gone this far without a new best is stalled.
    pub fn moves_since_best(&self) -> usize {
        self.len() - self.best.map_or(0, |b| b.moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_best() {
        assert_eq!(PrefixTracker::new().best(), None);
    }

    #[test]
    fn all_negative_has_no_best() {
        let mut t = PrefixTracker::new();
        t.push(-1.0, true);
        t.push(-0.5, true);
        assert_eq!(t.best(), None);
    }

    #[test]
    fn zero_total_is_not_committed() {
        let mut t = PrefixTracker::new();
        t.push(1.0, true);
        t.push(-1.0, true);
        // The peak is after move 1 with gain 1.0, not the zero total.
        let best = t.best().unwrap();
        assert_eq!(best.moves, 1);
        assert_eq!(best.gain, 1.0);
    }

    #[test]
    fn pure_zero_gain_pass_terminates() {
        let mut t = PrefixTracker::new();
        t.push(0.0, true);
        t.push(0.0, true);
        assert_eq!(t.best(), None);
    }

    #[test]
    fn infeasible_peak_is_skipped() {
        let mut t = PrefixTracker::new();
        t.push(5.0, false); // best sum but infeasible end state
        t.push(-1.0, true);
        let best = t.best().unwrap();
        assert_eq!(best.moves, 2);
        assert_eq!(best.gain, 4.0);
    }

    #[test]
    fn all_infeasible_has_no_best() {
        let mut t = PrefixTracker::new();
        t.push(3.0, false);
        t.push(2.0, false);
        assert_eq!(t.best(), None);
    }

    #[test]
    fn ties_prefer_shorter_prefix() {
        let mut t = PrefixTracker::new();
        t.push(2.0, true);
        t.push(0.0, true);
        t.push(0.0, true);
        let best = t.best().unwrap();
        assert_eq!(best.moves, 1);
    }

    #[test]
    fn clear_retains_reuse() {
        let mut t = PrefixTracker::with_capacity(4);
        t.push(1.0, true);
        t.clear();
        assert!(t.is_empty());
        t.push(2.0, true);
        assert_eq!(t.best().unwrap().gain, 2.0);
        assert_eq!(t.gains(), &[2.0]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn moves_since_best_counts_from_the_last_best() {
        let mut t = PrefixTracker::new();
        assert_eq!(t.moves_since_best(), 0);
        t.push(-1.0, true);
        t.push(3.0, false);
        // No feasible positive prefix yet: every move counts.
        assert_eq!(t.moves_since_best(), 2);
        t.push(0.0, true);
        assert_eq!(t.moves_since_best(), 0);
        t.push(0.0, true);
        t.push(-1.0, true);
        assert_eq!(t.moves_since_best(), 2);
        t.clear();
        assert_eq!((t.best(), t.moves_since_best()), (None, 0));
    }

    #[test]
    fn feasibility_parallels_gains() {
        let mut t = PrefixTracker::new();
        t.push(1.0, true);
        t.push(-2.0, false);
        assert_eq!(t.feasibility(), &[true, false]);
        assert_eq!(t.gains().len(), t.feasibility().len());
    }
}
