//! Per-phase timing and work counters for the PROP hot path.
//!
//! Compiled to no-ops unless the `prof` feature is on, so the engine can
//! be instrumented at every phase boundary without perturbing release
//! measurements: with the feature off every call is an empty
//! `#[inline(always)]` function over a zero-sized [`Tick`], and the
//! optimizer erases the call sites entirely.
//!
//! With the feature on, counters are **thread-local**: each worker thread
//! accumulates its own snapshot, and every parallel join in `prop-core`
//! (the multi-start harness and the k-way subtree split) folds its
//! workers' snapshots into the joining thread with [`absorb`]. Counts are therefore the same at every worker
//! count; the `*_ns` timers sum worker time, so they exceed wall time
//! when workers overlap.

/// A hot-path phase of the PROP pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Probability seeding plus the first full product/gain sweep.
    Seed,
    /// The dirty-net gain/probability refinement iterations.
    Refine,
    /// Move selection (ordered-store queries and feasibility probes).
    Select,
    /// Applying a move: cut/partition/lock updates and per-net recomputes.
    Apply,
    /// Post-move neighbor and top-k gain/probability refreshes.
    Refresh,
    /// Multilevel: heavy-edge matching + coarse circuit construction.
    MlCoarsen,
    /// Multilevel: greedy starts + improvement at the coarsest level.
    MlInitial,
    /// Multilevel: projecting a partition one level finer.
    MlProject,
    /// Multilevel: per-level refinement during uncoarsening. Overlaps the
    /// inner engine's own phase counters (a PROP refinement charges both
    /// `ml_refine_ns` and its Seed/Refine/Select/Apply/Refresh split).
    MlRefine,
}

/// Accumulated per-thread profile since the last [`reset`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfSnapshot {
    /// Nanoseconds in [`Phase::Seed`].
    pub seed_ns: u64,
    /// Nanoseconds in [`Phase::Refine`].
    pub refine_ns: u64,
    /// Nanoseconds in [`Phase::Select`].
    pub select_ns: u64,
    /// Nanoseconds in [`Phase::Apply`].
    pub apply_ns: u64,
    /// Nanoseconds in [`Phase::Refresh`].
    pub refresh_ns: u64,
    /// Tentative moves applied.
    pub moves: u64,
    /// Exact per-net recomputations ([`NetHot`] rebuilds).
    ///
    /// [`NetHot`]: crate::prop::NetHot
    pub net_recomputes: u64,
    /// Gain evaluations (Eqns. 3–4 walks).
    pub gain_recomputes: u64,
    /// Nanoseconds in [`Phase::MlCoarsen`].
    pub ml_coarsen_ns: u64,
    /// Nanoseconds in [`Phase::MlInitial`].
    pub ml_initial_ns: u64,
    /// Nanoseconds in [`Phase::MlProject`].
    pub ml_project_ns: u64,
    /// Nanoseconds in [`Phase::MlRefine`]. Overlaps the PROP phase
    /// counters when the inner refiner is PROP, so it is **not** part of
    /// [`total_ns`](ProfSnapshot::total_ns).
    pub ml_refine_ns: u64,
    /// Coarsening levels built by multilevel V-cycles.
    pub ml_levels: u64,
    /// V-cycle results a multilevel run discarded, keeping its incoming
    /// partition instead: infeasible under the run's balance, or cutting
    /// more than the incoming partition. A V-cycle whose coarse windows
    /// leave it unbalanced shows up here rather than only as a poor cut.
    pub ml_rejected: u64,
    /// Corridors grown by the flow refinement pass (one per attempted
    /// min-cut round).
    pub flow_corridors: u64,
    /// Augmenting paths pushed by the Dinic max-flow kernel.
    pub flow_augments: u64,
    /// Flow-induced bipartitions accepted (feasible and strictly better
    /// than the oracle-recounted incoming cut).
    pub flow_accepted: u64,
}

impl ProfSnapshot {
    /// Total instrumented nanoseconds across the engine hot-path phases.
    /// The `ml_*` overlay counters are excluded: `ml_refine_ns` brackets
    /// inner-engine work that already charges these phases.
    pub fn total_ns(&self) -> u64 {
        self.seed_ns + self.refine_ns + self.select_ns + self.apply_ns + self.refresh_ns
    }

    /// Total nanoseconds of the multilevel overlay phases.
    pub fn ml_total_ns(&self) -> u64 {
        self.ml_coarsen_ns + self.ml_initial_ns + self.ml_project_ns + self.ml_refine_ns
    }

    /// Every counter by name, in declaration order: the one list that
    /// reporting surfaces (daemon `stats`, `bench_snapshot --profile`)
    /// render from.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        // Destructured so a new field cannot be left out of the list.
        let ProfSnapshot {
            seed_ns,
            refine_ns,
            select_ns,
            apply_ns,
            refresh_ns,
            moves,
            net_recomputes,
            gain_recomputes,
            ml_coarsen_ns,
            ml_initial_ns,
            ml_project_ns,
            ml_refine_ns,
            ml_levels,
            ml_rejected,
            flow_corridors,
            flow_augments,
            flow_accepted,
        } = *self;
        [
            ("seed_ns", seed_ns),
            ("refine_ns", refine_ns),
            ("select_ns", select_ns),
            ("apply_ns", apply_ns),
            ("refresh_ns", refresh_ns),
            ("moves", moves),
            ("net_recomputes", net_recomputes),
            ("gain_recomputes", gain_recomputes),
            ("ml_coarsen_ns", ml_coarsen_ns),
            ("ml_initial_ns", ml_initial_ns),
            ("ml_project_ns", ml_project_ns),
            ("ml_refine_ns", ml_refine_ns),
            ("ml_levels", ml_levels),
            ("ml_rejected", ml_rejected),
            ("flow_corridors", flow_corridors),
            ("flow_augments", flow_augments),
            ("flow_accepted", flow_accepted),
        ]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ProfSnapshot) {
        // Destructured so a new field cannot be left out of the sum.
        let ProfSnapshot {
            seed_ns,
            refine_ns,
            select_ns,
            apply_ns,
            refresh_ns,
            moves,
            net_recomputes,
            gain_recomputes,
            ml_coarsen_ns,
            ml_initial_ns,
            ml_project_ns,
            ml_refine_ns,
            ml_levels,
            ml_rejected,
            flow_corridors,
            flow_augments,
            flow_accepted,
        } = *other;
        self.seed_ns += seed_ns;
        self.refine_ns += refine_ns;
        self.select_ns += select_ns;
        self.apply_ns += apply_ns;
        self.refresh_ns += refresh_ns;
        self.moves += moves;
        self.net_recomputes += net_recomputes;
        self.gain_recomputes += gain_recomputes;
        self.ml_coarsen_ns += ml_coarsen_ns;
        self.ml_initial_ns += ml_initial_ns;
        self.ml_project_ns += ml_project_ns;
        self.ml_refine_ns += ml_refine_ns;
        self.ml_levels += ml_levels;
        self.ml_rejected += ml_rejected;
        self.flow_corridors += flow_corridors;
        self.flow_augments += flow_augments;
        self.flow_accepted += flow_accepted;
    }
}

/// `true` when the `prof` feature is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "prof")
}

#[cfg(feature = "prof")]
mod imp {
    use super::{Phase, ProfSnapshot};
    use std::cell::RefCell;
    use std::time::Instant;

    thread_local! {
        static PROF: RefCell<ProfSnapshot> = RefCell::new(ProfSnapshot::default());
    }

    /// An opaque phase-start timestamp.
    #[derive(Clone, Copy, Debug)]
    pub struct Tick(Instant);

    /// Starts timing a phase section.
    #[must_use]
    pub fn start() -> Tick {
        Tick(Instant::now())
    }

    /// Charges the time since `tick` to `phase`.
    pub fn stop(phase: Phase, tick: Tick) {
        let ns = tick.0.elapsed().as_nanos() as u64;
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            match phase {
                Phase::Seed => p.seed_ns += ns,
                Phase::Refine => p.refine_ns += ns,
                Phase::Select => p.select_ns += ns,
                Phase::Apply => p.apply_ns += ns,
                Phase::Refresh => p.refresh_ns += ns,
                Phase::MlCoarsen => p.ml_coarsen_ns += ns,
                Phase::MlInitial => p.ml_initial_ns += ns,
                Phase::MlProject => p.ml_project_ns += ns,
                Phase::MlRefine => p.ml_refine_ns += ns,
            }
        });
    }

    /// Counts one applied tentative move.
    pub fn count_move() {
        PROF.with(|p| p.borrow_mut().moves += 1);
    }

    /// Counts one coarsening level of a multilevel V-cycle.
    pub fn count_ml_level() {
        PROF.with(|p| p.borrow_mut().ml_levels += 1);
    }

    /// Counts one discarded V-cycle result.
    pub fn count_ml_rejected() {
        PROF.with(|p| p.borrow_mut().ml_rejected += 1);
    }

    /// Counts one exact per-net recomputation.
    pub fn count_net_recompute() {
        PROF.with(|p| p.borrow_mut().net_recomputes += 1);
    }

    /// Counts one flow-refinement corridor: how many augmenting paths its
    /// max-flow round pushed and whether the induced cut was accepted.
    pub fn count_flow_round(augments: u64, accepted: bool) {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            p.flow_corridors += 1;
            p.flow_augments += augments;
            p.flow_accepted += u64::from(accepted);
        });
    }

    /// Counts one gain evaluation.
    pub fn count_gain_recompute() {
        PROF.with(|p| p.borrow_mut().gain_recomputes += 1);
    }

    /// Zeroes this thread's counters.
    pub fn reset() {
        PROF.with(|p| *p.borrow_mut() = ProfSnapshot::default());
    }

    /// This thread's accumulated counters.
    pub fn snapshot() -> ProfSnapshot {
        PROF.with(|p| *p.borrow())
    }

    /// Folds `other` (a finished worker thread's counters) into this
    /// thread's.
    pub fn absorb(other: &ProfSnapshot) {
        PROF.with(|p| p.borrow_mut().merge(other));
    }
}

#[cfg(not(feature = "prof"))]
mod imp {
    use super::{Phase, ProfSnapshot};

    /// An opaque phase-start timestamp (zero-sized with `prof` off).
    #[derive(Clone, Copy, Debug)]
    pub struct Tick;

    /// Starts timing a phase section (no-op).
    #[inline(always)]
    #[must_use]
    pub fn start() -> Tick {
        Tick
    }

    /// Charges the time since `tick` to `phase` (no-op).
    #[inline(always)]
    pub fn stop(_phase: Phase, _tick: Tick) {}

    /// Counts one applied tentative move (no-op).
    #[inline(always)]
    pub fn count_move() {}

    /// Counts one coarsening level of a multilevel V-cycle (no-op).
    #[inline(always)]
    pub fn count_ml_level() {}

    /// Counts one discarded V-cycle result (no-op).
    #[inline(always)]
    pub fn count_ml_rejected() {}

    /// Counts one exact per-net recomputation (no-op).
    #[inline(always)]
    pub fn count_net_recompute() {}

    /// Counts one flow-refinement corridor (no-op).
    #[inline(always)]
    pub fn count_flow_round(_augments: u64, _accepted: bool) {}

    /// Counts one gain evaluation (no-op).
    #[inline(always)]
    pub fn count_gain_recompute() {}

    /// Zeroes this thread's counters (no-op).
    #[inline(always)]
    pub fn reset() {}

    /// This thread's accumulated counters (always zero with `prof` off).
    #[inline(always)]
    pub fn snapshot() -> ProfSnapshot {
        ProfSnapshot::default()
    }

    /// Folds a worker thread's counters into this thread's (no-op).
    #[inline(always)]
    pub fn absorb(_other: &ProfSnapshot) {}
}

pub use imp::{
    absorb, count_flow_round, count_gain_recompute, count_ml_level, count_ml_rejected, count_move,
    count_net_recompute, reset, snapshot, start, stop, Tick,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_total_sums_phases() {
        let s = ProfSnapshot {
            seed_ns: 1,
            refine_ns: 2,
            select_ns: 3,
            apply_ns: 4,
            refresh_ns: 5,
            ..ProfSnapshot::default()
        };
        assert_eq!(s.total_ns(), 15);
    }

    #[test]
    fn merge_adds_field_by_field() {
        let a = ProfSnapshot {
            seed_ns: 1,
            moves: 2,
            ml_levels: 3,
            flow_accepted: 4,
            ..ProfSnapshot::default()
        };
        let mut sum = a;
        sum.merge(&a);
        assert_eq!(sum.seed_ns, 2);
        assert_eq!(sum.moves, 4);
        assert_eq!(sum.ml_levels, 6);
        assert_eq!(sum.flow_accepted, 8);
        sum.merge(&ProfSnapshot::default());
        assert_eq!(sum.moves, 4);
    }

    #[cfg(feature = "prof")]
    #[test]
    fn absorb_folds_a_worker_snapshot() {
        reset();
        count_move();
        let worker = std::thread::spawn(|| {
            count_move();
            count_ml_level();
            snapshot()
        })
        .join()
        .unwrap();
        absorb(&worker);
        let s = snapshot();
        assert_eq!(s.moves, 2);
        assert_eq!(s.ml_levels, 1);
        reset();
    }

    #[cfg(feature = "prof")]
    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        count_move();
        count_move();
        count_net_recompute();
        count_gain_recompute();
        count_ml_rejected();
        count_flow_round(5, true);
        count_flow_round(3, false);
        let t = start();
        stop(Phase::Seed, t);
        let s = snapshot();
        assert_eq!(s.moves, 2);
        assert_eq!(s.net_recomputes, 1);
        assert_eq!(s.gain_recomputes, 1);
        assert_eq!(s.ml_rejected, 1);
        assert_eq!(s.flow_corridors, 2);
        assert_eq!(s.flow_augments, 8);
        assert_eq!(s.flow_accepted, 1);
        reset();
        assert_eq!(snapshot(), ProfSnapshot::default());
    }

    #[cfg(not(feature = "prof"))]
    #[test]
    fn disabled_counters_stay_zero() {
        assert!(!enabled());
        count_move();
        count_net_recompute();
        let t = start();
        stop(Phase::Apply, t);
        assert_eq!(snapshot(), ProfSnapshot::default());
    }
}
