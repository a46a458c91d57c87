//! The production Eq.-3 solver: SoA interval streams, reusable scratch
//! arenas, and O(1) holding-time terms.
//!
//! The paper-order [`super::solver::SparseSolver`] remains the bitwise
//! oracle; this module is where queries actually run. It restructures the
//! same recursion around three ideas:
//!
//! 1. **One contiguous arena.** The six interval-probability streams
//!    `P_{i,j}(m)` live in a single [`SolveScratch`] allocation as two
//!    triple-interleaved planes (`plane[3·m + j]`), so each convolution
//!    term loads one cache line holding all three targets and a
//!    steady-state solve allocates nothing.
//! 2. **O(1) direct-failure terms.** The inner sum
//!    `Σ_{l ≤ m} q_{i,S(3+j)}(l)` is a prefix-sum lookup precomputed in
//!    [`SmpParams`] ([`SolverKernel`](super::params) `direct_prefix`),
//!    removing one of the two event scans per step.
//! 3. **Event-cursor convolution.** The remaining operational-transition
//!    convolution scans the sorted `(holding, mass)` event list once per
//!    step for all three targets at a time (the paper-order solvers scan
//!    per target), with a cursor bounding the `l ≤ m` range instead of a
//!    per-event branch.
//!
//! The summation differs from the paper's interleaved `l = 1..=m` order
//! only by floating-point association: direct mass first, then the
//! transition events accumulated across four independent lanes (which
//! hides the add latency a single running sum serializes on). The
//! divergence is property-tested to stay within the 1e-12 unit-scale
//! error budget at every horizon (`tests/properties.rs`), and
//! `bench_smoke` re-asserts the bound before trusting any timing.

use std::cell::RefCell;

use crate::batch::TrCurve;
use crate::error::CoreError;
use crate::state::State;

use super::params::SmpParams;
use super::solver::IntervalProbs;

/// A reusable solve arena: one contiguous `f64` buffer that holds every
/// stream a solve writes. Reusing one scratch across solves makes the
/// steady state allocation-free (asserted by `tests/alloc_free.rs`); the
/// buffer only grows, to the largest horizon seen.
#[derive(Debug, Default)]
pub struct SolveScratch {
    buf: Vec<f64>,
}

/// Borrowed view of the six interval-probability streams of one solve:
/// two triple-interleaved planes, `p1[3·m + j] = P_{S1,S(3+j)}(m)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntervalStreams<'s> {
    steps: usize,
    p1: &'s [f64],
    p2: &'s [f64],
}

impl IntervalStreams<'_> {
    /// The six probabilities at horizon `m ≤ steps`.
    pub(crate) fn probs_at(&self, m: usize) -> IntervalProbs {
        debug_assert!(m <= self.steps);
        let b = 3 * m;
        IntervalProbs {
            p1: [self.p1[b], self.p1[b + 1], self.p1[b + 2]],
            p2: [self.p2[b], self.p2[b + 1], self.p2[b + 2]],
        }
    }
}

impl SolveScratch {
    /// Creates an empty scratch; the first solve sizes it.
    #[must_use]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Capacity in `f64` slots (diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Two zeroed interleaved planes of `3·(steps + 1)` slots each.
    fn planes(&mut self, steps: usize) -> (&mut [f64], &mut [f64]) {
        let n = 3 * (steps + 1);
        if self.buf.len() < 2 * n {
            self.buf.resize(2 * n, 0.0);
        }
        let (p1, rest) = self.buf[..2 * n].split_at_mut(n);
        p1.fill(0.0);
        rest.fill(0.0);
        (p1, rest)
    }
}

/// One convolution step for all three failure targets of one source:
/// `direct[j] + Σ_events q · other[3·(m−l) + j]`, over the events with
/// `l ≤ m`. Four independent partial accumulators per target hide the
/// floating-point add latency that a single running sum serializes on;
/// they are combined pairwise at the end. The reassociation (relative to
/// a strict ascending-event sum) is part of the module's 1e-12 error
/// budget against the paper-order oracle.
// lint: no-alloc
#[inline]
fn convolve3(events: &[(usize, f64)], other: &[f64], m: usize, direct: [f64; 3]) -> [f64; 3] {
    let [mut a0, mut a1, mut a2] = direct;
    let (mut b0, mut b1, mut b2) = (0.0f64, 0.0f64, 0.0f64);
    let (mut c0, mut c1, mut c2) = (0.0f64, 0.0f64, 0.0f64);
    let (mut e0, mut e1, mut e2) = (0.0f64, 0.0f64, 0.0f64);
    let mut chunks = events.chunks_exact(4);
    for ch in chunks.by_ref() {
        let oa = 3 * (m - ch[0].0);
        let ob = 3 * (m - ch[1].0);
        let oc = 3 * (m - ch[2].0);
        let oe = 3 * (m - ch[3].0);
        let pa = &other[oa..oa + 3];
        let pb = &other[ob..ob + 3];
        let pc = &other[oc..oc + 3];
        let pe = &other[oe..oe + 3];
        a0 += ch[0].1 * pa[0];
        a1 += ch[0].1 * pa[1];
        a2 += ch[0].1 * pa[2];
        b0 += ch[1].1 * pb[0];
        b1 += ch[1].1 * pb[1];
        b2 += ch[1].1 * pb[2];
        c0 += ch[2].1 * pc[0];
        c1 += ch[2].1 * pc[1];
        c2 += ch[2].1 * pc[2];
        e0 += ch[3].1 * pe[0];
        e1 += ch[3].1 * pe[1];
        e2 += ch[3].1 * pe[2];
    }
    for &(l, q) in chunks.remainder() {
        let o = 3 * (m - l);
        let p = &other[o..o + 3];
        a0 += q * p[0];
        a1 += q * p[1];
        a2 += q * p[2];
    }
    [
        (a0 + b0) + (c0 + e0),
        (a1 + b1) + (c1 + e1),
        (a2 + b2) + (c2 + e2),
    ]
}

thread_local! {
    static THREAD_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Runs `f` with this thread's reusable [`SolveScratch`]. Parallel cluster
/// sweeps get one scratch per worker thread for free; re-entrant calls
/// (solver inside solver) fall back to a fresh arena.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SolveScratch::new()),
    })
}

/// The fast Eq.-3 solver over a precomputed [`SmpParams`] kernel view.
///
/// Construction is free (the event lists and prefix sums already live in
/// the params, shared through the `QhCache`'s `Arc`); a solve costs
/// `O(steps · nnz)` with no allocation when given a warm scratch.
#[derive(Debug, Clone, Copy)]
pub struct FastSolver<'a> {
    params: &'a SmpParams,
}

impl<'a> FastSolver<'a> {
    /// Wraps the estimated parameters.
    #[must_use]
    pub fn new(params: &'a SmpParams) -> FastSolver<'a> {
        FastSolver { params }
    }

    /// The horizon the kernel resolves.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.params.horizon()
    }

    fn check_horizon(&self, steps: usize) -> Result<(), CoreError> {
        if steps > self.params.horizon() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.params.horizon(),
            });
        }
        Ok(())
    }

    /// Runs the recursion into the scratch planes and returns the stream
    /// view. The caller has already validated `steps`.
    // lint: no-alloc
    fn run<'s>(&self, scratch: &'s mut SolveScratch, steps: usize) -> IntervalStreams<'s> {
        fgcs_runtime::counter_add!("core.solver.fast_runs", 1);
        fgcs_runtime::counter_add!("core.solver.fast_steps", steps as u64);
        let view = self.params.solver_kernel();
        let ev1 = view.trans_events(0);
        let ev2 = view.trans_events(1);
        let d1 = view.direct_prefix(0);
        let d2 = view.direct_prefix(1);
        let (p1, p2) = scratch.planes(steps);
        // Cursors bounding the `holding ≤ m` prefix of each event list.
        let mut end1 = 0usize;
        let mut end2 = 0usize;
        for m in 1..=steps {
            while end1 < ev1.len() && ev1[end1].0 <= m {
                end1 += 1;
            }
            while end2 < ev2.len() && ev2[end2].0 <= m {
                end2 += 1;
            }
            let b = 3 * m;
            // Direct-failure mass: one prefix-sum load per target.
            let acc1 = convolve3(&ev1[..end1], p2, m, [d1[b], d1[b + 1], d1[b + 2]]);
            let acc2 = convolve3(&ev2[..end2], p1, m, [d2[b], d2[b + 1], d2[b + 2]]);
            p1[b] = acc1[0].clamp(0.0, 1.0);
            p1[b + 1] = acc1[1].clamp(0.0, 1.0);
            p1[b + 2] = acc1[2].clamp(0.0, 1.0);
            p2[b] = acc2[0].clamp(0.0, 1.0);
            p2[b + 1] = acc2[1].clamp(0.0, 1.0);
            p2[b + 2] = acc2[2].clamp(0.0, 1.0);
        }
        IntervalStreams { steps, p1, p2 }
    }

    /// The six interval transition probabilities at horizon `steps`, using
    /// the caller's scratch (allocation-free when warm).
    pub fn interval_probabilities_with(
        &self,
        scratch: &mut SolveScratch,
        steps: usize,
    ) -> Result<IntervalProbs, CoreError> {
        self.check_horizon(steps)?;
        let streams = self.run(scratch, steps);
        Ok(streams.probs_at(steps))
    }

    /// The six interval transition probabilities at horizon `steps`, using
    /// the thread-local scratch.
    pub fn interval_probabilities(&self, steps: usize) -> Result<IntervalProbs, CoreError> {
        with_thread_scratch(|scratch| self.interval_probabilities_with(scratch, steps))
    }

    /// Temporal reliability `TR = 1 − Σ_j P_{init,j}(steps)` with the
    /// caller's scratch: the zero-allocation steady-state query.
    pub fn temporal_reliability_with(
        &self,
        scratch: &mut SolveScratch,
        init: State,
        steps: usize,
    ) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let probs = self.interval_probabilities_with(scratch, steps)?;
        Ok((1.0 - probs.failure_probability(init)).clamp(0.0, 1.0))
    }

    /// Temporal reliability with the thread-local scratch.
    pub fn temporal_reliability(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        with_thread_scratch(|scratch| self.temporal_reliability_with(scratch, init, steps))
    }

    /// The materialized [`TrCurve`] for both operational initial states
    /// from one run, allocating only the two output curves.
    pub fn tr_curve_with(
        &self,
        scratch: &mut SolveScratch,
        steps: usize,
    ) -> Result<TrCurve, CoreError> {
        self.check_horizon(steps)?;
        let streams = self.run(scratch, steps);
        Ok(TrCurve::from_interleaved(
            self.params.step_secs(),
            streams.p1,
            streams.p2,
            steps,
        ))
    }

    /// [`TrCurve`] with the thread-local scratch.
    pub fn tr_curve(&self, steps: usize) -> Result<TrCurve, CoreError> {
        with_thread_scratch(|scratch| self.tr_curve_with(scratch, steps))
    }

    /// The whole reliability curve `TR(m)` for `m = 0..=steps` from one
    /// initial state.
    pub fn reliability_curve(&self, init: State, steps: usize) -> Result<Vec<f64>, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        self.check_horizon(steps)?;
        with_thread_scratch(|scratch| {
            let streams = self.run(scratch, steps);
            let p = match init {
                State::S1 => streams.p1,
                _ => streams.p2,
            };
            Ok((0..=steps)
                .map(|m| {
                    let b = 3 * m;
                    (1.0 - (p[b] + p[b + 1] + p[b + 2])).clamp(0.0, 1.0)
                })
                .collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::solver::SparseSolver;
    use State::*;

    fn estimated_params() -> SmpParams {
        let day: Vec<State> = (0..400)
            .map(|i| match i % 53 {
                0..=24 => S1,
                25..=39 => S2,
                40..=44 => S3,
                45..=48 => S1,
                _ => S5,
            })
            .collect();
        let windows: Vec<&[State]> = vec![&day];
        SmpParams::estimate(&windows, 6, 399)
    }

    /// The unit-scale error budget the fast path guarantees against the
    /// paper-order oracle.
    fn within_budget(fast: f64, oracle: f64) -> bool {
        (fast - oracle).abs() <= 1e-12 * oracle.abs().max(1.0)
    }

    #[test]
    fn matches_paper_oracle_within_budget() {
        let params = estimated_params();
        // A periodic day yields few distinct holding times: the O(steps ·
        // nnz) event lists stay short.
        let nnz = params.solver_kernel().nnz();
        assert!(nnz > 0 && nnz < 50, "nnz {nnz}");
        let fast = FastSolver::new(&params);
        let oracle = SparseSolver::new(&params);
        for init in [S1, S2] {
            for steps in [0usize, 1, 7, 50, 200, 399] {
                let f = fast.temporal_reliability(init, steps).unwrap();
                let o = oracle.temporal_reliability(init, steps).unwrap();
                assert!(within_budget(f, o), "init {init} steps {steps}: {f} vs {o}");
            }
        }
    }

    #[test]
    fn explicit_scratch_matches_thread_scratch() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        for steps in [0usize, 13, 399] {
            let a = fast
                .temporal_reliability_with(&mut scratch, S1, steps)
                .unwrap();
            let b = fast.temporal_reliability(S1, steps).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_horizons() {
        // A long solve followed by a short one must not see stale values.
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        let long = fast
            .temporal_reliability_with(&mut scratch, S1, 399)
            .unwrap();
        let short = fast
            .temporal_reliability_with(&mut scratch, S1, 50)
            .unwrap();
        let mut fresh = SolveScratch::new();
        let short_fresh = fast.temporal_reliability_with(&mut fresh, S1, 50).unwrap();
        assert_eq!(short.to_bits(), short_fresh.to_bits());
        assert!(long <= short);
    }

    #[test]
    fn curves_match_reliability_curve_and_oracle() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let oracle = SparseSolver::new(&params);
        let curve = fast.tr_curve(200).unwrap();
        let direct = fast.reliability_curve(S1, 200).unwrap();
        let oracle_curve = oracle.reliability_curve(S1, 200).unwrap();
        for m in 0..=200usize {
            assert_eq!(curve.tr(S1, m).unwrap().to_bits(), direct[m].to_bits());
            assert!(within_budget(direct[m], oracle_curve[m]), "m = {m}");
        }
    }

    #[test]
    fn rejects_failure_init_and_long_horizons() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        assert!(matches!(
            fast.temporal_reliability(S3, 10),
            Err(CoreError::FailureInitialState(S3))
        ));
        assert!(matches!(
            fast.temporal_reliability(S1, 400),
            Err(CoreError::HorizonTooLong {
                requested: 400,
                available: 399
            })
        ));
        assert!(fast.reliability_curve(S5, 10).is_err());
        assert!(fast.tr_curve(400).is_err());
    }

    #[test]
    fn empty_kernel_gives_unit_reliability_without_growth() {
        let params = SmpParams::estimate(&[], 6, 100);
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        assert_eq!(
            fast.temporal_reliability_with(&mut scratch, S1, 100)
                .unwrap(),
            1.0
        );
        let cap = scratch.capacity();
        assert_eq!(
            fast.temporal_reliability_with(&mut scratch, S2, 100)
                .unwrap(),
            1.0
        );
        assert_eq!(scratch.capacity(), cap, "warm solve must not reallocate");
    }
}
