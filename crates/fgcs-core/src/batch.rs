//! Batched multi-horizon temporal-reliability queries.
//!
//! The Eq.-3 recursion is *prefix-closed*: computing `P_{init,j}(M)`
//! necessarily computes `P_{init,j}(m)` for every `m ≤ M` along the way, in
//! the exact same floating-point operation order a standalone solve at `m`
//! would use. One `O(M²)` run therefore answers a whole sweep of `N`
//! horizons — bit-identically to `N` independent solves — for the cost of
//! the longest one, where the independent sweep would pay
//! `Σᵢ (i·M/N)² ≈ M²·N/3`.
//!
//! * [`BatchSolver`] — the paper-order recursion restructured over flat
//!   state-arrays with blocked accumulation (single accumulator per target,
//!   so the summation order — and thus every bit of the result — matches
//!   [`crate::smp::SparseSolver`] exactly).
//! * [`TrCurve`] — the materialized `TR(m)` curve for both operational
//!   initial states; one curve answers any horizon ≤ M in O(1).
//! * [`predict_cluster`] / [`evaluate_cluster`] — machine-level fan-out of
//!   TR queries and train/test evaluations across
//!   [`fgcs_runtime::parallel`], with deterministic result ordering.

use crate::cache::QhCache;
use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::{evaluate_window, SmpPredictor, WindowEvaluation};
use crate::smp::SmpParams;
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// Terms per accumulation block. The value only affects speed: each block
/// is a constant-trip-count loop the compiler can unroll and keep free of
/// bounds checks, while all products still feed one accumulator in the
/// original `l = 1..=m` order, preserving bit-identical results.
const BLOCK: usize = 8;

/// The six per-step curves `P_{init,j}(m)` for `m = 0..=M`,
/// `init ∈ {S1, S2}`, `j ∈ {S3, S4, S5}` — the raw output of one batched
/// recursion run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalCurves {
    /// `p1[j][m]` = `P_{S1,S(3+j)}(m)`.
    pub p1: [Vec<f64>; 3],
    /// `p2[j][m]` = `P_{S2,S(3+j)}(m)`.
    pub p2: [Vec<f64>; 3],
}

/// A materialized temporal-reliability curve: `TR(m)` for `m = 0..=M` from
/// both operational initial states, answering any horizon within the run
/// in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrCurve {
    step_secs: u32,
    s1: Vec<f64>,
    s2: Vec<f64>,
}

impl TrCurve {
    /// Builds the curve from the six interval-probability curves, applying
    /// paper Eq. 2 (`TR = 1 − Σⱼ P_{init,j}`) at every step. The clamp
    /// sequence mirrors [`crate::smp::SparseSolver::temporal_reliability`]
    /// exactly, so curve values are bit-identical to standalone solves.
    #[must_use]
    pub fn from_interval_curves(step_secs: u32, curves: &IntervalCurves) -> TrCurve {
        let tr_of = |rows: &[Vec<f64>; 3]| -> Vec<f64> {
            (0..rows[0].len())
                .map(|m| {
                    let sum = rows[0][m] + rows[1][m] + rows[2][m];
                    (1.0 - sum.clamp(0.0, 1.0)).clamp(0.0, 1.0)
                })
                .collect()
        };
        TrCurve {
            step_secs,
            s1: tr_of(&curves.p1),
            s2: tr_of(&curves.p2),
        }
    }

    /// Constructor over the fast solver's triple-interleaved planes
    /// (`plane[3·m + j]`), applying the same Eq.-2 clamp sequence.
    pub(crate) fn from_interleaved(
        step_secs: u32,
        p1: &[f64],
        p2: &[f64],
        steps: usize,
    ) -> TrCurve {
        let tr_of = |plane: &[f64]| -> Vec<f64> {
            (0..=steps)
                .map(|m| {
                    let b = 3 * m;
                    let sum = plane[b] + plane[b + 1] + plane[b + 2];
                    (1.0 - sum.clamp(0.0, 1.0)).clamp(0.0, 1.0)
                })
                .collect()
        };
        TrCurve {
            step_secs,
            s1: tr_of(p1),
            s2: tr_of(p2),
        }
    }

    /// The discretisation step the curve was computed at.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// The longest horizon (in steps) the curve answers.
    #[must_use]
    pub fn horizon_steps(&self) -> usize {
        self.s1.len().saturating_sub(1)
    }

    /// Temporal reliability at `steps` from the given initial state.
    pub fn tr(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        if steps > self.horizon_steps() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.horizon_steps(),
            });
        }
        Ok(match init {
            State::S1 => self.s1[steps],
            _ => self.s2[steps],
        })
    }

    /// The whole `TR(m)` curve for one initial state.
    pub fn curve(&self, init: State) -> Result<&[f64], CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        Ok(match init {
            State::S1 => &self.s1,
            _ => &self.s2,
        })
    }
}

/// The paper-order Eq.-3 solver restructured for batched queries: flat
/// per-curve arrays, blocked inner accumulation, and curve (rather than
/// scalar) outputs.
#[derive(Debug, Clone, Copy)]
pub struct BatchSolver<'a> {
    params: &'a SmpParams,
}

impl<'a> BatchSolver<'a> {
    /// Wraps the estimated parameters.
    #[must_use]
    pub fn new(params: &'a SmpParams) -> BatchSolver<'a> {
        BatchSolver { params }
    }

    /// One convolution step of the recursion:
    /// `Σ_{l=1..m} q_tr(l)·p_other(m−l) + q_direct(l)`, accumulated in the
    /// exact `l = 1..=m` order of the paper solver. The blocks exist only
    /// to give the compiler constant-trip-count inner loops; a single
    /// accumulator keeps the floating-point association unchanged.
    #[inline]
    fn convolve(q_tr: &[f64], q_direct: &[f64], p_other: &[f64], m: usize) -> f64 {
        let mut acc = 0.0;
        let qt = &q_tr[1..=m];
        let qd = &q_direct[1..=m];
        // Term l = k+1 multiplies p_other[m-1-k]: the p window walks
        // backwards as the q window walks forwards.
        let mut p_end = m;
        let blocks = m / BLOCK;
        for c in 0..blocks {
            let qt_b = &qt[c * BLOCK..(c + 1) * BLOCK];
            let qd_b = &qd[c * BLOCK..(c + 1) * BLOCK];
            let p_b = &p_other[p_end - BLOCK..p_end];
            for k in 0..BLOCK {
                acc += qt_b[k] * p_b[BLOCK - 1 - k] + qd_b[k];
            }
            p_end -= BLOCK;
        }
        for k in blocks * BLOCK..m {
            acc += qt[k] * p_other[p_end - 1] + qd[k];
            p_end -= 1;
        }
        acc
    }

    /// Runs the recursion once up to `steps` and returns all six
    /// `P_{init,j}(m)` curves. Every value is bit-identical to what
    /// [`crate::smp::SparseSolver`] computes at the same `m`.
    pub fn interval_curves(&self, steps: usize) -> Result<IntervalCurves, CoreError> {
        if steps > self.params.horizon() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.params.horizon(),
            });
        }
        fgcs_runtime::counter_add!("core.batch.runs", 1);
        fgcs_runtime::counter_add!("core.batch.steps", steps as u64);
        let mut p1: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; steps + 1]);
        let mut p2: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; steps + 1]);
        let q1 = self.params.row(0);
        let q2 = self.params.row(1);
        for m in 1..=steps {
            for j in 0..3 {
                let acc1 = Self::convolve(&q1[0], &q1[j + 1], &p2[j], m);
                let acc2 = Self::convolve(&q2[0], &q2[j + 1], &p1[j], m);
                p1[j][m] = acc1.clamp(0.0, 1.0);
                p2[j][m] = acc2.clamp(0.0, 1.0);
            }
        }
        Ok(IntervalCurves { p1, p2 })
    }

    /// The materialized `TR(m)` curve for `m = 0..=steps`, both initial
    /// states, from a single recursion run.
    pub fn tr_curve(&self, steps: usize) -> Result<TrCurve, CoreError> {
        let curves = self.interval_curves(steps)?;
        Ok(TrCurve::from_interval_curves(
            self.params.step_secs(),
            &curves,
        ))
    }

    /// Answers a whole sweep of horizons from one recursion run at the
    /// longest of them. Results are aligned with `horizons` (which need not
    /// be sorted) and bit-identical to independent solves at each horizon.
    pub fn tr_at_horizons(&self, init: State, horizons: &[usize]) -> Result<Vec<f64>, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let Some(&max) = horizons.iter().max() else {
            return Ok(Vec::new());
        };
        fgcs_runtime::histogram_record!("core.batch.sweep_size", horizons.len() as u64);
        let curve = self.tr_curve(max)?;
        Ok(horizons
            .iter()
            .map(|&m| curve.tr(init, m).expect("m <= max horizon by construction"))
            .collect())
    }
}

/// One machine's TR query in a cluster-wide sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClusterQuery<'a> {
    /// Stable host identifier — the kernel-cache key component.
    pub host: u64,
    /// The machine's monitoring history.
    pub history: &'a HistoryStore,
    /// The machine's state at the window start.
    pub init: State,
}

/// Predicts TR for every machine of a cluster in parallel, in query order.
///
/// Each machine's Q/H estimation and solve runs on a worker thread via
/// [`fgcs_runtime::parallel::par_map`]; the result vector is ordered
/// exactly like `queries` regardless of thread interleaving, so the output
/// equals the sequential loop element for element. With a [`QhCache`],
/// repeated sweeps skip the estimation step entirely on cache hits.
pub fn predict_cluster(
    predictor: &SmpPredictor,
    cache: Option<&QhCache>,
    queries: &[ClusterQuery<'_>],
    day_type: DayType,
    window: TimeWindow,
) -> Vec<Result<f64, CoreError>> {
    fgcs_runtime::counter_add!("core.batch.cluster_sweeps", 1);
    fgcs_runtime::histogram_record!("core.batch.sweep_size", queries.len() as u64);
    fgcs_runtime::parallel::par_map(queries, |q| match cache {
        Some(cache) => predictor.predict_cached(cache, q.host, q.history, day_type, window, q.init),
        None => predictor.predict(q.history, day_type, window, q.init),
    })
}

/// One machine's train/test evaluation in a cluster-wide sweep.
#[derive(Debug, Clone, Copy)]
pub struct EvalQuery<'a> {
    /// Training history (the statistics source).
    pub train: &'a HistoryStore,
    /// Test history (the empirical ground truth).
    pub test: &'a HistoryStore,
}

/// Runs [`evaluate_window`] for every machine in parallel, in query order
/// — the fan-out the figure sweeps (Fig. 5/7) use per (window, day-type)
/// cell.
pub fn evaluate_cluster(
    predictor: &SmpPredictor,
    queries: &[EvalQuery<'_>],
    day_type: DayType,
    window: TimeWindow,
) -> Vec<Result<WindowEvaluation, CoreError>> {
    fgcs_runtime::counter_add!("core.batch.cluster_sweeps", 1);
    fgcs_runtime::histogram_record!("core.batch.sweep_size", queries.len() as u64);
    fgcs_runtime::parallel::par_map(queries, |q| {
        evaluate_window(predictor, q.train, q.test, day_type, window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SparseSolver;
    use State::*;

    /// A kernel with S1 <-> S2 churn and failure leaks at several holding
    /// times — enough structure that every curve is nontrivial.
    fn churn_kernel(horizon: usize) -> SmpParams {
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][0][2] = 0.4; // S1 -> S2 at 2
        kernel[0][0][7] = 0.1; // S1 -> S2 at 7
        kernel[0][1][4] = 0.08; // S1 -> S3 at 4
        kernel[0][2][9] = 0.04; // S1 -> S4 at 9
        kernel[0][3][6] = 0.03; // S1 -> S5 at 6
        kernel[1][0][3] = 0.5; // S2 -> S1 at 3
        kernel[1][0][11] = 0.1; // S2 -> S1 at 11
        kernel[1][1][5] = 0.1; // S2 -> S3 at 5
        kernel[1][3][8] = 0.05; // S2 -> S5 at 8
        SmpParams::from_kernel(6, kernel)
    }

    #[test]
    fn batched_curve_is_bit_identical_to_standalone_solves() {
        let params = churn_kernel(120);
        let batch = BatchSolver::new(&params).tr_curve(120).unwrap();
        let paper = SparseSolver::new(&params);
        for init in [S1, S2] {
            for m in 0..=120usize {
                let batched = batch.tr(init, m).unwrap();
                let standalone = paper.temporal_reliability(init, m).unwrap();
                assert_eq!(
                    batched.to_bits(),
                    standalone.to_bits(),
                    "init {init} m {m}: batched {batched} vs standalone {standalone}"
                );
            }
        }
    }

    #[test]
    fn interval_curves_match_paper_solver_bitwise() {
        let params = churn_kernel(90);
        let curves = BatchSolver::new(&params).interval_curves(90).unwrap();
        let paper = SparseSolver::new(&params);
        for m in [1usize, 17, 43, 90] {
            let probs = paper.interval_probabilities(m).unwrap();
            for j in 0..3 {
                assert_eq!(curves.p1[j][m].to_bits(), probs.p1[j].to_bits());
                assert_eq!(curves.p2[j][m].to_bits(), probs.p2[j].to_bits());
            }
        }
    }

    #[test]
    fn sweep_answers_match_order_and_values() {
        let params = churn_kernel(100);
        let solver = BatchSolver::new(&params);
        let horizons = [50usize, 10, 100, 1, 0, 77];
        let sweep = solver.tr_at_horizons(S1, &horizons).unwrap();
        assert_eq!(sweep.len(), horizons.len());
        let paper = SparseSolver::new(&params);
        for (i, &m) in horizons.iter().enumerate() {
            let standalone = paper.temporal_reliability(S1, m).unwrap();
            assert_eq!(sweep[i].to_bits(), standalone.to_bits());
        }
    }

    #[test]
    fn empty_sweep_and_error_paths() {
        let params = churn_kernel(20);
        let solver = BatchSolver::new(&params);
        assert_eq!(solver.tr_at_horizons(S1, &[]).unwrap(), Vec::<f64>::new());
        assert!(matches!(
            solver.tr_at_horizons(S3, &[5]),
            Err(CoreError::FailureInitialState(S3))
        ));
        assert!(matches!(
            solver.tr_at_horizons(S1, &[21]),
            Err(CoreError::HorizonTooLong {
                requested: 21,
                available: 20
            })
        ));
        let curve = solver.tr_curve(20).unwrap();
        assert!(matches!(
            curve.tr(S1, 21),
            Err(CoreError::HorizonTooLong { .. })
        ));
        assert!(curve.curve(S4).is_err());
        assert_eq!(curve.horizon_steps(), 20);
        assert_eq!(curve.step_secs(), 6);
    }

    #[test]
    fn tr_curve_starts_at_one_and_is_monotone() {
        let params = churn_kernel(150);
        let curve = BatchSolver::new(&params).tr_curve(150).unwrap();
        for init in [S1, S2] {
            let c = curve.curve(init).unwrap();
            assert_eq!(c[0], 1.0);
            for w in c.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "TR increased: {} -> {}", w[0], w[1]);
            }
        }
    }
}
