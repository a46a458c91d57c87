//! End-to-end temporal reliability prediction and its empirical ground
//! truth, as used in the paper's accuracy experiments (§6.2, §7.2).

use fgcs_runtime::impl_json_struct;
use fgcs_runtime::rng::Rng;

use crate::batch::TrCurve;
use crate::cache::QhCache;
use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::model::AvailabilityModel;
use crate::smp::{FastSolver, SmpParams};
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// The SMP-based temporal reliability predictor.
///
/// Prediction for a window on a weekday (weekend) draws its statistics from
/// the corresponding window of the most recent weekdays (weekends) in the
/// history store — no training phase or model fitting is required (§1).
#[derive(Debug, Clone, Copy)]
pub struct SmpPredictor {
    model: AvailabilityModel,
    /// Use at most this many recent days of history (`None` = all).
    max_history_days: Option<usize>,
    /// When `false`, history from *both* day types is used (ablation of the
    /// paper's same-day-type selection).
    same_day_type_only: bool,
}

impl SmpPredictor {
    /// Creates a predictor with the paper's behaviour: all available
    /// same-day-type history, solved on the fast path.
    #[must_use]
    pub fn new(model: AvailabilityModel) -> SmpPredictor {
        SmpPredictor {
            model,
            max_history_days: None,
            same_day_type_only: true,
        }
    }

    /// Restricts the statistics to the `n` most recent matching days.
    #[must_use]
    pub fn with_max_history_days(mut self, n: usize) -> SmpPredictor {
        self.max_history_days = Some(n);
        self
    }

    /// Uses history from both weekdays and weekends (ablation).
    #[must_use]
    pub fn with_all_day_types(mut self) -> SmpPredictor {
        self.same_day_type_only = false;
        self
    }

    /// The availability model configuration.
    #[must_use]
    pub fn model(&self) -> &AvailabilityModel {
        &self.model
    }

    /// The history-selection knobs `(max_history_days,
    /// same_day_type_only)`, exactly as the kernel cache keys them.
    pub(crate) fn history_selection(&self) -> (Option<usize>, bool) {
        (self.max_history_days, self.same_day_type_only)
    }

    /// Estimates the SMP parameters for a window from the history store.
    pub fn estimate_params(
        &self,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<SmpParams, CoreError> {
        let _span = fgcs_runtime::time_span!("core.estimate_params_ns");
        fgcs_runtime::counter_add!("core.qh_estimations", 1);
        let step = self.model.monitor_period_secs;
        let mut slices = history.recent_windows(day_type, window, self.max_history_days);
        if !self.same_day_type_only {
            let other = match day_type {
                DayType::Weekday => DayType::Weekend,
                DayType::Weekend => DayType::Weekday,
            };
            slices.extend(history.recent_windows(other, window, self.max_history_days));
        }
        if slices.is_empty() {
            return Err(CoreError::EmptyHistory { window });
        }
        fgcs_runtime::histogram_record!("core.history_window_days", slices.len() as u64);
        let horizon = window.steps(step);
        let refs: Vec<&[State]> = slices.iter().map(Vec::as_slice).collect();
        Ok(SmpParams::estimate(&refs, step, horizon))
    }

    /// Predicts the temporal reliability for `window` on a day of
    /// `day_type`, given the machine's state at the window start.
    ///
    /// ```
    /// use fgcs_core::log::{DayLog, HistoryStore, StateLog};
    /// use fgcs_core::model::AvailabilityModel;
    /// use fgcs_core::predictor::SmpPredictor;
    /// use fgcs_core::state::State;
    /// use fgcs_core::window::{DayType, TimeWindow};
    ///
    /// // Three quiet Mondays-to-Wednesdays of history at a 6 s period.
    /// let mut history = HistoryStore::new();
    /// for day in 0..3 {
    ///     history.push_day(DayLog::new(day, StateLog::new(6, vec![State::S1; 14_400])));
    /// }
    /// let predictor = SmpPredictor::new(AvailabilityModel::default());
    /// let window = TimeWindow::from_hours(9.0, 2.0);
    /// let tr = predictor.predict(&history, DayType::Weekday, window, State::S1)?;
    /// assert_eq!(tr, 1.0); // nothing ever failed in that window
    /// # Ok::<(), fgcs_core::error::CoreError>(())
    /// ```
    pub fn predict(
        &self,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let _span = fgcs_runtime::time_span!("core.tr_query_ns");
        fgcs_runtime::counter_add!("core.tr_queries", 1);
        let params = self.estimate_params(history, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        // The fast path is property-tested within 1e-12 (unit scale) of the
        // paper's Eq.-3 recursion and asymptotically faster on estimated
        // kernels.
        FastSolver::new(&params).temporal_reliability(init, steps)
    }

    /// Like [`SmpPredictor::predict`], but memoizes the estimated kernel in
    /// `cache` under `host` and the query coordinates: repeated queries for
    /// the same (host, window, day-class, history) skip the Q/H estimation
    /// entirely and produce the same TR bit for bit.
    ///
    /// Scalar solves are additionally memoized per *canonical kernel* in
    /// the cache's [dedup table](crate::cache::KernelDedup): when many
    /// hosts share one interned kernel (a fleet with a handful of
    /// availability classes), the Eq.-3 recursion runs once per
    /// `(kernel, init, steps)` and every other host reads the stored value
    /// — the same bits the solve would have produced, since the solver is a
    /// deterministic function of exactly those inputs.
    pub fn predict_cached(
        &self,
        cache: &QhCache,
        host: u64,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let _span = fgcs_runtime::time_span!("core.tr_query_ns");
        fgcs_runtime::counter_add!("core.tr_queries", 1);
        let params = cache.get_or_estimate(self, host, history, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        let key = solve_memo_key(init, steps);
        if let Some(tr) = cache.dedup().memo_get(&params, key) {
            return Ok(tr);
        }
        let tr = FastSolver::new(&params).temporal_reliability(init, steps)?;
        cache.dedup().memo_put(&params, key, tr);
        Ok(tr)
    }

    /// Predicts the full temporal-reliability curve `TR(m)` over the window
    /// for *both* operational initial states from a single batched Eq.-3
    /// run — the entry point for multi-horizon sweeps (a job scheduler
    /// comparing deadlines, or a Fig. 5-style TR-vs-length plot sharing one
    /// kernel).
    pub fn predict_tr_curve(
        &self,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<TrCurve, CoreError> {
        let params = self.estimate_params(history, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        FastSolver::new(&params).tr_curve(steps)
    }

    /// Predicts the temporal reliability together with a bootstrap
    /// confidence interval.
    ///
    /// The history days covering the window are resampled with replacement
    /// `n_boot` times; each resample re-estimates the kernel and recomputes
    /// TR, and the interval is the `(1−confidence)/2` and
    /// `(1+confidence)/2` quantiles of the bootstrap distribution. This is
    /// an extension beyond the paper: a scheduler comparing two machines
    /// whose point predictions differ by less than the interval width
    /// should treat them as equivalent.
    #[allow(clippy::too_many_arguments)] // window spec + bootstrap knobs are all load-bearing
    pub fn predict_with_ci<R: Rng + ?Sized>(
        &self,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
        n_boot: usize,
        confidence: f64,
        rng: &mut R,
    ) -> Result<TrPrediction, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let step = self.model.monitor_period_secs;
        let steps = window.steps(step);
        let slices = history.recent_windows(day_type, window, self.max_history_days);
        if slices.is_empty() {
            return Err(CoreError::EmptyHistory { window });
        }
        let refs: Vec<&[State]> = slices.iter().map(Vec::as_slice).collect();
        let params = SmpParams::estimate(&refs, step, steps);
        let tr = FastSolver::new(&params).temporal_reliability(init, steps)?;

        let mut boots = Vec::with_capacity(n_boot);
        for _ in 0..n_boot {
            let resample: Vec<&[State]> = (0..refs.len())
                .map(|_| refs[rng.range_usize(0, refs.len())])
                .collect();
            let p = SmpParams::estimate(&resample, step, steps);
            boots.push(FastSolver::new(&p).temporal_reliability(init, steps)?);
        }
        let confidence = confidence.clamp(0.0, 1.0);
        let lo_q = (1.0 - confidence) / 2.0;
        let hi_q = 1.0 - lo_q;
        Ok(TrPrediction {
            tr,
            ci_low: fgcs_math::stats::quantile(&boots, lo_q).unwrap_or(tr),
            ci_high: fgcs_math::stats::quantile(&boots, hi_q).unwrap_or(tr),
            bootstrap_samples: n_boot,
            history_days: refs.len(),
        })
    }

    /// Predicts the whole reliability curve `TR(m)` over the window.
    pub fn predict_curve(
        &self,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<Vec<f64>, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let params = self.estimate_params(history, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        FastSolver::new(&params).reliability_curve(init, steps)
    }
}

/// Encodes the full input of a scalar solve — everything besides the kernel
/// itself — into one word for the per-kernel solve memo: the step count in
/// the high bits, the initial state in the low three bits.
pub(crate) fn solve_memo_key(init: State, steps: usize) -> u64 {
    let state_bits = match init {
        State::S1 => 0u64,
        State::S2 => 1,
        State::S3 => 2,
        State::S4 => 3,
        State::S5 => 4,
    };
    ((steps as u64) << 3) | state_bits
}

/// A temporal-reliability prediction with bootstrap uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrPrediction {
    /// Point prediction from the full history.
    pub tr: f64,
    /// Lower bound of the bootstrap confidence interval.
    pub ci_low: f64,
    /// Upper bound of the bootstrap confidence interval.
    pub ci_high: f64,
    /// Number of bootstrap resamples used.
    pub bootstrap_samples: usize,
    /// Number of history days the estimate drew on.
    pub history_days: usize,
}

impl_json_struct!(TrPrediction {
    tr,
    ci_low,
    ci_high,
    bootstrap_samples,
    history_days,
});

impl TrPrediction {
    /// Width of the confidence interval.
    #[must_use]
    pub fn ci_width(&self) -> f64 {
        (self.ci_high - self.ci_low).max(0.0)
    }
}

/// The outcome of evaluating one (window, day-type) pair against a test set,
/// as in §6.2: predicted vs. empirically observed temporal reliability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEvaluation {
    /// Mean predicted TR over the usable test days (each day predicted from
    /// its observed initial state).
    pub predicted: f64,
    /// Fraction of usable test days whose window survived without failure.
    pub empirical: f64,
    /// Number of test days that were usable (window covered, operational at
    /// the window start).
    pub days_used: usize,
}

impl_json_struct!(WindowEvaluation {
    predicted,
    empirical,
    days_used,
});

impl WindowEvaluation {
    /// The paper's error metric
    /// `abs(TR_predicted − TR_empirical) / TR_empirical`; `None` when the
    /// empirical TR is zero (the metric is undefined there).
    #[must_use]
    pub fn relative_error(&self) -> Option<f64> {
        if self.empirical > 0.0 {
            Some((self.predicted - self.empirical).abs() / self.empirical)
        } else {
            None
        }
    }
}

/// Computes the empirical temporal reliability of a window over the days of
/// a test store: the fraction of days — among those operational at the
/// window start — with no failure state inside the window.
///
/// Returns `None` when no test day is usable.
#[must_use]
pub fn empirical_tr(test: &HistoryStore, day_type: DayType, window: TimeWindow) -> Option<f64> {
    let mut used = 0usize;
    let mut survived = 0usize;
    for pos in 0..test.days().len() {
        if test.days()[pos].day_type != day_type {
            continue;
        }
        let Some(slice) = test.window_states(pos, window) else {
            continue;
        };
        if slice[0].is_failure() {
            continue; // no guest would be submitted here
        }
        used += 1;
        if slice[1..].iter().all(|s| s.is_operational()) {
            survived += 1;
        }
    }
    (used > 0).then(|| survived as f64 / used as f64)
}

/// Evaluates the *first-order Markov chain* ablation on a train/test split
/// for one window — the memoryless counterpart of [`evaluate_window`],
/// quantifying what the SMP's holding-time distributions buy.
pub fn evaluate_window_markov(
    predictor: &SmpPredictor,
    train: &HistoryStore,
    test: &HistoryStore,
    day_type: DayType,
    window: TimeWindow,
) -> Result<WindowEvaluation, CoreError> {
    let step = predictor.model().monitor_period_secs;
    let slices = train.recent_windows(day_type, window, None);
    if slices.is_empty() {
        return Err(CoreError::EmptyHistory { window });
    }
    let refs: Vec<&[State]> = slices.iter().map(Vec::as_slice).collect();
    let chain = crate::smp::MarkovChain::estimate(&refs, step);
    let steps = window.steps(step);
    let tr_s1 = chain.temporal_reliability(State::S1, steps)?;
    let tr_s2 = chain.temporal_reliability(State::S2, steps)?;

    let mut used = 0usize;
    let mut survived = 0usize;
    let mut predicted_sum = 0.0;
    for pos in 0..test.days().len() {
        if test.days()[pos].day_type != day_type {
            continue;
        }
        let Some(slice) = test.window_states(pos, window) else {
            continue;
        };
        let init = slice[0];
        if init.is_failure() {
            continue;
        }
        used += 1;
        predicted_sum += match init {
            State::S1 => tr_s1,
            _ => tr_s2,
        };
        if slice[1..].iter().all(|s| s.is_operational()) {
            survived += 1;
        }
    }
    if used == 0 {
        return Err(CoreError::EmptyHistory { window });
    }
    Ok(WindowEvaluation {
        predicted: predicted_sum / used as f64,
        empirical: survived as f64 / used as f64,
        days_used: used,
    })
}

/// Evaluates the predictor on a train/test split for one window: predicts
/// per test day from its observed initial state, and compares the average
/// prediction with the empirical survival fraction.
pub fn evaluate_window(
    predictor: &SmpPredictor,
    train: &HistoryStore,
    test: &HistoryStore,
    day_type: DayType,
    window: TimeWindow,
) -> Result<WindowEvaluation, CoreError> {
    let params = predictor.estimate_params(train, day_type, window)?;
    let steps = window.steps(predictor.model().monitor_period_secs);
    // Both possible predictions from ONE recursion run: the six interval
    // probabilities contain the S1 and S2 rows, so running the solver per
    // initial state would do the same work twice for identical values.
    let probs = FastSolver::new(&params).interval_probabilities(steps)?;
    let tr_s1 = (1.0 - probs.failure_probability(State::S1)).clamp(0.0, 1.0);
    let tr_s2 = (1.0 - probs.failure_probability(State::S2)).clamp(0.0, 1.0);

    let mut used = 0usize;
    let mut survived = 0usize;
    let mut predicted_sum = 0.0;
    for pos in 0..test.days().len() {
        if test.days()[pos].day_type != day_type {
            continue;
        }
        let Some(slice) = test.window_states(pos, window) else {
            continue;
        };
        let init = slice[0];
        if init.is_failure() {
            continue;
        }
        used += 1;
        predicted_sum += match init {
            State::S1 => tr_s1,
            _ => tr_s2,
        };
        if slice[1..].iter().all(|s| s.is_operational()) {
            survived += 1;
        }
    }
    if used == 0 {
        return Err(CoreError::EmptyHistory { window });
    }
    Ok(WindowEvaluation {
        predicted: predicted_sum / used as f64,
        empirical: survived as f64 / used as f64,
        days_used: used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use State::*;

    /// Builds a store whose every day repeats the given short-day pattern.
    /// Uses a 6-second step and days long enough for small test windows.
    fn store_of_days(patterns: &[Vec<State>]) -> HistoryStore {
        let mut store = HistoryStore::new();
        for (i, p) in patterns.iter().enumerate() {
            store.push_day(DayLog::new(i, StateLog::new(6, p.clone())));
        }
        store
    }

    fn model() -> AvailabilityModel {
        AvailabilityModel::default()
    }

    /// A day that is S1 until `fail_at` (sample index) and S3 afterwards,
    /// `len` samples long.
    fn failing_day(len: usize, fail_at: usize) -> Vec<State> {
        (0..len)
            .map(|i| if i < fail_at { S1 } else { S3 })
            .collect()
    }

    #[test]
    fn quiet_history_predicts_high_reliability() {
        let days: Vec<Vec<State>> = (0..5).map(|_| vec![S1; 1000]).collect();
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600); // 100 steps
        let tr = p.predict(&store, DayType::Weekday, w, S1).unwrap();
        assert_eq!(tr, 1.0);
    }

    #[test]
    fn always_failing_history_predicts_low_reliability() {
        let days: Vec<Vec<State>> = (0..5).map(|_| failing_day(1000, 50)).collect();
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let tr = p.predict(&store, DayType::Weekday, w, S1).unwrap();
        assert!(tr < 0.01, "tr = {tr}");
    }

    #[test]
    fn mixed_history_predicts_intermediate_reliability() {
        // 3 quiet days + 2 failing days: survival should be near 3/5.
        let mut days: Vec<Vec<State>> = (0..3).map(|_| vec![S1; 1000]).collect();
        days.push(failing_day(1000, 50));
        days.push(failing_day(1000, 50));
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let tr = p.predict(&store, DayType::Weekday, w, S1).unwrap();
        assert!((tr - 0.6).abs() < 0.05, "tr = {tr}");
    }

    #[test]
    fn empty_history_is_an_error() {
        let store = HistoryStore::new();
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            p.predict(&store, DayType::Weekday, w, S1),
            Err(CoreError::EmptyHistory { .. })
        ));
    }

    #[test]
    fn weekend_history_not_used_for_weekday_prediction() {
        // Only days 5 and 6 (weekend) exist.
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(5, StateLog::new(6, vec![S1; 1000])));
        store.push_day(DayLog::new(6, StateLog::new(6, vec![S1; 1000])));
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        assert!(p.predict(&store, DayType::Weekday, w, S1).is_err());
        // The ablation variant accepts cross-type history.
        let all = SmpPredictor::new(model()).with_all_day_types();
        assert!(all.predict(&store, DayType::Weekday, w, S1).is_ok());
    }

    #[test]
    fn max_history_days_limits_statistics() {
        // 1 recent failing day only; older days quiet. With N = 1 the
        // prediction must reflect the failing day.
        let mut days: Vec<Vec<State>> = (0..4).map(|_| vec![S1; 1000]).collect();
        days.push(failing_day(1000, 50)); // day 4, most recent weekday
        let store = store_of_days(&days);
        let w = TimeWindow::new(0, 600);
        let recent_only = SmpPredictor::new(model())
            .with_max_history_days(1)
            .predict(&store, DayType::Weekday, w, S1)
            .unwrap();
        let all = SmpPredictor::new(model())
            .predict(&store, DayType::Weekday, w, S1)
            .unwrap();
        assert!(recent_only < 0.01, "recent_only = {recent_only}");
        assert!(all > 0.5, "all = {all}");
    }

    #[test]
    fn predict_rejects_failure_init() {
        let store = store_of_days(&[vec![S1; 1000]]);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            p.predict(&store, DayType::Weekday, w, S5),
            Err(CoreError::FailureInitialState(S5))
        ));
    }

    #[test]
    fn empirical_tr_counts_survivals() {
        let days = vec![
            vec![S1; 1000],        // survives
            failing_day(1000, 50), // fails inside window
            vec![S1; 1000],        // survives
            failing_day(1000, 0),  // failure at window start: excluded
        ];
        let store = store_of_days(&days);
        let w = TimeWindow::new(0, 600);
        let tr = empirical_tr(&store, DayType::Weekday, w).unwrap();
        assert!((tr - 2.0 / 3.0).abs() < 1e-12, "tr = {tr}");
    }

    #[test]
    fn empirical_tr_none_when_no_usable_days() {
        let store = store_of_days(&[failing_day(1000, 0)]);
        let w = TimeWindow::new(0, 600);
        assert_eq!(empirical_tr(&store, DayType::Weekday, w), None);
    }

    #[test]
    fn evaluate_window_on_stationary_machine_is_accurate() {
        // 10 train + 10 test days, failure at step 50 on 30% of days,
        // deterministically interleaved.
        let make = |fail: bool| {
            if fail {
                failing_day(1000, 50)
            } else {
                vec![S1; 1000]
            }
        };
        let mut train = HistoryStore::new();
        let mut test = HistoryStore::new();
        let pattern = [
            false, false, true, false, false, true, false, false, true, false,
        ];
        for (i, &f) in pattern.iter().enumerate() {
            // Use day indices that are all weekdays (weeks of 7, first 5).
            let day = (i / 5) * 7 + (i % 5);
            train.push_day(DayLog::new(day, StateLog::new(6, make(f))));
            test.push_day(DayLog::new(day, StateLog::new(6, make(f))));
        }
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let eval = evaluate_window(&p, &train, &test, DayType::Weekday, w).unwrap();
        assert_eq!(eval.days_used, 10);
        assert!((eval.empirical - 0.7).abs() < 1e-12);
        let err = eval.relative_error().unwrap();
        assert!(
            err < 0.05,
            "pred {} emp {} err {err}",
            eval.predicted,
            eval.empirical
        );
    }

    #[test]
    fn relative_error_undefined_at_zero_empirical() {
        let eval = WindowEvaluation {
            predicted: 0.2,
            empirical: 0.0,
            days_used: 5,
        };
        assert_eq!(eval.relative_error(), None);
    }

    #[test]
    fn bootstrap_ci_brackets_point_estimate() {
        // Days 0-2 quiet, 3 and 4 failing inside the window (indices 0-4
        // are weekdays; 5-6 would be the weekend).
        let mut days: Vec<Vec<State>> = (0..3).map(|_| vec![S1; 1000]).collect();
        days.push(failing_day(1000, 80));
        days.push(failing_day(1000, 40));
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let mut rng = fgcs_runtime::rng::Xoshiro256::seed_from_u64(1);
        let pred = p
            .predict_with_ci(&store, DayType::Weekday, w, S1, 200, 0.9, &mut rng)
            .unwrap();
        assert!((0.0..=1.0).contains(&pred.tr));
        assert!(pred.ci_low <= pred.tr + 1e-9, "{pred:?}");
        assert!(pred.ci_high >= pred.tr - 1e-9, "{pred:?}");
        assert!(pred.ci_width() > 0.0, "mixed history must have uncertainty");
        assert_eq!(pred.bootstrap_samples, 200);
    }

    #[test]
    fn bootstrap_ci_degenerate_on_uniform_history() {
        let days: Vec<Vec<State>> = (0..5).map(|_| vec![S1; 1000]).collect();
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let mut rng = fgcs_runtime::rng::Xoshiro256::seed_from_u64(2);
        let pred = p
            .predict_with_ci(&store, DayType::Weekday, w, S1, 50, 0.95, &mut rng)
            .unwrap();
        assert_eq!(pred.tr, 1.0);
        assert_eq!(pred.ci_width(), 0.0);
    }

    #[test]
    fn bootstrap_rejects_failure_init_and_empty_history() {
        let mut rng = fgcs_runtime::rng::Xoshiro256::seed_from_u64(3);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 600);
        let empty = HistoryStore::new();
        assert!(p
            .predict_with_ci(&empty, DayType::Weekday, w, S1, 10, 0.9, &mut rng)
            .is_err());
        let store = store_of_days(&[vec![S1; 1000]]);
        assert!(p
            .predict_with_ci(&store, DayType::Weekday, w, S3, 10, 0.9, &mut rng)
            .is_err());
    }

    #[test]
    fn predict_cached_memo_is_bit_identical_to_direct_solve() {
        use crate::cache::QhCache;
        let mut days: Vec<Vec<State>> = (0..4).map(|_| vec![S1; 1000]).collect();
        days.push(failing_day(1000, 120));
        let store = store_of_days(&days);
        let w = TimeWindow::new(0, 600);
        let cache = QhCache::new(8);
        let p = SmpPredictor::new(model());
        let direct = p.predict(&store, DayType::Weekday, w, S1).unwrap();
        let first = p
            .predict_cached(&cache, 1, &store, DayType::Weekday, w, S1)
            .unwrap();
        // Second call is served from the solve memo; a second *host* with
        // the same history shares the canonical kernel and hits the same
        // memo entry.
        let memoized = p
            .predict_cached(&cache, 1, &store, DayType::Weekday, w, S1)
            .unwrap();
        let other_host = p
            .predict_cached(&cache, 2, &store, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(direct.to_bits(), first.to_bits());
        assert_eq!(direct.to_bits(), memoized.to_bits());
        assert_eq!(direct.to_bits(), other_host.to_bits());
        // Different init / steps use different memo slots.
        let s2 = p
            .predict_cached(&cache, 1, &store, DayType::Weekday, w, S2)
            .unwrap();
        let s2_direct = p.predict(&store, DayType::Weekday, w, S2).unwrap();
        assert_eq!(s2.to_bits(), s2_direct.to_bits());
    }

    #[test]
    fn solve_memo_keys_are_injective_over_inputs() {
        let mut seen = std::collections::HashSet::new();
        for steps in [0usize, 1, 7, 1200] {
            for init in [S1, S2, S3, S4, S5] {
                assert!(seen.insert(solve_memo_key(init, steps)));
            }
        }
    }

    #[test]
    fn predict_curve_is_monotone() {
        let mut days: Vec<Vec<State>> = (0..6).map(|_| vec![S1; 1000]).collect();
        days.push(failing_day(1000, 200));
        let store = store_of_days(&days);
        let p = SmpPredictor::new(model());
        let w = TimeWindow::new(0, 3000); // 500 steps
        let curve = p.predict_curve(&store, DayType::Weekday, w, S1).unwrap();
        assert_eq!(curve.len(), 501);
        for pair in curve.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
    }
}
