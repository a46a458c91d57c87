//! Graceful-degradation prediction: a fallback chain that always produces
//! a *tagged* temporal reliability instead of an error.
//!
//! The strict [`SmpPredictor`] is the right
//! tool when history is known-good: an empty or uncovered window is a
//! caller bug and deserves an error. A scheduler polling dozens of faulty
//! volunteer hosts is in a different regime — history may be quarantined,
//! truncated, or temporarily missing, and "no answer" forces the scheduler
//! to invent one (the old `unwrap_or(0.5)`). [`RobustPredictor`] makes the
//! inventing explicit and auditable: every TR is tagged with the
//! [`PredictionQuality`] of the path that produced it, and the chain
//! degrades in order of information content:
//!
//! 1. **Exact** — fresh kernel from the live history (via the `QhCache`);
//! 2. **Stale** — a kernel cached from an earlier history snapshot for the
//!    same coordinates;
//! 3. **Widened** — re-estimate with relaxed history selection (both day
//!    types, then additionally the midnight-anchored window of the same
//!    length), trading specificity for coverage;
//! 4. **Prior** — a conservative fixed TR when the host has no usable
//!    history at all.
//!
//! Only a failure initial state remains a hard error: predicting
//! reliability for a guest on an already-failed host is a contract
//! violation no fallback can repair.

use crate::cache::QhCache;
use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::SmpPredictor;
use crate::smp::FastSolver;
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// How a [`QualifiedTr`] was obtained, best first. The discriminant order
/// matches the fallback chain, so `quality_a < quality_b` means "a came
/// from a better-informed path".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictionQuality {
    /// Fresh kernel estimated from the live history.
    Exact,
    /// Kernel reused from an earlier history snapshot of the same
    /// coordinates.
    Stale,
    /// Kernel re-estimated under relaxed history selection.
    Widened,
    /// No usable history: the conservative prior.
    Prior,
}

fgcs_runtime::impl_json_enum!(PredictionQuality {
    Exact,
    Stale,
    Widened,
    Prior,
});

impl PredictionQuality {
    /// A multiplicative confidence discount a scheduler can apply when
    /// ranking hosts: degraded answers should lose ties against exact ones.
    #[must_use]
    pub fn confidence(self) -> f64 {
        match self {
            PredictionQuality::Exact => 1.0,
            PredictionQuality::Stale => 0.95,
            PredictionQuality::Widened => 0.85,
            PredictionQuality::Prior => 0.70,
        }
    }

    /// Whether the answer came from any path below Exact.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        self != PredictionQuality::Exact
    }
}

impl std::fmt::Display for PredictionQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PredictionQuality::Exact => "exact",
            PredictionQuality::Stale => "stale",
            PredictionQuality::Widened => "widened",
            PredictionQuality::Prior => "prior",
        };
        f.write_str(s)
    }
}

/// A temporal reliability together with the quality of the path that
/// produced it. The TR is always clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualifiedTr {
    /// The predicted temporal reliability, in `[0, 1]`.
    pub tr: f64,
    /// How the prediction was obtained.
    pub quality: PredictionQuality,
}

fgcs_runtime::impl_json_struct!(QualifiedTr { tr, quality });

impl QualifiedTr {
    /// The TR discounted by the quality confidence — the scalar a
    /// ranking scheduler should sort by.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.tr * self.quality.confidence()
    }
}

/// Default conservative prior TR: pessimistic enough that a host with no
/// history loses to any host with a decent record, optimistic enough that
/// an empty cluster still schedules work.
pub const DEFAULT_PRIOR_TR: f64 = 0.35;

/// The graceful-degradation wrapper around [`SmpPredictor`]: never errors
/// on missing or degraded history, only on a failure initial state.
#[derive(Debug, Clone, Copy)]
pub struct RobustPredictor {
    predictor: SmpPredictor,
    prior_tr: f64,
}

impl RobustPredictor {
    /// Wraps a strict predictor with the default prior.
    #[must_use]
    pub fn new(predictor: SmpPredictor) -> RobustPredictor {
        RobustPredictor {
            predictor,
            prior_tr: DEFAULT_PRIOR_TR,
        }
    }

    /// Overrides the conservative prior TR (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_prior_tr(mut self, prior_tr: f64) -> RobustPredictor {
        self.prior_tr = prior_tr.clamp(0.0, 1.0);
        self
    }

    /// The wrapped strict predictor.
    #[must_use]
    pub fn predictor(&self) -> &SmpPredictor {
        &self.predictor
    }

    /// The prior TR used at the bottom of the chain.
    #[must_use]
    pub fn prior_tr(&self) -> f64 {
        self.prior_tr
    }

    /// Predicts TR through the fallback chain. Errors only when `init` is
    /// a failure state; every history problem degrades instead.
    pub fn predict(
        &self,
        cache: &QhCache,
        host: u64,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<QualifiedTr, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let steps = window.steps(self.predictor.model().monitor_period_secs);

        // 1. Exact: fresh kernel from the live history.
        if let Ok(params) = cache.get_or_estimate(&self.predictor, host, history, day_type, window)
        {
            if let Ok(tr) = FastSolver::new(&params).temporal_reliability(init, steps) {
                return Ok(self.tag(tr, PredictionQuality::Exact));
            }
        }

        // 2. Stale: a kernel from an earlier history snapshot of the same
        // coordinates.
        if let Some(params) = cache.get_stale(&self.predictor, host, day_type, window) {
            if let Ok(tr) = FastSolver::new(&params).temporal_reliability(init, steps) {
                return Ok(self.tag(tr, PredictionQuality::Stale));
            }
        }

        // 3. Widened: relax the history selection — first both day types
        // over the same window, then additionally the midnight-anchored
        // window of the same length (any same-length stretch of any day).
        let widened = self.predictor.with_all_day_types();
        let attempts = [window, TimeWindow::new(0, window.len_secs)];
        for w in attempts {
            if let Ok(params) = widened.estimate_params(history, day_type, w) {
                if let Ok(tr) = FastSolver::new(&params).temporal_reliability(init, steps) {
                    return Ok(self.tag(tr, PredictionQuality::Widened));
                }
            }
        }

        // 4. Prior: nothing usable — answer conservatively rather than
        // not at all.
        Ok(self.tag(self.prior_tr, PredictionQuality::Prior))
    }

    fn tag(&self, tr: f64, quality: PredictionQuality) -> QualifiedTr {
        fgcs_runtime::counter_add!(
            match quality {
                PredictionQuality::Exact => "core.robust.exact",
                PredictionQuality::Stale => "core.robust.stale",
                PredictionQuality::Widened => "core.robust.widened",
                PredictionQuality::Prior => "core.robust.prior",
            },
            1
        );
        QualifiedTr {
            tr: tr.clamp(0.0, 1.0),
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use crate::model::AvailabilityModel;
    use State::*;

    fn quiet_store(days: usize) -> HistoryStore {
        let mut s = HistoryStore::new();
        for day in 0..days {
            s.push_day(DayLog::new(day, StateLog::new(6, vec![S1; 1000])));
        }
        s
    }

    fn robust() -> RobustPredictor {
        RobustPredictor::new(SmpPredictor::new(AvailabilityModel::default()))
    }

    #[test]
    fn exact_on_healthy_history_matches_strict_predictor() {
        let cache = QhCache::new(8);
        let history = quiet_store(5);
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 1, &history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Exact);
        let strict = r
            .predictor()
            .predict(&history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.tr.to_bits(), strict.to_bits());
    }

    #[test]
    fn stale_kernel_serves_after_history_loss() {
        let cache = QhCache::new(8);
        let history = quiet_store(5);
        let r = robust();
        let w = TimeWindow::new(0, 600);
        // Warm the cache, then lose the history.
        let exact = r
            .predict(&cache, 1, &history, DayType::Weekday, w, S1)
            .unwrap();
        let empty = HistoryStore::new();
        let q = r
            .predict(&cache, 1, &empty, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Stale);
        assert_eq!(q.tr.to_bits(), exact.tr.to_bits());
    }

    #[test]
    fn widened_covers_day_type_starvation() {
        // Weekend-only history, weekday query, cold cache: the same-window
        // cross-day-type widening answers.
        let cache = QhCache::new(8);
        let mut history = HistoryStore::new();
        history.push_day(DayLog::new(5, StateLog::new(6, vec![S1; 1000])));
        history.push_day(DayLog::new(6, StateLog::new(6, vec![S1; 1000])));
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 1, &history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Widened);
        assert_eq!(q.tr, 1.0);
    }

    #[test]
    fn prior_answers_when_nothing_is_usable() {
        let cache = QhCache::new(8);
        let empty = HistoryStore::new();
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 9, &empty, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Prior);
        assert_eq!(q.tr, DEFAULT_PRIOR_TR);
        let custom = robust().with_prior_tr(0.1);
        let q = custom
            .predict(&cache, 9, &empty, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.tr, 0.1);
    }

    #[test]
    fn failure_init_is_still_a_hard_error() {
        let cache = QhCache::new(8);
        let history = quiet_store(5);
        let r = robust();
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            r.predict(&cache, 1, &history, DayType::Weekday, w, S5),
            Err(CoreError::FailureInitialState(S5))
        ));
    }

    #[test]
    fn quality_order_and_scores_are_monotone() {
        use PredictionQuality::*;
        assert!(Exact < Stale && Stale < Widened && Widened < Prior);
        assert!(Exact.confidence() > Stale.confidence());
        assert!(Stale.confidence() > Widened.confidence());
        assert!(Widened.confidence() > Prior.confidence());
        assert!(!Exact.is_degraded());
        assert!(Prior.is_degraded());
        let q = QualifiedTr {
            tr: 0.8,
            quality: Stale,
        };
        assert!((q.score() - 0.8 * 0.95).abs() < 1e-12);
    }

    #[test]
    fn qualified_tr_round_trips_through_json() {
        let q = QualifiedTr {
            tr: 0.5,
            quality: PredictionQuality::Widened,
        };
        let json = fgcs_runtime::json::to_string(&q);
        let back: QualifiedTr = fgcs_runtime::json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
