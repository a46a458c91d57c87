//! The State Manager daemon (paper §5): online state classification,
//! history logging and the prediction endpoint.
//!
//! Online classification must decide *now*, without the lookahead the
//! offline classifier enjoys: when the load first exceeds `Th2` the guest
//! is suspended; only if the overload persists for the transient tolerance
//! is CPU unavailability (S3) declared and the guest killed. When the spike
//! subsides in time, the samples are retroactively recorded under the
//! surrounding operational state — so the logs the manager accumulates
//! match what [`fgcs_core::classify::StateClassifier`] would produce
//! offline (up to spikes at day boundaries).

use fgcs_core::cache::QhCache;
use fgcs_core::error::CoreError;
use fgcs_core::log::{DayLog, HistoryStore, StateLog};
use fgcs_core::model::{AvailabilityModel, LoadSample};
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::robust::{PredictionQuality, QualifiedTr, RobustPredictor};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};

use crate::monitor::{MonitorReport, ResourceMonitor};

/// The manager's per-period verdict, driving the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineDecision {
    /// The machine is in an operational state (S1 or S2).
    Operational(State),
    /// Load above `Th2`, still within the transient tolerance: suspend the
    /// guest and wait.
    Transient,
    /// An unrecoverable failure state: the guest must be killed.
    Failed(State),
}

/// Kernels memoized per manager: enough for the handful of distinct
/// (window, day-type) coordinates a scheduling round asks about, small
/// enough that a thousand-node cluster stays cheap.
const QH_CACHE_CAPACITY: usize = 32;

/// Online classifier + history logger + prediction endpoint for one node.
#[derive(Debug, Clone)]
pub struct StateManager {
    model: AvailabilityModel,
    monitor: ResourceMonitor,
    store: HistoryStore,
    current_day: Vec<State>,
    day_index: usize,
    last_operational: State,
    overload_run: usize,
    currently_failed: bool,
    /// Memoized Q/H estimations for the prediction endpoint. The history
    /// length is part of the cache key, so the daily append in
    /// [`StateManager::end_day`] invalidates implicitly; wholesale store
    /// replacement must clear explicitly.
    qh_cache: QhCache,
}

impl StateManager {
    /// Creates a manager starting at `first_day_index` (0 = Monday).
    #[must_use]
    pub fn new(model: AvailabilityModel, first_day_index: usize) -> StateManager {
        let monitor = ResourceMonitor::new(&model);
        StateManager {
            model,
            monitor,
            store: HistoryStore::new(),
            current_day: Vec::with_capacity(model.samples_per_day()),
            day_index: first_day_index,
            last_operational: State::S1,
            overload_run: 0,
            currently_failed: false,
            qh_cache: QhCache::new(QH_CACHE_CAPACITY),
        }
    }

    /// The availability model in use.
    #[must_use]
    pub fn model(&self) -> &AvailabilityModel {
        &self.model
    }

    /// Seeds the manager with pre-existing history (e.g. training days).
    pub fn preload_history(&mut self, store: HistoryStore) {
        if let Some(last) = store.days().last() {
            self.day_index = last.day_index + 1;
        }
        self.store = store;
        // The replacement store may coincidentally have the same number of
        // days as the old one, which would defeat the length-keyed implicit
        // invalidation — drop everything.
        self.qh_cache.clear();
    }

    /// Processes one monitoring period. `truth` is `None` while the machine
    /// is down (no sample is produced).
    pub fn observe(&mut self, truth: Option<LoadSample>) -> OnlineDecision {
        let tolerance = self.model.transient_tolerance_steps();
        let report = self.monitor.observe(truth);
        let raw = match report {
            MonitorReport::Sample(sample) => {
                fgcs_core::classify::StateClassifier::new(self.model).classify_sample(&sample)
            }
            // A stale heartbeat is not yet a state change; keep the last
            // operational state on the books.
            MonitorReport::HeartbeatStale => {
                self.flush_overload_as(self.last_operational);
                self.push(self.last_operational);
                return OnlineDecision::Operational(self.last_operational);
            }
            MonitorReport::Revoked => State::S5,
        };
        match raw {
            State::S1 | State::S2 => {
                // A spike that ended before the tolerance was transient: its
                // samples are already recorded as the surrounding state.
                self.overload_run = 0;
                self.last_operational = raw;
                self.currently_failed = false;
                self.push(raw);
                OnlineDecision::Operational(raw)
            }
            State::S3 => {
                self.overload_run += 1;
                if self.overload_run == tolerance.max(1) {
                    // The spike just became steady overload: rewrite the
                    // provisional samples of this run as S3.
                    let n = self.current_day.len();
                    let from = n.saturating_sub(self.overload_run - 1);
                    for s in &mut self.current_day[from..] {
                        *s = State::S3;
                    }
                    self.currently_failed = true;
                    self.push(State::S3);
                    OnlineDecision::Failed(State::S3)
                } else if self.overload_run > tolerance.max(1) {
                    self.currently_failed = true;
                    self.push(State::S3);
                    OnlineDecision::Failed(State::S3)
                } else {
                    // Provisionally record the surrounding operational state;
                    // rewritten if the overload persists.
                    self.push(self.last_operational);
                    OnlineDecision::Transient
                }
            }
            failure => {
                // S4 / S5 interrupting a short spike: the offline folding
                // assigns the spike to the preceding operational state.
                self.flush_overload_as(self.last_operational);
                self.currently_failed = true;
                self.push(failure);
                OnlineDecision::Failed(failure)
            }
        }
    }

    fn flush_overload_as(&mut self, state: State) {
        if self.overload_run > 0 {
            let n = self.current_day.len();
            let tolerance = self.model.transient_tolerance_steps().max(1);
            if self.overload_run < tolerance {
                let from = n.saturating_sub(self.overload_run);
                for s in &mut self.current_day[from..] {
                    *s = state;
                }
            }
            self.overload_run = 0;
        }
    }

    fn push(&mut self, state: State) {
        // Online per-state sample counts and transition count. Counts
        // reflect the decisions as made; the transient-overload rewrite may
        // later fold short S3 runs into the surrounding operational state.
        fgcs_runtime::counter_add!(
            match state {
                State::S1 => "sim.state.s1_samples",
                State::S2 => "sim.state.s2_samples",
                State::S3 => "sim.state.s3_samples",
                State::S4 => "sim.state.s4_samples",
                State::S5 => "sim.state.s5_samples",
            },
            1
        );
        if self.current_day.last().is_some_and(|&prev| prev != state) {
            fgcs_runtime::counter_add!("sim.state.transitions", 1);
        }
        self.current_day.push(state);
        if self.current_day.len() >= self.model.samples_per_day() {
            self.end_day();
        }
    }

    /// Finalises the current (possibly partial) day into the history store.
    pub fn end_day(&mut self) {
        if self.current_day.is_empty() {
            return;
        }
        fgcs_runtime::counter_add!("sim.state.days_closed", 1);
        let states = std::mem::take(&mut self.current_day);
        self.store.push_day(DayLog::new(
            self.day_index,
            StateLog::new(self.model.monitor_period_secs, states),
        ));
        self.day_index += 1;
        self.overload_run = 0;
    }

    /// The accumulated history.
    #[must_use]
    pub fn history(&self) -> &HistoryStore {
        &self.store
    }

    /// Index of the day currently being recorded.
    #[must_use]
    pub fn current_day_index(&self) -> usize {
        self.day_index
    }

    /// Seconds into the current day (based on samples recorded today).
    #[must_use]
    pub fn time_of_day_secs(&self) -> u32 {
        self.current_day.len() as u32 * self.model.monitor_period_secs
    }

    /// Whether the machine is currently in a failure state (S3/S4/S5): no
    /// guest should be submitted until it recovers.
    #[must_use]
    pub fn currently_failed(&self) -> bool {
        self.currently_failed
    }

    /// The most recent operational state (the prediction initial state).
    #[must_use]
    pub fn last_operational(&self) -> State {
        self.last_operational
    }

    /// Predicts the temporal reliability for the next `horizon_secs`
    /// seconds, anchored at the current time-of-day — the §5.1 endpoint the
    /// gateway answers job-submission queries with.
    ///
    /// The Q/H estimation behind the query is memoized in a per-manager
    /// LRU: a scheduling round that probes the same node for several jobs
    /// (or a choose + configure pair with the same horizon) estimates the
    /// kernel once and reuses it until the history grows.
    pub fn predict_tr(&self, horizon_secs: u32) -> Result<f64, CoreError> {
        let (day_type, window) = self.query_window(horizon_secs);
        // The cache is private to this manager, so the host component of
        // the key is constant.
        SmpPredictor::new(self.model).predict_cached(
            &self.qh_cache,
            0,
            &self.store,
            day_type,
            window,
            self.last_operational,
        )
    }

    /// Like [`StateManager::predict_tr`], but through the
    /// graceful-degradation chain ([`RobustPredictor`]): always answers,
    /// tagging the TR with how it was obtained. A manager with no usable
    /// history answers the conservative prior instead of erroring — this
    /// is the endpoint a fault-tolerant scheduler should query.
    #[must_use]
    pub fn predict_tr_qualified(&self, horizon_secs: u32) -> QualifiedTr {
        let (day_type, window) = self.query_window(horizon_secs);
        let robust = RobustPredictor::new(SmpPredictor::new(self.model));
        match robust.predict(
            &self.qh_cache,
            0,
            &self.store,
            day_type,
            window,
            self.last_operational,
        ) {
            Ok(q) => q,
            // `last_operational` is S1/S2 by construction, so the
            // failure-initial-state error cannot fire; answer the prior
            // defensively anyway rather than propagating.
            Err(_) => QualifiedTr {
                tr: robust.prior_tr(),
                quality: PredictionQuality::Prior,
            },
        }
    }

    /// The (day-type, window) coordinates of a prediction anchored at the
    /// current time-of-day, with the horizon clamped to what a two-day
    /// window can express.
    fn query_window(&self, horizon_secs: u32) -> (DayType, TimeWindow) {
        let start = self
            .time_of_day_secs()
            .min(fgcs_core::window::SECS_PER_DAY - 1);
        let horizon = horizon_secs.min(2 * fgcs_core::window::SECS_PER_DAY - start);
        let window = TimeWindow::new(start, horizon.max(self.model.monitor_period_secs));
        (DayType::of_day(self.day_index), window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AvailabilityModel {
        AvailabilityModel::default()
    }

    fn load(cpu: f64) -> Option<LoadSample> {
        Some(LoadSample {
            host_cpu: cpu,
            free_mem_mb: 400.0,
            alive: true,
        })
    }

    #[test]
    fn light_load_is_s1() {
        let mut m = StateManager::new(model(), 0);
        assert_eq!(m.observe(load(0.1)), OnlineDecision::Operational(State::S1));
        assert_eq!(m.observe(load(0.4)), OnlineDecision::Operational(State::S2));
    }

    #[test]
    fn transient_spike_suspends_then_recovers() {
        let mut m = StateManager::new(model(), 0);
        m.observe(load(0.1));
        for _ in 0..5 {
            assert_eq!(m.observe(load(0.9)), OnlineDecision::Transient);
        }
        assert_eq!(m.observe(load(0.1)), OnlineDecision::Operational(State::S1));
        // The provisional samples stayed S1.
        m.end_day();
        let states = m.history().days()[0].log.states().to_vec();
        assert!(states.iter().all(|&s| s == State::S1), "{states:?}");
    }

    #[test]
    fn steady_overload_becomes_s3_and_rewrites_run() {
        let mut m = StateManager::new(model(), 0);
        m.observe(load(0.1));
        let tol = model().transient_tolerance_steps();
        for i in 0..tol + 3 {
            let d = m.observe(load(0.9));
            if i + 1 < tol {
                assert_eq!(d, OnlineDecision::Transient, "step {i}");
            } else {
                assert_eq!(d, OnlineDecision::Failed(State::S3), "step {i}");
            }
        }
        m.end_day();
        let states = m.history().days()[0].log.states().to_vec();
        assert_eq!(states[0], State::S1);
        for &s in &states[1..] {
            assert_eq!(s, State::S3);
        }
    }

    #[test]
    fn online_log_matches_offline_classifier() {
        use fgcs_core::classify::StateClassifier;
        // A day's worth of varied samples.
        let mdl = model();
        let mut samples = Vec::new();
        for i in 0..mdl.samples_per_day() {
            let cpu = match i % 700 {
                0..=99 => 0.1,
                100..=105 => 0.95, // transient
                106..=399 => 0.35,
                400..=440 => 0.9, // steady overload
                _ => 0.05,
            };
            samples.push(LoadSample {
                host_cpu: cpu,
                free_mem_mb: 400.0,
                alive: i % 700 != 600, // occasional one-off dead sample
            });
        }
        let mut m = StateManager::new(mdl, 0);
        for s in &samples {
            m.observe(Some(*s));
        }
        let online = m.history().days()[0].log.states().to_vec();
        let offline = StateClassifier::new(mdl).classify(&samples);
        // The single dead samples differ (heartbeat tolerance online vs
        // immediate S5 offline); everything else must agree.
        let mismatches = online.iter().zip(&offline).filter(|(a, b)| a != b).count();
        let dead = samples.iter().filter(|s| !s.alive).count();
        assert!(
            mismatches <= dead,
            "{mismatches} mismatches vs {dead} dead samples"
        );
    }

    #[test]
    fn memory_exhaustion_is_failed_s4() {
        let mut m = StateManager::new(model(), 0);
        let s = LoadSample {
            host_cpu: 0.1,
            free_mem_mb: 10.0,
            alive: true,
        };
        assert_eq!(m.observe(Some(s)), OnlineDecision::Failed(State::S4));
    }

    #[test]
    fn sustained_death_is_revocation() {
        let mut m = StateManager::new(model(), 0);
        m.observe(load(0.1));
        // Gap = 3 steps at default config.
        assert_eq!(m.observe(None), OnlineDecision::Operational(State::S1));
        assert_eq!(m.observe(None), OnlineDecision::Operational(State::S1));
        assert_eq!(m.observe(None), OnlineDecision::Failed(State::S5));
    }

    #[test]
    fn day_rollover_finalises_log() {
        let mdl = model();
        let mut m = StateManager::new(mdl, 0);
        for _ in 0..mdl.samples_per_day() {
            m.observe(load(0.1));
        }
        assert_eq!(m.history().len(), 1);
        assert_eq!(m.current_day_index(), 1);
        assert_eq!(m.time_of_day_secs(), 0);
    }

    #[test]
    fn preloaded_history_enables_prediction() {
        use fgcs_core::log::{DayLog, StateLog};
        let mdl = model();
        let mut store = HistoryStore::new();
        // A full week, so the current day (7 = Monday) has same-type history.
        for d in 0..7 {
            store.push_day(DayLog::new(
                d,
                StateLog::new(6, vec![State::S1; mdl.samples_per_day()]),
            ));
        }
        let mut m = StateManager::new(mdl, 0);
        m.preload_history(store);
        assert_eq!(m.current_day_index(), 7);
        let tr = m.predict_tr(3600).unwrap();
        assert_eq!(tr, 1.0);
    }

    #[test]
    fn predict_without_history_errors() {
        let m = StateManager::new(model(), 0);
        assert!(m.predict_tr(3600).is_err());
    }

    #[test]
    fn qualified_prediction_always_answers() {
        // No history at all: the strict endpoint errors, the qualified one
        // answers the conservative prior.
        let m = StateManager::new(model(), 0);
        let q = m.predict_tr_qualified(3600);
        assert_eq!(q.quality, PredictionQuality::Prior);
        assert_eq!(q.tr, fgcs_core::robust::DEFAULT_PRIOR_TR);
    }

    #[test]
    fn qualified_prediction_matches_strict_on_healthy_history() {
        use fgcs_core::log::{DayLog, StateLog};
        let mdl = model();
        let mut store = HistoryStore::new();
        for d in 0..7 {
            store.push_day(DayLog::new(
                d,
                StateLog::new(6, vec![State::S1; mdl.samples_per_day()]),
            ));
        }
        let mut m = StateManager::new(mdl, 0);
        m.preload_history(store);
        let strict = m.predict_tr(3600).unwrap();
        let q = m.predict_tr_qualified(3600);
        assert_eq!(q.quality, PredictionQuality::Exact);
        assert_eq!(q.tr.to_bits(), strict.to_bits());
    }
}
