//! A host node: trace replay + State Manager + Gateway + (at most) one
//! guest process, wired together exactly as in the paper's Figure 2.
//!
//! The node is also the *live* fault-injection boundary: an attached
//! [`FaultInjector`] corrupts what the State Manager observes (the
//! monitoring stream) without touching physical reality (the trace sample
//! that drives CPU contention). A node with a zero-rate plan behaves
//! bit-for-bit like a node with no injector at all.

use fgcs_core::model::{AvailabilityModel, LoadSample};
use fgcs_core::robust::QualifiedTr;
use fgcs_core::state::State;
use fgcs_runtime::fault::{FaultInjector, FaultPlan, ValueFault};
use fgcs_trace::MachineTrace;

use crate::contention::CpuContentionModel;
use crate::gateway::{action_priority, Gateway, GuestAction};
use crate::guest::{GuestJob, GuestOutcome, GuestStatus};
use crate::state_manager::StateManager;

/// Why a gateway query produced no answer. With the robust prediction
/// path a *reachable* node always answers (degrading down to the prior),
/// so the only remaining failure mode is not reaching the node at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The node is unreachable: a monitoring/communication blackout. No
    /// query can be answered until connectivity returns.
    Blackout,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Blackout => f.write_str("node unreachable: monitoring blackout"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A finished guest run on this node.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestRecord {
    /// The job as it left the node (progress reflects checkpoints).
    pub job: GuestJob,
    /// How the run ended.
    pub outcome: GuestOutcome,
    /// Tick at which the job was launched on this node.
    pub launched_at: u64,
}

/// One simulated FGCS host node.
#[derive(Debug, Clone)]
pub struct HostNode {
    /// Node identifier (the trace's machine id).
    pub id: u64,
    trace: MachineTrace,
    manager: StateManager,
    gateway: Gateway,
    cpu_model: CpuContentionModel,
    guest: Option<(GuestJob, GuestStatus, u64)>,
    cursor: usize,
    records: Vec<GuestRecord>,
    faults: Option<FaultInjector>,
    /// Last sane reading the monitor produced — the hold-last substitute
    /// for corrupted observations.
    held_sample: LoadSample,
}

impl HostNode {
    /// Creates a node replaying `trace` under `model`.
    #[must_use]
    pub fn new(trace: MachineTrace, model: AvailabilityModel) -> HostNode {
        let manager = StateManager::new(model, trace.first_day_index);
        let held_sample = LoadSample::idle(trace.physical_mem_mb);
        HostNode {
            id: trace.machine_id,
            trace,
            manager,
            gateway: Gateway::default(),
            cpu_model: CpuContentionModel::default(),
            guest: None,
            cursor: 0,
            records: Vec::new(),
            faults: None,
            held_sample,
        }
    }

    /// Attaches a fault injector: from now on every observation the State
    /// Manager receives passes through the plan's corruption boundary
    /// (value faults, drops, duplicates, stuck readings, outages) and the
    /// node suffers the plan's communication blackouts. The fault stream
    /// is the node id, so a cluster of nodes under one plan decorrelates.
    #[must_use]
    pub fn with_fault_injector(mut self, plan: FaultPlan) -> HostNode {
        self.faults = Some(FaultInjector::new(plan));
        self
    }

    /// Replays the first `days` of the trace into the history store without
    /// accepting guests — the training phase of the experiments.
    pub fn warm_up(&mut self, days: usize) {
        let until = (days * self.trace.samples_per_day()).min(self.trace.samples.len());
        while self.cursor < until {
            self.step();
        }
    }

    /// Current tick (sample index into the trace).
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.cursor as u64
    }

    /// Total ticks available in the trace.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.trace.samples.len() as u64
    }

    /// The monitoring period in seconds.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.trace.step_secs
    }

    /// The node's accumulated history (for schedulers and experiments).
    #[must_use]
    pub fn history(&self) -> &fgcs_core::log::HistoryStore {
        self.manager.history()
    }

    /// Whether a guest is currently assigned (running or suspended).
    #[must_use]
    pub fn busy(&self) -> bool {
        self.guest.is_some()
    }

    /// The host load of the sample about to be replayed (what a scheduler
    /// could observe by probing the node now). `None` while the node is
    /// unreachable; a non-finite reading is treated as no reading at all
    /// and an out-of-range one is clamped, so callers can compare loads
    /// without defending against NaN.
    #[must_use]
    pub fn current_host_load(&self) -> Option<f64> {
        if self.blacked_out() {
            return None;
        }
        self.trace
            .samples
            .get(self.cursor)
            .map(|s| s.host_cpu)
            .filter(|l| l.is_finite())
            .map(|l| l.clamp(0.0, 1.0))
    }

    /// Whether the node is currently unreachable because its fault plan
    /// has it in a communication blackout. Queries and submissions fail
    /// while this holds; the node itself keeps running.
    #[must_use]
    pub fn blacked_out(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|inj| inj.in_blackout(self.id, self.cursor as u64))
    }

    /// Whether the machine is alive at the current cursor.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.trace
            .samples
            .get(self.cursor)
            .map(|s| s.alive)
            .unwrap_or(false)
    }

    /// Predicted temporal reliability over the next `horizon_secs` from the
    /// node's own history (§5.1: the gateway answers the client's query).
    pub fn predict_tr(&self, horizon_secs: u32) -> Result<f64, fgcs_core::error::CoreError> {
        self.manager.predict_tr(horizon_secs)
    }

    /// Predicted temporal reliability through the graceful-degradation
    /// chain: a reachable node always answers, tagging the answer with the
    /// [`fgcs_core::robust::PredictionQuality`] of the path that produced
    /// it. Fails only while the node is [`HostNode::blacked_out`].
    pub fn predict_tr_qualified(&self, horizon_secs: u32) -> Result<QualifiedTr, QueryError> {
        if self.blacked_out() {
            fgcs_runtime::counter_add!("sim.node.blackout_rejections", 1);
            return Err(QueryError::Blackout);
        }
        Ok(self.manager.predict_tr_qualified(horizon_secs))
    }

    /// Whether the node can accept a guest right now: not busy, alive, and
    /// not currently observed in a failure state.
    #[must_use]
    pub fn available(&self) -> bool {
        !self.busy()
            && self.alive()
            && !self.manager.currently_failed()
            && self.cursor < self.trace.samples.len()
    }

    /// Launches a guest job. Returns the job back when the node is busy,
    /// dead, currently failed, unreachable, or out of trace.
    pub fn submit(&mut self, job: GuestJob) -> Result<(), GuestJob> {
        if !self.available() || self.blacked_out() {
            return Err(job);
        }
        fgcs_runtime::counter_add!("sim.guest.submitted", 1);
        self.gateway.reset();
        self.guest = Some((
            job,
            GuestStatus::Running(crate::contention::GuestPriority::Default),
            self.cursor as u64,
        ));
        Ok(())
    }

    /// Advances one monitoring period. Returns `false` when the trace is
    /// exhausted.
    pub fn step(&mut self) -> bool {
        let Some(&sample) = self.trace.samples.get(self.cursor) else {
            return false;
        };
        let idx = self.cursor as u64;
        self.cursor += 1;
        let truth = self.observe_through_faults(sample, idx);
        let decision = self.manager.observe(truth);

        if let Some((mut job, _status, launched_at)) = self.guest.take() {
            let action = self.gateway.step(decision);
            match action {
                GuestAction::Kill(reason) => {
                    // UEC kills are resource-contention evictions (S3 CPU,
                    // S4 memory); URR kills are ownership revocations (S5).
                    fgcs_runtime::counter_add!(
                        match reason {
                            State::S3 => "sim.guest.kills_uec_cpu",
                            State::S4 => "sim.guest.kills_uec_mem",
                            _ => "sim.guest.kills_urr",
                        },
                        1
                    );
                    job.rollback();
                    self.records.push(GuestRecord {
                        job,
                        outcome: GuestOutcome::Killed {
                            at_tick: self.cursor as u64 - 1,
                            reason,
                        },
                        launched_at,
                    });
                }
                GuestAction::Suspend => {
                    fgcs_runtime::counter_add!("sim.guest.suspended_steps", 1);
                    self.guest = Some((job, GuestStatus::Suspended, launched_at));
                }
                running => {
                    let priority =
                        action_priority(running).expect("running action always maps to a priority");
                    let alloc = self
                        .cpu_model
                        .allocate(&[sample.host_cpu], 1.0, priority)
                        .guest;
                    let done = job.advance(alloc, f64::from(self.trace.step_secs));
                    if done {
                        fgcs_runtime::counter_add!("sim.guest.completed", 1);
                        self.records.push(GuestRecord {
                            job,
                            outcome: GuestOutcome::Completed {
                                at_tick: self.cursor as u64,
                            },
                            launched_at,
                        });
                    } else {
                        self.guest = Some((job, GuestStatus::Running(priority), launched_at));
                    }
                }
            }
        }

        // Day boundary bookkeeping is handled inside the manager (it closes
        // a day automatically after samples_per_day observations).
        self.cursor < self.trace.samples.len() || self.finish_trailing_day()
    }

    /// The fault-injection boundary between the physical machine and its
    /// monitor: what the State Manager receives is the trace sample
    /// filtered through the node's injector. Physical reality (`sample`)
    /// still drives guest CPU contention — faults corrupt *observation*,
    /// not the machine. With no injector (or a zero-rate plan) the result
    /// is bit-identical to the plain `alive → Some(sample)` path.
    fn observe_through_faults(&mut self, sample: LoadSample, idx: u64) -> Option<LoadSample> {
        let Some(injector) = &self.faults else {
            return if sample.alive { Some(sample) } else { None };
        };
        if injector.in_blackout(self.id, idx) {
            fgcs_runtime::counter_add!("runtime.fault.blackout_steps", 1);
        }
        if injector.in_outage(self.id, idx) || injector.dropped(self.id, idx) {
            // The monitor produced nothing this period. Sustained gaps are
            // indistinguishable from revocation, exactly as in a real
            // deployment with a dead monitor daemon.
            return None;
        }
        let mut s = sample;
        if injector.stuck_at(self.id, idx) || injector.duplicated(self.id, idx) {
            // A stuck or repeated reading: the previous values under the
            // current heartbeat.
            s = LoadSample {
                alive: sample.alive,
                ..self.held_sample
            };
        } else if let Some(fault) = injector.value_fault(self.id, idx) {
            corrupt_observation(&mut s, fault);
        }
        if !s.is_sane() {
            // Live hold-last repair, preserving the heartbeat so
            // revocation detection keeps working on repaired samples.
            fgcs_runtime::counter_add!("sim.monitor.insane_repaired", 1);
            s = LoadSample {
                alive: s.alive,
                ..self.held_sample
            };
        }
        self.held_sample = s;
        if s.alive {
            Some(s)
        } else {
            None
        }
    }

    fn finish_trailing_day(&mut self) -> bool {
        self.manager.end_day();
        false
    }

    /// Recalls (migrates away) the current guest: an out-of-band checkpoint
    /// is taken and the job is returned for re-placement. Returns `None`
    /// when no guest is assigned.
    pub fn recall_guest(&mut self) -> Option<GuestJob> {
        self.guest.take().map(|(mut job, _status, _launched)| {
            job.force_checkpoint();
            job
        })
    }

    /// Remaining work of the currently assigned guest, if any.
    #[must_use]
    pub fn guest_remaining_secs(&self) -> Option<f64> {
        self.guest.as_ref().map(|(job, _, _)| job.remaining_secs())
    }

    /// Drains the finished-guest records.
    pub fn take_records(&mut self) -> Vec<GuestRecord> {
        std::mem::take(&mut self.records)
    }

    /// The manager's last observed operational state.
    #[must_use]
    pub fn last_operational(&self) -> State {
        self.manager.last_operational()
    }
}

/// Applies one value fault to an observed sample, leaving the heartbeat
/// intact (value corruption and machine death are independent failures).
fn corrupt_observation(sample: &mut LoadSample, fault: ValueFault) {
    match fault {
        ValueFault::Nan => {
            sample.host_cpu = f64::NAN;
            sample.free_mem_mb = f64::NAN;
        }
        ValueFault::PosInf => {
            sample.host_cpu = f64::INFINITY;
            sample.free_mem_mb = f64::INFINITY;
        }
        ValueFault::NegInf => {
            sample.host_cpu = f64::NEG_INFINITY;
            sample.free_mem_mb = f64::NEG_INFINITY;
        }
        ValueFault::OutOfRange => {
            sample.host_cpu = 17.5;
            sample.free_mem_mb = -4096.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::LoadSample;

    fn quiet_trace(days: usize) -> MachineTrace {
        let model = AvailabilityModel::default();
        MachineTrace {
            machine_id: 7,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples: vec![LoadSample::idle(400.0); days * model.samples_per_day()],
        }
    }

    #[test]
    fn quiet_node_completes_guest_at_full_speed() {
        let mut node = HostNode::new(quiet_trace(1), AvailabilityModel::default());
        let job = GuestJob::new(1, 600.0, 50.0); // 10 minutes of work
        node.submit(job).unwrap();
        for _ in 0..200 {
            node.step();
        }
        let records = node.take_records();
        assert_eq!(records.len(), 1);
        match records[0].outcome {
            GuestOutcome::Completed { at_tick } => {
                // 600 s of work at ~full speed = ~100 ticks.
                assert!(at_tick <= 105, "completed at {at_tick}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn busy_node_rejects_second_guest() {
        let mut node = HostNode::new(quiet_trace(1), AvailabilityModel::default());
        node.submit(GuestJob::new(1, 1e6, 50.0)).unwrap();
        assert!(node.submit(GuestJob::new(2, 10.0, 50.0)).is_err());
    }

    #[test]
    fn overloaded_node_kills_guest() {
        let model = AvailabilityModel::default();
        let mut trace = quiet_trace(1);
        // Steady overload from tick 10 on.
        for s in &mut trace.samples[10..200] {
            s.host_cpu = 0.95;
        }
        let mut node = HostNode::new(trace, model);
        node.submit(GuestJob::new(1, 1e6, 50.0)).unwrap();
        for _ in 0..300 {
            node.step();
        }
        let records = node.take_records();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].outcome,
            GuestOutcome::Killed {
                reason: State::S3,
                ..
            }
        ));
        assert!(!node.busy());
    }

    #[test]
    fn transient_spike_only_suspends() {
        let model = AvailabilityModel::default();
        let mut trace = quiet_trace(1);
        for s in &mut trace.samples[10..14] {
            s.host_cpu = 0.95; // 4 ticks < 10-tick tolerance
        }
        let mut node = HostNode::new(trace, model);
        node.submit(GuestJob::new(1, 1e9, 50.0)).unwrap();
        for _ in 0..100 {
            node.step();
        }
        assert!(node.busy(), "guest should have survived the spike");
        assert!(node.take_records().is_empty());
    }

    #[test]
    fn revocation_kills_guest() {
        let model = AvailabilityModel::default();
        let mut trace = quiet_trace(1);
        for s in &mut trace.samples[20..100] {
            *s = LoadSample::revoked();
        }
        let mut node = HostNode::new(trace, model);
        node.submit(GuestJob::new(1, 1e9, 50.0)).unwrap();
        for _ in 0..120 {
            node.step();
        }
        let records = node.take_records();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].outcome,
            GuestOutcome::Killed {
                reason: State::S5,
                ..
            }
        ));
    }

    #[test]
    fn dead_node_rejects_submission() {
        let model = AvailabilityModel::default();
        let mut trace = quiet_trace(1);
        trace.samples[0] = LoadSample::revoked();
        let mut node = HostNode::new(trace, model);
        assert!(node.submit(GuestJob::new(1, 10.0, 50.0)).is_err());
    }

    #[test]
    fn warm_up_builds_history_and_allows_prediction() {
        // Warm a full week so the current day (Monday) has weekday history.
        let mut node = HostNode::new(quiet_trace(8), AvailabilityModel::default());
        node.warm_up(7);
        assert_eq!(node.history().len(), 7);
        let tr = node.predict_tr(3600).unwrap();
        assert_eq!(tr, 1.0);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_unfaulted() {
        use fgcs_runtime::fault::FaultPlan;
        let trace = quiet_trace(8);
        let mut plain = HostNode::new(trace.clone(), AvailabilityModel::default());
        let mut zeroed = HostNode::new(trace, AvailabilityModel::default())
            .with_fault_injector(FaultPlan::none(99));
        plain.warm_up(7);
        zeroed.warm_up(7);
        assert_eq!(plain.history(), zeroed.history());
        let a = plain.predict_tr(3600).unwrap();
        let b = zeroed.predict_tr(3600).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        let qa = plain.predict_tr_qualified(3600).unwrap();
        let qb = zeroed.predict_tr_qualified(3600).unwrap();
        assert_eq!(qa.tr.to_bits(), qb.tr.to_bits());
        assert_eq!(qa.quality, qb.quality);
    }

    #[test]
    fn chaotic_observations_are_absorbed_without_panic() {
        use fgcs_runtime::fault::FaultPlan;
        // Aggressive corruption of every kind on a quiet machine: the node
        // must keep stepping, keep logging days, and keep answering
        // qualified queries with in-range TRs.
        let plan = FaultPlan {
            nan_rate: 0.05,
            inf_rate: 0.02,
            out_of_range_rate: 0.05,
            ..FaultPlan::chaos(3)
        };
        let mut node =
            HostNode::new(quiet_trace(8), AvailabilityModel::default()).with_fault_injector(plan);
        node.warm_up(7);
        assert!(!node.history().is_empty());
        let q = node.predict_tr_qualified(3600);
        if let Ok(q) = q {
            assert!((0.0..=1.0).contains(&q.tr), "tr {}", q.tr);
        }
    }

    #[test]
    fn blackout_rejects_queries_and_submissions() {
        use fgcs_runtime::fault::FaultPlan;
        let plan = FaultPlan {
            blackout_rate: 1.0,
            blackout_len: 10,
            ..FaultPlan::none(1)
        };
        let mut node =
            HostNode::new(quiet_trace(1), AvailabilityModel::default()).with_fault_injector(plan);
        assert!(node.blacked_out());
        assert_eq!(node.predict_tr_qualified(600), Err(QueryError::Blackout));
        assert_eq!(node.current_host_load(), None);
        assert!(node.submit(GuestJob::new(1, 10.0, 50.0)).is_err());
        // The machine itself keeps running through the blackout.
        assert!(node.step());
    }

    #[test]
    fn trace_end_reported() {
        let mut node = HostNode::new(quiet_trace(1), AvailabilityModel::default());
        let per_day = 14_400;
        for i in 0..per_day {
            let more = node.step();
            if i + 1 < per_day {
                assert!(more);
            } else {
                assert!(!more);
            }
        }
        assert!(!node.step());
        // The trailing day was finalised exactly once.
        assert_eq!(node.history().len(), 1);
    }
}
