//! Seeded chaos campaigns: drive a faulted cluster for thousands of steps
//! and measure whether the robustness invariants hold.
//!
//! A campaign composes every injection boundary in the workspace:
//!
//! * the traces themselves are corrupted pre-replay
//!   ([`fgcs_trace::corrupt_trace`]) — damage that happened *before*
//!   ingestion,
//! * every node gets a live [`FaultInjector`](fgcs_runtime::fault) on its
//!   monitoring stream — damage happening *while* the system runs,
//! * the scheduler keeps placing jobs through blackouts and degraded
//!   predictions.
//!
//! Everything is deterministic from the [`ChaosConfig`]: the same config
//! always produces the same [`ChaosReport`], digest included, and a
//! zero-fault plan produces bit-identical results to no plan at all.
//! Those two properties are what `tests/chaos.rs` and the CI chaos smoke
//! stage assert.

use fgcs_core::model::AvailabilityModel;
use fgcs_core::robust::PredictionQuality;
use fgcs_runtime::fault::FaultPlan;
use fgcs_runtime::impl_json_struct;
use fgcs_trace::{corrupt_trace, TraceConfig, TraceGenerator};

use crate::guest::{GuestJob, GuestOutcome};
use crate::node::HostNode;
use crate::scheduler::{predict_cluster_qualified, JobScheduler, SchedulingPolicy};

/// Configuration of one chaos campaign. Fully determines the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for traces, fault plan and scheduler alike.
    pub seed: u64,
    /// Number of host nodes.
    pub machines: usize,
    /// Trace days replayed into history before the measured phase.
    pub warmup_days: usize,
    /// Measured simulation steps (monitoring periods).
    pub steps: usize,
    /// The fault plan; `None` runs the pristine, unfaulted pipeline.
    pub plan: Option<FaultPlan>,
    /// Sweep the whole cluster for qualified TRs every this many steps.
    pub predict_every_steps: usize,
    /// Submit a fresh job every this many steps.
    pub job_every_steps: usize,
    /// Work per submitted job, in CPU-seconds.
    pub job_work_secs: f64,
}

impl ChaosConfig {
    /// A campaign under the aggressive [`FaultPlan::chaos`] plan.
    #[must_use]
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            machines: 4,
            warmup_days: 2,
            steps: 10_000,
            plan: Some(FaultPlan::chaos(seed)),
            predict_every_steps: 25,
            job_every_steps: 50,
            job_work_secs: 1_800.0,
        }
    }

    /// The same campaign with no fault plan at all (the pristine
    /// pipeline) — the reference side of the zero-fault identity check.
    #[must_use]
    pub fn without_faults(mut self) -> ChaosConfig {
        self.plan = None;
        self
    }

    /// Replaces the fault plan.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> ChaosConfig {
        self.plan = Some(plan);
        self
    }
}

/// What a campaign observed. Every field is deterministic from the
/// config; `digest` folds each prediction (TR bits + quality) and each
/// scheduling decision into one order-sensitive FNV-1a hash, so two
/// reports agree on it only if the runs agreed step for step.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Steps actually simulated.
    pub steps: u64,
    /// Scheduling rounds that returned a placement decision.
    pub decisions: u64,
    /// Scheduling rounds with no available candidate at all.
    pub no_candidate_rounds: u64,
    /// Qualified TR answers received across all sweeps.
    pub predictions: u64,
    /// TR answers outside `[0, 1]` (an invariant violation — must be 0).
    pub out_of_range: u64,
    /// Cluster queries rejected because the node was blacked out.
    pub blackout_rejections: u64,
    /// Answers per quality tier.
    pub exact: u64,
    /// Stale-kernel answers.
    pub stale: u64,
    /// Widened-window answers.
    pub widened: u64,
    /// Conservative-prior answers.
    pub prior: u64,
    /// Smallest TR seen (1.0 when no predictions were made).
    pub tr_min: f64,
    /// Largest TR seen (0.0 when no predictions were made).
    pub tr_max: f64,
    /// Jobs accepted by a node.
    pub submitted: u64,
    /// Placement decisions whose submission was rejected by the node.
    pub submit_rejected: u64,
    /// Guests that finished their work.
    pub completed: u64,
    /// Guests killed by failures.
    pub killed: u64,
    /// Order-sensitive FNV-1a digest over predictions and decisions.
    pub digest: u64,
    /// Order-sensitive FNV-1a digest over scheduling outcomes only (the
    /// chosen node index, no-candidate rounds, blackout rejections) —
    /// *not* the TR bits: two runs can agree on it while their TRs
    /// differ in the last few ulps.
    pub decision_digest: u64,
}

impl_json_struct!(ChaosReport {
    steps,
    decisions,
    no_candidate_rounds,
    predictions,
    out_of_range,
    blackout_rejections,
    exact,
    stale,
    widened,
    prior,
    tr_min,
    tr_max,
    submitted,
    submit_rejected,
    completed,
    killed,
    digest,
    decision_digest,
});

impl ChaosReport {
    /// Whether the campaign upheld the robustness invariants it can check
    /// itself: every TR in range, and every scheduling round produced an
    /// outcome (which the control flow guarantees — a round is either a
    /// decision or a no-candidate round by construction).
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.out_of_range == 0 && self.tr_min >= 0.0 && self.tr_max <= 1.0
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Runs one chaos campaign. Deterministic: the same config yields the
/// same report, bit for bit (including `tr_min`/`tr_max`/`digest`).
///
/// # Panics
/// Panics when `config.machines` is zero.
#[must_use]
pub fn run_campaign(config: &ChaosConfig) -> ChaosReport {
    assert!(
        config.machines > 0,
        "chaos campaign needs at least one node"
    );
    let model = AvailabilityModel::default();
    let per_day = model.samples_per_day();
    // Enough trace for warm-up plus the measured steps, with a day of
    // slack so final-day truncation cannot starve the run.
    let days = config.warmup_days + config.steps / per_day + 2;

    let mut nodes: Vec<HostNode> = (0..config.machines as u64)
        .map(|id| {
            let cfg = TraceConfig::lab_machine(config.seed).with_machine_id(id);
            let mut trace = TraceGenerator::new(cfg).generate_days(days);
            if let Some(plan) = &config.plan {
                corrupt_trace(&mut trace, plan);
            }
            let node = HostNode::new(trace, model);
            match &config.plan {
                Some(plan) => node.with_fault_injector(plan.clone()),
                None => node,
            }
        })
        .collect();
    for node in &mut nodes {
        node.warm_up(config.warmup_days);
    }

    let mut scheduler = JobScheduler::new(SchedulingPolicy::MaxReliability, config.seed);
    let horizon = ((config.job_work_secs * scheduler.runtime_slack) as u32).max(60);

    let mut report = ChaosReport {
        steps: 0,
        decisions: 0,
        no_candidate_rounds: 0,
        predictions: 0,
        out_of_range: 0,
        blackout_rejections: 0,
        exact: 0,
        stale: 0,
        widened: 0,
        prior: 0,
        tr_min: 1.0,
        tr_max: 0.0,
        submitted: 0,
        submit_rejected: 0,
        completed: 0,
        killed: 0,
        digest: FNV_OFFSET,
        decision_digest: FNV_OFFSET,
    };
    let mut next_job_id = 1u64;

    for step in 0..config.steps {
        if config.predict_every_steps > 0 && step % config.predict_every_steps == 0 {
            for result in predict_cluster_qualified(&nodes, horizon) {
                match result {
                    Ok(q) => {
                        report.predictions += 1;
                        if !(0.0..=1.0).contains(&q.tr) {
                            report.out_of_range += 1;
                        }
                        report.tr_min = report.tr_min.min(q.tr);
                        report.tr_max = report.tr_max.max(q.tr);
                        match q.quality {
                            PredictionQuality::Exact => report.exact += 1,
                            PredictionQuality::Stale => report.stale += 1,
                            PredictionQuality::Widened => report.widened += 1,
                            PredictionQuality::Prior => report.prior += 1,
                        }
                        report.digest = fnv(report.digest, q.tr.to_bits());
                        report.digest = fnv(report.digest, q.quality.confidence().to_bits());
                    }
                    Err(_) => {
                        report.blackout_rejections += 1;
                        report.digest = fnv(report.digest, 0xB1AC_0007);
                        report.decision_digest = fnv(report.decision_digest, 0xB1AC_0007);
                    }
                }
            }
        }
        if config.job_every_steps > 0 && step % config.job_every_steps == 0 {
            let job = GuestJob::new(next_job_id, config.job_work_secs, 50.0);
            next_job_id += 1;
            match scheduler.choose(&nodes, &job) {
                Some(idx) => {
                    report.decisions += 1;
                    report.digest = fnv(report.digest, idx as u64);
                    report.decision_digest = fnv(report.decision_digest, idx as u64);
                    let job = scheduler.configure_job(&nodes[idx], job);
                    match nodes[idx].submit(job) {
                        Ok(()) => report.submitted += 1,
                        Err(_) => report.submit_rejected += 1,
                    }
                }
                None => {
                    report.no_candidate_rounds += 1;
                    report.digest = fnv(report.digest, u64::MAX);
                    report.decision_digest = fnv(report.decision_digest, u64::MAX);
                }
            }
        }
        for node in &mut nodes {
            node.step();
        }
        report.steps += 1;
    }

    for node in &mut nodes {
        for record in node.take_records() {
            match record.outcome {
                GuestOutcome::Completed { .. } => report.completed += 1,
                GuestOutcome::Killed { .. } => report.killed += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> ChaosConfig {
        ChaosConfig {
            machines: 2,
            warmup_days: 1,
            steps: 600,
            ..ChaosConfig::new(seed)
        }
    }

    #[test]
    fn campaign_upholds_invariants_under_chaos() {
        let report = run_campaign(&small(7));
        assert!(report.invariants_hold(), "{report:?}");
        assert_eq!(report.steps, 600);
        assert!(report.predictions > 0);
        // Every scheduling round resolved one way or the other.
        assert_eq!(report.decisions + report.no_candidate_rounds, 600 / 50);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&small(11));
        let b = run_campaign(&small(11));
        assert_eq!(a, b);
        assert_eq!(a.tr_min.to_bits(), b.tr_min.to_bits());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_campaign(&small(1));
        let b = run_campaign(&small(2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn zero_fault_plan_matches_unfaulted_pipeline() {
        let zero = run_campaign(&small(5).with_plan(FaultPlan::none(5)));
        let pristine = run_campaign(&small(5).without_faults());
        assert_eq!(zero, pristine);
    }
}
