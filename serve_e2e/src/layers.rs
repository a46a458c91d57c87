//! Per-layer metrics: span aggregation, and the lower layers timed by
//! replaying the run's day stream through the estimator, the solver and
//! the write-ahead log directly.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use fgcs::core::log::{DayLog, HistoryStore, StateLog};
use fgcs::core::model::AvailabilityModel;
use fgcs::core::predictor::SmpPredictor;
use fgcs::core::smp::{FastSolver, IncrementalEstimator, SolveScratch};
use fgcs::core::state::State;
use fgcs::core::window::{DayType, TimeWindow};
use fgcs::runtime::rng::{Rng, Xoshiro256};
use fgcs::runtime::wal::WalWriter;
use fgcs::serve::decode_states;

use crate::replay::Span;
use crate::stats::median_sorted;
use crate::workload::{Inputs, Kind, Req, GRID};

/// Self time (span minus the time its child spans cover) per span name,
/// in ns, plus per-request sums for the coverage ratio.
pub struct SpanStats {
    pub self_ns: HashMap<&'static str, Vec<f64>>,
    /// Ingest parse cost per KB of request line.
    pub scan_ns_per_kb: Vec<f64>,
    /// Per decomposed request root (`serve.request.<op>`): summed self time
    /// of its layer spans.
    pub layer_sum_ns: HashMap<&'static str, Vec<f64>>,
}

pub fn aggregate(threads: &[Vec<Span>]) -> SpanStats {
    let mut out = SpanStats {
        self_ns: HashMap::new(),
        scan_ns_per_kb: Vec::new(),
        layer_sum_ns: HashMap::new(),
    };
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut layers_of_root = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let self_ns = (s.end - s.start).saturating_sub(child_ns[i]);
            out.self_ns.entry(s.name).or_default().push(self_ns as f64);
            if s.name == "json.scan.ingest" && s.bytes > 0 {
                out.scan_ns_per_kb
                    .push(self_ns as f64 * 1024.0 / f64::from(s.bytes));
            }
            if s.parent != u32::MAX {
                layers_of_root[s.parent as usize] += self_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.parent == u32::MAX && s.name.starts_with("serve.request.") {
                out.layer_sum_ns
                    .entry(s.name)
                    .or_default()
                    .push(layers_of_root[i] as f64);
            }
        }
    }
    out
}

impl SpanStats {
    pub fn take(&mut self, name: &str) -> Vec<f64> {
        self.self_ns.remove(name).unwrap_or_default()
    }

    /// The layers' summed self time over the matching whole-request
    /// dispatch time, per op (medians, so a rare snapshot in either
    /// population does not decide it), pooled over ops by request count.
    pub fn coverage(&self) -> (Option<f64>, Vec<(&'static str, f64)>) {
        let mut per_op = Vec::new();
        let (mut num, mut den) = (0.0, 0.0);
        for (op, root, handle) in [
            ("ingest", "serve.request.ingest", "serve.handle.ingest"),
            ("predict", "serve.request.predict", "serve.handle.predict"),
            ("sweep", "serve.request.sweep", "serve.handle.sweep"),
            ("batch", "serve.request.batch", "serve.handle.batch"),
        ] {
            let (Some(layers), Some(whole)) =
                (self.layer_sum_ns.get(root), self.self_ns.get(handle))
            else {
                continue;
            };
            if layers.is_empty() || whole.is_empty() {
                continue;
            }
            let layers_mid = median(layers);
            let whole_mid = median(whole);
            per_op.push((op, layers_mid / whole_mid));
            num += layers_mid * layers.len() as f64;
            den += whole_mid * layers.len() as f64;
        }
        ((den > 0.0).then(|| num / den), per_op)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    median_sorted(&v)
}

/// Estimator and solver samples from replaying hosts' day streams.
#[derive(Default)]
pub struct Lower {
    pub sync_ns: Vec<f64>,
    pub params_ns: Vec<f64>,
    pub full_scan_ns: Vec<f64>,
    pub tr_ns: Vec<f64>,
    pub curve_ns: Vec<f64>,
    pub wal_append_ns: Vec<f64>,
    pub wal_fsync_ns: Vec<f64>,
    pub wal_bytes_per_user_byte: Option<f64>,
}

/// Hosts whose day streams the estimator and solver replay.
const PROBE_HOSTS: usize = 24;

/// Replays a spread of hosts' days, one day at a time, through
/// `HistoryStore` and an `IncrementalEstimator` per query coordinate the
/// workload uses, timing `sync` after each new day, `sync_and_params`, the
/// full-scan `SmpPredictor::estimate_params`, and the `FastSolver` on the
/// resulting kernel.
pub fn estimator_and_solver(inputs: &Inputs) -> Lower {
    let model = AvailabilityModel::default();
    let step = model.monitor_period_secs;
    let predictor = SmpPredictor::new(model);
    let mut rng = Xoshiro256::seed_from_u64(inputs.seed ^ 0x5e2e_0300);
    let mut scratch = SolveScratch::new();
    let mut out = Lower::default();
    let hosts = inputs.spec.hosts;
    for k in 0..PROBE_HOSTS.min(hosts) {
        let host = k * hosts / PROBE_HOSTS.min(hosts);
        let windows: Vec<TimeWindow> = match inputs.spec.kind {
            Kind::ScheduleCold => (0..4)
                .map(|_| {
                    let r = rng.next_u64();
                    window(((r >> 20) % 96) as u8, 4 * (1 + ((r >> 28) % 4) as u8))
                })
                .collect(),
            _ => GRID.iter().map(|w| window(w.start_q, w.len_q)).collect(),
        };
        let mut estimators: Vec<IncrementalEstimator> = windows
            .iter()
            .map(|&w| IncrementalEstimator::new(step, DayType::Weekday, w, None))
            .collect();
        let mut history = HistoryStore::new();
        let mut line = String::new();
        for day in 0..inputs.days[host].len() {
            line.clear();
            inputs.push_digits(host as u32, day as u32, &mut line);
            let states = decode_states(&line).expect("generated digits decode");
            let index = inputs.days[host][day].index;
            history.push_day(DayLog::new(index, StateLog::new(step, states)));
            for (est, &w) in estimators.iter_mut().zip(&windows) {
                let t = Instant::now();
                est.sync(&history);
                out.sync_ns.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let params = est.sync_and_params(&history);
                out.params_ns.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let full = predictor.estimate_params(&history, DayType::Weekday, w);
                out.full_scan_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(&full);
                let Some(params) = params else { continue };
                let steps = w.steps(step);
                let solver = FastSolver::new(&params);
                let t = Instant::now();
                let tr = solver.temporal_reliability_with(&mut scratch, State::S1, steps);
                out.tr_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(&tr);
                let t = Instant::now();
                let curve = solver.tr_curve_with(&mut scratch, steps);
                out.curve_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(&curve);
            }
        }
    }
    out
}

fn window(start_q: u8, len_q: u8) -> TimeWindow {
    TimeWindow::new(u32::from(start_q) * 900, u32::from(len_q) * 900)
}

/// Appends the timed phase's ingests, as WAL records in the registry's
/// format, to a scratch `WalWriter`, fsyncing every `fsync_every` appends
/// like the server does.
pub fn wal(
    inputs: &Inputs,
    reqs: &[Req],
    dir: &Path,
    fsync_every: u64,
    out: &mut Lower,
) -> Result<(), String> {
    let path = dir.join("wal-probe.wal");
    let mut writer =
        WalWriter::open(&path, 0, 0).map_err(|e| format!("opening the WAL probe: {e}"))?;
    let mut line = String::new();
    let mut user_bytes = 0u64;
    let mut appends = 0u64;
    for req in reqs {
        let Req::Ingest { host, day } = req else {
            continue;
        };
        // The registry's record: {"host":H,"day_index":D,"states":"…"}.
        line.clear();
        line.push_str(&format!(
            "{{\"host\":{},\"day_index\":{},\"states\":\"",
            inputs.host_ids[*host as usize], inputs.days[*host as usize][*day as usize].index
        ));
        let head = line.len();
        inputs.push_digits(*host, *day, &mut line);
        user_bytes += (line.len() - head) as u64;
        line.push_str("\"}");
        let record = &line;
        let t = Instant::now();
        writer
            .append(record.as_bytes())
            .map_err(|e| format!("WAL probe append: {e}"))?;
        out.wal_append_ns.push(t.elapsed().as_nanos() as f64);
        appends += 1;
        if appends.is_multiple_of(fsync_every) {
            let t = Instant::now();
            writer.sync().map_err(|e| format!("WAL probe fsync: {e}"))?;
            out.wal_fsync_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    drop(writer);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let _ = std::fs::remove_file(&path);
    if user_bytes > 0 {
        out.wal_bytes_per_user_byte = Some(bytes as f64 / user_bytes as f64);
    }
    Ok(())
}
