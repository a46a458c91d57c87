//! Percentiles with an honesty rule, and the report every run prints.

/// Nearest-rank percentile of `samples` (sorted in place), or `None` when
/// fewer than ten samples lie beyond it: such a percentile is a guess.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// Length of the windows the timed phase is cut into.
pub const WINDOW_S: f64 = 0.5;

/// The median, over the timed phase's windows of [`WINDOW_S`], of each
/// window's `q` percentile: robust to bursts of interference from outside
/// the benchmark. `done_s` gives each sample's completion time in seconds
/// from the start of the phase. Windows too thin for the percentile are
/// skipped; the result is `None` unless at least half the windows qualify.
pub fn windowed(samples: &[f64], done_s: &[f64], windows: usize, q: f64) -> Option<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&v, &t) in samples.iter().zip(done_s) {
        if let Some(w) = per.get_mut((t / WINDOW_S) as usize) {
            w.push(v);
        }
    }
    let mut values: Vec<f64> = per.iter_mut().filter_map(|w| percentile(w, q)).collect();
    let n = values.len();
    if n == 0 || 2 * n < windows {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    Some(median_sorted(&values))
}

/// Median of sorted values (mean of the middle two for an even count).
pub fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest sample (a per-layer diagnostic only, never an end-to-end metric).
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

/// One reported number: its value (`None` = refused or not measured), unit
/// and the sample count behind it.
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub n: usize,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// A percentile of `samples` scaled by `scale` (e.g. ns → µs).
    pub fn pct(&mut self, name: &str, samples: &mut [f64], q: f64, scale: f64, unit: &'static str) {
        let n = samples.len();
        let v = percentile(samples, q).map(|v| v * scale);
        self.put(name, v, unit, n);
    }

    pub fn count(&mut self, name: &str, v: u64) {
        self.put(name, Some(v as f64), "count", 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn print(&self, section: &str) {
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{section} {} = {v} {} (n={})", m.name, m.unit, m.n),
                None if m.n == 0 => {
                    println!("{section} {} = - {} (n=0, not exercised)", m.name, m.unit)
                }
                None => println!(
                    "{section} {} = refused {} (n={}: fewer than 10 samples beyond the percentile)",
                    m.name, m.unit, m.n
                ),
            }
        }
    }

    /// The `"metrics"` object of the result line for the named metrics.
    /// An unmeasured or refused value is written as 0.
    pub fn json_object(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not computed"))?;
            let v = m.value.unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                m.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), None);
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(10.0));
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), None);
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
    }
}
