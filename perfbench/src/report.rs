//! Summary statistics and the result line.

use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` by nearest rank (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calls per window of a [`CallLog`]: a window's p99 then has at least ten
/// calls beyond it.
const WINDOW_CALLS: usize = 1000;

/// Call latencies of a closed-loop phase: one entry per call.
///
/// Throughput and latency percentiles are medians over consecutive windows
/// of at least `WINDOW_CALLS` calls, each window's value computed on its
/// own: a host stall of a few seconds then moves one window, not the run's
/// figure (a whole-run p99 is set by the worst 1% of the run's moments).
#[derive(Default)]
pub struct CallLog {
    durations_ms: Vec<f64>,
    call_ops: Vec<u32>,
    /// Per call that carried updates: its time divided by its updates.
    per_update_ms: Vec<f64>,
    pub ops: u64,
    pub updates: u64,
}

impl CallLog {
    pub fn record(&mut self, took: Duration, ops: usize, updates: usize) {
        self.durations_ms.push(ms(took));
        self.call_ops.push(ops as u32);
        if updates > 0 {
            self.per_update_ms.push(ms(took) / updates as f64);
        }
        self.ops += ops as u64;
        self.updates += updates as u64;
    }

    pub fn per_update_ms(&self) -> &[f64] {
        &self.per_update_ms
    }

    /// The windows as index ranges (one window when there are fewer than
    /// `2 * WINDOW_CALLS` calls).
    fn windows(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.durations_ms.len();
        let count = (n / WINDOW_CALLS).max(1);
        (0..count)
            .map(|i| i * n / count..(i + 1) * n / count)
            .collect()
    }

    /// Operations acknowledged per second of call time.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = (self.windows().into_iter())
            .map(|w| {
                let ops: f64 = self.call_ops[w.clone()].iter().map(|&o| f64::from(o)).sum();
                ratio(ops, self.durations_ms[w].iter().sum::<f64>() / 1e3)
            })
            .collect();
        median(&rates)
    }

    /// The `q`-quantile of call latency.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = (self.windows().into_iter())
            .map(|w| quantile(&self.durations_ms[w], q))
            .collect();
        median(&per_window)
    }

    pub fn calls(&self) -> usize {
        self.durations_ms.len()
    }
}

/// Correctness tallies of one run.
#[derive(Default)]
pub struct Tally {
    /// Stream operations sent to the program (base loads excluded).
    pub attempted: u64,
    /// Of those, rejected, answered wrongly or answered with the wrong
    /// outcome kind.
    pub failed: u64,
    /// State checks (forest weights, recovery equality) that failed.
    pub broken_checks: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.broken_checks.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken_checks.is_empty()
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print the run's metadata, a readable table, and — as the last line —
/// the JSON result.
pub fn print(meta: &[(&str, String)], metrics: &Metrics, tally: &Tally) {
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("meta {{{}}}", fields.join(", "));
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let entries: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        entries.join(", ")
    );
}
