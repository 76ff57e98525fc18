//! Statistics, the metric list a run prints, and run provenance.

use std::fmt::Write as _;

/// Quartiles `(q1, median, q3)` with the same method as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), falling
/// back to the lone value for one sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let cut = |k: usize| {
                // Position k·(n+1)/4 in 1-based ranks, clamped to the data.
                let m = (n + 1) as f64 * k as f64 / 4.0;
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// Prints every metric by name, value and unit.
    pub fn print_table(&self) {
        for m in &self.0 {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip `Display`
/// gives it; non-finite values (never expected) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the checkout was built from: `PERFBENCH_COMMIT` if set,
/// else `.git/HEAD` resolved by hand (no subprocess), else "unknown".
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
    };
    resolve().unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(percentile(&v, 90.0), 9.0);
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms");
        m.push("b", 2.0, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}"
        );
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
