//! Offline stand-in for `criterion` covering the subset the bench suite
//! uses: `Criterion::default().sample_size(..).warm_up_time(..)
//! .measurement_time(..)`, `bench_function`, `benchmark_group` (with
//! `throughput`, `bench_with_input`, `finish`), `BenchmarkId`,
//! `Throughput`, `black_box`, and the `criterion_group!`/
//! `criterion_main!` macros.
//!
//! Measurement is real: each benchmark warms up for `warm_up_time`, then
//! takes `sample_size` samples sized to fill `measurement_time`, and
//! reports min/mean/max per-iteration wall time (plus throughput when
//! configured). There is no statistical regression machinery or HTML
//! report — numbers go to stdout, which is what an offline CI can diff.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Opaque value barrier; defers to `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Measurement configuration plus the entry point benches receive.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // Far smaller than upstream's 100 × 3s defaults: this shim exists
        // so `cargo bench` finishes offline in sane time, not to publish
        // statistics.
        Self {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(1000),
        }
    }
}

impl Criterion {
    /// Number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Warm-up duration before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Total time budget the samples should roughly fill.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Runs a single benchmark under this configuration.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, None, self.sample_size, self.warm_up_time, self.measurement_time, &mut f);
        self
    }

    /// Opens a named group sharing this configuration.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            throughput: None,
            _parent: std::marker::PhantomData,
        }
    }
}

/// A group of related benchmarks with shared settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the throughput used to report rates for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs `f` as `group-name/bench-name`.
    pub fn bench_function<F>(&mut self, name: impl ToString, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.to_string());
        run_one(
            &full,
            self.throughput,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut f,
        );
        self
    }

    /// Runs `f` with `input`, labelled by `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.label);
        run_one(
            &full,
            self.throughput,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut |b| f(b, input),
        );
        self
    }

    /// Ends the group (upstream flushes reports here; we print per-bench).
    pub fn finish(self) {}
}

/// Identifier for one parameterised benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self { label: format!("{function_name}/{parameter}") }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self { label: parameter.to_string() }
    }
}

/// Units processed per iteration, for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes handled per iteration.
    Bytes(u64),
    /// Logical elements handled per iteration.
    Elements(u64),
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    result: Option<Samples>,
}

struct Samples {
    /// Mean seconds per iteration, one entry per sample.
    per_iter: Vec<f64>,
    iters_total: u64,
}

impl Bencher {
    /// Measures `routine`, called repeatedly; its return value is
    /// black-boxed so the work is not optimised away.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run until the warm-up budget elapses (at least once),
        // and learn a per-iteration estimate while doing so.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let est_per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size each sample so `sample_size` samples fill measurement_time.
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / est_per_iter.max(1e-9)) as u64).clamp(1, 1_000_000_000);

        let mut per_iter = Vec::with_capacity(self.sample_size);
        let mut iters_total = 0u64;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            per_iter.push(t0.elapsed().as_secs_f64() / iters_per_sample as f64);
            iters_total += iters_per_sample;
        }
        self.result = Some(Samples { per_iter, iters_total });
    }
}

fn run_one(
    name: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher { sample_size, warm_up_time, measurement_time, result: None };
    f(&mut b);
    let Some(s) = b.result else {
        println!("{name:<50} (no measurement: Bencher::iter never called)");
        return;
    };
    let min = s.per_iter.iter().copied().fold(f64::INFINITY, f64::min);
    let max = s.per_iter.iter().copied().fold(0.0f64, f64::max);
    let mean = s.per_iter.iter().sum::<f64>() / s.per_iter.len() as f64;
    let mut line =
        format!("{name:<50} time: [{} {} {}]", fmt_time(min), fmt_time(mean), fmt_time(max));
    if let Some(t) = throughput {
        let (units, suffix) = match t {
            Throughput::Bytes(n) => (n as f64, "B/s"),
            Throughput::Elements(n) => (n as f64, "elem/s"),
        };
        let _ = write!(line, "  thrpt: {} {suffix}", fmt_rate(units / mean));
    }
    let _ = write!(line, "  ({} iters)", s.iters_total);
    println!("{line}");
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}")
    }
}

/// Declares a bench group function from its `config` expression.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_machinery_runs() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(4));
        c.bench_function("compat/smoke", |b| b.iter(|| black_box(3u64).pow(7)));
        let mut g = c.benchmark_group("compat-group");
        g.sample_size(2);
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::new("sum", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_with_input(BenchmarkId::from_parameter("lbl"), &(), |b, _| b.iter(|| 1 + 1));
        g.finish();
    }

    #[test]
    fn id_labels() {
        assert_eq!(BenchmarkId::new("f", 3).label, "f/3");
        assert_eq!(BenchmarkId::from_parameter("p").label, "p");
    }
}
