//! perfbench — the SCAN benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session|adaptive|fleet|recorded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: set-up
//! runs several times (median reported), then timed units run for
//! `--seconds`, rotating through repetitions 0–19, each followed by an
//! untimed output check and a few calls of the reference loop, by which
//! every time is scaled to the reference machine speed (see `calib.rs`;
//! the wall-clock figures are in the provenance line). `--trace 1` is the
//! separate traced run that breaks the unit down by layer (see
//! `traced.rs`). Either way the last stdout line is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. See README.md for the
//! metric → layer → workload map.

mod calib;
mod count;
mod report;
mod traced;
mod workload;

use report::{json_str, median, num, percentile, quartiles, Metrics};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Kind, Tally, Workload, REPETITIONS};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Set-up: build the workload and run one checked warm-up unit, which
/// also fixes repetition 0's reference. Returns the workload and the
/// set-up time in seconds.
fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<(Workload, f64), String> {
    let t = Instant::now();
    let mut wl = Workload::new(kind, seed, dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = wl.run_unit(0);
    wl.check(0, &out).map_err(|e| format!("warm-up unit failed its check: {e}"))?;
    Ok((wl, t.elapsed().as_secs_f64()))
}

/// Per-unit samples of the untraced loop.
struct Samples {
    unit_ms: Vec<f64>,
    /// Reference-loop times, taken after each unit.
    reference_ms: Vec<f64>,
    jobs: Vec<u64>,
    /// Engine events one round of repetitions dispatches: the work a
    /// seed gives a round.
    events_per_round: u64,
}

/// Runs whole rounds of repetitions 0–19, so every repetition weighs the
/// same in the medians, until another round would end nearer past
/// `seconds` than the last one ended before it.
fn timed_loop(wl: &mut Workload, seconds: f64, tally: &mut Tally) -> Samples {
    let mut s = Samples {
        unit_ms: Vec::new(),
        reference_ms: Vec::new(),
        jobs: Vec::new(),
        events_per_round: 0,
    };
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for rep in 0..REPETITIONS {
            let t = Instant::now();
            let out = wl.run_unit(rep);
            let unit_ms = t.elapsed().as_secs_f64() * 1e3;
            s.unit_ms.push(unit_ms);
            tally.record(&format!("round {rounds}, repetition {rep}"), wl.check(rep, &out));
            s.jobs.push(wl.jobs_completed(&out, rep));
            if rounds == 0 {
                s.events_per_round += wl.events(&out, rep);
            }
            calib::sample(unit_ms, &mut s.reference_ms);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rounds as f64 > seconds {
            return s;
        }
    }
}

/// Wall times of the set-ups, with the reference times taken after them.
struct Setups {
    setup_s: Vec<f64>,
    reference_ms: Vec<f64>,
}

fn untraced(
    wl: &mut Workload,
    setups: &Setups,
    seconds: f64,
    tally: &mut Tally,
) -> (Metrics, String) {
    let s = timed_loop(wl, seconds, tally);
    let sessions = wl.sessions_per_unit() as f64;
    // Every time is scaled to the reference machine speed (see calib.rs),
    // by the reference times taken in the same stretch of the run.
    let speed = calib::REFERENCE_MS / median(&s.reference_ms);
    let setup_speed = calib::REFERENCE_MS / median(&setups.reference_ms);
    let setup_s = &setups.setup_s;
    // Rates are medians over units, so a burst of load from outside the
    // process moves them no more than it moves the median unit time.
    let wall_iter_ms = median(&s.unit_ms);
    let iter_ms = wall_iter_ms * speed;
    let job_rates: Vec<f64> =
        s.unit_ms.iter().zip(&s.jobs).map(|(ms, jobs)| *jobs as f64 * 1e3 / ms).collect();
    let mut m = Metrics::default();
    m.push("sessions_per_s", sessions * 1e3 / iter_ms, "1/s");
    m.push("jobs_per_s", median(&job_rates) / speed, "1/s");
    m.push("iter_ms_p50", iter_ms, "ms");
    m.push("setup_s", median(setup_s) * setup_speed, "s");
    m.push("peak_rss_mib", report::peak_rss_mib(), "MiB");

    let q = |v: &[f64]| {
        let (a, b, c) = quartiles(v);
        format!("[{}, {}, {}]", num(a), num(b), num(c))
    };
    let n = s.unit_ms.len();
    let extra = format!(
        "\"units\": {n}, \"events_per_round\": {}, \"iter_ms_p90\": {{\"value\": {}, \"samples\": {n}}}, \
         \"wall_iter_ms_p50\": {}, \"wall_setup_s\": {}, \"reference_ms_p50\": {}, \"speed\": {}, \"setup_speed\": {}, \
         \"failed_frac\": {}, \"quartiles\": {{\"wall_iter_ms\": {}, \"wall_jobs_per_s\": {}, \
         \"wall_setup_s\": {}, \"reference_ms\": {}}}",
        s.events_per_round,
        num(percentile(&s.unit_ms, 90.0) * speed),
        num(wall_iter_ms),
        num(median(setup_s)),
        num(median(&s.reference_ms)),
        num(speed),
        num(setup_speed),
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
        q(&s.unit_ms),
        q(&job_rates),
        q(setup_s),
        q(&s.reference_ms),
    );
    (m, extra)
}

/// The run's provenance: what was measured, where, and how.
fn provenance(args: &Args, wl: &Workload, extra: &str) -> String {
    let sizes = match args.kind {
        Kind::Fleet => format!(
            "{{\"tenants\": {}, \"jobs_per_tenant\": {}, \"interval_tu\": {}, \"horizon_tu\": {}, \
             \"shared_private_cores\": {}}}",
            wl.fleet.tenants,
            wl.fleet.jobs_per_tenant,
            wl.fleet.base.variable.mean_interval,
            wl.fleet.horizon_tu,
            wl.fleet.shared_private_cores
        ),
        _ => format!(
            "{{\"horizon_tu\": {}, \"interval_tu\": {}, \"allocation\": {}, \"sessions_simulated_per_unit\": {}}}",
            wl.solo.fixed.sim_time_tu,
            wl.solo.variable.mean_interval,
            json_str(&format!("{:?}", wl.solo.variable.allocation)),
            if args.kind == Kind::Recorded { 4 } else { 1 },
        ),
    };
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"commit\": {}, \"seed\": {}, \"experiment_seed\": {}, \
         \"nproc\": {}, \"rustc\": {}, \"trace\": {}, \"seconds\": {}, \"repetitions\": {}, \
         \"sizes\": {sizes}, {extra}}}}}",
        json_str(args.kind.name()),
        json_str(&report::commit()),
        args.seed,
        wl.solo.seed,
        report::nproc(),
        json_str(env!("PERFBENCH_RUSTC")),
        u8::from(args.trace),
        num(args.seconds),
        REPETITIONS,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <session|adaptive|fleet|recorded> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".perfbench-out").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    ));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-out");
    match result {
        Ok((tally, metrics, provenance)) => {
            println!("{} — {} units, {} failed", args.kind.name(), tally.attempted, tally.failed);
            metrics.print_table();
            println!("{provenance}");
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.to_json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<(Tally, Metrics, String), String> {
    let mut setups = Setups { setup_s: Vec::new(), reference_ms: Vec::new() };
    let mut wl = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let (w, s) = setup(args.kind, args.seed, dir)?;
        setups.setup_s.push(s);
        calib::sample(s * 1e3, &mut setups.reference_ms);
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one set-up");
    let mut tally = Tally::default();
    let (metrics, extra) = if args.trace {
        let m = traced::run(&mut wl, args.seconds, &mut tally);
        (m, format!("\"units\": {}", tally.attempted))
    } else {
        untraced(&mut wl, &setups, args.seconds, &mut tally)
    };
    Ok((tally, metrics, provenance(args, &wl, &extra)))
}
