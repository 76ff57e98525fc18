//! The `scan-lint` command-line front end. See `docs/LINTS.md` for the
//! rule catalogue and `scripts/ci.sh` for the gate invocation.

#![forbid(unsafe_code)]

use scan_lint::{report, rules, workspace::Workspace, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
scan-lint: workspace determinism-and-hygiene analyzer

USAGE:
    scan-lint [OPTIONS]

OPTIONS:
    --root <dir>           Workspace root to scan (default: current directory)
    --json                 Emit one JSON object instead of the human table
    --deny-warnings        Exit nonzero on warnings as well as errors (CI gate)
    --explain-chain        Render each finding's call chain, one hop per line
    --time-budget-ms <n>   Fail if the analysis (post-load) exceeds n milliseconds
    --list-rules           Print the rule catalogue and exit
    -h, --help             Show this help
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut deny_warnings = false;
    let mut explain_chain = false;
    let mut time_budget_ms: Option<u64> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--explain-chain" => explain_chain = true,
            "--list-rules" => {
                for rule in rules::RULES {
                    println!("{:<18} {:<8} {}", rule.id, rule.severity.to_string(), rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match argv.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --root needs a directory argument\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--time-budget-ms" => match argv.next().and_then(|n| n.parse().ok()) {
                Some(n) => time_budget_ms = Some(n),
                None => {
                    eprintln!("error: --time-budget-ms needs a millisecond count\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("error: failed to load workspace at {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    // The linter itself is host tooling, not sim-facing code, so a wall
    // clock is fine here — this measures the analyzer, not the simulation.
    let started = std::time::Instant::now();
    let result = ws.run();
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if json {
        print!("{}", report::render_json(&result));
    } else {
        print!("{}", report::render_human(&result, explain_chain));
    }

    if let Some(budget) = time_budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "error: analysis took {elapsed_ms} ms, over the {budget} ms budget; keep \
                 scan-lint fast enough to stay first in CI"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("scan-lint: analysis took {elapsed_ms} ms (budget {budget} ms)");
    }

    let fails = result.diagnostics.iter().any(|d| d.severity == Severity::Error || deny_warnings);
    if fails {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
