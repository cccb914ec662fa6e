//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prod1m-live --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer ones. The
//! last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are the human-readable report. Every
//! metric also lands in `perfbench/out/<workload>-seed<n>-trace<t>.tsv`, and a traced
//! run's spans in `perfbench/out/trace-<workload>.json`. `--workload all` runs every
//! workload untraced and traced, each in its own process, and prints the comparisons.
//! The exit code is 0 only when every correctness check passed. See `README.md`.

mod inproc;
mod layers;
mod loopback;
mod phase;
mod report;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use report::Report;
use run::{Plan, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const OUT_DIR: &str = "perfbench/out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

/// Parsed arguments; `workload` is `None` for `all`.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    let mut named = false;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                named = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 2.0 && *s <= 600.0)
                    .ok_or_else(|| format!("seconds must be within 2..=600, got {value}"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if named {
        Ok(args)
    } else {
        Err("--workload is required".into())
    }
}

fn result_path(workload: Workload, seed: u64, traced: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{}-seed{seed}-trace{}.tsv",
        workload.name(),
        u8::from(traced)
    ))
}

/// A saved metric of another run, by name.
fn saved(workload: Workload, seed: u64, traced: bool, name: &str) -> Option<f64> {
    report::load(&result_path(workload, seed, traced))?
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

/// `value / base`, printed with its base.
fn ratio_line(label: &str, value: f64, base_label: &str, base: f64, unit: &str) -> String {
    format!(
        "{label}: {:.3}x, {value:.4} {unit} over the base, {base_label} {base:.4} {unit}",
        value / base
    )
}

/// Lines comparing this run with saved runs of the same seed: live against frozen,
/// traced against untraced.
fn comparisons(plan: &Plan, r: &Report) -> Vec<String> {
    let mut lines = Vec::new();
    if !plan.traced && plan.workload != Workload::LoopbackLive {
        let (other, ours_live) = match plan.workload {
            Workload::Prod1mLive => (Workload::Prod1mFrozen, true),
            _ => (Workload::Prod1mLive, false),
        };
        for (name, unit) in [("p90_ms", "ms"), ("p99_ms", "ms"), ("capacity_rps", "1/s")] {
            let (Some(ours), Some(theirs)) = (r.value(name), saved(other, plan.seed, false, name))
            else {
                continue;
            };
            let (live, frozen) = if ours_live {
                (ours, theirs)
            } else {
                (theirs, ours)
            };
            lines.push(ratio_line(
                &format!("prod1m-live / prod1m-frozen {name}"),
                live,
                "prod1m-frozen",
                frozen,
                unit,
            ));
        }
    }
    if plan.traced {
        for (traced_name, name) in [
            ("trace.p50_ms", "p50_ms"),
            ("trace.p90_ms", "p90_ms"),
            ("trace.p99_ms", "p99_ms"),
        ] {
            if let (Some(ours), Some(base)) = (
                r.value(traced_name),
                saved(plan.workload, plan.seed, false, name),
            ) {
                lines.push(ratio_line(
                    &format!("tracing overhead {name}"),
                    ours,
                    "untraced run",
                    base,
                    "ms",
                ));
            }
        }
    }
    lines
}

fn run_one(plan: &Plan) -> ExitCode {
    let outcome = match plan.workload {
        Workload::Prod1mLive => inproc::run(plan, true),
        Workload::Prod1mFrozen => inproc::run(plan, false),
        Workload::LoopbackLive => loopback::run(plan),
    };
    let (mut r, recorder) = outcome.into_report();
    if recorder.enabled() {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", plan.workload.name()));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, recorder.to_chrome_json()));
        r.line(match written {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("spans not written: {e}"),
        });
    }
    if let Err(e) = r.save(&result_path(plan.workload, plan.seed, plan.traced)) {
        r.line(format!("result file not written: {e}"));
    }
    for line in comparisons(plan, &r) {
        r.line(line);
    }
    print!("{}", r.render());
    let names: &[&str] = if plan.traced {
        &run::PER_LAYER
    } else {
        &run::END_TO_END
    };
    match r.result_json(names) {
        Ok(json) => {
            println!("{json}");
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, untraced then traced, each in a child process of its own (so
/// peak memory is per workload), and print their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", trace])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&Plan {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
        }),
        None => run_all(&args),
    }
}
