//! `nvariant_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its unit, and ends with one
//! JSON result line. `--print-reference` prints the correctness gate's
//! reference file.

use nvariant_perfbench::bench::{self, Options};
use nvariant_perfbench::metrics::result_line;
use nvariant_perfbench::systems;
use nvariant_perfbench::workloads::{cell_plan_for, run_pass, Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: nvariant_perfbench --workload <serve-heavy|sharded-sweep|model-check> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     nvariant_perfbench --print-reference";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// Prints the reference fingerprints of every workload at every size.
fn print_reference() {
    let _ = nvariant_apps::scenarios::init_artifact_store(None);
    let setup = systems::Setup::new();
    let dir = bench::work_dir();
    std::fs::create_dir_all(&dir).expect("the scratch directory is creatable");
    println!("# Correctness-gate reference at seed {DEFAULT_SEED:#x}: regenerate with --print-reference.");
    for workload in Workload::ALL {
        for size in [Size::Full, Size::Smoke] {
            let cells = cell_plan_for(workload, &setup.compiled, size, DEFAULT_SEED);
            let pass = run_pass(workload, &cells, size, bench::WORKERS, DEFAULT_SEED, &dir);
            for failure in &pass.failures {
                eprintln!("{failure}");
            }
            for line in pass
                .fingerprint
                .reference_lines(workload, size, DEFAULT_SEED)
            {
                println!("{line}");
            }
        }
    }
    bench::remove_work_dir(&dir);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-reference"] {
        print_reference();
        return ExitCode::SUCCESS;
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(&options);
    println!(
        "workload {} seed {} mode {}",
        options.workload.name(),
        options.seed,
        if options.trace {
            "traced"
        } else {
            "end-to-end"
        }
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if options.trace {
        for metric in &outcome.metrics {
            println!("{} = {:.4} {}", metric.name, metric.value, metric.unit);
        }
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted.max(1),
            outcome.failures.len(),
            &outcome.metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
