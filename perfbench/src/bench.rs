//! One benchmark run: set-up, the correctness gate, then either the timed
//! end-to-end passes or the traced per-layer rounds.

use crate::metrics::Metric;
use crate::stats::{
    calibration_ns_per_iter, describe, median, peak_rss_mb, quantile, reset_peak_rss,
};
use crate::systems::Setup;
use crate::trace;
use crate::workloads::{
    cell_plan_for, reference_drift, run_pass, CellPlan, Fingerprint, PassRecord, Size, Workload,
    DEFAULT_SEED,
};
use nvariant_apps::scenarios::init_artifact_store;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Timed passes a run makes even when they outlast `--seconds`.
pub(crate) const MIN_PASSES: usize = 3;

/// Calibration-loop timings taken before and after the measured phase.
const CALIBRATION_REPS: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed (the plans' base seed).
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced per-layer mode instead of the end-to-end mode.
    pub trace: bool,
    /// The size of one pass.
    pub size: Size,
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: every metric with its sample summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and the gate held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The worker threads a run uses. One: on a two-CPU host shared with
/// other tenants, two workers put every pass at the mercy of the busier
/// CPU, and the run-to-run spread of the throughput metrics grew from about
/// 2-5% to 9-15% in trials. One worker is within "at most `nproc`" and
/// keeps the engine's own overhead measurable.
pub const WORKERS: usize = 1;

/// A fresh private scratch directory for one run's shard files, inside
/// this package's directory (unique per process and per call, so runs in
/// one process never share shard files).
#[must_use]
pub fn work_dir() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{run}", std::process::id()))
}

/// Deletes a run's scratch directory, and its parent once no other run
/// uses it.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// The correctness gate at [`DEFAULT_SEED`]: one pass compared with the
/// committed reference, and for `sharded-sweep` the merged digest compared
/// with an unsharded run's.
fn gate(
    options: &Options,
    cells: &CellPlan,
    workers: usize,
    dir: &Path,
    outcome: &mut Outcome,
) -> PassRecord {
    let pass = run_pass(
        options.workload,
        cells,
        options.size,
        workers,
        DEFAULT_SEED,
        dir,
    );
    outcome.attempted += pass.attempted + 1;
    outcome.failures.extend(pass.failures.iter().cloned());
    outcome.failures.extend(reference_drift(
        &pass.fingerprint,
        options.workload,
        options.size,
        DEFAULT_SEED,
    ));
    pass
}

/// The digest of the plan run unsharded, in one piece.
fn unsharded_digest(cells: &CellPlan, workers: usize) -> u64 {
    Fingerprint::of_cells(&cells.plan.run(workers).cells).digest
}

/// Runs the benchmark once.
#[must_use]
pub fn run(options: &Options) -> Outcome {
    // Memory-only artifact caching: a cache directory from the environment
    // would let a run skip the compiles it is meant to measure.
    let _ = init_artifact_store(None);
    let workers = WORKERS;
    let mut outcome = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let dir = work_dir();
    if let Err(error) = std::fs::create_dir_all(&dir) {
        outcome.attempted += 1;
        outcome
            .failures
            .push(format!("creating {}: {error}", dir.display()));
        return outcome;
    }
    let mut calibration: Vec<f64> = (0..CALIBRATION_REPS)
        .map(|_| calibration_ns_per_iter())
        .collect();

    let mut setup = Setup::new();
    let gate_cells = cell_plan_for(
        options.workload,
        &setup.compiled,
        options.size,
        DEFAULT_SEED,
    );
    let gate_pass = gate(options, &gate_cells, workers, &dir, &mut outcome);
    let cells = if options.seed == DEFAULT_SEED {
        gate_cells.clone()
    } else {
        cell_plan_for(
            options.workload,
            &setup.compiled,
            options.size,
            options.seed,
        )
    };
    // The digest every timed pass of this seed must reproduce.
    let expected = match options.workload {
        Workload::ShardedSweep => {
            outcome.attempted += 2;
            let gate_unsharded = unsharded_digest(&gate_cells, workers);
            if gate_unsharded != gate_pass.fingerprint.digest {
                outcome.failures.push(format!(
                    "merged digest {:#018x} differs from the unsharded run's {gate_unsharded:#018x}",
                    gate_pass.fingerprint.digest
                ));
            }
            Some(if options.seed == DEFAULT_SEED {
                gate_unsharded
            } else {
                unsharded_digest(&cells, workers)
            })
        }
        Workload::ModelCheck => Some(gate_pass.fingerprint.digest),
        Workload::ServeHeavy => {
            (options.seed == DEFAULT_SEED).then_some(gate_pass.fingerprint.digest)
        }
    };

    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    if options.trace {
        let traced = trace::run_traced(options, &mut setup, &cells, workers, deadline, &dir);
        outcome.attempted += traced.attempted;
        outcome.failures.extend(traced.failures);
        outcome.metrics = traced.metrics;
        outcome.notes = traced.notes;
    } else {
        let passes = timed_passes(
            options,
            &cells,
            workers,
            deadline,
            expected,
            &dir,
            &mut setup,
            &mut outcome,
        );
        end_to_end_metrics(&passes, &setup, &mut outcome);
    }
    calibration.extend((0..CALIBRATION_REPS).map(|_| calibration_ns_per_iter()));
    remove_work_dir(&dir);

    let calibration_ns = median(&calibration);
    outcome.notes.push(format!(
        "host: {workers} workers of {} available; calibration loop {} ns/iter",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        describe(&calibration)
    ));
    if options.trace {
        outcome
            .metrics
            .push(Metric::new("host.calibration_ns", "ns", calibration_ns));
    }
    outcome.notes.push(format!(
        "failed_ratio {:.6} ({} of {} operations)",
        outcome.failures.len() as f64 / outcome.attempted.max(1) as f64,
        outcome.failures.len(),
        outcome.attempted
    ));
    outcome
}

/// One timed pass and the process's peak resident set during it.
struct TimedPass {
    record: PassRecord,
    /// `VmHWM` in MiB, with the watermark reset just before the pass (or
    /// the whole process's peak where it cannot be reset).
    peak_rss_mb: Option<f64>,
}

/// Runs passes at the run's seed until the deadline (and at least
/// [`MIN_PASSES`]), checking each against the expected digest. A set-up
/// round follows every pass, so the `setup_s` samples spread over the whole
/// measured phase like the passes do instead of sitting in one burst before
/// it; the peak-RSS watermark is reset before each pass and read after it,
/// so set-up and the gate stay out of `peak_rss_mb`.
#[allow(clippy::too_many_arguments)]
fn timed_passes(
    options: &Options,
    cells: &CellPlan,
    workers: usize,
    deadline: Instant,
    mut expected: Option<u64>,
    dir: &Path,
    setup: &mut Setup,
    outcome: &mut Outcome,
) -> Vec<TimedPass> {
    let mut passes = Vec::new();
    if !reset_peak_rss() {
        outcome.notes.push(
            "peak RSS watermark cannot be reset here: peak_rss_mb covers the whole process"
                .to_string(),
        );
    }
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        reset_peak_rss();
        let pass = run_pass(
            options.workload,
            cells,
            options.size,
            workers,
            options.seed,
            dir,
        );
        let peak = peak_rss_mb();
        outcome.attempted += pass.attempted;
        outcome.failures.extend(pass.failures.iter().cloned());
        let digest = pass.fingerprint.digest;
        match expected {
            Some(want) if want != digest => outcome.failures.push(format!(
                "pass {} digest {digest:#018x} differs from the expected {want:#018x}",
                passes.len()
            )),
            Some(_) => {}
            None => expected = Some(digest),
        }
        passes.push(TimedPass {
            record: pass,
            peak_rss_mb: peak,
        });
        setup.round();
    }
    passes
}

/// The share of a run's passes that are slower than the pass whose
/// throughput the run reports (its fast decile).
const FAST_DECILE: f64 = 0.9;

/// The end-to-end metrics of a run's timed passes. The throughputs and the
/// pass time `verdict_s` come from the run's fast decile of passes: the
/// 90th percentile of per-pass throughput, the 10th of pass time. Other
/// tenants of a shared host slow a varying share of a run's passes by up
/// to half, so the run total moves with how contended the run happened to
/// be: over ten 30 s `serve-heavy` runs its spread was 17%, against 8% for
/// the fast decile, and over five `sharded-sweep` runs 12% against 9%. A
/// change to the code moves every pass, the fastest too. The run totals
/// are printed beside them. The per-cell tail is a pooled percentile.
fn end_to_end_metrics(timed: &[TimedPass], setup: &Setup, outcome: &mut Outcome) {
    let passes: Vec<&PassRecord> = timed.iter().map(|t| &t.record).collect();
    let per_pass =
        |f: &dyn Fn(&PassRecord) -> f64| passes.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let total = |f: &dyn Fn(&PassRecord) -> f64| passes.iter().map(|p| f(p)).sum::<f64>();
    let fast = |values: &[f64]| quantile(values, FAST_DECILE).unwrap_or_default();
    let units = total(&|p| p.units as f64);
    let wall = total(&|p| p.wall_s);
    let cells_per_s = per_pass(&|p| p.units as f64 / p.wall_s);
    let requests_per_s = per_pass(&|p| p.requests as f64 / p.wall_s);
    let merge_cells_per_s = per_pass(&|p| p.units as f64 / p.result_s);
    let verdict_s = per_pass(&|p| p.wall_s);
    let unit_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_ms.iter().copied())
        .collect();
    outcome.notes.push(format!(
        "run totals: {:.4} cells/s, {:.4} requests/s, {:.4} result-path cells/s, {:.4} s per pass",
        units / wall,
        total(&|p| p.requests as f64) / wall,
        units / total(&|p| p.result_s),
        wall / passes.len() as f64
    ));
    let rss_per_pass: Vec<f64> = timed.iter().filter_map(|t| t.peak_rss_mb).collect();
    let rss = (rss_per_pass.len() == timed.len())
        .then(|| rss_per_pass.iter().copied().fold(0.0, f64::max));
    if rss.is_none() {
        outcome.attempted += 1;
        outcome
            .failures
            .push("peak RSS unavailable: /proc/self/status has no VmHWM".to_string());
    }
    // The median cell wall is printed but not a BENCHMARK.json metric: under
    // host contention each cell runs in a fast or a slow mode, and the
    // median flipped between them from run to run (a spread of 26-38% over
    // ten runs) while the run totals and the p99 stayed within 4-17%.
    outcome.notes.push(format!(
        "cell_p50_ms = {:.4} ms (printed, not gated)",
        quantile(&unit_ms, 0.5).unwrap_or_default()
    ));
    let series: [(&str, &'static str, f64, &[f64]); 7] = [
        ("cells_per_s", "1/s", fast(&cells_per_s), &cells_per_s),
        (
            "requests_per_s",
            "1/s",
            fast(&requests_per_s),
            &requests_per_s,
        ),
        (
            "cell_p99_ms",
            "ms",
            quantile(&unit_ms, 0.99).unwrap_or_default(),
            &unit_ms,
        ),
        (
            "merge_cells_per_s",
            "1/s",
            fast(&merge_cells_per_s),
            &merge_cells_per_s,
        ),
        (
            "verdict_s",
            "s",
            quantile(&verdict_s, 1.0 - FAST_DECILE).unwrap_or_default(),
            &verdict_s,
        ),
        ("setup_s", "s", median(&setup.setup_s), &setup.setup_s),
        ("peak_rss_mb", "MiB", rss.unwrap_or_default(), &rss_per_pass),
    ];
    for (name, unit, value, samples) in series {
        outcome.metrics.push(Metric::new(name, unit, value));
        let detail = if samples.is_empty() {
            String::new()
        } else {
            format!("  [{}]", describe(samples))
        };
        outcome
            .notes
            .push(format!("{name} = {value:.4} {unit}{detail}"));
    }
    outcome.notes.push(format!(
        "{} timed passes, {} units each",
        passes.len(),
        passes.first().map_or(0, |p| p.units)
    ));
}
