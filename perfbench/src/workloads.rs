//! The three workloads, one timed pass of each, and the correctness record
//! every pass produces.
//!
//! * `serve-heavy` — 5 configurations × 4 worlds × one benign scenario of
//!   48 standard-mix requests, run with [`CampaignPlan::run`] and folded
//!   into a [`StreamingAggregator`](nvariant_campaign::StreamingAggregator).
//! * `sharded-sweep` — the same configurations and worlds × (the three
//!   attacks + a one-request benign scenario), run as in-process shards that
//!   stream through [`ShardWriter`] to files and are k-way merged back with
//!   [`ShardMerger`] before the attack surface is rendered.
//! * `model-check` — the static verifier over every paper configuration,
//!   then the bounded checker for P1, P2 and P3 over the paper
//!   configurations × [`check_worlds`].

use crate::systems::{config_id, ms};
use nvariant::{AnalysisReport, CompiledSystem, DeploymentConfig};
use nvariant_apps::{
    attack_scenario, benign_request, benign_scenario, check_paper_matrix, check_summary,
    check_worlds, httpd_analysis_reports, httpd_check_target, Attack, WorkloadMix,
};
use nvariant_campaign::{
    run_parallel, CampaignPlan, CampaignReport, CellResult, Scenario, ShardCursor, ShardHeader,
    ShardMerger, ShardWriter, StreamingAggregator,
};
use nvariant_check::{BoundedChecker, CheckReport, CheckRequest, CheckStatus, Checker, Property};
use nvariant_simos::WorldTemplate;
use nvariant_types::Fnv1a;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed the committed reference counts and digests were taken at
/// (the campaign crate's default base seed).
pub const DEFAULT_SEED: u64 = 0x5EED;

/// How many in-process shards `sharded-sweep` splits its plan into.
pub const SHARDS: usize = 2;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Long benign cells: interpretation-bound.
    ServeHeavy,
    /// Short attack cells through the shard codec and k-way merge.
    ShardedSweep,
    /// The static verifier and the bounded model checker.
    ModelCheck,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHeavy,
        Workload::ShardedSweep,
        Workload::ModelCheck,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHeavy => "serve-heavy",
            Workload::ShardedSweep => "sharded-sweep",
            Workload::ModelCheck => "model-check",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one pass does: the measured size, or the smallest size
/// the self-tests smoke-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// The smallest size that still exercises every code path.
    Smoke,
}

impl Size {
    /// The size's name in the reference file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    fn replicates(self) -> usize {
        match self {
            Size::Full => 2,
            Size::Smoke => 1,
        }
    }

    /// Requests per `serve-heavy` cell.
    #[must_use]
    pub fn serve_requests(self) -> usize {
        match self {
            Size::Full => 48,
            Size::Smoke => 4,
        }
    }

    /// The model checker's depth bound.
    #[must_use]
    pub fn check_depth(self) -> usize {
        match self {
            Size::Full => 48,
            Size::Smoke => 12,
        }
    }
}

/// What a scenario of a benchmark plan does, kept beside the plan so the
/// traced path can regenerate a cell's requests and judge it through the
/// same public calls the campaign scenario makes.
#[derive(Clone, Debug)]
pub enum ScenarioKind {
    /// `count` requests drawn from the standard mix with the cell seed.
    Benign(usize),
    /// One fixed benign `GET /index.html`, the checker targets' request.
    IndexPage,
    /// An attack of the corpus, judged against the paper's prediction.
    Attack(Attack),
}

impl ScenarioKind {
    /// The campaign scenario this kind stands for.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        match self {
            ScenarioKind::Benign(count) => benign_scenario(&WorkloadMix::standard(), *count),
            ScenarioKind::IndexPage => {
                Scenario::fixed_requests("index", vec![benign_request("/index.html")])
            }
            ScenarioKind::Attack(attack) => attack_scenario(attack),
        }
    }
}

/// A plan plus what the benchmark needs to know about its axes.
#[derive(Clone, Debug)]
pub struct CellPlan {
    /// The campaign plan.
    pub plan: CampaignPlan,
    /// One kind per scenario of the plan, in plan order.
    pub kinds: Vec<ScenarioKind>,
    /// The plan's world axis.
    pub worlds: Vec<WorldTemplate>,
}

fn cell_plan(
    name: &str,
    compiled: &[Arc<CompiledSystem>],
    worlds: Vec<WorldTemplate>,
    kinds: Vec<ScenarioKind>,
    replicates: usize,
    seed: u64,
) -> CellPlan {
    let mut plan = CampaignPlan::new(name)
        .configs(compiled.iter().cloned())
        .worlds(worlds.iter().cloned())
        .replicates(replicates)
        .seed(seed);
    for kind in &kinds {
        plan = plan.scenario(kind.scenario());
    }
    CellPlan {
        plan,
        kinds,
        worlds,
    }
}

/// The cells a workload executes (for `model-check`, the runtime
/// counterpart of its checker targets: every configuration × check world ×
/// the targets' one benign request). The traced run drives these.
#[must_use]
pub fn cell_plan_for(
    workload: Workload,
    compiled: &[Arc<CompiledSystem>],
    size: Size,
    seed: u64,
) -> CellPlan {
    match workload {
        Workload::ServeHeavy => cell_plan(
            workload.name(),
            compiled,
            WorldTemplate::catalogue(),
            vec![ScenarioKind::Benign(size.serve_requests())],
            size.replicates(),
            seed,
        ),
        Workload::ShardedSweep => {
            let mut kinds: Vec<ScenarioKind> = Attack::all()
                .into_iter()
                .map(ScenarioKind::Attack)
                .collect();
            kinds.push(ScenarioKind::Benign(1));
            cell_plan(
                workload.name(),
                compiled,
                WorldTemplate::catalogue(),
                kinds,
                size.replicates(),
                seed,
            )
        }
        Workload::ModelCheck => cell_plan(
            workload.name(),
            compiled,
            check_worlds(),
            vec![ScenarioKind::IndexPage],
            1,
            seed,
        ),
    }
}

/// The exact simulated counts and the canonical digest of one pass: what
/// the correctness gate compares against the committed reference.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the canonical cell lines (sweeps) or the verdict lines
    /// (model-check), in canonical order.
    pub digest: u64,
    /// Cells or verdicts.
    pub units: u64,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// System calls issued.
    pub syscalls: u64,
    /// Monitor equivalence checks.
    pub checks: u64,
    /// I/O bytes moved by the kernel.
    pub io_bytes: u64,
    /// Checker states visited.
    pub states: u64,
    /// Checker states pruned.
    pub pruned: u64,
    /// Instructions the static verifier walked.
    pub verified: u64,
}

impl Fingerprint {
    /// The fingerprint of a run of cells, in the order given.
    #[must_use]
    pub fn of_cells<'a>(cells: impl IntoIterator<Item = &'a CellResult>) -> Fingerprint {
        let mut digest = Fnv1a::new();
        let mut print = Fingerprint::default();
        for cell in cells {
            digest.write_str(&cell.canonical_line());
            let metrics = &cell.outcome.metrics;
            print.units += 1;
            print.instructions += metrics.total_instructions;
            print.syscalls += metrics.syscalls;
            print.checks += metrics.monitor_checks;
            print.io_bytes += metrics.io_bytes;
        }
        print.digest = digest.finish();
        print
    }

    /// The reference-file lines for this fingerprint, keyed by workload,
    /// size and seed.
    #[must_use]
    pub fn reference_lines(&self, workload: Workload, size: Size, seed: u64) -> Vec<String> {
        let prefix = format!("{}.{}.{seed:#x}", workload.name(), size.name());
        vec![
            format!("{prefix}.digest {:#018x}", self.digest),
            format!("{prefix}.units {}", self.units),
            format!("{prefix}.instructions {}", self.instructions),
            format!("{prefix}.syscalls {}", self.syscalls),
            format!("{prefix}.checks {}", self.checks),
            format!("{prefix}.io_bytes {}", self.io_bytes),
            format!("{prefix}.states {}", self.states),
            format!("{prefix}.pruned {}", self.pruned),
            format!("{prefix}.verified {}", self.verified),
        ]
    }
}

/// The committed reference: fingerprints of every workload at every size
/// for [`DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference.txt");

/// Compares `print` with the committed reference for `(workload, size,
/// seed)`; returns one message per drifted or missing entry.
#[must_use]
pub(crate) fn reference_drift(
    print: &Fingerprint,
    workload: Workload,
    size: Size,
    seed: u64,
) -> Vec<String> {
    let committed: Vec<&str> = REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    print
        .reference_lines(workload, size, seed)
        .into_iter()
        .filter(|line| !committed.contains(&line.as_str()))
        .map(|line| {
            let key = line.split_whitespace().next().unwrap_or_default();
            let expected = committed
                .iter()
                .find(|c| c.split_whitespace().next() == Some(key))
                .map_or("(no reference)", |c| c);
            format!("reference drift: measured `{line}`, committed `{expected}`")
        })
        .collect()
}

/// Per-property checker figures from one model-check pass.
#[derive(Clone, Debug, Default)]
pub struct PropertyStats {
    /// Property key (`P1`/`P2`/`P3`).
    pub key: &'static str,
    /// Seconds the property's matrix cells took, summed.
    pub wall_s: f64,
    /// States visited across the matrix.
    pub states: u64,
    /// States pruned across the matrix.
    pub pruned: u64,
}

/// Everything one pass measured and checked.
#[derive(Clone, Debug, Default)]
pub struct PassRecord {
    /// The whole pass, execution plus result path, in seconds.
    pub wall_s: f64,
    /// The result path alone (fold and render; for `sharded-sweep` encode →
    /// merge → fold → surface; for `model-check` verdict rendering).
    pub result_s: f64,
    /// Cells (sweeps) or verdicts (model-check) completed.
    pub units: usize,
    /// HTTP requests served (sweeps) or request services the checker ran
    /// to termination (model-check).
    pub requests: u64,
    /// Wall time of each cell (or checker job), in milliseconds.
    pub unit_ms: Vec<f64>,
    /// Sum of the cell (job) walls, in seconds.
    pub busy_s: f64,
    /// Wall time of the worker-pool phases, in seconds.
    pub pool_s: f64,
    /// Counts and digest for the correctness gate.
    pub fingerprint: Fingerprint,
    /// Operations attempted (cells, merges, verdicts).
    pub attempted: usize,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Static-verifier wall per paper configuration, in milliseconds.
    pub analysis_ms: Vec<f64>,
    /// Checker figures per property.
    pub properties: Vec<PropertyStats>,
    /// The shard codec's phases (`sharded-sweep` only).
    pub codec: CodecPhases,
}

/// Checks the seed-independent invariants of one cell: a judged cell
/// matches its prediction, a benign cell exits normally without an alarm.
fn cell_failures(cell: &CellResult, failures: &mut Vec<String>) {
    match &cell.verdict {
        Some(verdict) if !verdict.matches() => failures.push(format!(
            "verdict mismatch: {}/{} in {}",
            verdict.observed,
            verdict.expected,
            cell.canonical_line()
        )),
        Some(_) => {}
        None if !cell.outcome.exited_normally() => failures.push(format!(
            "benign cell did not exit cleanly: {}",
            cell.canonical_line()
        )),
        None => {}
    }
}

fn record_cells(record: &mut PassRecord, cells: &[CellResult]) {
    for cell in cells {
        record.attempted += 1;
        record.unit_ms.push(ms(cell.wall));
        record.busy_s += cell.wall.as_secs_f64();
        record.requests += cell.exchanges.len() as u64;
        cell_failures(cell, &mut record.failures);
    }
    record.units += cells.len();
}

/// One `serve-heavy` pass: run the plan on the worker pool, then fold the
/// cells into a streaming aggregator and render its summary.
#[must_use]
pub(crate) fn serve_heavy_pass(cells: &CellPlan, workers: usize) -> PassRecord {
    let started = Instant::now();
    let report = cells.plan.run(workers);
    let pool = started.elapsed();
    let folded = Instant::now();
    let aggregator = report.fold_aggregator();
    black_box(aggregator.render_summary());
    let result = folded.elapsed();
    let wall = started.elapsed();
    let mut record = PassRecord {
        wall_s: wall.as_secs_f64(),
        result_s: result.as_secs_f64(),
        pool_s: pool.as_secs_f64(),
        fingerprint: Fingerprint::of_cells(&report.cells),
        ..PassRecord::default()
    };
    record_cells(&mut record, &report.cells);
    if aggregator.cells() != report.cells.len() {
        record.failures.push(format!(
            "aggregator folded {} of {} cells",
            aggregator.cells(),
            report.cells.len()
        ));
    }
    record
}

/// Writes `report` as a shard file through the streaming writer; returns
/// the bytes written.
///
/// # Errors
///
/// Propagates file-system errors.
pub(crate) fn write_shard(report: &CampaignReport, path: &Path) -> std::io::Result<u64> {
    let header = ShardHeader {
        name: report.name.clone(),
        base_seed: report.base_seed,
        plan_hash: report.plan_hash,
        shape: report.shape,
        workers: report.workers,
        total_wall: report.total_wall,
    };
    let file = std::fs::File::create(path)?;
    let mut writer = ShardWriter::new(BufWriter::new(file), &header)?;
    for cell in &report.cells {
        writer.push(cell)?;
    }
    writer.finish()?;
    Ok(std::fs::metadata(path)?.len())
}

/// k-way merges shard files; returns the merged header and the cells in
/// canonical order.
///
/// # Errors
///
/// Returns the merge or parse error as text.
pub(crate) fn merge_shards(paths: &[PathBuf]) -> Result<(ShardHeader, Vec<CellResult>), String> {
    let cursors = paths
        .iter()
        .map(|path| ShardCursor::open(path).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut merger = ShardMerger::new(cursors).map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    while let Some(cell) = merger.next_cell().map_err(|e| e.to_string())? {
        cells.push(cell);
    }
    Ok((merger.header().clone(), cells))
}

/// Folds merged cells into a streaming aggregator and renders the attack
/// surface.
#[must_use]
pub(crate) fn fold_surface(header: &ShardHeader, cells: &[CellResult]) -> String {
    let mut aggregator = StreamingAggregator::from_header(header);
    for cell in cells {
        aggregator.absorb(cell);
    }
    aggregator.render_surface()
}

/// The shard file paths of one pass under `dir`.
#[must_use]
pub(crate) fn shard_paths(dir: &Path, shards: usize) -> Vec<PathBuf> {
    (0..shards)
        .map(|index| dir.join(format!("shard-{index}-of-{shards}.txt")))
        .collect()
}

/// Seconds and bytes of each phase of a sharded pass's result path.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecPhases {
    /// Streaming every shard to its file.
    pub encode_s: f64,
    /// The k-way merge, which decodes as it merges.
    pub merge_s: f64,
    /// Folding the merged cells and rendering the surface.
    pub fold_s: f64,
    /// Shard file bytes written.
    pub bytes: u64,
}

/// One `sharded-sweep` pass: run each shard on the worker pool and stream
/// it to a file, then k-way merge the files, fold the merged cells into an
/// aggregator and render the attack surface. The digest is taken over the
/// merged cells, which are returned with the record; the shard files stay
/// in `dir` until the next pass overwrites them.
#[must_use]
pub(crate) fn sharded_pass(
    cells: &CellPlan,
    workers: usize,
    dir: &Path,
) -> (PassRecord, Vec<CellResult>) {
    let started = Instant::now();
    let paths = shard_paths(dir, SHARDS);
    let mut record = PassRecord::default();
    let mut pool = Duration::ZERO;
    let mut codec = CodecPhases::default();
    for (index, path) in paths.iter().enumerate() {
        let t = Instant::now();
        let report = cells.plan.run_shard(index, SHARDS, workers);
        pool += t.elapsed();
        record_cells(&mut record, &report.cells);
        let t = Instant::now();
        let written = write_shard(&report, path);
        codec.encode_s += t.elapsed().as_secs_f64();
        record.attempted += 1;
        match written {
            Ok(bytes) => codec.bytes += bytes,
            Err(error) => record
                .failures
                .push(format!("writing {}: {error}", path.display())),
        }
    }
    let t = Instant::now();
    let merged = merge_shards(&paths);
    codec.merge_s = t.elapsed().as_secs_f64();
    record.attempted += 1;
    let merged_cells = match merged {
        Ok((header, merged_cells)) => {
            let t = Instant::now();
            black_box(fold_surface(&header, &merged_cells));
            codec.fold_s = t.elapsed().as_secs_f64();
            merged_cells
        }
        Err(error) => {
            record.failures.push(format!("merge failed: {error}"));
            Vec::new()
        }
    };
    let wall = started.elapsed();
    record.fingerprint = Fingerprint::of_cells(&merged_cells);
    record.wall_s = wall.as_secs_f64();
    record.result_s = codec.encode_s + codec.merge_s + codec.fold_s;
    record.pool_s = pool.as_secs_f64();
    record.codec = codec;
    (record, merged_cells)
}

/// One job of the model-check pass: the static verifier over one
/// configuration, or one cell of a property's check matrix.
#[derive(Clone, Debug)]
enum CheckJob {
    Analysis(DeploymentConfig),
    /// A property, a configuration and an index into [`check_worlds`].
    Check(Property, DeploymentConfig, usize),
}

enum JobOutput {
    Analysis(DeploymentConfig, Vec<AnalysisReport>),
    Check(Property, CheckReport),
}

/// The model-check pass's jobs in canonical order: the verifier for every
/// paper configuration, then the cells of [`check_paper_matrix`] for P1, P2
/// and P3 in that function's order (configuration-major over
/// [`check_worlds`]), so each verdict is timed on its own.
fn check_jobs() -> Vec<CheckJob> {
    let configs = DeploymentConfig::paper_configurations();
    let mut jobs: Vec<CheckJob> = configs.iter().cloned().map(CheckJob::Analysis).collect();
    for property in Property::all() {
        for config in &configs {
            for world in 0..check_worlds().len() {
                jobs.push(CheckJob::Check(property, config.clone(), world));
            }
        }
    }
    jobs
}

/// The model-check digest computed the plain way: the verifier's reports
/// for every paper configuration, then `check_paper_matrix` for P1, P2 and
/// P3. Pins the pass's per-cell jobs to the matrix function they unroll.
#[must_use]
pub fn matrix_digest(size: Size) -> u64 {
    let mut digest = Fnv1a::new();
    for config in DeploymentConfig::paper_configurations() {
        for report in httpd_analysis_reports(&config) {
            digest.write_str(&report.render());
        }
    }
    for property in Property::all() {
        for report in check_paper_matrix(property, size.check_depth()) {
            digest.write_str(&verdict_line(&report));
        }
    }
    digest.finish()
}

/// One check verdict as the pass digests it: the checker's summary line
/// and the campaign-side check summary.
fn verdict_line(report: &CheckReport) -> String {
    format!("{}\n{}", report.summary_line(), check_summary(report))
}

/// The job order a seed selects: a seeded Fisher–Yates shuffle of the
/// canonical job list. Results are put back in canonical order, so the
/// seed moves only the schedule, never a verdict.
#[must_use]
pub(crate) fn job_order(jobs: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    for i in (1..jobs).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Timings of the model-check result path per pass.
const RENDER_REPS: usize = 25;

/// Renders every verdict line in canonical order, as the `nvariant_check`
/// and `nvariant_analyze` reports print them, and digests them.
fn render_verdicts(outputs: &[(usize, JobOutput, Duration)]) -> u64 {
    let mut digest = Fnv1a::new();
    for (_, output, _) in outputs {
        match output {
            JobOutput::Analysis(_, reports) => {
                for report in reports {
                    digest.write_str(&report.render());
                }
            }
            JobOutput::Check(_, report) => {
                digest.write_str(&verdict_line(report));
            }
        }
    }
    digest.finish()
}

/// One `model-check` pass: the static verifier for every paper
/// configuration and every cell of the checker's P1/P2/P3 matrices, as
/// jobs on the worker pool in seed-shuffled order, then every verdict
/// rendered.
#[must_use]
pub fn model_check_pass(size: Size, workers: usize, seed: u64) -> PassRecord {
    let jobs = check_jobs();
    let order = job_order(jobs.len(), seed);
    let shuffled: Vec<(usize, CheckJob)> = order.iter().map(|&i| (i, jobs[i].clone())).collect();
    let depth = size.check_depth();
    let started = Instant::now();
    let mut outputs = run_parallel(shuffled, workers, |_, (index, job)| {
        let t = Instant::now();
        let output = match job {
            CheckJob::Analysis(config) => {
                let reports = httpd_analysis_reports(&config);
                JobOutput::Analysis(config, reports)
            }
            CheckJob::Check(property, config, world) => {
                let target = httpd_check_target(&config, check_worlds().swap_remove(world));
                let report = BoundedChecker.check(&target, &CheckRequest::new(property, depth));
                JobOutput::Check(property, report)
            }
        };
        (index, output, t.elapsed())
    });
    let pool = started.elapsed();
    outputs.sort_by_key(|(index, _, _)| *index);

    let mut record = PassRecord {
        pool_s: pool.as_secs_f64(),
        ..PassRecord::default()
    };
    for (_, output, wall) in &outputs {
        record.attempted += 1;
        record.unit_ms.push(ms(*wall));
        record.busy_s += wall.as_secs_f64();
        match output {
            JobOutput::Analysis(config, reports) => {
                record.analysis_ms.push(ms(*wall));
                for report in reports {
                    record.units += 1;
                    record.fingerprint.verified += report.instructions as u64;
                    if !report.is_clean() {
                        record.failures.push(format!(
                            "static verifier finding under {}: {}",
                            config_id(config),
                            report.render()
                        ));
                    }
                }
            }
            JobOutput::Check(property, report) => {
                record.units += 1;
                // Jobs arrive in canonical order, one property after another.
                if record
                    .properties
                    .last()
                    .is_none_or(|s| s.key != property.key())
                {
                    record.properties.push(PropertyStats {
                        key: property.key(),
                        ..PropertyStats::default()
                    });
                }
                let stats = record.properties.last_mut().expect("pushed above");
                stats.wall_s += wall.as_secs_f64();
                stats.states += report.stats.states_visited;
                stats.pruned += report.stats.states_pruned;
                record.fingerprint.states += report.stats.states_visited;
                record.fingerprint.pruned += report.stats.states_pruned;
                record.requests += report.stats.terminal_runs;
                if report.status != CheckStatus::Pass {
                    record
                        .failures
                        .push(format!("check failed: {}", report.summary_line()));
                }
            }
        }
    }
    // The result path renders a few dozen verdict lines in tens of
    // microseconds, too little to time once against host noise: it is
    // timed RENDER_REPS times and the median taken.
    let mut render_s = Vec::with_capacity(RENDER_REPS);
    for _ in 0..RENDER_REPS {
        let mark = Instant::now();
        record.fingerprint.digest = black_box(render_verdicts(&outputs));
        render_s.push(mark.elapsed().as_secs_f64());
    }
    record.fingerprint.units = record.units as u64;
    record.result_s = crate::stats::median(&render_s);
    record.wall_s = record.pool_s + record.result_s;
    record
}

/// Runs one pass of `workload` and returns its record.
#[must_use]
pub fn run_pass(
    workload: Workload,
    cells: &CellPlan,
    size: Size,
    workers: usize,
    seed: u64,
    dir: &Path,
) -> PassRecord {
    match workload {
        Workload::ServeHeavy => serve_heavy_pass(cells, workers),
        Workload::ShardedSweep => sharded_pass(cells, workers, dir).0,
        Workload::ModelCheck => model_check_pass(size, workers, seed),
    }
}
