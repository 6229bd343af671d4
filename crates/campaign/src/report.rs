//! Aggregated campaign results: per-cell observations, summary statistics,
//! and the merge operation that reassembles sharded runs.

use crate::cell::{CellResult, RequestTally};
use crate::shardio::ShardHeader;
use crate::streaming::{CoordinateWalk, ReportCells, ShardMerger, StreamMergeError};
use nvariant::{CacheStats, ExecutionMetrics};
use nvariant_transform::TransformStats;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The dimensions of a plan's cell matrix: how many positions each axis
/// has.
///
/// Every [`CampaignReport`] records the shape of the plan it came from, so
/// [`CampaignReport::merge`] can enumerate the plan's expected coordinate
/// set and detect missing or foreign cells *without re-running the plan* —
/// the shape, together with the plan hash, is what turns merging from
/// "trust the shards" into validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanShape {
    /// Number of configurations on the deployment axis.
    pub configs: usize,
    /// Number of worlds on the environment axis (1 when the plan has only
    /// the implicit template world).
    pub worlds: usize,
    /// Number of scenarios.
    pub scenarios: usize,
    /// Replicates per (configuration, world, scenario) triple.
    pub replicates: usize,
}

impl PlanShape {
    /// Total number of cells in the matrix.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.configs * self.worlds * self.scenarios * self.replicates
    }

    /// Total number of cells, or `None` when the product overflows `usize`
    /// — possible only for hand-crafted or corrupted shapes, which is
    /// exactly when a parser-fed [`CampaignReport::merge`] must reject the
    /// shape instead of trusting it with arithmetic or allocations.
    #[must_use]
    pub fn checked_cell_count(&self) -> Option<usize> {
        self.configs
            .checked_mul(self.worlds)?
            .checked_mul(self.scenarios)?
            .checked_mul(self.replicates)
    }

    /// Whether the coordinates fall inside the matrix.
    #[must_use]
    pub fn contains(
        &self,
        (config, world, scenario, replicate): (usize, usize, usize, usize),
    ) -> bool {
        config < self.configs
            && world < self.worlds
            && scenario < self.scenarios
            && replicate < self.replicates
    }

    /// Every coordinate of the matrix, in canonical (config-major) order —
    /// the exact cell set a complete merge must cover. Allocates
    /// [`cell_count`](Self::cell_count) entries, so call it on shapes from
    /// trusted plans, not on shapes parsed from untrusted shard files.
    #[must_use]
    pub fn coordinates(&self) -> Vec<(usize, usize, usize, usize)> {
        CoordinateWalk::new(*self).collect()
    }
}

impl fmt::Display for PlanShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}",
            self.configs, self.worlds, self.scenarios, self.replicates
        )
    }
}

/// Why a shard set failed validation — in [`ShardMerger`] (which
/// [`CampaignReport::merge`] runs on) or at the expected-plan gate
/// ([`ShardHeader::check_plan`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// No reports were supplied.
    Empty,
    /// Two shards claim to come from differently named plans.
    NameMismatch(String, String),
    /// Two shards claim to come from plans with different base seeds.
    SeedMismatch(u64, u64),
    /// A shard's plan hash differs from the plan the merge is gated on
    /// (another shard's, or the expected plan's): the plans differ
    /// somewhere on the axes (configurations, worlds, scenarios or
    /// replicates), so their cells are not comparable.
    PlanMismatch {
        /// Plan hash the merge is gated on.
        merged: u64,
        /// The disagreeing shard's plan hash.
        shard: u64,
    },
    /// A shard declares a matrix shape (second) other than the one the
    /// merge is gated on (first) — possible only for hand-assembled reports
    /// or tampered headers, since plan-produced shards with equal hashes
    /// always agree on shape.
    ShapeMismatch(PlanShape, PlanShape),
    /// Two shards both contain the cell at these canonical coordinates
    /// (config, world, scenario, replicate) — they do not partition a plan.
    DuplicateCell(usize, usize, usize, usize),
    /// A shard contains a cell whose coordinates fall outside the plan's
    /// matrix shape.
    UnexpectedCell(usize, usize, usize, usize),
    /// The merged shards do not cover the plan's full cell matrix: the
    /// shard set is incomplete (a worker's report is missing or was
    /// truncated).
    MissingCells {
        /// The first uncovered coordinates, in canonical order (capped, so
        /// a near-empty merge of a huge plan stays cheap to report).
        missing: Vec<(usize, usize, usize, usize)>,
        /// How many cells the merged shards actually covered.
        covered: usize,
        /// How many cells the plan's matrix expects in total.
        expected: usize,
    },
    /// The reports declare a matrix shape whose cell count overflows —
    /// impossible for a real plan (its cell list exists in memory), so the
    /// shape can only come from a corrupted or adversarial shard file.
    ImplausibleShape(PlanShape),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::NameMismatch(a, b) => {
                write!(f, "shards come from different plans: {a:?} vs {b:?}")
            }
            MergeError::SeedMismatch(a, b) => {
                write!(f, "shards come from different base seeds: {a:#x} vs {b:#x}")
            }
            MergeError::PlanMismatch { merged, shard } => write!(
                f,
                "shards come from differently shaped plans: shard plan hash {shard:#018x} \
                 does not match this plan ({merged:#018x})"
            ),
            MergeError::ShapeMismatch(merged, shard) => write!(
                f,
                "shard declares matrix shape {shard} but this plan is {merged}"
            ),
            MergeError::DuplicateCell(c, w, s, r) => write!(
                f,
                "cell (config {c}, world {w}, scenario {s}, replicate {r}) appears in more \
                 than one shard"
            ),
            MergeError::UnexpectedCell(c, w, s, r) => write!(
                f,
                "cell (config {c}, world {w}, scenario {s}, replicate {r}) falls outside \
                 the plan's matrix"
            ),
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                write!(
                    f,
                    "merged shards cover {covered} of {expected} cells; missing"
                )?;
                let shown = missing.len().min(8);
                for (i, (c, w, s, r)) in missing.iter().take(shown).enumerate() {
                    let sep = if i == 0 { ' ' } else { ',' };
                    write!(
                        f,
                        "{sep}(config {c}, world {w}, scenario {s}, replicate {r})"
                    )?;
                }
                let unshown = expected - covered - shown;
                if unshown > 0 {
                    write!(f, " and {unshown} more")?;
                }
                Ok(())
            }
            MergeError::ImplausibleShape(shape) => {
                write!(f, "shards declare an implausible matrix shape {shape}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Nearest-rank latency percentiles over per-cell wall-clock times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallPercentiles {
    /// Median per-cell wall time.
    pub p50: Duration,
    /// 95th-percentile per-cell wall time.
    pub p95: Duration,
    /// 99th-percentile per-cell wall time.
    pub p99: Duration,
}

impl fmt::Display for WallPercentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.1?}, p95 {:.1?}, p99 {:.1?}",
            self.p50, self.p95, self.p99
        )
    }
}

/// Everything a campaign run produced: per-cell results plus run metadata.
///
/// The deterministic content — every cell's spec, outcome, exchanges,
/// verdict — is fixed by the plan and base seed alone;
/// [`canonical_text`](Self::canonical_text) serializes exactly that subset,
/// so runs at different worker counts, and sharded runs reassembled with
/// [`merge`](Self::merge), compare byte-identically. Wall-clock fields
/// (`total_wall`, per-cell `wall`, `workers`) are measurement metadata and
/// stay out of the canonical form.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The plan's name.
    pub name: String,
    /// The plan's base seed.
    pub base_seed: u64,
    /// The canonical hash of the plan this report came from
    /// ([`CampaignPlan::plan_hash`](crate::CampaignPlan::plan_hash)):
    /// name, base seed and the full axes. [`merge`](Self::merge) refuses to
    /// combine reports with different hashes, so shards from
    /// differently-shaped plans can never silently blend into one report.
    pub plan_hash: u64,
    /// The dimensions of the plan's cell matrix, recorded so
    /// [`merge`](Self::merge) can validate coverage without the plan.
    pub shape: PlanShape,
    /// Worker threads the run used.
    pub workers: usize,
    /// Per-cell results, in canonical (config-major) order for whole runs,
    /// or in shard order for [`run_shard`](crate::CampaignPlan::run_shard)
    /// reports (merging restores canonical order).
    pub cells: Vec<CellResult>,
    /// Wall-clock time of the whole run (the sum of shard walls after a
    /// merge).
    pub total_wall: Duration,
    /// Cell-cache effectiveness counters of the run that produced this
    /// report, when it ran with a cache. Like `workers` and the wall-clock
    /// fields this is measurement metadata: it stays out of the canonical
    /// serialization *and* the shard interchange format (each process
    /// reports its own counters; [`merge`](Self::merge) sums the ones it is
    /// handed in-memory).
    pub cache: Option<CacheStats>,
}

impl CampaignReport {
    /// Assembles a report (used by [`CampaignPlan::run`](crate::CampaignPlan::run)).
    #[must_use]
    pub fn new(
        name: String,
        base_seed: u64,
        plan_hash: u64,
        shape: PlanShape,
        workers: usize,
        cells: Vec<CellResult>,
        total_wall: Duration,
    ) -> Self {
        CampaignReport {
            name,
            base_seed,
            plan_hash,
            shape,
            workers,
            cells,
            total_wall,
            cache: None,
        }
    }

    /// Attaches the cell-cache counters of the run that produced this
    /// report (shown by [`render_summary`](Self::render_summary)).
    #[must_use]
    pub fn with_cache_stats(mut self, stats: CacheStats) -> Self {
        self.cache = Some(stats);
        self
    }

    /// Reassembles shard reports into the report an unsharded run produces:
    /// cells are restored to canonical coordinate order, so the merged
    /// [`canonical_text`](Self::canonical_text) is byte-identical to the
    /// whole run's. Shard walls sum into `total_wall` (total compute spent),
    /// `workers` records the widest shard, and the `cache` counters sum.
    ///
    /// Merging is **validation-only** — it never re-runs cells. Each report
    /// is fed to the [`ShardMerger`] as a sorted in-memory cell source, so
    /// the validation is exactly the streamed merge's: the shards' plan
    /// hashes gate the merge (shards from differently-shaped plans are
    /// rejected even when they agree on name and seed), and the merged cell
    /// set is checked against the plan's expected coordinate matrix, so an
    /// incomplete shard set (a lost or truncated worker report) fails with
    /// the exact missing coordinates instead of producing a
    /// wrong-but-plausible report.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] if no reports are supplied, the reports
    /// disagree on plan name, base seed, plan hash or shape, two reports
    /// contain the same cell, a cell falls outside the plan's matrix, or
    /// the merged cells do not cover the full matrix.
    pub fn merge(shards: impl IntoIterator<Item = CampaignReport>) -> Result<Self, MergeError> {
        let mut cache: Option<CacheStats> = None;
        let sources: Vec<ReportCells> = shards
            .into_iter()
            .map(|shard| {
                cache = cache
                    .into_iter()
                    .chain(shard.cache)
                    .reduce(CacheStats::merged);
                ReportCells::from(shard)
            })
            .collect();
        let mut merged = ShardMerger::new(sources)
            .and_then(ShardMerger::into_report)
            .map_err(|error| match error {
                StreamMergeError::Merge(error) => error,
                other => unreachable!(
                    "in-memory reports neither fail to parse nor face a plan gate: {other}"
                ),
            })?;
        merged.cache = cache;
        Ok(merged)
    }

    /// A report of `cells` under a shard header's identity and metadata
    /// (no cache counters: the shard format does not carry them).
    #[must_use]
    pub fn from_header(header: ShardHeader, cells: Vec<CellResult>) -> Self {
        let ShardHeader {
            name,
            base_seed,
            plan_hash,
            shape,
            workers,
            total_wall,
        } = header;
        CampaignReport::new(
            name, base_seed, plan_hash, shape, workers, cells, total_wall,
        )
    }

    /// The report's shard header: its plan identity and run metadata.
    #[must_use]
    pub fn shard_header(&self) -> ShardHeader {
        ShardHeader {
            name: self.name.clone(),
            base_seed: self.base_seed,
            plan_hash: self.plan_hash,
            shape: self.shape,
            workers: self.workers,
            total_wall: self.total_wall,
        }
    }

    /// Fraction of cells in which the monitor raised an alarm.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        self.rate(|cell| cell.outcome.detected_attack())
    }

    /// Fraction of cells that ran to a normal, agreed exit.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        self.rate(|cell| cell.outcome.exited_normally())
    }

    fn rate(&self, predicate: impl Fn(&CellResult) -> bool) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| predicate(c)).count() as f64 / self.cells.len() as f64
    }

    /// Response status counts over every cell.
    #[must_use]
    pub fn request_tally(&self) -> RequestTally {
        let mut tally = RequestTally::default();
        for cell in &self.cells {
            tally.absorb(&cell.tally());
        }
        tally
    }

    /// Execution counters summed over every cell.
    #[must_use]
    pub fn total_metrics(&self) -> ExecutionMetrics {
        let mut total = ExecutionMetrics::default();
        for cell in &self.cells {
            total.absorb(&cell.outcome.metrics);
        }
        total
    }

    /// Nearest-rank p50/p95/p99 of per-cell wall-clock times, or `None` for
    /// an empty report. Wall times are measurement metadata (they vary run
    /// to run), so the percentiles appear in
    /// [`render_summary`](Self::render_summary) but never in the canonical
    /// serialization.
    ///
    /// Quantiles come from the streaming
    /// [`LatencyHistogram`](crate::streaming::LatencyHistogram) sketch
    /// rather than a full sort, so each reported value is its bucket's
    /// lower bound — within
    /// [`QUANTILE_RELATIVE_ERROR`](crate::streaming::QUANTILE_RELATIVE_ERROR)
    /// (≤ 2%) of the exact order statistic — and sharded or streamed runs
    /// report identical percentiles to materialized ones.
    #[must_use]
    pub fn wall_percentiles(&self) -> Option<WallPercentiles> {
        let mut histogram = crate::streaming::LatencyHistogram::new();
        for cell in &self.cells {
            histogram.record(cell.wall);
        }
        histogram.percentiles()
    }

    /// The transformation change counts per configuration (one row per
    /// `config_index`, in matrix order; labels are already position-unique
    /// because the plan disambiguates duplicates).
    #[must_use]
    pub fn transform_stats_by_config(&self) -> Vec<(String, TransformStats)> {
        let mut seen: Vec<usize> = Vec::new();
        let mut rows: Vec<(String, TransformStats)> = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.spec.config_index) {
                seen.push(cell.spec.config_index);
                rows.push((cell.spec.config_label.clone(), cell.transform_stats));
            }
        }
        rows
    }

    /// The judged cells whose observation disagreed with the prediction.
    #[must_use]
    pub fn verdict_mismatches(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|cell| cell.verdict.as_ref().is_some_and(|v| !v.matches()))
            .collect()
    }

    /// Number of judged cells.
    #[must_use]
    pub fn judged_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.verdict.is_some()).count()
    }

    /// The cells belonging to one configuration label, in canonical order.
    /// Plan-produced labels are position-unique (duplicate configuration
    /// labels are disambiguated with a `#<n>` suffix when the cell list is
    /// built), so a label names exactly one matrix position; use
    /// [`cells_for_config_index`](Self::cells_for_config_index) when the
    /// position itself is known.
    #[must_use]
    pub fn cells_for_config<'a>(&'a self, label: &str) -> Vec<&'a CellResult> {
        self.cells
            .iter()
            .filter(|c| c.spec.config_label == label)
            .collect()
    }

    /// The cells belonging to the configuration at `config_index` in the
    /// plan's matrix, in canonical order.
    #[must_use]
    pub fn cells_for_config_index(&self, config_index: usize) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.spec.config_index == config_index)
            .collect()
    }

    /// The cells belonging to one world label, in canonical order.
    #[must_use]
    pub fn cells_for_world<'a>(&'a self, label: &str) -> Vec<&'a CellResult> {
        self.cells
            .iter()
            .filter(|c| c.spec.world_label == label)
            .collect()
    }

    /// The cells belonging to one scenario label, in canonical order.
    #[must_use]
    pub fn cells_for_scenario<'a>(&'a self, label: &str) -> Vec<&'a CellResult> {
        self.cells
            .iter()
            .filter(|c| c.spec.scenario_label == label)
            .collect()
    }

    /// The distinct world labels appearing in the report, in first-seen
    /// (canonical) order.
    #[must_use]
    pub fn world_labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !labels.contains(&cell.spec.world_label.as_str()) {
                labels.push(&cell.spec.world_label);
            }
        }
        labels
    }

    /// The deterministic serialization of the run: plan identity plus one
    /// canonical line per cell. Byte-identical across worker counts, and —
    /// for a merged set of shards partitioning a plan — byte-identical to
    /// the unsharded run.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = format!(
            "campaign={:?} seed={:#018x} plan={:#018x} shape={} cells={}\n",
            self.name,
            self.base_seed,
            self.plan_hash,
            self.shape,
            self.cells.len()
        );
        for cell in &self.cells {
            out.push_str(&cell.canonical_line());
            out.push('\n');
        }
        out
    }

    /// The canonical per-cell stream: each cell's matrix coordinates
    /// (config, world, scenario, replicate) paired with its rendered
    /// canonical line, in report order (canonical order for whole and
    /// merged reports). This is the stream a fleet coordinator feeds to the
    /// logarithmic divergence finder: two reports of the same plan are
    /// byte-identical in [`canonical_text`](Self::canonical_text) iff their
    /// canonical cell streams are equal element-wise.
    pub fn canonical_cells(
        &self,
    ) -> impl Iterator<Item = ((usize, usize, usize, usize), String)> + '_ {
        self.cells
            .iter()
            .map(|cell| (cell.spec.coordinates(), cell.canonical_line()))
    }

    /// A human-oriented summary: rates, totals, latency percentiles and
    /// timing. Rendered through
    /// [`StreamingAggregator`](crate::streaming::StreamingAggregator)
    /// (see [`fold_aggregator`](Self::fold_aggregator)), so the streaming
    /// result path produces this text byte-for-byte without ever
    /// materializing the cells.
    #[must_use]
    pub fn render_summary(&self) -> String {
        self.fold_aggregator().render_summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec, CellVerdict};
    use crate::exchange::ServedRequest;

    fn cell(config: &str, ok: bool, verdict: Option<CellVerdict>) -> CellResult {
        CellResult {
            spec: CellSpec {
                config_index: usize::from(config.as_bytes()[0] - b'A'),
                world_index: 0,
                scenario_index: 0,
                replicate: 0,
                config_label: config.to_string(),
                world_label: "template".to_string(),
                scenario_label: "s".to_string(),
                seed: 1,
            },
            outcome: CellOutcome {
                exit_status: ok.then_some(0),
                alarm: None,
                fault: (!ok).then(|| "fault".to_string()),
                metrics: ExecutionMetrics {
                    variants: 1,
                    total_instructions: 100,
                    syscalls: 5,
                    monitor_checks: 0,
                    detection_calls: 0,
                    io_bytes: 10,
                },
            },
            exchanges: vec![ServedRequest {
                request: vec![],
                response: b"HTTP/1.1 200 OK\r\n\r\nok".to_vec(),
            }],
            transform_stats: TransformStats::default(),
            verdict,
            checked: None,
            wall: Duration::from_millis(3),
        }
    }

    /// A matrix shape wide enough for every hand-built cell these tests
    /// use: the config axis spans the A..Z labels, the replicate axis the
    /// wall-percentile test's 100 replicates.
    fn test_shape() -> PlanShape {
        PlanShape {
            configs: 26,
            worlds: 1,
            scenarios: 1,
            replicates: 101,
        }
    }

    fn report(cells: Vec<CellResult>) -> CampaignReport {
        CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            test_shape(),
            2,
            cells,
            Duration::from_millis(9),
        )
    }

    #[test]
    fn rates_and_tallies_aggregate() {
        let report = report(vec![
            cell("A", true, None),
            cell("A", false, None),
            cell("B", true, None),
        ]);
        assert!((report.survival_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.detection_rate(), 0.0);
        assert_eq!(report.request_tally().ok, 3);
        assert_eq!(report.total_metrics().total_instructions, 300);
        assert_eq!(report.transform_stats_by_config().len(), 2);
        assert_eq!(report.cells_for_config("A").len(), 2);
        assert_eq!(report.cells_for_scenario("s").len(), 3);
        assert_eq!(report.cells_for_world("template").len(), 3);
        assert_eq!(report.world_labels(), vec!["template"]);
        assert!(report.render_summary().contains("3 cells"));
    }

    #[test]
    fn aggregation_keys_on_config_index_not_label() {
        // Two distinct matrix positions: the plan would have disambiguated
        // their labels, but aggregation must key on the index regardless.
        let a = cell("A", true, None);
        let mut b = cell("A", true, None);
        b.spec.config_index = 25;
        b.spec.config_label = "A#1".to_string();
        b.transform_stats.uid_constants_reexpressed = 5;
        let report = report(vec![a, b]);
        let stats = report.transform_stats_by_config();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "A");
        assert_eq!(stats[1].0, "A#1");
        assert_eq!(stats[1].1.uid_constants_reexpressed, 5);
        // Disambiguated labels resolve to exactly one matrix position each.
        assert_eq!(report.cells_for_config("A").len(), 1);
        assert_eq!(report.cells_for_config("A#1").len(), 1);
        assert_eq!(report.cells_for_config_index(25).len(), 1);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = report(vec![]);
        assert_eq!(report.survival_rate(), 0.0);
        assert_eq!(report.detection_rate(), 0.0);
        assert_eq!(report.wall_percentiles(), None);
    }

    #[test]
    fn mismatches_are_surfaced() {
        let hit = CellVerdict {
            observed: "x".to_string(),
            expected: "x".to_string(),
        };
        let miss = CellVerdict {
            observed: "x".to_string(),
            expected: "y".to_string(),
        };
        let report = report(vec![
            cell("A", true, Some(hit)),
            cell("A", true, Some(miss)),
            cell("A", true, None),
        ]);
        assert_eq!(report.judged_cells(), 2);
        assert_eq!(report.verdict_mismatches().len(), 1);
        assert!(report.render_summary().contains("1 of 2 judged"));
    }

    #[test]
    fn canonical_text_excludes_wall_clock() {
        let mut a = cell("A", true, None);
        let mut b = a.clone();
        b.wall = Duration::from_secs(1000);
        let mut ra = report(vec![a.clone()]);
        let mut rb = report(vec![b]);
        ra.total_wall = Duration::from_millis(1);
        rb.total_wall = Duration::from_secs(99);
        ra.workers = 1;
        rb.workers = 4;
        assert_eq!(ra.canonical_text(), rb.canonical_text());
        a.outcome.exit_status = Some(1);
        assert_ne!(report(vec![a]).canonical_text(), ra.canonical_text());
    }

    #[test]
    fn canonical_cells_mirror_canonical_text() {
        let report = report(vec![cell("A", true, None), cell("B", false, None)]);
        let cells: Vec<_> = report.canonical_cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, (0, 0, 0, 0));
        assert_eq!(cells[1].0, (1, 0, 0, 0));
        // The stream's lines are exactly the canonical text's cell lines.
        let text = report.canonical_text();
        let mut lines = text.lines().skip(1);
        for (_, line) in &cells {
            assert_eq!(lines.next(), Some(line.as_str()));
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn wall_percentiles_use_nearest_rank() {
        let mut cells: Vec<CellResult> = (1..=100)
            .map(|ms| {
                let mut c = cell("A", true, None);
                c.spec.replicate = ms as usize;
                c.wall = Duration::from_millis(ms);
                c
            })
            .collect();
        // Shuffle-ish: percentiles must not depend on cell order.
        cells.reverse();
        let report = report(cells);
        let p = report.wall_percentiles().unwrap();
        // Sketch quantiles: each value is the nearest-rank order
        // statistic's bucket lower bound, within the documented ≤2%
        // relative error of the exact value.
        for (quantile, exact_ms) in [(p.p50, 50u64), (p.p95, 95), (p.p99, 99)] {
            let exact = Duration::from_millis(exact_ms);
            assert!(quantile <= exact, "{quantile:?} above exact {exact:?}");
            let error = exact.saturating_sub(quantile).as_secs_f64() / exact.as_secs_f64();
            assert!(error < 0.02, "{quantile:?} vs {exact:?}: error {error}");
        }
        assert!(report.render_summary().contains("per-cell wall p50"));

        // A single cell is its own percentile everywhere.
        let single = super::CampaignReport::new(
            "t".to_string(),
            7,
            0xABCD,
            test_shape(),
            1,
            vec![cell("A", true, None)],
            Duration::ZERO,
        );
        let p = single.wall_percentiles().unwrap();
        assert_eq!(p.p50, p.p99);
    }

    /// A report whose shape exactly covers `replicates` replicates of one
    /// (config 0, world 0, scenario 0) cell — the shape merge validates
    /// coverage against.
    fn shard(cells: Vec<CellResult>, replicates: usize) -> CampaignReport {
        let mut report = report(cells);
        report.shape = PlanShape {
            configs: 1,
            worlds: 1,
            scenarios: 1,
            replicates,
        };
        report
    }

    fn replicate_cell(replicate: usize) -> CellResult {
        let mut c = cell("A", true, None);
        c.spec.replicate = replicate;
        c
    }

    #[test]
    fn merge_restores_canonical_order_and_sums_walls() {
        let whole = shard(
            vec![replicate_cell(0), replicate_cell(1), replicate_cell(2)],
            3,
        );
        // Shards in round-robin order: {c0, c2} and {c1}.
        let shard_a = shard(vec![replicate_cell(0), replicate_cell(2)], 3);
        let mut shard_b = shard(vec![replicate_cell(1)], 3);
        shard_b.workers = 7;
        let merged = CampaignReport::merge([shard_a, shard_b]).unwrap();
        assert_eq!(merged.canonical_text(), whole.canonical_text());
        assert_eq!(merged.workers, 7);
        assert_eq!(merged.total_wall, Duration::from_millis(18));
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        assert!(matches!(
            CampaignReport::merge(std::iter::empty()),
            Err(MergeError::Empty)
        ));
        let a = shard(vec![replicate_cell(0)], 1);
        let mut renamed = shard(vec![], 1);
        renamed.name = "other".to_string();
        assert!(matches!(
            CampaignReport::merge([a.clone(), renamed]),
            Err(MergeError::NameMismatch(..))
        ));
        let mut reseeded = shard(vec![], 1);
        reseeded.base_seed = 8;
        assert!(matches!(
            CampaignReport::merge([a.clone(), reseeded]),
            Err(MergeError::SeedMismatch(7, 8))
        ));
        assert!(matches!(
            CampaignReport::merge([a.clone(), a]),
            Err(MergeError::DuplicateCell(0, 0, 0, 0))
        ));
        let mismatch = MergeError::DuplicateCell(0, 0, 0, 0);
        assert!(mismatch.to_string().contains("more than one shard"));
    }

    #[test]
    fn merge_rejects_shards_from_differently_shaped_plans() {
        // Same name, same base seed — the pre-hash merge accepted this
        // pair and produced a wrong-but-plausible blended report. The plan
        // hash (covering the axes) now gates the merge.
        let a = shard(vec![replicate_cell(0)], 2);
        let mut b = shard(vec![replicate_cell(1)], 2);
        b.plan_hash = a.plan_hash ^ 1;
        assert_eq!(a.name, b.name);
        assert_eq!(a.base_seed, b.base_seed);
        let err = CampaignReport::merge([a.clone(), b]).unwrap_err();
        assert!(matches!(err, MergeError::PlanMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("differently shaped plans"));

        // Hand-assembled reports with equal hashes but disagreeing shapes
        // are still rejected.
        let mut c = shard(vec![replicate_cell(1)], 3);
        c.shape.replicates = 5;
        assert!(matches!(
            CampaignReport::merge([a, c]),
            Err(MergeError::ShapeMismatch(..))
        ));
    }

    #[test]
    fn merge_rejects_incomplete_shard_sets_naming_the_missing_cells() {
        // A strict subset of the plan's cells used to merge silently; now
        // the gap is named exactly.
        let a = shard(vec![replicate_cell(0)], 3);
        let b = shard(vec![replicate_cell(2)], 3);
        let err = CampaignReport::merge([a, b]).unwrap_err();
        match err {
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                assert_eq!(covered, 2);
                assert_eq!(expected, 3);
                assert_eq!(missing, vec![(0, 0, 0, 1)]);
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
    }

    #[test]
    fn merge_rejects_overflowing_shapes_without_enumerating_them() {
        // A shape straight out of a tampered shard file: the cell count
        // overflows usize, which no real plan can produce. The merge must
        // reject it cheaply instead of panicking or allocating.
        let mut a = shard(vec![replicate_cell(0)], 1);
        a.shape = PlanShape {
            configs: usize::MAX,
            worlds: 2,
            scenarios: 1,
            replicates: 1,
        };
        let err = CampaignReport::merge([a]).unwrap_err();
        assert!(matches!(err, MergeError::ImplausibleShape(_)), "{err:?}");
        assert!(err.to_string().contains("implausible"));

        // A huge-but-representable shape is reported as missing cells with
        // a capped listing — again without enumerating the whole matrix.
        let mut b = shard(vec![replicate_cell(0)], 1);
        b.shape = PlanShape {
            configs: 1,
            worlds: 1,
            scenarios: 1,
            replicates: usize::MAX,
        };
        match CampaignReport::merge([b]).unwrap_err() {
            MergeError::MissingCells {
                missing,
                covered,
                expected,
            } => {
                assert_eq!(covered, 1);
                assert_eq!(expected, usize::MAX);
                assert_eq!(missing.len(), 64);
                assert_eq!(missing[0], (0, 0, 0, 1));
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
    }

    #[test]
    fn merge_rejects_cells_outside_the_plan_matrix() {
        let a = shard(vec![replicate_cell(0), replicate_cell(1)], 1);
        assert!(matches!(
            CampaignReport::merge([a]),
            Err(MergeError::UnexpectedCell(0, 0, 0, 1))
        ));
    }

    #[test]
    fn missing_cells_display_caps_the_listing() {
        let missing: Vec<_> = (0..12).map(|r| (0, 0, 0, r)).collect();
        let rendered = MergeError::MissingCells {
            missing,
            covered: 8,
            expected: 20,
        }
        .to_string();
        assert!(rendered.contains("8 of 20 cells"), "{rendered}");
        // 20 expected - 8 covered - 8 shown = 4 unshown.
        assert!(rendered.contains("and 4 more"), "{rendered}");
    }

    #[test]
    fn plan_shape_enumerates_its_matrix() {
        let shape = PlanShape {
            configs: 2,
            worlds: 3,
            scenarios: 2,
            replicates: 2,
        };
        assert_eq!(shape.cell_count(), 24);
        let coords = shape.coordinates();
        assert_eq!(coords.len(), 24);
        assert_eq!(coords[0], (0, 0, 0, 0));
        assert_eq!(coords[23], (1, 2, 1, 1));
        // Canonical (config-major) order, matching `CellSpec::coordinates`
        // sort order.
        let mut sorted = coords.clone();
        sorted.sort_unstable();
        assert_eq!(coords, sorted);
        assert!(shape.contains((1, 2, 1, 1)));
        assert!(!shape.contains((2, 0, 0, 0)));
        assert_eq!(shape.to_string(), "2x3x2x2");
    }
}
