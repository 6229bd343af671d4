//! Constant-memory campaign aggregation: the stream-and-fold result path.
//!
//! The materialized result path ([`CampaignReport`]) holds every cell in
//! memory, which caps a sweep at the coordinator's address space. This
//! module is the streaming alternative:
//!
//! * [`LatencyHistogram`] — a deterministic fixed-boundary log-bucket
//!   sketch of per-cell wall times. Buckets have 64 sub-buckets per octave
//!   (values below 64 ns are exact), so every quantile is a bucket lower
//!   bound within 1/64 (≤ 1.5625%, documented as ≤ 2%) of the true value,
//!   and merging two histograms is an element-wise counter add: exact,
//!   order-independent, associative and commutative.
//! * [`StreamingAggregator`] — folds cells one at a time into
//!   O(configs × worlds × scenarios) state: counts, verdict tallies, the
//!   latency sketch, and per-(config, world, scenario) group tallies. Its
//!   [`render_summary`](StreamingAggregator::render_summary) is
//!   byte-identical to [`CampaignReport::render_summary`] (which is
//!   implemented over it), and its
//!   [`render_surface`](StreamingAggregator::render_surface) emits the
//!   attack-success-probability surface: per config × world × attack,
//!   success and detection rates with Wilson 95% intervals.
//! * [`ShardMerger`] — the one shard-set validator: a k-way merge over
//!   coordinate-sorted [`CellSource`]s (shard files through
//!   [`ShardCursor`], in-memory reports for [`CampaignReport::merge`]) that
//!   gates plan identity and detects duplicate, unexpected and missing
//!   cells, holding at most one cell per source in memory.
//! * [`SyntheticSweep`] — a judged synthetic cell generator (no VM, no
//!   HTTP) that scales the *pipeline* to millions of cells, so CI can pin
//!   the constant-memory property under an address-space cap.

use crate::cell::{CellOutcome, CellResult, CellSpec, CellVerdict, RequestTally};
use crate::engine::{cell_seed, run_parallel};
use crate::report::{CampaignReport, MergeError, PlanShape, WallPercentiles};
use crate::shardio::{ShardCursor, ShardHeader, ShardParseError};
use nvariant::{CacheStats, ExecutionMetrics};
use nvariant_types::fnv1a_64;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Sub-bucket resolution of [`LatencyHistogram`]: 2^6 = 64 sub-buckets per
/// octave, giving a worst-case relative bucket width of 1/64 = 1.5625%.
pub const SUB_BUCKET_BITS: u32 = 6;

const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Bucket count covering the full `u64` nanosecond range: octave 0 holds
/// the exact values `0..64`, octaves 1..=58 hold exponents 6..=63.
const BUCKET_COUNT: usize = SUB_BUCKETS * 59;

/// The documented worst-case relative error of histogram quantiles: a
/// quantile is reported as its bucket's lower bound, and buckets are at
/// most 1/64 ≈ 1.57% wide relative to their value.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// A deterministic fixed-boundary log-bucket histogram of durations.
///
/// The bucket boundaries are fixed integers (no floating point, no
/// per-instance configuration), so two histograms over the same values are
/// equal regardless of insertion order, and
/// [`merge`](LatencyHistogram::merge) — an element-wise add — is exact,
/// associative and commutative. Quantiles are nearest-rank over bucket
/// counts, reported as the bucket's lower bound (an underestimate of at
/// most [`QUANTILE_RELATIVE_ERROR`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKET_COUNT],
            total: 0,
        }
    }

    /// The bucket index of a nanosecond value. Values below 64 are exact;
    /// larger values keep their top 6 mantissa bits.
    #[must_use]
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            usize::try_from(nanos).expect("nanos < 64 fits usize")
        } else {
            let exponent = nanos.ilog2();
            let octave = (exponent - (SUB_BUCKET_BITS - 1)) as usize;
            let mantissa = (nanos >> (exponent - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1);
            octave * SUB_BUCKETS + usize::try_from(mantissa).expect("6-bit mantissa fits usize")
        }
    }

    /// The smallest nanosecond value mapping to `index` — the value
    /// quantiles report for a bucket.
    #[must_use]
    pub fn bucket_floor(index: usize) -> u64 {
        let octave = index / SUB_BUCKETS;
        let mantissa = (index % SUB_BUCKETS) as u64;
        if octave == 0 {
            mantissa
        } else {
            (SUB_BUCKETS as u64 + mantissa) << (octave - 1)
        }
    }

    /// Records one duration (saturated to `u64` nanoseconds).
    pub fn record(&mut self, wall: Duration) {
        let nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket_index(nanos)] += 1;
        self.total += 1;
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's counts into this one. Exact and
    /// order-independent: `a.merge(b)` equals recording both value streams
    /// into one histogram, in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The nearest-rank `percent`-th quantile as its bucket's lower bound,
    /// or `None` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, percent: u64) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let rank = (u128::from(self.total) * u128::from(percent))
            .div_ceil(100)
            .max(1);
        let mut cumulative: u128 = 0;
        for (index, count) in self.counts.iter().enumerate() {
            cumulative += u128::from(*count);
            if cumulative >= rank {
                return Some(Duration::from_nanos(Self::bucket_floor(index)));
            }
        }
        // rank <= total, so the walk always terminates inside the loop.
        unreachable!("quantile rank exceeds recorded total")
    }

    /// The p50/p95/p99 sketch quantiles, or `None` for an empty histogram.
    #[must_use]
    pub fn percentiles(&self) -> Option<WallPercentiles> {
        Some(WallPercentiles {
            p50: self.quantile(50)?,
            p95: self.quantile(95)?,
            p99: self.quantile(99)?,
        })
    }
}

/// Per-(config, world, scenario) tallies the aggregator maintains — the
/// rows of the attack-success-probability surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupTally {
    /// Configuration label (first seen for this matrix position).
    pub config_label: String,
    /// World label.
    pub world_label: String,
    /// Scenario label (the attack name for judged scenarios).
    pub scenario_label: String,
    /// Cells folded into this group.
    pub cells: usize,
    /// Judged cells (cells carrying a verdict).
    pub judged: usize,
    /// Judged cells observed as `detected`.
    pub detected: usize,
    /// Judged cells observed as `SUCCEEDED`.
    pub succeeded: usize,
    /// Judged cells observed as anything else (`failed`).
    pub failed: usize,
    /// Judged cells whose observation disagreed with the prediction.
    pub mismatches: usize,
}

impl GroupTally {
    fn absorb_group(&mut self, other: &GroupTally) {
        self.cells += other.cells;
        self.judged += other.judged;
        self.detected += other.detected;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// The Wilson 95% score interval for `successes` out of `n` trials, as
/// `(low, high)` proportions. `(0, 0)` for `n == 0`.
#[must_use]
pub fn wilson_95(successes: usize, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let z = 1.96_f64;
    #[allow(clippy::cast_precision_loss)]
    let n_f = n as f64;
    #[allow(clippy::cast_precision_loss)]
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denominator = 1.0 + z2 / n_f;
    let center = (p + z2 / (2.0 * n_f)) / denominator;
    let half = (z / denominator) * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Folds campaign cells one at a time into O(configs × worlds × scenarios)
/// state, producing the same summary text as the materialized report path
/// and the attack-success-probability surface.
///
/// Every piece of state is order-independent (counters, maxima, exact
/// histogram merges, index-keyed maps), so folding any permutation of a
/// plan's cells — or merging per-worker aggregators — yields byte-identical
/// output.
#[derive(Clone, Debug)]
pub struct StreamingAggregator {
    name: String,
    base_seed: u64,
    plan_hash: u64,
    shape: PlanShape,
    workers: usize,
    total_wall: Duration,
    cache: Option<CacheStats>,
    cells: usize,
    survived: usize,
    detected: usize,
    judged: usize,
    matched: usize,
    tally: RequestTally,
    metrics: ExecutionMetrics,
    slowest: Duration,
    histogram: LatencyHistogram,
    worlds: BTreeMap<usize, String>,
    groups: BTreeMap<(usize, usize, usize), GroupTally>,
}

impl StreamingAggregator {
    /// A fresh aggregator for the identified plan.
    #[must_use]
    pub fn new(name: impl Into<String>, base_seed: u64, plan_hash: u64, shape: PlanShape) -> Self {
        StreamingAggregator {
            name: name.into(),
            base_seed,
            plan_hash,
            shape,
            workers: 1,
            total_wall: Duration::ZERO,
            cache: None,
            cells: 0,
            survived: 0,
            detected: 0,
            judged: 0,
            matched: 0,
            tally: RequestTally::default(),
            metrics: ExecutionMetrics::default(),
            slowest: Duration::ZERO,
            histogram: LatencyHistogram::new(),
            worlds: BTreeMap::new(),
            groups: BTreeMap::new(),
        }
    }

    /// An aggregator identified by a shard header (used when folding a
    /// merge): takes the plan identity plus the header's worker and wall
    /// metadata.
    #[must_use]
    pub fn from_header(header: &ShardHeader) -> Self {
        let mut aggregator = StreamingAggregator::new(
            header.name.clone(),
            header.base_seed,
            header.plan_hash,
            header.shape,
        );
        aggregator.workers = header.workers;
        aggregator.total_wall = header.total_wall;
        aggregator
    }

    /// Sets the worker count reported in the summary.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Adds to the run wall-clock (shard walls sum under a merge).
    pub fn add_wall(&mut self, wall: Duration) {
        self.total_wall += wall;
    }

    /// Sets the cell-cache counters reported in the summary.
    pub fn set_cache(&mut self, cache: Option<CacheStats>) {
        self.cache = cache;
    }

    /// Cells folded so far.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Judged cells folded so far.
    #[must_use]
    pub fn judged_cells(&self) -> usize {
        self.judged
    }

    /// Judged cells whose observation disagreed with the prediction.
    #[must_use]
    pub fn verdict_mismatches(&self) -> usize {
        self.judged - self.matched
    }

    /// The plan hash the aggregator was identified with.
    #[must_use]
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// The plan's base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The plan's matrix shape.
    #[must_use]
    pub fn shape(&self) -> PlanShape {
        self.shape
    }

    /// The per-(config, world, scenario) group tallies, in canonical
    /// coordinate order.
    pub fn groups(&self) -> impl Iterator<Item = (&(usize, usize, usize), &GroupTally)> {
        self.groups.iter()
    }

    /// Folds one cell into the aggregate state.
    pub fn absorb(&mut self, cell: &CellResult) {
        self.cells += 1;
        if cell.outcome.exited_normally() {
            self.survived += 1;
        }
        if cell.outcome.detected_attack() {
            self.detected += 1;
        }
        self.tally.absorb(&cell.tally());
        self.metrics.absorb(&cell.outcome.metrics);
        self.slowest = self.slowest.max(cell.wall);
        self.histogram.record(cell.wall);
        self.worlds
            .entry(cell.spec.world_index)
            .or_insert_with(|| cell.spec.world_label.clone());
        let group = self
            .groups
            .entry((
                cell.spec.config_index,
                cell.spec.world_index,
                cell.spec.scenario_index,
            ))
            .or_insert_with(|| GroupTally {
                config_label: cell.spec.config_label.clone(),
                world_label: cell.spec.world_label.clone(),
                scenario_label: cell.spec.scenario_label.clone(),
                cells: 0,
                judged: 0,
                detected: 0,
                succeeded: 0,
                failed: 0,
                mismatches: 0,
            });
        group.cells += 1;
        if let Some(verdict) = &cell.verdict {
            self.judged += 1;
            group.judged += 1;
            if verdict.matches() {
                self.matched += 1;
            } else {
                group.mismatches += 1;
            }
            match verdict.observed.as_str() {
                "detected" => group.detected += 1,
                "SUCCEEDED" => group.succeeded += 1,
                _ => group.failed += 1,
            }
        }
    }

    /// Merges another aggregator over the same plan into this one (the
    /// parallel-fold reduction: each worker folds its claimed cells
    /// locally, then the locals merge). Workers take the maximum, walls
    /// sum, everything else adds exactly.
    pub fn merge(&mut self, other: &StreamingAggregator) {
        debug_assert_eq!(
            self.plan_hash, other.plan_hash,
            "merging foreign aggregators"
        );
        self.workers = self.workers.max(other.workers);
        self.total_wall += other.total_wall;
        self.cache = self
            .cache
            .into_iter()
            .chain(other.cache)
            .reduce(CacheStats::merged);
        self.cells += other.cells;
        self.survived += other.survived;
        self.detected += other.detected;
        self.judged += other.judged;
        self.matched += other.matched;
        self.tally.absorb(&other.tally);
        self.metrics.absorb(&other.metrics);
        self.slowest = self.slowest.max(other.slowest);
        self.histogram.merge(&other.histogram);
        for (index, label) in &other.worlds {
            self.worlds.entry(*index).or_insert_with(|| label.clone());
        }
        for (key, tally) in &other.groups {
            match self.groups.get_mut(key) {
                Some(mine) => mine.absorb_group(tally),
                None => {
                    self.groups.insert(*key, tally.clone());
                }
            }
        }
    }

    /// The sketch quantiles of per-cell wall times, or `None` before any
    /// cell was folded.
    #[must_use]
    pub fn wall_percentiles(&self) -> Option<WallPercentiles> {
        self.histogram.percentiles()
    }

    fn rate(&self, count: usize) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = count as f64 / self.cells as f64;
        rate
    }

    /// The distinct world labels, in world-index (canonical) order.
    #[must_use]
    pub fn world_labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for label in self.worlds.values() {
            if !labels.contains(&label.as_str()) {
                labels.push(label);
            }
        }
        labels
    }

    /// The summary text — byte-identical to
    /// [`CampaignReport::render_summary`] over the same cells.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "campaign '{}': {} cells on {} workers in {:.1?} (slowest cell {:.1?})\n",
            self.name, self.cells, self.workers, self.total_wall, self.slowest,
        );
        out.push_str(&format!(
            "  survival rate {:.1}%, detection rate {:.1}%\n",
            self.rate(self.survived) * 100.0,
            self.rate(self.detected) * 100.0
        ));
        out.push_str(&format!("  {}\n", self.tally));
        out.push_str(&format!("  {}\n", self.metrics));
        if let Some(percentiles) = self.wall_percentiles() {
            out.push_str(&format!("  per-cell wall {percentiles}\n"));
        }
        if let Some(stats) = &self.cache {
            out.push_str(&format!("  cell cache: {stats}\n"));
        }
        let worlds = self.world_labels();
        if worlds.len() > 1 {
            out.push_str(&format!(
                "  {} worlds on the environment axis: {}\n",
                worlds.len(),
                worlds.join(", ")
            ));
        }
        if self.judged > 0 {
            out.push_str(&format!(
                "  {} of {} judged cells match their prediction\n",
                self.matched, self.judged
            ));
        }
        out
    }

    /// The attack-success-probability surface: one line per judged
    /// (config, world, attack) group in canonical coordinate order, with
    /// success and detection rates and the Wilson 95% interval on the
    /// success probability.
    #[must_use]
    pub fn render_surface(&self) -> String {
        let judged_groups = self.groups.values().filter(|g| g.judged > 0).count();
        let mut out = format!(
            "surface campaign={:?} plan={:#018x} groups={} judged_cells={}\n",
            self.name, self.plan_hash, judged_groups, self.judged
        );
        for group in self.groups.values().filter(|g| g.judged > 0) {
            #[allow(clippy::cast_precision_loss)]
            let n = group.judged as f64;
            #[allow(clippy::cast_precision_loss)]
            let success_rate = group.succeeded as f64 / n * 100.0;
            #[allow(clippy::cast_precision_loss)]
            let detection_rate = group.detected as f64 / n * 100.0;
            let (low, high) = wilson_95(group.succeeded, group.judged);
            out.push_str(&format!(
                "config={:?} world={:?} attack={:?} cells={} success={} rate={:.1}% \
                 ci95=[{:.1}%, {:.1}%] detected={} rate={:.1}% failed={} mismatches={}\n",
                group.config_label,
                group.world_label,
                group.scenario_label,
                group.judged,
                group.succeeded,
                success_rate,
                low * 100.0,
                high * 100.0,
                group.detected,
                detection_rate,
                group.failed,
                group.mismatches,
            ));
        }
        out
    }
}

impl CampaignReport {
    /// Folds this report's cells into a fresh aggregator carrying the
    /// report's identity and metadata — the bridge that keeps the
    /// materialized and streaming paths byte-identical, because the
    /// materialized summary and surface are rendered *through* it.
    #[must_use]
    pub fn fold_aggregator(&self) -> StreamingAggregator {
        let mut aggregator = StreamingAggregator::from_header(&self.shard_header());
        aggregator.set_cache(self.cache);
        for cell in &self.cells {
            aggregator.absorb(cell);
        }
        aggregator
    }

    /// The attack-success-probability surface of this report (see
    /// [`StreamingAggregator::render_surface`]).
    #[must_use]
    pub fn render_surface(&self) -> String {
        self.fold_aggregator().render_surface()
    }
}

/// Why a streaming merge failed: a shard failed to parse, a shard belongs
/// to another plan, or the shard set failed merge validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamMergeError {
    /// A shard's cursor hit malformed input or an I/O failure.
    Shard {
        /// Index of the failing shard in the source list.
        shard: usize,
        /// The underlying parse error.
        error: ShardParseError,
    },
    /// A shard file failed the expected-plan gate of
    /// [`ShardMerger::open`] ([`ShardHeader::check_plan`]).
    Foreign {
        /// Index of the foreign shard in the path list.
        shard: usize,
        /// The gate's verdict.
        error: MergeError,
    },
    /// The shard set failed merge validation.
    Merge(MergeError),
}

impl fmt::Display for StreamMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamMergeError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
            StreamMergeError::Foreign { shard, error } => write!(f, "shard {shard}: {error}"),
            StreamMergeError::Merge(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for StreamMergeError {}

impl From<MergeError> for StreamMergeError {
    fn from(error: MergeError) -> Self {
        StreamMergeError::Merge(error)
    }
}

/// A lazy enumerator of a matrix shape's canonical coordinate order —
/// [`PlanShape::coordinates`] without the allocation, so validating
/// coverage of an absurdly declared shape costs iteration, not memory.
///
/// A walk may be restricted to one round-robin slice of the matrix (see
/// [`ShardMerger::slice`]): the coordinates whose canonical position is
/// congruent to `index` modulo `count`, which is exactly the cell set of
/// [`CampaignPlan::shard`](crate::CampaignPlan::shard).
#[derive(Clone, Debug)]
pub struct CoordinateWalk {
    shape: PlanShape,
    next: Option<(usize, usize, usize, usize)>,
    /// The round-robin slice `(index, count)`; `(0, 1)` is the whole matrix.
    slice: (usize, usize),
}

impl CoordinateWalk {
    /// Starts a walk over `shape`'s matrix.
    #[must_use]
    pub fn new(shape: PlanShape) -> Self {
        let next = (shape.cell_count() > 0).then_some((0, 0, 0, 0));
        CoordinateWalk {
            shape,
            next,
            slice: (0, 1),
        }
    }

    /// Starts a walk over round-robin slice `index` of `count` of
    /// `shape`'s matrix (a zero `count` is treated as one).
    #[must_use]
    pub(crate) fn slice(shape: PlanShape, index: usize, count: usize) -> Self {
        let mut walk = CoordinateWalk::new(shape);
        walk.slice = (index, count.max(1));
        for _ in 0..index {
            walk.advance();
        }
        walk
    }

    /// The next coordinate without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<(usize, usize, usize, usize)> {
        self.next
    }

    /// Whether `coordinates` lie in the walked matrix and slice.
    #[must_use]
    pub(crate) fn contains(&self, coordinates: (usize, usize, usize, usize)) -> bool {
        let (index, count) = self.slice;
        let (c, w, s, r) = coordinates;
        let shape = self.shape;
        self.shape.contains(coordinates)
            && (count == 1
                || (((c * shape.worlds + w) * shape.scenarios + s) * shape.replicates + r) % count
                    == index)
    }

    /// Moves `next` one coordinate forward in canonical order.
    fn advance(&mut self) {
        let Some((mut c, mut w, mut s, mut r)) = self.next else {
            return;
        };
        r += 1;
        if r == self.shape.replicates {
            r = 0;
            s += 1;
            if s == self.shape.scenarios {
                s = 0;
                w += 1;
                if w == self.shape.worlds {
                    w = 0;
                    c += 1;
                }
            }
        }
        self.next = (c < self.shape.configs).then_some((c, w, s, r));
    }
}

impl Iterator for CoordinateWalk {
    type Item = (usize, usize, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let current = self.next?;
        self.advance();
        for _ in 1..self.slice.1 {
            self.advance();
        }
        Some(current)
    }
}

/// Cap on the missing-coordinate listing of [`MergeError::MissingCells`].
const MISSING_CAP: usize = 64;

/// A coordinate-sorted stream of cells under one shard header — what
/// [`ShardMerger`] merges. [`ShardCursor`] decodes one from a shard file;
/// [`CampaignReport::merge`] feeds each report's cells in memory.
pub trait CellSource {
    /// The shard's plan identity and run metadata.
    fn header(&self) -> &ShardHeader;

    /// The next cell in canonical coordinate order, or `None` when the
    /// source is drained.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardParseError`] when an encoded source is malformed.
    fn next_cell(&mut self) -> Result<Option<CellResult>, ShardParseError>;
}

impl<R: BufRead> CellSource for ShardCursor<R> {
    fn header(&self) -> &ShardHeader {
        ShardCursor::header(self)
    }

    fn next_cell(&mut self) -> Result<Option<CellResult>, ShardParseError> {
        ShardCursor::next_cell(self)
    }
}

/// A report's cells as a [`CellSource`]: sorted into canonical order once,
/// then handed out by value — no text round trip, no per-cell boxing.
pub(crate) struct ReportCells {
    header: ShardHeader,
    cells: std::vec::IntoIter<CellResult>,
}

impl From<CampaignReport> for ReportCells {
    fn from(mut report: CampaignReport) -> Self {
        report.cells.sort_by_key(|cell| cell.spec.coordinates());
        ReportCells {
            header: report.shard_header(),
            cells: report.cells.into_iter(),
        }
    }
}

impl CellSource for ReportCells {
    fn header(&self) -> &ShardHeader {
        &self.header
    }

    fn next_cell(&mut self) -> Result<Option<CellResult>, ShardParseError> {
        Ok(self.cells.next())
    }
}

/// The shard-set validator: an incremental, plan-hash-gated k-way merge
/// over coordinate-sorted [`CellSource`]s, and the only code that decides
/// whether a set of shards reassembles a plan.
///
/// Construction gates the headers against each other (name, base seed,
/// plan hash, shape, shape plausibility); each
/// [`next_cell`](ShardMerger::next_cell) yields the next cell in canonical
/// order while detecting duplicate, unexpected and missing cells on the
/// fly. Peak memory is one buffered cell per source, independent of shard
/// size.
pub struct ShardMerger<S> {
    sources: Vec<S>,
    heads: Vec<Option<CellResult>>,
    expected: CoordinateWalk,
    header: ShardHeader,
    covered: usize,
    expected_count: usize,
    missing: Vec<(usize, usize, usize, usize)>,
    finished: bool,
}

impl ShardMerger<ShardCursor<BufReader<File>>> {
    /// Opens shard files, gates each one against the expected plan
    /// ([`ShardHeader::check_plan`]) before any cell is read, and starts
    /// the merge over them.
    ///
    /// # Errors
    ///
    /// Returns [`StreamMergeError::Shard`] for an unreadable file,
    /// [`StreamMergeError::Foreign`] for a shard of another plan, and
    /// whatever [`new`](Self::new) rejects.
    pub fn open<P: AsRef<Path>>(
        paths: &[P],
        plan_hash: u64,
        shape: PlanShape,
    ) -> Result<Self, StreamMergeError> {
        let mut cursors = Vec::with_capacity(paths.len());
        for (shard, path) in paths.iter().enumerate() {
            let cursor = ShardCursor::open(path.as_ref())
                .map_err(|error| StreamMergeError::Shard { shard, error })?;
            cursor
                .header()
                .check_plan(plan_hash, shape)
                .map_err(|error| StreamMergeError::Foreign { shard, error })?;
            cursors.push(cursor);
        }
        Self::new(cursors)
    }
}

impl<S: CellSource> ShardMerger<S> {
    /// Gates the sources' headers against each other and buffers the first
    /// cell of each.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamMergeError`] if no sources are supplied, the
    /// headers disagree on plan identity, the declared shape's cell count
    /// overflows, or a first cell fails to parse.
    pub fn new(sources: Vec<S>) -> Result<Self, StreamMergeError> {
        let first = sources.first().ok_or(MergeError::Empty)?;
        let mut header = first.header().clone();
        for source in &sources[1..] {
            let shard = source.header();
            if shard.name != header.name {
                return Err(MergeError::NameMismatch(header.name, shard.name.clone()).into());
            }
            if shard.base_seed != header.base_seed {
                return Err(MergeError::SeedMismatch(header.base_seed, shard.base_seed).into());
            }
            if shard.plan_hash != header.plan_hash {
                return Err(MergeError::PlanMismatch {
                    merged: header.plan_hash,
                    shard: shard.plan_hash,
                }
                .into());
            }
            if shard.shape != header.shape {
                return Err(MergeError::ShapeMismatch(header.shape, shard.shape).into());
            }
            header.workers = header.workers.max(shard.workers);
            header.total_wall += shard.total_wall;
        }
        // The shape may come straight from a shard file, so treat it as
        // untrusted: a cell count that overflows cannot belong to any plan
        // that ever enumerated its cells in memory.
        let expected_count = header
            .shape
            .checked_cell_count()
            .ok_or(MergeError::ImplausibleShape(header.shape))?;
        let mut merger = ShardMerger {
            heads: Vec::with_capacity(sources.len()),
            expected: CoordinateWalk::new(header.shape),
            header,
            covered: 0,
            expected_count,
            missing: Vec::new(),
            finished: false,
            sources,
        };
        for index in 0..merger.sources.len() {
            let head = merger.advance_shard(index)?;
            merger.heads.push(head);
        }
        Ok(merger)
    }

    /// Restricts the merge to round-robin slice `index` of `count` of the
    /// plan's matrix — the cell set of
    /// [`CampaignPlan::shard`](crate::CampaignPlan::shard) — so one shard
    /// file validates on its own: a cell outside the slice is
    /// [`MergeError::UnexpectedCell`], a gap [`MergeError::MissingCells`]
    /// and a repeat [`MergeError::DuplicateCell`]. Call it before the first
    /// [`next_cell`](Self::next_cell).
    #[must_use]
    pub fn slice(mut self, index: usize, count: usize) -> Self {
        debug_assert_eq!(self.covered, 0, "slice a merge before it starts");
        let count = count.max(1);
        self.expected = CoordinateWalk::slice(self.header.shape, index, count);
        self.expected_count = self.expected_count.saturating_sub(index).div_ceil(count);
        self
    }

    /// The merged header: plan identity from the gate, `workers` as the
    /// widest shard, `total_wall` as the sum of shard walls.
    #[must_use]
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    fn advance_shard(&mut self, index: usize) -> Result<Option<CellResult>, StreamMergeError> {
        self.sources[index]
            .next_cell()
            .map_err(|error| StreamMergeError::Shard {
                shard: index,
                error,
            })
    }

    /// Yields the next cell in canonical coordinate order, or `None` once
    /// every shard is drained and the plan's matrix is fully covered.
    ///
    /// Gap detection is deferred to exhaustion (so the error can report the
    /// exact covered/expected counts), but duplicates and out-of-matrix
    /// cells fail as soon as they surface.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamMergeError`] on parse failure, duplicate cells,
    /// cells outside the matrix, or (at exhaustion) incomplete coverage.
    pub fn next_cell(&mut self) -> Result<Option<CellResult>, StreamMergeError> {
        if self.finished {
            return Ok(None);
        }
        // The shard with the least head coordinate goes next; an equal pair
        // of heads is a duplicate across shards.
        let mut least: Option<usize> = None;
        for (index, head) in self.heads.iter().enumerate() {
            let Some(cell) = head else { continue };
            match least {
                None => least = Some(index),
                Some(best) => {
                    let best_coords = self.heads[best]
                        .as_ref()
                        .expect("least head is present")
                        .spec
                        .coordinates();
                    let coords = cell.spec.coordinates();
                    if coords == best_coords {
                        let (c, w, s, r) = coords;
                        return Err(MergeError::DuplicateCell(c, w, s, r).into());
                    }
                    if coords < best_coords {
                        least = Some(index);
                    }
                }
            }
        }
        let Some(index) = least else {
            // Every shard is drained: the merge is complete iff the matrix
            // is covered.
            self.finished = true;
            if self.covered == self.expected_count {
                return Ok(None);
            }
            while self.missing.len() < MISSING_CAP {
                let Some(gap) = self.expected.next() else {
                    break;
                };
                self.missing.push(gap);
            }
            return Err(MergeError::MissingCells {
                missing: std::mem::take(&mut self.missing),
                covered: self.covered,
                expected: self.expected_count,
            }
            .into());
        };
        let coordinates = self.heads[index]
            .as_ref()
            .expect("selected head is present")
            .spec
            .coordinates();
        if !self.expected.contains(coordinates) {
            let (c, w, s, r) = coordinates;
            return Err(MergeError::UnexpectedCell(c, w, s, r).into());
        }
        // Walk the expected enumerator up to this coordinate, recording
        // gaps (reported at exhaustion). A head *behind* the enumerator is
        // a cell the merge already emitted: a within-shard duplicate, or an
        // out-of-order shard file.
        loop {
            match self.expected.peek() {
                Some(expected) if expected < coordinates => {
                    self.expected.next();
                    if self.missing.len() < MISSING_CAP {
                        self.missing.push(expected);
                    }
                }
                Some(expected) if expected == coordinates => {
                    self.expected.next();
                    break;
                }
                _ => {
                    let (c, w, s, r) = coordinates;
                    return Err(MergeError::DuplicateCell(c, w, s, r).into());
                }
            }
        }
        let next_head = self.advance_shard(index)?;
        let cell =
            std::mem::replace(&mut self.heads[index], next_head).expect("selected head is present");
        self.covered += 1;
        Ok(Some(cell))
    }

    /// Drains the merge into a report with the merged header — the end of
    /// the merge for callers that need the cells themselves.
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamMergeError`] the drain hits.
    pub fn into_report(mut self) -> Result<CampaignReport, StreamMergeError> {
        let mut cells = Vec::new();
        while let Some(cell) = self.next_cell()? {
            cells.push(cell);
        }
        Ok(CampaignReport::from_header(self.header, cells))
    }
}

/// The synthetic sweep: a judged cell generator with no VM, no HTTP and no
/// per-cell allocs beyond its labels, deterministic in the base seed — the
/// workload that scales the streaming pipeline to millions of cells so the
/// constant-memory property can be pinned in CI under an address-space
/// cap.
///
/// The matrix models the paper's evaluation: 5 configurations × 4 worlds ×
/// 3 attack classes, with per-(config, attack) detection probabilities
/// drawn per cell from the cell seed. Every cell is judged, so the surface
/// report is fully populated and its Wilson intervals tighten as the
/// replicate axis grows.
#[derive(Clone, Debug)]
pub struct SyntheticSweep {
    /// Campaign name carried into summaries.
    pub name: String,
    /// Base seed every cell seed derives from.
    pub base_seed: u64,
    /// The matrix shape (replicates scale the cell count).
    pub shape: PlanShape,
}

/// Synthetic configuration labels (the deployment axis).
const SYNTHETIC_CONFIGS: [&str; 5] = [
    "unprotected",
    "uid-2v",
    "addr-2v",
    "uid-addr-composed",
    "full-3v",
];

/// Synthetic world labels (the environment axis).
const SYNTHETIC_WORLDS: [&str; 4] = ["standard", "alt-docroot", "alt-accounts", "faulty-fs"];

/// Synthetic attack labels (the scenario axis) — the paper's three attack
/// classes.
const SYNTHETIC_ATTACKS: [&str; 3] = ["uid-overflow", "uid-poke", "docroot-poke"];

/// Per-mille detection probability of attack `s` under configuration `c`:
/// protected pairs detect with high probability, unprotected ones almost
/// never do — noisy enough that the Wilson intervals are non-trivial.
fn synthetic_detect_per_mille(config: usize, attack: usize) -> u64 {
    let protects_uid = matches!(config, 1 | 3 | 4);
    let protects_addresses = matches!(config, 2..=4);
    let protected = match attack {
        0 => protects_uid,
        1 => protects_uid || protects_addresses,
        _ => protects_addresses,
    };
    if protected {
        970
    } else {
        15
    }
}

/// splitmix64 finalizer: the per-cell outcome draw.
fn synthetic_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SyntheticSweep {
    /// A sweep over the full synthetic matrix with the given replicate
    /// count: `5 × 4 × 3 × replicates` cells.
    #[must_use]
    pub fn new(replicates: usize) -> Self {
        SyntheticSweep {
            name: "synthetic-sweep".to_string(),
            base_seed: 0x5EED_CE11,
            shape: PlanShape {
                configs: SYNTHETIC_CONFIGS.len(),
                worlds: SYNTHETIC_WORLDS.len(),
                scenarios: SYNTHETIC_ATTACKS.len(),
                replicates: replicates.max(1),
            },
        }
    }

    /// The canonical hash of the synthetic plan (name, seed, shape) — the
    /// same FNV-1a construction real plans use, so synthetic shards gate
    /// merges identically.
    #[must_use]
    pub fn plan_hash(&self) -> u64 {
        let descriptor = format!(
            "synthetic {:?}\nseed {:#018x}\nshape {}\n",
            self.name, self.base_seed, self.shape
        );
        fnv1a_64(descriptor.as_bytes())
    }

    /// Total cells in the sweep.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.shape.cell_count()
    }

    /// The coordinates of the `linear`-th cell in canonical (config-major)
    /// order.
    #[must_use]
    pub fn coordinates(&self, linear: usize) -> (usize, usize, usize, usize) {
        let replicate = linear % self.shape.replicates;
        let rest = linear / self.shape.replicates;
        let scenario = rest % self.shape.scenarios;
        let rest = rest / self.shape.scenarios;
        let world = rest % self.shape.worlds;
        let config = rest / self.shape.worlds;
        (config, world, scenario, replicate)
    }

    /// Generates the `linear`-th cell: a judged attack outcome drawn
    /// deterministically from the cell seed, with a seed-derived synthetic
    /// wall time (so summaries are bit-reproducible at any worker count).
    #[must_use]
    pub fn cell(&self, linear: usize) -> CellResult {
        let (config, world, scenario, replicate) = self.coordinates(linear);
        let seed = cell_seed(self.base_seed, config, world, scenario, replicate);
        let draw = synthetic_mix(seed);
        let detected = draw % 1000 < synthetic_detect_per_mille(config, scenario);
        // Undetected attacks usually reach their goal; file permissions
        // stop the rest.
        let succeeded = !detected && synthetic_mix(draw) % 1000 < 940;
        let observed = if detected {
            "detected"
        } else if succeeded {
            "SUCCEEDED"
        } else {
            "failed"
        };
        let expected = if synthetic_detect_per_mille(config, scenario) >= 500 {
            "detected"
        } else {
            "SUCCEEDED"
        };
        let wall_nanos = 200_000 + synthetic_mix(draw ^ 0xA5A5) % 1_800_000;
        CellResult {
            spec: CellSpec {
                config_index: config,
                world_index: world,
                scenario_index: scenario,
                replicate,
                config_label: SYNTHETIC_CONFIGS[config].to_string(),
                world_label: SYNTHETIC_WORLDS[world].to_string(),
                scenario_label: SYNTHETIC_ATTACKS[scenario].to_string(),
                seed,
            },
            outcome: CellOutcome {
                exit_status: (!detected).then_some(0),
                alarm: detected.then(|| "synthetic divergence alarm".to_string()),
                fault: None,
                metrics: ExecutionMetrics {
                    variants: 2,
                    total_instructions: 1_000 + draw % 100,
                    syscalls: 12,
                    monitor_checks: 4,
                    detection_calls: 2,
                    io_bytes: 512,
                },
            },
            exchanges: Vec::new(),
            transform_stats: nvariant_transform::TransformStats::default(),
            verdict: Some(CellVerdict {
                observed: observed.to_string(),
                expected: expected.to_string(),
            }),
            checked: None,
            wall: Duration::from_nanos(wall_nanos),
        }
    }

    /// Runs the sweep through the streaming fold: each worker of the pool
    /// ([`run_parallel`], one item per worker) claims linear indices in
    /// batches from a shared cursor, folds its cells into a local
    /// aggregator and returns it; the locals then merge — peak memory is
    /// O(workers × aggregator), however many cells the sweep has.
    /// `total_wall` is the sum of the synthetic per-cell walls, so the
    /// summary is deterministic.
    #[must_use]
    pub fn run_streamed(&self, workers: usize) -> StreamingAggregator {
        const BATCH: usize = 1024;
        let total = self.cell_count();
        let workers = workers.clamp(1, total.max(1));
        let cursor = AtomicUsize::new(0);
        let locals = run_parallel(vec![(); workers], workers, |_, ()| {
            let mut local = StreamingAggregator::new(
                self.name.clone(),
                self.base_seed,
                self.plan_hash(),
                self.shape,
            );
            loop {
                let start = cursor.fetch_add(BATCH, Ordering::Relaxed);
                if start >= total {
                    break local;
                }
                for linear in start..(start + BATCH).min(total) {
                    let cell = self.cell(linear);
                    local.add_wall(cell.wall);
                    local.absorb(&cell);
                }
            }
        });
        let mut merged = locals
            .into_iter()
            .reduce(|mut merged, local| {
                merged.merge(&local);
                merged
            })
            .expect("at least one worker");
        merged.set_workers(workers);
        merged
    }

    /// Runs the sweep the way the pre-streaming pipeline would have:
    /// materializing every [`CellResult`] into one report. This exists as
    /// the control arm of the CI memory experiment — at 10^6 cells its
    /// allocation profile exceeds an address-space cap the streaming fold
    /// runs comfortably under.
    #[must_use]
    pub fn run_materialized(&self, workers: usize) -> CampaignReport {
        let total = self.cell_count();
        let indices: Vec<usize> = (0..total).collect();
        let cells = run_parallel(indices, workers, |_, linear| self.cell(linear));
        let total_wall = cells.iter().map(|c| c.wall).sum();
        CampaignReport::new(
            self.name.clone(),
            self.base_seed,
            self.plan_hash(),
            self.shape,
            workers.max(1),
            cells,
            total_wall,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_64_and_within_error_above() {
        for v in 0..64u64 {
            let index = LatencyHistogram::bucket_index(v);
            assert_eq!(LatencyHistogram::bucket_floor(index), v);
        }
        for v in [
            64,
            65,
            127,
            128,
            1000,
            12_345,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let index = LatencyHistogram::bucket_index(v);
            let floor = LatencyHistogram::bucket_floor(index);
            assert!(floor <= v, "floor {floor} above value {v}");
            #[allow(clippy::cast_precision_loss)]
            let error = (v - floor) as f64 / v as f64;
            assert!(
                error < QUANTILE_RELATIVE_ERROR,
                "value {v} bucket floor {floor} error {error}"
            );
            // Floors map back to their own bucket.
            assert_eq!(LatencyHistogram::bucket_index(floor), index);
        }
    }

    #[test]
    fn bucket_index_is_monotone_over_octave_boundaries() {
        let mut previous = 0;
        for v in 1..100_000u64 {
            let index = LatencyHistogram::bucket_index(v);
            assert!(index >= previous, "index regressed at {v}");
            previous = index;
        }
    }

    #[test]
    fn histogram_merge_is_exact_and_order_independent() {
        let values: Vec<u64> = (0..500).map(|i| synthetic_mix(i) % 10_000_000).collect();
        let mut whole = LatencyHistogram::new();
        for v in &values {
            whole.record(Duration::from_nanos(*v));
        }
        let (first, second) = values.split_at(200);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in first {
            a.record(Duration::from_nanos(*v));
        }
        for v in second.iter().rev() {
            b.record(Duration::from_nanos(*v));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(whole.count(), 500);
    }

    #[test]
    fn quantiles_are_nearest_rank_bucket_floors() {
        let mut histogram = LatencyHistogram::new();
        for v in 1..=100u64 {
            histogram.record(Duration::from_nanos(v));
        }
        // Values 1..=63 are exact buckets; 50 is its own bucket floor.
        assert_eq!(histogram.quantile(50), Some(Duration::from_nanos(50)));
        // 95 lives in the bucket [94, 96): floor 94.
        let p95 = histogram.quantile(95).unwrap().as_nanos() as u64;
        assert!(p95 <= 95 && 95 - p95 <= 2, "p95 floor {p95}");
        assert_eq!(LatencyHistogram::new().quantile(50), None);
    }

    #[test]
    fn wilson_interval_brackets_the_proportion() {
        let (low, high) = wilson_95(8, 10);
        assert!(low < 0.8 && 0.8 < high, "({low}, {high})");
        assert!(low > 0.4 && high < 1.0, "({low}, {high})");
        assert_eq!(wilson_95(0, 0), (0.0, 0.0));
        let (zero_low, zero_high) = wilson_95(0, 20);
        assert_eq!(zero_low, 0.0);
        assert!(zero_high > 0.0 && zero_high < 0.25, "{zero_high}");
        let (full_low, full_high) = wilson_95(20, 20);
        assert_eq!(full_high, 1.0);
        assert!(full_low > 0.75, "{full_low}");
    }

    #[test]
    fn coordinate_walk_matches_materialized_enumeration() {
        let shape = PlanShape {
            configs: 2,
            worlds: 3,
            scenarios: 2,
            replicates: 2,
        };
        let all = shape.coordinates();
        assert_eq!(CoordinateWalk::new(shape).collect::<Vec<_>>(), all);
        // A slice walks and contains exactly the round-robin shard's cells.
        for count in 1..=5 {
            for index in 0..count {
                let walk = CoordinateWalk::slice(shape, index, count);
                let expected: Vec<_> = all.iter().copied().skip(index).step_by(count).collect();
                assert!(all
                    .iter()
                    .all(|c| walk.contains(*c) == expected.contains(c)));
                assert_eq!(walk.collect::<Vec<_>>(), expected, "slice {index}/{count}");
            }
        }
        let empty = PlanShape {
            configs: 0,
            worlds: 1,
            scenarios: 1,
            replicates: 1,
        };
        assert_eq!(CoordinateWalk::new(empty).next(), None);
    }

    #[test]
    fn synthetic_cells_are_deterministic_and_linear_indexing_is_canonical() {
        let sweep = SyntheticSweep::new(2);
        assert_eq!(sweep.cell_count(), 5 * 4 * 3 * 2);
        let walk: Vec<_> = CoordinateWalk::new(sweep.shape).collect();
        for (linear, expected) in walk.iter().enumerate() {
            assert_eq!(sweep.coordinates(linear), *expected, "index {linear}");
        }
        let a = sweep.cell(17);
        let b = sweep.cell(17);
        assert_eq!(a, b);
        assert_eq!(a.canonical_line(), b.canonical_line());
        // Every cell is judged.
        assert!(a.verdict.is_some());
    }

    #[test]
    fn synthetic_streamed_fold_is_worker_count_invariant() {
        let sweep = SyntheticSweep::new(7);
        let serial = sweep.run_streamed(1);
        let parallel = sweep.run_streamed(4);
        assert_eq!(serial.render_surface(), parallel.render_surface());
        assert_eq!(serial.cells(), sweep.cell_count());
        assert_eq!(parallel.cells(), sweep.cell_count());
        // The summary differs only in the declared worker count.
        assert_eq!(
            serial
                .render_summary()
                .replace("on 1 workers", "on N workers"),
            parallel
                .render_summary()
                .replace("on 4 workers", "on N workers"),
        );
    }

    #[test]
    fn synthetic_streamed_matches_materialized_byte_for_byte() {
        let sweep = SyntheticSweep::new(3);
        let streamed = sweep.run_streamed(2);
        let materialized = sweep.run_materialized(2);
        assert_eq!(streamed.render_summary(), materialized.render_summary());
        assert_eq!(streamed.render_surface(), materialized.render_surface());
        // Protected configurations detect, unprotected ones leak — the
        // surface's headline shape.
        let surface = streamed.render_surface();
        assert!(surface.contains("config=\"unprotected\""), "{surface}");
        assert!(surface.starts_with("surface campaign=\"synthetic-sweep\""));
    }

    #[test]
    fn aggregator_detects_verdict_accounting() {
        let sweep = SyntheticSweep::new(1);
        let aggregator = sweep.run_streamed(1);
        assert_eq!(aggregator.judged_cells(), sweep.cell_count());
        // Probabilistic outcomes disagree with the deterministic
        // prediction sometimes, never always.
        assert!(aggregator.verdict_mismatches() < sweep.cell_count());
    }
}
