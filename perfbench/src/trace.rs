//! The traced run: drives a workload's cells through each layer's public
//! calls from the benchmark's own code, timing every call, and attributes
//! the cell's time to the layers.
//!
//! Per cell, in order:
//!
//! 1. `core` — [`CompiledSystem::instantiate_monitor_in`]; `apps` — the
//!    request generator (an attack's payload needs a `RunnableSystem`,
//!    whose instantiation is excluded from the traced time);
//! 2. the run. A single-process deployment runs the runner loop by hand:
//!    [`Process::run_until_trap`] (`vm`) on the monitor's only process, then
//!    [`dispatch_syscall`] (`simos`) on its kernel. An N-variant deployment
//!    calls [`NVariantMonitor::step`]; before each step every variant's
//!    `run_until_trap` is timed on an untimed clone of the monitor, which
//!    gives the `vm` share of the step, and the rest is the monitor's self
//!    time;
//! 3. `campaign` — [`Attack::evaluate_parts`], the judge.
//!
//! Time spent in the clones (and in any other probe) is excluded from the
//! traced cell time, so the layers must add up to it.

use crate::bench::Options;
use crate::metrics::Metric;
use crate::stats::median;
use crate::systems::{config_id, Setup};
use crate::workloads::{
    model_check_pass, shard_paths, sharded_pass, CellPlan, CodecPhases, PassRecord, ScenarioKind,
    Workload, SHARDS,
};
use nvariant::{CompiledSystem, SystemOutcome};
use nvariant_apps::{benign_request, Attack, AttackResult, WorkloadMix};
use nvariant_campaign::{
    run_parallel, CellOutcome, CellResult, CellSpec, CellVerdict, ServedRequest, ShardCursor,
    ShardParseError,
};
use nvariant_monitor::{MonitorConfig, NVariantMonitor, StepEvent};
use nvariant_simos::{OsKernel, Sysno};
use nvariant_types::{Port, VariantId};
use nvariant_vm::runner::dispatch_syscall;
use nvariant_vm::{Fault, RunLimits, RunOutcome, TrapReason};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How far the layer self-times may stray from the traced cell time
/// (summed over a configuration's cells) before the run fails.
pub(crate) const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// How far the traced cell time may stray from the untraced cell walls
/// (`trace.overhead_ratio` − 1, over the whole run) before the run fails:
/// a traced path that costs much more, or much less, than the program it
/// stands for no longer attributes that program's time.
pub(crate) const OVERHEAD_TOLERANCE: f64 = 0.25;

/// Traced rounds a run needs before its overhead ratio is checked. The
/// untraced and the traced half of a round run one after the other, so a
/// burst of contention from other tenants of the host can land on one half
/// only: over the one to three rounds of a short run the ratio swung
/// between 0.6 and 1.4, where the 30 s runs (20 rounds and more) stayed
/// within 0.98-1.12.
const OVERHEAD_MIN_ROUNDS: usize = 10;

/// Clones and digests timed per mid-run monitor probe.
const PROBE_REPS: u32 = 8;

/// Nanoseconds spent in each layer by one traced cell.
#[derive(Clone, Debug, Default)]
pub struct CellTrace {
    /// `core`: instantiating the deployment into its world.
    pub instantiate: f64,
    /// `apps`: generating the cell's requests.
    pub request_gen: f64,
    /// `simos`: staging the requests on the simulated network.
    pub stage: f64,
    /// `vm`: interpretation.
    pub vm: f64,
    /// `simos`: single-process syscall dispatch.
    pub syscall: f64,
    /// `monitor`: step self time (N-variant deployments).
    pub monitor: f64,
    /// `simos` + `campaign`: collecting the exchanges and the outcome.
    pub collect: f64,
    /// `campaign`: the judge.
    pub judge: f64,
    /// The traced cell time, probes excluded.
    pub total: f64,
    /// Synchronization points (single-process: syscalls).
    pub sync_points: u64,
    /// Alarms the monitor raised.
    pub alarms: u64,
    /// `(clone ns, state_digest ns)` of the mid-run monitor, when probed.
    pub probe: Option<(f64, f64)>,
}

impl CellTrace {
    /// The sum of the layer self-times.
    #[must_use]
    pub fn layer_sum(&self) -> f64 {
        self.instantiate
            + self.request_gen
            + self.stage
            + self.vm
            + self.syscall
            + self.monitor
            + self.collect
            + self.judge
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Runs one cell through the traced path and returns the same
/// [`CellResult`] the campaign engine would produce (its `wall` is the
/// traced cell time) with the layer breakdown. `probe_at` names the sync
/// point at which the mid-run monitor's clone and digest are timed.
#[must_use]
pub(crate) fn traced_cell(
    compiled: &CompiledSystem,
    world: &OsKernel,
    spec: CellSpec,
    kind: &ScenarioKind,
    probe_at: Option<u64>,
) -> (CellResult, CellTrace) {
    let mix = WorkloadMix::standard();
    let mut trace = CellTrace::default();
    let mut excluded = Duration::ZERO;
    let started = Instant::now();

    let mark = Instant::now();
    let mut monitor = compiled.instantiate_monitor_in(world);
    trace.instantiate = ns(mark.elapsed());

    let requests = match kind {
        ScenarioKind::Benign(count) => {
            let mark = Instant::now();
            let requests = mix.request_sequence(*count, spec.seed);
            trace.request_gen = ns(mark.elapsed());
            requests
        }
        ScenarioKind::IndexPage => {
            let mark = Instant::now();
            let requests = vec![benign_request("/index.html")];
            trace.request_gen = ns(mark.elapsed());
            requests
        }
        ScenarioKind::Attack(attack) => {
            let mark = Instant::now();
            let system = compiled.instantiate_in(world);
            excluded += mark.elapsed();
            let mark = Instant::now();
            let requests = attack.requests(&system);
            trace.request_gen = ns(mark.elapsed());
            let mark = Instant::now();
            drop(system);
            excluded += mark.elapsed();
            requests
        }
    };

    let mark = Instant::now();
    for request in &requests {
        monitor
            .kernel_mut()
            .net_mut()
            .preload_request(Port::HTTP, request.clone());
    }
    trace.stage = ns(mark.elapsed());

    let outcome = if compiled.variant_count() == 1 {
        run_single(&mut monitor, &mut trace, &mut excluded)
    } else {
        run_group(&mut monitor, &mut trace, &mut excluded, probe_at)
    };

    let mark = Instant::now();
    let exchanges: Vec<ServedRequest> = monitor
        .kernel()
        .net()
        .connections()
        .map(|conn| ServedRequest {
            request: conn.request.clone(),
            response: conn.response.clone(),
        })
        .collect();
    let flat = CellOutcome::from(&outcome);
    trace.collect = ns(mark.elapsed());

    let verdict = match kind {
        ScenarioKind::Attack(attack) => {
            let mark = Instant::now();
            let verdict = CellVerdict {
                observed: attack
                    .evaluate_parts(outcome.detected_attack(), &exchanges)
                    .to_string(),
                expected: attack.expected_result(compiled.config()).to_string(),
            };
            trace.judge = ns(mark.elapsed());
            Some(verdict)
        }
        _ => None,
    };
    let wall = started.elapsed().saturating_sub(excluded);
    trace.total = ns(wall);
    let result = CellResult {
        spec,
        outcome: flat,
        exchanges,
        transform_stats: *compiled.transform_stats(),
        verdict,
        checked: None,
        wall,
    };
    (result, trace)
}

/// The single-process runner loop, by hand, on the monitor's only process
/// and its kernel (the process is cloned out of the monitor, untimed).
fn run_single(
    monitor: &mut NVariantMonitor,
    trace: &mut CellTrace,
    excluded: &mut Duration,
) -> SystemOutcome {
    let mark = Instant::now();
    let mut process = monitor.variant_process(VariantId::P0).clone();
    let pid = monitor.group_pid();
    *excluded += mark.elapsed();
    let limits = RunLimits::default();
    let kernel = monitor.kernel_mut();
    let mut syscalls = 0u64;
    let mut io_bytes = 0u64;
    let mut vm = Duration::ZERO;
    let mut dispatch = Duration::ZERO;
    // Lap timing: each segment ends where the next begins, so the loop's
    // glue and the clock reads themselves are charged to a layer instead of
    // escaping the attribution.
    let mut lap = Instant::now();
    let run = loop {
        let trap = process.run_until_trap(limits.max_steps_per_slice);
        let now = Instant::now();
        vm += now - lap;
        lap = now;
        match trap {
            TrapReason::Exited(status) => {
                break RunOutcome {
                    exit_status: Some(status),
                    fault: None,
                    instructions: process.instructions_executed(),
                    syscalls,
                    io_bytes,
                }
            }
            TrapReason::Faulted(fault) => {
                break RunOutcome {
                    exit_status: None,
                    fault: Some(fault),
                    instructions: process.instructions_executed(),
                    syscalls,
                    io_bytes,
                }
            }
            TrapReason::Syscall(request) => {
                syscalls += 1;
                if syscalls > limits.max_syscalls {
                    process.set_faulted(Fault::StepLimitExceeded);
                } else if request.sysno == Sysno::Exit {
                    let status = request.arg(0).as_i32();
                    let _ = kernel.exit(pid, status);
                    process.set_exited(status);
                } else {
                    let (ret, bytes) = dispatch_syscall(kernel, pid, &request, &mut process);
                    io_bytes += bytes;
                    process.complete_syscall(ret);
                }
                let now = Instant::now();
                dispatch += now - lap;
                lap = now;
            }
        }
    };
    trace.vm = ns(vm);
    trace.syscall = ns(dispatch);
    trace.sync_points = syscalls;
    SystemOutcome::from_single(&run)
}

/// Steps an N-variant group to termination, attributing each step to the
/// VM (timed on an untimed clone) and the monitor (the rest).
fn run_group(
    monitor: &mut NVariantMonitor,
    trace: &mut CellTrace,
    excluded: &mut Duration,
    probe_at: Option<u64>,
) -> SystemOutcome {
    let max_steps = MonitorConfig::default().max_steps_per_slice;
    let variants = monitor.variant_count();
    let mut steps = 0u64;
    let mut vm_total = 0.0;
    let mut step_total = 0.0;
    // Lap timing as in `run_single`: the probe's end starts the step, and
    // the step's end starts the next probe.
    let mut lap = Instant::now();
    let outcome = loop {
        if probe_at == Some(steps) {
            trace.probe = Some(clone_and_digest(monitor));
        }
        let mut shadow = monitor.clone();
        let mut vm = Duration::ZERO;
        for variant in 0..variants {
            let mark = Instant::now();
            black_box(
                shadow
                    .variant_process_mut(VariantId::new(variant))
                    .run_until_trap(max_steps),
            );
            vm += mark.elapsed();
        }
        drop(shadow);
        let step_start = Instant::now();
        *excluded += step_start - lap;
        vm_total += ns(vm);

        let event = monitor.step();
        lap = Instant::now();
        step_total += ns(lap - step_start);
        steps += 1;
        if let StepEvent::Done(outcome) = event {
            break outcome;
        }
    };
    trace.vm = vm_total;
    trace.monitor = step_total - vm_total;
    trace.sync_points = steps;
    trace.alarms = monitor.alarms().len() as u64;
    SystemOutcome::from_nvariant(&outcome)
}

/// Mean ns of one `Clone` and one `state_digest` of a mid-run monitor.
fn clone_and_digest(monitor: &NVariantMonitor) -> (f64, f64) {
    let mark = Instant::now();
    for _ in 0..PROBE_REPS {
        black_box(monitor.clone());
    }
    let clone = ns(mark.elapsed()) / f64::from(PROBE_REPS);
    let mark = Instant::now();
    for _ in 0..PROBE_REPS {
        black_box(monitor.state_digest());
    }
    let digest = ns(mark.elapsed()) / f64::from(PROBE_REPS);
    (clone, digest)
}

/// Per-configuration accumulators over every traced cell.
#[derive(Clone, Debug, Default)]
struct ConfigLayers {
    cells: u64,
    judged: u64,
    trace: CellTrace,
    untraced: f64,
    instructions: u64,
    syscalls: u64,
    io_bytes: u64,
    checks: u64,
    provision_ns: Vec<f64>,
}

impl ConfigLayers {
    fn absorb(&mut self, cell: &CellResult, trace: &CellTrace, untraced: &CellResult) {
        self.cells += 1;
        self.judged += u64::from(cell.verdict.is_some());
        let sum = &mut self.trace;
        sum.instantiate += trace.instantiate;
        sum.request_gen += trace.request_gen;
        sum.stage += trace.stage;
        sum.vm += trace.vm;
        sum.syscall += trace.syscall;
        sum.monitor += trace.monitor;
        sum.collect += trace.collect;
        sum.judge += trace.judge;
        sum.total += trace.total;
        sum.sync_points += trace.sync_points;
        sum.alarms += trace.alarms;
        self.untraced += ns(untraced.wall);
        let metrics = &cell.outcome.metrics;
        self.instructions += metrics.total_instructions;
        self.syscalls += metrics.syscalls;
        self.io_bytes += metrics.io_bytes;
        self.checks += metrics.monitor_checks;
    }
}

/// Codec timings summed over the traced rounds' sharded passes.
#[derive(Clone, Debug, Default)]
struct CodecTrace {
    cells: u64,
    phases: CodecPhases,
    decode_s: f64,
}

/// Seconds to decode every shard file alone, one cursor at a time, with no
/// merge: the merge's own overhead is its time minus this.
fn decode_shards(paths: &[PathBuf]) -> Result<f64, ShardParseError> {
    let mark = Instant::now();
    for path in paths {
        let mut cursor = ShardCursor::open(path)?;
        while let Some(cell) = cursor.next_cell()? {
            black_box(cell);
        }
    }
    Ok(mark.elapsed().as_secs_f64())
}

/// The outcome of a traced run.
pub(crate) struct TracedRun {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: how the layers add up per configuration.
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: usize,
    /// One message per failure.
    pub failures: Vec<String>,
}

/// Runs traced rounds of `workload` until `deadline` (at least one) and
/// returns the per-layer metrics.
///
/// Each round runs one set-up round, then the workload's cells untraced as
/// a sharded pass (run, encode, merge, fold), times a decode of its shard
/// files alone, then runs the cells traced on the same pool. The
/// model-check pass runs every round for
/// `model-check` and once for the sweeps, so every workload reports every
/// layer.
#[must_use]
pub(crate) fn run_traced(
    options: &Options,
    setup: &mut Setup,
    cells: &CellPlan,
    workers: usize,
    deadline: Instant,
    dir: &Path,
) -> TracedRun {
    let compiled = setup.compiled.clone();
    let mut layers = vec![ConfigLayers::default(); compiled.len()];
    let mut codec = CodecTrace::default();
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let mut efficiency = Vec::new();
    let mut idle_ms = Vec::new();
    let mut probes: Vec<(f64, f64)> = Vec::new();
    let mut judge_probe = (0.0f64, 0u64);
    let mut check_passes: Vec<PassRecord> = Vec::new();
    let judged_plan = cells
        .kinds
        .iter()
        .any(|k| matches!(k, ScenarioKind::Attack(_)));

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        setup.round();
        // The untraced run is a sharded pass, so the codec figures come from
        // the same encode → merge → fold path `sharded-sweep` times.
        let (pass, untraced) = sharded_pass(cells, workers, dir);
        attempted += pass.attempted;
        failures.extend(pass.failures.iter().cloned());
        efficiency.push(pass.busy_s / (pass.pool_s * workers as f64));
        idle_ms.push((pass.pool_s * workers as f64 - pass.busy_s) * 1e3);
        codec.cells += untraced.len() as u64;
        codec.phases.encode_s += pass.codec.encode_s;
        codec.phases.merge_s += pass.codec.merge_s;
        codec.phases.fold_s += pass.codec.fold_s;
        codec.phases.bytes += pass.codec.bytes;
        attempted += 1;
        match decode_shards(&shard_paths(dir, SHARDS)) {
            Ok(seconds) => codec.decode_s += seconds,
            Err(error) => failures.push(format!("decoding shards: {error}")),
        }

        let mut worlds: BTreeMap<(usize, usize), OsKernel> = BTreeMap::new();
        for config_index in 0..compiled.len() {
            for (world_index, world) in cells.worlds.iter().enumerate() {
                let mark = Instant::now();
                let kernel = compiled[config_index].provision_world(world.kernel());
                layers[config_index].provision_ns.push(ns(mark.elapsed()));
                worlds.insert((config_index, world_index), kernel);
            }
        }
        let jobs: Vec<(CellSpec, Option<u64>)> = cells
            .plan
            .cells()
            .into_iter()
            .zip(&untraced)
            .map(|(spec, untraced)| {
                let mid = (compiled[spec.config_index].variant_count() > 1)
                    .then_some(untraced.outcome.metrics.syscalls / 2);
                (spec, mid)
            })
            .collect();
        let traced = run_parallel(jobs, workers, |_, (spec, mid)| {
            let compiled = &compiled[spec.config_index];
            let world = &worlds[&(spec.config_index, spec.world_index)];
            let kind = &cells.kinds[spec.scenario_index];
            traced_cell(compiled, world, spec, kind, mid)
        });
        for ((cell, trace), untraced) in traced.iter().zip(&untraced) {
            attempted += 1;
            if cell.canonical_line() != untraced.canonical_line() {
                failures.push(format!(
                    "traced cell differs from its untraced run:\n  traced   {}\n  untraced {}",
                    cell.canonical_line(),
                    untraced.canonical_line()
                ));
            }
            layers[cell.spec.config_index].absorb(cell, trace, untraced);
            if let Some(probe) = trace.probe {
                probes.push(probe);
            }
            if !judged_plan {
                for attack in Attack::all() {
                    let mark = Instant::now();
                    let result = attack.evaluate_parts(false, &cell.exchanges);
                    judge_probe.0 += ns(mark.elapsed());
                    judge_probe.1 += 1;
                    if result != AttackResult::Failed {
                        failures.push(format!(
                            "benign traffic judged {result} for {}: {}",
                            attack.name,
                            cell.canonical_line()
                        ));
                    }
                }
            }
        }
        let model_check = options.workload == Workload::ModelCheck;
        if model_check || check_passes.is_empty() {
            let pass = model_check_pass(options.size, workers, options.seed);
            attempted += pass.attempted;
            failures.extend(pass.failures.iter().cloned());
            if model_check {
                efficiency.push(pass.busy_s / (pass.pool_s * workers as f64));
                idle_ms.push((pass.pool_s * workers as f64 - pass.busy_s) * 1e3);
            }
            check_passes.push(pass);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut total_traced = 0.0;
    let mut total_untraced = 0.0;
    let mut request_gen = (0.0, 0u64);
    let mut judge = (0.0, 0u64);
    for (index, layer) in layers.iter().enumerate() {
        let id = config_id(compiled[index].config());
        let n = layer.cells.max(1) as f64;
        let t = &layer.trace;
        let multi = compiled[index].variant_count() > 1;
        total_traced += t.total;
        total_untraced += layer.untraced;
        request_gen.0 += t.request_gen;
        request_gen.1 += layer.cells;
        judge.0 += t.judge;
        judge.1 += layer.judged;
        let sum = t.layer_sum();
        let gap = (sum - t.total) / t.total.max(1.0);
        notes.push(format!(
            "{id}: layer self-times sum to {:.3} ms of a traced {:.3} ms ({:+.2}%)",
            sum / 1e6,
            t.total / 1e6,
            gap * 100.0
        ));
        if gap.abs() > LAYER_SUM_TOLERANCE {
            failures.push(format!(
                "layer self-times of {id} sum to {:.3} ms against a traced {:.3} ms",
                sum / 1e6,
                t.total / 1e6
            ));
        }
        // The monitor's self time is the step time less the VM time taken on
        // the shadow clones; a negative residual means the VM share is wrong.
        if multi && t.monitor < 0.0 {
            failures.push(format!(
                "VM time of {id} on the shadow clones ({:.3} ms) exceeds its step time ({:.3} ms)",
                t.vm / 1e6,
                (t.vm + t.monitor) / 1e6
            ));
        }
        let per_instr = t.vm / layer.instructions.max(1) as f64;
        metrics.push(Metric::new(
            format!("vm.ns_per_instr.{id}"),
            "ns",
            per_instr,
        ));
        metrics.push(Metric::new(
            format!("vm.busy_ms_per_cell.{id}"),
            "ms",
            t.vm / 1e6 / n,
        ));
        metrics.push(Metric::new(
            format!("vm.instructions_per_cell.{id}"),
            "count",
            layer.instructions as f64 / n,
        ));
        if !multi {
            metrics.push(Metric::new(
                format!("simos.ns_per_syscall.{id}"),
                "ns",
                t.syscall / t.sync_points.max(1) as f64,
            ));
        }
        metrics.push(Metric::new(
            format!("simos.syscalls_per_cell.{id}"),
            "count",
            layer.syscalls as f64 / n,
        ));
        metrics.push(Metric::new(
            format!("simos.io_bytes_per_cell.{id}"),
            "bytes",
            layer.io_bytes as f64 / n,
        ));
        if multi {
            metrics.push(Metric::new(
                format!("monitor.ns_per_sync.{id}"),
                "ns",
                t.monitor / t.sync_points.max(1) as f64,
            ));
            metrics.push(Metric::new(
                format!("monitor.sync_points_per_cell.{id}"),
                "count",
                t.sync_points as f64 / n,
            ));
            metrics.push(Metric::new(
                format!("monitor.checks_per_cell.{id}"),
                "count",
                layer.checks as f64 / n,
            ));
            metrics.push(Metric::new(
                format!("monitor.alarms_per_cell.{id}"),
                "count",
                t.alarms as f64 / n,
            ));
        }
        metrics.push(Metric::new(
            format!("core.instantiate_us.{id}"),
            "us",
            t.instantiate / 1e3 / n,
        ));
        metrics.push(Metric::new(
            format!("core.provision_us.{id}"),
            "us",
            median(&layer.provision_ns) / 1e3,
        ));
        metrics.push(Metric::new(
            format!("core.compile_ms.{id}"),
            "ms",
            median(&setup.compile_ms[index]),
        ));
    }
    if !judged_plan {
        judge = judge_probe;
    }
    let clone: Vec<f64> = probes.iter().map(|p| p.0 / 1e3).collect();
    let digest: Vec<f64> = probes.iter().map(|p| p.1 / 1e3).collect();
    metrics.push(Metric::new("monitor.clone_us", "us", median(&clone)));
    metrics.push(Metric::new(
        "monitor.state_digest_us",
        "us",
        median(&digest),
    ));
    metrics.push(Metric::new(
        "apps.request_gen_us",
        "us",
        request_gen.0 / 1e3 / request_gen.1.max(1) as f64,
    ));
    metrics.push(Metric::new(
        "campaign.judge_us",
        "us",
        judge.0 / 1e3 / judge.1.max(1) as f64,
    ));
    let codec_cells = codec.cells.max(1) as f64;
    let phases = &codec.phases;
    metrics.push(Metric::new(
        "campaign.encode_us_per_cell",
        "us",
        phases.encode_s * 1e6 / codec_cells,
    ));
    metrics.push(Metric::new(
        "campaign.decode_us_per_cell",
        "us",
        codec.decode_s * 1e6 / codec_cells,
    ));
    metrics.push(Metric::new(
        "campaign.merge_us_per_cell",
        "us",
        phases.merge_s * 1e6 / codec_cells,
    ));
    metrics.push(Metric::new(
        "campaign.fold_us_per_cell",
        "us",
        phases.fold_s * 1e6 / codec_cells,
    ));
    metrics.push(Metric::new(
        "campaign.shard_bytes_per_cell",
        "bytes",
        phases.bytes as f64 / codec_cells,
    ));
    metrics.push(Metric::new(
        "campaign.engine_efficiency",
        "ratio",
        median(&efficiency),
    ));
    metrics.push(Metric::new(
        "campaign.engine_idle_ms",
        "ms",
        median(&idle_ms),
    ));
    let verify: Vec<f64> = check_passes
        .iter()
        .map(|p| p.analysis_ms.iter().sum())
        .collect();
    metrics.push(Metric::new("analyze.verify_ms", "ms", median(&verify)));
    metrics.push(Metric::new(
        "analyze.instructions_verified",
        "count",
        check_passes
            .first()
            .map_or(0.0, |p| p.fingerprint.verified as f64),
    ));
    for key in ["P1", "P2", "P3"] {
        let stats: Vec<_> = check_passes
            .iter()
            .filter_map(|p| p.properties.iter().find(|s| s.key == key))
            .collect();
        let per_state: Vec<f64> = stats
            .iter()
            .map(|s| s.wall_s * 1e6 / s.states.max(1) as f64)
            .collect();
        let first = stats.first();
        let visited = first.map_or(0, |s| s.states);
        let pruned = first.map_or(0, |s| s.pruned);
        metrics.push(Metric::new(
            format!("check.us_per_state.{key}"),
            "us",
            median(&per_state),
        ));
        metrics.push(Metric::new(
            format!("check.states_visited.{key}"),
            "count",
            visited as f64,
        ));
        metrics.push(Metric::new(
            format!("check.pruned_ratio.{key}"),
            "ratio",
            pruned as f64 / (visited + pruned).max(1) as f64,
        ));
    }
    let overhead = total_traced / total_untraced.max(1.0);
    notes.push(format!(
        "trace overhead over {rounds} rounds: traced {:.3} ms against untraced {:.3} ms (ratio {overhead:.4})",
        total_traced / 1e6,
        total_untraced / 1e6
    ));
    if rounds < OVERHEAD_MIN_ROUNDS {
        notes.push(format!(
            "trace overhead not checked: {rounds} rounds, under {OVERHEAD_MIN_ROUNDS}"
        ));
    } else if (overhead - 1.0).abs() > OVERHEAD_TOLERANCE {
        failures.push(format!(
            "traced cell time is {overhead:.4}x the untraced cell walls, outside 1 ± {OVERHEAD_TOLERANCE}"
        ));
    }
    metrics.push(Metric::new("trace.overhead_ratio", "ratio", overhead));
    TracedRun {
        metrics,
        notes,
        attempted,
        failures,
    }
}
