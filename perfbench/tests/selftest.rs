//! Self-tests of the benchmark: input determinism, seed sensitivity, metric
//! naming, and a smallest-size run of every workload through its
//! correctness gate, in both modes.

use nvariant_campaign::CellResult;
use nvariant_perfbench::bench::{self, Options};
use nvariant_perfbench::metrics::valid_name;
use nvariant_perfbench::systems;
use nvariant_perfbench::workloads::{
    cell_plan_for, matrix_digest, model_check_pass, Size, Workload, DEFAULT_SEED,
};
use std::sync::{Arc, OnceLock};

fn compiled() -> &'static [Arc<nvariant::CompiledSystem>] {
    static SETUP: OnceLock<Vec<Arc<nvariant::CompiledSystem>>> = OnceLock::new();
    SETUP.get_or_init(|| systems::Setup::new().compiled)
}

fn requests(cells: &[CellResult]) -> Vec<Vec<Vec<u8>>> {
    cells
        .iter()
        .map(|c| c.exchanges.iter().map(|e| e.request.clone()).collect())
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_requests_and_plan_hash() {
    let first = cell_plan_for(Workload::ServeHeavy, compiled(), Size::Smoke, 7);
    let second = cell_plan_for(Workload::ServeHeavy, compiled(), Size::Smoke, 7);
    assert_eq!(first.plan.plan_hash(), second.plan.plan_hash());
    let a = first.plan.run(1);
    let b = second.plan.run(1);
    assert_eq!(requests(&a.cells), requests(&b.cells));
    assert_eq!(a.canonical_text(), b.canonical_text());
}

#[test]
fn a_new_seed_reorders_benign_requests_but_not_attack_cells() {
    let benign = |seed| {
        cell_plan_for(Workload::ServeHeavy, compiled(), Size::Smoke, seed)
            .plan
            .run(1)
    };
    let (one, two) = (benign(1), benign(2));
    assert_ne!(requests(&one.cells), requests(&two.cells));

    let sweep = |seed| {
        cell_plan_for(Workload::ShardedSweep, compiled(), Size::Smoke, seed)
            .plan
            .run(1)
    };
    let (one, two) = (sweep(1), sweep(2));
    let attacks = |report: &nvariant_campaign::CampaignReport| {
        report
            .cells
            .iter()
            .filter(|c| c.verdict.is_some())
            .map(|c| {
                (
                    c.spec.coordinates(),
                    c.outcome.clone(),
                    c.exchanges.clone(),
                    c.verdict.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert!(!attacks(&one).is_empty());
    assert_eq!(attacks(&one), attacks(&two));
}

#[test]
fn model_check_cells_unroll_check_paper_matrix() {
    // The pass times each check cell on its own, in a seed-shuffled order;
    // its digest must be the one check_paper_matrix itself produces.
    let pass = model_check_pass(Size::Smoke, 1, 3);
    assert!(pass.failures.is_empty(), "{:?}", pass.failures);
    assert_eq!(pass.fingerprint.digest, matrix_digest(Size::Smoke));
}

/// The metric names of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} section"));
    let body = &text[start
        ..text[start..]
            .find(']')
            .map_or(text.len(), |end| start + end)];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("a quoted name")].to_string()
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> bench::Outcome {
    let outcome = bench::run(&Options {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.01,
        trace,
        size: Size::Smoke,
    });
    assert!(
        outcome.correct(),
        "{} (trace={trace}) failed its gate: {:#?}",
        workload.name(),
        outcome.failures
    );
    outcome
}

#[test]
fn smoke_runs_pass_the_gate_and_report_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().chain(&per_layer).all(|n| valid_name(n)));
    for workload in Workload::ALL {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = smoke(workload, trace);
            let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert!(reported.iter().all(|n| valid_name(n)), "{reported:?}");
            assert_eq!(
                reported,
                names.iter().map(String::as_str).collect::<Vec<_>>(),
                "{} trace={trace}",
                workload.name()
            );
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{:?}",
                outcome.metrics
            );
        }
    }
}
