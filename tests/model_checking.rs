//! Repo-level regressions for the bounded model checker wired through the
//! application layer: the weakened-monitor counterexample is deterministic
//! down to the byte, greedy minimization preserves the violation under
//! randomized perturbation of the trace it starts from, and the explorer's
//! exact counters over the paper matrix are pinned by a committed golden
//! fixture (`tests/fixtures/check_stats_golden.txt`). Regenerate it (only
//! when a PR *deliberately* changes what the explorer visits) with
//! `NVARIANT_REGEN_GOLDEN=1 cargo test --test model_checking`.
//!
//! It also pins the two premises the explorer's speed rests on: the state
//! digest is canonical (a pure function of the live bytes) yet sensitive to
//! any one-byte change, and a receive cap never changes which syscall a
//! step traps on.

use nvariant::DeploymentConfig;
use nvariant_apps::{
    check_paper_matrix, checks::ATTACKED_GLOBAL, httpd_check_target, weakened_httpd_check_target,
};
use nvariant_check::{
    minimize, replay, Action, BoundedChecker, CheckRequest, CheckStatus, CheckTarget, Checker,
    Property,
};
use nvariant_monitor::{NVariantMonitor, StepEvent};
use nvariant_simos::{Sysno, WorldTemplate};
use nvariant_types::{VariantId, VirtAddr};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Matches the CLI's `--quick` bound; deep enough for the weakened
/// two-variant UID deployment to reach its credential call.
const DEPTH: usize = 32;

fn weakened_target() -> CheckTarget {
    weakened_httpd_check_target(&DeploymentConfig::TwoVariantUid, WorldTemplate::standard())
}

/// The seeded regression's counterexample, computed once: the rendered form
/// plus the minimized action trace it was rendered from.
fn baseline() -> &'static (String, Vec<Action>) {
    static BASELINE: OnceLock<(String, Vec<Action>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let report = BoundedChecker.check(
            &weakened_target(),
            &CheckRequest::new(Property::UidIntegrity, DEPTH),
        );
        assert_eq!(report.status, CheckStatus::Fail);
        let counterexample = report
            .counterexample
            .expect("a failed check carries a counterexample");
        let actions = counterexample.steps.iter().map(|s| s.action).collect();
        (counterexample.render(), actions)
    })
}

#[test]
fn weakened_counterexample_renders_byte_identically_across_independent_checks() {
    let (first_render, _) = baseline();
    // A completely independent run: fresh target instantiation, fresh
    // exploration. Bounded checking is deterministic end to end, so the
    // rendered counterexample must match byte for byte.
    let report = BoundedChecker.check(
        &weakened_target(),
        &CheckRequest::new(Property::UidIntegrity, DEPTH),
    );
    let counterexample = report
        .counterexample
        .expect("the weakened monitor misses the corrupted credential call");
    assert_eq!(&counterexample.render(), first_render);
}

#[test]
fn weakened_counterexample_replays_to_the_same_violation() {
    let (render, actions) = baseline();
    let replayed = replay(&weakened_target(), Property::UidIntegrity, actions);
    let violation = replayed
        .violation
        .expect("the minimized trace replays to a violation");
    assert!(
        render.contains(&violation),
        "rendered counterexample should carry the replayed violation:\n{render}"
    );
}

/// The depth `check_paper_matrix` runs at in the benchmark and the CLI's
/// full (non-`--quick`) mode.
const MATRIX_DEPTH: usize = 48;

fn stats_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("check_stats_golden.txt")
}

/// One line per cell of the P1/P2/P3 paper matrix with every exploration
/// counter, then the weakened target's minimized counterexample at the same
/// depth. Any change to what the explorer visits, prunes or reports shows up
/// as a byte diff.
fn check_stats_text() -> String {
    let mut out = String::new();
    for property in Property::all() {
        for report in check_paper_matrix(property, MATRIX_DEPTH) {
            let stats = report.stats;
            let _ = writeln!(
                out,
                "{} {} config={:?} world={:?} depth={} states={} pruned={} terminal={} \
                 deepest={} truncated={}",
                report.property.key(),
                report.status,
                report.config_label,
                report.world_label,
                report.depth,
                stats.states_visited,
                stats.states_pruned,
                stats.terminal_runs,
                stats.deepest,
                stats.truncated
            );
        }
    }
    let weakened = BoundedChecker.check(
        &weakened_target(),
        &CheckRequest::new(Property::UidIntegrity, MATRIX_DEPTH),
    );
    let counterexample = weakened
        .counterexample
        .expect("the weakened monitor misses the corrupted credential call");
    out.push_str(&counterexample.render());
    out
}

#[test]
fn explorer_stats_match_the_committed_golden_fixture() {
    let text = check_stats_text();
    let path = stats_golden_path();
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test model_checking",
            path.display()
        )
    });
    assert!(
        text == golden,
        "explorer counters drifted from the committed golden fixture; if this \
         PR deliberately changes what the checker explores, regenerate with \
         NVARIANT_REGEN_GOLDEN=1.\ngot:\n{text}\ngolden:\n{golden}"
    );
}

/// The checked httpd under two-variant UID diversity, stepped just past its
/// first `send`: a mid-run state with a live stack, a written access log and
/// an open connection carrying response bytes.
fn mid_request_monitor() -> NVariantMonitor {
    let target = httpd_check_target(&DeploymentConfig::TwoVariantUid, WorldTemplate::standard());
    let world = target.system.provision_world(target.world.kernel());
    let mut monitor = target.system.instantiate_monitor_in(&world);
    for request in &target.requests {
        monitor
            .kernel_mut()
            .net_mut()
            .preload_request(target.port, request.clone());
    }
    loop {
        let event = monitor.step();
        assert!(
            matches!(event, StepEvent::Progress(_)),
            "the httpd terminated before sending"
        );
        if monitor.last_sysno() == Some(Sysno::Send) {
            return monitor;
        }
    }
}

/// Flips the low bit of the byte at `addr` in variant 0.
fn flip_byte(monitor: &mut NVariantMonitor, addr: VirtAddr) {
    let process = monitor.variant_process_mut(VariantId::P0);
    let byte = process.read_byte(addr).expect("mapped address");
    process
        .write_byte(addr, byte ^ 1)
        .expect("writable address");
}

fn digest_after(monitor: &NVariantMonitor, change: impl FnOnce(&mut NVariantMonitor)) -> u64 {
    let mut changed = monitor.clone();
    change(&mut changed);
    changed.state_digest()
}

#[test]
fn state_digest_is_a_pure_function_of_the_state_bytes() {
    let monitor = mid_request_monitor();
    let base = monitor.state_digest();
    assert_eq!(monitor.clone().state_digest(), base);
    let layout = monitor.variant_process(VariantId::P0).layout();
    let deep = VirtAddr::new(layout.stack_base());
    // Explicit zeros over the never-touched low end of the stack are the
    // bytes that were already there.
    let zeroed = digest_after(&monitor, |m| {
        let process = m.variant_process_mut(VariantId::P0);
        process
            .write_bytes(deep, &[0; 256])
            .expect("stack is mapped");
    });
    assert_eq!(zeroed, base);
    // A live stack byte written and then restored leaves no trace.
    let live = VirtAddr::new(layout.stack_top - 8);
    let restored = digest_after(&monitor, |m| {
        flip_byte(m, live);
        flip_byte(m, live);
    });
    assert_eq!(restored, base);
}

#[test]
fn state_digest_sees_every_one_byte_change() {
    let monitor = mid_request_monitor();
    let base = monitor.state_digest();
    let process = monitor.variant_process(VariantId::P0);
    let layout = process.layout();
    let deep = VirtAddr::new(layout.stack_base() + 16);
    assert_eq!(process.read_byte(deep), Ok(0), "deep stack is untouched");
    let live = VirtAddr::new(layout.stack_top - 8);
    let global = process
        .global_addr(ATTACKED_GLOBAL)
        .expect("the httpd declares the attacked global");

    assert_ne!(digest_after(&monitor, |m| flip_byte(m, deep)), base);
    assert_ne!(digest_after(&monitor, |m| flip_byte(m, live)), base);
    assert_ne!(digest_after(&monitor, |m| flip_byte(m, global)), base);

    let (path, inode) = monitor
        .kernel()
        .fs()
        .iter()
        .find(|(_, inode)| inode.len() > 1)
        .expect("the world has a non-empty file");
    let (path, middle) = (path.to_string(), inode.data[inode.len() / 2]);
    let file_changed = digest_after(&monitor, |m| {
        let inode = m.kernel_mut().fs_mut().get_mut(&path).expect("file exists");
        let at = inode.len() / 2;
        inode.data.write_at(at, &[middle ^ 1]);
    });
    assert_ne!(file_changed, base);

    // Two equal-length responses that differ in their last byte.
    let conn = monitor
        .kernel()
        .net()
        .connections()
        .find(|c| !c.closed && !c.response.is_empty())
        .expect("the first send left an open connection with a response")
        .id;
    let send = |byte: u8| {
        digest_after(&monitor, |m| {
            m.kernel_mut()
                .net_mut()
                .send(conn, &[byte])
                .expect("connection is open");
        })
    };
    assert_ne!(send(b'a'), send(b'b'));
}

/// Checks, along every step of the unpruned tree the explorer walks for
/// `target` (each attacker-move position, with a capped branch at every
/// `recv`), that a step taken with a receive cap traps on the same syscall
/// as the uncapped step. Pushes each checked step's syscall onto `checked`.
fn check_caps_below(
    target: &CheckTarget,
    property: Property,
    depth: usize,
    prefix: &mut Vec<Action>,
    corrupted: bool,
    checked: &mut Vec<String>,
) {
    if prefix.len() == depth {
        return;
    }
    let corrupt_options: &[bool] = if corrupted { &[false] } else { &[false, true] };
    for &corrupt in corrupt_options {
        let mut step = |recv_cap| {
            prefix.push(Action { corrupt, recv_cap });
            let replayed = replay(target, property, prefix);
            prefix.pop();
            replayed
        };
        let uncapped = step(None);
        let capped = step(Some(4));
        if uncapped.steps.len() <= prefix.len() {
            // The group terminated within the prefix.
            return;
        }
        let sysno = uncapped
            .steps
            .last()
            .expect("one step per action")
            .sysno
            .clone();
        assert_eq!(
            capped.steps.last().map(|s| s.sysno.as_str()),
            Some(sysno.as_str()),
            "a receive cap changed the trapped syscall after {prefix:?}"
        );
        let caps: &[Option<usize>] = if sysno == "Recv" {
            &[None, Some(4)]
        } else {
            &[None]
        };
        checked.push(sysno);
        for &recv_cap in caps {
            prefix.push(Action { corrupt, recv_cap });
            check_caps_below(
                target,
                property,
                depth,
                prefix,
                corrupted || corrupt,
                checked,
            );
            prefix.pop();
        }
    }
}

#[test]
fn receive_caps_never_change_the_trapped_syscall() {
    let target = httpd_check_target(&DeploymentConfig::TwoVariantUid, WorldTemplate::standard());
    let mut checked = Vec::new();
    check_caps_below(
        &target,
        Property::UidIntegrity,
        20,
        &mut Vec::new(),
        false,
        &mut checked,
    );
    let recvs = checked.iter().filter(|sysno| *sysno == "Recv").count();
    assert!(
        recvs > 1,
        "{recvs} recv steps among {} checked",
        checked.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Minimization soundness: take the known violating trace, pad it with
    /// arbitrary extra annotations (a receive cap and a redundant corrupt
    /// move at random positions), and whenever the perturbed trace still
    /// violates, its minimization must (a) still replay to a violation and
    /// (b) carry no more non-default annotations than what it started from.
    #[test]
    fn prop_minimized_traces_still_fail_when_replayed(
        cap_seed in any::<u64>(),
        corrupt_seed in any::<u64>(),
    ) {
        let target = weakened_target();
        let (_, base_actions) = baseline();
        let mut perturbed = base_actions.clone();
        let len = perturbed.len();
        let cap_at = (cap_seed as usize) % len;
        perturbed[cap_at].recv_cap = Some(1 + (cap_seed >> 32) as usize % 4);
        let corrupt_at = (corrupt_seed as usize) % len;
        perturbed[corrupt_at].corrupt = true;
        let perturbed_replay = replay(&target, Property::UidIntegrity, &perturbed);
        // When the perturbation changes the schedule enough to defuse the
        // attack (or alarm early), minimize's precondition does not hold and
        // there is nothing to shrink in this case.
        if perturbed_replay.violation.is_some() {
            let (minimized, min_replay) = minimize(&target, Property::UidIntegrity, &perturbed);
            prop_assert!(min_replay.violation.is_some());
            // Replaying the minimized actions independently reproduces it.
            let independent = replay(&target, Property::UidIntegrity, &minimized);
            prop_assert_eq!(independent.violation, min_replay.violation);
            let annotations =
                |actions: &[Action]| actions.iter().filter(|a| !a.is_default()).count();
            prop_assert!(annotations(&minimized) <= annotations(&perturbed));
        }
    }
}
