//! The hot-path identity safety net for the zero-alloc/CoW work: campaign
//! behavior must be bit-for-bit what it was before the interpreter
//! dispatch, code-image sharing, and world-cloning optimizations.
//!
//! Four layers of protection:
//!
//! 1. A **committed golden fixture**: the canonical text of a fixed-seed
//!    quick campaign matrix, generated on the pre-optimization tree and
//!    committed at `tests/fixtures/hot_path_identity_golden.txt`. Any
//!    behavioral drift in the interpreter, kernel, monitor, or report
//!    rendering shows up as a byte diff. Regenerate (only when a PR
//!    *deliberately* changes campaign semantics) with
//!    `NVARIANT_REGEN_GOLDEN=1 cargo test --test hot_path_identity`.
//! 2. A **proptest over random programs** comparing the two instantiate
//!    paths (`instantiate()` against `instantiate_in(kernel_template())`):
//!    identical outcomes and identical `instructions_executed` counts.
//! 3. A **proptest over the same random programs** checking that the
//!    interpreter loop (`Process::run_until_trap`) is `Process::step`
//!    repeated: the same traps, instruction counts and state digests.
//! 4. **CoW isolation units**: one cell's file writes (the bundled httpd
//!    appends an access-log line per request) must never be visible to a
//!    sibling instantiation or to the shared kernel template.

use nvariant::{DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::campaigns::{
    full_matrix_campaign, security_sweep_configs, security_sweep_worlds,
};
use nvariant_apps::scenarios::compiled_httpd_system;
use nvariant_simos::{SyscallRequest, Sysno};
use nvariant_types::{Port, StateHasher, Word};
use nvariant_vm::{
    compile_program, parse_with_stdlib, Fault, MemoryLayout, Process, StepResult, TrapReason,
};
use proptest::prelude::*;
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 0x1DE7_71CA;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("hot_path_identity_golden.txt")
}

/// The fixed quick matrix: every sweep config × every sweep world ×
/// (benign + attack scenarios), one replicate, fixed seed.
fn golden_matrix_text() -> String {
    full_matrix_campaign(&security_sweep_configs(), &security_sweep_worlds(), 4, 1)
        .seed(GOLDEN_SEED)
        .run(2)
        .canonical_text()
}

#[test]
fn quick_matrix_matches_the_committed_golden_fixture() {
    let text = golden_matrix_text();
    let path = golden_path();
    if std::env::var_os("NVARIANT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it on a known-good \
             tree with NVARIANT_REGEN_GOLDEN=1 cargo test --test hot_path_identity",
            path.display()
        )
    });
    assert!(
        text == golden,
        "campaign canonical text drifted from the committed golden fixture \
         (lengths: got {}, golden {}); if this PR deliberately changes \
         campaign semantics, regenerate with NVARIANT_REGEN_GOLDEN=1",
        text.len(),
        golden.len()
    );
}

/// A parameterized SimC program: arithmetic loop feeding a global, a
/// UID-typed syscall pair on a data-dependent branch, and a final exit
/// status derived from the accumulator.
fn program_source(n: u32, mul: u32, add: u32, modv: u32) -> String {
    format!(
        r"
var counter: int;
fn work(n: int) -> int {{
    var i: int = 0;
    var acc: int = 0;
    while (i < n) {{
        acc = acc + i * {mul} + {add};
        i = i + 1;
    }}
    return acc;
}}
fn main() -> int {{
    counter = work({n});
    if (counter % {modv} == 0) {{
        setuid(getuid());
    }}
    return counter % 251;
}}
"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both instantiate paths — the default-template one and the explicit
    /// world one — produce identical outcomes and executed exactly the
    /// same number of instructions, for random programs under every paper
    /// configuration.
    #[test]
    fn both_instantiate_paths_agree(
        n in 0u32..300,
        mul in 1u32..7,
        add in 0u32..5,
        modv in 1u32..4,
        config_index in 0usize..4,
    ) {
        let config = DeploymentConfig::paper_configurations()
            .into_iter()
            .nth(config_index)
            .unwrap();
        let compiled = NVariantSystemBuilder::from_source(&program_source(n, mul, add, modv))
            .expect("template program parses")
            .config(config)
            .compile()
            .expect("template program compiles");

        let direct = compiled.instantiate().run();
        let via_world = compiled.instantiate_in(compiled.kernel_template()).run();

        prop_assert_eq!(&direct, &via_world);
        prop_assert_eq!(
            direct.metrics.total_instructions,
            via_world.metrics.total_instructions
        );
        prop_assert!(direct.metrics.total_instructions > 0);
    }
}

/// Everything [`Process::digest_into`] folds in, as one word.
fn process_digest(process: &Process) -> u64 {
    let mut digest = StateHasher::new();
    process.digest_into(&mut digest);
    digest.finish()
}

/// The reply every trap of the loop-contract property gets: `getuid`
/// reports httpd's UID, every other call succeeds.
fn reply(req: &SyscallRequest) -> Word {
    match req.sysno {
        Sysno::GetUid => Word::from_u32(48),
        _ => Word::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter loop is `step()` repeated: driving a process with
    /// `run_until_trap` gives the same trap sequence, and at every trap the
    /// same instruction count and state digest, as driving a clone one
    /// `step()` at a time under the same budget — whatever the layout,
    /// the instruction tag or where the budget runs out.
    #[test]
    fn run_until_trap_is_step_repeated(
        n in 0u32..300,
        mul in 1u32..7,
        add in 0u32..5,
        modv in 1u32..4,
        variant in 0u8..3,
        budget in 1u64..4000,
    ) {
        let program = parse_with_stdlib(&program_source(n, mul, add, modv))
            .expect("template program parses");
        let compiled = compile_program(&program).expect("template program compiles");
        let layout = match variant {
            0 => MemoryLayout::default(),
            _ => MemoryLayout::default().with_partition_bit(),
        };
        let mut looped = Process::with_tag(&compiled, layout, variant);
        let mut stepped = looped.clone();
        let mut traps = 0;
        loop {
            let trap = looped.run_until_trap(budget);
            let mut stepped_trap = TrapReason::Faulted(Fault::StepLimitExceeded);
            for _ in 0..budget {
                match stepped.step() {
                    StepResult::Continue => continue,
                    StepResult::Syscall(req) => stepped_trap = TrapReason::Syscall(req),
                    StepResult::Exited(status) => stepped_trap = TrapReason::Exited(status),
                    StepResult::Faulted(fault) => stepped_trap = TrapReason::Faulted(fault),
                }
                break;
            }
            if stepped_trap == TrapReason::Faulted(Fault::StepLimitExceeded) {
                stepped.set_faulted(Fault::StepLimitExceeded);
            }
            prop_assert_eq!(&trap, &stepped_trap);
            prop_assert_eq!(looped.instructions_executed(), stepped.instructions_executed());
            prop_assert_eq!(process_digest(&looped), process_digest(&stepped));
            traps += 1;
            match trap {
                TrapReason::Syscall(req) if req.sysno == Sysno::Exit => break,
                TrapReason::Syscall(req) => {
                    looped.complete_syscall(reply(&req));
                    stepped.complete_syscall(reply(&req));
                }
                TrapReason::Exited(_) | TrapReason::Faulted(_) => break,
            }
        }
        prop_assert!(traps > 0);
    }
}

/// One cell's writes must never leak into a sibling cell. The bundled
/// httpd appends an access-log line per served request, so serving a
/// request from cell A is a real file write; cell B instantiated from the
/// same compiled system afterwards must see the pristine world.
#[test]
fn sibling_cells_do_not_share_file_writes() {
    for config in [
        DeploymentConfig::Unmodified,
        DeploymentConfig::TwoVariantUid,
    ] {
        let compiled = compiled_httpd_system(&config);
        let log_before: Vec<u8> = compiled
            .kernel_template()
            .fs()
            .get("/var/log/httpd.log")
            .map(|inode| inode.data.to_vec())
            .unwrap_or_default();

        let mut a = compiled.instantiate();
        a.kernel_mut()
            .net_mut()
            .preload_request(Port::HTTP, b"GET /index.html HTTP/1.0\r\n\r\n".to_vec());
        let outcome = a.run();
        assert!(outcome.exited_normally(), "{config:?}: cell A failed");
        let log_a = a
            .kernel()
            .fs()
            .get("/var/log/httpd.log")
            .map(|inode| inode.data.to_vec())
            .unwrap_or_default();
        assert!(
            log_a.len() > log_before.len(),
            "{config:?}: cell A never wrote its access log — the isolation \
             assertion below would be vacuous"
        );

        // A sibling instantiated *after* A ran sees the pristine world.
        let b = compiled.instantiate();
        let log_b = b
            .kernel()
            .fs()
            .get("/var/log/httpd.log")
            .map(|inode| inode.data.to_vec())
            .unwrap_or_default();
        assert_eq!(
            log_b, log_before,
            "{config:?}: cell A's write leaked into sibling B"
        );

        // And the shared template itself is untouched.
        let log_template: Vec<u8> = compiled
            .kernel_template()
            .fs()
            .get("/var/log/httpd.log")
            .map(|inode| inode.data.to_vec())
            .unwrap_or_default();
        assert_eq!(
            log_template, log_before,
            "{config:?}: cell A's write leaked into the kernel template"
        );
    }
}
