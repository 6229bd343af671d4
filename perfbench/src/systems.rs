//! The deployments under test and the benchmark's set-up phase: a fresh
//! compile of every configuration plus the provisioning of every world.

use nvariant::{CompiledSystem, DeploymentConfig, NVariantSystemBuilder};
use nvariant_apps::{httpd_source, security_sweep_configs};
use nvariant_simos::WorldTemplate;
use nvariant_types::Uid;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The short id a configuration's per-layer metrics are suffixed with.
#[must_use]
pub(crate) fn config_id(config: &DeploymentConfig) -> &'static str {
    match config {
        DeploymentConfig::Unmodified => "unmod",
        DeploymentConfig::TransformedSingle => "xform",
        DeploymentConfig::TwoVariantAddress => "2v-addr",
        DeploymentConfig::TwoVariantUid => "2v-uid",
        other if *other == DeploymentConfig::composed_uid_and_address() => "2v-uid-addr",
        _ => "custom",
    }
}

/// The configurations every workload deploys: the paper's four plus the
/// composed UID + address variation, in the campaign crate's order.
#[must_use]
pub fn configs() -> Vec<DeploymentConfig> {
    security_sweep_configs()
}

/// Compiles the mini Apache for `config` from source, bypassing every
/// artifact cache.
///
/// # Panics
///
/// Panics if the bundled server fails to compile, a bug in the repository.
#[must_use]
pub fn compile(config: &DeploymentConfig) -> CompiledSystem {
    NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd source parses")
        .config(config.clone())
        .initial_uid(Uid::ROOT)
        .compile()
        .expect("bundled httpd source compiles under every configuration")
}

/// What the set-up phase leaves behind: the compiled artifacts and the
/// timings of every set-up round.
pub struct Setup {
    /// One artifact per entry of [`configs`], from the first round.
    pub compiled: Vec<Arc<CompiledSystem>>,
    /// Whole set-up seconds, one per round.
    pub setup_s: Vec<f64>,
    /// Compile milliseconds per configuration, one per round.
    pub compile_ms: Vec<Vec<f64>>,
    /// Microseconds to provision one world, per configuration (every
    /// world of every round).
    pub provision_us: Vec<Vec<f64>>,
}

impl Setup {
    /// Runs the first set-up round and keeps its artifacts.
    #[must_use]
    pub fn new() -> Setup {
        let mut setup = Setup {
            compiled: Vec::new(),
            setup_s: Vec::new(),
            compile_ms: vec![Vec::new(); configs().len()],
            provision_us: vec![Vec::new(); configs().len()],
        };
        setup.compiled = setup.round();
        setup
    }

    /// One set-up round, timed: compile every configuration, then
    /// provision every catalogue world for each. Returns the artifacts.
    pub fn round(&mut self) -> Vec<Arc<CompiledSystem>> {
        let configs = configs();
        let worlds = WorldTemplate::catalogue();
        let started = Instant::now();
        let mut compiled = Vec::with_capacity(configs.len());
        for (index, config) in configs.iter().enumerate() {
            let t = Instant::now();
            let system = compile(config);
            self.compile_ms[index].push(ms(t.elapsed()));
            for world in &worlds {
                let t = Instant::now();
                std::hint::black_box(system.provision_world(world.kernel()));
                self.provision_us[index].push(us(t.elapsed()));
            }
            compiled.push(Arc::new(system));
        }
        self.setup_s.push(started.elapsed().as_secs_f64());
        compiled
    }
}

impl Default for Setup {
    fn default() -> Self {
        Setup::new()
    }
}

/// A duration in milliseconds.
#[must_use]
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
#[must_use]
pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
