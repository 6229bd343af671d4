//! Canned scenarios: deploy the mini Apache in a configuration, feed it
//! requests, and collect what happened.
//!
//! Since the build-once/run-many split, every entry point here runs on top
//! of the campaign engine: the httpd is compiled **once per configuration**
//! through the process-wide content-addressed [`artifact_store`] (memory
//! layer always; disk layer across processes when a cache directory is
//! configured) and each scenario run only pays
//! [`CompiledSystem::instantiate`].

use crate::httpd::httpd_source;
use nvariant::{
    ArtifactStore, CompiledSystem, DeploymentConfig, NVariantSystemBuilder, RunnableSystem,
};
use nvariant_campaign::{CampaignPlan, CellOutcome, CellResult, Scenario};
use nvariant_transform::TransformStats;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

pub use nvariant_campaign::ServedRequest;

/// The result of serving a batch of requests under one configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The configuration label the scenario ran under.
    pub config_label: String,
    /// How the deployed system terminated (the flattened, report-side form;
    /// the rendered alarm string is in [`CellOutcome::alarm`]).
    pub system: CellOutcome,
    /// The request/response pairs, in arrival order.
    pub requests: Vec<ServedRequest>,
    /// The UID-transformation change counts applied at build time.
    pub transform_stats: TransformStats,
}

impl ScenarioOutcome {
    /// Total number of response bytes produced.
    #[must_use]
    pub fn total_response_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.response.len() as u64).sum()
    }

    /// Number of requests answered with a 200.
    #[must_use]
    pub fn successful_requests(&self) -> usize {
        self.requests.iter().filter(|r| r.is_success()).count()
    }

    /// Rebuilds a scenario outcome from a campaign cell (the campaign
    /// engine's per-cell result carries the same observations; the cell is
    /// consumed so the exchange buffers move instead of copying).
    #[must_use]
    pub fn from_cell(cell: CellResult) -> Self {
        ScenarioOutcome {
            config_label: cell.spec.config_label,
            system: cell.outcome,
            requests: cell.exchanges,
            transform_stats: cell.transform_stats,
        }
    }
}

static ARTIFACT_STORE: OnceLock<ArtifactStore> = OnceLock::new();

/// Configures the process-wide [`ArtifactStore`] before its first use:
/// `Some(root)` persists compiled artifacts under `<root>/artifacts/` so
/// later *processes* skip recompilation too; `None` forces memory-only
/// caching (overriding any `NVARIANT_CACHE_DIR` in the environment).
///
/// Returns `false` — and changes nothing — if the store was already
/// initialized (by an earlier call or a first [`artifact_store`] use);
/// binaries should call this before compiling anything.
pub fn init_artifact_store(root: Option<PathBuf>) -> bool {
    let store = match root {
        Some(root) => ArtifactStore::at(root),
        None => ArtifactStore::memory_only(),
    };
    ARTIFACT_STORE.set(store).is_ok()
}

/// The process-wide content-addressed artifact store every scenario, attack
/// and benchmark run compiles through. Defaults to the environment
/// configuration ([`ArtifactStore::from_env`]: a disk layer under
/// `NVARIANT_CACHE_DIR` when set, memory-only otherwise) unless
/// [`init_artifact_store`] ran first.
#[must_use]
pub fn artifact_store() -> &'static ArtifactStore {
    ARTIFACT_STORE.get_or_init(ArtifactStore::from_env)
}

/// Compiles the mini Apache for `config` — or returns the cached artifact
/// from the process-wide content-addressed [`artifact_store`] (the memory
/// layer, or the disk layer when one is configured, so a warm cache
/// directory skips recompilation across processes). The artifact is
/// `Send + Sync` and cheap to instantiate, so callers can fan out over it.
///
/// # Panics
///
/// Panics if the bundled server source fails to compile — that would be a
/// bug in this crate, not in the caller.
#[must_use]
pub fn compiled_httpd_system(config: &DeploymentConfig) -> Arc<CompiledSystem> {
    let builder = NVariantSystemBuilder::from_source(httpd_source())
        .expect("bundled httpd source parses")
        .config(config.clone())
        .initial_uid(nvariant_types::Uid::ROOT);
    artifact_store()
        .get_or_compile(builder)
        .expect("bundled httpd source compiles under every configuration")
}

/// Builds the mini Apache deployed under `config`, in the standard world
/// (an instantiation of the cached compiled artifact).
///
/// # Panics
///
/// Panics if the bundled server source fails to build — that would be a bug
/// in this crate, not in the caller.
#[must_use]
pub fn build_httpd_system(config: &DeploymentConfig) -> RunnableSystem {
    compiled_httpd_system(config).instantiate()
}

/// Deploys the mini Apache under `config`, stages `requests` on the HTTP
/// port, runs the system to completion and pairs each request with its
/// response. Implemented as a one-cell plan over the cached compiled
/// artifact.
#[must_use]
pub fn run_requests(config: &DeploymentConfig, requests: &[Vec<u8>]) -> ScenarioOutcome {
    let mut report = CampaignPlan::new("run_requests")
        .config(compiled_httpd_system(config))
        .scenario(Scenario::fixed_requests("requests", requests.to_vec()))
        .run(1);
    ScenarioOutcome::from_cell(report.cells.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::benign_request;

    #[test]
    fn benign_requests_are_served_under_all_paper_configurations() {
        let requests = vec![
            benign_request("/index.html"),
            benign_request("/"),
            benign_request("/about.html"),
            benign_request("/missing.html"),
        ];
        for config in DeploymentConfig::paper_configurations() {
            let outcome = run_requests(&config, &requests);
            assert!(
                outcome.system.exited_normally(),
                "{}: {}",
                config,
                outcome.system
            );
            assert_eq!(outcome.requests.len(), 4, "{config}");
            assert_eq!(outcome.successful_requests(), 3, "{config}");
            assert!(outcome.requests[3].is_not_found(), "{config}");
            assert!(outcome.total_response_bytes() > 1000, "{config}");
            // The served index page has the expected content.
            assert!(String::from_utf8_lossy(outcome.requests[0].body()).contains("Welcome"));
        }
    }

    #[test]
    fn traversal_without_corruption_is_denied_by_file_permissions() {
        let requests = vec![benign_request("/../../../../etc/shadow")];
        let outcome = run_requests(&DeploymentConfig::Unmodified, &requests);
        assert!(outcome.system.exited_normally());
        assert!(outcome.requests[0].is_forbidden());
        assert!(!String::from_utf8_lossy(outcome.requests[0].body())
            .contains("EncryptedRootPasswordHash"));
    }

    #[test]
    fn transformed_configurations_expose_change_counts() {
        let outcome = run_requests(
            &DeploymentConfig::TwoVariantUid,
            &[benign_request("/index.html")],
        );
        assert!(outcome.transform_stats.paper_change_total() >= 12);
        let untransformed = run_requests(
            &DeploymentConfig::Unmodified,
            &[benign_request("/index.html")],
        );
        assert_eq!(untransformed.transform_stats.total(), 0);
    }

    #[test]
    fn request_log_is_written_through_privilege_escalation() {
        let outcome = run_requests(
            &DeploymentConfig::TwoVariantUid,
            &[benign_request("/index.html"), benign_request("/about.html")],
        );
        assert!(outcome.system.exited_normally(), "{}", outcome.system);
        let mut system = build_httpd_system(&DeploymentConfig::TwoVariantUid);
        // Fresh system: log starts empty.
        assert!(system
            .kernel_mut()
            .fs()
            .get("/var/log/httpd.log")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn compiled_cache_returns_the_same_artifact() {
        let a = compiled_httpd_system(&DeploymentConfig::TwoVariantUid);
        let b = compiled_httpd_system(&DeploymentConfig::TwoVariantUid);
        assert!(Arc::ptr_eq(&a, &b));
        let other = compiled_httpd_system(&DeploymentConfig::Unmodified);
        assert!(!Arc::ptr_eq(&a, &other));
        // Instantiations of the cached artifact are independent systems.
        let mut one = a.instantiate();
        one.kernel_mut().fs_mut().create("/tmp/mark", vec![1]);
        assert!(!a.instantiate().kernel().fs().exists("/tmp/mark"));
    }

    #[test]
    fn served_request_helpers() {
        let ok = ServedRequest {
            request: b"GET / HTTP/1.0\r\n\r\n".to_vec(),
            response: b"HTTP/1.0 200 OK\r\n\r\nhello".to_vec(),
        };
        assert!(ok.is_success());
        assert_eq!(ok.body(), b"hello");
        let denied = ServedRequest {
            request: vec![],
            response: b"HTTP/1.0 403 Forbidden\r\n\r\nForbidden\n".to_vec(),
        };
        assert!(denied.is_forbidden());
        assert!(!denied.is_success());
        // The status parser tolerates HTTP/1.1 responses too.
        let http11 = ServedRequest {
            request: vec![],
            response: b"HTTP/1.1 404 Not Found\r\n\r\n".to_vec(),
        };
        assert!(http11.is_not_found());
        assert_eq!(http11.status_code(), Some(404));
        let empty = ServedRequest {
            request: vec![],
            response: vec![],
        };
        assert_eq!(empty.body(), b"");
        assert!(!empty.is_not_found());
        assert_eq!(empty.status_code(), None);
    }
}
