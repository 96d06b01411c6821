//! Writing a fleet's artifacts the way `uniloc fleet` does, into the
//! benchmark's own output directory under the working directory.

use std::path::{Path, PathBuf};

use uniloc_bench::fleet::FleetResult;
use uniloc_obs::fleet as obsfleet;

/// Where a workload's artifacts and spans land: `.perfbench_out/<name>`
/// under the working directory (the checkout root).
///
/// # Errors
///
/// Propagates the directory-creation error.
pub fn out_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".perfbench_out").join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `FLEET.json`, then — when the fleet ran with observability on — the
/// health report and the call and allocation profiles.
///
/// # Errors
///
/// Propagates the first write error.
pub fn write_artifacts(dir: &Path, result: &FleetResult) -> Result<(), String> {
    write(dir, "FLEET.json", &result.report.to_string_pretty())?;
    let Some(snap) = &result.snapshot else {
        return Ok(());
    };
    let health = obsfleet::health_report(snap, &obsfleet::SloTargets::default());
    write(dir, "FLEET_HEALTH.json", &health.to_string_pretty())?;
    let tree = obsfleet::profile_tree(snap);
    write(dir, "PROF_fleet.folded", &obsfleet::folded_lines(&tree))?;
    write(
        dir,
        "PROF_fleet.json",
        &obsfleet::profile_report(&tree).to_string_pretty(),
    )?;
    let heap = obsfleet::alloc_tree(snap);
    write(
        dir,
        "PROF_alloc.folded",
        &obsfleet::alloc_folded_lines(&heap),
    )?;
    write(
        dir,
        "PROF_alloc.json",
        &obsfleet::alloc_report(snap, &heap).to_string_pretty(),
    )
}

/// A process status field in kB (`VmHWM`, `VmRSS`), from `/proc/self/status`.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
