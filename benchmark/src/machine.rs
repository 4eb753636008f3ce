//! What the harness reads about the machine and its own process, all from
//! `/proc` and `/sys` with the standard library.

use std::path::Path;

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resets the kernel's peak-RSS watermark to the current RSS, so each
/// repetition reports its own peak rather than the run's. Best effort: on
/// a kernel that refuses, `VmHWM` stays the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Lines of `/proc/self/maps`: the mapping count `vm.max_map_count` caps.
pub fn map_regions() -> u64 {
    std::fs::read_to_string("/proc/self/maps")
        .map(|s| s.lines().count() as u64)
        .unwrap_or(0)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mountinfo) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> ..."
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount_point), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |b| b.1)
}

/// The facts results are only ever compared like-for-like on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub page_size: u64,
    pub thp: String,
    pub max_map_count: String,
    pub git_commit: String,
}

fn kernel_page_size() -> u64 {
    let Ok(smaps) = std::fs::read_to_string("/proc/self/smaps") else {
        return 0;
    };
    smaps
        .lines()
        .find(|l| l.starts_with("KernelPageSize:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
fn git_commit(repo_root: &Path) -> String {
    let head = match std::fs::read_to_string(repo_root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(repo_root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

impl Fingerprint {
    pub fn read(repo_root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            page_size: kernel_page_size(),
            thp: read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled"),
            max_map_count: read_trimmed("/proc/sys/vm/max_map_count"),
            git_commit: git_commit(repo_root),
        }
    }
}
