//! Metric records, summary statistics and run provenance.

use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells (simulator) or transactions (native) measured.
    pub attempted: u64,
    /// Of those, the ones whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra figures printed for people, not part of the result object.
    pub info: Vec<Metric>,
    /// Timed repetitions (simulator passes or native measured loops).
    pub reps: usize,
}

impl Outcome {
    pub fn fail(&mut self, units: u64, msg: String) {
        self.failed += units;
        self.errors.push(msg);
    }
}

/// Median (mean of the middle pair for even lengths); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Source revision: the git commit when `.git` is readable, otherwise an
/// FNV-1a digest of every file under `crates/` and `shims/` plus the
/// workspace manifests (a checkout without git history still gets a
/// stable identity for its sources).
pub fn revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if let Some(sha) = git_head(&root.join(".git")) {
        return format!("git:{sha}");
    }
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect_files(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy();
        let body = std::fs::read(f).unwrap_or_default();
        for byte in rel.as_bytes().iter().chain(body.iter()) {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-fnv:{h:016x}")
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
