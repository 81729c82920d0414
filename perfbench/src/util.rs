//! Statistics, process counters, host tags and the per-run scratch
//! directory shared by every workload.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
/// Returns 0 for an empty sample set; callers report sample counts
/// beside every percentile so an empty set is visible.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Quantile of the fastest tenth of a run's units of work.
///
/// On a shared host, other tenants only ever slow a unit down, and they do
/// so in bursts: within one run the per-unit figures fall into a fast and a
/// slow group whose sizes change from run to run, so the median lands
/// anywhere between them. The fast tenth estimates the program's own cost
/// and repeats from run to run.
const FAST: f64 = 0.1;

/// The time the fastest tenth of samples beat.
pub fn fast_time(samples: &[f64]) -> f64 {
    percentile(samples, FAST)
}

/// The rate the fastest tenth of samples beat.
pub fn fast_rate(samples: &[f64]) -> f64 {
    percentile(samples, 1.0 - FAST)
}

/// Figures of a window's identical units of work (blocks or passes).
#[derive(Default)]
pub struct Units {
    /// Correct results per second of the unit's busy time.
    pub rate: Vec<f64>,
    /// The unit's p50 and p90 request latency, ms.
    pub p50_ms: Vec<f64>,
    pub p90_ms: Vec<f64>,
}

impl Units {
    pub fn push(&mut self, correct: usize, busy_s: f64, lat_ms: &[f64]) {
        self.rate.push(correct as f64 / busy_s);
        self.p50_ms.push(percentile(lat_ms, 0.5));
        self.p90_ms.push(percentile(lat_ms, 0.9));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Whole-process CPU time and context switches, exited threads included
/// (`RUSAGE_SELF`), so lane producer threads and sweep workers count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

impl ProcUsage {
    pub fn now() -> Self {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the C
        // layout getrusage(2) fills on 64-bit Linux; RUSAGE_SELF (0) is a
        // valid `who`, so the call writes only inside `ru`.
        let rc = unsafe { getrusage(0, &mut ru) };
        if rc != 0 {
            return Self::default();
        }
        let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
        Self {
            cpu_s: tv(ru.utime) + tv(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw).max(0) as u64,
        }
    }

    pub fn since(self, earlier: ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Hardware the run was measured on, and the source revision.
pub struct HostTags {
    pub cpu_model: String,
    pub cores: usize,
    pub git_sha: String,
}

impl HostTags {
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            cores: workers(),
            git_sha: git_sha(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Threads the program's thread pools size themselves to by default.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
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

/// A per-run scratch directory under `.bench_out/`, removed on drop, so
/// every cache dir and store a run creates starts empty and leaves
/// nothing behind.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    pub fn create(workload: &str, seed: u64) -> std::io::Result<RunDir> {
        let root = PathBuf::from(".bench_out")
            .join(format!("run-{workload}-{seed}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(RunDir { root })
    }

    /// A fresh, not-yet-existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut amem_sim::rng::Xoshiro256) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
