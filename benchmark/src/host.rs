//! What the benchmark reads about its own process and its host.

use std::hint::black_box;
use std::time::Instant;

/// CPU time (user + system, every thread) this process has used, µs.
/// Clients and in-process servers share the process, so this is the
/// whole system's CPU cost.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime/stime are fields 14/15; the comm field before them is
    // parenthesized and may hold spaces, so count from the last ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux target.
    ticks * 10_000
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` `reps` times; the median duration in ns.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    crate::stats::percentile(&mut ns, 0.5)
}

/// Sum a buffer the way a streaming kernel reads it: eight independent
/// accumulators, every byte touched once.
pub fn read_sum(block: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    for chunk in block.chunks_exact(8) {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += *v;
        }
    }
    acc.iter().sum()
}

/// Facts about the host a result was taken on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores the process may use.
    pub nproc: usize,
    /// CPU features the kernels dispatch on.
    pub avx2: bool,
    /// See `avx2`.
    pub avx512f: bool,
    /// See `avx2`.
    pub fma: bool,
    /// Measured single-thread streaming read, GB/s (64 MB buffer).
    pub stream_read_gbps: f64,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostFacts {
    /// Measure and collect.
    pub fn collect() -> HostFacts {
        let flags = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find(|l| l.starts_with("flags"))
            .unwrap_or("")
            .to_string();
        let has = |f: &str| flags.split_whitespace().any(|w| w == f);
        let buf = vec![1.0f32; 16 << 20];
        let ns = median_ns(5, || {
            black_box(read_sum(black_box(&buf)));
        });
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: has("avx2"),
            avx512f: has("avx512f"),
            fma: has("fma"),
            stream_read_gbps: (buf.len() * 4) as f64 / ns,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}
