//! Shared plumbing for the benchmark harness.
//!
//! Every figure of the paper's evaluation section has a bench target in
//! `benches/` (`cargo bench --bench figNN_...`). By default the benches
//! run a reduced-scale smoke configuration so `cargo bench --workspace`
//! finishes in minutes; set `FBP_FULL=1` for the paper-scale runs. Figure
//! data is printed as aligned text tables and also dumped as JSON under
//! `target/figures/`; nothing checks it in yet (ROADMAP item 9).

use fbp_eval::report::Figure;
use fbp_imagegen::{DatasetConfig, SyntheticDataset};
use std::path::PathBuf;

/// True when paper-scale runs were requested via `FBP_FULL=1`.
pub fn is_full() -> bool {
    env_flag("FBP_FULL")
}

/// True when the CI bench-smoke job requested reduced sample counts via
/// `FBP_BENCH_FAST=1` (keep per-PR perf tracking cheap; the numbers are
/// noisier but the Q-sweep *shape* survives).
pub fn is_fast() -> bool {
    env_flag("FBP_BENCH_FAST")
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Median wall-clock nanoseconds of `f` over `samples` timed runs after
/// `warmup` untimed runs. The manual counterpart of the criterion shim
/// for benches that need their measurements *as data* (e.g. to write a
/// machine-readable Q-sweep for CI perf tracking).
pub fn time_median_ns(warmup: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Append machine-readable bench results (one JSON line per call) to the
/// path in `FBP_BENCH_JSON` (no-op when unset). Appending lets several
/// bench targets of one `cargo bench` invocation share a single record —
/// the CI bench-smoke job points this at a fresh `BENCH_pr.json` and
/// uploads it as the PR's perf artifact. Remove the file between local
/// runs for a fresh record.
pub fn write_bench_json(json: &str) {
    use std::io::Write;
    let Some(path) = std::env::var_os("FBP_BENCH_JSON") else {
        return;
    };
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(json.as_bytes()));
    match appended {
        Ok(()) => eprintln!("[bench] appended to {}", PathBuf::from(&path).display()),
        Err(e) => eprintln!(
            "[bench] could not write {}: {e}",
            PathBuf::from(&path).display()
        ),
    }
}

/// Pick a value by scale mode.
pub fn by_scale<T>(smoke: T, full: T) -> T {
    if is_full() {
        full
    } else {
        smoke
    }
}

/// The benchmark dataset: paper scale under `FBP_FULL=1`, ~35% otherwise.
pub fn bench_dataset() -> SyntheticDataset {
    let mut cfg = DatasetConfig::paper();
    if !is_full() {
        cfg.scale = 0.35;
        cfg.noise_images = (7509.0 * cfg.scale) as usize;
    }
    eprintln!(
        "[bench] generating dataset (scale {}, FBP_FULL={})...",
        cfg.scale,
        is_full()
    );
    SyntheticDataset::generate(cfg)
}

/// Stream length: 1000 queries at paper scale, shorter for smoke runs.
pub fn bench_queries() -> usize {
    by_scale(240, 1000)
}

/// Print a figure and persist its JSON under `target/figures/<name>.json`.
pub fn emit(name: &str, fig: &Figure) {
    println!("{}", fig.to_table());
    let dir = figures_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, fig.to_json()) {
            eprintln!("[bench] could not write {}: {e}", path.display());
        } else {
            eprintln!("[bench] wrote {}", path.display());
        }
    }
}

fn figures_dir() -> PathBuf {
    // `cargo bench` runs bench executables with the *package* root as the
    // working directory, so a relative "target" would land inside
    // crates/bench. Anchor at the workspace target instead (the manifest
    // dir is fixed at compile time).
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"))
        .join("figures")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbp_eval::Series;

    #[test]
    fn scale_mode_defaults_to_smoke() {
        // The test environment does not set FBP_FULL.
        if std::env::var("FBP_FULL").is_err() {
            assert!(!is_full());
            assert_eq!(by_scale(1, 2), 1);
            assert_eq!(bench_queries(), 240);
        }
    }

    #[test]
    fn emit_writes_json() {
        let fig = Figure::new("t", "x", "y", vec![Series::new("s", vec![(0.0, 1.0)])]);
        emit("bench_selftest", &fig);
        let path = figures_dir().join("bench_selftest.json");
        // Written if the directory was creatable (it is, under cargo).
        if path.exists() {
            let data = std::fs::read_to_string(&path).unwrap();
            assert!(data.contains("\"title\":\"t\""));
            let _ = std::fs::remove_file(path);
        }
    }
}
