//! `fbp-benchmark`: the repo benchmark. See `README.md` beside
//! `Cargo.toml` for the metric glossary and the workloads.
//!
//! ```text
//! fbp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! fbp-benchmark all --seed <n> [--seconds <s>] [--smoke]
//! fbp-benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```

mod adapter;
mod host;
mod inproc;
mod inputs;
mod load;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod wire;

use report::{ChildRun, RunResult};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// One run's settings.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// How long the measured load runs.
    pub seconds: Duration,
    /// Traced run and layer probes instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken sizes for the self-test.
    pub smoke: bool,
    /// Set-ups per end-to-end run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Where traces and result records go.
    pub out_dir: PathBuf,
}

/// `--name value` pairs and bare words of a command line.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => cli.flags.push(("smoke".into(), "1".into())),
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    cli.flags.push((name.to_string(), value));
                }
                None => cli.words.push(arg),
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }
}

/// `benchmark/out` under the current directory: the command is run
/// from the root of the checkout, and may write only inside it.
fn out_dir() -> PathBuf {
    std::env::current_dir()
        .unwrap_or_default()
        .join("benchmark")
        .join("out")
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    let sizes = spec::workload(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {} (one of {WORKLOADS:?})", args.workload))?;
    match (sizes, args.trace) {
        (Workload::Wire(s), false) => wire::run_end_to_end(&s, args),
        (Workload::Wire(s), true) => wire::run_per_layer(&s, args),
        (Workload::Inproc(s), false) => inproc::run_end_to_end(&s, args),
        (Workload::Inproc(s), true) => inproc::run_per_layer(&s, args),
    }
}

/// The contract's entry point: one workload, one mode, one JSON line.
fn run(cli: &Cli) -> Result<ExitCode, String> {
    let smoke = cli.flag("smoke").is_some();
    let args = Args {
        workload: cli
            .flag("workload")
            .ok_or("--workload is missing")?
            .to_string(),
        seed: cli.number("seed", 1)?,
        seconds: Duration::from_secs_f64(cli.number("seconds", 20.0)?),
        trace: cli.number::<u8>("trace", 0)? != 0,
        smoke,
        setup_reps: if smoke { 2 } else { 3 },
        out_dir: out_dir(),
    };
    let result = run_workload(&args)?;
    result.emit(
        &args.workload,
        if args.trace { &PER_LAYER } else { &END_TO_END },
    )?;
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a fresh child process
/// (clean RSS, no threads left over from the previous topology); writes
/// the result record.
fn all(cli: &Cli) -> Result<ExitCode, String> {
    let seed: u64 = cli.number("seed", 1)?;
    let seconds: f64 = cli.number("seconds", 20.0)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let host = host::HostFacts::collect();
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child = |trace: &str| -> Result<ChildRun, String> {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds.to_string(), "--trace", trace]);
            if cli.flag("smoke").is_some() {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            ChildRun::parse(&stdout).map_err(|e| format!("{workload} --trace {trace}: {e}"))
        };
        runs.push((workload, child("0")?, child("1")?));
    }
    let path = out_dir().join(format!("result_{seed}.json"));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, report::record_json(&host, seed, seconds, &runs))
        .map_err(|e| e.to_string())?;
    println!("# result record: {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(cli: &Cli) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let [_, a, b] = &cli.words[..] else {
        return Err("usage: compare <a.json> <b.json> [--bounds BENCHMARK.json]".into());
    };
    let bounds = load(cli.flag("bounds").unwrap_or("BENCHMARK.json"))?;
    let rows = report::compare(&load(a)?, &load(b)?, &bounds)?;
    Ok(ExitCode::from(report::print_comparison(&rows) as u8))
}

fn main() -> ExitCode {
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        match cli.words.first().map(String::as_str) {
            Some("compare") => compare(&cli),
            Some("all") => all(&cli),
            None if cli.flag("workload").is_some() => run(&cli),
            None => all(&cli),
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("fbp-benchmark: {e}");
        ExitCode::from(3)
    })
}
