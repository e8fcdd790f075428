//! `gpma-benchmark` — command line of the repo benchmark.
//!
//! ```text
//! gpma-benchmark --workload W --seed N --seconds S --trace 0|1 [--shrunk]
//! gpma-benchmark suite --seeds 1,2 --repeats R --out FILE [--seconds S] [--trace 0|1] [--shrunk]
//! gpma-benchmark compare A.json B.json     (exit 1: breach; 3: only of measured metrics)
//! gpma-benchmark spec
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, one process.
//! It prints every metric by name and unit, then — as the last line of
//! stdout — one JSON object `{correct, attempted, failed, metrics}`, and
//! exits non-zero when a check failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gpma_benchmark::driver::{self, RunArgs, RunOutcome};
use gpma_benchmark::json::Json;
use gpma_benchmark::spec::{self, MetricSpec};
use gpma_benchmark::suite::{self, SuiteArgs};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("suite") => cmd_suite(&argv[1..]).map(exit_code),
        Some("compare") => cmd_compare(&argv[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => cmd_run(&argv).map(exit_code),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gpma-benchmark: {e}");
            eprintln!(
                "usage: gpma-benchmark --workload W --seed N --seconds S --trace 0|1 [--shrunk]"
            );
            eprintln!("       gpma-benchmark suite --seeds 1,2 --repeats R --out FILE [--seconds S] [--trace 0|1] [--shrunk]");
            eprintln!("       gpma-benchmark compare A.json B.json | spec");
            ExitCode::from(2)
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--key value` pairs and bare `--flag`s of one subcommand.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, key: &str) -> Option<&'a str> {
        let i = self.args.iter().position(|a| a == key)?;
        self.args.get(i + 1).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {key}")),
            None => Ok(default),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.value("--trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, not {v:?}")),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let name = flags.value("--workload").ok_or("missing --workload")?;
    let mut spec = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    if flags.has("--shrunk") {
        spec = spec.shrunk();
    }
    let seconds: f64 = flags.parsed("--seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let run = RunArgs {
        spec,
        seed: flags.parsed("--seed", 1u64)?,
        seconds,
        trace: flags.trace()?,
    };
    let outcome = driver::run(&run);

    if let Some(doc) = &outcome.trace {
        let dir = trace_dir();
        let path = dir.join(format!("{}.json", run.spec.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.to_pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    print_outcome(&run, &outcome);
    Ok(outcome.correct && outcome.failed == 0)
}

/// `benchmark/trace` when run from the repo root (as `BENCHMARK.json`
/// does), `trace` when run from inside the package.
fn trace_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/trace")
    } else {
        PathBuf::from("trace")
    }
}

fn print_outcome(run: &RunArgs, outcome: &RunOutcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        run.spec.name, run.seed, run.seconds, run.trace as u8
    );
    let unit_of = |table: &[MetricSpec], name: &str| -> &'static str {
        table.iter().find(|m| m.name == name).map_or("", |m| m.unit)
    };
    let render = |table: &[MetricSpec], values: &[(String, f64)]| -> Json {
        Json::Obj(
            values
                .iter()
                .map(|(name, v)| {
                    println!("{name:<40} {v:>18.6} {}", unit_of(table, name));
                    let m = Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::str(unit_of(table, name))),
                    ]);
                    (name.clone(), m)
                })
                .collect(),
        )
    };
    let e2e = render(&spec::END_TO_END, &outcome.end_to_end);
    let layers = render(spec::PER_LAYER, &outcome.per_layer);
    println!(
        "correct {} attempted {} failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", if run.trace { layers } else { e2e }),
    ]);
    println!("{}", line.to_line());
}

fn cmd_suite(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let seeds = flags
        .value("--seeds")
        .unwrap_or("1,2")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad seed {s:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out = flags.value("--out").ok_or("missing --out FILE")?;
    let suite_args = SuiteArgs {
        seeds,
        repeats: flags.parsed("--repeats", 1usize)?,
        seconds: flags.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        trace: flags.trace()?,
        shrunk: flags.has("--shrunk"),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (doc, ok) = suite::run_suite(&exe, &suite_args);
    std::fs::write(out, doc.to_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("suite written to {out}");
    print!("{}", suite::noise_table(&doc));
    Ok(ok)
}

fn read_suite(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Exit code of `compare` when only measured metrics (host timings, heap
/// peak) breached their bounds: `check.sh` tells it from a moved count or a
/// wrong result, which exit with 1.
const EXIT_MEASURED_ONLY: u8 = 3;

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two suite files".into());
    };
    let (report, breaches) = suite::compare(&read_suite(a)?, &read_suite(b)?);
    print!("{report}");
    Ok(match (breaches.hard, breaches.measured) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(EXIT_MEASURED_ONLY),
        _ => ExitCode::from(1),
    })
}
