//! `suite` and `compare`: the tool every acceptance check and every later
//! change uses.
//!
//! `suite` runs every workload for every seed, `--repeats` times, each run
//! in its own process (fresh heap, fresh page cache state, no warm JIT-like
//! effects carried between runs), workloads interleaved so that a slow
//! spell of the host lands on all of them alike, and collects the result
//! lines into one file. `compare A B` reads two such files — two sets of
//! runs of the same code, or parent and change — and checks B against A
//! with the benchmark's own bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec, WORKLOADS};
use crate::stats::{cv, iqr_ratio, median};

/// Relative tolerance within which an exact metric "repeats exactly".
pub const EXACT_TOLERANCE: f64 = 1e-9;

/// What `suite` should run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Stream seeds.
    pub seeds: Vec<u64>,
    /// Runs per workload and seed.
    pub repeats: usize,
    /// `--seconds` of each run.
    pub seconds: f64,
    /// Traced runs (per-layer metrics) instead of end-to-end ones.
    pub trace: bool,
    /// Run the tenth-size workloads.
    pub shrunk: bool,
}

/// Run the suite with `exe` (this binary) and return the suite document.
/// Progress goes to stderr; a run that exits non-zero or prints no result
/// line is recorded with `"error"` and makes the whole suite fail.
pub fn run_suite(exe: &Path, args: &SuiteArgs) -> (Json, bool) {
    let mut runs = Vec::new();
    let mut ok = true;
    for repeat in 0..args.repeats {
        for &seed in &args.seeds {
            for w in WORKLOADS {
                let mut cmd = Command::new(exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if args.trace { "1" } else { "0" }]);
                if args.shrunk {
                    cmd.arg("--shrunk");
                }
                eprintln!("suite: {} seed {seed} repeat {repeat}", w.name);
                let mut run = vec![
                    ("workload".to_string(), Json::str(w.name)),
                    ("seed".to_string(), Json::Num(seed as f64)),
                    ("repeat".to_string(), Json::Num(repeat as f64)),
                    ("trace".to_string(), Json::Num(args.trace as u8 as f64)),
                ];
                match run_one(&mut cmd) {
                    Ok(Json::Obj(result)) => run.extend(result),
                    Ok(_) => unreachable!("run_one returns objects"),
                    Err(e) => {
                        eprintln!("suite: {} seed {seed}: {e}", w.name);
                        run.push(("error".to_string(), Json::Str(e)));
                        ok = false;
                    }
                }
                runs.push(Json::Obj(run));
            }
        }
    }
    (
        Json::obj([("schema", Json::Num(1.0)), ("runs", Json::Arr(runs))]),
        ok,
    )
}

/// Spawn one run, wait for it, and parse the last line of its stdout.
fn run_one(cmd: &mut Command) -> Result<Json, String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let parsed =
        Json::parse(last).map_err(|e| format!("no result line ({e}); exit {}", out.status))?;
    if !matches!(parsed, Json::Obj(_)) {
        return Err("result line is not an object".into());
    }
    if !out.status.success() {
        // Keep the result (it says what failed) but flag the run.
        return Err(format!("run exited with {}: {last}", out.status));
    }
    Ok(parsed)
}

/// One metric's values in one suite file, per workload.
struct Samples {
    values: Vec<f64>,
    /// `(seed, value)` for the per-seed exactness check.
    by_seed: Vec<(u64, f64)>,
}

fn samples(doc: &Json, workload: &str, metric: &str) -> Samples {
    let mut s = Samples {
        values: Vec::new(),
        by_seed: Vec::new(),
    };
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if run.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let value = run
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        if let Some(v) = value {
            let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            s.values.push(v);
            s.by_seed.push((seed, v));
        }
    }
    s
}

/// `(attempted, failed, incorrect or errored runs)` of a suite file.
fn failure_totals(doc: &Json) -> (f64, f64, usize) {
    let (mut attempted, mut failed, mut bad) = (0.0, 0.0, 0);
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if run.get("correct").and_then(Json::as_bool) != Some(true) || run.get("error").is_some() {
            bad += 1;
        }
    }
    (attempted, failed, bad)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// A sample's values grouped by the seed of their run.
fn by_seed(s: &Samples) -> BTreeMap<u64, Vec<f64>> {
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(seed, v) in &s.by_seed {
        groups.entry(seed).or_default().push(v);
    }
    groups
}

/// For every seed both sets ran: `a`'s and `b`'s values of that seed.
fn shared_seeds(a: &Samples, b: &Samples) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut gb = by_seed(b);
    by_seed(a)
        .into_iter()
        .filter_map(|(seed, va)| Some((va, gb.remove(&seed)?)))
        .collect()
}

/// Does an exact metric repeat to [`EXACT_TOLERANCE`], within and between
/// the two sets, for every seed both ran?
fn exact_match(a: &Samples, b: &Samples) -> bool {
    shared_seeds(a, b).iter().all(|(va, vb)| {
        va.iter()
            .chain(vb)
            .all(|x| (x - va[0]).abs() <= EXACT_TOLERANCE * va[0].abs())
    })
}

/// By how much `b` is worse than `a` on an exact metric: a count depends on
/// the seed, so it is judged seed by seed — the largest worsening among the
/// seeds both sets ran. `None` when they share no seed.
fn worsening_by_seed(better: Better, a: &Samples, b: &Samples) -> Option<f64> {
    shared_seeds(a, b)
        .iter()
        .map(|(va, vb)| worsening(better, median(va), median(vb)))
        .reduce(f64::max)
}

/// What `compare` found wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breaches {
    /// A measured metric (a host timing, the heap peak) whose set median is
    /// worse by more than its bound.
    pub measured: usize,
    /// An exact metric worse by more than its bound for some seed, or not
    /// repeating where it must; an incorrect or errored run; a larger
    /// failed share.
    pub hard: usize,
}

impl Breaches {
    /// Breaches of either kind.
    pub fn total(self) -> usize {
        self.measured + self.hard
    }
}

/// Compare suite `b` against suite `a` with the benchmark's own bounds.
/// Measured metrics are judged by their set medians; exact metrics seed by
/// seed, and on a workload where they repeat bit for bit any movement is a
/// breach.
pub fn compare(a: &Json, b: &Json) -> (String, Breaches) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut breaches = Breaches::default();
    let _ = writeln!(
        out,
        "{:<15} {:<36} {:>13} {:>13} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "A iqr%", "B iqr%", "worse%", "bound%"
    );
    let all: Vec<MetricSpec> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .copied()
        .collect();
    for w in WORKLOADS {
        for m in &all {
            let (sa, sb) = (samples(a, w.name, m.name), samples(b, w.name, m.name));
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            let mut worse = worsening(m.better, ma, mb);
            let mut verdict = String::new();
            let mut moved = false;
            if m.exact {
                worse = worsening_by_seed(m.better, &sa, &sb).unwrap_or(worse);
                let same = exact_match(&sa, &sb);
                verdict.push_str(if same { "exact " } else { "inexact " });
                moved = w.exact && !same;
            }
            let breach = m.bound.is_some_and(|bound| worse > bound || moved);
            if breach && m.exact {
                breaches.hard += 1;
            } else if breach {
                breaches.measured += 1;
            }
            verdict.push_str(match (breach, m.bound) {
                (true, _) => "BREACH",
                (false, Some(_)) => "ok",
                (false, None) => "-",
            });
            let _ = writeln!(
                out,
                "{:<15} {:<36} {:>13.6} {:>13.6} {:>8.2} {:>8.2} {:>8.2} {:>7}  {}",
                w.name,
                m.name,
                ma,
                mb,
                iqr_ratio(&sa.values) * 100.0,
                iqr_ratio(&sb.values) * 100.0,
                worse * 100.0,
                m.bound
                    .map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                verdict
            );
        }
    }
    let (att_a, fail_a, bad_a) = failure_totals(a);
    let (att_b, fail_b, bad_b) = failure_totals(b);
    let share = |f: f64, n: f64| if n == 0.0 { 0.0 } else { f / n };
    let _ = writeln!(
        out,
        "failed share: A {:.3e} ({fail_a} of {att_a}), B {:.3e} ({fail_b} of {att_b}); incorrect or errored runs: A {bad_a}, B {bad_b}",
        share(fail_a, att_a),
        share(fail_b, att_b)
    );
    if share(fail_b, att_b) > share(fail_a, att_a) {
        breaches.hard += 1;
        let _ = writeln!(out, "BREACH: B fails a larger share of its operations");
    }
    if bad_b > 0 {
        breaches.hard += bad_b;
        let _ = writeln!(out, "BREACH: {bad_b} run(s) of B were incorrect or errored");
    }
    let _ = writeln!(
        out,
        "{} breach(es): {} of a measured metric, {} of a count or of correctness",
        breaches.total(),
        breaches.measured,
        breaches.hard
    );
    (out, breaches)
}

/// Per workload and end-to-end metric of a suite file: runs, median,
/// run-level coefficient of variation and inter-quartile spread.
pub fn noise_table(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("workload         metric              runs   median        cv%     iqr%\n");
    for w in WORKLOADS {
        for m in spec::END_TO_END.iter() {
            let s = samples(doc, w.name, m.name);
            if s.values.len() < 2 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<16} {:<22} {:>3} {:>13.4} {:>7.2} {:>7.2}",
                w.name,
                m.name,
                s.values.len(),
                median(&s.values),
                cv(&s.values) * 100.0,
                iqr_ratio(&s.values) * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, ups: f64, sim: f64, failed: u64, correct: bool) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                Json::obj([
                    ("updates_per_s", metric(ups, "updates/s")),
                    ("update_sim_us", metric(sim, "sim_us")),
                ]),
            ),
        ])
    }

    fn suite(runs: Vec<Json>) -> Json {
        Json::obj([("schema", Json::Num(1.0)), ("runs", Json::Arr(runs))])
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    }

    fn hard(n: usize) -> Breaches {
        Breaches {
            measured: 0,
            hard: n,
        }
    }

    #[test]
    fn identical_sets_have_no_breach_and_are_exact() {
        let a = suite(vec![
            run("paper-slide", 1, 100.0, 0.5, 0, true),
            run("paper-slide", 2, 104.0, 0.6, 0, true),
        ]);
        let (report, breaches) = compare(&a, &a);
        assert_eq!(breaches.total(), 0, "{report}");
        assert!(report.contains("exact ok"));
    }

    #[test]
    fn a_slowdown_past_the_bound_is_a_measured_breach() {
        let a = suite(vec![
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 1, 102.0, 0.5, 0, true),
        ]);
        let within = suite(vec![
            run("stream-small", 1, 95.0, 0.5, 0, true),
            run("stream-small", 1, 96.0, 0.5, 0, true),
        ]);
        let beyond = suite(vec![
            run("stream-small", 1, 75.0, 0.5, 0, true),
            run("stream-small", 1, 76.0, 0.5, 0, true),
        ]);
        assert_eq!(compare(&a, &within).1.total(), 0);
        let (report, breaches) = compare(&a, &beyond);
        assert_eq!(
            breaches,
            Breaches {
                measured: 1,
                hard: 0
            },
            "{report}"
        );
        assert!(report.contains("BREACH"));
    }

    #[test]
    fn exact_metric_must_repeat_where_the_workload_is_single_threaded() {
        // paper-slide runs on the driver thread: any movement is a breach.
        let a = suite(vec![run("paper-slide", 1, 100.0, 0.5, 0, true)]);
        let drift = suite(vec![run("paper-slide", 1, 100.0, 0.5000001, 0, true)]);
        let (report, breaches) = compare(&a, &drift);
        assert!(report.contains("inexact BREACH"), "{report}");
        assert_eq!(breaches, hard(1));
        // With worker threads the count is only bounded.
        let a = suite(vec![run("stream-small", 1, 100.0, 0.5, 0, true)]);
        let drift = suite(vec![run("stream-small", 1, 100.0, 0.505, 0, true)]);
        let (report, breaches) = compare(&a, &drift);
        assert!(report.contains("inexact ok"), "{report}");
        assert_eq!(breaches.total(), 0);
        let jump = suite(vec![run("stream-small", 1, 100.0, 0.55, 0, true)]);
        assert_eq!(compare(&a, &jump).1, hard(1));
    }

    #[test]
    fn exact_metric_is_judged_seed_by_seed() {
        // Seed 2 costs twice seed 1; the sets hold the seeds in different
        // numbers, so their medians differ though nothing moved.
        let a = suite(vec![
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 2, 100.0, 1.0, 0, true),
        ]);
        let b = suite(vec![
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 2, 100.0, 1.0, 0, true),
            run("stream-small", 2, 100.0, 1.0, 0, true),
        ]);
        assert_eq!(compare(&a, &b).1.total(), 0);
        // One seed worse past the bound is a breach although the set medians
        // hide it.
        let worse = suite(vec![
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 1, 100.0, 0.5, 0, true),
            run("stream-small", 2, 100.0, 1.1, 0, true),
        ]);
        assert_eq!(compare(&a, &worse).1, hard(1));
    }

    #[test]
    fn more_failures_or_an_incorrect_run_breach() {
        let a = suite(vec![run("serve-mixed", 1, 100.0, 0.5, 0, true)]);
        let failing = suite(vec![run("serve-mixed", 1, 100.0, 0.5, 3, true)]);
        assert_eq!(compare(&a, &failing).1, hard(1));
        let wrong = suite(vec![run("serve-mixed", 1, 100.0, 0.5, 0, false)]);
        assert_eq!(compare(&a, &wrong).1, hard(1));
    }
}
