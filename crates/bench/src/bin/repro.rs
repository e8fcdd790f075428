//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale F] [--seed N] [--slides N] [--quick]
//! ```
//!
//! EXPERIMENT is `all` or a name from `EXPERIMENTS` (`repro --help` lists
//! them). An unknown name fails the run before any experiment starts.

use gpma_analytics::App;
use gpma_bench::experiments as exp;
use gpma_bench::ExpConfig;

/// An experiment driver, run with the parsed configuration.
type Experiment = fn(&ExpConfig);

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |_| exp::table1()),
    ("table2", |cfg| {
        exp::table2(cfg);
    }),
    ("fig7", exp::fig7),
    ("fig8", |cfg| exp::fig_app(cfg, App::Bfs, "fig8")),
    ("fig9", |cfg| {
        exp::fig_app(cfg, App::ConnectedComponent, "fig9")
    }),
    ("fig10", |cfg| exp::fig_app(cfg, App::PageRank, "fig10")),
    ("fig11", exp::fig11),
    ("fig12", exp::fig12),
    ("sorted", exp::sorted_stream),
    ("explicit", exp::explicit_stream),
    ("ablation", exp::ablation),
    ("elastic", exp::elastic),
    ("audit", exp::audit),
    ("recovery", exp::recovery),
];

/// The experiments `names` select, in run order — the whole table if any
/// name is `all`. Fails on the first name that is neither.
fn select(names: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    let mut picked = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|(e, _)| e == name) {
            Some(&entry) => picked.push(entry),
            None if name == "all" => {}
            None => return Err(format!("unknown experiment: {name} (see --help)")),
        }
    }
    if names.iter().any(|n| n == "all") {
        picked = EXPERIMENTS.to_vec();
    }
    Ok(picked)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg = ExpConfig::quick(),
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a float");
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--slides" => {
                cfg.max_slides = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--slides needs an integer");
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        print_help();
        return;
    }
    let experiments = match select(&selected) {
        Ok(experiments) => experiments,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "repro: scale={} seed={} slides={} ({} experiment(s))",
        cfg.scale,
        cfg.seed,
        cfg.max_slides,
        experiments.len()
    );
    for (name, run) in experiments {
        let t0 = std::time::Instant::now();
        run(&cfg);
        eprintln!("[{name} finished in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}

fn print_help() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    println!(
        "repro — regenerate the paper's evaluation\n\
         usage: repro [EXPERIMENT ...] [--scale F] [--seed N] [--slides N] [--quick]\n\
         experiments: all {}\n\
         defaults: --scale 0.005 --seed 42 --slides 3\n\
         --quick: scale 0.001, 1 slide per configuration",
        names.join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_names(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        Ok(select(&names)?.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn names_are_unique_and_all_expands_to_the_whole_table() {
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate name in {table:?}");
        assert!(!table.contains(&"all"));
        assert_eq!(select_names(&["fig7", "all"]).unwrap(), table);
    }

    #[test]
    fn an_unknown_name_rejects_the_whole_selection() {
        assert_eq!(
            select_names(&["fig8", "table1"]).unwrap(),
            ["fig8", "table1"]
        );
        assert!(select_names(&["fig7", "cluster"]).is_err());
    }
}
