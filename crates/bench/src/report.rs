//! Plain-text table rendering and CSV export for the experiment drivers.
//! Every `repro` subcommand prints an aligned table (the "rows/series the
//! paper reports") and drops a CSV under `results/`.

use std::io::Write;
use std::path::Path;

/// Render an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        s.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Print the table and save it as CSV under `results/<name>.csv`.
pub fn emit(name: &str, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
    if let Err(e) = save_csv(name, headers, rows) {
        eprintln!("(csv save failed for {name}: {e})");
    }
}

/// Write `results/<name>.csv`.
pub fn save_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        writeln!(f, "{}", escaped.join(","))?;
    }
    f.flush()?;
    println!("(saved results/{name}.csv)");
    Ok(())
}

/// Milliseconds with adaptive precision.
pub fn fmt_ms(secs: f64) -> String {
    let ms = secs * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Throughput in million edges per second.
pub fn fmt_meps(edges: usize, secs: f64) -> String {
    if secs <= 0.0 {
        return "inf".into();
    }
    format!("{:.2}", edges as f64 / secs / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let rows = vec![
            vec!["a".into(), "100".into()],
            vec!["longer-name".into(), "2".into()],
        ];
        let s = render_table("T", &["name", "value"], &rows);
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Header, separator, two rows, title.
        assert_eq!(lines.len(), 5);
        assert!(lines[4].starts_with("longer-name"));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_ms(0.5), "500");
        assert_eq!(fmt_ms(0.0015), "1.50");
        assert_eq!(fmt_ms(0.0000015), "0.0015");
        assert_eq!(fmt_meps(2_000_000, 1.0), "2.00");
        assert_eq!(fmt_meps(1, 0.0), "inf");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("gpma-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        save_csv("unit_test", &["a", "b"], &[vec!["1,x".into(), "2".into()]]).unwrap();
        let content = std::fs::read_to_string("results/unit_test.csv").unwrap();
        std::env::set_current_dir(old).unwrap();
        assert_eq!(content, "a,b\n\"1,x\",2\n");
    }
}
