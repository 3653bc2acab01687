//! Console table / series formatting for the experiment binaries, and the
//! `BENCH_<topic>.json` records the benches write.

use themis_serve::Json;

/// Print a header banner naming the experiment and the paper artifact it
/// regenerates.
pub fn banner(artifact: &str, description: &str) {
    println!("==========================================================");
    println!("{artifact}: {description}");
    println!("==========================================================");
}

/// Print a table: header row then aligned data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with fixed precision.
pub fn f(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Summary statistics of an error distribution, matching the boxplot views
/// in the paper's figures.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Mean (the black X of Figs. 3–4).
    pub mean: f64,
}

/// Compute [`Summary`] over percent differences.
pub fn summarize(errors: &[f64]) -> Summary {
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    Summary {
        p25: themis_core::metrics::percentile(errors, 25.0),
        p50: themis_core::metrics::percentile(errors, 50.0),
        p75: themis_core::metrics::percentile(errors, 75.0),
        mean,
    }
}

/// Ascend from the current directory to the workspace root, identified by
/// its `ROADMAP.md`. Benches run from somewhere inside the repo, so this
/// works without compile-time environment reads.
pub fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("ROADMAP.md").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Write `record` to `BENCH_<topic>.json` at the repo root, in the compact
/// form of the wire protocol's codec plus a newline, and return the path it
/// landed at. Keys keep their insertion order, so records diff cleanly run
/// to run.
pub fn write_bench_json(topic: &str, record: &Json) -> std::io::Result<std::path::PathBuf> {
    let root = workspace_root().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no ROADMAP.md above the current directory; run benches from inside the repo",
        )
    })?;
    let path = root.join(format!("BENCH_{topic}.json"));
    std::fs::write(&path, format!("{record}\n"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_percentiles() {
        let errors: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = summarize(&errors);
        assert!(s.p25 < s.p50 && s.p50 < s.p75);
        assert!((s.mean - 49.5).abs() < 1e-9);
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(f(1.23456), "1.23");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(f64::INFINITY), "inf");
    }

    // Bench records are `Json` values written in its compact form; these
    // two pin what the records and CI's `grep '"qps"'` rely on.
    #[test]
    fn json_renders_nested_records() {
        let record = Json::Obj(vec![
            ("bench".into(), Json::Str("demo".into())),
            ("n".into(), Json::Num(300_000.0)),
            ("qps".into(), Json::Num(1.5)),
            (
                "timings".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Num(0.75)]),
            ),
        ]);
        assert_eq!(
            record.to_string(),
            r#"{"bench":"demo","n":300000,"qps":1.5,"timings":[1.5,0.75]}"#
        );
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite() {
        assert_eq!(
            Json::Str("a\"b\\c\n".into()).to_string(),
            "\"a\\\"b\\\\c\\n\""
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Obj(vec![]).to_string(), "{}");
    }

    #[test]
    fn workspace_root_finds_the_repo() {
        let root = workspace_root().expect("tests run inside the repo");
        assert!(root.join("ROADMAP.md").is_file());
        assert!(root.join("Cargo.toml").is_file());
    }
}
