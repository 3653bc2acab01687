//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <groupby_hybrid|point_cached|ingest_live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. `--trace 0` drives an in-process
//! `ThemisServer` over TCP and reports the end-to-end metrics; `--trace 1`
//! makes the same load run and then replays the same inputs with each layer
//! timed from outside, reporting the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod inputs;
mod layers;
mod load;
mod report;

use inputs::{Inputs, Scale};
use load::{LoadReport, Workload};
use report::{median, Outcome};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics of a load run.
fn end_to_end(load: &LoadReport, out: &mut Outcome) {
    out.push("setup_s", "s", median(&load.setups));
    out.push(
        "qps",
        "1/s",
        report::ratio(load.query_rtt.len() as f64, load.phase_s),
    );
    out.push("answer_error_pct", "%", load.answer_error_pct);
    out.push("rss_mb", "MB", load.rss_mb);
}

/// One run: the load run, then the traced replay when asked for.
fn run(args: &Args, scale: &Scale) -> Outcome {
    let batches = args
        .workload
        .batches(args.seconds)
        .max(scale.replayed_batches);
    let inputs = Inputs::generate(args.seed, scale, batches);
    let mut load = load::run(args.workload, &inputs, args.seconds);
    let mut out = std::mem::take(&mut load.outcome);
    if args.trace {
        layers::run(args.workload, &inputs, args.seconds, &load, &mut out);
    } else {
        end_to_end(&load, &mut out);
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = run(&args, &Scale::full());
    for failure in &out.failures {
        eprintln!("perfbench: failed: {failure}");
    }
    println!("{}", out.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 11,
            seconds: 1,
            trace,
        }
    }

    /// Metric names and units, per mode, exactly as `BENCHMARK.json` lists
    /// them.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = themis_serve::Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(themis_serve::Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(themis_serve::Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload point_cached --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        assert_eq!(
            parse_args(&argv),
            Ok(Args {
                workload: Workload::PointCached,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string(), "1".to_string()]).is_err());
    }

    /// `ingest_live` sends one batch at the start of every ingest period of
    /// the timed phase; the read-only workloads send none.
    #[test]
    fn ingest_schedule_has_one_batch_per_period() {
        assert_eq!(load::INGEST_PERIOD.as_secs(), 2);
        assert_eq!(Workload::IngestLive.batches(30), 15);
        assert_eq!(Workload::IngestLive.batches(31), 16);
        assert_eq!(Workload::IngestLive.batches(1), 1);
        assert_eq!(Workload::GroupbyHybrid.batches(30), 0);
        assert_eq!(Workload::PointCached.batches(30), 0);
    }

    /// Every input of a run as bytes: sample rows and weights, aggregate
    /// groups, truths, point pool and batch rows.
    fn input_bytes(inputs: &Inputs) -> String {
        let rows: Vec<_> = inputs.sample.iter_rows().collect();
        let aggregates: Vec<_> = inputs
            .aggregates
            .iter()
            .map(|a| (a.attrs().to_vec(), a.groups().to_vec()))
            .collect();
        format!(
            "{rows:?}|{aggregates:?}|{:?}|{:?}|{:?}|{}",
            inputs.grouped_truth, inputs.points, inputs.batch_pool, inputs.population_size
        )
    }

    #[test]
    fn same_seed_same_inputs_and_streams() {
        let scale = Scale::tiny();
        let a = Inputs::generate(5, &scale, 3);
        let b = Inputs::generate(5, &scale, 3);
        assert!(
            input_bytes(&a) == input_bytes(&b),
            "same seed, other inputs"
        );
        for w in Workload::ALL {
            let x: Vec<usize> = w.stream(&a).take(500).collect();
            let y: Vec<usize> = w.stream(&b).take(500).collect();
            assert_eq!(x, y, "{} stream", w.name());
        }
        let c = Inputs::generate(6, &scale, 3);
        assert!(
            input_bytes(&a) != input_bytes(&c),
            "another seed gives other inputs"
        );
    }

    #[test]
    fn inputs_have_the_stated_shape() {
        let scale = Scale::tiny();
        let inputs = Inputs::generate(3, &scale, 2);
        assert_eq!(inputs.aggregates.len(), 4);
        assert_eq!(inputs.points.len(), 3 * scale.points_per_class);
        assert_eq!(inputs.batch(1).len(), scale.batch_rows);
        // The Corners sample holds only the four corner states.
        let origin = themis_data::AttrId(1);
        assert!((0..inputs.sample.len()).all(|r| inputs.sample.value(r, origin) < 4));
        let counts = Workload::PointCached.stream(&inputs).take(3000).fold(
            vec![0usize; inputs.points.len()],
            |mut c, i| {
                c[i] += 1;
                c
            },
        );
        assert!(
            counts[0] > counts[inputs.points.len() - 1],
            "Zipf favours low ranks"
        );
    }

    /// A tiny-scale run of every workload, in both modes: no operation
    /// fails, and exactly the listed metrics come out, with their units.
    #[test]
    fn smoke_every_workload_reports_exactly_its_metrics() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            for trace in [false, true] {
                let out = run(&args(w, trace), &scale);
                assert_eq!(
                    out.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    out.failures
                );
                assert!(out.correct());
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(reported(&out), listed(section), "{} {section}", w.name());
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
                assert!(out.to_json().starts_with("{\"correct\": true,"));
            }
        }
    }
}
