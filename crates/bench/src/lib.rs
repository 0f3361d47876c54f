//! Harness and report writer of the paper-shape suite.
//!
//! Wall-clock numbers come from the `benchmark/` package and nowhere
//! else. What runs here is what that package cannot express: seeded,
//! asserting reproductions of the paper's *shapes* on the virtual clock
//! or a cost model. Each is a plain `fn(&mut Run)` registered in
//! `benches/paper/main.rs`; [`paper_main`] runs every one under
//! [`SEEDS`] seeds and [`render`] is the only code that formats the
//! committed `BENCH_paper.json`.
#![allow(clippy::print_stdout)] // prints result tables by design
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Seeds each experiment runs under; the report gives the median, min
/// and max of every series over them.
pub const SEEDS: u64 = 3;

/// The clock an experiment's numbers are read from — never the wall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated TrueTime over the paper-calibrated storage latency model.
    Virtual,
    /// A count or cost model: bytes, writes, fragments, ledger units.
    Model,
}

impl Clock {
    /// The name `BENCH_paper.json` and EXPERIMENTS.md use.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Model => "model",
        }
    }
}

/// One registered experiment of the `paper` bench target.
pub struct Experiment {
    /// The id given on the command line and keyed in `BENCH_paper.json`.
    pub id: &'static str,
    /// What its series are measured on.
    pub clock: Clock,
    /// Runs once per seed: records series, asserts the paper's shape.
    pub run: fn(&mut Run),
}

/// One seed's run of one experiment.
pub struct Run {
    seed: u64,
    iters: Option<usize>,
    series: Vec<(String, f64)>,
}

impl Run {
    /// `0..SEEDS`; mixed into every RNG seed the experiment uses.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Length of the experiment's main loop: `full`, or
    /// `VORTEX_BENCH_ITERS` on a smoke run if that is shorter.
    pub fn iters(&self, full: usize) -> usize {
        self.iters.map_or(full, |n| n.clamp(1, full))
    }

    /// False on a smoke run, which exercises the paths but is too short
    /// for the shape assertions to be meaningful.
    pub fn full(&self) -> bool {
        self.iters.is_none()
    }

    /// Reports one value of `series` (an ASCII name) for this seed.
    pub fn report(&mut self, series: impl Into<String>, value: f64) {
        let series = series.into();
        assert!(value.is_finite(), "series {series} reported {value}");
        self.series.push((series, value));
    }
}

/// What one experiment recorded: a `(series, value)` list per seed.
pub struct Outcome {
    /// [`Experiment::id`].
    pub id: &'static str,
    /// [`Experiment::clock`].
    pub clock: Clock,
    /// One entry per seed, in seed order.
    pub runs: Vec<Vec<(String, f64)>>,
}

/// `[median, min, max]` of every series over the seeds, in recording order.
fn summarize(outcome: &Outcome) -> Result<Vec<(&str, [f64; 3])>, String> {
    let mut by_series: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, value) in outcome.runs.iter().flatten() {
        match by_series.iter_mut().find(|(n, _)| n == name) {
            Some((_, values)) => values.push(*value),
            None => by_series.push((name, vec![*value])),
        }
    }
    if by_series.is_empty() {
        return Err(format!("experiment {} recorded no series", outcome.id));
    }
    let mut out = Vec::new();
    for (name, mut v) in by_series {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
        out.push((name, [median, v[0], v[n - 1]]));
    }
    Ok(out)
}

/// A JSON number with at most three decimals.
fn num(v: f64) -> String {
    format!("{}", (v * 1000.0).round() / 1000.0)
}

/// The `BENCH_paper.json` text for `outcomes`. `iters` is the smoke
/// length, `None` for a full-length run. An experiment that recorded
/// nothing is an error: an empty object would read as "ran, no findings".
pub fn render(iters: Option<usize>, outcomes: &[Outcome]) -> Result<String, String> {
    let length = iters.map_or("full".to_string(), |n| format!("smoke:{n}"));
    let mut out =
        format!("{{\n  \"bench\": \"paper\",\n  \"length\": \"{length}\",\n  \"experiments\": {{");
    for (i, outcome) in outcomes.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{}\": {{\n      \"clock\": \"{}\",\n      \"seeds\": {},\n      \"series\": {{",
            if i == 0 { "" } else { "," },
            outcome.id,
            outcome.clock.name(),
            outcome.runs.len(),
        );
        for (j, (name, [median, min, max])) in summarize(outcome)?.into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        \"{name}\": {{\"median\": {}, \"min\": {}, \"max\": {}}}",
                if j == 0 { "" } else { "," },
                num(median),
                num(min),
                num(max),
            );
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

/// `main` of the `paper` bench target: runs the experiments named on the
/// command line (all of them when none is) under every seed and prints
/// each one's series. A run of the whole registry rewrites
/// `BENCH_paper.json` at the repo root; a subset prints its JSON instead,
/// so the committed file is always one run's output.
pub fn paper_main(experiments: &[Experiment]) {
    let iters = std::env::var("VORTEX_BENCH_ITERS")
        .ok()
        .map(|s| s.parse().expect("VORTEX_BENCH_ITERS must be a count"));
    // `cargo bench` passes its own `--bench` flag through to the binary.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !experiments.iter().any(|e| e.id == **id))
    {
        let known: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        eprintln!("unknown experiment {unknown:?}; registered: {known:?}");
        std::process::exit(2);
    }
    let mut outcomes = Vec::new();
    for e in experiments {
        if !ids.is_empty() && !ids.iter().any(|id| id == e.id) {
            continue;
        }
        let runs = (0..SEEDS).map(|seed| {
            let mut run = Run {
                seed,
                iters,
                series: Vec::new(),
            };
            (e.run)(&mut run);
            run.series
        });
        let outcome = Outcome {
            id: e.id,
            clock: e.clock,
            runs: runs.collect(),
        };
        let clock = e.clock.name();
        println!("\n=== {} ({clock} clock, {SEEDS} seeds) ===", e.id);
        println!(
            "{:>40} | {:>12} | {:>12} | {:>12}",
            "series", "median", "min", "max"
        );
        for (name, [median, min, max]) in summarize(&outcome).expect("series recorded") {
            println!(
                "{name:>40} | {:>12} | {:>12} | {:>12}",
                num(median),
                num(min),
                num(max)
            );
        }
        outcomes.push(outcome);
    }
    if iters.is_some() {
        println!("\n(smoke run: shape assertions skipped)");
    }
    let json = render(iters, &outcomes).expect("every experiment recorded a series");
    if ids.is_empty() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_paper.json");
        std::fs::write(&path, json).expect("write BENCH_paper.json");
        println!("\nwrote {}", path.display());
    } else {
        println!("\n{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: &'static str, clock: Clock, runs: &[&[(&str, f64)]]) -> Outcome {
        let owned = |run: &&[(&str, f64)]| run.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        Outcome {
            id,
            clock,
            runs: runs.iter().map(owned).collect(),
        }
    }

    #[test]
    fn json_schema_is_pinned() {
        let outcomes = [
            outcome(
                "fig7",
                Clock::Virtual,
                &[
                    &[("p50_us", 10_400.0), ("<1MB/s.p99_us", 29_800.0)],
                    &[("p50_us", 10_600.0), ("<1MB/s.p99_us", 31_000.0)],
                ],
            ),
            outcome("c3", Clock::Model, &[&[("cpu_saving", 6.3004)]]),
        ];
        let want = r#"{
  "bench": "paper",
  "length": "full",
  "experiments": {
    "fig7": {
      "clock": "virtual",
      "seeds": 2,
      "series": {
        "p50_us": {"median": 10500, "min": 10400, "max": 10600},
        "<1MB/s.p99_us": {"median": 30400, "min": 29800, "max": 31000}
      }
    },
    "c3": {
      "clock": "model",
      "seeds": 1,
      "series": {
        "cpu_saving": {"median": 6.3, "min": 6.3, "max": 6.3}
      }
    }
  }
}
"#;
        assert_eq!(render(None, &outcomes).unwrap(), want);
        let smoke = render(Some(40), &outcomes).unwrap();
        assert_eq!(smoke, want.replace("\"full\"", "\"smoke:40\""));
    }

    #[test]
    fn median_min_max_over_seeds() {
        for (values, want) in [
            (&[7.0][..], [7.0, 7.0, 7.0]),
            (&[9.0, 4.0], [6.5, 4.0, 9.0]),
            (&[5.0, 1.0, 4.0, 2.0, 30.0], [4.0, 1.0, 30.0]),
        ] {
            let runs: Vec<[(&str, f64); 1]> = values.iter().map(|v| [("s", *v)]).collect();
            let runs: Vec<&[(&str, f64)]> = runs.iter().map(|r| &r[..]).collect();
            let outcome = outcome("x", Clock::Model, &runs);
            let got = summarize(&outcome).unwrap();
            assert_eq!(got, vec![("s", want)], "k = {}", values.len());
        }
    }

    #[test]
    fn an_experiment_without_series_is_an_error() {
        let empty = [
            outcome("c6", Clock::Virtual, &[&[("speedup", 1.6)]]),
            outcome("c8", Clock::Virtual, &[&[], &[]]),
        ];
        let err = render(None, &empty).unwrap_err();
        assert!(err.contains("c8"), "{err}");
    }

    #[test]
    fn smoke_runs_cap_the_loop_and_disarm_the_shape_assertions() {
        let run = |iters| Run {
            seed: 0,
            iters,
            series: Vec::new(),
        };
        assert_eq!((run(None).iters(120), run(None).full()), (120, true));
        assert_eq!(
            (run(Some(10)).iters(120), run(Some(10)).full()),
            (10, false)
        );
        assert_eq!(run(Some(500)).iters(120), 120);
        assert_eq!(run(Some(0)).iters(120), 1);
    }
}
