//! The repo's wall-clock benchmark: one command per workload builds two
//! regions, runs a fixed script against them, checks every result against
//! the generator's reference, and prints every metric by name with its
//! unit. See `README.md` beside this crate and `BENCHMARK.json` at the
//! repository root.
//!
//! **Clock:** every timing is wall time (`std::time::Instant`, read only
//! in [`trace::wall_now`]) over the in-memory Colossus backend with
//! `WriteProfile::instant()`. Nothing here reads the virtual-latency
//! model.
#![allow(clippy::print_stdout)] // prints results by design

mod drivers;
mod gen;
mod host;
mod layers;
mod manifest;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use drivers::{Pipeline, World};
use gen::Generator;
use manifest::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use trace::{p50, Recorder, Recording};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The `--seconds` value the plans are sized for.
const PLAN_SECONDS: f64 = manifest::RUN_SECONDS as f64;

/// One measured value: `(value, samples behind it)`.
type Metrics = BTreeMap<String, (f64, usize)>;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One run of one workload; last stdout line is the result object.
    Run,
    /// `--repeat k`: k runs, median/min/max and spread per metric.
    Repeat(usize),
    /// `--selfcheck`: run the exact counts twice, require equality.
    Selfcheck,
    /// `--smoke`: every workload at 1/20 scale.
    Smoke,
    /// `--emit-manifest`: print `BENCHMARK.json`.
    EmitManifest,
    /// `--host-speed`: time the speed kernel alone for `--seconds`.
    HostSpeed,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: PLAN_SECONDS,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload = Some(
                    Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 0|1` (the driver's form) or bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat" => {
                a.mode = Mode::Repeat(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--selfcheck" => a.mode = Mode::Selfcheck,
            "--smoke" => a.mode = Mode::Smoke,
            "--emit-manifest" => a.mode = Mode::EmitManifest,
            "--host-speed" => a.mode = Mode::HostSpeed,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// What one run produced.
struct RunOutput {
    rec: Recording,
    end_to_end: Metrics,
    per_layer: Metrics,
    /// Counts that must repeat exactly for a given seed and plan.
    exact: BTreeMap<String, u64>,
}

/// One complete run: set-ups, the measured script, checks, metrics.
fn run(workload: Workload, seed: u64, scale: f64, traced: bool) -> Result<RunOutput, String> {
    let plan = workload.plan(scale);
    let mut rec = Recorder::new(traced);
    // Set-up is repeated on fresh generators so each builds the same
    // world; the last one is kept and measured against.
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let mut gen = Generator::new(seed);
        let w = drivers::set_up(&mut rec, &mut gen, &plan)?;
        world = Some((w, gen));
    }
    let (mut world, mut gen) = world.expect("SETUPS > 0");

    let mut pipeline = Pipeline::open(&mut rec, &world, &plan)?;
    let before = layers::counters();
    let start = rec.now_ns();
    for lap in 0..drivers::LAPS {
        pipeline.lap(&mut rec, &mut gen, &mut world, lap);
    }
    rec.set_stage("");
    rec.interval("run", start, rec.now_ns());
    // Before the checks and probes below: their reads and scratch files
    // are not the workload's.
    let peak_rss_mb = host::peak_rss_mb();
    let after = layers::counters();
    let census = layers::Census::take(&world)?;
    pipeline.close(&mut rec, &world);
    drivers::durability_epilogue(&mut rec, &world);
    if traced {
        layers::probe(&mut rec, &mut gen, &world, &plan, workload.main_stage())?;
    }
    let mut exact = layers::exact_counts(&census, &before, &after);
    exact.insert("ops.attempted".into(), rec.attempted);
    let rec = rec.finish();

    let mut end_to_end = stage_metrics(&rec, &world, workload);
    let run_s = rec.total_us("run") / 1e6;
    end_to_end.insert("run_s".into(), (run_s, 1));
    end_to_end.insert(
        "setup_s".into(),
        (
            p50(&rec.durations_us("setup")).expect("set up") / 1e6,
            SETUPS,
        ),
    );
    let user: u64 = [&world.stream, &world.bulk, &world.hist]
        .iter()
        .map(|t| t.reference.user_bytes)
        .sum();
    end_to_end.insert(
        "stored_bytes_per_user_byte".into(),
        (layers::stored_total(&census.main) as f64 / user as f64, 1),
    );
    end_to_end.insert("peak_rss_mb".into(), (peak_rss_mb, 1));
    let per_layer = if traced {
        layers::metrics(
            &rec,
            &layers::LayerInputs {
                world: &world,
                census: &census,
                main_stage: workload.main_stage(),
                run_s,
                before: &before,
                after: &after,
            },
        )
    } else {
        Metrics::new()
    };
    Ok(RunOutput {
        rec,
        end_to_end,
        per_layer,
        exact,
    })
}

/// The end-to-end metrics each stage yields, as `(name, value, samples)`.
fn yields(rec: &Recording, w: &World, stage: &str) -> Vec<(&'static str, f64, usize)> {
    let s = |series: &str| rec.durations_us(&format!("{stage}.{series}"));
    let sum_us = |names: &[&str]| -> f64 { names.iter().map(|n| s(n).iter().sum::<f64>()).sum() };
    let mid = |name: &'static str, series: &str, per: f64| {
        let v = s(series);
        p50(&v).map(|x| (name, x / per, v.len()))
    };
    let rate = |name: &'static str, rows: u64, us: f64| {
        (us > 0.0).then(|| (name, rows as f64 / (us / 1e6), 1))
    };
    let out = match stage {
        "stream" => vec![
            mid("append_p50_us", "append", 1.0),
            rate(
                "ingest_rows_per_s",
                w.stream.reference.rows(),
                sum_us(&["append"]),
            ),
        ],
        "bulk" => vec![
            rate(
                "ingest_rows_per_s",
                w.bulk.reference.rows(),
                sum_us(&["bulk_append", "finalize", "batch_commit"]),
            ),
            rate(
                "convert_rows_per_s",
                w.bulk.reference.rows(),
                sum_us(&["convert", "recluster", "gc", "checkpoint"]),
            ),
        ],
        "query" => vec![
            mid("q_agg_p50_ms", "q_agg", 1e3),
            mid("q_filter_p50_ms", "q_filter", 1e3),
            mid("q_point_p50_ms", "q_point", 1e3),
            mid("q_narrow_p50_ms", "q_narrow", 1e3),
            mid("q_export_p50_ms", "q_export", 1e3),
        ],
        "hybrid" => vec![
            mid("append_p50_us", "append", 1.0),
            mid("visible_p50_ms", "visible", 1e3),
            mid("q_agg_p50_ms", "q_agg", 1e3),
            mid("q_point_p50_ms", "q_point", 1e3),
        ],
        _ => vec![],
    };
    out.into_iter().flatten().collect()
}

/// A metric is taken from the workload's own stage when that stage yields
/// it, otherwise from the first probe-sized stage (pipeline order) that
/// does — so every workload reports every metric.
fn stage_metrics(rec: &Recording, w: &World, workload: Workload) -> Metrics {
    let mut out = Metrics::new();
    let order = std::iter::once(workload.main_stage())
        .chain(["stream", "bulk", "query", "hybrid"])
        .collect::<Vec<_>>();
    for stage in order {
        for (name, value, n) in yields(rec, w, stage) {
            out.entry(name.to_string()).or_insert((value, n));
        }
    }
    out
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for (name, (value, n)) in metrics {
        println!(
            "{name:<40} {value:>16.4} {:<8} n={n}",
            manifest::unit_of(name)
        );
    }
}

/// The metrics a run reports on its last line — every end-to-end metric
/// untraced, every per-layer metric traced — as `(name, unit, value)`.
fn reported(out: &RunOutput, traced: bool) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let value = |m: &Metrics, name: &str| m.get(name).map(|v| v.0).filter(|v| v.is_finite());
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(&out.per_layer, m.name)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(&out.end_to_end, m.name)))
            .collect()
    }
}

/// The result object; an error naming the metrics that were not measured.
fn result_json(out: &RunOutput, traced: bool) -> Result<String, String> {
    let metrics = reported(out, traced);
    let absent: Vec<&str> = metrics
        .iter()
        .filter(|m| m.2.is_none())
        .map(|m| m.0)
        .collect();
    if !absent.is_empty() {
        return Err(format!("metrics not measured: {absent:?}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.expect("checked above")
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.rec.failed == 0,
        out.rec.attempted,
        out.rec.failed,
        body.join(", ")
    ))
}

fn trace_path(workload: Workload) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("benchmark")
        .join(format!("{}.trace.json", workload.name()))
}

fn run_once(a: &Args, workload: Workload) -> Result<bool, String> {
    let out = run(workload, a.seed, a.seconds / PLAN_SECONDS, a.trace)?;
    println!(
        "workload {} seed {} seconds {} trace {} (clock: wall scaled to reference speed; \
         host speed {:.3}; cpus: {})",
        workload.name(),
        a.seed,
        a.seconds,
        a.trace,
        out.rec.host_speed(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    print_metrics("end to end", &out.end_to_end);
    if a.trace {
        print_metrics("per layer", &out.per_layer);
        println!("-- layer shares of their roots");
        print!("{}", layers::share_report(&out.rec, &out.per_layer));
        println!("-- span self times: op, span, median raw us (time not covered by child spans)");
        for ((op, name), us) in trace::self_time_medians_us(&out.rec.spans) {
            println!("{op:<20} {name:<20} {us:>14.1}");
        }
        let path = trace_path(workload);
        let write = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(&path, trace::spans_to_json(workload.name(), &out.rec.spans))
            });
        match write {
            Ok(()) => println!("spans: {} -> {}", out.rec.spans.len(), path.display()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }
    println!("-- every timed series (scaled): samples, median us, total s");
    for name in out.rec.series_names() {
        let v = out.rec.durations_us(name);
        println!(
            "{name:<40} {:>8} {:>14.1} {:>10.3}",
            v.len(),
            p50(&v).unwrap_or(0.0),
            v.iter().sum::<f64>() / 1e6
        );
    }
    println!("-- exact counts");
    for (k, v) in &out.exact {
        println!("{k:<40} {v:>16}");
    }
    println!(
        "ops attempted {} failed {}",
        out.rec.attempted, out.rec.failed
    );
    println!("{}", result_json(&out, a.trace)?);
    Ok(out.rec.failed == 0)
}

/// `--repeat k`: median/min/max per end-to-end metric and the quartile
/// spread the acceptance rule uses, flagged against the metric's bound.
fn repeat(a: &Args, workload: Workload, k: usize) -> Result<bool, String> {
    let mut all: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..k {
        let out = run(workload, a.seed + i as u64, a.seconds / PLAN_SECONDS, false)?;
        ok &= out.rec.failed == 0;
        for m in END_TO_END {
            if let Some((v, _)) = out.end_to_end.get(m.name) {
                all.entry(m.name).or_default().push(*v);
            }
        }
    }
    println!(
        "workload {} runs {k} (seeds {}..{})",
        workload.name(),
        a.seed,
        a.seed + k as u64
    );
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "metric", "median", "min", "max", "iqr/med", "bound"
    );
    for m in END_TO_END {
        let Some(v) = all.get(m.name) else { continue };
        let med = p50(v).expect("k > 0");
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        let spread = manifest::quartile_spread(v);
        let flag = if spread > m.bound {
            "  SPREAD > BOUND"
        } else {
            ""
        };
        println!(
            "{:<28} {med:>12.4} {lo:>12.4} {hi:>12.4} {:>7.2}% {:>6.1}%{flag}",
            m.name,
            spread * 100.0,
            m.bound * 100.0
        );
    }
    Ok(ok)
}

/// `--selfcheck`: a count that is not the same twice is not trusted.
fn selfcheck(a: &Args, workloads: &[Workload]) -> Result<bool, String> {
    let mut ok = true;
    for &w in workloads {
        let scale = a.seconds / PLAN_SECONDS;
        let first = run(w, a.seed, scale, false)?;
        let second = run(w, a.seed, scale, false)?;
        let same = first.exact == second.exact;
        println!(
            "{:<20} {} exact counts {}",
            w.name(),
            first.exact.len(),
            if same { "identical" } else { "DIFFER" }
        );
        for (k, v) in &first.exact {
            let v2 = second.exact.get(k);
            if v2 != Some(v) {
                println!("  {k}: {v} vs {v2:?}");
            }
        }
        ok &= same && first.rec.failed == 0 && second.rec.failed == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Before any region exists, so that every thread inherits the pin.
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("pinned to cpu {cpu}"),
        None => eprintln!("could not pin to one cpu: expect wider spread"),
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed n] [--seconds s] [--trace [0|1]] \
                 [--repeat k | --selfcheck | --smoke | --emit-manifest | --host-speed]",
                WORKLOADS.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<Workload> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let outcome = match args.mode {
        Mode::EmitManifest => {
            print!("{}", manifest::to_json());
            Ok(true)
        }
        Mode::HostSpeed => {
            let ns = host::kernel_passes_ns(args.seconds);
            let at = |q: f64| ns[((ns.len() - 1) as f64 * q) as usize];
            println!(
                "speed kernel: {} passes, min {} ns, p10 {} ns, p50 {} ns, p90 {} ns",
                ns.len(),
                ns[0],
                at(0.1),
                at(0.5),
                at(0.9)
            );
            Ok(true)
        }
        Mode::Run => match args.workload {
            Some(w) => run_once(&args, w),
            None => Err("--workload is required".into()),
        },
        Mode::Repeat(k) if k > 0 => chosen
            .iter()
            .try_fold(true, |ok, &w| Ok(ok & repeat(&args, w, k)?)),
        Mode::Repeat(_) => Err("--repeat needs k > 0".into()),
        Mode::Selfcheck => selfcheck(&args, &chosen),
        Mode::Smoke => {
            let smoke = Args {
                seconds: PLAN_SECONDS / 20.0,
                ..args.clone()
            };
            chosen
                .iter()
                .try_fold(true, |ok, &w| Ok(ok & run_once(&smoke, w)?))
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: results disagree with the reference");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
