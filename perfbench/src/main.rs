//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <market|overlay|service> --seed N --seconds S --trace 0|1
//! perfbench --compare RESULT_A RESULT_B
//! ```
//!
//! A run prints its metadata, work counts, checks and metrics, writes
//! its result (and, traced, its spans) under `perfbench/out/`, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced, the metrics are the end-to-end ones; traced, the per-layer
//! ones. `--compare` prints the metric ratios of two result files and
//! refuses files whose workload, parameters or threads differ. The
//! market and service pools run `nproc` threads.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trustex_perfbench::market::Market;
use trustex_perfbench::overlay::Overlay;
use trustex_perfbench::service::Service;
use trustex_perfbench::trace::Tracer;
use trustex_perfbench::{execute, peak_rss_bytes, Outcome, Scale, Workload};
use trustex_perfbench::{END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <market|overlay|service> --seed N \
--seconds S --trace 0|1\n       perfbench --compare RESULT_A RESULT_B";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    for flag in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(flag) {
            return Err(format!("unknown flag {flag}"));
        }
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The directory results and traces are written to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The git revision of the working directory, when it is a git
/// checkout's root.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal (the values written here need no escapes beyond
/// quotes and backslashes).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A metric value as JSON: all its digits, and finite.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run<W: Workload>(workload: &W, args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("threads".into(), workload.threads(nproc).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("git_rev".into(), git_rev()),
        ("profile".into(), "release".into()),
    ];
    for (k, v) in workload.params() {
        meta.push((format!("param.{k}"), v));
    }
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    println!("meta {{{}}}", meta_json.join(", "));

    let threads = workload.threads(nproc);
    let (mut outcome, tracer) = execute(workload, args.seed, threads, args.trace);
    let peak_mb = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    outcome.end_to_end.insert("peak_rss_mb", peak_mb);

    for (name, v) in &outcome.counts {
        println!("count {name} = {v}");
    }
    for (what, ok) in &outcome.checks {
        println!("check {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    outcome.layer.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, outcome.end_to_end[m.name]))
            .collect()
    };
    for (name, unit, v) in &metrics {
        println!("metric {name} = {v:.6} {unit}");
    }
    println!(
        "failed_share = {} ({} of {} attempted)",
        outcome.failed_share(),
        outcome.failed,
        outcome.attempted
    );

    if let Err(e) = write_outputs(args, &meta, &outcome, &metrics, &tracer) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*v),
                quote(unit)
            )
        })
        .collect();
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the result file (`key=value` lines) and, traced, the spans.
fn write_outputs(
    args: &Args,
    meta: &[(String, String)],
    outcome: &Outcome,
    metrics: &[(&str, &str, f64)],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let dir = out_dir();
    fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut w = BufWriter::new(fs::File::create(dir.join(format!("{stem}.txt")))?);
    for (k, v) in meta {
        writeln!(w, "meta.{k}={v}")?;
    }
    writeln!(w, "result.correct={}", outcome.correct())?;
    writeln!(w, "result.attempted={}", outcome.attempted)?;
    writeln!(w, "result.failed={}", outcome.failed)?;
    for (name, v) in &outcome.counts {
        writeln!(w, "count.{name}={v}")?;
    }
    for (name, unit, v) in metrics {
        writeln!(w, "metric.{name}={v} {unit}")?;
    }
    w.flush()?;
    if args.trace {
        let path = dir.join(format!("{}.trace.tsv", args.workload));
        let mut w = BufWriter::new(fs::File::create(&path)?);
        tracer.write_tsv(&mut w)?;
        w.flush()?;
        println!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(())
}

/// Reads a result file into its `key=value` pairs.
fn read_result(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// Prints the metric ratios `b / a` of two results of the same shape.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (read_result(a_path)?, read_result(b_path)?);
    let shape = |r: &BTreeMap<String, String>| -> Vec<(String, String)> {
        r.iter()
            .filter(|(k, _)| {
                k.starts_with("meta.param.")
                    || [
                        "meta.workload",
                        "meta.threads",
                        "meta.seconds",
                        "meta.trace",
                        "meta.profile",
                    ]
                    .contains(&k.as_str())
            })
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    let (sa, sb) = (shape(&a), shape(&b));
    if sa.is_empty() || sa != sb {
        let differ: Vec<String> = sa
            .iter()
            .chain(sb.iter())
            .filter(|(k, _)| a.get(k) != b.get(k))
            .map(|(k, _)| k.clone())
            .collect();
        return Err(format!(
            "results are not comparable; they differ in {differ:?}"
        ));
    }
    for (key, va) in a.iter().filter(|(k, _)| k.starts_with("metric.")) {
        let vb = b.get(key).ok_or(format!("{b_path} lacks {key}"))?;
        let x = |v: &str| v.split(' ').next().and_then(|n| n.parse::<f64>().ok());
        match (x(va), x(vb)) {
            (Some(x), Some(y)) if x != 0.0 => println!("{key}: {va} -> {vb} ({:.3}x)", y / x),
            _ => println!("{key}: {va} -> {vb}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, a, b] = args.as_slice() {
        if flag == "--compare" {
            return match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::Full {
        seconds: args.seconds,
    };
    match args.workload.as_str() {
        "market" => run(&Market::new(scale), &args),
        "overlay" => run(&Overlay::new(scale), &args),
        "service" => run(&Service::new(scale), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
