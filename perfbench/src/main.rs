//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and checks, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also writes
//! its spans as Chrome trace-event JSON under `perfbench/out/`. Exits 1
//! when an output check fails, 2 on a usage error.

use anomaly_perfbench::{run, Options, Size, Workload};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::FrozenCluster,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let outcome = run(&opts);

    let kinds: Vec<String> = outcome
        .kinds
        .iter()
        .map(|(k, n)| format!("{}={n}", k.as_str()))
        .collect();
    println!(
        "workload {} seed {}: measured epochs {}",
        opts.workload.name(),
        opts.seed,
        kinds.join(" ")
    );
    println!("digest {:016x}", outcome.digest);
    println!(
        "calibration kernel: median {:.4} ms over {} runs; end-to-end times are scaled to {} ms",
        outcome.scale.kernel_ms,
        outcome.scale.runs,
        anomaly_perfbench::calib::REFERENCE_MS
    );
    for (name, t) in &outcome.spans {
        println!(
            "span {name:<20} count {:>7} total {:>10.3} ms self {:>10.3} ms",
            t.count, t.total_ms, t.self_ms
        );
    }
    if let Some(json) = &outcome.trace_json {
        let path = format!(
            "perfbench/out/trace-{}-{}.json",
            opts.workload.name(),
            opts.seed
        );
        let written =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    for m in &outcome.metrics {
        println!("metric {:<24} {:>16} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
