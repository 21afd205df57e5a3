//! The repository benchmark: three workloads over the GDDR serving fleet
//! and PPO training, driven only through public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zoo_fleet|lp_scored|train_abilene> --seed N --seconds N --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` installs an
//! aggregating telemetry sink, replays a sample of the workload through
//! the layer functions and reports per-layer metrics. Every run checks
//! the program's outputs. The last stdout line is the JSON result; the
//! exit code is non-zero when any check failed. See `WORKLOADS.md` for
//! why each workload exists and what each layer metric should move.

mod process;
mod replay;
mod report;
mod schedule;
mod serving;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;

use gddr_ser::Json;

const USAGE: &str =
    "usage: perfbench --workload <zoo_fleet|lp_scored|train_abilene> --seed N --seconds N --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["zoo_fleet", "lp_scored", "train_abilene"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Snapshot stores and the flight recorder's postmortem live beside
    // the build output, inside the checkout.
    let scratch = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let seconds = args.seconds as f64;
    let mut report = match args.workload.as_str() {
        "zoo_fleet" => serving::run(
            &serving::ZOO_FLEET,
            args.seed,
            seconds,
            args.trace,
            &scratch,
        ),
        "lp_scored" => serving::run(
            &serving::LP_SCORED,
            args.seed,
            seconds,
            args.trace,
            &scratch,
        ),
        _ => train::run(args.seed, seconds, args.trace),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut config = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(process::nproc() as f64)),
        ("commit", Json::Str(env!("GDDR_SOURCE_DIGEST").to_string())),
    ];
    config.extend(report.config.iter().map(|(k, v)| (*k, Json::Num(*v))));
    let config = Json::Obj(
        config
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    println!("config {}", config.to_string());
    if args.trace {
        print!("{}", report.table());
    }
    report.check_metrics(args.trace);
    for problem in &report.problems {
        eprintln!("perfbench CHECK FAILED: {problem}");
    }
    println!("{}", report.result_json(args.trace).to_string());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "lp_scored",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lp_scored", 7, 10, true)
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "zoo_fleet", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "zoo_fleet", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "zoo_fleet",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "zoo_fleet", "--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
