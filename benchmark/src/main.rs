//! The repository's one benchmark: three inputs × three execution paths.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <lu-dominant|hybrid-mixed|small-tiles> [--seed S] [--seconds T] [--trace 0|1] [--quick]
//! ```
//!
//! `--trace 0` (the default) is the timed pass: it prints every end-to-end
//! metric. `--trace 1` is a separate traced pass that prints the per-layer
//! metrics and writes `benchmark/out/trace-<workload>.json`. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when any
//! solve failed a check. See `benchmark/README.md`.

mod host;
mod json;
mod layers;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use host::Pinning;
use json::{result_line, Json, Metric};
use stats::summarize;
use workload::{solve, Checker, Path, Problem, Workload, WORKLOADS};

/// Times the whole set-up (input generation plus one checked warm-up solve
/// per path) runs; `setup_s` is their median, so one slow set-up in a run
/// does not move it.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the timed round-robin measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed S] [--seconds T] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

/// Strict parsing: an unknown flag or an unparsable value is an error, never
/// a silent default — a typo must not look like a real run.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (42u64, 28.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(flag, it.next())?;
                workload = Some(
                    workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value(flag, it.next())?,
            "--seconds" => seconds = value(flag, it.next())?,
            "--trace" => {
                trace = match value::<u8>(flag, it.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// One set-up: generate the inputs, then one checked warm-up solve per path
/// in [`Path::ALL`] order, sampling the memory high-water mark after each.
pub struct SetUp {
    pub problem: Problem,
    pub seconds: f64,
    pub rss_after_mb: [f64; 3],
}

pub fn set_up(args: &Args, checker: &mut Checker) -> SetUp {
    let t0 = Instant::now();
    let problem = args.workload.problem(args.seed, args.quick);
    let mut rss_after_mb = [f64::NAN; 3];
    for (i, path) in Path::ALL.into_iter().enumerate() {
        let what = format!("{} warm-up", path.name());
        checker.check(&what, &problem, solve(path, &problem, 1));
        rss_after_mb[i] = host::vm_hwm_mb().unwrap_or(f64::NAN);
    }
    SetUp {
        problem,
        seconds: t0.elapsed().as_secs_f64(),
        rss_after_mb,
    }
}

fn print_header(args: &Args, pin: &Pinning) {
    let w = args.workload;
    let mut env = host::environment(pin);
    env.extend([
        ("workload", Json::str(w.name)),
        ("n", Json::Int(w.order(args.quick) as u64)),
        ("nb", Json::Int(w.nb as u64)),
        ("alpha", Json::Num(w.alpha)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ]);
    println!("environment {}", Json::obj(env));
    println!("workload {}: {}", w.name, w.why);
    if args.quick {
        println!(
            "--quick: n <= 384, one repetition, checks only; these numbers are NOT comparable"
        );
    }
}

/// Every end-to-end metric, `(name, unit)`, in the order printed.
const END_TO_END: [(&str, &str); 6] = [
    ("stream_s", "s"),
    ("batch_s", "s"),
    ("net_s", "s"),
    ("setup_s", "s"),
    ("stream_rss_mb", "MB"),
    ("batch_rss_mb", "MB"),
];

fn end_to_end(name: &str, value: f64) -> Metric {
    let &(name, unit) = END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared end-to-end metric"));
    Metric { name, value, unit }
}

/// Which statistic of its samples a timing metric reports.
#[derive(Clone, Copy)]
enum Report {
    /// The fastest repetition, for the three paths. Interference only ever
    /// adds time to a fixed computation, and on a shared machine it comes in
    /// episodes of seconds to minutes during which the same code runs up to
    /// 1.5× slower: a median flips with the share of a run an episode
    /// covers, the minimum only when it covers all of it (measured: see
    /// README, "Bounds from evidence").
    Fastest,
    /// The median, for the few set-ups (the first one is slower by design:
    /// it pays the lazy initialisation).
    Median,
}

/// Print one timing metric with its spread and every sample, and report
/// the chosen statistic. A metric without one passing sample has no time.
fn timing(name: &str, samples: &[f64], report: Report) -> Metric {
    if samples.is_empty() {
        return end_to_end(name, f64::NAN);
    }
    let s = summarize(samples);
    let (value, label) = match report {
        Report::Fastest => (s.min, "fastest"),
        Report::Median => (s.median, "median"),
    };
    println!(
        "{name:<14} {value:>10.4} s   {label} of {} (min {:.4}, median {:.4}, max {:.4}, IQR {:.1} % of the median)",
        s.n,
        s.min,
        s.median,
        s.max,
        100.0 * s.spread(),
    );
    let all: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
    println!("    samples {name}: {}", all.join(" "));
    end_to_end(name, value)
}

/// The timed pass: [`SETUPS`] set-ups, then closed-loop repetitions (one
/// solve in flight) interleaved round-robin over the three paths until
/// `--seconds` have been measured, so a noisy-neighbour episode shorter than
/// the run leaves every metric some undisturbed samples. Tracing is off
/// throughout.
fn timed_pass(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    // The high-water mark only ever rises: the first set-up's samples are
    // the ones taken before any other path has run.
    let first = set_up(args, checker);
    let [stream_rss_mb, batch_rss_mb, _] = first.rss_after_mb;
    let mut setup_seconds = vec![first.seconds];
    for _ in 1..if args.quick { 1 } else { SETUPS } {
        setup_seconds.push(set_up(args, checker).seconds);
    }
    let problem = &first.problem;

    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut rounds = 0;
    let t0 = Instant::now();
    loop {
        for (i, path) in Path::ALL.into_iter().enumerate() {
            let what = format!("{} repetition {rounds}", path.name());
            if let Some(s) = checker.check(&what, problem, solve(path, problem, 1)) {
                samples[i].push(s.seconds);
            }
        }
        rounds += 1;
        if args.quick || t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    println!("rounds         {rounds:>10}     (stream, batch, net interleaved)");
    let [stream, batch, net] = &samples;
    let metrics = vec![
        timing("stream_s", stream, Report::Fastest),
        timing("batch_s", batch, Report::Fastest),
        timing("net_s", net, Report::Fastest),
        timing("setup_s", &setup_seconds, Report::Median),
        end_to_end("stream_rss_mb", stream_rss_mb),
        end_to_end("batch_rss_mb", batch_rss_mb),
    ];
    println!("stream_rss_mb  {stream_rss_mb:>10.2} MB  (VmHWM after the first stream warm-up)");
    println!("batch_rss_mb   {batch_rss_mb:>10.2} MB  (VmHWM after the first batch warm-up)");
    let n = args.workload.order(args.quick) as f64;
    println!(
        "gflops         {:>10.3}     (2/3 n^3 / batch_s, the paper's normalisation; information only)",
        2.0 / 3.0 * n.powi(3) / metrics[1].value / 1e9
    );
    metrics
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // The UDS transport creates its sockets under the temp dir: keep them
    // inside the package, in a directory of this process's own (and,
    // relative to the working directory when possible, short enough for a
    // socket path).
    let out = host::package_dir().join("out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    let tmp_rel = std::env::current_dir()
        .ok()
        .and_then(|cwd| tmp.strip_prefix(cwd).ok().map(|p| p.to_path_buf()))
        .unwrap_or_else(|| tmp.clone());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp_rel);

    let pin = Pinning::pin_to_first_cpu();
    print_header(&args, &pin);

    let mut checker = Checker::default();
    let metrics = if args.trace {
        layers::traced_pass(&args, &pin, &mut checker, &out)
    } else {
        timed_pass(&args, &mut checker)
    };
    let _ = std::fs::remove_dir_all(&tmp);

    println!(
        "steps          {:>10}     LU, {} QR at seed {}",
        checker.steps.0, checker.steps.1, args.seed
    );
    println!(
        "solves         {:>10}     ({} failed; HPL3 = {:.3e}, limit {})",
        checker.attempted,
        checker.failed,
        checker.hpl3,
        workload::HPL3_LIMIT
    );
    println!(
        "{}",
        result_line(
            checker.correct(),
            checker.attempted,
            checker.failed,
            &metrics
        )
    );
    if checker.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "small-tiles",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "small-tiles");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        let a = parse(&["--workload", "lu-dominant", "--quick"]).unwrap();
        assert_eq!((a.seed, a.trace, a.quick), (42, false, true));
    }

    #[test]
    fn rejects_typos_instead_of_defaulting() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "lu-dominant", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "lu-dominant", "--seed"]).is_err());
        assert!(parse(&["--workload", "lu-dominant", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "lu-dominant", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "lu-dominant", "--sed", "1"]).is_err());
    }

    #[test]
    fn workload_names_and_metric_names_follow_the_rule() {
        for w in &WORKLOADS {
            assert!(json::valid_metric_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (name, _, _) in layers::PER_LAYER {
            assert!(json::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let spec: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit, better) in layers::PER_LAYER {
            let entry = format!(r#"{{"name":"{name}","unit":"{unit}","better":"{better}"}}"#);
            assert!(spec.contains(&entry), "per_layer lacks {entry}");
        }
        for (name, unit) in END_TO_END {
            let entry = format!(r#"{{"name":"{name}","unit":"{unit}","better":"lower","bound":"#);
            assert!(spec.contains(&entry), "end_to_end lacks {entry}");
        }
        for w in &WORKLOADS {
            let why: String = w.why.chars().filter(|c| !c.is_whitespace()).collect();
            let entry = format!(r#"{{"name":"{}","why":"{why}"}}"#, w.name);
            assert!(spec.contains(&entry), "workloads lacks {entry}");
        }
    }
}
