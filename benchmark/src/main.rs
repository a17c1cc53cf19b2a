//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in whole rounds until `--seconds` of host time have
//! passed and prints, last, one JSON line with `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Earlier lines carry the run header, the
//! virtual-clock metrics with their digest and, when tracing, the layer
//! table; a traced run also writes its spans as Chrome trace JSON under
//! `out/` in the benchmark's directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use benchmark::report::{self, LAYERS};
use benchmark::stats;
use benchmark::trace::{self, Tracer};
use benchmark::workload::{OpRecord, Runner, Workload};

const USAGE: &str = "usage: benchmark --workload <serve-overload|fig-sweep|first-launch> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=3600, not {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!("{}", header(&args));

    let tracer = Tracer::new();
    let runner = Runner::new(w, args.seed, &tracer);
    // One untimed op absorbs process-wide lazy set-up (the f16 decode
    // table, allocator growth).
    let _ = runner.op(0);
    let records = run(&runner, &tracer, &args);

    let failed: Vec<&OpRecord> = records.iter().filter(|r| r.error.is_some()).collect();
    for r in failed.iter().take(5) {
        println!(
            "# failed op {}: {}",
            r.index,
            r.error.as_deref().unwrap_or_default()
        );
    }
    let untraced: Vec<&OpRecord> = records.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&OpRecord> = records.iter().filter(|r| r.traced).collect();
    println!(
        "# ops={} rounds={} untraced_ops={} traced_ops={} untraced_ops_beyond_p90={}",
        records.len(),
        records.len() / w.round_len(),
        untraced.len(),
        traced.len(),
        stats::samples_beyond(untraced.len(), 90.0)
    );
    match report::virtual_summary(w, &records) {
        Ok((digest, metrics)) => println!("virtual {}", report::virtual_json(digest, &metrics)),
        Err(msg) => println!("# virtual outputs incomplete: {msg}"),
    }
    if w == Workload::FigSweep {
        println!(
            "# virt_anchor_err_pct is measured at the point the model is calibrated on, so it \
             tracks drift, not validation; the speed-ups are unvalidated against held-back \
             hardware data"
        );
    }

    let metrics = if args.trace {
        let spans = tracer.spans();
        print!("{}", report::layer_table(&traced, &spans));
        let path = out_dir().join(format!("{}-seed{}.trace.json", w.name(), args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans, &LAYERS)));
        match written {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(err) => println!("# spans not written to {}: {err}", path.display()),
        }
        report::per_layer(&traced, &untraced, &spans)
    } else {
        report::end_to_end(&untraced, w.round_len())
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("benchmark: metric {} is {}", m.name, m.value);
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::result_json(failed.is_empty(), records.len(), failed.len(), &metrics)
    );
    ExitCode::SUCCESS
}

/// Runs whole rounds until `--seconds` have passed, the virtual ops are
/// done and, when tracing, both a traced and an untraced round ran
/// (traced rounds alternate with untraced ones, which give the tracing
/// overhead its baseline). An op that repeats an earlier one fails if
/// its virtual outputs differ.
fn run(runner: &Runner<'_>, tracer: &Tracer, args: &Args) -> Vec<OpRecord> {
    let w = args.workload;
    let start = Instant::now();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut round = 0;
    loop {
        tracer.set_on(args.trace && round % 2 == 0);
        for _ in 0..w.round_len() {
            let i = records.len();
            let mut rec = runner.op(i);
            if let Some(j) = w.repeat_of(i) {
                let first = &records[j];
                if rec.error.is_none() && first.error.is_none() && rec.virt != first.virt {
                    rec.error = Some(format!("virtual outputs differ from op {j}'s"));
                }
            }
            records.push(rec);
        }
        round += 1;
        let done = records.len() >= w.virtual_ops()
            && (!args.trace || round >= 2)
            && start.elapsed().as_secs_f64() >= args.seconds as f64;
        if done {
            break;
        }
    }
    tracer.set_on(false);
    records
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Host facts stamped on every run.
fn header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "# run workload={} seed={} seconds={} trace={} round_ops={} virtual_ops={} nproc={nproc} \
         profile={profile} rustc=\"{rustc}\" commit={} date={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.round_len(),
        args.workload.virtual_ops(),
        git_commit(&repo),
        utc_now()
    )
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from a plain copy of the tree).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => std::fs::read_to_string(git.join(name))
            .map_or_else(|_| format!("unknown ({name})"), |id| id.trim().to_string()),
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Days since 1970-01-01 to a civil date (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
