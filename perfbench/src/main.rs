//! Real-speed HTAP benchmark for OLxPBench-RS.
//!
//! Runs one workload against the dual engine at `time_scale 0` (no modelled
//! service-time sleeps) with two closed-loop client threads (see
//! `client.rs`).  The engine's applier, compactor and telemetry-sampler
//! threads run as they would in production.  Every layer is measured from
//! outside: the benchmark times its own calls into public functions, reads
//! public counters, and in separate traced rounds reads the engine's existing
//! stage histograms.  After each round it checks the outputs (see
//! `checks.rs`).
//!
//! ```text
//! olxp-perfbench --workload <fi-oltp|fi-hybrid|su-htap> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run is [`ROUNDS`] rounds, each in a fresh process of this executable
//! (`--round I`) with a freshly loaded engine, measuring `S / ROUNDS`
//! seconds; figures are trimmed means over rounds.  With `--trace 1` untraced and
//! traced rounds alternate and pair up.  Every metric is printed with its
//! unit and sample count; the last line of standard output is one JSON
//! object.  The exit code is non-zero when an output check fails.

mod checks;
mod client;
mod metrics;

use client::{Class, Op};
use metrics::{MetricSet, Round};
use olxpbench::engine::{
    DurabilityConfig, EngineConfig, FreshnessPolicy, HybridDatabase, SyncPolicy,
};
use olxpbench::framework::Workload;
use olxpbench::storage::PruningMode;
use olxpbench::workloads::{Fibenchmark, Subenchmark};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per run.  Each runs in its own process with a freshly loaded
/// engine, so every window starts from the same state: a fresh heap, and a
/// row store that has not yet piled up MVCC versions (it keeps every one, so
/// an engine slows down as it ages).
const ROUNDS: u32 = 8;
/// Closed-loop warm-up before each measured window (not recorded).
const WARMUP: Duration = Duration::from_millis(500);
/// Where durable workloads put their per-engine WAL directories.
const DATA_ROOT: &str = "perfbench/.data";

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    suite: fn() -> Arc<dyn Workload>,
    /// Scale factor: thousands of accounts (fibenchmark) or warehouses
    /// (subenchmark).
    scale: u32,
    pub oltp_clients: usize,
    pub olap_clients: usize,
    pub hybrid_clients: usize,
    /// WAL on (`SyncPolicy::Never`) in a fresh data directory.
    durable: bool,
    freshness: FreshnessPolicy,
}

fn fibenchmark() -> Arc<dyn Workload> {
    Arc::new(Fibenchmark::new())
}

fn subenchmark() -> Arc<dyn Workload> {
    Arc::new(Subenchmark::new())
}

/// The workloads.  Why each exists is recorded in `BENCHMARK.json`.
const SPECS: [Spec; 3] = [
    Spec {
        name: "fi-oltp",
        suite: fibenchmark,
        scale: 10,
        oltp_clients: 2,
        olap_clients: 0,
        hybrid_clients: 0,
        durable: true,
        freshness: FreshnessPolicy::Eventual,
    },
    Spec {
        name: "fi-hybrid",
        suite: fibenchmark,
        scale: 2,
        oltp_clients: 0,
        olap_clients: 0,
        hybrid_clients: 2,
        durable: false,
        freshness: FreshnessPolicy::Eventual,
    },
    Spec {
        name: "su-htap",
        suite: subenchmark,
        scale: 1,
        oltp_clients: 1,
        olap_clients: 1,
        hybrid_clients: 0,
        durable: false,
        freshness: FreshnessPolicy::Strict,
    },
];

impl Spec {
    /// The class of each client thread.
    fn clients(&self) -> Vec<Class> {
        let mut classes = vec![Class::Oltp; self.oltp_clients];
        classes.extend(vec![Class::Hybrid; self.hybrid_clients]);
        classes.extend(vec![Class::Olap; self.olap_clients]);
        classes
    }
}

/// Names of every operation some workload runs, in workload order.  Every
/// run reports all of them, so every workload prints the same metrics.
fn measured_op_names() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for spec in &SPECS {
        let classes = spec.clients();
        for op in client::operations((spec.suite)().as_ref()) {
            if classes.contains(&op.class()) && !names.iter().any(|n| n == op.name()) {
                names.push(op.name().to_string());
            }
        }
    }
    names
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child process that runs one round.
    round: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut round) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--round" => round = Some(number(value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let round = match round {
        Some(r) if r >= u64::from(ROUNDS) => return Err(format!("--round must be < {ROUNDS}")),
        r => r.map(|r| r as u32),
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        round,
    })
}

/// The measured configuration.  Every field an `EngineConfig` constructor
/// reads from the environment is set explicitly, so the environment cannot
/// change what is measured.
fn engine_config(spec: &Spec, traced: bool, data_dir: Option<&Path>) -> EngineConfig {
    let mut config = EngineConfig::dual_engine()
        .with_time_scale(0.0)
        .with_shards(1)
        .with_pruning(PruningMode::Both)
        .with_compression(true)
        .with_tracing(traced)
        .with_freshness(spec.freshness)
        .with_telemetry_interval_ms(250);
    config.telemetry_addr = None;
    if let Some(dir) = data_dir {
        config = config.with_durability(
            DurabilityConfig::at(dir.to_string_lossy()).with_sync(SyncPolicy::Never),
        );
    }
    config
}

/// A fresh, empty WAL directory for one engine, deleted on drop so repeated
/// runs neither fill the disk nor replay an earlier run's log.
struct DataDir(PathBuf);

impl DataDir {
    fn fresh(spec: &Spec) -> Result<DataDir, String> {
        let dir = Path::new(DATA_ROOT).join(format!("{}-{}", spec.name, std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds once no other round's directory is left.
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

/// Flush the WAL, stop the engine's threads and drop it.
fn shut_down(db: Arc<HybridDatabase>) -> Result<(), String> {
    db.finish_load().map_err(|e| format!("final drain: {e}"))?;
    db.shutdown_telemetry();
    db.shutdown_applier();
    db.shutdown_compactor();
    if Arc::strong_count(&db) != 1 {
        return Err("engine still referenced at shutdown".into());
    }
    drop(db);
    Ok(())
}

/// Run the output checks on a measured engine and close it.  Returns the
/// reopen time in seconds on a durable engine, 0 otherwise.
fn verify_and_close(
    spec: &Spec,
    db: Arc<HybridDatabase>,
    traced: bool,
    data_dir: Option<&DataDir>,
) -> Result<f64, String> {
    let lifetime = db.metrics_snapshot();
    if lifetime.replication_errors != 0 || lifetime.freshness_timeouts != 0 {
        return Err(format!(
            "{} replication errors, {} freshness timeouts",
            lifetime.replication_errors, lifetime.freshness_timeouts
        ));
    }
    let rows = checks::replicas_match_row_store(&db)?;
    println!("check: {rows} rows identical in the row store and the columnar replicas");
    let Some(dir) = data_dir else {
        shut_down(db)?;
        return Ok(0.0);
    };
    let before = checks::row_store_contents(&db)?;
    shut_down(db)?;
    let started = Instant::now();
    let db = HybridDatabase::open(engine_config(spec, traced, Some(&dir.0)))
        .map_err(|e| format!("reopen: {e}"))?;
    let reopen_s = started.elapsed().as_secs_f64();
    let rows = checks::same_contents(&before, &checks::row_store_contents(&db)?)?;
    println!("check: {rows} rows recovered from the WAL and checkpoints match");
    shut_down(db)?;
    Ok(reopen_s)
}

/// One round: load a fresh engine, warm up, measure one window of
/// `duration`, check the outputs and close the engine.
fn run_round(
    spec: &Spec,
    seed: u64,
    client_seed: u64,
    traced: bool,
    duration: Duration,
) -> Result<Round, String> {
    let data_dir = if spec.durable {
        Some(DataDir::fresh(spec)?)
    } else {
        None
    };
    let config = engine_config(spec, traced, data_dir.as_ref().map(|d| d.0.as_path()));

    // The span gate is process-wide; pin it too.
    olxpbench::trace::set_enabled(traced);
    let started = Instant::now();
    let db = HybridDatabase::open(config).map_err(|e| format!("open: {e}"))?;
    let workload = (spec.suite)();
    workload
        .create_schema(&db)
        .map_err(|e| format!("create schema: {e}"))?;
    workload
        .load(&db, spec.scale, seed)
        .map_err(|e| format!("load: {e}"))?;
    let load_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    db.finish_load().map_err(|e| format!("finish_load: {e}"))?;
    let catchup_s = started.elapsed().as_secs_f64();
    let rss_after_setup = metrics::rss_bytes();

    let ops: Vec<Op> = client::operations(workload.as_ref());
    let decks: Vec<Vec<usize>> = spec
        .clients()
        .into_iter()
        .map(|class| {
            let mix = match class {
                Class::Hybrid => workload.default_hybrid_mix(),
                _ => workload.default_online_mix(),
            };
            client::deck(&ops, class, &mix)
        })
        .collect();
    client::run(&db, &ops, &decks, client_seed ^ 0x5741_524d, WARMUP);

    db.metrics().take_freshness_samples();
    let before = db.metrics_snapshot();
    let locks_before = db.txn_manager().locks().stats();
    let rss_before = metrics::rss_bytes();
    let cpu_before = metrics::cpu_secs();
    let ticks_before = metrics::machine_ticks();
    let (elapsed, clients) = client::run(&db, &ops, &decks, client_seed, duration);
    let cpu_secs = metrics::cpu_secs() - cpu_before;
    let ticks = metrics::machine_ticks();
    let rss_after = metrics::rss_bytes();
    let delta = db.metrics_snapshot().delta_since(&before);
    let locks = db.txn_manager().locks().stats();
    let lag_records = db
        .metrics()
        .take_freshness_samples()
        .iter()
        .map(|s| s.lag_records)
        .collect();

    let reopen_s = verify_and_close(spec, db, traced, data_dir.as_ref())?;
    Ok(Round {
        load_s,
        catchup_s,
        rss_after_setup,
        reopen_s,
        secs: elapsed.as_secs_f64(),
        clients,
        ops: ops
            .iter()
            .map(|op| (op.name().to_string(), op.class()))
            .collect(),
        delta,
        lock_acquisitions: locks.acquisitions - locks_before.acquisitions,
        lock_contended: locks.contended - locks_before.contended,
        lock_wait_nanos: locks.wait_nanos - locks_before.wait_nanos,
        lag_records,
        rss_growth_bytes: rss_after as f64 - rss_before as f64,
        cpu_secs,
        steal_pct: 100.0 * (ticks.0 - ticks_before.0) as f64
            / (ticks.1 - ticks_before.1).max(1) as f64,
    })
}

/// Run each round in a fresh process of this executable and combine their
/// figures: trimmed means over rounds, or over untraced/traced pairs.
fn run(args: &Args) -> Result<MetricSet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut sets = Vec::new();
    for round in 0..ROUNDS {
        let output = Command::new(&exe)
            .args(["--workload", args.spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--round", &round.to_string()])
            .output()
            .map_err(|e| format!("starting round {round}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        for line in text.lines().filter(|l| l.starts_with("check:")) {
            println!("round {round} {line}");
        }
        if !output.status.success() {
            return Err(format!(
                "round {round} failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        sets.push(MetricSet::from_lines(&text)?);
    }
    if !args.trace {
        return Ok(MetricSet::trimmed_mean_of(&sets));
    }
    let pairs: Vec<MetricSet> = sets
        .chunks(2)
        .map(|pair| MetricSet::merge_traced(&pair[0], &pair[1]))
        .collect();
    Ok(MetricSet::trimmed_mean_of(&pairs))
}

/// The child process: one round, reported as tab-separated lines.
fn run_child(args: &Args, round: u32) -> Result<MetricSet, String> {
    // Traced rounds alternate with untraced ones; the two rounds of a pair
    // share their client seed so they run the same operation sequence.
    let traced = args.trace && round % 2 == 1;
    let stream = if args.trace { round / 2 } else { round };
    let client_seed = args.seed ^ (u64::from(stream) << 32);
    let window = Duration::from_secs(args.seconds) / ROUNDS;
    let r = run_round(args.spec, args.seed, client_seed, traced, window)?;
    Ok(metrics::round_metrics(args.spec, &r, &measured_op_names()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("olxp-perfbench: {e}");
            eprintln!(
                "usage: olxp-perfbench --workload <fi-oltp|fi-hybrid|su-htap> \
                 --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Some(round) = args.round {
        match run_child(&args, round) {
            Ok(set) => print!("{}", set.to_lines()),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} rounds={ROUNDS}",
        args.spec.name, args.seed, args.seconds, args.trace as u8
    );
    let data_dir = args.spec.durable.then(|| Path::new(DATA_ROOT));
    println!("config: {:?}", engine_config(args.spec, false, data_dir));
    if args.trace {
        println!("traced rounds: the same config with tracing: true");
    }
    match run(&args) {
        Ok(set) => {
            set.print_table(args.trace);
            println!("{}", set.to_json(args.trace));
        }
        Err(e) => {
            eprintln!("olxp-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
