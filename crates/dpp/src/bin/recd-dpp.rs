//! The `recd-dpp` CLI: runs the continuous pipeline over a synthetic
//! `recd-datagen` log stream and prints live metrics plus the final report.
//! `recd-dpp --help` lists the flags.
//!
//! The CLI parses flags, builds the feed and the service or fleet configs,
//! and hands them to the one pipeline driver ([`recd_dpp::driver`] owns the
//! pump schedule, the chaos harness, the trainer lanes and the metrics
//! registry); what is left here is printing.
//!
//! Every run tails the raw log stream: a jittered, optionally straggling
//! [`LogTail`] feeds the streaming ETL stage (incremental join → per-session
//! clustering → hourly seals), and every sealed partition lands and is
//! handed to the running service the moment it appears.
//!
//! With `--hosts M` the DPP tier is disaggregated over
//! `M` simulated hosts behind the fault-tolerant control plane: the
//! coordinator owns the file → shard placement, heartbeats every host on
//! the pump clock, heals `kill-host`/`partition-host`/`rejoin-host` chaos
//! faults with bounded replay, and federates every host's metrics registry
//! into the shared `/metrics` endpoint under `host="h<i>"` labels.
//!
//! Every tier registers into the driver's one metrics registry: the live
//! monitor renders its snapshot line *from the gathered families*, and
//! `--metrics-port` additionally serves them at `GET /metrics` in the
//! Prometheus text exposition format (port `0` picks an ephemeral one).

use recd_chaos::{ChaosReport, FaultPlan};
use recd_core::DataLoaderConfig;
use recd_data::LogRecord;
use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd_dpp::{
    CtrlConfig, DppConfig, DppReport, Driver, FleetConfig, FleetReport, ShardPolicy, TailFeed,
    Topology, TrainerAssignPolicy,
};
use recd_etl::{EtlServiceReport, EtlStreamConfig, TableLayout, SEAL_GRACE_MS};
use recd_obs::{sample_value, MetricFamily, MetricsServer, SampleValue};
use recd_reader::{PreprocessPipeline, ReaderConfig};
use recd_scribe::{LogTail, TailConfig};
use recd_storage::{NodeConfig, TableStore, TectonicSim};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    preset: WorkloadPreset,
    sessions: Option<usize>,
    batch_size: usize,
    fill_workers: usize,
    compute_workers: usize,
    shards: usize,
    queue_depth: usize,
    policy: ShardPolicy,
    trainers: usize,
    assign: TrainerAssignPolicy,
    min_workers: usize,
    max_workers: Option<usize>,
    ctrl: bool,
    tail_rate_ms: u64,
    tail_jitter_ms: u64,
    tail_late_frac: f64,
    tail_late_ms: u64,
    tail_window_ms: u64,
    tail_seal_rows: Option<usize>,
    tail_seed: u64,
    hosts: usize,
    heartbeat_ms: u64,
    chaos_seed: Option<u64>,
    chaos_plan: Option<String>,
    storage_rate: f64,
    cache_mb: usize,
    metrics_port: Option<u16>,
    scrape_once: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        preset: WorkloadPreset::Small,
        sessions: None,
        batch_size: 128,
        fill_workers: 2,
        compute_workers: 4,
        shards: 4,
        queue_depth: 8,
        policy: ShardPolicy::SessionAffine,
        trainers: 1,
        assign: TrainerAssignPolicy::ShardPinned,
        min_workers: 1,
        max_workers: None,
        ctrl: false,
        tail_rate_ms: 60_000,
        tail_jitter_ms: 2_000,
        tail_late_frac: 0.0,
        tail_late_ms: 60_000,
        tail_window_ms: 30_000,
        tail_seal_rows: None,
        tail_seed: 0,
        hosts: 0,
        heartbeat_ms: 120_000,
        chaos_seed: None,
        chaos_plan: None,
        storage_rate: 0.0,
        cache_mb: 0,
        metrics_port: None,
        scrape_once: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--preset" => {
                args.preset = match value::<String>(it, &flag)?.as_str() {
                    "tiny" => WorkloadPreset::Tiny,
                    "small" => WorkloadPreset::Small,
                    other => return Err(format!("unknown preset '{other}' (tiny|small)")),
                }
            }
            "--sessions" => args.sessions = Some(value(it, &flag)?),
            "--batch-size" => args.batch_size = value(it, &flag)?,
            "--fill-workers" => args.fill_workers = value(it, &flag)?,
            "--workers" => args.compute_workers = value(it, &flag)?,
            "--shards" => args.shards = value(it, &flag)?,
            "--queue-depth" => args.queue_depth = value(it, &flag)?,
            "--policy" => {
                args.policy = match value::<String>(it, &flag)?.as_str() {
                    "session" => ShardPolicy::SessionAffine,
                    "file" => ShardPolicy::FileRoundRobin,
                    other => return Err(format!("unknown policy '{other}' (session|file)")),
                }
            }
            "--trainers" => args.trainers = value(it, &flag)?,
            "--assign" => {
                args.assign = match value::<String>(it, &flag)?.as_str() {
                    "pinned" => TrainerAssignPolicy::ShardPinned,
                    "least" => TrainerAssignPolicy::LeastLoaded,
                    other => return Err(format!("unknown assign policy '{other}' (pinned|least)")),
                }
            }
            // Worker bounds enable the controller exactly like --ctrl does.
            "--min-workers" => {
                args.ctrl = true;
                args.min_workers = value(it, &flag)?;
            }
            "--max-workers" => {
                args.ctrl = true;
                args.max_workers = Some(value(it, &flag)?);
            }
            "--ctrl" => args.ctrl = true,
            "--tail-rate" => args.tail_rate_ms = value(it, &flag)?,
            "--tail-jitter-ms" => args.tail_jitter_ms = value(it, &flag)?,
            "--tail-late-frac" => args.tail_late_frac = value(it, &flag)?,
            "--tail-late-ms" => args.tail_late_ms = value(it, &flag)?,
            "--tail-window-ms" => args.tail_window_ms = value(it, &flag)?,
            "--tail-seal-rows" => args.tail_seal_rows = Some(value(it, &flag)?),
            "--tail-seed" => args.tail_seed = value(it, &flag)?,
            "--hosts" => args.hosts = value(it, &flag)?,
            "--heartbeat-ms" => args.heartbeat_ms = value(it, &flag)?,
            "--chaos-seed" => args.chaos_seed = Some(value(it, &flag)?),
            "--chaos-plan" => args.chaos_plan = Some(value(it, &flag)?),
            "--storage-rate" => args.storage_rate = value(it, &flag)?,
            "--cache-mb" => args.cache_mb = value(it, &flag)?,
            "--metrics-port" => args.metrics_port = Some(value(it, &flag)?),
            "--scrape-once" => args.scrape_once = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "recd-dpp: streaming DPP service demo\n\
                     \n  --preset tiny|small      workload preset (default small)\
                     \n  --sessions N             override session count\
                     \n  --batch-size N           training batch size (default 128)\
                     \n  --fill-workers N         fill (decode) workers (default 2)\
                     \n  --workers N              convert/process workers (default 4)\
                     \n  --shards N               shard lanes (default 4)\
                     \n  --queue-depth N          backpressure window per queue (default 8)\
                     \n  --policy session|file    sharding policy (default session)\
                     \n  --trainers N             simulated trainer lanes (default 1)\
                     \n  --assign pinned|least    trainer lane assignment (default pinned)\
                     \n  --ctrl                   close the control loop: a cross-tier PID\
                     \n                           controller samples trainer lanes, DPP queues,\
                     \n                           and ETL tail lag, resizes both worker pools,\
                     \n                           and gates the ETL pump (exports the\
                     \n                           recd_ctrl_* metric families)\
                     \n  --min-workers N          controller pool lower bound (default 1, at\
                     \n                           least 1; enables the controller like --ctrl)\
                     \n  --max-workers N          controller pool upper bound (default: the larger\
                     \n                           initial pool, at least --min-workers; enables\
                     \n                           the controller like --ctrl)\
                     \n  --tail-rate N            simulated ms of log time per pump step (default 60000)\
                     \n  --tail-jitter-ms N       arrival jitter bound (default 2000)\
                     \n  --tail-late-frac F       fraction of straggling records (default 0)\
                     \n  --tail-late-ms N         extra straggler delay (default 60000)\
                     \n  --tail-window-ms N       ETL out-of-order window (default 30000)\
                     \n  --tail-seal-rows N       seal an open hour early at N rows\
                     \n  --tail-seed N            arrival-process seed (default 0)\
                     \n  --hosts M                disaggregate the DPP tier over M simulated hosts\
                     \n                           behind the fault-tolerant control plane\
                     \n                           (default 0 = single in-process service)\
                     \n  --heartbeat-ms N         fleet heartbeat timeout: a host silent strictly\
                     \n                           longer than this is declared dead (default 120000)\
                     \n  --chaos-seed N           run a seeded fault plan: storage brown-out,\
                     \n                           transient get/put failures, trainer kill+stall\
                     \n                           (when --trainers > 1), ETL pump crash-restart\
                     \n  --chaos-plan SPEC        run an explicit fault plan, semicolon-separated\
                     \n                           at_ms:kind[:args] entries:\
                     \n                           stall-trainer:LANE:MS | kill-trainer:LANE |\
                     \n                           slow-storage:FACTOR:MS | fail-get:COUNT |\
                     \n                           fail-put:COUNT | crash-pump | kill-host:HOST |\
                     \n                           partition-host:HOST:MS | rejoin-host:HOST\
                     \n                           (host faults require --hosts > 1)\
                     \n  --storage-rate N         enable the per-node storage queue model: each of\
                     \n                           the 8 simulated nodes services N ops/s at 256 MiB/s,\
                     \n                           so blob get/put latency emerges from queue depth\
                     \n                           and transfer size (default 0 = flat-latency store)\
                     \n  --cache-mb N             enable an N-MiB LRU blob cache in front of the\
                     \n                           storage nodes (default 0 = off); hits bypass the\
                     \n                           node queues\
                     \n  --metrics-port N         serve GET /metrics (Prometheus text format) on\
                     \n                           127.0.0.1:N while running (0 = ephemeral port)\
                     \n  --scrape-once            self-scrape /metrics once before shutdown and\
                     \n                           print the exposition (requires --metrics-port)\
                     \n  --quiet                  suppress live snapshots"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.scrape_once && args.metrics_port.is_none() {
        return Err("--scrape-once requires --metrics-port".to_string());
    }
    if args.min_workers == 0 {
        return Err("--min-workers must be at least 1".to_string());
    }
    if let Some(max_workers) = args.max_workers.filter(|&max| max < args.min_workers) {
        return Err(format!(
            "--max-workers {max_workers} is below --min-workers {}",
            args.min_workers
        ));
    }
    if args.chaos_seed.is_some() && args.chaos_plan.is_some() {
        return Err("--chaos-seed and --chaos-plan are mutually exclusive".to_string());
    }
    if !(args.storage_rate.is_finite() && args.storage_rate >= 0.0) {
        return Err("--storage-rate must be a finite, non-negative ops/s figure".to_string());
    }
    if !(0.0..=1.0).contains(&args.tail_late_frac) {
        return Err("--tail-late-frac must be a fraction in [0, 1]".to_string());
    }
    Ok(args)
}

/// The argument after `flag`, parsed — the one owner of the "requires a
/// value" and "`flag`: parse error" rejections.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Builds the blob store for this invocation: 8 simulated nodes, with the
/// per-node queue model (256 MiB/s per node) when `--storage-rate` is set and
/// the LRU cache tier when `--cache-mb` is set.
fn build_blob_store(args: &Args) -> TectonicSim {
    let mut sim = TectonicSim::new(8);
    if args.storage_rate > 0.0 {
        sim = sim.with_node_config(NodeConfig::new(args.storage_rate, 256.0 * 1024.0 * 1024.0));
    }
    if args.cache_mb > 0 {
        sim = sim.with_cache(args.cache_mb * 1024 * 1024);
    }
    sim
}

/// Prints the machine-parseable storage derived lines for whichever storage
/// tiers this invocation enabled; `scripts/bench_snapshot.sh` and the CI
/// chaos smoke read them.
fn print_storage_derived(sim: &TectonicSim) {
    if sim.cache_enabled() {
        println!(
            "derived storage_cache_hit_ratio {:.4}",
            sim.cache_stats().hit_ratio()
        );
    }
    if sim.queueing_enabled() {
        println!(
            "derived storage_node_wait_ms {:.4}",
            sim.mean_queue_wait().as_secs_f64() * 1e3
        );
    }
}

/// Renders one live-monitor line from gathered metric families. The fleet
/// fragment appears exactly when the fleet is registered (its families are
/// present), so the line shape is decided by the registry contents, not by
/// a mode flag.
fn live_line(families: &[MetricFamily]) -> String {
    let v =
        |name: &str, labels: &[(&str, &str)]| sample_value(families, name, labels).unwrap_or(0.0);
    let lanes: Vec<String> = families
        .iter()
        .find(|f| f.name == "recd_dpp_trainer_queue_depth")
        .map(|family| {
            family
                .samples
                .iter()
                .filter_map(|s| match s.value {
                    SampleValue::Scalar(depth) => Some(format!("{}", depth as u64)),
                    SampleValue::Histogram(_) => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let etl_part = format!(
        "  etl lag={:.0}s open={}h/{}s sealed={} late={}",
        v("recd_etl_tail_lag_ms", &[]) / 1_000.0,
        v("recd_etl_open_hours", &[]) as u64,
        v("recd_etl_open_sessions", &[]) as u64,
        v("recd_etl_sealed_partitions_total", &[]) as u64,
        v("recd_etl_late_drops_total", &[]) as u64,
    );
    let fleet_part = if families.iter().any(|f| f.name == "recd_fleet_hosts_live") {
        format!(
            "  fleet {}/{} live fwd={} dup={}",
            v("recd_fleet_hosts_live", &[]) as u64,
            v("recd_fleet_hosts_total", &[]) as u64,
            v("recd_fleet_forwarded_batches_total", &[]) as u64,
            v("recd_fleet_duplicate_batches_dropped_total", &[]) as u64,
        )
    } else {
        String::new()
    };
    format!(
        "  [{:6.2}s] {:>8} samples  {:>9.0} samples/s  dedup {:>5.2}x  queues fill={} route={} work={} out={}  workers {}f/{}c  lanes [{}]{}{}",
        v("recd_dpp_uptime_seconds", &[]),
        v("recd_dpp_samples_out_total", &[]) as u64,
        v("recd_dpp_samples_per_second", &[]),
        v("recd_dpp_dedupe_factor", &[]),
        v("recd_dpp_queue_depth", &[("queue", "input")]) as u64,
        v("recd_dpp_queue_depth", &[("queue", "filled")]) as u64,
        v("recd_dpp_queue_depth", &[("queue", "work")]) as u64,
        v("recd_dpp_queue_depth", &[("queue", "output")]) as u64,
        v("recd_dpp_workers_live", &[("pool", "fill")]) as u64,
        v("recd_dpp_workers_live", &[("pool", "compute")]) as u64,
        lanes.join(","),
        etl_part,
        fleet_part,
    )
}

/// The fault plan this invocation asked for: an explicit `--chaos-plan`, or
/// a seeded one whose faults fire inside the middle 80% of the log's time
/// span, while the pipeline is actually moving data (`seeded_fleet` adds
/// host death, a control-plane partition and a rejoin when `--hosts > 1`).
fn chaos_plan(args: &Args, records: &[LogRecord]) -> Option<FaultPlan> {
    let plan = match (&args.chaos_plan, args.chaos_seed) {
        (Some(spec), _) => FaultPlan::parse(spec).unwrap_or_else(|message| {
            eprintln!("recd-dpp: --chaos-plan: {message}");
            std::process::exit(2);
        }),
        (None, Some(seed)) => {
            let horizon = records.iter().map(|r| r.timestamp().as_millis()).max();
            FaultPlan::seeded_fleet(seed, horizon.unwrap_or(0), args.trainers, args.hosts)
        }
        (None, None) => return None,
    };
    println!(
        "chaos: {} faults scheduled (seed {}): {plan}",
        plan.len(),
        plan.seed
    );
    Some(plan)
}

/// Builds the tail feed (the raw log stream for the streaming ETL stage to
/// join, cluster and land incrementally) and the service or fleet topology,
/// hands both to the pipeline [`Driver`], and prints what it reports.
fn main() {
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("recd-dpp: {message}");
        std::process::exit(2);
    });
    let mut workload = WorkloadConfig::preset(args.preset);
    if let Some(sessions) = args.sessions {
        workload = workload.with_sessions(sessions);
    }
    let generator = DatasetGenerator::new(workload);
    let store = Arc::new(TableStore::new(build_blob_store(&args), 64, 2));
    let (records, partition) = generator.generate_logs();
    println!(
        "dataset: tailing {} raw log records ({} samples once joined), jitter {}ms, {:.0}% stragglers (+{}ms), seed {}",
        records.len(),
        partition.len(),
        args.tail_jitter_ms,
        args.tail_late_frac * 100.0,
        args.tail_late_ms,
        args.tail_seed,
    );
    let plan = chaos_plan(&args, &records);
    let tail_config = TailConfig::default()
        .with_jitter_ms(args.tail_jitter_ms)
        .with_lateness(args.tail_late_frac, args.tail_late_ms)
        .with_seed(args.tail_seed);
    let mut stream =
        EtlStreamConfig::new(TableLayout::ClusteredBySession).with_window_ms(args.tail_window_ms);
    if let Some(rows) = args.tail_seal_rows {
        stream = stream.with_size_watermark(rows);
    }
    println!(
        "continuous: window {}ms, grace {}ms, {}, {}ms of log time per pump",
        stream.window_ms,
        SEAL_GRACE_MS,
        args.tail_seal_rows
            .map_or("hour-boundary seals only".to_string(), |rows| format!(
                "size watermark {rows} rows"
            )),
        args.tail_rate_ms,
    );
    let feed = TailFeed {
        tail: LogTail::new(records, &tail_config),
        stream,
        table: "tail".to_string(),
        step_ms: args.tail_rate_ms,
        plan,
    };
    let schema = partition.schema;

    // Service (or per-host) template.
    let mut config = DppConfig::new(ReaderConfig::new(
        args.batch_size,
        DataLoaderConfig::from_schema(&schema),
    ))
    .with_fill_workers(args.fill_workers)
    .with_compute_workers(args.compute_workers)
    .with_shards(args.shards)
    .with_queue_depth(args.queue_depth)
    .with_policy(args.policy)
    .with_pipeline_factory(|| PreprocessPipeline::standard(1 << 20, 64));
    if args.ctrl {
        // The closed control loop: a cross-tier PID controller samples every
        // queue tier and sizes both pools; the driver hands it the ETL tail
        // lag so lag can veto trainer backpressure.
        let min = args.min_workers;
        let max = args
            .max_workers
            .unwrap_or_else(|| min.max(args.fill_workers).max(args.compute_workers));
        println!(
            "control: {}PID, workers in [{min}, {max}]",
            if args.hosts > 0 { "per-host " } else { "" },
        );
        config = config.with_ctrl(CtrlConfig::bounds(min, max));
    }
    let topology = if args.hosts > 0 {
        // Every host runs the full shard set; the coordinator routes each
        // file to the host owning its shard.
        println!(
            "fleet: {} hosts x ({} fill + {} compute workers, {} shards each), {} trainer lanes, heartbeat timeout {}ms",
            args.hosts,
            args.fill_workers,
            args.compute_workers,
            args.shards,
            args.trainers.max(1),
            args.heartbeat_ms,
        );
        Topology::Fleet(
            FleetConfig::new(config)
                .with_hosts(args.hosts)
                .with_trainers(args.trainers)
                .with_heartbeat_timeout_ms(args.heartbeat_ms),
        )
    } else {
        println!(
            "service: {} fill + {} compute workers, {} shards, policy {}, queue depth {}",
            args.fill_workers,
            args.compute_workers,
            args.shards,
            args.policy.name(),
            args.queue_depth
        );
        config = config
            .with_trainers(args.trainers)
            .with_assign_policy(args.assign);
        println!(
            "fan-out: {} trainers, assign policy {}",
            config.trainers,
            args.assign.name()
        );
        Topology::Single(config)
    };

    let driver = Driver::new(Arc::clone(&store), &schema, feed, topology).unwrap_or_else(|err| {
        eprintln!("recd-dpp: --chaos-plan: {err}");
        std::process::exit(2);
    });

    // The live monitor and the /metrics endpoint read the driver's registry.
    let registry = driver.registry();
    let server = args.metrics_port.map(|port| {
        let server = MetricsServer::start(Arc::clone(&registry), port).unwrap_or_else(|err| {
            eprintln!("recd-dpp: --metrics-port {port}: {err}");
            std::process::exit(2);
        });
        println!("metrics: serving http://{}/metrics", server.local_addr());
        server
    });
    let done = Arc::new(AtomicBool::new(false));
    let monitor = (!args.quiet).then(|| {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                println!("{}", live_line(&registry.gather()));
            }
        })
    });

    // Simulated trainers consume as fast as they can and recycle the shells
    // so compute workers refill warm buffers (fleet batches come from many
    // hosts' pools, so their shells are simply dropped).
    let pool = driver.converted_pool();
    let result = driver.run(Arc::new(move |item| {
        if let Some(pool) = &pool {
            pool.recycle(item.batch);
        }
    }));
    done.store(true, Ordering::Relaxed);
    if let Some(monitor) = monitor {
        monitor.join().expect("monitor thread");
    }
    let output = result.unwrap_or_else(|err| {
        eprintln!("recd-dpp: {err}");
        std::process::exit(1);
    });

    for lane in &output.lanes {
        let killed = if lane.killed {
            " (killed by chaos)"
        } else {
            ""
        };
        println!(
            "trainer {}: consumed {} batches / {} samples{killed}",
            lane.trainer, lane.batches, lane.samples
        );
    }
    print_etl_summary(&output.etl);
    if let Some((fleet, host_reports)) = &output.fleet {
        print_fleet_summary(fleet, host_reports);
    }
    print_dpp_report(&output.dpp);
    if let Some(chaos) = &output.chaos {
        print_chaos_summary(chaos);
    }
    // Machine-parseable lines — scripts/bench_snapshot.sh lifts these into
    // BENCH_pipeline.json. Sustained end-to-end throughput: total delivered
    // samples over the whole wall-clock run, the figure the bench gate tracks.
    println!(
        "derived pipeline_records_per_second {:.1}",
        output.dpp.samples as f64 / output.wall_seconds.max(1e-9)
    );
    if let Some((fleet, _)) = &output.fleet {
        println!("derived fleet_rebalance_ms {:.3}", fleet.rebalance_ms);
    }
    print_storage_derived(store.blob_store());
    if let Some(server) = server {
        if args.scrape_once {
            let addr = server.local_addr();
            let body = recd_obs::scrape(addr).unwrap_or_else(|err| {
                eprintln!("recd-dpp: scrape failed: {err}");
                std::process::exit(1);
            });
            println!("\nscrape of http://{addr}/metrics ({} bytes):", body.len());
            print!("{body}");
        }
        server.shutdown();
    }
}

/// The fleet control plane's accounting, as the lines before the aggregate
/// service report.
fn print_fleet_summary(fr: &FleetReport, host_reports: &[(usize, DppReport)]) {
    println!(
        "\nfleet: {}/{} hosts live at finish, {} heartbeats, {} deaths detected ({} kills / {} partitions / {} rejoins, {} flaps)",
        fr.hosts_live_at_finish,
        fr.hosts,
        fr.heartbeats,
        fr.deaths_detected,
        fr.kills,
        fr.partitions,
        fr.rejoins,
        fr.flaps,
    );
    println!(
        "fleet: {} barriers, {} shard replacements, {} rebalance moves ({:.3}ms), {} files replayed, {} duplicate batches dropped",
        fr.barriers,
        fr.shard_replacements,
        fr.rebalance_moves,
        fr.rebalance_ms,
        fr.replayed_files,
        fr.duplicate_batches_dropped,
    );
    for (host, report) in host_reports {
        println!(
            "fleet: host h{host} processed {} batches / {} samples this incarnation",
            report.batches, report.samples
        );
    }
}

/// The streaming-ETL half of the run, as two summary lines.
fn print_etl_summary(r: &EtlServiceReport) {
    let c = r.etl.counters;
    println!(
        "\netl: {} records tailed -> {} joined samples, {} late drops, {} duplicates, {} orphans",
        c.records,
        c.joined_samples,
        c.late_drops,
        c.duplicates,
        c.orphaned_features + c.orphaned_events,
    );
    println!(
        "etl: {} partitions sealed ({} hour / {} size / {} finish), {} landed ({} stored bytes, {:.2}x compression), peak tail lag {:.0}s",
        c.sealed_partitions,
        c.hour_seals,
        c.size_seals,
        c.finish_seals,
        r.landed_partitions,
        r.storage.stored_bytes,
        r.storage.compression_ratio(),
        r.peak_tail_lag_ms as f64 / 1_000.0,
    );
}

/// The service (or fleet-aggregate) report, as the final summary block.
fn print_dpp_report(r: &DppReport) {
    println!(
        "\ndone in {:.3}s: {} batches, {} samples, {:.0} samples/s",
        r.wall_seconds, r.batches, r.samples, r.samples_per_second
    );
    if r.partitions_ingested > 0 {
        println!(
            "partitions ingested as they landed: {}",
            r.partitions_ingested
        );
    }
    println!(
        "dedup factor {:.2}x, egress {} bytes, peak queue depths: input={} filled={} work={} out={}",
        r.dedupe_factor,
        r.egress_bytes,
        r.peak_input_queue_depth,
        r.peak_filled_queue_depth,
        r.peak_work_queue_depth,
        r.peak_output_queue_depth,
    );
    let m = &r.reader_metrics;
    let (fill, convert, process) = m.phase_fractions();
    println!(
        "phase CPU split: fill {:.0}% / convert {:.0}% / process {:.0}%",
        fill * 100.0,
        convert * 100.0,
        process * 100.0
    );
    println!(
        "dedup fallback: {} group-batches shipped as KJT",
        m.fallback_groups
    );
    println!(
        "batch pool: {:.1}% reuse ({} hits / {} misses), converted-shell pool: {} hits",
        r.batch_pool.reuse_rate() * 100.0,
        r.batch_pool.hits,
        r.batch_pool.misses,
        r.converted_pool.hits,
    );
    for lane in &r.trainers {
        println!(
            "trainer {}: delivered {} batches / {} samples, peak lane depth {}",
            lane.trainer, lane.delivered_batches, lane.delivered_samples, lane.peak_queue_depth
        );
    }
    if let Some(ctrl) = &r.ctrl {
        println!(
            "control: {} ticks, {} actuations ({} grows / {} shrinks), {} pump pauses / {} resumes",
            ctrl.ticks,
            ctrl.actuations,
            ctrl.grows,
            ctrl.shrinks,
            ctrl.pump_pauses,
            ctrl.pump_resumes
        );
    }
    if !r.scale_events.is_empty() {
        println!(
            "resizes: peak {} fill / {} compute workers, {} events:",
            r.peak_fill_workers,
            r.peak_compute_workers,
            r.scale_events.len()
        );
        for event in &r.scale_events {
            println!(
                "  [{:6.2}s] {} {} -> {} (queue depth {})",
                event.at_seconds, event.pool, event.from, event.to, event.queue_depth
            );
        }
    }
}

/// The chaos engine's final accounting line.
fn print_chaos_summary(report: &ChaosReport) {
    println!(
        "\nchaos: {}/{} faults fired (seed {}), {} injected get + {} put failures absorbed by \
         {} retries ({} exhausted, {:.2}ms backoff), {} pump crashes / {} resumes ({:.2}ms recovery)",
        report.faults_fired,
        report.planned_faults,
        report.seed,
        report.injected_get_failures,
        report.injected_put_failures,
        report.retries,
        report.retry_exhausted,
        report.backoff_ms,
        report.pump_crashes,
        report.resumes,
        report.recovery_ms,
    );
}
