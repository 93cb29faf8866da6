//! Streaming DPP service: land a clustered dataset, stream it through the
//! sharded, backpressured `recd-dpp` tier, and watch the live metrics.
//! (That the output is a pure function of the submitted files, whatever the
//! worker counts, is asserted by `crates/dpp/tests/streaming.rs`.)
//!
//! Run with: `cargo run --release --example streaming_service`

use recd::core::DataLoaderConfig;
use recd::datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
use recd::dpp::{DppConfig, DppService, ShardPolicy};
use recd::etl::cluster_by_session;
use recd::reader::ReaderConfig;
use recd::storage::{TableStore, TectonicSim};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate, cluster (O2), and land a dataset as DWRF files.
    let generator = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
    let partition = generator.generate_partition();
    let clustered = cluster_by_session(&partition.samples);
    let store = Arc::new(TableStore::new(TectonicSim::new(4), 32, 2));
    let (stored, _) = store.land_partition(&partition.schema, "demo", 0, &clustered);
    println!(
        "landed {} samples into {} files",
        clustered.len(),
        stored.files.len()
    );

    // 2. Start the streaming service: 2 fill workers decode files, a router
    //    shards rows file-round-robin across 2 lanes, 3 compute workers run
    //    IKJT conversion (O3) + deduplicated preprocessing (O4).
    let reader_config = ReaderConfig::new(64, DataLoaderConfig::from_schema(&partition.schema));
    let config = DppConfig::new(reader_config)
        .with_policy(ShardPolicy::FileRoundRobin)
        .with_shards(2)
        .with_fill_workers(2)
        .with_compute_workers(3)
        .with_queue_depth(4);
    let mut handle = DppService::start(config, Arc::clone(&store), partition.schema.clone());

    // 3. Every batch leaves through a trainer lane (one by default): hand
    //    each lane to a consumer before feeding.
    let trainers: Vec<_> = handle
        .take_trainers()
        .into_iter()
        .map(|trainer| std::thread::spawn(move || trainer.drain().len()))
        .collect();

    // 4. Feed it. submit_file blocks when the bounded queues fill up — that
    //    is the service's backpressure reaching the producer.
    handle.submit_partition(&stored);
    let snapshot = handle.snapshot();
    println!(
        "live: {} files in, {} samples out, queues work={} out={}",
        snapshot.files_submitted,
        snapshot.samples,
        snapshot.work_queue_depth,
        snapshot.output_queue_depth
    );

    // 5. Graceful shutdown: drain everything, join every worker.
    let output = handle.finish()?;
    let consumed: usize = trainers
        .into_iter()
        .map(|t| t.join().expect("trainer thread"))
        .sum();
    println!(
        "streamed {} batches / {} samples at {:.0} samples/s, dedup {:.2}x",
        consumed,
        output.report.samples,
        output.report.samples_per_second,
        output.report.dedupe_factor
    );
    Ok(())
}
