//! What the suites share: every batch leaves a service through a trainer
//! lane, so a suite that wants a run's batches drains the lanes.

use recd_core::ConvertedBatch;
use recd_dpp::{DppError, DppHandle, DppOutput, TrainerBatch};
use std::thread::JoinHandle;

/// Every trainer lane of one service, each drained on its own thread.
pub struct Drain(Vec<JoinHandle<Vec<TrainerBatch>>>);

impl Drain {
    /// Takes `handle`'s trainer lanes and starts draining them; call it
    /// before feeding, since a lane nobody pulls stalls the service.
    pub fn start(handle: &mut DppHandle) -> Self {
        let lanes = handle.take_trainers().into_iter();
        Self(
            lanes
                .map(|lane| std::thread::spawn(move || lane.drain()))
                .collect(),
        )
    }

    /// Finishes the service and returns every delivered batch in
    /// `(shard, seq)` order, the order the sink resequences each shard
    /// into, with the service's own result.
    pub fn finish(self, handle: DppHandle) -> (Vec<ConvertedBatch>, Result<DppOutput, DppError>) {
        let result = handle.finish();
        let mut delivered: Vec<TrainerBatch> = self
            .0
            .into_iter()
            .flat_map(|lane| lane.join().expect("lane drain"))
            .collect();
        delivered.sort_by_key(|item| (item.shard, item.seq));
        (
            delivered.into_iter().map(|item| item.batch).collect(),
            result,
        )
    }
}
