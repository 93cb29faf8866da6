//! Multi-batch training loops used by the accuracy-neutrality experiments
//! (§6.2, "Impacts to Accuracy").

use crate::dlrm::{Dlrm, DlrmConfig, ExecutionMode};
use crate::nn::bce_loss;
use recd_core::ConvertedBatch;
use serde::{Deserialize, Serialize};

/// Configuration of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Model architecture.
    pub model: DlrmConfig,
    /// Execution mode (baseline KJT path vs deduplicated IKJT path).
    pub mode: ExecutionMode,
    /// Number of passes over the provided batches.
    pub epochs: usize,
}

/// The result of a training run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss after each step, in step order.
    pub step_losses: Vec<f32>,
    /// Mean evaluation loss on the held-out batches after training.
    pub eval_loss: f32,
    /// Total samples trained on.
    pub samples: usize,
}

impl TrainReport {
    /// Mean loss over the final quarter of training steps, a stable summary
    /// of where training converged.
    pub fn final_loss(&self) -> f32 {
        if self.step_losses.is_empty() {
            return 0.0;
        }
        let tail = self.step_losses.len().div_ceil(4);
        let slice = &self.step_losses[self.step_losses.len() - tail..];
        slice.iter().sum::<f32>() / slice.len() as f32
    }
}

/// Drives SGD training of a [`Dlrm`] over pre-converted batches.
#[derive(Debug)]
pub struct Trainer {
    model: Dlrm,
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer (and its model) from a configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Self {
            model: Dlrm::new(config.model.clone()),
            config,
        }
    }

    /// Borrows the underlying model.
    pub fn model(&self) -> &Dlrm {
        &self.model
    }

    /// Trains on `train_batches` and evaluates on `eval_batches`.
    pub fn run(
        &mut self,
        train_batches: &[ConvertedBatch],
        eval_batches: &[ConvertedBatch],
    ) -> TrainReport {
        let mut report = TrainReport::default();
        for _ in 0..self.config.epochs.max(1) {
            for batch in train_batches {
                if batch.batch_size == 0 {
                    continue;
                }
                let loss = self.model.train_step(batch, self.config.mode);
                report.step_losses.push(loss);
                report.samples += batch.batch_size;
            }
        }
        report.eval_loss = self.evaluate(eval_batches);
        report
    }

    /// Mean BCE loss over the given batches without updating parameters.
    pub fn evaluate(&mut self, batches: &[ConvertedBatch]) -> f32 {
        let mut total = 0.0;
        let mut count = 0usize;
        for batch in batches {
            let (probs, _) = self.model.forward(batch, self.config.mode);
            for (p, &label) in probs.iter().zip(&batch.labels) {
                total += bce_loss(*p, label);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooling::PoolingKind;
    use recd_core::{DataLoaderConfig, FeatureConverter};
    use recd_data::ColumnarBatch;
    use recd_datagen::{DatasetGenerator, WorkloadConfig, WorkloadPreset};
    use recd_etl::cluster_by_session;

    fn batches(dedup: bool) -> (recd_data::Schema, Vec<ConvertedBatch>) {
        let gen = DatasetGenerator::new(WorkloadConfig::preset(WorkloadPreset::Tiny));
        let p = gen.generate_partition();
        let clustered = cluster_by_session(&p.samples);
        let converter = FeatureConverter::new(DataLoaderConfig::from_schema(&p.schema));
        let batches = clustered
            .chunks(64)
            .map(|rows| {
                let b = ColumnarBatch::from_samples(
                    rows,
                    p.schema.dense_count(),
                    p.schema.sparse_count(),
                );
                if dedup {
                    converter.convert_columnar(&b).unwrap()
                } else {
                    converter.convert_columnar_baseline(&b).unwrap()
                }
            })
            .collect();
        (p.schema, batches)
    }

    fn trainer_config(schema: &recd_data::Schema, mode: ExecutionMode) -> TrainerConfig {
        TrainerConfig {
            model: DlrmConfig::from_schema(schema, 8, PoolingKind::Sum),
            mode,
            epochs: 2,
        }
    }

    #[test]
    fn training_runs_and_records_losses() {
        let (schema, batches) = batches(true);
        let (train, eval) = batches.split_at(batches.len() - 1);
        let mut trainer = Trainer::new(trainer_config(&schema, ExecutionMode::Deduplicated));
        let report = trainer.run(train, eval);
        assert_eq!(report.step_losses.len(), train.len() * 2);
        assert!(report.samples > 0);
        assert!(report.eval_loss > 0.0);
        assert!(report.final_loss() > 0.0);
    }

    #[test]
    fn dedup_and_baseline_training_converge_identically() {
        // The paper's accuracy claim: IKJTs encode the same data, so training
        // on deduplicated batches matches training on baseline batches.
        let (schema, dedup_batches) = batches(true);
        let (_, baseline_batches) = batches(false);
        let mut dedup_trainer = Trainer::new(trainer_config(&schema, ExecutionMode::Deduplicated));
        let mut baseline_trainer = Trainer::new(trainer_config(&schema, ExecutionMode::Baseline));
        let dedup_report = dedup_trainer.run(&dedup_batches, &dedup_batches);
        let baseline_report = baseline_trainer.run(&baseline_batches, &baseline_batches);
        assert_eq!(
            dedup_report.step_losses.len(),
            baseline_report.step_losses.len()
        );
        for (a, b) in dedup_report
            .step_losses
            .iter()
            .zip(&baseline_report.step_losses)
        {
            assert!((a - b).abs() < 1e-3, "loss curves must match: {a} vs {b}");
        }
        assert!((dedup_report.eval_loss - baseline_report.eval_loss).abs() < 1e-3);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let (schema, _) = batches(true);
        let mut trainer = Trainer::new(trainer_config(&schema, ExecutionMode::Deduplicated));
        let report = trainer.run(&[], &[]);
        assert!(report.step_losses.is_empty());
        assert_eq!(report.eval_loss, 0.0);
        assert_eq!(report.final_loss(), 0.0);
    }
}
