//! The fault injector: executes a [`FaultPlan`] against live pipeline knobs,
//! plus the shared chaos accounting it and the retry paths feed.

use crate::plan::{FaultKind, FaultPlan, ScheduledFault};
use recd_storage::TectonicSim;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fault the injector cannot apply itself because it does not own the
/// resource: the pipeline layer that owns the trainer handles / the pump loop
/// receives these from [`FaultInjector::poll`] and applies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stall trainer `lane` for `ms` of wall time.
    StallTrainer {
        /// Trainer lane index.
        lane: usize,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Drain and drop trainer `lane`'s handle.
    KillTrainer {
        /// Trainer lane index.
        lane: usize,
    },
    /// Discard the ETL pump's in-memory state and resume from the latest
    /// checkpoint.
    CrashEtlPump,
    /// Tear down DPP host `host` and stop its heartbeats.
    KillHost {
        /// Fleet host index.
        host: usize,
    },
    /// Suppress host `host`'s heartbeats (and queue its submissions) for
    /// `ms` of pipeline-clock time.
    PartitionHost {
        /// Fleet host index.
        host: usize,
        /// Partition duration in pipeline-clock milliseconds.
        ms: u64,
    },
    /// Restart dead host `host` from the coordinator's last checkpoint.
    RejoinHost {
        /// Fleet host index.
        host: usize,
    },
}

/// Shared chaos accounting: fault firings by kind, retry/backoff totals from
/// the bounded-retry paths, and pump crash/recovery bookkeeping. Exported
/// through the `recd-obs` Collector plane as `recd_chaos_*`.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    fired: [AtomicU64; 9],
    retries: AtomicU64,
    retry_exhausted: AtomicU64,
    backoff_nanos: AtomicU64,
    pump_crashes: AtomicU64,
    resumes: AtomicU64,
    recovery_nanos: AtomicU64,
}

fn kind_slot(name: &str) -> usize {
    FaultKind::all_names()
        .iter()
        .position(|&n| n == name)
        .expect("every kind name is registered")
}

impl ChaosCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one fired fault of `kind`.
    pub fn note_fault(&self, kind: &FaultKind) {
        self.fired[kind_slot(kind.name())].fetch_add(1, Ordering::AcqRel);
    }

    /// Records one retry that backed off for `backoff` before re-attempting.
    pub fn note_retry(&self, backoff: Duration) {
        self.retries.fetch_add(1, Ordering::AcqRel);
        self.backoff_nanos.fetch_add(
            backoff.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::AcqRel,
        );
    }

    /// Records one operation whose retry budget ran out.
    pub fn note_retry_exhausted(&self) {
        self.retry_exhausted.fetch_add(1, Ordering::AcqRel);
    }

    /// Records one pump crash.
    pub fn note_pump_crash(&self) {
        self.pump_crashes.fetch_add(1, Ordering::AcqRel);
    }

    /// Records one successful resume-from-checkpoint that took `recovery` of
    /// wall time.
    pub fn note_resume(&self, recovery: Duration) {
        self.resumes.fetch_add(1, Ordering::AcqRel);
        self.recovery_nanos.fetch_add(
            recovery.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::AcqRel,
        );
    }

    /// Total faults fired across all kinds.
    pub fn faults_fired(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// Retries performed by bounded-retry paths.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Acquire)
    }

    /// Builds the serializable end-of-run report. `planned` is the plan's
    /// fault count; the store supplies injected get/put failure totals.
    pub fn report(&self, seed: u64, planned: usize, store: &TectonicSim) -> ChaosReport {
        let (injected_get_failures, injected_put_failures) = store.injected_failures();
        ChaosReport {
            seed,
            planned_faults: planned,
            faults_fired: self.faults_fired(),
            faults_by_kind: FaultKind::all_names()
                .iter()
                .enumerate()
                .map(|(slot, name)| (name.to_string(), self.fired[slot].load(Ordering::Acquire)))
                .filter(|(_, count)| *count > 0)
                .collect(),
            injected_get_failures,
            injected_put_failures,
            retries: self.retries(),
            retry_exhausted: self.retry_exhausted.load(Ordering::Acquire),
            backoff_ms: self.backoff_nanos.load(Ordering::Acquire) as f64 / 1e6,
            pump_crashes: self.pump_crashes.load(Ordering::Acquire),
            resumes: self.resumes.load(Ordering::Acquire),
            recovery_ms: self.recovery_nanos.load(Ordering::Acquire) as f64 / 1e6,
        }
    }
}

impl recd_obs::Collector for ChaosCounters {
    fn collect(&self, out: &mut recd_obs::MetricsBuf) {
        for (slot, name) in FaultKind::all_names().iter().enumerate() {
            out.counter(
                "recd_chaos_faults_total",
                "Faults fired by the chaos engine, by kind.",
                &[("kind", name)],
                self.fired[slot].load(Ordering::Acquire) as f64,
            );
        }
        out.counter(
            "recd_chaos_retries_total",
            "Retries performed by bounded-retry storage paths.",
            &[],
            self.retries() as f64,
        );
        out.counter(
            "recd_chaos_retry_exhausted_total",
            "Operations whose bounded retry budget ran out.",
            &[],
            self.retry_exhausted.load(Ordering::Acquire) as f64,
        );
        out.counter(
            "recd_chaos_backoff_seconds_total",
            "Wall time spent in retry backoff.",
            &[],
            self.backoff_nanos.load(Ordering::Acquire) as f64 / 1e9,
        );
        out.counter(
            "recd_chaos_pump_crashes_total",
            "ETL pump crash-restarts injected.",
            &[],
            self.pump_crashes.load(Ordering::Acquire) as f64,
        );
        out.counter(
            "recd_chaos_resumes_total",
            "Successful resumes from a pipeline checkpoint.",
            &[],
            self.resumes.load(Ordering::Acquire) as f64,
        );
        out.counter(
            "recd_chaos_recovery_seconds_total",
            "Wall time spent rebuilding state from checkpoints.",
            &[],
            self.recovery_nanos.load(Ordering::Acquire) as f64 / 1e9,
        );
    }
}

/// End-of-run chaos summary, recorded into `PipelineReport`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seed of the executed plan (0 for hand-written plans).
    pub seed: u64,
    /// Faults the plan scheduled.
    pub planned_faults: usize,
    /// Faults actually fired (≤ planned when the run drains early).
    pub faults_fired: u64,
    /// Fired-fault counts by kind name (zero kinds omitted).
    pub faults_by_kind: Vec<(String, u64)>,
    /// Blob-store gets failed by injection.
    pub injected_get_failures: u64,
    /// Blob-store puts failed by injection.
    pub injected_put_failures: u64,
    /// Retries performed by bounded-retry paths.
    pub retries: u64,
    /// Operations whose retry budget ran out.
    pub retry_exhausted: u64,
    /// Total wall time spent backing off, in milliseconds.
    pub backoff_ms: f64,
    /// Pump crash-restarts injected.
    pub pump_crashes: u64,
    /// Successful resumes from checkpoint.
    pub resumes: u64,
    /// Total recovery (rebuild-from-checkpoint) wall time, in milliseconds.
    pub recovery_ms: f64,
}

/// Executes a [`FaultPlan`] against a live pipeline.
///
/// Storage-level faults are applied directly through the [`TectonicSim`]'s
/// shared knobs (latency multiplier, armed transient-failure budgets);
/// trainer- and pump-level faults are returned from [`poll`](Self::poll) as
/// [`FaultAction`]s for the owning layer to apply. `poll` is driven by the
/// same manual clock as the pipeline pump, so fault timing is deterministic.
#[derive(Debug)]
pub struct FaultInjector {
    schedule: Vec<ScheduledFault>,
    next: usize,
    store: TectonicSim,
    counters: Arc<ChaosCounters>,
    /// Latency to restore after a brown-out, and when to restore it.
    base_latency: Duration,
    restore_at_ms: Option<u64>,
    seed: u64,
    planned: usize,
}

impl FaultInjector {
    /// Builds an injector for `plan` against `store`. The store's current
    /// get latency is captured as the brown-out restore point.
    pub fn new(plan: &FaultPlan, store: TectonicSim) -> Self {
        Self {
            schedule: plan.sorted(),
            next: 0,
            base_latency: store.get_latency(),
            store,
            counters: Arc::new(ChaosCounters::new()),
            restore_at_ms: None,
            seed: plan.seed,
            planned: plan.len(),
        }
    }

    /// The shared chaos counters — register these into a `MetricsRegistry`
    /// and hand them to [`RetryPolicy::run`](crate::RetryPolicy::run) sites.
    pub fn counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// Whether every scheduled fault has fired and no brown-out is pending
    /// restoration.
    pub fn done(&self) -> bool {
        self.next == self.schedule.len() && self.restore_at_ms.is_none()
    }

    /// Advances the injector to pipeline-clock `now_ms`: applies every due
    /// storage fault directly, restores expired brown-outs, and returns the
    /// due trainer/pump actions for the caller to apply, in schedule order.
    pub fn poll(&mut self, now_ms: u64) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        if let Some(restore_at) = self.restore_at_ms {
            if now_ms >= restore_at {
                self.restore_brownout();
                self.restore_at_ms = None;
            }
        }
        while self.next < self.schedule.len() && self.schedule[self.next].at_ms <= now_ms {
            let fault = self.schedule[self.next];
            self.next += 1;
            self.counters.note_fault(&fault.kind);
            match fault.kind {
                FaultKind::SlowStorage { factor, ms } => {
                    if self.store.queueing_enabled() {
                        // Queue-modeled store: a brown-out is a service-rate
                        // cut, so latency degrades with load instead of
                        // jumping by a flat amount.
                        self.store.set_rate_cut(f64::from(factor.max(1)));
                    } else {
                        // Flat-latency store: a zero-latency store still
                        // browns out — the floor makes the multiplier
                        // meaningful either way.
                        let base = self.base_latency.max(Duration::from_micros(200));
                        self.store.set_get_latency(base * factor);
                    }
                    self.restore_at_ms = Some(now_ms.saturating_add(ms));
                }
                FaultKind::FailGet { count } => self.store.fail_next_gets(count),
                FaultKind::FailPut { count } => self.store.fail_next_puts(count),
                FaultKind::StallTrainer { lane, ms } => {
                    actions.push(FaultAction::StallTrainer { lane, ms });
                }
                FaultKind::KillTrainer { lane } => {
                    actions.push(FaultAction::KillTrainer { lane });
                }
                FaultKind::CrashEtlPump => actions.push(FaultAction::CrashEtlPump),
                FaultKind::KillHost { host } => {
                    actions.push(FaultAction::KillHost { host });
                }
                FaultKind::PartitionHost { host, ms } => {
                    actions.push(FaultAction::PartitionHost { host, ms });
                }
                FaultKind::RejoinHost { host } => {
                    actions.push(FaultAction::RejoinHost { host });
                }
            }
        }
        actions
    }

    /// Finishes the run: restores any pending brown-out and returns the
    /// serializable report.
    pub fn finish(&mut self) -> ChaosReport {
        if self.restore_at_ms.take().is_some() {
            self.restore_brownout();
        }
        self.counters.report(self.seed, self.planned, &self.store)
    }

    /// Ends a brown-out on whichever model is active: rate cut back to
    /// healthy on a queue-modeled store, base latency otherwise.
    fn restore_brownout(&self) {
        if self.store.queueing_enabled() {
            self.store.set_rate_cut(1.0);
        } else {
            self.store.set_get_latency(self.base_latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recd_obs::{sample_value, Collector, MetricsBuf};

    #[test]
    fn storage_faults_apply_directly_and_restore_on_schedule() {
        let store = TectonicSim::new(1);
        store.set_get_latency(Duration::from_millis(1));
        store.put("a", vec![1]);
        let plan = FaultPlan::new()
            .with_fault(1_000, FaultKind::SlowStorage { factor: 8, ms: 500 })
            .with_fault(1_000, FaultKind::FailGet { count: 1 });
        let mut injector = FaultInjector::new(&plan, store.clone());

        assert!(injector.poll(999).is_empty());
        assert_eq!(store.get_latency(), Duration::from_millis(1));

        assert!(injector.poll(1_000).is_empty());
        assert_eq!(store.get_latency(), Duration::from_millis(8));
        assert!(store.get("a").is_err(), "armed get fault fires");
        assert!(store.get("a").is_ok(), "budget spent");

        assert!(!injector.done(), "brown-out restoration still pending");
        injector.poll(1_500);
        assert_eq!(store.get_latency(), Duration::from_millis(1));
        assert!(injector.done());

        let report = injector.finish();
        assert_eq!(report.faults_fired, 2);
        assert_eq!(report.injected_get_failures, 1);
        assert_eq!(report.faults_by_kind.len(), 2);
    }

    #[test]
    fn trainer_and_pump_faults_surface_as_actions_in_order() {
        let store = TectonicSim::new(1);
        let plan = FaultPlan::new()
            .with_fault(300, FaultKind::CrashEtlPump)
            .with_fault(100, FaultKind::KillTrainer { lane: 2 })
            .with_fault(200, FaultKind::StallTrainer { lane: 0, ms: 10 });
        let mut injector = FaultInjector::new(&plan, store);
        let actions = injector.poll(1_000);
        assert_eq!(
            actions,
            vec![
                FaultAction::KillTrainer { lane: 2 },
                FaultAction::StallTrainer { lane: 0, ms: 10 },
                FaultAction::CrashEtlPump,
            ]
        );
        assert!(injector.done());
        // A later poll fires nothing further.
        assert!(injector.poll(2_000).is_empty());
    }

    #[test]
    fn host_faults_surface_as_actions_in_order() {
        let store = TectonicSim::new(1);
        let plan = FaultPlan::new()
            .with_fault(300, FaultKind::RejoinHost { host: 1 })
            .with_fault(100, FaultKind::KillHost { host: 1 })
            .with_fault(200, FaultKind::PartitionHost { host: 0, ms: 50 });
        let mut injector = FaultInjector::new(&plan, store);
        let actions = injector.poll(1_000);
        assert_eq!(
            actions,
            vec![
                FaultAction::KillHost { host: 1 },
                FaultAction::PartitionHost { host: 0, ms: 50 },
                FaultAction::RejoinHost { host: 1 },
            ]
        );
        let report = injector.finish();
        assert_eq!(report.faults_fired, 3);
        assert_eq!(report.faults_by_kind.len(), 3);
    }

    #[test]
    fn finish_restores_a_mid_brownout_store() {
        let store = TectonicSim::new(1);
        store.set_get_latency(Duration::from_millis(2));
        let plan = FaultPlan::new().with_fault(
            0,
            FaultKind::SlowStorage {
                factor: 4,
                ms: 9999,
            },
        );
        let mut injector = FaultInjector::new(&plan, store.clone());
        injector.poll(0);
        assert_eq!(store.get_latency(), Duration::from_millis(8));
        injector.finish();
        assert_eq!(store.get_latency(), Duration::from_millis(2));
    }

    #[test]
    fn brownouts_on_queued_stores_cut_rates_not_latency() {
        use recd_storage::NodeConfig;
        let store = TectonicSim::new(2).with_node_config(NodeConfig::new(1e6, 1e9));
        store.put("a", vec![1]);
        let plan =
            FaultPlan::new().with_fault(1_000, FaultKind::SlowStorage { factor: 8, ms: 500 });
        let mut injector = FaultInjector::new(&plan, store.clone());
        injector.poll(999);
        assert_eq!(store.rate_cut(), 1.0);
        injector.poll(1_000);
        assert_eq!(store.rate_cut(), 8.0);
        // The flat latency knob stays untouched on the queued model.
        assert_eq!(store.get_latency(), Duration::ZERO);
        injector.poll(1_499);
        assert_eq!(store.rate_cut(), 8.0);
        injector.poll(1_500);
        assert_eq!(store.rate_cut(), 1.0);
        assert!(injector.done());
    }

    #[test]
    fn finish_restores_a_mid_brownout_rate_cut() {
        use recd_storage::NodeConfig;
        let store = TectonicSim::new(1).with_node_config(NodeConfig::new(1e6, 1e9));
        let plan = FaultPlan::new().with_fault(
            0,
            FaultKind::SlowStorage {
                factor: 4,
                ms: 9999,
            },
        );
        let mut injector = FaultInjector::new(&plan, store.clone());
        injector.poll(0);
        assert_eq!(store.rate_cut(), 4.0);
        injector.finish();
        assert_eq!(store.rate_cut(), 1.0);
    }

    #[test]
    fn counters_export_every_kind_series_zeroed() {
        let counters = ChaosCounters::new();
        counters.note_fault(&FaultKind::CrashEtlPump);
        counters.note_retry(Duration::from_millis(2));
        let mut buf = MetricsBuf::new();
        counters.collect(&mut buf);
        let families = buf.into_families();
        assert_eq!(
            sample_value(
                &families,
                "recd_chaos_faults_total",
                &[("kind", "crash_etl_pump")]
            ),
            Some(1.0)
        );
        assert_eq!(
            sample_value(
                &families,
                "recd_chaos_faults_total",
                &[("kind", "fail_get")]
            ),
            Some(0.0)
        );
        assert_eq!(
            sample_value(&families, "recd_chaos_retries_total", &[]),
            Some(1.0)
        );
        let backoff = sample_value(&families, "recd_chaos_backoff_seconds_total", &[]).unwrap();
        assert!((backoff - 0.002).abs() < 1e-9);
    }
}
