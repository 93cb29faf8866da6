//! Fault plans: typed, clock-driven schedules of injected faults.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One typed fault the chaos engine knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Stall trainer `lane` for `ms` of wall time: the lane stops consuming,
    /// backpressure builds, then consumption resumes.
    StallTrainer {
        /// Trainer lane index.
        lane: usize,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Kill trainer `lane`: its handle is drained and dropped, never to
    /// return. Surviving lanes must absorb the load without stranding
    /// batches.
    KillTrainer {
        /// Trainer lane index.
        lane: usize,
    },
    /// Brown out the blob store: multiply its simulated per-fetch latency by
    /// `factor` for `ms` of pipeline-clock time, then restore it.
    SlowStorage {
        /// Latency multiplier over the pre-fault base latency.
        factor: u32,
        /// Brown-out duration in pipeline-clock milliseconds.
        ms: u64,
    },
    /// Fail the next `count` blob-store gets with a transient error.
    FailGet {
        /// Number of get operations to fail.
        count: u64,
    },
    /// Fail the next `count` fallible blob-store puts with a transient error.
    FailPut {
        /// Number of put operations to fail.
        count: u64,
    },
    /// Crash the ETL pump: the service's in-memory state is discarded and
    /// rebuilt from the most recent checkpoint, replaying the log tail from
    /// the checkpointed cursor.
    CrashEtlPump,
    /// Kill DPP host `host`: its service tears down and its heartbeats stop.
    /// The fleet coordinator must detect the death via heartbeat timeout and
    /// re-place the host's shards with bounded replay.
    KillHost {
        /// Fleet host index.
        host: usize,
    },
    /// Partition DPP host `host` from the control plane for `ms` of
    /// pipeline-clock time: the host keeps computing but its heartbeats are
    /// suppressed and new submissions to it queue. Healing before the
    /// detection window elapses is a flap; healing after is a zombie whose
    /// late deliveries the fleet must deduplicate.
    PartitionHost {
        /// Fleet host index.
        host: usize,
        /// Partition duration in pipeline-clock milliseconds.
        ms: u64,
    },
    /// Rejoin previously dead host `host`: a fresh service resumes from the
    /// coordinator's last checkpoint for that slot and becomes eligible for
    /// rebalanced shards.
    RejoinHost {
        /// Fleet host index.
        host: usize,
    },
}

impl FaultKind {
    /// Stable snake_case name, used as the `kind` label on
    /// `recd_chaos_faults_total`.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StallTrainer { .. } => "stall_trainer",
            FaultKind::KillTrainer { .. } => "kill_trainer",
            FaultKind::SlowStorage { .. } => "slow_storage",
            FaultKind::FailGet { .. } => "fail_get",
            FaultKind::FailPut { .. } => "fail_put",
            FaultKind::CrashEtlPump => "crash_etl_pump",
            FaultKind::KillHost { .. } => "kill_host",
            FaultKind::PartitionHost { .. } => "partition_host",
            FaultKind::RejoinHost { .. } => "rejoin_host",
        }
    }

    /// All kind names, in a stable order (drives zero-initialised counter
    /// export so every series exists before its first fault fires).
    pub fn all_names() -> &'static [&'static str] {
        &[
            "stall_trainer",
            "kill_trainer",
            "slow_storage",
            "fail_get",
            "fail_put",
            "crash_etl_pump",
            "kill_host",
            "partition_host",
            "rejoin_host",
        ]
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StallTrainer { lane, ms } => write!(f, "stall-trainer:{lane}:{ms}"),
            FaultKind::KillTrainer { lane } => write!(f, "kill-trainer:{lane}"),
            FaultKind::SlowStorage { factor, ms } => write!(f, "slow-storage:{factor}:{ms}"),
            FaultKind::FailGet { count } => write!(f, "fail-get:{count}"),
            FaultKind::FailPut { count } => write!(f, "fail-put:{count}"),
            FaultKind::CrashEtlPump => write!(f, "crash-pump"),
            FaultKind::KillHost { host } => write!(f, "kill-host:{host}"),
            FaultKind::PartitionHost { host, ms } => write!(f, "partition-host:{host}:{ms}"),
            FaultKind::RejoinHost { host } => write!(f, "rejoin-host:{host}"),
        }
    }
}

/// A fault bound to the pipeline-clock instant at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Pipeline-clock time (ms) at which the fault fires.
    pub at_ms: u64,
    /// What fires.
    pub kind: FaultKind,
}

impl fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.at_ms, self.kind)
    }
}

/// A seeded, clock-driven schedule of typed faults.
///
/// The grammar accepted by [`FaultPlan::parse`] (and emitted by `Display`)
/// is semicolon-separated `at_ms:kind[:args]` entries:
///
/// ```text
/// 1800000:kill-trainer:1;3600000:slow-storage:8:600000;5400000:fail-get:5;7200000:crash-pump
/// ```
///
/// | entry                        | fault                                     |
/// |------------------------------|-------------------------------------------|
/// | `T:stall-trainer:LANE:MS`    | [`FaultKind::StallTrainer`]               |
/// | `T:kill-trainer:LANE`        | [`FaultKind::KillTrainer`]                |
/// | `T:slow-storage:FACTOR:MS`   | [`FaultKind::SlowStorage`]                |
/// | `T:fail-get:COUNT`           | [`FaultKind::FailGet`]                    |
/// | `T:fail-put:COUNT`           | [`FaultKind::FailPut`]                    |
/// | `T:crash-pump`               | [`FaultKind::CrashEtlPump`]               |
/// | `T:kill-host:HOST`           | [`FaultKind::KillHost`]                   |
/// | `T:partition-host:HOST:MS`   | [`FaultKind::PartitionHost`]              |
/// | `T:rejoin-host:HOST`         | [`FaultKind::RejoinHost`]                 |
///
/// Duplicate entries — the same `at_ms` with the same fault kind — are
/// rejected loudly: a plan that schedules the "same" fault twice at one
/// instant is almost always a typo, and last-wins silence would hide it.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans); recorded
    /// in the [`ChaosReport`](crate::ChaosReport) so runs are reproducible.
    pub seed: u64,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at `at_ms`. Faults may be pushed in any order; the
    /// injector fires them in schedule order (ties fire in push order).
    #[must_use]
    pub fn with_fault(mut self, at_ms: u64, kind: FaultKind) -> Self {
        self.faults.push(ScheduledFault { at_ms, kind });
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The schedule, in push order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// The schedule sorted by fire time (stable, so same-instant faults keep
    /// push order) — the order the injector executes.
    pub fn sorted(&self) -> Vec<ScheduledFault> {
        let mut faults = self.faults.clone();
        faults.sort_by_key(|f| f.at_ms);
        faults
    }

    /// Generates a deterministic plan from a seed: a storage brown-out, a
    /// burst of transient get failures, a trainer kill (when `lanes > 1` —
    /// killing the only lane would strand every batch by construction), a
    /// trainer stall, and a pump crash-restart, scattered across the middle
    /// of `[0, horizon_ms)`. The same `(seed, horizon_ms, lanes)` always
    /// yields the same plan — the property the chaos convergence tests and
    /// the CI smoke step rely on.
    pub fn seeded(seed: u64, horizon_ms: u64, lanes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
        let span = horizon_ms.max(10);
        // Fire inside the middle 80% so every fault lands while the pipeline
        // is actually moving data.
        let at = |rng: &mut StdRng| rng.gen_range(span / 10..span.saturating_sub(span / 10));
        let mut plan = Self {
            seed,
            faults: Vec::new(),
        };
        plan.faults.push(ScheduledFault {
            at_ms: at(&mut rng),
            kind: FaultKind::SlowStorage {
                factor: rng.gen_range(4u32..16),
                ms: span / rng.gen_range(8u64..16),
            },
        });
        plan.faults.push(ScheduledFault {
            at_ms: at(&mut rng),
            kind: FaultKind::FailGet {
                count: rng.gen_range(2u64..8),
            },
        });
        plan.faults.push(ScheduledFault {
            at_ms: at(&mut rng),
            kind: FaultKind::FailPut {
                count: rng.gen_range(1u64..4),
            },
        });
        if lanes > 1 {
            plan.faults.push(ScheduledFault {
                at_ms: at(&mut rng),
                kind: FaultKind::KillTrainer {
                    lane: rng.gen_range(0..lanes),
                },
            });
            plan.faults.push(ScheduledFault {
                at_ms: at(&mut rng),
                kind: FaultKind::StallTrainer {
                    lane: rng.gen_range(0..lanes),
                    ms: rng.gen_range(5u64..25),
                },
            });
        }
        plan.faults.push(ScheduledFault {
            at_ms: at(&mut rng),
            kind: FaultKind::CrashEtlPump,
        });
        plan
    }

    /// Generates a deterministic host-level plan for an M-host fleet: one
    /// host is killed and later rejoined, another is partitioned from the
    /// control plane (only when `hosts >= 3`), with a storage brown-out, a
    /// transient get burst, and — with more than one lane — a trainer stall
    /// riding along. The kill always precedes the rejoin by at least a fifth
    /// of the horizon so the death has time to be detected between them.
    /// Falls back to [`FaultPlan::seeded`] when `hosts < 2` (killing the
    /// only host would strand the stream by construction). Deterministic in
    /// `(seed, horizon_ms, lanes, hosts)`.
    pub fn seeded_fleet(seed: u64, horizon_ms: u64, lanes: usize, hosts: usize) -> Self {
        if hosts < 2 {
            return Self::seeded(seed, horizon_ms, lanes);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7C4A);
        let span = horizon_ms.max(100);
        let mut plan = Self {
            seed,
            faults: Vec::new(),
        };
        // The killed and partitioned hosts are distinct, and a third host
        // exists, so at least one host stays reachable throughout. On two
        // hosts the partitioned one would be the killed one's only heir: a
        // partition detected between the kill and the rejoin would leave no
        // live host, so there is no partition.
        let killed = rng.gen_range(0..hosts);
        let partitioned = (killed + 1 + rng.gen_range(0..hosts - 1)) % hosts;
        let kill_at = rng.gen_range(span / 5..(2 * span) / 5);
        let rejoin_at = rng.gen_range((3 * span) / 5..(4 * span) / 5);
        plan.faults.push(ScheduledFault {
            at_ms: kill_at,
            kind: FaultKind::KillHost { host: killed },
        });
        if hosts > 2 {
            plan.faults.push(ScheduledFault {
                at_ms: rng.gen_range(span / 4..span / 2),
                kind: FaultKind::PartitionHost {
                    host: partitioned,
                    ms: span / rng.gen_range(6u64..12),
                },
            });
        }
        plan.faults.push(ScheduledFault {
            at_ms: rejoin_at,
            kind: FaultKind::RejoinHost { host: killed },
        });
        plan.faults.push(ScheduledFault {
            at_ms: rng.gen_range(span / 10..(9 * span) / 10),
            kind: FaultKind::SlowStorage {
                factor: rng.gen_range(4u32..12),
                ms: span / rng.gen_range(8u64..16),
            },
        });
        plan.faults.push(ScheduledFault {
            at_ms: rng.gen_range(span / 10..(9 * span) / 10),
            kind: FaultKind::FailGet {
                count: rng.gen_range(2u64..6),
            },
        });
        if lanes > 1 {
            // No kill-trainer here: fleet lanes are pinned stable slices of
            // the shard space, so killing one would drop its shards' batches
            // by construction. A stall only delays.
            plan.faults.push(ScheduledFault {
                at_ms: rng.gen_range(span / 10..(9 * span) / 10),
                kind: FaultKind::StallTrainer {
                    lane: rng.gen_range(0..lanes),
                    ms: rng.gen_range(5u64..25),
                },
            });
        }
        plan
    }

    /// Parses the `--chaos-plan` grammar (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new();
        let mut seen: std::collections::HashSet<(u64, &'static str)> = Default::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let parts: Vec<&str> = entry.split(':').collect();
            let parse_u64 = |field: &str, what: &str| -> Result<u64, String> {
                field
                    .parse()
                    .map_err(|e| format!("`{entry}`: bad {what}: {e}"))
            };
            if parts.len() < 2 {
                return Err(format!("`{entry}`: expected `at_ms:kind[:args]`"));
            }
            let at_ms = parse_u64(parts[0], "fire time")?;
            let kind = match (parts[1], parts.len()) {
                ("stall-trainer", 4) => FaultKind::StallTrainer {
                    lane: parse_u64(parts[2], "lane")? as usize,
                    ms: parse_u64(parts[3], "stall ms")?,
                },
                ("kill-trainer", 3) => FaultKind::KillTrainer {
                    lane: parse_u64(parts[2], "lane")? as usize,
                },
                ("slow-storage", 4) => FaultKind::SlowStorage {
                    factor: parse_u64(parts[2], "factor")? as u32,
                    ms: parse_u64(parts[3], "duration ms")?,
                },
                ("fail-get", 3) => FaultKind::FailGet {
                    count: parse_u64(parts[2], "count")?,
                },
                ("fail-put", 3) => FaultKind::FailPut {
                    count: parse_u64(parts[2], "count")?,
                },
                ("crash-pump", 2) => FaultKind::CrashEtlPump,
                ("kill-host", 3) => FaultKind::KillHost {
                    host: parse_u64(parts[2], "host")? as usize,
                },
                ("partition-host", 4) => FaultKind::PartitionHost {
                    host: parse_u64(parts[2], "host")? as usize,
                    ms: parse_u64(parts[3], "partition ms")?,
                },
                ("rejoin-host", 3) => FaultKind::RejoinHost {
                    host: parse_u64(parts[2], "host")? as usize,
                },
                (kind, _) => {
                    return Err(format!(
                        "`{entry}`: unknown fault `{kind}` or wrong arity \
                         (stall-trainer:LANE:MS | kill-trainer:LANE | \
                         slow-storage:FACTOR:MS | fail-get:COUNT | \
                         fail-put:COUNT | crash-pump | kill-host:HOST | \
                         partition-host:HOST:MS | rejoin-host:HOST)"
                    ))
                }
            };
            if !seen.insert((at_ms, kind.name())) {
                return Err(format!(
                    "`{entry}`: duplicate `{at_ms}:{}` — an entry with the same \
                     fire time and fault kind was already scheduled; duplicates \
                     are rejected instead of silently overwriting",
                    kind.name()
                ));
            }
            plan.faults.push(ScheduledFault { at_ms, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for fault in &self.faults {
            if !first {
                write!(f, ";")?;
            }
            write!(f, "{fault}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_through_display() {
        let spec = "1000:stall-trainer:2:50;2000:kill-trainer:1;3000:slow-storage:8:600;\
                    4000:fail-get:5;5000:fail-put:2;6000:crash-pump;\
                    7000:kill-host:1;8000:partition-host:2:4000;9000:rejoin-host:1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.len(), 9);
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "oops",
            "1000:warp-core-breach",
            "1000:kill-trainer",
            "1000:kill-trainer:one",
            "x:crash-pump",
            "1000:slow-storage:8",
            "1000:kill-host",
            "1000:partition-host:2",
            "1000:rejoin-host:0:9",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        // Empty entries and surrounding whitespace are tolerated.
        let plan = FaultPlan::parse(" 5:crash-pump ; ;").unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn parse_rejects_duplicate_at_ms_kind_entries_loudly() {
        let err = FaultPlan::parse("1000:crash-pump;1000:crash-pump").unwrap_err();
        assert!(
            err.contains("duplicate"),
            "error must name the problem: {err}"
        );
        assert!(
            err.contains("1000:crash_etl_pump"),
            "error names the entry: {err}"
        );
        // Same kind with different *arguments* at the same instant is still a
        // duplicate (the kind name collides)...
        assert!(FaultPlan::parse("500:fail-get:2;500:fail-get:7").is_err());
        // ...but the same instant with different kinds is a legal overlap,
        // and the same kind at different instants is a legal repeat.
        assert!(FaultPlan::parse("500:fail-get:2;500:fail-put:2").is_ok());
        assert!(FaultPlan::parse("500:crash-pump;900:crash-pump").is_ok());
    }

    #[test]
    fn seeded_fleet_plans_kill_then_rejoin_with_margin() {
        for seed in [1u64, 7, 42] {
            let plan = FaultPlan::seeded_fleet(seed, 3_600_000, 2, 4);
            assert_eq!(plan, FaultPlan::seeded_fleet(seed, 3_600_000, 2, 4));
            let kill = plan
                .faults()
                .iter()
                .find(|f| matches!(f.kind, FaultKind::KillHost { .. }))
                .expect("fleet plan kills a host");
            let rejoin = plan
                .faults()
                .iter()
                .find(|f| matches!(f.kind, FaultKind::RejoinHost { .. }))
                .expect("fleet plan rejoins the killed host");
            let FaultKind::KillHost { host: killed } = kill.kind else {
                unreachable!()
            };
            assert!(matches!(rejoin.kind, FaultKind::RejoinHost { host } if host == killed));
            assert!(
                rejoin.at_ms >= kill.at_ms + 3_600_000 / 5,
                "rejoin must trail the kill by a detection margin"
            );
            let FaultKind::PartitionHost { host: parted, .. } = plan
                .faults()
                .iter()
                .find(|f| matches!(f.kind, FaultKind::PartitionHost { .. }))
                .expect("fleet plan partitions a host")
                .kind
            else {
                unreachable!()
            };
            assert_ne!(parted, killed, "kill and partition target distinct hosts");
            assert!(plan
                .faults()
                .iter()
                .all(|f| !matches!(f.kind, FaultKind::KillTrainer { .. })));
        }
        // Degenerate fleets fall back to the host-free plan.
        assert_eq!(
            FaultPlan::seeded_fleet(7, 3_600_000, 2, 1),
            FaultPlan::seeded(7, 3_600_000, 2)
        );
    }

    #[test]
    fn two_host_fleet_plans_kill_and_rejoin_but_never_partition() {
        for seed in [1u64, 7, 42] {
            let plan = FaultPlan::seeded_fleet(seed, 3_600_000, 2, 2);
            let kinds: Vec<FaultKind> = plan.faults().iter().map(|f| f.kind).collect();
            assert!(kinds
                .iter()
                .any(|k| matches!(k, FaultKind::KillHost { .. })));
            assert!(kinds
                .iter()
                .any(|k| matches!(k, FaultKind::RejoinHost { .. })));
            assert!(
                kinds
                    .iter()
                    .all(|k| !matches!(k, FaultKind::PartitionHost { .. })),
                "a partition of the only survivor leaves no live host: {plan}"
            );
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 3_600_000, 4);
        let b = FaultPlan::seeded(7, 3_600_000, 4);
        let c = FaultPlan::seeded(8, 3_600_000, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() >= 4);
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::CrashEtlPump)));
        assert!(a
            .faults()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::KillTrainer { .. })));
        let horizon = 3_600_000u64;
        assert!(a
            .faults()
            .iter()
            .all(|f| f.at_ms >= horizon / 10 && f.at_ms < horizon - horizon / 10));
    }

    #[test]
    fn seeded_single_lane_plan_never_kills_the_only_trainer() {
        let plan = FaultPlan::seeded(3, 1_000_000, 1);
        assert!(plan.faults().iter().all(|f| !matches!(
            f.kind,
            FaultKind::KillTrainer { .. } | FaultKind::StallTrainer { .. }
        )));
    }

    #[test]
    fn sorted_is_stable_for_simultaneous_faults() {
        let plan = FaultPlan::new()
            .with_fault(500, FaultKind::FailGet { count: 1 })
            .with_fault(100, FaultKind::CrashEtlPump)
            .with_fault(500, FaultKind::FailPut { count: 2 });
        let sorted = plan.sorted();
        assert_eq!(sorted[0].kind, FaultKind::CrashEtlPump);
        assert_eq!(sorted[1].kind, FaultKind::FailGet { count: 1 });
        assert_eq!(sorted[2].kind, FaultKind::FailPut { count: 2 });
    }
}
