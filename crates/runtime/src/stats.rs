//! The runtime's metric handles and the report derived from them.
//!
//! Every count the runtime keeps lives in its telemetry registry: the
//! `runtime.*` counters, the `runtime.batch_size` histogram, the
//! `runtime.queue_high_water` gauge and the `stage.*_us` histograms, all
//! exported on `/metrics` and by `dcdiff batch --metrics` while the runtime
//! runs. `RtMetrics` resolves those handles once at startup, so recording
//! never takes the registry lock. [`StatsSnapshot`] is the plain summary a
//! [`crate::RuntimeReport`] carries: what the registry counted between the
//! runtime's start and its shutdown.

use dcdiff_telemetry::{names, Counter, Gauge, Histogram, Telemetry};

use crate::job::Stage;

/// Pre-resolved metric handles for the runtime's hot paths. Registry lookups
/// take a lock; resolving once at startup keeps submit/pop/execute paths on
/// lock-free atomics only.
#[derive(Clone)]
pub(crate) struct RtMetrics {
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_high_water: Gauge,
    pub(crate) queue_wait: Histogram,
    pub(crate) batch_size: Histogram,
    pub(crate) job_wall: Histogram,
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) rejected: Counter,
    pub(crate) deadline_missed: Counter,
    pub(crate) retries: Counter,
    /// Per-stage execute latency, indexed by [`Stage::index`].
    pub(crate) stage: [Histogram; 4],
}

impl RtMetrics {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        RtMetrics {
            queue_depth: tel.gauge(names::GAUGE_QUEUE_DEPTH),
            queue_high_water: tel.gauge(names::GAUGE_QUEUE_HIGH_WATER),
            queue_wait: tel.histogram(names::HIST_QUEUE_WAIT_US),
            batch_size: tel.histogram(names::HIST_BATCH_SIZE),
            job_wall: tel.histogram(names::HIST_JOB_WALL_US),
            submitted: tel.counter(names::CTR_SUBMITTED),
            completed: tel.counter(names::CTR_COMPLETED),
            failed: tel.counter(names::CTR_FAILED),
            rejected: tel.counter(names::CTR_REJECTED),
            deadline_missed: tel.counter(names::CTR_DEADLINE_MISSED),
            retries: tel.counter(names::CTR_RETRIES),
            stage: [
                tel.histogram(names::HIST_STAGE_ENCODE_US),
                tel.histogram(names::HIST_STAGE_TRANSCODE_US),
                tel.histogram(names::HIST_STAGE_RECOVER_US),
                tel.histogram(names::HIST_STAGE_METRICS_US),
            ],
        }
    }

    /// The registry's totals now. Counts are cumulative over the registry's
    /// life, which may span several runtimes; a report is the difference of
    /// two totals (see [`StatsSnapshot::since`]).
    pub(crate) fn totals(&self) -> StatsSnapshot {
        let batch = self.batch_size.snapshot();
        StatsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            retried: self.retries.get(),
            rejected: self.rejected.get(),
            deadline_missed: self.deadline_missed.get(),
            batches: batch.count,
            // Bucket 1 holds exactly the size-1 batches, so the rest of the
            // sum is the jobs that rode in batches of two or more.
            batched_jobs: batch.sum.saturating_sub(batch.buckets[1]),
            queue_high_water: u64::try_from(self.queue_high_water.get()).unwrap_or(0),
            stage_ns: std::array::from_fn(|i| self.stage[i].sum().saturating_mul(1000)),
            stage_jobs: std::array::from_fn(|i| self.stage[i].count()),
        }
    }
}

/// A runtime's activity, as [`crate::RuntimeReport::stats`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that terminally failed (error or deadline).
    pub failed: u64,
    /// Transient-failure retry attempts.
    pub retried: u64,
    /// Fail-fast rejections plus abort-shed jobs.
    pub rejected: u64,
    /// Jobs that missed their deadline, before starting or mid-flight.
    pub deadline_missed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Jobs that rode in a batch of size ≥ 2.
    pub batched_jobs: u64,
    /// Highest observed queue depth.
    pub queue_high_water: u64,
    /// Execution nanoseconds per stage, at the microsecond resolution of
    /// the `stage.*_us` histograms.
    pub stage_ns: [u64; 4],
    /// Executed jobs per stage.
    pub stage_jobs: [u64; 4],
}

impl StatsSnapshot {
    /// The activity between `start` and `self`, two [`RtMetrics::totals`] of
    /// one registry with `start` taken first. Counts subtract; the
    /// high-water mark is `self`'s, as the gauge is reset when a runtime
    /// starts.
    pub(crate) fn since(&self, start: &StatsSnapshot) -> StatsSnapshot {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        StatsSnapshot {
            submitted: d(self.submitted, start.submitted),
            completed: d(self.completed, start.completed),
            failed: d(self.failed, start.failed),
            retried: d(self.retried, start.retried),
            rejected: d(self.rejected, start.rejected),
            deadline_missed: d(self.deadline_missed, start.deadline_missed),
            batches: d(self.batches, start.batches),
            batched_jobs: d(self.batched_jobs, start.batched_jobs),
            queue_high_water: self.queue_high_water,
            stage_ns: std::array::from_fn(|i| d(self.stage_ns[i], start.stage_ns[i])),
            stage_jobs: std::array::from_fn(|i| d(self.stage_jobs[i], start.stage_jobs[i])),
        }
    }

    /// Multi-line human-readable rendering (used by `dcdiff batch`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "jobs: {} submitted, {} completed, {} failed, {} rejected\n",
            self.submitted, self.completed, self.failed, self.rejected
        ));
        out.push_str(&format!(
            "      {} retries, {} deadline misses, queue high-water {}\n",
            self.retried, self.deadline_missed, self.queue_high_water
        ));
        out.push_str(&format!(
            "      {} batches ({} jobs rode in multi-job batches)\n",
            self.batches, self.batched_jobs
        ));
        for stage in Stage::ALL {
            let i = stage.index();
            if self.stage_jobs[i] > 0 {
                out.push_str(&format!(
                    "      {:<9} {:>5} jobs, {:.1} ms total exec\n",
                    stage.name(),
                    self.stage_jobs[i],
                    self.stage_ns[i] as f64 / 1e6,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let tel = Telemetry::new();
        let rt = RtMetrics::new(&tel);
        // Activity before the start mark belongs to an earlier runtime.
        rt.submitted.inc();
        rt.batch_size.record(4);
        let start = rt.totals();
        rt.submitted.inc();
        rt.submitted.inc();
        rt.completed.inc();
        rt.queue_high_water.fetch_max(3);
        rt.queue_high_water.fetch_max(1);
        rt.batch_size.record(1);
        rt.batch_size.record(3);
        rt.stage[Stage::Recover.index()].record_duration(Duration::from_micros(1500));
        let snap = rt.totals().since(&start);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.queue_high_water, 3);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batched_jobs, 3);
        assert_eq!(snap.stage_jobs[Stage::Recover.index()], 1);
        assert_eq!(snap.stage_ns[Stage::Recover.index()], 1_500_000);
        let text = snap.render();
        assert!(text.contains("2 submitted"));
        assert!(text.contains("recover"));
    }

    #[test]
    fn concurrent_bumps_do_not_lose_counts() {
        let rt = RtMetrics::new(&Telemetry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        rt.completed.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rt.totals().completed, 40_000);
    }
}
