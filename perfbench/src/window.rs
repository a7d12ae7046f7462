//! A measured window: the load's completions, with process CPU time and
//! host steal sampled alongside.
//!
//! Times are reported in *delivered* time: wall time scaled by the share of
//! the machine's CPU that the hypervisor did not steal for other guests
//! over the same interval. On a shared 2-vCPU host the steal share was
//! seen to move between 0% and 35% from one run to the next, and a
//! CPU-bound receiver slows down in step with it; delivered time takes that out, so the metrics follow the
//! program rather than its neighbours. Wall-clock figures are kept
//! alongside for the run's record.

use std::time::{Duration, Instant};

use dcdiff_telemetry::{RegistrySnapshot, Telemetry};

use crate::sys;

/// Span at each end of the window in which its edge is placed.
const EDGE_SPAN: Duration = Duration::from_secs(3);

/// Sampling period of process CPU time and host steal.
const TICK: Duration = Duration::from_millis(100);

/// The telemetry registry at one instant.
struct Mark {
    at: Instant,
    registry: RegistrySnapshot,
}

impl Mark {
    fn take(tel: &Telemetry) -> Mark {
        Mark {
            at: Instant::now(),
            registry: tel.registry().snapshot(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.counters.get(name).copied().unwrap_or(0)
    }
}

/// Process CPU seconds and machine-wide `(stolen, total)` CPU ticks at one
/// instant, sampled every [`TICK`] through the window.
#[derive(Clone, Copy)]
struct Tick {
    at: Instant,
    cpu_s: f64,
    stolen: f64,
    total: f64,
}

impl Tick {
    fn now() -> Result<Tick, String> {
        let (stolen, total) = sys::host_ticks()?;
        Ok(Tick {
            at: Instant::now(),
            cpu_s: sys::cpu_seconds()?,
            stolen: stolen as f64,
            total: total as f64,
        })
    }

    /// Linear interpolation between the samples around `t`.
    fn at(ticks: &[Tick], t: Instant) -> Tick {
        let k = ticks.partition_point(|x| x.at <= t);
        let (a, b) = match (k.checked_sub(1).and_then(|i| ticks.get(i)), ticks.get(k)) {
            (Some(a), Some(b)) => (*a, *b),
            (Some(only), None) | (None, Some(only)) => return *only,
            (None, None) => {
                return Tick {
                    at: t,
                    cpu_s: 0.0,
                    stolen: 0.0,
                    total: 0.0,
                }
            }
        };
        let f = (t - a.at).as_secs_f64() / (b.at - a.at).as_secs_f64().max(1e-9);
        let lerp = |x: f64, y: f64| x + (y - x) * f;
        Tick {
            at: t,
            cpu_s: lerp(a.cpu_s, b.cpu_s),
            stolen: lerp(a.stolen, b.stolen),
            total: lerp(a.total, b.total),
        }
    }

    /// Share of the machine's CPU time the hypervisor gave to other guests
    /// between two samples.
    fn steal_between(from: &Tick, to: &Tick) -> f64 {
        let total = to.total - from.total;
        if total > 0.0 {
            (to.stolen - from.stolen) / total
        } else {
            0.0
        }
    }
}

/// One measured window of a load that ran from warm-up through its end.
///
/// Each edge of the window falls in the longest pause between completions
/// near that end of the measured interval. The runtime resolves a whole
/// micro-batch at once, so batch completions come in bursts; an edge in a
/// pause never splits a burst, and batch throughput is not quantised by
/// one.
pub struct Window {
    /// Wall duration of the window.
    pub secs: f64,
    /// Delivered duration of the window: wall time less host steal.
    pub delivered_secs: f64,
    /// Delivered latencies (ms) of the requests completed in the window,
    /// ascending: each request's wall latency less the host steal over it.
    pub latencies: Vec<f64>,
    /// Wall latencies (ms) of the same requests, ascending.
    pub wall_latencies: Vec<f64>,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Requests sent inside the window (each completed and was checked).
    pub sent: usize,
    /// Host steal (%) over the window.
    pub steal_pct: f64,
    start: Mark,
    end: Mark,
}

impl Window {
    /// Run `load` (which must keep going until `warmup + secs` from now and
    /// return every request it completed as `(sent, done)`) while a monitor
    /// thread samples the window.
    pub fn measure(
        tel: &Telemetry,
        warmup: Duration,
        secs: u64,
        load: impl FnOnce(Instant) -> Result<Vec<(Instant, Instant)>, String> + Send,
    ) -> Result<Window, String> {
        let start_at = Instant::now() + warmup;
        let end_at = start_at + Duration::from_secs(secs);
        let (samples, monitored) = std::thread::scope(|s| {
            let monitor = s.spawn(|| -> Result<(Mark, Vec<Tick>, Mark), String> {
                std::thread::sleep(start_at.saturating_duration_since(Instant::now()));
                let start = Mark::take(tel);
                let mut ticks = vec![Tick::now()?];
                while Instant::now() < end_at {
                    std::thread::sleep(TICK.min(end_at.saturating_duration_since(Instant::now())));
                    ticks.push(Tick::now()?);
                }
                Ok((start, ticks, Mark::take(tel)))
            });
            let samples = load(end_at);
            let monitored = monitor
                .join()
                .unwrap_or_else(|_| Err("monitor thread panicked".to_string()));
            (samples, monitored)
        });
        let mut samples = samples?;
        let (start, ticks, end) = monitored?;
        let sent = samples
            .iter()
            .filter(|(sent, _)| *sent >= start.at && *sent <= end.at)
            .count();
        samples.sort_by_key(|(_, done)| *done);
        let done: Vec<Instant> = samples.iter().map(|(_, done)| *done).collect();
        let edges = (
            edge(&done, start.at, start.at + EDGE_SPAN),
            edge(&done, end.at - EDGE_SPAN, end.at),
        );
        let (first, last) = match edges {
            (Some(first), Some(last)) if last > first => (first, last),
            _ => return Err("too few completions in the window; raise --seconds".to_string()),
        };
        let (a, b) = (Tick::at(&ticks, done[first]), Tick::at(&ticks, done[last]));
        let steal = Tick::steal_between(&a, &b);
        let secs = (b.at - a.at).as_secs_f64();
        let (mut latencies, mut wall_latencies): (Vec<f64>, Vec<f64>) = samples[first + 1..=last]
            .iter()
            .map(|(sent, done)| {
                let wall = (*done - *sent).as_secs_f64() * 1e3;
                let steal = Tick::steal_between(&Tick::at(&ticks, *sent), &Tick::at(&ticks, *done));
                (wall * (1.0 - steal), wall)
            })
            .unzip();
        latencies.sort_by(f64::total_cmp);
        wall_latencies.sort_by(f64::total_cmp);
        Ok(Window {
            secs,
            delivered_secs: secs * (1.0 - steal),
            latencies,
            wall_latencies,
            cpu_s: b.cpu_s - a.cpu_s,
            sent,
            steal_pct: steal * 100.0,
            start,
            end,
        })
    }

    /// Completions per delivered second.
    pub fn throughput(&self) -> f64 {
        if self.delivered_secs > 0.0 {
            self.latencies.len() as f64 / self.delivered_secs
        } else {
            0.0
        }
    }

    /// Completions per wall second.
    pub fn wall_throughput(&self) -> f64 {
        if self.secs > 0.0 {
            self.latencies.len() as f64 / self.secs
        } else {
            0.0
        }
    }

    pub fn counter_delta(&self, name: &str) -> u64 {
        self.end
            .counter(name)
            .saturating_sub(self.start.counter(name))
    }

    /// A histogram's samples recorded inside the window.
    pub fn histogram(&self, name: &str) -> Option<dcdiff_telemetry::HistogramSnapshot> {
        let end = self.end.registry.histograms.get(name)?;
        Some(match self.start.registry.histograms.get(name) {
            Some(start) => end.delta_since(start),
            None => end.clone(),
        })
    }
}

/// The completion in `[lo, hi]` after which the longest pause in `done`
/// (ascending) begins. The window counts the completions after its first
/// edge up to and including its last.
fn edge(done: &[Instant], lo: Instant, hi: Instant) -> Option<usize> {
    (0..done.len().saturating_sub(1))
        .filter(|&i| done[i] >= lo && done[i] <= hi)
        .max_by_key(|&i| done[i + 1] - done[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_edges_fall_between_bursts() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Bursts of three completions every 1.5 s, the last at 10.5 s.
        let done: Vec<Instant> = (0..8u64)
            .flat_map(|b| (0..3u64).map(move |k| at(b * 1500 + k)))
            .collect();
        // Edges after the bursts at 1.5 s and 7.5 s: the window counts the
        // four bursts from 3 s to 7.5 s over 6 s.
        assert_eq!(edge(&done, at(1000), at(3000)), Some(5));
        assert_eq!(edge(&done, at(7001), at(9001)), Some(17));
        // The last completion has no pause after it to place an edge in.
        assert_eq!(edge(&done, at(10_502), at(11_000)), None);
    }

    #[test]
    fn steal_is_interpolated_between_samples() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let tick = |ms: u64, stolen: f64| Tick {
            at: at(ms),
            cpu_s: ms as f64 / 1e3,
            stolen,
            total: ms as f64,
        };
        // A quarter of the first 100 ms stolen, none of the next.
        let ticks = [tick(0, 0.0), tick(100, 25.0), tick(200, 25.0)];
        let steal = |a: u64, b: u64| {
            Tick::steal_between(&Tick::at(&ticks, at(a)), &Tick::at(&ticks, at(b)))
        };
        assert!((steal(20, 60) - 0.25).abs() < 1e-9);
        assert!((steal(50, 150) - 0.125).abs() < 1e-9);
        assert!(steal(120, 180).abs() < 1e-9);
    }
}
