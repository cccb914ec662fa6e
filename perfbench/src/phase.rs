//! What the benchmark derives from a measured phase: outcomes, latency, generator
//! lateness, the prequential AUC pairs, and, for the closed-loop saturation phase, the
//! throughput the system sustained.
//!
//! A phase is cut into windows of `WINDOW` wall time, and the machine's CPU accounting
//! is sampled at every window boundary. The benchmark shares a few virtual CPUs of a
//! shared host: when another process in the machine runs, or the hypervisor gives a
//! virtual CPU's time to another tenant (steal), every request in flight waits, and a
//! whole run's latency can move by half. That time is neither the program's work nor
//! its waiting, so the latency and throughput metrics are taken over the quiet windows:
//! those in which the CPU taken by anything outside this process stayed at most
//! `QUIET_CORES`, or at most what the quietest third of the windows met, whichever is
//! higher. At least a third of the windows therefore always count, and on a quiet
//! machine all of them do. The program's own threads (the updater's snapshot copies
//! included) are inside the process and never set a window aside.

use crate::stats::{self, Outcomes, Percentiles};
use crate::sys::CpuSample;
use std::time::{Duration, Instant};

/// Length of one window.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Windows that start this soon after the phase's first sample are warm-up: caches,
/// page faults and the first publication. They count for correctness, not for timing.
pub const WARMUP: Duration = Duration::from_secs(1);
/// CPU taken from outside the process, in cores, below which a window is quiet.
pub const QUIET_CORES: f64 = 0.1;

/// One request of a phase, as the generator recorded it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When the schedule said to send it (in a closed loop: when it was sent).
    pub due: Instant,
    /// When the generator actually handed it to the system.
    pub sent: Instant,
    /// Shed, refused, or sent on a closed connection.
    pub refused: bool,
    /// How many predictions came back for it.
    pub replies: u32,
    /// When the (last) prediction reached the benchmark.
    pub done: Option<Instant>,
    pub prediction: f64,
    pub label: f64,
}

/// Takes a [`CpuSample`] at every window boundary. The generator calls [`Sampler::poll`]
/// between requests, so sampling needs no thread of its own.
#[derive(Debug)]
pub struct Sampler {
    next: Instant,
    samples: Vec<CpuSample>,
}

impl Sampler {
    /// Take the first sample now.
    #[must_use]
    pub fn start() -> Self {
        let first = CpuSample::now();
        Self {
            next: first.at + WINDOW,
            samples: vec![first],
        }
    }

    /// Sample if a window boundary has passed.
    pub fn poll(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.samples.push(CpuSample::now());
            self.next = (self.next + WINDOW).max(now);
        }
    }

    /// Take the last sample and return them all.
    #[must_use]
    pub fn finish(mut self) -> Vec<CpuSample> {
        self.samples.push(CpuSample::now());
        self.samples
    }
}

/// One window of a phase.
#[derive(Debug, Clone)]
struct Window {
    start: Instant,
    seconds: f64,
    /// CPU taken by other processes and the hypervisor, cores.
    external_cores: f64,
    /// Latency of the requests due in this window and answered, ms.
    latency_ms: Vec<f64>,
    /// Requests answered in this window (by reply instant).
    completions: u64,
}

impl Window {
    fn p99(&self) -> f64 {
        Percentiles::of(&self.latency_ms).p99
    }
}

/// The windows of a phase, from its CPU samples.
#[derive(Debug, Clone, Default)]
struct Windows {
    all: Vec<Window>,
}

impl Windows {
    fn new(samples: &[CpuSample], ticks_per_second: f64) -> Self {
        let all = samples
            .windows(2)
            .map(|pair| Window {
                start: pair[0].at,
                seconds: pair[1]
                    .at
                    .saturating_duration_since(pair[0].at)
                    .as_secs_f64(),
                external_cores: pair[0].external_cores(&pair[1], ticks_per_second),
                latency_ms: Vec::new(),
                completions: 0,
            })
            .collect();
        Self { all }
    }

    /// The window holding instant `at`, if any.
    fn index(&self, at: Instant) -> Option<usize> {
        let i = self.all.partition_point(|w| w.start <= at).checked_sub(1)?;
        let w = &self.all[i];
        (at < w.start + Duration::from_secs_f64(w.seconds)).then_some(i)
    }

    /// The windows that count: past the warm-up, not the last, at least half a window
    /// long, and quiet (see the module docs); with the threshold they were held to.
    fn quiet(&self) -> (Vec<&Window>, f64) {
        let Some(first) = self.all.first() else {
            return (Vec::new(), QUIET_CORES);
        };
        let phase_start = first.start;
        // The last window ends with the phase's final sample, so it is a partial one.
        let whole = &self.all[..self.all.len().saturating_sub(1)];
        let timed: Vec<&Window> = whole
            .iter()
            .filter(|w| w.start >= phase_start + WARMUP && w.seconds >= WINDOW.as_secs_f64() / 2.0)
            .collect();
        let mut loads: Vec<f64> = timed.iter().map(|w| w.external_cores).collect();
        loads.sort_by(f64::total_cmp);
        // However busy the machine was, its quietest third of the windows counts.
        let threshold = QUIET_CORES.max(stats::nearest_rank(&loads, 1.0 / 3.0));
        let quiet = timed
            .into_iter()
            .filter(|w| w.external_cores <= threshold)
            .collect();
        (quiet, threshold)
    }
}

/// How many windows counted, out of how many, and what held them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuietShare {
    pub used: usize,
    pub windows: usize,
    /// The external-CPU threshold the counted windows met, cores.
    pub threshold: f64,
    /// Median external CPU over every window of the phase, cores.
    pub median_external: f64,
}

impl QuietShare {
    fn of(windows: &Windows, used: usize, threshold: f64) -> Self {
        let loads: Vec<f64> = windows.all.iter().map(|w| w.external_cores).collect();
        Self {
            used,
            windows: windows.all.len(),
            threshold,
            median_external: stats::median(&loads),
        }
    }
}

impl std::fmt::Display for QuietShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} {} ms windows counted (external CPU <= {:.2} core; median {:.3})",
            self.used,
            self.windows,
            WINDOW.as_millis(),
            self.threshold,
            self.median_external
        )
    }
}

/// Latency over a phase's quiet windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuietLatency {
    /// Median over every request due in a counted window.
    pub p50: f64,
    /// 90th percentile over the same requests.
    pub p90: f64,
    /// Median over the counted windows of each window's P99.
    pub p99: f64,
    /// Requests behind `p50` and `p90`.
    pub n: usize,
    pub share: QuietShare,
}

/// The derived view of one open-loop phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub outcomes: Outcomes,
    /// Due-to-reply latency of every request answered correctly, ms.
    pub latency_ms: Vec<f64>,
    /// Due-to-send lateness of the generator for every request, ms, in send order.
    pub late_ms: Vec<f64>,
    /// `(prediction, label)` of every request answered correctly.
    pub pairs: Vec<(f64, f64)>,
    /// Prediction by request index; NaN where none (or more than one) came back.
    pub predictions: Vec<f64>,
    windows: Windows,
}

impl Phase {
    /// Derive the phase from its records, in schedule order, and the CPU samples taken
    /// at its window boundaries.
    #[must_use]
    pub fn new(records: &[Record], samples: &[CpuSample]) -> Self {
        let mut windows = Windows::new(samples, crate::sys::clock_ticks_per_second());
        let mut phase = Self {
            outcomes: Outcomes::default(),
            latency_ms: Vec::with_capacity(records.len()),
            late_ms: Vec::with_capacity(records.len()),
            pairs: Vec::with_capacity(records.len()),
            predictions: Vec::with_capacity(records.len()),
            windows: Windows::default(),
        };
        for r in records {
            phase
                .late_ms
                .push(r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3);
            phase.predictions.push(if r.replies == 1 {
                r.prediction
            } else {
                f64::NAN
            });
            let window = windows.index(r.due);
            if phase.outcomes.record(r.refused, r.replies, r.prediction) {
                let done = r.done.expect("an answered request has a reply instant");
                let ms = done.saturating_duration_since(r.due).as_secs_f64() * 1e3;
                phase.latency_ms.push(ms);
                phase.pairs.push((r.prediction, r.label));
                if let Some(i) = window {
                    windows.all[i].latency_ms.push(ms);
                }
            } else if let Some(i) = window {
                // A failed request misses any latency limit.
                windows.all[i].latency_ms.push(f64::INFINITY);
            }
        }
        phase.windows = windows;
        phase
    }

    /// Latency over every answered request of the phase.
    #[must_use]
    pub fn latency(&self) -> Percentiles {
        Percentiles::of(&self.latency_ms)
    }

    /// Latency over the phase's quiet windows.
    #[must_use]
    pub fn quiet_latency(&self) -> QuietLatency {
        let (quiet, threshold) = self.windows.quiet();
        let mut pooled: Vec<f64> = quiet
            .iter()
            .flat_map(|w| w.latency_ms.iter().copied())
            .collect();
        pooled.sort_by(f64::total_cmp);
        let p99s: Vec<f64> = quiet.iter().map(|w| w.p99()).collect();
        QuietLatency {
            p50: stats::nearest_rank(&pooled, 0.5),
            p90: stats::nearest_rank(&pooled, 0.9),
            p99: stats::median(&p99s),
            n: pooled.len(),
            share: QuietShare::of(&self.windows, quiet.len(), threshold),
        }
    }

    #[must_use]
    pub fn lateness(&self) -> Percentiles {
        Percentiles::of(&self.late_ms)
    }
}

/// The closed-loop saturation phase: the generator keeps a fixed number of requests
/// in flight, so the system serves as fast as it can and nothing queues beyond them.
#[derive(Debug, Clone)]
pub struct Saturation {
    pub in_flight: usize,
    pub outcomes: Outcomes,
    /// Send-to-reply latency of every request answered correctly, ms.
    pub latency_ms: Vec<f64>,
    /// Requests answered per second over the whole phase, wall time.
    pub overall_rps: f64,
    /// CPU seconds the serving threads ran during the phase.
    pub serving_cpu_seconds: f64,
    windows: Windows,
}

impl Saturation {
    #[must_use]
    pub fn new(
        in_flight: usize,
        records: &[Record],
        samples: &[CpuSample],
        serving_cpu_seconds: f64,
    ) -> Self {
        let mut windows = Windows::new(samples, crate::sys::clock_ticks_per_second());
        let mut outcomes = Outcomes::default();
        let mut latency_ms = Vec::with_capacity(records.len());
        for r in records {
            if outcomes.record(r.refused, r.replies, r.prediction) {
                let done = r.done.expect("an answered request has a reply instant");
                latency_ms.push(done.saturating_duration_since(r.due).as_secs_f64() * 1e3);
                if let Some(i) = windows.index(done) {
                    windows.all[i].completions += 1;
                }
            }
        }
        let span = match (samples.first(), samples.last()) {
            (Some(a), Some(b)) => b.at.saturating_duration_since(a.at).as_secs_f64(),
            _ => 0.0,
        };
        Self {
            in_flight,
            overall_rps: if span > 0.0 {
                outcomes.ok as f64 / span
            } else {
                0.0
            },
            outcomes,
            latency_ms,
            serving_cpu_seconds,
            windows,
        }
    }

    /// Requests answered per second: the median over the quiet windows.
    #[must_use]
    pub fn capacity(&self) -> (f64, QuietShare) {
        let (quiet, threshold) = self.windows.quiet();
        let rates: Vec<f64> = quiet
            .iter()
            .map(|w| w.completions as f64 / w.seconds)
            .collect();
        (
            stats::median(&rates),
            QuietShare::of(&self.windows, quiet.len(), threshold),
        )
    }

    #[must_use]
    pub fn latency(&self) -> Percentiles {
        Percentiles::of(&self.latency_ms)
    }
}

/// FNV-1a digest of predictions by request index, bit for bit.
#[must_use]
pub fn digest(predictions: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (i, p) in predictions.iter().enumerate() {
        for word in [i as u64, p.to_bits()] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples every `WINDOW` from `t0`, one per entry of `external`: the CPU (in
    /// cores) taken from outside the process in the window that sample opens.
    fn samples(t0: Instant, external: &[f64]) -> Vec<CpuSample> {
        let hz = crate::sys::clock_ticks_per_second();
        let mut busy = 0u64;
        let mut out = Vec::new();
        for (i, cores) in external.iter().chain([&0.0]).enumerate() {
            out.push(CpuSample {
                at: t0 + WINDOW * i as u32,
                busy_ticks: busy,
                self_ticks: 0,
            });
            busy += (cores * WINDOW.as_secs_f64() * hz).round() as u64;
        }
        out
    }

    fn record(due: Instant, ms: u64) -> Record {
        Record {
            due,
            sent: due,
            refused: false,
            replies: 1,
            done: Some(due + Duration::from_millis(ms)),
            prediction: 0.5,
            label: 0.0,
        }
    }

    /// Windows of warm-up at the start of every phase.
    const WARM: usize = (WARMUP.as_millis() / WINDOW.as_millis()) as usize;

    /// The external CPU of a phase's windows: quiet warm-up windows, then `timed`,
    /// then a quiet last window.
    fn framed(timed: &[f64]) -> Vec<f64> {
        let mut all = vec![0.0; WARM];
        all.extend_from_slice(timed);
        all.push(0.0);
        all
    }

    /// One request every millisecond through the windows of `framed(timed)`; a
    /// request in a window with external CPU above 0.5 core takes 9 ms, others 1 or
    /// 2 ms.
    fn phase(timed: &[f64]) -> Phase {
        let external = framed(timed);
        let t0 = Instant::now();
        let per_window = WINDOW.as_millis() as u64;
        let records: Vec<Record> = (0..external.len() as u64 * per_window)
            .map(|i| {
                let busy = external[(i / per_window) as usize] > 0.5;
                record(
                    t0 + Duration::from_millis(i),
                    if busy { 9 } else { 1 + i % 2 },
                )
            })
            .collect();
        Phase::new(&records, &samples(t0, &external))
    }

    #[test]
    fn phase_times_from_due_and_accounts_every_request() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let rec = |due, sent, refused, replies, done, prediction| Record {
            due: ms(due),
            sent: ms(sent),
            refused,
            replies,
            done,
            prediction,
            label: 1.0,
        };
        let records = [
            rec(0, 1, false, 1, Some(ms(4)), 0.5),
            rec(1, 3, false, 1, Some(ms(9)), 0.7),
            rec(2, 3, true, 0, None, f64::NAN),
            rec(3, 3, false, 0, None, f64::NAN),
            rec(4, 4, false, 1, Some(ms(5)), 2.0),
        ];
        let phase = Phase::new(&records, &samples(t0, &[0.0]));
        assert_eq!(
            phase.latency_ms,
            vec![4.0, 8.0],
            "timed from the due instant"
        );
        assert_eq!(phase.late_ms, vec![1.0, 2.0, 1.0, 0.0, 0.0]);
        assert_eq!(phase.pairs, vec![(0.5, 1.0), (0.7, 1.0)]);
        assert_eq!(phase.outcomes.ok, 2);
        assert_eq!(phase.outcomes.failed(), 3);
        assert!(phase.predictions[2].is_nan() && phase.predictions[3].is_nan());
        let quiet = phase.quiet_latency();
        assert_eq!(quiet.share.used, 0, "all of it is warm-up");
        assert!(quiet.p50.is_nan());
    }

    #[test]
    fn busy_windows_are_set_aside() {
        // 8 timed windows, 3 of which shared the machine.
        let p = phase(&[0.0, 1.0, 0.0, 0.0, 1.5, 0.0, 1.0, 0.0]);
        let q = p.quiet_latency();
        assert_eq!((q.share.used, q.share.windows), (5, WARM + 9));
        assert_eq!((q.p50, q.p90, q.p99), (1.0, 2.0, 2.0));
        assert_eq!(q.n, 5 * WINDOW.as_millis() as usize);
        assert_eq!(
            p.latency().p99,
            9.0,
            "the busy windows own the phase-wide P99"
        );
    }

    #[test]
    fn at_least_a_third_of_the_windows_count() {
        // Every timed window shared the machine: the least busy third counts.
        let q = phase(&[0.6, 0.3, 0.6, 0.2, 0.7, 0.4]).quiet_latency();
        assert_eq!(q.share.used, 2);
        assert!((q.share.threshold - 0.3).abs() < 1e-9, "{q:?}");
        assert_eq!((q.p50, q.p99), (1.0, 2.0));
        // A quiet machine: every timed window counts.
        let q = phase(&[0.0; 3]).quiet_latency();
        assert_eq!((q.share.used, q.share.windows), (3, WARM + 4));
    }

    #[test]
    fn a_failed_request_misses_its_window() {
        let t0 = Instant::now();
        let per_window = WINDOW.as_millis() as usize;
        let timed = WARM * per_window;
        let mut records: Vec<Record> = (0..timed + per_window)
            .map(|i| record(t0 + Duration::from_millis(i as u64), 1))
            .collect();
        records[timed + 10].refused = true;
        records[timed + 20].replies = 0;
        records[timed + 20].done = None;
        let p = Phase::new(&records, &samples(t0, &framed(&[0.0])));
        assert_eq!(p.outcomes.failed(), 2);
        let q = p.quiet_latency();
        assert_eq!(q.n, per_window, "failed requests count in their window");
        assert_eq!((q.p50, q.p99), (1.0, 1.0));
        assert_eq!(p.latency().n, records.len() - 2);
    }

    #[test]
    fn saturation_throughput_is_the_median_quiet_window() {
        let t0 = Instant::now();
        // Warm-up windows, windows answering 1200 (busy), 1100, 900 and 1000, and the
        // last.
        let mut counts = vec![800u32; WARM];
        counts.extend([1200, 1100, 900, 1000, 700]);
        let external = framed(&[1.0, 0.0, 0.0, 0.0]);
        let mut records = Vec::new();
        for (w, &count) in counts.iter().enumerate() {
            let from = t0 + WINDOW * w as u32;
            for k in 0..count {
                records.push(record(from + WINDOW * k / 2000, 0));
            }
        }
        let s = Saturation::new(64, &records, &samples(t0, &external), 2.0);
        let (rps, share) = s.capacity();
        assert_eq!((share.used, share.windows), (3, counts.len()));
        let window = WINDOW.as_secs_f64();
        assert!(
            (rps - 1000.0 / window).abs() < 1e-6,
            "median of 1100, 900, 1000"
        );
        let answered: u32 = counts.iter().sum();
        assert_eq!(s.outcomes.ok, u64::from(answered));
        let span = counts.len() as f64 * window;
        assert!((s.overall_rps - f64::from(answered) / span).abs() < 1e-6);
    }

    #[test]
    fn digest_sees_every_bit_and_position() {
        let a = digest(&[0.25, 0.5]);
        assert_eq!(a, digest(&[0.25, 0.5]));
        assert_ne!(a, digest(&[0.5, 0.25]));
        assert_ne!(a, digest(&[0.25, f64::from_bits(0.5f64.to_bits() + 1)]));
    }
}
