//! Per-layer timings taken outside the serving run: the kernel and serve-path cost of
//! a run's first and last snapshot, and a single-threaded replay of the updater's work
//! (ingest, update round, snapshot capture, epoch publication) on the run's own node.

use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::Stream;
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_dlrm::sample::MiniBatch;
use liveupdate_runtime::EpochPublisher;
use std::hint::black_box;
use std::time::Instant;

/// Requests per probe of the serve path.
const PROBE_REQUESTS: usize = 2_048;
/// Requests ingested before each replayed update round.
const INGEST_REQUESTS: usize = 512;
/// Mini-batch of each replayed round, as the runtime's updater runs it.
const ROUND_BATCH: usize = 64;

/// Serve-path costs of a run, per request.
#[derive(Debug, Clone, Copy)]
pub struct ServeCosts {
    pub predict_us: f64,
    pub serve_us_epoch0: f64,
    pub serve_us_last: f64,
    /// Hot-row-cache hits over lookups during the run (0 without a cache).
    pub hot_hit_ratio: f64,
}

/// Cumulative hit ratio of a snapshot's hot-row cache (the tallies carry across
/// publications).
fn hot_hit_ratio(snapshot: &ServingSnapshot) -> f64 {
    let hot = snapshot.hot_rows();
    let (hits, misses) = (0..hot.stats_tables())
        .filter_map(|t| hot.table_stats(t).map(|s| s.get()))
        .fold((0u64, 0u64), |(h, m), (dh, dm)| (h + dh, m + dm));
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Time `DlrmModel::predict` and `ServingSnapshot::serve_batch` per request on one
/// probe batch, for the run's epoch-0 and last snapshots. Read the cache ratio first,
/// so the probe does not count in it.
pub fn serve_costs(
    epoch0: &ServingSnapshot,
    last: &ServingSnapshot,
    stream: &mut Stream,
    rec: &mut Recorder,
) -> ServeCosts {
    let hot_hit_ratio = hot_hit_ratio(last);
    let probe = stream.batch(PROBE_REQUESTS);
    let per_request = |us: f64| us / probe.len() as f64;
    let (_, predict) = rec.time("dlrm.predict", "replay", 0, || {
        for sample in probe.iter() {
            black_box(last.serving_model().predict(black_box(sample)));
        }
    });
    let (_, serve0) = rec.time("snapshot.serve_batch.epoch0", "replay", 0, || {
        black_box(epoch0.serve_batch(black_box(&probe)))
    });
    let (_, serve_last) = rec.time("snapshot.serve_batch.last", "replay", 0, || {
        black_box(last.serve_batch(black_box(&probe)))
    });
    ServeCosts {
        predict_us: per_request(predict),
        serve_us_epoch0: per_request(serve0),
        serve_us_last: per_request(serve_last),
        hot_hit_ratio,
    }
}

/// Medians of the replayed updater work.
#[derive(Debug, Clone, Copy)]
pub struct EngineCosts {
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    pub update_round_ms: f64,
    pub rows_touched: f64,
    pub lora_bytes: f64,
    pub ingest_us: f64,
    pub publish_us: f64,
}

/// Replay `rounds` update blocks on `node`, one thread, timing each public call:
/// `ingest_batch` (per request), `online_update_round`, `snapshot` and
/// `EpochPublisher::publish` (which frees the snapshot it replaces).
pub fn replay(
    mut node: ServingNode,
    stream: &mut Stream,
    rounds: usize,
    rec: &mut Recorder,
) -> EngineCosts {
    let (initial, first_ms) = rec.time("engine.snapshot", "replay", 0, || node.snapshot());
    let publisher = EpochPublisher::new(initial);
    let mut snapshot_ms = vec![first_ms / 1e3];
    let mut snapshot_bytes = Vec::new();
    let (mut round_ms, mut rows, mut lora, mut ingest, mut publish) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let id = round as u64 + 1;
        let batch: MiniBatch = stream.batch(INGEST_REQUESTS);
        let now = stream.clock();
        let (_, us) = rec.time("engine.ingest_batch", "replay", id, || {
            node.ingest_batch(now, &batch);
        });
        ingest.push(us / batch.len() as f64);
        let (report, us) = rec.time("engine.online_update_round", "replay", id, || {
            node.online_update_round(now, ROUND_BATCH)
        });
        round_ms.push(us / 1e3);
        rows.push(report.touched_rows.len() as f64);
        lora.push(report.lora_memory_bytes as f64);
        let (snapshot, us) = rec.time("engine.snapshot", "replay", id, || node.snapshot());
        snapshot_ms.push(us / 1e3);
        snapshot_bytes.push(
            (snapshot.serving_model().embedding_memory_bytes() + snapshot.hot_rows().memory_bytes())
                as f64,
        );
        let (_, us) = rec.time("epoch.publish", "replay", id, || {
            publisher.publish(snapshot)
        });
        publish.push(us);
    }
    EngineCosts {
        snapshot_ms: median(&snapshot_ms),
        snapshot_bytes: median(&snapshot_bytes),
        update_round_ms: median(&round_ms),
        rows_touched: median(&rows),
        lora_bytes: median(&lora),
        ingest_us: median(&ingest),
        publish_us: median(&publish),
    }
}

/// What the generator saw of the serving epoch: staleness at each sample, and when
/// the epoch moved.
#[derive(Debug, Clone)]
pub struct Freshness {
    /// Age of the serving epoch at each sample, ms.
    pub staleness_ms: Vec<f64>,
    /// Whether every sampled epoch was at least the one before it.
    pub monotone: bool,
    /// Highest epoch sampled.
    pub max_epoch: u64,
    last_epoch: Option<u64>,
    bumps: Vec<Instant>,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Default for Freshness {
    fn default() -> Self {
        Self {
            staleness_ms: Vec::new(),
            monotone: true,
            max_epoch: 0,
            last_epoch: None,
            bumps: Vec::new(),
            first: None,
            last: None,
        }
    }
}

impl Freshness {
    /// Record one sample taken at `at`.
    pub fn observe(&mut self, at: Instant, age_us: u64, epoch: u64) {
        self.staleness_ms.push(age_us as f64 / 1e3);
        if let Some(previous) = self.last_epoch {
            self.monotone &= epoch >= previous;
            if epoch > previous {
                self.bumps.push(at);
            }
        }
        self.last_epoch = Some(epoch);
        self.max_epoch = self.max_epoch.max(epoch);
        self.first.get_or_insert(at);
        self.last = Some(at);
    }

    /// Median gap between observed epoch bumps, ms, with the number of gaps. With no
    /// two bumps observed, the whole observed span (a lower bound on the interval) and
    /// a count of 0.
    #[must_use]
    pub fn interval_ms(&self) -> (f64, usize) {
        let gaps: Vec<f64> = self
            .bumps
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect();
        if gaps.is_empty() {
            let span = match (self.first, self.last) {
                (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1e3,
                _ => f64::NAN,
            };
            (span, 0)
        } else {
            (median(&gaps), gaps.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn freshness_tracks_bumps_and_monotonicity() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut f = Freshness::default();
        f.observe(at(0), 5_000, 0);
        f.observe(at(100), 1_000, 1);
        f.observe(at(350), 2_000, 2);
        f.observe(at(600), 500, 3);
        assert_eq!(f.interval_ms(), (250.0, 2));
        assert_eq!(f.staleness_ms, vec![5.0, 1.0, 2.0, 0.5]);
        assert!(f.monotone);
        f.observe(at(700), 100, 2);
        assert!(!f.monotone);
        assert_eq!(f.max_epoch, 3);

        let mut frozen = Freshness::default();
        frozen.observe(at(0), 1, 0);
        frozen.observe(at(900), 2, 0);
        assert_eq!(
            frozen.interval_ms(),
            (900.0, 0),
            "censored at the observed span"
        );
    }
}
