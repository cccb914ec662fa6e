//! The benchmark's inputs: the Day-1 model and stream of each workload, and open-loop
//! arrival schedules drawn from the diurnal `ArrivalModel` at its evening peak.

use liveupdate::config::LiveUpdateConfig;
use liveupdate::experiment::{warmed_up_model, ExperimentConfig};
use liveupdate_dlrm::embedding::StorageKind;
use liveupdate_dlrm::model::{DlrmConfig, DlrmModel};
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use liveupdate_workload::arrival::{ArrivalModel, RealTimePacer};
use liveupdate_workload::datasets::DatasetPreset;
use liveupdate_workload::synthetic::SyntheticWorkload;
use std::time::Duration;

/// The simulated minute at which every schedule starts: the diurnal peak (20:00).
const PEAK_MINUTES: f64 = 20.0 * 60.0;

/// Which of the two model geometries a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// `DatasetPreset::Prod1M`: 2 tables of 10⁶ rows, d = 16, int8 serving rows, the
    /// top 1% of rows in the hot-row cache, up to 32 ids per table per request.
    Prod1M,
    /// 2 tables of 500 rows, d = 8, f64 rows, no hot-row cache.
    Loopback,
}

/// Initialisation seed of the Day-1 model. The model is part of the system under test
/// and stays the same across runs; the workload seed draws the stream (its drifting
/// ground truth and its requests) and the arrivals. With a per-seed initialisation the
/// barely trained Prod-1M model's AUC swings by ±0.04 with the seed alone.
const MODEL_SEED: u64 = 7;

impl Geometry {
    fn experiment(self, seed: u64) -> ExperimentConfig {
        let mut cfg = match self {
            Geometry::Prod1M => {
                let mut cfg = ExperimentConfig::from_dataset(DatasetPreset::Prod1M, seed);
                cfg.workload.max_multi_hot = 32;
                cfg.liveupdate = LiveUpdateConfig {
                    serving_storage: StorageKind::I8,
                    hot_cache_fraction: 0.01,
                    ..LiveUpdateConfig::default()
                };
                cfg
            }
            Geometry::Loopback => {
                let mut cfg = ExperimentConfig::small();
                cfg.workload.seed = seed;
                cfg.workload.table_size = 500;
                cfg.dlrm = DlrmConfig::tiny(2, 500, 8);
                cfg
            }
        };
        cfg.seed = MODEL_SEED;
        cfg
    }
}

/// The labelled request stream a workload draws from, positioned after the Day-1
/// warm-up. `clock` is the stream time of the next request, in simulated minutes.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: SyntheticWorkload,
    clock: f64,
}

/// Build the Day-1 model and its stream (`warmed_up_model`), and the node
/// configuration the geometry serves with.
#[must_use]
pub fn day_one(geometry: Geometry, seed: u64) -> (DlrmModel, Stream, LiveUpdateConfig) {
    let cfg = geometry.experiment(seed);
    let (model, workload) = warmed_up_model(&cfg);
    let stream = Stream {
        workload,
        clock: cfg.warmup_minutes,
    };
    (model, stream, cfg.liveupdate)
}

impl Stream {
    /// `count` requests at the current stream time (for priming and probes).
    pub fn batch(&mut self, count: usize) -> MiniBatch {
        self.workload.batch_at(self.clock, count)
    }

    /// The stream time of the next request.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// An open-loop schedule offering `rate` requests per second at the diurnal peak
    /// for `seconds`, with its requests drawn from the stream. The stream clock then
    /// moves past the schedule, so consecutive phases see a continuing, drifting stream.
    pub fn schedule(&mut self, rate: f64, seconds: f64, seed: u64) -> Schedule {
        let arrivals = ArrivalModel::default();
        // `for_target_qps` sets the rate at the base of the diurnal curve; the schedule
        // starts at the peak, so scale the target down by the peak's factor.
        let peak_factor = arrivals.rate_at(PEAK_MINUTES) / arrivals.base_rate_per_minute;
        let mut pacer =
            RealTimePacer::for_target_qps(arrivals, rate / peak_factor, PEAK_MINUTES, seed);
        let horizon = Duration::from_secs_f64(seconds);
        let mut schedule = Schedule::default();
        loop {
            let (offset, sim_minutes) = pacer.next_arrival();
            if offset >= horizon {
                break;
            }
            let minutes = self.clock + (sim_minutes - PEAK_MINUTES);
            schedule.offsets.push(offset);
            schedule.minutes.push(minutes);
            schedule.samples.push(self.workload.sample_at(minutes));
        }
        self.clock += seconds * pacer.sim_minutes_per_wall_second();
        schedule
    }
}

/// Requests of one open-loop phase, index-aligned.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// When each request is due, from the start of the phase.
    pub offsets: Vec<Duration>,
    /// Stream time of each request, simulated minutes.
    pub minutes: Vec<f64>,
    /// The requests; labels stay with the benchmark for the AUC.
    pub samples: Vec<Sample>,
}

impl Schedule {
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    #[must_use]
    pub fn labels(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed_and_offer_the_asked_rate() {
        let (_, mut a, _) = day_one(Geometry::Loopback, 5);
        let mut b = a.clone();
        let sa = a.schedule(2_000.0, 2.0, 9);
        let sb = b.schedule(2_000.0, 2.0, 9);
        assert_eq!(sa.offsets, sb.offsets);
        assert_eq!(sa.samples, sb.samples);
        let offered = sa.len() as f64 / 2.0;
        assert!((offered - 2_000.0).abs() < 150.0, "offered {offered} req/s");
        assert!(sa.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.clock() > 20.0, "the stream moved past the schedule");
    }
}
