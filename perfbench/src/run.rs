//! What every workload shares: the run plan, the measured outcome, and how it becomes
//! the report's named metrics and correctness checks.

use crate::layers::{EngineCosts, Freshness, ServeCosts};
use crate::phase::{Phase, Saturation};
use crate::report::Report;
use crate::stats::{self, Percentiles};
use crate::trace::Recorder;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_runtime::UpdaterReport;
use std::time::Duration;

/// The end-to-end metrics of an untraced run that carry a regression bound, in the
/// order they are reported. The run also reports `p99_ms`, `capacity_rps` and
/// `update_busy_frac`, which vary too much between runs on a shared host to carry one
/// (see `README.md`).
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "p50_ms",
    "p90_ms",
    "staleness_p50_ms",
    "staleness_p99_ms",
    "auc",
    "peak_rss_mb",
    "answered_frac",
];

/// The per-layer metrics of a traced run. A layer a workload does not pass through
/// (the network on the in-process workloads, the runtime's submit call on the
/// loopback one) reads 0.
pub const PER_LAYER: [&str; 33] = [
    "workload.gen_late_p99_ms",
    "workload.offered",
    "dlrm.predict_us",
    "snapshot.serve_us_epoch0",
    "snapshot.serve_us_last",
    "snapshot.hot_hit_ratio",
    "engine.snapshot_ms",
    "engine.snapshot_bytes",
    "engine.update_round_ms",
    "engine.rows_touched",
    "engine.lora_bytes",
    "engine.ingest_us",
    "epoch.publish_us",
    "epoch.interval_ms",
    "runtime.submit_us",
    "runtime.batch_mean",
    "runtime.queue_wait_us_p50",
    "runtime.queue_wait_us_p99",
    "runtime.batch_wait_us_p50",
    "runtime.batch_wait_us_p99",
    "runtime.serve_us_p50",
    "runtime.serve_us_p99",
    "runtime.reply_flush_us_p50",
    "runtime.reply_flush_us_p99",
    "runtime.stage_sum_over_e2e",
    "net.send_us",
    "net.poll_us",
    "net.bytes_per_req",
    "net.ready_events_per_wake",
    "net.wakeups_per_req",
    "trace.p50_ms",
    "trace.p90_ms",
    "trace.p99_ms",
];

/// The runtime's stage histograms, in request order, with the per-layer names they
/// are reported under.
const STAGES: [(&str, &str); 4] = [
    ("stage_queue_wait_us", "runtime.queue_wait_us"),
    ("stage_batch_wait_us", "runtime.batch_wait_us"),
    ("stage_serve_us", "runtime.serve_us"),
    ("stage_reply_flush_us", "runtime.reply_flush_us"),
];

/// How long a phase waits for its last replies before counting them unanswered.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Delay from building a phase's schedule to its first due instant.
pub const LEAD: Duration = Duration::from_millis(2);
/// Share of the measured seconds given to the nominal phase; the closed-loop
/// saturation phase gets the rest.
const NOMINAL_SHARE: f64 = 0.8;
/// Requests the saturation phase keeps in flight: two of the runtime's full batches,
/// so one can queue while the other is served.
pub const IN_FLIGHT: usize = 256;
/// Generator CPU share (of one core) above which the saturation phase measured the
/// generator rather than the system.
const GENERATOR_BOUND: f64 = 0.9;

/// CPU seconds of the runtime's updater thread (`lu-updater`) so far.
#[must_use]
pub fn updater_cpu_seconds() -> f64 {
    crate::sys::threads_cpu_seconds(|name| name == "lu-updater")
}

/// CPU seconds of the serving threads so far: the runtime's workers and, over
/// loopback, the replica server's event loop.
#[must_use]
pub fn serving_cpu_seconds() -> f64 {
    crate::sys::threads_cpu_seconds(|name| {
        name.starts_with("lu-worker") || name.starts_with("lu-net-")
    })
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prod1mLive,
    Prod1mFrozen,
    LoopbackLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Prod1mLive,
        Workload::Prod1mFrozen,
        Workload::LoopbackLive,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prod1mLive => "prod1m-live",
            Workload::Prod1mFrozen => "prod1m-frozen",
            Workload::LoopbackLive => "loopback-live",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Plan {
    #[must_use]
    pub fn nominal_seconds(&self) -> f64 {
        self.seconds * NOMINAL_SHARE
    }

    #[must_use]
    pub fn saturation_seconds(&self) -> f64 {
        self.seconds * (1.0 - NOMINAL_SHARE)
    }

    /// Set-ups per run; `setup_s` is their median. The traced run sets up once; the
    /// loopback set-up takes milliseconds, mostly the Day-1 pretrain, and its speed
    /// follows the shared host's from one stretch of tens of milliseconds to the next,
    /// so it repeats more.
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        match (self.traced, self.workload) {
            (true, _) => 1,
            (false, Workload::LoopbackLive) => 15,
            (false, _) => 5,
        }
    }

    /// The arrival and request seed of phase `index` (0 is the nominal phase, 1 the
    /// saturation phase's request pool).
    #[must_use]
    pub fn phase_seed(&self, index: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

/// The network layer's numbers on the loopback workload.
#[derive(Debug, Clone, Copy)]
pub struct NetCosts {
    pub send_us: f64,
    pub poll_us: f64,
    pub bytes_per_req: f64,
    pub ready_events_per_wake: f64,
    pub wakeups_per_req: f64,
}

/// Everything a traced run measures besides its phase.
#[derive(Debug)]
pub struct Layers {
    pub serve: ServeCosts,
    pub engine: EngineCosts,
    /// The runtime's telemetry rows, scraped after the nominal phase.
    pub stage_rows: Vec<(String, f64)>,
    pub batch_mean: f64,
    pub net: Option<NetCosts>,
}

/// What a workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub plan: Plan,
    pub setup_s: Vec<f64>,
    pub nominal: Phase,
    pub fresh: Freshness,
    /// The closed-loop phase, with the generator thread's CPU share during it.
    pub saturation: Option<(Saturation, f64)>,
    /// Updater CPU time over the nominal phase's wall time.
    pub busy_frac: f64,
    /// `VmHWM` when the nominal phase ended, MiB. The saturation phase's bookkeeping
    /// grows with the throughput it reaches, so it is left out.
    pub peak_rss_mb: f64,
    /// Update-block wall time over the runtime's wall time.
    pub round_frac: f64,
    pub checks: Vec<(String, bool)>,
    pub layers: Option<Layers>,
    pub recorder: Recorder,
}

impl Outcome {
    #[must_use]
    pub fn new(
        plan: &Plan,
        setup_s: Vec<f64>,
        nominal: Phase,
        fresh: Freshness,
        saturation: Option<(Saturation, f64)>,
        busy_frac: f64,
    ) -> Self {
        Self {
            plan: *plan,
            setup_s,
            nominal,
            fresh,
            saturation,
            busy_frac,
            peak_rss_mb: f64::NAN,
            round_frac: 0.0,
            checks: Vec::new(),
            layers: None,
            recorder: Recorder::new(std::time::Instant::now(), false),
        }
    }

    /// The publication checks: the last published snapshot is intact and is the one
    /// the updater recorded last, the final epoch counts the publications, and the
    /// epochs the benchmark sampled never went backwards nor past the final one.
    pub fn check_publications(
        &mut self,
        updater: &UpdaterReport,
        final_epoch: u64,
        last: &ServingSnapshot,
    ) {
        self.checks.push((
            "the last published snapshot passes verify_checksum()".into(),
            last.verify_checksum(),
        ));
        self.checks.push((
            format!(
                "the last published snapshot is the updater's last record (epoch {final_epoch})"
            ),
            updater.published.last() == Some(&(final_epoch, last.checksum())),
        ));
        self.checks.push((
            format!(
                "the final epoch {final_epoch} equals the updater's {} publications",
                updater.publications
            ),
            final_epoch == updater.publications,
        ));
        self.checks.push((
            format!(
                "sampled epochs are monotone and at most the final epoch (max {})",
                self.fresh.max_epoch
            ),
            self.fresh.monotone && self.fresh.max_epoch <= final_epoch,
        ));
    }

    /// Turn the measurements into the report's metrics and checks; the recorded spans
    /// come back beside it.
    #[must_use]
    pub fn into_report(self) -> (Report, Recorder) {
        let mut r = Report {
            attempted: self.nominal.outcomes.offered,
            failed: self.nominal.outcomes.failed(),
            ..Report::default()
        };
        let plan = self.plan;
        r.line(format!(
            "workload {} seed {} seconds {} trace {}",
            plan.workload.name(),
            plan.seed,
            plan.seconds,
            u8::from(plan.traced)
        ));
        let all = std::iter::once(&self.nominal.outcomes)
            .chain(self.saturation.as_ref().map(|(s, _)| &s.outcomes));
        let (unanswered, duplicate, bad) = all.fold((0, 0, 0), |(u, d, b), o| {
            (u + o.unanswered, d + o.duplicate, b + o.bad_prediction)
        });
        r.check(
            format!(
                "every accepted request answered exactly once ({unanswered} unanswered, \
                 {duplicate} answered twice)"
            ),
            unanswered == 0 && duplicate == 0,
        );
        r.check(
            format!("every prediction is finite and in [0, 1] ({bad} not)"),
            bad == 0,
        );
        for (description, passed) in self.checks {
            r.check(description, passed);
        }

        let late = self.nominal.lateness();
        let offered = self.nominal.outcomes.offered;
        if plan.traced {
            per_layer(
                &mut r,
                &self.nominal,
                &self.fresh,
                self.layers.as_ref(),
                &self.recorder,
            );
        } else {
            let setup = Percentiles::of(&self.setup_s);
            r.metric(
                "setup_s",
                setup.p50,
                "s",
                format!(
                    "median of {} set-ups: {:?}",
                    setup.n,
                    rounded(&self.setup_s)
                ),
            );
            phase_latency(&mut r, "", &self.nominal);
            let (saturation, generator_busy) = self
                .saturation
                .as_ref()
                .expect("untraced runs saturate the system");
            let (capacity, share) = saturation.capacity();
            let sat = saturation.latency();
            r.line(format!(
                "saturation: {} in flight, {:.0} req/s over the whole phase, latency p50 \
                 {:.3} ms p99 {:.3} ms (n={}), serving threads {:.2} us CPU per request, \
                 generator thread {:.2} core",
                saturation.in_flight,
                saturation.overall_rps,
                sat.p50,
                sat.p99,
                sat.n,
                saturation.serving_cpu_seconds * 1e6 / saturation.outcomes.ok.max(1) as f64,
                generator_busy
            ));
            let bound = if *generator_busy >= GENERATOR_BOUND {
                "; the generator thread was saturated, so this is a lower bound"
            } else {
                ""
            };
            r.metric(
                "capacity_rps",
                capacity,
                "1/s",
                format!(
                    "closed loop, {} in flight: median answered/s over {share}{bound}",
                    saturation.in_flight
                ),
            );
            let staleness = Percentiles::of(&self.fresh.staleness_ms);
            percentile_metrics(&mut r, "staleness_p50_ms", "staleness_p99_ms", &staleness);
            let auc = stats::auc(self.nominal.pairs.iter().copied()).unwrap_or(f64::NAN);
            r.metric(
                "auc",
                auc,
                "auc",
                format!("prequential, n={}", self.nominal.pairs.len()),
            );
            r.metric(
                "update_busy_frac",
                self.busy_frac,
                "core",
                "updater thread CPU over the nominal phase's wall time",
            );
            r.metric(
                "update_round_frac",
                self.round_frac,
                "core",
                "update-block wall time over runtime wall time",
            );
            r.metric(
                "peak_rss_mb",
                self.peak_rss_mb,
                "MiB",
                "VmHWM at the end of the nominal phase",
            );
            let o = &self.nominal.outcomes;
            r.metric(
                "answered_frac",
                o.ok as f64 / offered.max(1) as f64,
                "ratio",
                format!("{} of {offered} offered", o.ok),
            );
            r.metric(
                "failed_frac",
                o.failed_frac(),
                "ratio",
                format!(
                    "{} refused, {} unanswered, {} bad, {} twice",
                    o.refused, o.unanswered, o.bad_prediction, o.duplicate
                ),
            );
            r.metric(
                "workload.gen_late_p99_ms",
                late.p99,
                "ms",
                format!("n={}", late.n),
            );
            r.metric("workload.offered", offered as f64, "count", "nominal phase");
        }
        (r, self.recorder)
    }
}

fn rounded(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 1e3).round() / 1e3).collect()
}

/// The nominal phase's latency over its quiet windows (see `phase`), with the
/// phase-wide percentiles beside it.
fn phase_latency(r: &mut Report, prefix: &str, phase: &Phase) {
    let all = phase.latency();
    let quiet = phase.quiet_latency();
    let name = |n: &str| format!("{prefix}{n}");
    r.metric(
        &name("p50_ms"),
        quiet.p50,
        "ms",
        format!(
            "n={} in {}; phase-wide p50 {:.3} ms (n={})",
            quiet.n, quiet.share, all.p50, all.n
        ),
    );
    r.metric(
        &name("p90_ms"),
        quiet.p90,
        "ms",
        format!("n={}, {} beyond", quiet.n, quiet.n / 10),
    );
    r.metric(
        &name("p99_ms"),
        quiet.p99,
        "ms",
        format!(
            "median of {} windows' P99; phase-wide P99 {:.3} ms (n={}, {} beyond)",
            quiet.share.used,
            all.p99,
            all.n,
            all.beyond_p99()
        ),
    );
}

fn percentile_metrics(r: &mut Report, p50: &str, p99: &str, p: &Percentiles) {
    r.metric(p50, p.p50, "ms", format!("n={}", p.n));
    r.metric(
        p99,
        p.p99,
        "ms",
        format!("n={}, {} beyond", p.n, p.beyond_p99()),
    );
}

fn per_layer(
    r: &mut Report,
    nominal: &Phase,
    fresh: &Freshness,
    layers: Option<&Layers>,
    rec: &Recorder,
) {
    let layers = layers.expect("traced runs measure the layers");
    let late = nominal.lateness();
    r.metric(
        "workload.gen_late_p99_ms",
        late.p99,
        "ms",
        format!("n={}", late.n),
    );
    r.metric(
        "workload.offered",
        nominal.outcomes.offered as f64,
        "count",
        "",
    );
    let s = &layers.serve;
    r.metric("dlrm.predict_us", s.predict_us, "us", "per request");
    r.metric(
        "snapshot.serve_us_epoch0",
        s.serve_us_epoch0,
        "us",
        "per request",
    );
    r.metric(
        "snapshot.serve_us_last",
        s.serve_us_last,
        "us",
        "per request",
    );
    r.metric("snapshot.hot_hit_ratio", s.hot_hit_ratio, "ratio", "");
    let e = &layers.engine;
    r.metric("engine.snapshot_ms", e.snapshot_ms, "ms", "replay median");
    r.metric("engine.snapshot_bytes", e.snapshot_bytes, "bytes", "");
    r.metric(
        "engine.update_round_ms",
        e.update_round_ms,
        "ms",
        "replay median",
    );
    r.metric("engine.rows_touched", e.rows_touched, "count", "per round");
    r.metric("engine.lora_bytes", e.lora_bytes, "bytes", "");
    r.metric("engine.ingest_us", e.ingest_us, "us", "per request");
    r.metric("epoch.publish_us", e.publish_us, "us", "replay median");
    let (interval, gaps) = fresh.interval_ms();
    let note = if gaps == 0 {
        "no two epoch bumps seen: the observed span".to_string()
    } else {
        format!("n={gaps}")
    };
    r.metric("epoch.interval_ms", interval, "ms", note);

    let submit = Percentiles::of(&rec.durations_us("runtime.submit"));
    r.metric(
        "runtime.submit_us",
        if submit.n == 0 { 0.0 } else { submit.p50 },
        "us",
        format!("n={}", submit.n),
    );
    r.metric("runtime.batch_mean", layers.batch_mean, "count", "");
    let row = |name: String| {
        layers
            .stage_rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let mut stage_sum = 0.0;
    for (hist, name) in STAGES {
        let count = row(format!("{hist}_count"));
        let p50 = row(format!("{hist}_p50"));
        stage_sum += p50;
        r.metric(&format!("{name}_p50"), p50, "us", format!("n={count}"));
        r.metric(
            &format!("{name}_p99"),
            row(format!("{hist}_p99")),
            "us",
            format!("n={count}"),
        );
    }
    let latency = nominal.latency();
    r.metric(
        "runtime.stage_sum_over_e2e",
        stage_sum / (latency.p50 * 1e3),
        "ratio",
        "sum of stage medians over the end-to-end median",
    );
    let net = layers.net.unwrap_or(NetCosts {
        send_us: 0.0,
        poll_us: 0.0,
        bytes_per_req: 0.0,
        ready_events_per_wake: 0.0,
        wakeups_per_req: 0.0,
    });
    r.metric("net.send_us", net.send_us, "us", "median send call");
    r.metric(
        "net.poll_us",
        net.poll_us,
        "us",
        "median poll call that delivered",
    );
    r.metric(
        "net.bytes_per_req",
        net.bytes_per_req,
        "bytes",
        "socket-accounted",
    );
    r.metric(
        "net.ready_events_per_wake",
        net.ready_events_per_wake,
        "count",
        "p50",
    );
    r.metric("net.wakeups_per_req", net.wakeups_per_req, "count", "");
    phase_latency(r, "trace.", nominal);
}
