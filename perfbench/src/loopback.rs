//! `loopback-live`: one `ReplicaServer` (epoll event loop, one worker, the LiveUpdate
//! policy every 250 ms) on a 2 × 500-row model, driven by a `MultiConnClient` over two
//! loopback connections from this thread. The gather is tiny and publication cheap,
//! so the wire codec, the event loop and the runtime's queue and batcher dominate.

use crate::layers::{self, Freshness};
use crate::phase::{Phase, Record, Sampler, Saturation};
use crate::run::{self, updater_cpu_seconds, NetCosts, Plan};
use crate::stats::Percentiles;
use crate::sys::current_thread_cpu_seconds;
use crate::trace::Recorder;
use crate::workload::{day_one, Geometry, Schedule, Stream};
use liveupdate::engine::ServingNode;
use liveupdate::snapshot::ServingSnapshot;
use liveupdate_dlrm::sample::Sample;
use liveupdate_net::wire::Frame;
use liveupdate_net::{scrape_replica, MultiConnClient, ReplicaServer};
use liveupdate_runtime::{LiveUpdatePolicy, RuntimeConfig, RuntimeReport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered requests per second in the nominal phase.
pub const NOMINAL_RPS: f64 = 10_000.0;
const CONNECTIONS: usize = 2;
/// Distinct requests the saturation phase cycles through.
const POOL_REQUESTS: usize = 8_192;
/// The most requests per second the saturation phase has room to record; far above
/// what the client thread can send.
const SATURATION_MAX_RPS: f64 = 200_000.0;
/// How often a generator that is behind schedule stops sending to take replies.
const POLL_EVERY: Duration = Duration::from_micros(100);
/// Period of the staleness scrape.
const SCRAPE_PERIOD: Duration = Duration::from_millis(20);
/// Pause between two of the run's set-ups.
const SETUP_SPACING: Duration = Duration::from_millis(40);
/// Update blocks the traced run's replay times.
const REPLAY_ROUNDS: usize = 30;

/// A started replica with its connected client and stream.
struct Setup {
    server: ReplicaServer,
    client: MultiConnClient,
    stream: Stream,
    /// The epoch-0 snapshot, captured for the traced run's serve-cost probe.
    epoch0: Option<ServingSnapshot>,
}

/// Build the Day-1 model, the node, the replica and the client; returns them with the
/// seconds it took, up to the point where the first request can be sent.
fn set_up(traced: bool, seed: u64) -> (Setup, f64) {
    let start = Instant::now();
    let (model, stream, node_cfg) = day_one(Geometry::Loopback, seed);
    let node = ServingNode::new(model, node_cfg);
    let epoch0 = traced.then(|| node.snapshot());
    let cfg = RuntimeConfig {
        num_workers: 1,
        trace_sample_rate: if traced { 1.0 } else { 0.0 },
        ..RuntimeConfig::default()
    };
    let policy = LiveUpdatePolicy {
        rounds_per_update: 1,
        batch_size: 64,
    };
    let server = ReplicaServer::start(
        node,
        cfg,
        Duration::from_millis(250),
        Some(Box::new(policy)),
    )
    .expect("start the replica server");
    let client = MultiConnClient::connect(server.addr(), CONNECTIONS).expect("connect the client");
    let setup = Setup {
        server,
        client,
        stream,
        epoch0,
    };
    (setup, start.elapsed().as_secs_f64())
}

fn close(server: ReplicaServer, mut client: MultiConnClient) -> (RuntimeReport, ServingNode) {
    for conn in 0..client.len() {
        let _ = client.send(conn, &Frame::Bye);
        client.finish_sending(conn);
    }
    drop(client);
    server.shutdown()
}

/// Per-request state of one phase, filled as replies arrive.
struct Pending {
    first_id: u64,
    replies: Vec<u32>,
    shed: Vec<bool>,
    done: Vec<Option<Instant>>,
    predictions: Vec<f64>,
    answered: u64,
    strays: u64,
}

impl Pending {
    fn new(first_id: u64, n: usize) -> Self {
        Self {
            first_id,
            replies: vec![0; n],
            shed: vec![false; n],
            done: vec![None; n],
            predictions: vec![f64::NAN; n],
            answered: 0,
            strays: 0,
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        (i < self.replies.len()).then_some(i)
    }

    fn on_frame(&mut self, frame: Frame) {
        let at = Instant::now();
        match frame {
            Frame::InferReply { id, prediction, .. } => match self.index(id) {
                Some(i) => {
                    self.replies[i] += 1;
                    self.done[i] = Some(at);
                    self.predictions[i] = prediction;
                    self.answered += 1;
                }
                None => self.strays += 1,
            },
            Frame::InferShed { id } => match self.index(id) {
                Some(i) => {
                    self.shed[i] = true;
                    self.answered += 1;
                }
                None => self.strays += 1,
            },
            _ => self.strays += 1,
        }
    }
}

/// Deliver whatever replies are ready, waiting up to `ms`; a nonblocking poll that
/// delivered is recorded as a `net.poll` span.
fn poll(client: &mut MultiConnClient, pending: &mut Pending, rec: &mut Recorder, ms: i32) {
    let start = Instant::now();
    let got = client
        .poll(ms, |_, frame| pending.on_frame(frame))
        .unwrap_or(0);
    if got > 0 && ms == 0 {
        rec.record("net.poll", "request", 0, start, Instant::now());
    }
}

/// Run one open-loop phase over the client: send each request at its due instant,
/// polling for replies in between, then drain.
fn run_phase(
    client: &mut MultiConnClient,
    schedule: Schedule,
    first_id: u64,
    traced: bool,
    rec: &mut Recorder,
) -> (Phase, u64) {
    let n = schedule.len();
    let labels = schedule.labels();
    let mut pending = Pending::new(first_id, n);
    let (mut dues, mut sent, mut refused) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut sampler = Sampler::start();
    let start = Instant::now() + run::LEAD;
    let mut last_poll = Instant::now();
    let Schedule {
        offsets,
        minutes,
        samples,
    } = schedule;
    for (i, ((offset, minutes), sample)) in
        offsets.into_iter().zip(minutes).zip(samples).enumerate()
    {
        let due = start + offset;
        // Take replies while waiting for the due instant; when behind schedule, send
        // back to back and take replies only every `POLL_EVERY`, so the generator's
        // own syscalls do not set the highest rate it can offer.
        let mut waited = false;
        sampler.poll();
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            waited = true;
            if due - now > Duration::from_millis(2) {
                poll(client, &mut pending, rec, 1);
            } else {
                poll(client, &mut pending, rec, 0);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            last_poll = Instant::now();
        }
        if !waited && last_poll.elapsed() >= POLL_EVERY {
            poll(client, &mut pending, rec, 0);
            last_poll = Instant::now();
        }
        let id = first_id + i as u64;
        let frame = Frame::InferRequest {
            id,
            time_minutes: minutes,
            trace_id: if traced { id } else { 0 },
            parent_span_id: 0,
            sample,
        };
        let at = Instant::now();
        let wrote = client.send(i % CONNECTIONS, &frame);
        rec.record("net.send", "request", id, at, Instant::now());
        dues.push(due);
        sent.push(at);
        refused.push(!matches!(wrote, Ok(bytes) if bytes > 0));
    }
    let samples = sampler.finish();
    let accepted = refused.iter().filter(|r| !**r).count() as u64;
    let deadline = Instant::now() + run::DRAIN_LIMIT;
    while pending.answered < accepted && Instant::now() < deadline && client.open_count() > 0 {
        poll(client, &mut pending, rec, 1);
    }
    let records: Vec<Record> = (0..n)
        .map(|i| Record {
            due: dues[i],
            sent: sent[i],
            refused: refused[i] || pending.shed[i],
            replies: pending.replies[i],
            done: pending.done[i],
            prediction: pending.predictions[i],
            label: labels[i],
        })
        .collect();
    for (i, r) in records.iter().enumerate() {
        if let Some(done) = r.done {
            rec.record("request", "", first_id + i as u64, r.due, done);
        }
    }
    (Phase::new(&records, &samples), pending.strays)
}

/// Run the closed-loop saturation phase for `seconds`: keep `run::IN_FLIGHT` requests
/// in flight over the connections, cycling through `pool`. Returns the phase, the
/// replies for unknown ids, and the generator thread's CPU share during it.
fn run_saturation(
    client: &mut MultiConnClient,
    pool: &[Sample],
    minutes: f64,
    seconds: f64,
    first_id: u64,
    rec: &mut Recorder,
) -> (Saturation, u64, f64) {
    let max = (SATURATION_MAX_RPS * seconds) as usize;
    let mut pending = Pending::new(first_id, max);
    let mut sent = Vec::with_capacity(max);
    let mut refused = Vec::with_capacity(max);
    let mut not_sent = 0u64;
    let cpu_before = current_thread_cpu_seconds();
    let serving_before = run::serving_cpu_seconds();
    let mut sampler = Sampler::start();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while sent.len() < max && Instant::now() < end {
        while (sent.len() as u64) < pending.answered + not_sent + run::IN_FLIGHT as u64
            && sent.len() < max
        {
            let i = sent.len();
            let frame = Frame::InferRequest {
                id: first_id + i as u64,
                time_minutes: minutes,
                trace_id: 0,
                parent_span_id: 0,
                sample: pool[i % pool.len()].clone(),
            };
            let at = Instant::now();
            let wrote = client.send(i % CONNECTIONS, &frame);
            let failed = !matches!(wrote, Ok(bytes) if bytes > 0);
            not_sent += u64::from(failed);
            sent.push(at);
            refused.push(failed);
        }
        sampler.poll();
        poll(client, &mut pending, rec, 1);
    }
    let samples = sampler.finish();
    let serving_cpu_seconds = run::serving_cpu_seconds() - serving_before;
    let generator_busy = (current_thread_cpu_seconds() - cpu_before)
        / samples[samples.len() - 1]
            .at
            .saturating_duration_since(samples[0].at)
            .as_secs_f64();
    let accepted = sent.len() as u64 - not_sent;
    let deadline = Instant::now() + run::DRAIN_LIMIT;
    while pending.answered < accepted && Instant::now() < deadline && client.open_count() > 0 {
        poll(client, &mut pending, rec, 1);
    }
    let records: Vec<Record> = sent
        .iter()
        .zip(&refused)
        .enumerate()
        .map(|(i, (&at, &refused))| Record {
            due: at,
            sent: at,
            refused: refused || pending.shed[i],
            replies: pending.replies[i],
            done: pending.done[i],
            prediction: pending.predictions[i],
            label: 0.0,
        })
        .collect();
    (
        Saturation::new(run::IN_FLIGHT, &records, &samples, serving_cpu_seconds),
        pending.strays,
        generator_busy,
    )
}

/// One telemetry scrape: when it started and ended, and the rows it returned.
type Scrape = (Instant, Instant, Vec<(String, f64)>);

/// Scrape the replica every `SCRAPE_PERIOD` until `stop`.
fn scrape_until(addr: SocketAddr, stop: &AtomicBool) -> Vec<Scrape> {
    let mut scrapes = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let start = Instant::now();
        if let Ok(rows) = scrape_replica(addr) {
            scrapes.push((start, Instant::now(), rows));
        }
        next += SCRAPE_PERIOD;
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    scrapes
}

fn row(rows: &[(String, f64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// Run `loopback-live` as `plan` says.
pub fn run(plan: &Plan) -> run::Outcome {
    let mut rec = Recorder::new(Instant::now(), plan.traced);
    let mut setup_s = Vec::new();
    let Setup {
        server,
        mut client,
        mut stream,
        epoch0,
    } = loop {
        let (setup, seconds) = set_up(plan.traced, plan.seed);
        setup_s.push(seconds);
        if setup_s.len() >= plan.setup_reps() {
            break setup;
        }
        let _ = close(setup.server, setup.client);
        // The host's speed changes over tens of milliseconds; spread the set-ups so
        // their median does not sample a single such stretch.
        std::thread::sleep(SETUP_SPACING);
    };
    let addr = server.addr();

    let nominal_schedule = stream.schedule(NOMINAL_RPS, plan.nominal_seconds(), plan.phase_seed(0));
    let stop = AtomicBool::new(false);
    let (updater_before, started) = (updater_cpu_seconds(), Instant::now());
    let ((nominal, strays), scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape_until(addr, &stop));
        let phase = run_phase(&mut client, nominal_schedule, 1, plan.traced, &mut rec);
        stop.store(true, Ordering::Release);
        (phase, scraper.join().expect("scraper thread"))
    });
    let busy_frac = (updater_cpu_seconds() - updater_before) / started.elapsed().as_secs_f64();
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let mut fresh = Freshness::default();
    for (start, end, rows) in &scrapes {
        rec.record("net.scrape_replica", "", 0, *start, *end);
        fresh.observe(
            *start,
            row(rows, "epoch_age_us") as u64,
            row(rows, "snapshot_epoch") as u64,
        );
    }
    let stage_rows = scrape_replica(addr).unwrap_or_default();
    let infer_bytes = server.bytes().infer.load(Ordering::Relaxed);

    let mut all_strays = strays;
    let saturation = (!plan.traced).then(|| {
        let pool = stream.batch(POOL_REQUESTS).samples;
        let (saturation, strays, generator_busy) = run_saturation(
            &mut client,
            &pool,
            stream.clock(),
            plan.saturation_seconds(),
            1 + nominal.outcomes.offered,
            &mut rec,
        );
        all_strays += strays;
        (saturation, generator_busy)
    });
    let (report, node) = close(server, client);
    let last = node.snapshot();
    let final_epoch = report
        .updater
        .published
        .last()
        .map_or(0, |&(epoch, _)| epoch);

    let mut out = run::Outcome::new(plan, setup_s, nominal, fresh, saturation, busy_frac);
    out.peak_rss_mb = peak_rss_mb;
    out.round_frac =
        (0.0 + report.updater.round_times_ms.iter().sum::<f64>()) / 1e3 / report.wall_seconds;
    out.checks.push((
        format!("no reply for an unknown request id ({all_strays})"),
        all_strays == 0,
    ));
    out.checks.push((
        format!("staleness scrapes answered ({})", scrapes.len()),
        !scrapes.is_empty(),
    ));
    out.check_publications(&report.updater, final_epoch, &last);
    if let Some(epoch0) = epoch0 {
        out.checks.push((
            "the probed epoch-0 snapshot is the one the replica published first".into(),
            report.updater.published.first() == Some(&(0, epoch0.checksum())),
        ));
        let serve = layers::serve_costs(&epoch0, &last, &mut stream, &mut rec);
        let engine = layers::replay(node, &mut stream, REPLAY_ROUNDS, &mut rec);
        let offered = out.nominal.outcomes.offered.max(1) as f64;
        let send = Percentiles::of(&rec.durations_us("net.send"));
        let poll = Percentiles::of(&rec.durations_us("net.poll"));
        out.layers = Some(run::Layers {
            serve,
            engine,
            batch_mean: report.mean_batch_size(),
            net: Some(NetCosts {
                send_us: send.p50,
                poll_us: poll.p50,
                bytes_per_req: infer_bytes as f64 / offered,
                ready_events_per_wake: row(&stage_rows, "net_ready_events_per_wake_p50"),
                wakeups_per_req: row(&stage_rows, "net_wakeups_total") / offered,
            }),
            stage_rows,
        });
    }
    out.recorder = rec;
    out
}
