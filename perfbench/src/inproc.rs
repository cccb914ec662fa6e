//! `prod1m-live` and `prod1m-frozen`: the in-process `ServingRuntime` at Prod-1M
//! geometry, one worker, driven through `submit_routed_with_reply_traced` with each
//! prediction coming back through its `ReplyTo` callback.

use crate::layers::{self, Freshness};
use crate::phase::{self, Phase, Record, Sampler, Saturation};
use crate::run::{self, updater_cpu_seconds, Plan};
use crate::sys::current_thread_cpu_seconds;
use crate::trace::Recorder;
use crate::workload::{day_one, Geometry, Schedule, Stream};
use liveupdate::engine::ServingNode;
use liveupdate_dlrm::sample::{MiniBatch, Sample};
use liveupdate_runtime::request::ReplyTo;
use liveupdate_runtime::{RuntimeConfig, ServingRuntime, SubmitOutcome, UpdateMode};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered requests per second in the nominal phase: `target_qps` 8000 at the base of
/// the diurnal curve, 11.6k at the peak the schedule starts from.
pub const NOMINAL_RPS: f64 = 11_600.0;
/// Distinct requests the saturation phase cycles through.
const POOL_REQUESTS: usize = 8_192;
/// The most requests per second the saturation phase has room to record; far above
/// what one worker serves.
const SATURATION_MAX_RPS: f64 = 250_000.0;
/// Day-1 requests ingested before the runtime starts, so the epoch-0 snapshot already
/// holds the hot-row cache that later epochs rebuild from live traffic.
const PRIME_REQUESTS: usize = 4_096;
/// Update blocks the traced run's replay times.
const REPLAY_ROUNDS: usize = 6;

fn runtime_config(live: bool, traced: bool) -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 1,
        update: if live {
            UpdateMode::Background {
                interval: Duration::from_millis(250),
                rounds_per_update: 1,
                batch_size: 64,
            }
        } else {
            UpdateMode::Disabled
        },
        trace_sample_rate: if traced { 1.0 } else { 0.0 },
        ..RuntimeConfig::default()
    }
}

/// Build the Day-1 model, the node and the runtime; returns them with the seconds it
/// took, up to the point where the first request can be submitted.
fn set_up(live: bool, traced: bool, seed: u64) -> (ServingRuntime, Stream, f64) {
    let start = Instant::now();
    let (model, mut stream, node_cfg) = day_one(Geometry::Prod1M, seed);
    let mut node = ServingNode::new(model, node_cfg);
    let prime = stream.batch(PRIME_REQUESTS);
    node.ingest_batch(stream.clock(), &prime);
    let runtime = ServingRuntime::start(node, runtime_config(live, traced));
    (runtime, stream, start.elapsed().as_secs_f64())
}

#[derive(Default)]
struct Slot {
    done_ns: AtomicU64,
    prediction: AtomicU64,
    replies: AtomicU32,
}

/// Run one open-loop phase: send each request at its due instant from this thread,
/// sample the serving epoch's age as it goes, then wait for every accepted request.
fn run_phase(
    runtime: &ServingRuntime,
    schedule: Schedule,
    first_id: u64,
    traced: bool,
    rec: &mut Recorder,
    fresh: Option<&mut Freshness>,
) -> Phase {
    let n = schedule.len();
    let labels = schedule.labels();
    let origin = Instant::now();
    let slots: Arc<Vec<Slot>> = Arc::new((0..n).map(|_| Slot::default()).collect());
    let answered = Arc::new(AtomicU64::new(0));
    let publisher = runtime.publisher();
    let mut fresh = fresh;
    let (mut dues, mut sent, mut refused) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut accepted = 0u64;
    let mut sampler = Sampler::start();
    let start = Instant::now() + run::LEAD;
    let Schedule {
        offsets,
        minutes,
        samples,
    } = schedule;
    for (i, ((offset, minutes), sample)) in
        offsets.into_iter().zip(minutes).zip(samples).enumerate()
    {
        let due = start + offset;
        sampler.poll();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        if let Some(fresh) = fresh.as_deref_mut() {
            fresh.observe(at, publisher.publish_age_us(), publisher.epoch());
        }
        let reply = {
            let slots = Arc::clone(&slots);
            let answered = Arc::clone(&answered);
            ReplyTo::new(move |prediction| {
                let slot = &slots[i];
                slot.prediction
                    .store(prediction.to_bits(), Ordering::Relaxed);
                let ns = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
                slot.done_ns.store(ns, Ordering::Relaxed);
                // ORDERING: Release pairs with the Acquire loads below; a reader that sees
                // the reply count also sees the prediction and instant stored before it.
                slot.replies.fetch_add(1, Ordering::Release);
                answered.fetch_add(1, Ordering::Release);
            })
        };
        let id = first_id + i as u64;
        let trace = if traced {
            runtime.trace_context(id, 0)
        } else {
            None
        };
        let outcome = runtime.submit_routed_with_reply_traced(sample, minutes, due, reply, trace);
        rec.record("runtime.submit", "request", id, at, Instant::now());
        dues.push(due);
        sent.push(at);
        refused.push(outcome != SubmitOutcome::Accepted);
        accepted += u64::from(outcome == SubmitOutcome::Accepted);
    }
    let samples = sampler.finish();
    let deadline = Instant::now() + run::DRAIN_LIMIT;
    while answered.load(Ordering::Acquire) < accepted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let slot = &slots[i];
            let replies = slot.replies.load(Ordering::Acquire);
            Record {
                due: dues[i],
                sent: sent[i],
                refused: refused[i],
                replies,
                done: (replies > 0)
                    .then(|| origin + Duration::from_nanos(slot.done_ns.load(Ordering::Relaxed))),
                prediction: f64::from_bits(slot.prediction.load(Ordering::Relaxed)),
                label: labels[i],
            }
        })
        .collect();
    for (i, r) in records.iter().enumerate() {
        if let Some(done) = r.done {
            rec.record("request", "", first_id + i as u64, r.due, done);
        }
    }
    Phase::new(&records, &samples)
}

/// Run the closed-loop saturation phase for `seconds`: keep `run::IN_FLIGHT` requests
/// in flight, cycling through `pool`, and refill when half of them have come back.
/// Returns the phase and the generator thread's CPU share during it.
fn run_saturation(
    runtime: &ServingRuntime,
    pool: &[Sample],
    minutes: f64,
    seconds: f64,
    fresh: &mut Freshness,
) -> (Saturation, f64) {
    let max = (SATURATION_MAX_RPS * seconds) as usize;
    let origin = Instant::now();
    let slots: Arc<Vec<Slot>> = Arc::new((0..max).map(|_| Slot::default()).collect());
    let in_flight = Arc::new(AtomicUsize::new(0));
    let generator = std::thread::current();
    let publisher = runtime.publisher();
    let mut sent = Vec::with_capacity(max);
    let mut refused = Vec::with_capacity(max);
    let cpu_before = current_thread_cpu_seconds();
    let serving_before = run::serving_cpu_seconds();
    let mut sampler = Sampler::start();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while sent.len() < max && Instant::now() < end {
        while in_flight.load(Ordering::Acquire) < run::IN_FLIGHT && sent.len() < max {
            let i = sent.len();
            let reply = {
                let slots = Arc::clone(&slots);
                let in_flight = Arc::clone(&in_flight);
                let generator = generator.clone();
                ReplyTo::new(move |prediction| {
                    let slot = &slots[i];
                    slot.prediction
                        .store(prediction.to_bits(), Ordering::Relaxed);
                    let ns = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    slot.done_ns.store(ns, Ordering::Relaxed);
                    // ORDERING: Release pairs with the Acquire loads of the generator and
                    // of the drain; a reader that sees the count sees the slot.
                    slot.replies.fetch_add(1, Ordering::Release);
                    if in_flight.fetch_sub(1, Ordering::Release) == run::IN_FLIGHT / 2 + 1 {
                        generator.unpark();
                    }
                })
            };
            in_flight.fetch_add(1, Ordering::AcqRel);
            let at = Instant::now();
            let outcome = runtime.submit_routed_with_reply_traced(
                pool[i % pool.len()].clone(),
                minutes,
                at,
                reply,
                None,
            );
            if outcome != SubmitOutcome::Accepted {
                in_flight.fetch_sub(1, Ordering::AcqRel);
            }
            sent.push(at);
            refused.push(outcome != SubmitOutcome::Accepted);
        }
        sampler.poll();
        fresh.observe(
            Instant::now(),
            publisher.publish_age_us(),
            publisher.epoch(),
        );
        std::thread::park_timeout(Duration::from_millis(1));
    }
    let samples = sampler.finish();
    let serving_cpu_seconds = run::serving_cpu_seconds() - serving_before;
    let generator_busy = (current_thread_cpu_seconds() - cpu_before)
        / samples[samples.len() - 1]
            .at
            .saturating_duration_since(samples[0].at)
            .as_secs_f64();
    let deadline = Instant::now() + run::DRAIN_LIMIT;
    while in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let records: Vec<Record> = sent
        .iter()
        .zip(&refused)
        .enumerate()
        .map(|(i, (&at, &refused))| {
            let slot = &slots[i];
            let replies = slot.replies.load(Ordering::Acquire);
            Record {
                due: at,
                sent: at,
                refused,
                replies,
                done: (replies > 0)
                    .then(|| origin + Duration::from_nanos(slot.done_ns.load(Ordering::Relaxed))),
                prediction: f64::from_bits(slot.prediction.load(Ordering::Relaxed)),
                label: 0.0,
            }
        })
        .collect();
    (
        Saturation::new(run::IN_FLIGHT, &records, &samples, serving_cpu_seconds),
        generator_busy,
    )
}

/// Run `prod1m-live` (`live`) or `prod1m-frozen` as `plan` says.
pub fn run(plan: &Plan, live: bool) -> run::Outcome {
    let mut rec = Recorder::new(Instant::now(), plan.traced);
    let mut setup_s = Vec::new();
    // The frozen workload serves the nominal phase's requests on an earlier, independent
    // set-up from the same seed, on this thread: the measured run must serve the same
    // predictions, bit for bit. Done between set-ups, so the measured runtime's epoch
    // age does not include it.
    let mut reference_digest = None;
    let (runtime, mut stream) = loop {
        let (runtime, stream, seconds) = set_up(live, plan.traced, plan.seed);
        setup_s.push(seconds);
        if setup_s.len() >= plan.setup_reps() {
            break (runtime, stream);
        }
        if !live && reference_digest.is_none() {
            let mut stream = stream.clone();
            let schedule = stream.schedule(NOMINAL_RPS, plan.nominal_seconds(), plan.phase_seed(0));
            let (_, predictions) = runtime
                .publisher()
                .load()
                .1
                .serve_batch_with_predictions(&MiniBatch::new(schedule.samples));
            reference_digest = Some(phase::digest(&predictions));
        }
        drop(stream);
        let _ = runtime.finish();
    };
    let publisher = Arc::clone(runtime.publisher());
    // Only the traced run holds on to epoch 0 (for its serve-cost probe): holding it
    // keeps a second snapshot resident.
    let epoch0 = plan.traced.then(|| publisher.load().1);

    let mut fresh = Freshness::default();
    let nominal_schedule = stream.schedule(NOMINAL_RPS, plan.nominal_seconds(), plan.phase_seed(0));
    let (updater_before, started) = (updater_cpu_seconds(), Instant::now());
    let nominal = run_phase(
        &runtime,
        nominal_schedule,
        1,
        plan.traced,
        &mut rec,
        Some(&mut fresh),
    );
    let busy_frac = (updater_cpu_seconds() - updater_before) / started.elapsed().as_secs_f64();
    let peak_rss_mb = crate::sys::peak_rss_mb();
    // Staleness is the nominal phase's; the saturation phase still feeds the epoch checks.
    let nominal_staleness = std::mem::take(&mut fresh.staleness_ms);
    let saturation = (!plan.traced).then(|| {
        let pool = stream.batch(POOL_REQUESTS).samples;
        run_saturation(
            &runtime,
            &pool,
            stream.clock(),
            plan.saturation_seconds(),
            &mut fresh,
        )
    });
    fresh.staleness_ms = nominal_staleness;
    let stage_rows = runtime.scrape();
    let (report, node) = runtime.finish();
    let (final_epoch, last) = publisher.load();

    let mut out = run::Outcome::new(plan, setup_s, nominal, fresh, saturation, busy_frac);
    out.peak_rss_mb = peak_rss_mb;
    out.round_frac =
        (0.0 + report.updater.round_times_ms.iter().sum::<f64>()) / 1e3 / report.wall_seconds;
    out.check_publications(&report.updater, final_epoch, &last);
    if let Some(expected) = reference_digest {
        let served = phase::digest(&out.nominal.predictions);
        out.checks.push((
            format!(
                "frozen predictions by request index match an independent set-up from the \
                 same seed (digest {served:016x} vs {expected:016x})"
            ),
            served == expected,
        ));
    }
    if let Some(epoch0) = epoch0 {
        let serve = layers::serve_costs(&epoch0, &last, &mut stream, &mut rec);
        drop((epoch0, last));
        let engine = layers::replay(node, &mut stream, REPLAY_ROUNDS, &mut rec);
        out.layers = Some(run::Layers {
            serve,
            engine,
            stage_rows,
            batch_mean: report.mean_batch_size(),
            net: None,
        });
    }
    out.recorder = rec;
    out
}
