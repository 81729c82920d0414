//! `serve_open`: an in-process daemon (default `ServeConfig`, per-run
//! store) driven by an open-loop generator at a fixed offered rate over
//! two connections. Requests come in shuffled blocks of a hundred: 50 hot
//! measure, 25 hot sweep and 24 hot curve requests (all served from shard
//! memory) and one unique cold measure point. One cold simulation a second
//! slows the hot requests that overlap it, about 2% of them: they land in
//! the p99 tail, and p90 stays inside the hot class.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amem_core::{Executor, SimPlatform};
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_serve::{
    Client, Command, JobResult, JobSpec, Request, Response, ServeConfig, ServeStats, Server,
    WorkloadSpec, PROTOCOL_VERSION,
};
use amem_sim::config::MachineConfig;
use amem_sim::rng::Xoshiro256;

use crate::layers::{self, cache_delta, EngineCounts, Metrics};
use crate::request::{self, call, served_json, Point, RATIOS};
use crate::trace::Tracer;
use crate::util::{mean, median, percentile, shuffle, ProcUsage, RunDir, Units};
use crate::{Ctx, Outcome};

/// Offered rate, requests per second: half the default per-tenant quota
/// (200/s after a burst of 400), so the quota never defers a request.
pub const RATE: f64 = 100.0;
/// Client connections (the host's core count this benchmark targets).
pub const CONNS: usize = 2;
/// Requests per block: 50 hot measure, 25 hot sweep, 24 hot curve and one
/// cold point, so one cold simulation a second.
const BLOCK: usize = 100;
/// Latency limit on p90, ms: above a cold point's typical service time, so
/// p90 passes it only when hot requests queue behind simulations.
pub const P90_LIMIT_MS: f64 = 25.0;
/// Set-up repetitions behind `setup_s`.
const SETUPS: usize = 5;
/// Requests in each fixed-count pass of the traced run.
const TRACED_REQUESTS: usize = 400;
const TENANT: &str = "bench";

/// Every distinct request a run sends, and the order it sends them in.
pub struct Plan {
    /// The hot set, then one unique cold point per cold slot.
    pub specs: Vec<JobSpec>,
    pub hot: usize,
    /// Index into `specs` of each request, in send order.
    pub schedule: Vec<usize>,
}

pub fn plan(m: &MachineConfig, seed: u64, requests: usize) -> Plan {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut specs = Vec::new();
    let mixes = [InterferenceMix::none(), InterferenceMix::storage(1)];
    for i in 0..12 {
        let p = request::probe(m, &mut rng, RATIOS[i % 3], i);
        specs.push(request::measure(
            m,
            WorkloadSpec::Probe(p),
            1,
            mixes[(i / 3) % 2],
        ));
    }
    for i in 0..4 {
        let kind = [InterferenceKind::Storage, InterferenceKind::Bandwidth][i % 2];
        let p = request::probe(m, &mut rng, RATIOS[i % 3], 12 + i);
        specs.push(request::probe_sweep(m, p, kind));
    }
    for i in 0..4 {
        specs.push(request::curve(
            m,
            &request::probe(m, &mut rng, RATIOS[i % 3], 16 + i),
        ));
    }
    let hot = specs.len();
    let mut schedule = Vec::with_capacity(requests + BLOCK);
    while schedule.len() < requests {
        let mut block: Vec<usize> = Vec::with_capacity(BLOCK);
        block.extend((0..50).map(|i| i % 12));
        block.extend((0..25).map(|i| 12 + i % 4));
        block.extend((0..24).map(|i| 16 + i % 4));
        // The cold point of block b: distributions, sizes and mixes in turn.
        let b = schedule.len() / BLOCK;
        let p = request::probe(m, &mut rng, RATIOS[b % 3], b);
        let mix = mixes[(b / 3) % 2];
        block.push(specs.len());
        specs.push(request::measure(m, WorkloadSpec::Probe(p), 1, mix));
        shuffle(&mut block, &mut rng);
        schedule.extend(block);
    }
    schedule.truncate(requests);
    Plan {
        specs,
        hot,
        schedule,
    }
}

/// Library results of every spec, as the JSON the daemon must send.
fn references(plat: &SimPlatform, dir: &Path, specs: &[JobSpec]) -> Vec<String> {
    let exec = Executor::with_cache_dir(plat.clone(), dir);
    let off = Tracer::new(false);
    specs
        .iter()
        .map(|s| {
            call(&exec, s, &off, 0)
                .map(|o| o.json())
                .unwrap_or_default()
        })
        .collect()
}

fn client(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect to the in-process daemon");
    c.tenant = TENANT.into();
    c
}

struct Daemon {
    server: Server,
}

impl Daemon {
    fn start(store: PathBuf, metrics: bool) -> Daemon {
        let cfg = ServeConfig {
            cache_dir: Some(store),
            metrics,
            ..ServeConfig::default()
        };
        Daemon {
            server: Server::start(cfg).expect("start the daemon"),
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Send each hot spec once; true when every result matched.
    fn fill(&self, plan: &Plan, refs: &[String]) -> bool {
        let mut c = client(self.addr());
        plan.specs[..plan.hot].iter().zip(refs).all(|(spec, r)| {
            let got = c.submit(spec.clone()).ok();
            got.as_ref().and_then(served_json).as_deref() == Some(r.as_str())
        })
    }

    fn stats(&self) -> ServeStats {
        client(self.addr()).stats().expect("daemon stats")
    }

    fn metrics(&self) -> String {
        client(self.addr()).metrics().expect("daemon metrics")
    }

    fn stop(self) {
        let _ = client(self.addr()).shutdown();
        self.server.wait();
    }
}

struct Rec {
    /// Due to sent, sent to response, and due to response.
    lag_ms: f64,
    svc_ms: f64,
    lat_ms: f64,
    result: Result<JobResult, String>,
}

struct OpenLoop {
    recs: Vec<Rec>,
    wall: f64,
    cpu: ProcUsage,
}

/// Send `n` scheduled requests at `RATE` over `CONNS` connections. Each
/// connection takes the next request when it is free and the request is
/// due; latency runs from the due time.
fn open_loop(addr: std::net::SocketAddr, plan: &Plan, n: usize, tracer: &Tracer) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let recs: Mutex<Vec<Option<Rec>>> = Mutex::new((0..n).map(|_| None).collect());
    let cpu0 = ProcUsage::now();
    let t0 = Instant::now() + Duration::from_millis(100);
    // A generator that falls this far behind stops sending; what it did
    // not send counts as refused.
    let give_up = t0 + Duration::from_secs_f64(3.0 * n as f64 / RATE + 30.0);
    let last_done = Mutex::new(t0);
    std::thread::scope(|s| {
        for _ in 0..CONNS {
            s.spawn(|| {
                let mut c = client(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    if sent > give_up {
                        continue;
                    }
                    let spec = plan.specs[plan.schedule[i]].clone();
                    let result = {
                        let _r = tracer.span("request", i as u64 + 1);
                        let _s = tracer.span("serve.Client::submit", i as u64 + 1);
                        c.submit(spec).map_err(|e| e.to_string())
                    };
                    let done = Instant::now();
                    let rec = Rec {
                        lag_ms: (sent - due).as_secs_f64() * 1e3,
                        svc_ms: (done - sent).as_secs_f64() * 1e3,
                        lat_ms: (done - due).as_secs_f64() * 1e3,
                        result,
                    };
                    recs.lock().expect("records")[i] = Some(rec);
                    let mut last = last_done.lock().expect("clock");
                    *last = (*last).max(done);
                }
            });
        }
    });
    let wall = (*last_done.lock().expect("clock") - t0).as_secs_f64();
    let recs = recs
        .into_inner()
        .expect("records")
        .into_iter()
        .map(|r| {
            r.unwrap_or(Rec {
                lag_ms: 0.0,
                svc_ms: 0.0,
                lat_ms: 0.0,
                result: Err("not sent: generator fell behind".into()),
            })
        })
        .collect();
    OpenLoop {
        recs,
        wall,
        cpu: ProcUsage::now().since(cpu0),
    }
}

/// What checking an open loop's results against the library found.
struct Verified {
    /// Per request: served, and byte-identical to the library result.
    ok: Vec<bool>,
    /// Correct cold results, and their op counts.
    cold: u64,
    counts: EngineCounts,
}

impl Verified {
    fn bad(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }
}

fn verify(plan: &Plan, refs: &[String], ol: &OpenLoop) -> Verified {
    let mut v = Verified {
        ok: Vec::with_capacity(ol.recs.len()),
        cold: 0,
        counts: EngineCounts::default(),
    };
    for (i, rec) in ol.recs.iter().enumerate() {
        let idx = plan.schedule[i];
        let ok = match &rec.result {
            Ok(r) if served_json(r).as_deref() == Some(refs[idx].as_str()) => {
                if idx >= plan.hot {
                    v.cold += 1;
                    if let JobResult::Measurement(m) = r {
                        v.counts.add_report(&m.report);
                    }
                }
                true
            }
            _ => false,
        };
        v.ok.push(ok);
    }
    v
}

pub fn run(ctx: &Ctx, dir: &RunDir) -> Outcome {
    let m = request::machine();
    let plat = SimPlatform::new(m.clone());
    if ctx.traced {
        return traced(ctx, dir, &plat, &m);
    }
    let n = (RATE * ctx.seconds).round() as usize;
    let plan = plan(&m, ctx.seed, n);

    // Set-up: start the daemon, compute the library references and fill
    // the hot set, several times; keep the last daemon.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Daemon, Vec<String>, bool)> = None;
    for i in 0..SETUPS {
        if let Some((d, _, _)) = kept.take() {
            d.stop();
        }
        let t = Instant::now();
        let d = Daemon::start(dir.sub(&format!("store{i}")), false);
        let refs = references(&plat, &dir.sub(&format!("ref{i}")), &plan.specs);
        let ok = d.fill(&plan, &refs);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((d, refs, ok));
    }
    let (d, refs, fill_ok) = kept.expect("at least one set-up");

    let before = d.stats();
    let ol = open_loop(d.addr(), &plan, n, &Tracer::new(false));
    let after = d.stats();
    d.stop();

    let v = verify(&plan, &refs, &ol);
    let (bad, cold) = (v.bad(), v.cold);
    let lat: Vec<f64> = ol
        .recs
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.lat_ms)
        .collect();
    let lag: Vec<f64> = ol.recs.iter().map(|r| r.lag_ms).collect();
    let delta = cache_delta(&after.cache, &before.cache);
    let mut o = Outcome::new(n as u64, bad);
    o.check(fill_ok, "the hot set matched the library results");
    o.check(
        delta.sim_runs == cold,
        "only the cold points simulated in the window",
    );
    // The units of work are the blocks, each the same mix with one cold
    // point. A block's throughput is what the connections serve per second
    // they are busy (sent to response), so it measures the daemon, not the
    // offered rate.
    let mut blocks = Units::default();
    for (recs, ok) in ol.recs.chunks_exact(BLOCK).zip(v.ok.chunks_exact(BLOCK)) {
        let correct = ok.iter().filter(|ok| **ok).count();
        let busy_s = recs.iter().map(|r| r.svc_ms).sum::<f64>() / 1e3;
        // A failed request misses every latency limit.
        let lat: Vec<f64> = recs
            .iter()
            .zip(ok)
            .map(|(r, ok)| if *ok { r.lat_ms } else { f64::INFINITY })
            .collect();
        blocks.push(correct, busy_s / CONNS as f64, &lat);
    }
    o.e2e_units(&setup_s, &blocks, lat.len() as u64);
    o.note("lat_p99_ms", percentile(&lat, 0.99), "ms");
    for (class, of_class) in [
        ("hot_measure", 0..12),
        ("hot_sweep", 12..16),
        ("hot_curve", 16..20),
        ("cold_measure", plan.hot..plan.specs.len()),
    ] {
        let lat: Vec<f64> = ol
            .recs
            .iter()
            .zip(&plan.schedule)
            .filter(|(r, i)| r.result.is_ok() && of_class.contains(*i))
            .map(|(r, _)| r.lat_ms)
            .collect();
        o.class_latency(class, &lat);
    }
    o.note(
        "results_per_wall_s",
        (n as u64 - bad) as f64 / ol.wall,
        "1/s",
    );
    o.note(
        "sim_mops_per_s",
        v.counts.ops as f64 / ol.wall / 1e6,
        "Mops/s",
    );
    o.note("offered_rate", RATE, "1/s");
    // A failed or unsent request counts as missing the limit.
    let over = ol
        .recs
        .iter()
        .filter(|r| r.result.is_err() || r.lat_ms > P90_LIMIT_MS)
        .count();
    o.check(
        over * 10 <= n,
        format!("p90 latency within {P90_LIMIT_MS} ms"),
    );
    o.note("gen_lag_p90_ms", percentile(&lag, 0.9), "ms");
    o.note("cold_requests", cold as f64, "count");
    o.note("window_s", ol.wall, "s");
    o
}

/// Percentile of the daemon's bucketed job-wait histogram between two
/// scrapes, in µs (bucket upper bounds, so a power-of-two resolution).
fn wait_percentiles(before: &str, after: &str, qs: &[f64]) -> Vec<f64> {
    let buckets = |text: &str| -> Vec<(f64, f64)> {
        amem_metrics::export::parse_prometheus_text(text)
            .unwrap_or_default()
            .into_iter()
            .filter(|s| s.name == "amem_serve_job_wait_ns_bucket")
            .filter_map(|s| {
                let le = s.labels.iter().find(|(k, _)| k == "le")?.1.clone();
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, s.value))
            })
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let count_at = |b: &[(f64, f64)], le: f64| {
        // Cumulative count at `le`: the largest listed bound not above it.
        b.iter()
            .filter(|(l, _)| *l <= le)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    };
    let mut bounds: Vec<f64> = b1
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| l.is_finite())
        .collect();
    bounds.sort_by(f64::total_cmp);
    let total = count_at(&b1, f64::INFINITY) - count_at(&b0, f64::INFINITY);
    qs.iter()
        .map(|q| {
            bounds
                .iter()
                .find(|&&le| count_at(&b1, le) - count_at(&b0, le) >= q * total)
                .map(|le| le / 1e3)
                .unwrap_or(0.0)
        })
        .collect()
}

fn traced(ctx: &Ctx, dir: &RunDir, plat: &SimPlatform, m: &MachineConfig) -> Outcome {
    let tracer = &ctx.tracer;
    let plan = plan(m, ctx.seed, TRACED_REQUESTS);
    let ref_dir = dir.sub("ref");
    let refs = references(plat, &ref_dir, &plan.specs);

    // A warm-up pass on a throwaway daemon, an untraced pass on a daemon
    // with metrics off, then a traced pass on a fresh daemon with metrics on.
    let dw = Daemon::start(dir.sub("store-warm-up"), false);
    dw.fill(&plan, &refs);
    open_loop(dw.addr(), &plan, TRACED_REQUESTS / 4, &Tracer::new(false));
    dw.stop();
    let da = Daemon::start(dir.sub("store-a"), false);
    let fill_a = da.fill(&plan, &refs);
    let sa0 = da.stats();
    let ola = open_loop(da.addr(), &plan, TRACED_REQUESTS, &Tracer::new(false));
    let sa1 = da.stats();
    da.stop();

    let db = Daemon::start(dir.sub("store-b"), true);
    let fill_b = db.fill(&plan, &refs);
    let (sb0, mb0) = (db.stats(), db.metrics());
    let olb = open_loop(db.addr(), &plan, TRACED_REQUESTS, tracer);
    let (sb1, mb1) = (db.stats(), db.metrics());
    db.stop();

    let va = verify(&plan, &refs, &ola);
    let (bad_a, counts_a) = (va.bad(), va.counts);
    let bad_b = verify(&plan, &refs, &olb).bad();
    let mut o = Outcome::new(TRACED_REQUESTS as u64, bad_b);
    o.check(
        fill_a && fill_b && bad_a == 0,
        "hot sets and the untraced pass verify",
    );

    let mut mt = Metrics::default();
    let (ca, cb) = (
        cache_delta(&sa1.cache, &sa0.cache),
        cache_delta(&sb1.cache, &sb0.cache),
    );
    let counts = layers::exec_counts(&cb, &mut mt);
    o.check(
        counts == layers::exec_counts(&ca, &mut Metrics::default()),
        "exec.* counts equal the untraced pass",
    );

    // Engine and op generation over the cold points of the pass.
    let ref_exec = Executor::with_cache_dir(plat.clone(), &ref_dir);
    let points: Vec<Point> = plan
        .schedule
        .iter()
        .filter(|&&i| i >= plan.hot)
        .flat_map(|&i| request::points(&ref_exec, &plan.specs[i]))
        .collect();
    let eng = layers::engine(plat, &points, tracer);
    o.check(
        eng.counts == counts_a,
        "engine counts equal the untraced pass",
    );
    eng.counts.metrics(&mut mt);
    mt.put("engine.host_ns_per_op", eng.host_ns_per_op(), "ns/op");
    mt.put(
        "opgen.ns_per_op",
        layers::opgen(plat, &points, &eng.reports, tracer),
        "ns/op",
    );
    mt.put("proc.cpu_s", olb.cpu.cpu_s, "s");
    mt.count("proc.ctx_switches", olb.cpu.ctx_switches);

    let sent: Vec<&JobSpec> = plan.schedule.iter().map(|&i| &plan.specs[i]).collect();
    let probe_specs: Vec<JobSpec> = {
        let mut v: Vec<usize> = plan.schedule.clone();
        v.sort_unstable();
        v.dedup();
        v.into_iter().map(|i| plan.specs[i].clone()).collect()
    };
    let decoded = layers::exec(plat, &ref_dir, &probe_specs, tracer, &mut mt);
    o.check(decoded, "every probed entry file was read and decoded");

    // Protocol: encode each request line and decode each response line as
    // the client does.
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, rec) in sent.iter().zip(&olb.recs) {
        let req = Request {
            v: PROTOCOL_VERSION,
            tenant: TENANT.into(),
            priority: Default::default(),
            fault: None,
            command: Command::Submit(Box::new((*spec).clone())),
        };
        let t = Instant::now();
        let line = {
            let _s = tracer.span("serve.encode", 0);
            serde_json::to_string(&req).expect("requests encode")
        };
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(line);
        let Ok(result) = &rec.result else { continue };
        let line =
            serde_json::to_string(&Response::ok(1, result.clone())).expect("responses encode");
        bytes.push(line.len() as f64 + 1.0);
        let t = Instant::now();
        {
            let _s = tracer.span("serve.decode", 0);
            std::hint::black_box(
                serde_json::from_str::<Response>(&line).expect("responses decode"),
            );
        }
        dec.push(t.elapsed().as_secs_f64() * 1e6);
    }
    mt.put("serve.encode_us_p50", median(&enc), "us");
    mt.put("serve.decode_us_p50", median(&dec), "us");
    mt.put("serve.response_bytes_mean", mean(&bytes), "bytes");
    let waits = wait_percentiles(&mb0, &mb1, &[0.5, 0.9]);
    mt.put("serve.queue_wait_p50_us", waits[0], "us");
    mt.put("serve.queue_wait_p90_us", waits[1], "us");
    mt.count(
        "serve.quota_deferrals",
        sb1.quota_deferrals - sb0.quota_deferrals,
    );
    mt.count("serve.jobs_failed", sb1.jobs_failed - sb0.jobs_failed);
    let hits = cb.hits() + cb.curves().hits();
    let lookups = cb.lookups() + cb.curves().lookups();
    mt.put(
        "serve.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let lag: Vec<f64> = ola.recs.iter().map(|r| r.lag_ms).collect();
    mt.put("bench.gen_lag_p90_ms", percentile(&lag, 0.9), "ms");

    let busy = |ol: &OpenLoop| ol.recs.iter().map(|r| r.lat_ms).sum::<f64>();
    mt.put(
        "trace.overhead_frac",
        busy(&olb) / busy(&ola) - 1.0,
        "ratio",
    );
    o.layers(mt);
    o
}
