//! `sim_cold`: one closed-loop client issuing seeded unique requests to a
//! disk-backed executor on an empty directory, so every request simulates.
//!
//! Requests come in shuffled blocks of ten: six probe `run_sweep`s (both
//! interference kinds × buffers of 0.5, 1 and 2 L3), three cold exact
//! `run_curve`s and one fig9-style MCB point under one bandwidth thread.

use std::time::{Duration, Instant};

use amem_core::{AmemError, Executor, SimPlatform};
use amem_interfere::InterferenceKind;
use amem_serve::{JobSpec, WorkloadSpec};
use amem_sim::config::MachineConfig;
use amem_sim::rng::Xoshiro256;

use crate::layers::{self, EngineCounts, Metrics};
use crate::request::{self, call, Out, Point, RATIOS};
use crate::trace::{self, Tracer};
use crate::util::{self, median, ms, percentile, shuffle, workers, ProcUsage, RunDir};
use crate::{Ctx, Outcome};

/// Requests per block: six sweeps, three curves, one MCB point.
const BLOCK: usize = 10;
/// Blocks after which `peak_rss_mb` is read. The executor keeps every
/// result in memory, so a faster program, which completes more blocks in
/// the window, would otherwise read as using more memory.
const RSS_BLOCKS: usize = 16;
/// Blocks generated per run; far more than any window completes.
const BLOCKS: usize = 200;
/// Requests in the fixed-count passes of the traced run.
const TRACED_REQUESTS: usize = 30;
/// Set-up repetitions before the window. Set-up takes well under a
/// millisecond, and the host's speed changes over seconds, so one more
/// repetition follows every block of the window and `setup_s` is the
/// median over all of them, spread over the whole run.
const SETUPS: usize = 15;

/// A request's class, for per-class latency report lines: sweeps by
/// interference kind and buffer size in L3s, curves, MCB points.
fn class(m: &MachineConfig, spec: &JobSpec) -> String {
    match spec {
        JobSpec::Sweep {
            workload: WorkloadSpec::Probe(p),
            kind,
            ..
        } => {
            let l3 = m.l3.lines() * m.l3.line_bytes as u64;
            format!("sweep_{kind:?}_{}l3", p.buffer_bytes as f64 / l3 as f64)
        }
        JobSpec::Curve { .. } => "curve".into(),
        _ => "mcb".into(),
    }
}

pub fn requests(m: &MachineConfig, seed: u64, blocks: usize) -> Vec<JobSpec> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for b in 0..blocks {
        // Every block is the same work: each sweep slot keeps its Table II
        // distribution, so blocks differ only in RNG streams and order.
        // Curves (a few ms each) rotate over the remaining four.
        let mut block = Vec::with_capacity(BLOCK);
        for (k, kind) in [InterferenceKind::Storage, InterferenceKind::Bandwidth]
            .into_iter()
            .enumerate()
        {
            for (j, r) in RATIOS.into_iter().enumerate() {
                block.push(request::probe_sweep(
                    m,
                    request::probe(m, &mut rng, r, 3 * k + j),
                    kind,
                ));
            }
        }
        for (j, r) in RATIOS.into_iter().enumerate() {
            block.push(request::curve(
                m,
                &request::probe(m, &mut rng, r, 6 + (b + j) % 4),
            ));
        }
        block.push(request::mcb_point(m, &mut rng, 1));
        shuffle(&mut block, &mut rng);
        out.extend(block);
    }
    out
}

/// One closed-loop pass: issue requests in order until the deadline, if
/// any, has passed, calling `between_blocks` after every block, outside
/// the request timings.
struct Pass {
    outs: Vec<Result<Out, AmemError>>,
    lat_ms: Vec<f64>,
    wall: Duration,
    exec: Executor,
    cpu: ProcUsage,
}

fn pass(
    exec: Executor,
    reqs: &[JobSpec],
    deadline: Option<Duration>,
    tracer: &Tracer,
    between_blocks: &mut dyn FnMut(),
) -> Pass {
    let cpu0 = ProcUsage::now();
    let t0 = Instant::now();
    let (mut outs, mut lat_ms) = (Vec::new(), Vec::new());
    for (i, spec) in reqs.iter().enumerate() {
        if deadline.is_some_and(|d| t0.elapsed() >= d) {
            break;
        }
        let t = Instant::now();
        let _s = tracer.span("request", i as u64 + 1);
        outs.push(call(&exec, spec, tracer, i as u64 + 1));
        lat_ms.push(ms(t.elapsed()));
        if (i + 1) % BLOCK == 0 {
            between_blocks();
        }
    }
    Pass {
        outs,
        lat_ms,
        wall: t0.elapsed(),
        exec,
        cpu: ProcUsage::now().since(cpu0),
    }
}

/// What re-reading a pass through a fresh executor found.
struct Verified {
    /// Per request: succeeded, plausible, and byte-identical on re-read.
    ok: Vec<bool>,
    /// The re-read simulated nothing.
    clean: bool,
    /// Work counts of every point the pass simulated.
    counts: EngineCounts,
}

impl Verified {
    fn bad(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }
}

/// Re-read every completed request through a fresh executor on the same
/// directory.
fn verify(plat: &SimPlatform, dir: &std::path::Path, reqs: &[JobSpec], p: &Pass) -> Verified {
    let fresh = Executor::with_cache_dir(plat.clone(), dir);
    let off = Tracer::new(false);
    let mut ok = Vec::with_capacity(p.outs.len());
    let mut counts = EngineCounts::default();
    for (spec, out) in reqs.iter().zip(&p.outs) {
        let again = call(&fresh, spec, &off, 0);
        ok.push(match (out, again) {
            (Ok(out), Ok(again)) => out.sane() && out.json() == again.json(),
            _ => false,
        });
        for pt in request::points(&fresh, spec) {
            let w = pt.workload.build();
            if let Ok(m) = fresh.run(w.as_ref(), pt.pp, pt.mix) {
                counts.add_report(&m.report);
            }
        }
    }
    let s = fresh.stats();
    Verified {
        ok,
        clean: s.sim_runs == 0 && s.curves().runs == 0,
        counts,
    }
}

fn simulated_points(exec: &Executor, reqs: &[JobSpec]) -> Vec<Point> {
    reqs.iter().flat_map(|s| request::points(exec, s)).collect()
}

pub fn run(ctx: &Ctx, dir: &RunDir) -> Outcome {
    let m = request::machine();
    let plat = SimPlatform::new(m.clone());
    // Set-up: build the executor on an empty directory and generate the
    // request list, several times; keep the last.
    let mut setup_s = Vec::new();
    let mut set_up = |i: usize| {
        let cache = dir.sub(&format!("cache{i}"));
        let t = Instant::now();
        let exec = Executor::with_cache_dir(plat.clone(), &cache);
        let reqs = requests(&m, ctx.seed, BLOCKS);
        setup_s.push(t.elapsed().as_secs_f64());
        (exec, reqs, cache)
    };
    for i in 1..SETUPS {
        set_up(i);
    }
    let (exec, reqs, cache) = set_up(0);

    if ctx.traced {
        return traced(ctx, dir, &plat, &reqs[..TRACED_REQUESTS]);
    }

    let off = Tracer::new(false);
    let mut more = SETUPS;
    let mut rss_mb = None;
    let p = pass(
        exec,
        &reqs,
        Some(Duration::from_secs_f64(ctx.seconds)),
        &off,
        &mut || {
            more += 1;
            set_up(more);
            if more - SETUPS == RSS_BLOCKS {
                rss_mb = Some(util::peak_rss_mb());
            }
        },
    );
    let done = &reqs[..p.outs.len()];
    let points = simulated_points(&p.exec, done).len() as u64;
    let stats = p.exec.stats();
    let v = verify(&plat, &cache, done, &p);
    let wall = p.wall.as_secs_f64();
    let attempted = p.outs.len() as u64;
    // Throughput is the median over the window's complete blocks, each the
    // same mix of ten requests. Unlike the other workloads, a block keeps
    // both cores busy for about half a second, which already averages over
    // bursts of host noise, and a block is too small to hold a p90; so the
    // figures here are medians and percentiles over all requests.
    let block_rates: Vec<f64> = p
        .lat_ms
        .chunks_exact(BLOCK)
        .zip(v.ok.chunks_exact(BLOCK))
        .map(|(lat, ok)| {
            ok.iter().filter(|ok| **ok).count() as f64 / (lat.iter().sum::<f64>() / 1e3)
        })
        .collect();
    let mut o = Outcome::new(attempted, v.bad());
    o.check(
        v.clean,
        "re-read through a fresh executor simulated nothing",
    );
    o.check(
        stats.sim_runs == points,
        "every point in the window was simulated once",
    );
    o.check(
        p.outs.len() < reqs.len(),
        "the window ended before the request list did",
    );
    o.e2e(
        &setup_s,
        median(&block_rates),
        [percentile(&p.lat_ms, 0.5), percentile(&p.lat_ms, 0.9)],
        attempted,
    );
    o.note("blocks", block_rates.len() as f64, "count");
    o.check(
        rss_mb.is_some(),
        format!("the window completed {RSS_BLOCKS} blocks"),
    );
    o.metric("peak_rss_mb", rss_mb.unwrap_or(0.0), "MB");
    o.note("peak_rss_mb.whole_run", util::peak_rss_mb(), "MB");
    let mut by_class = std::collections::BTreeMap::<String, Vec<f64>>::new();
    for (spec, lat) in done.iter().zip(&p.lat_ms) {
        by_class.entry(class(&m, spec)).or_default().push(*lat);
    }
    for (name, lat) in &by_class {
        o.class_latency(name, lat);
    }
    o.note(
        "results_per_s_whole_window",
        (attempted - v.bad()) as f64 / wall,
        "1/s",
    );
    o.note("sim_mops_per_s", v.counts.ops as f64 / wall / 1e6, "Mops/s");
    o.note("window_s", wall, "s");
    o.note("simulated_points", points as f64, "count");
    o
}

fn traced(ctx: &Ctx, dir: &RunDir, plat: &SimPlatform, reqs: &[JobSpec]) -> Outcome {
    let tracer = &ctx.tracer;
    let off = Tracer::new(false);
    // Untraced and traced fixed-count passes over the same requests, each
    // on its own empty directory, after a warm-up pass that neither counts.
    let warm = dir.sub("warm-up");
    pass(
        Executor::with_cache_dir(plat.clone(), &warm),
        reqs,
        None,
        &off,
        &mut || {},
    );
    let dir_u = dir.sub("untraced");
    let pu = pass(
        Executor::with_cache_dir(plat.clone(), &dir_u),
        reqs,
        None,
        &off,
        &mut || {},
    );
    let dir_t = dir.sub("traced");
    let pt = pass(
        Executor::with_cache_dir(plat.clone(), &dir_t),
        reqs,
        None,
        tracer,
        &mut || {},
    );
    let vu = verify(plat, &dir_u, reqs, &pu);
    let vt = verify(plat, &dir_t, reqs, &pt);

    let mut o = Outcome::new(reqs.len() as u64, vt.bad());
    o.check(vu.bad() == 0 && vu.clean && vt.clean, "both passes verify");
    let same = pu
        .outs
        .iter()
        .zip(&pt.outs)
        .all(|(a, b)| matches!((a, b), (Ok(a), Ok(b)) if a.json() == b.json()));
    o.check(same, "traced and untraced passes return identical results");

    let mut mt = Metrics::default();
    let counts_exec = layers::exec_counts(&pt.exec.stats(), &mut mt);
    let counts_exec_u = layers::exec_counts(&pu.exec.stats(), &mut Metrics::default());
    o.check(
        counts_exec == counts_exec_u,
        "exec.* counts equal the untraced pass",
    );

    // Engine and op generation over every point the pass simulated.
    let points = simulated_points(&pt.exec, reqs);
    let eng = layers::engine(plat, &points, tracer);
    o.check(
        eng.counts == vu.counts,
        "engine counts equal the untraced pass",
    );
    eng.counts.metrics(&mut mt);
    mt.put("engine.host_ns_per_op", eng.host_ns_per_op(), "ns/op");
    mt.put(
        "opgen.ns_per_op",
        layers::opgen(plat, &points, &eng.reports, tracer),
        "ns/op",
    );
    mt.put("proc.cpu_s", pt.cpu.cpu_s, "s");
    mt.count("proc.ctx_switches", pt.cpu.ctx_switches);

    // Sweep fan-out: isolated point busy time against workers × wall.
    let spans = tracer.spans();
    let sweep_ms: Vec<f64> = trace::durations_us(&spans, "sweep.run_sweep")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    let (mut busy, mut capacity, mut at, mut si) = (0.0, 0.0, 0usize, 0usize);
    for spec in reqs {
        let n = request::points(&pt.exec, spec).len();
        if matches!(spec, JobSpec::Sweep { .. }) {
            busy += eng.point_ns[at..at + n].iter().sum::<f64>();
            capacity += workers().min(n) as f64 * sweep_ms[si] * 1e6;
            si += 1;
        }
        at += n;
    }
    mt.put("sweep.wall_ms_p50", median(&sweep_ms), "ms");
    mt.put("sweep.fanout_eff", busy / capacity, "ratio");

    let curve_reqs: Vec<_> = reqs
        .iter()
        .filter_map(|s| match s {
            JobSpec::Curve { request } => Some(request.clone()),
            _ => None,
        })
        .collect();
    let (trace_ns, sd_ns, accesses) = layers::curves(&curve_reqs, tracer);
    mt.put("curve.trace_ns_per_access", trace_ns, "ns");
    mt.put("stackdist.ns_per_access", sd_ns, "ns");
    mt.count("curve.accesses", accesses);

    // Executor per-call costs over the traced pass's directory: every
    // simulated point as a measure request, plus the curves.
    let m = plat.cfg().clone();
    let mut probe_specs: Vec<JobSpec> = points
        .iter()
        .map(|p| request::measure(&m, p.workload.clone(), p.pp, p.mix))
        .collect();
    probe_specs.extend(
        reqs.iter()
            .filter(|s| matches!(s, JobSpec::Curve { .. }))
            .cloned(),
    );
    let decoded = layers::exec(plat, &dir_t, &probe_specs, tracer, &mut mt);
    o.check(decoded, "every probed entry file was read and decoded");

    let busy_u: f64 = pu.lat_ms.iter().sum();
    let busy_t: f64 = pt.lat_ms.iter().sum();
    mt.put("trace.overhead_frac", busy_t / busy_u - 1.0, "ratio");
    o.layers(mt);
    o.note("traced_lat_p90_ms", percentile(&pt.lat_ms, 0.9), "ms");
    o
}
