//! `warm_replay`: set-up fills a cache dir with a fixed seeded set of
//! points and curves; the window replays that set in seeded, shuffled
//! passes. Each pass opens a fresh `Executor::with_cache_dir` (disk hits),
//! then repeats the set on the same executor (memory hits). The engine
//! does no work here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amem_core::{Executor, SimPlatform};
use amem_interfere::InterferenceMix;
use amem_serve::{JobSpec, WorkloadSpec};
use amem_sim::config::MachineConfig;
use amem_sim::rng::Xoshiro256;

use crate::layers::{self, Metrics};
use crate::request::{self, call, Out, RATIOS};
use crate::trace::Tracer;
use crate::util::{fast_time, median, percentile, shuffle, ProcUsage, RunDir, Units};
use crate::{Ctx, Outcome};

/// Shuffled memory-hit passes after each disk-hit pass. Three put one
/// request in four on disk, so p50 falls inside the memory-hit class and
/// p90 inside the disk-hit class rather than on the boundary between them.
const MEM_REPEATS: usize = 3;
/// Passes per p99 figure: 8 × 144 requests puts 11 beyond it.
const P99_PASSES: usize = 8;
/// Set-up repetitions behind `setup_s`.
const SETUPS: usize = 8;
/// Replay passes in each fixed-count pass of the traced run.
const TRACED_PASSES: usize = 20;

/// 24 probe points (3 buffer sizes × no, storage and bandwidth
/// interference, ×8), 4 MCB points and 8 curves.
pub fn fill_set(m: &MachineConfig, seed: u64) -> Vec<JobSpec> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mixes = [
        InterferenceMix::none(),
        InterferenceMix::storage(1),
        InterferenceMix::bandwidth(1),
    ];
    let mut set = Vec::new();
    for i in 0..24 {
        let p = request::probe(m, &mut rng, RATIOS[i % 3], i);
        set.push(request::measure(
            m,
            WorkloadSpec::Probe(p),
            1,
            mixes[(i / 3) % 3],
        ));
    }
    for i in 0..4 {
        set.push(request::mcb_point(m, &mut rng, i % 2));
    }
    for i in 0..8 {
        set.push(request::curve(
            m,
            &request::probe(m, &mut rng, RATIOS[i % 3], 24 + i),
        ));
    }
    set
}

/// The same result object: a memory hit hands back the `Arc` the disk hit
/// stored, so pointer identity proves byte identity.
fn same_object(a: &Out, b: &Out) -> bool {
    match (a, b) {
        (Out::Measurement(a), Out::Measurement(b)) => Arc::ptr_eq(a, b),
        (Out::Curve(a), Out::Curve(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

struct Replay {
    /// Per pass, each the same work: correct results per second and
    /// latency percentiles; and the disk-hit and memory-hit p50.
    passes_e2e: Units,
    pass_notes: Vec<[f64; 2]>,
    /// p99 of each group of `P99_PASSES` passes, and the group so far.
    group_p99: Vec<f64>,
    group_lat: Vec<f64>,
    /// Sum of every request's latency.
    lat_sum_ms: f64,
    attempted: u64,
    bad: u64,
    /// Time inside passes; verification between passes is excluded.
    busy: Duration,
    passes: usize,
    stats: amem_core::CacheStats,
    cpu: ProcUsage,
    clean: bool,
}

/// Replay passes until `stop(passes, busy)` says enough.
fn replay(
    plat: &SimPlatform,
    dir: &Path,
    set: &[JobSpec],
    stored: &[String],
    seed: u64,
    tracer: &Tracer,
    stop: &dyn Fn(usize, Duration) -> bool,
) -> Replay {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED_0F7E_91A7);
    let mut order: Vec<usize> = (0..set.len()).collect();
    let mut r = Replay {
        passes_e2e: Units::default(),
        pass_notes: Vec::new(),
        group_p99: Vec::new(),
        group_lat: Vec::new(),
        lat_sum_ms: 0.0,
        attempted: 0,
        bad: 0,
        busy: Duration::ZERO,
        passes: 0,
        stats: Default::default(),
        cpu: ProcUsage::default(),
        clean: true,
    };
    let cpu0 = ProcUsage::now();
    let mut req = 0u64;
    while !stop(r.passes, r.busy) {
        let tp = Instant::now();
        let exec = {
            let _s = tracer.span("exec.with_cache_dir", 0);
            Executor::with_cache_dir(plat.clone(), dir)
        };
        let mut first: Vec<Option<Out>> = (0..set.len()).map(|_| None).collect();
        let mut bad = 0u64;
        let mut again = Vec::with_capacity(set.len() * MEM_REPEATS);
        let mut lat = Vec::with_capacity(set.len() * (MEM_REPEATS + 1));
        for round in 0..=MEM_REPEATS {
            shuffle(&mut order, &mut rng);
            for &i in &order {
                req += 1;
                let t = Instant::now();
                let out = {
                    let _s = tracer.span("request", req);
                    call(&exec, &set[i], tracer, req)
                };
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(o) if round == 0 => first[i] = Some(o),
                    Ok(o) => again.push((i, o)),
                    Err(_) => bad += 1,
                }
            }
        }
        let pass_s = tp.elapsed();
        let requests = (set.len() * (MEM_REPEATS + 1)) as u64;
        r.busy += pass_s;
        r.lat_sum_ms += lat.iter().sum::<f64>();
        // The first round is the disk hits, the rest memory hits.
        let (disk, mem) = lat.split_at(set.len());
        r.pass_notes.push([median(disk), median(mem)]);
        r.group_lat.extend_from_slice(&lat);
        if r.group_lat.len() >= P99_PASSES * lat.len() {
            r.group_p99.push(percentile(&r.group_lat, 0.99));
            r.group_lat.clear();
        }
        r.passes += 1;
        r.attempted += requests;

        // Verify outside the timed part: disk hits byte-identical to what
        // set-up stored, memory hits the very objects the disk hits made.
        for (i, o) in first.iter().enumerate() {
            if !o
                .as_ref()
                .is_some_and(|o| o.sane() && o.json() == stored[i])
            {
                bad += 1;
            }
        }
        for (i, o) in &again {
            if !first[*i].as_ref().is_some_and(|f| same_object(f, o)) {
                bad += 1;
            }
        }
        r.bad += bad;
        r.passes_e2e.push(
            requests.saturating_sub(bad) as usize,
            pass_s.as_secs_f64(),
            &lat,
        );
        let s = exec.stats();
        let c = s.curves();
        r.clean &= s.sim_runs == 0 && c.runs == 0 && s.stores == 0 && c.stores == 0;
        r.clean &= s.disk_hits + c.disk_hits == set.len() as u64;
        r.stats = layers::cache_sum(&r.stats, &s);
    }
    r.cpu = ProcUsage::now().since(cpu0);
    r
}

pub fn run(ctx: &Ctx, dir: &RunDir) -> Outcome {
    let m = request::machine();
    let plat = SimPlatform::new(m.clone());
    let set = fill_set(&m, ctx.seed);
    let off = Tracer::new(false);

    // Set-up: the cold fill of an empty cache dir, several times; keep the
    // last directory and the results it stored.
    let mut setup_s = Vec::new();
    let mut filled: Option<(PathBuf, Vec<String>, bool)> = None;
    for i in 0..SETUPS {
        let cache = dir.sub(&format!("cache{i}"));
        let t = Instant::now();
        let exec = Executor::with_cache_dir(plat.clone(), &cache);
        let outs: Vec<_> = set.iter().map(|s| call(&exec, s, &off, 0)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        let s = exec.stats();
        let ok = outs.iter().all(|o| o.as_ref().is_ok_and(Out::sane))
            && s.stores + s.curves().stores == set.len() as u64;
        let stored = outs
            .into_iter()
            .map(|o| o.map(|o| o.json()).unwrap_or_default())
            .collect();
        filled = Some((cache, stored, ok));
    }
    let (cache, stored, fill_ok) = filled.expect("at least one set-up");

    if ctx.traced {
        return traced(ctx, &plat, &cache, &set, &stored, fill_ok);
    }

    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let r = replay(&plat, &cache, &set, &stored, ctx.seed, &off, &|_, busy| {
        busy >= window
    });
    let wall = t0.elapsed().as_secs_f64();
    let busy = r.busy.as_secs_f64();
    let mut o = Outcome::new(r.attempted, r.bad);
    o.check(fill_ok, "set-up stored every entry");
    o.check(r.clean, "replay passes only hit the cache");
    o.e2e_units(&setup_s, &r.passes_e2e, r.attempted);
    o.note("lat_p99_ms", fast_time(&r.group_p99), "ms");
    for (k, name) in ["disk_hit.lat_p50_ms", "mem_hit.lat_p50_ms"]
        .into_iter()
        .enumerate()
    {
        let per_pass: Vec<f64> = r.pass_notes.iter().map(|n| n[k]).collect();
        o.note(name, fast_time(&per_pass), "ms");
    }
    o.note(
        "results_per_s_whole_window",
        (r.attempted - r.bad) as f64 / busy,
        "1/s",
    );
    o.note("window_s", busy, "s");
    o.note("wall_s", wall, "s");
    o.note("passes", r.passes as f64, "count");
    o.note("sim_runs", r.stats.sim_runs as f64, "count");
    o
}

fn traced(
    ctx: &Ctx,
    plat: &SimPlatform,
    cache: &Path,
    set: &[JobSpec],
    stored: &[String],
    fill_ok: bool,
) -> Outcome {
    let tracer = &ctx.tracer;
    let off = Tracer::new(false);
    let stop = |passes: usize, _| passes >= TRACED_PASSES;
    // A warm-up replay first, so neither measured pass pays the process's
    // first-touch costs.
    replay(plat, cache, set, stored, ctx.seed, &off, &stop);
    let ru = replay(plat, cache, set, stored, ctx.seed, &off, &stop);
    let rt = replay(plat, cache, set, stored, ctx.seed, tracer, &stop);

    let mut o = Outcome::new(rt.attempted, rt.bad);
    o.check(
        fill_ok && ru.bad == 0,
        "set-up and the untraced pass verify",
    );
    o.check(ru.clean && rt.clean, "replay passes only hit the cache");
    let mut mt = Metrics::default();
    let counts = layers::exec_counts(&rt.stats, &mut mt);
    o.check(
        counts == layers::exec_counts(&ru.stats, &mut Metrics::default()),
        "exec.* counts equal the untraced pass",
    );
    let decoded = layers::exec(plat, cache, set, tracer, &mut mt);
    o.check(decoded, "every probed entry file was read and decoded");
    mt.put("proc.cpu_s", rt.cpu.cpu_s, "s");
    mt.count("proc.ctx_switches", rt.cpu.ctx_switches);
    mt.put(
        "trace.overhead_frac",
        rt.lat_sum_ms / ru.lat_sum_ms - 1.0,
        "ratio",
    );
    o.layers(mt);
    o
}
