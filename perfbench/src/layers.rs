//! Per-layer probes for the traced run. Each probe calls one layer's
//! public functions directly on the inputs a workload pass used, inside a
//! span, and returns its work counts and busy time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use amem_core::curve::CurveRequest;
use amem_core::mrc::MissRatioCurve;
use amem_core::{CacheStats, Executor, Measurement, Platform, SimPlatform};
use amem_probes::probe::ProbeCfg;
use amem_serve::JobSpec;
use amem_sim::cluster::RankMap;
use amem_sim::engine::RunReport;
use amem_sim::fingerprint::fnv1a;
use amem_sim::machine::Machine;
use amem_sim::stackdist::StackDistHistogram;
use amem_sim::stream::{Op, OP_BATCH};
use serde::Deserialize;

use crate::request::Point;
use crate::trace::Tracer;
use crate::util::{mean, median};

/// Exact work counts of simulated runs, summed over every job
/// (application and interference threads alike) and every socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub ops: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub l3_misses: u64,
    pub dram_lines: u64,
    pub prefetch_issued: u64,
    pub prefetch_dropped: u64,
    pub back_invalidations: u64,
    pub tlb_misses: u64,
}

impl EngineCounts {
    pub fn add_report(&mut self, r: &RunReport) {
        for j in &r.jobs {
            let c = &j.counters;
            self.ops += c.loads + c.stores;
            self.l1_misses += c.l1_misses;
            self.l2_misses += c.l2_misses;
            self.l3_misses += c.l3_misses;
            self.prefetch_issued += c.prefetches_issued;
            self.prefetch_dropped += c.prefetches_dropped;
            self.back_invalidations += c.back_invalidations;
            self.tlb_misses += c.tlb_misses;
        }
        for s in &r.sockets {
            self.dram_lines += s.dram.demand_lines + s.dram.prefetch_lines + s.dram.writeback_lines;
        }
    }

    pub fn metrics(&self, out: &mut Metrics) {
        out.count("engine.ops", self.ops);
        out.count("l1.misses", self.l1_misses);
        out.count("l2.misses", self.l2_misses);
        out.count("l3.misses", self.l3_misses);
        out.count("dram.lines", self.dram_lines);
        out.count("prefetch.issued", self.prefetch_issued);
        out.count("prefetch.dropped", self.prefetch_dropped);
        out.count("l3.back_invalidations", self.back_invalidations);
        out.count("tlb.misses", self.tlb_misses);
    }
}

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

/// What the engine probe measured.
pub struct EngineProbe {
    pub counts: EngineCounts,
    pub host_ns: f64,
    /// Host time of each point, in input order.
    pub point_ns: Vec<f64>,
    pub reports: Vec<RunReport>,
}

impl EngineProbe {
    pub fn host_ns_per_op(&self) -> f64 {
        if self.counts.ops == 0 {
            0.0
        } else {
            self.host_ns / self.counts.ops as f64
        }
    }
}

/// Run every point once through `SimPlatform::run`.
pub fn engine(plat: &SimPlatform, points: &[Point], tracer: &Tracer) -> EngineProbe {
    let mut probe = EngineProbe {
        counts: EngineCounts::default(),
        host_ns: 0.0,
        point_ns: Vec::new(),
        reports: Vec::new(),
    };
    for p in points {
        let w = p.workload.build();
        let t = Instant::now();
        let m = {
            let _s = tracer.span("engine.SimPlatform::run", 0);
            plat.run(w.as_ref(), p.pp, p.mix)
        }
        .expect("a point the workload already measured runs again");
        let ns = t.elapsed().as_nanos() as f64;
        probe.host_ns += ns;
        probe.point_ns.push(ns);
        probe.counts.add_report(&m.report);
        probe.reports.push(m.report);
    }
    probe
}

/// Host ns per memory op of generating the points' op streams: each job's
/// stream is rebuilt exactly as the platform builds it and drained through
/// `AccessStream::next_batch` for as many loads and stores as the job
/// retired in `reports`.
pub fn opgen(plat: &SimPlatform, points: &[Point], reports: &[RunReport], tracer: &Tracer) -> f64 {
    let cfg = plat.cfg();
    let mut ns = 0.0;
    let mut ops = 0u64;
    let mut buf: Vec<Op> = Vec::with_capacity(OP_BATCH);
    for (p, report) in points.iter().zip(reports) {
        let w = p.workload.build();
        let mut machine = Machine::new(cfg.clone());
        let map = RankMap::new(cfg, w.ranks(), p.pp);
        let mut jobs = w.build(&mut machine, &map);
        jobs.extend(p.mix.build_jobs(&mut machine, &map.free_cores()));
        for (job, jr) in jobs.iter_mut().zip(&report.jobs) {
            let want = jr.counters.loads + jr.counters.stores;
            let mut got = 0u64;
            let t = Instant::now();
            let _s = tracer.span("opgen.next_batch", 0);
            'drain: while got < want {
                buf.clear();
                job.stream.next_batch(&mut buf, OP_BATCH);
                if buf.is_empty() {
                    break;
                }
                for op in &buf {
                    match op {
                        Op::Load(_) | Op::Store(_) => got += 1,
                        Op::Done => break 'drain,
                        _ => {}
                    }
                }
            }
            std::hint::black_box(&buf);
            ns += t.elapsed().as_nanos() as f64;
            ops += got;
        }
    }
    if ops == 0 {
        0.0
    } else {
        ns / ops as f64
    }
}

/// Curve-pass costs: (trace ns per access, stackdist ns per access,
/// accesses traversed).
pub fn curves(reqs: &[CurveRequest], tracer: &Tracer) -> (f64, f64, u64) {
    let (mut trace_ns, mut sd_ns, mut accesses) = (0.0, 0.0, 0u64);
    for r in reqs {
        let probe = ProbeCfg {
            dist: r.dist,
            buffer_bytes: r.buffer_bytes,
            adds_per_load: 1,
            warm_accesses: r.warm_accesses,
            measure_accesses: r.measure_accesses,
            mlp: 2,
            seed: r.seed,
        };
        let t = Instant::now();
        let trace = {
            let _s = tracer.span("curve.line_trace", 0);
            amem_probes::trace::line_trace(&probe, r.line_bytes)
        };
        trace_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let hist = {
            let _s = tracer.span("stackdist.compute", 0);
            StackDistHistogram::compute(&trace, 1.0)
        };
        sd_ns += t.elapsed().as_nanos() as f64;
        std::hint::black_box(&hist);
        accesses += trace.lines.len() as u64;
    }
    if accesses == 0 {
        return (0.0, 0.0, 0);
    }
    (
        trace_ns / accesses as f64,
        sd_ns / accesses as f64,
        accesses,
    )
}

/// The executor's on-disk entry layouts, decoded as the executor does.
#[derive(Deserialize)]
#[allow(dead_code)]
struct DiskEntry {
    schema_version: u32,
    key: String,
    measurement: Measurement,
}

#[derive(Deserialize)]
#[allow(dead_code)]
struct CurveDiskEntry {
    schema_version: u32,
    key: String,
    curve: MissRatioCurve,
}

/// Per-call executor costs over a cache dir a pass filled: time
/// `request_key`, then a disk hit and a memory hit through a fresh
/// executor, for every measure point and curve; then decode each entry
/// file with the vendored serde_json. Returns whether every one of those
/// entry files was found and decoded: the file layout is the executor's,
/// so a change to it must fail the run rather than report no decodes.
pub fn exec(
    plat: &SimPlatform,
    dir: &Path,
    specs: &[JobSpec],
    tracer: &Tracer,
    out: &mut Metrics,
) -> bool {
    let ex = Executor::with_cache_dir(plat.clone(), dir);
    let (mut key, mut mem, mut disk, mut decode, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut paths = Vec::new();
    let timed = |v: &mut Vec<f64>, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        let _s = tracer.span(name, 0);
        f();
        v.push(t.elapsed().as_secs_f64() * 1e6);
    };
    for spec in specs {
        match spec {
            JobSpec::Measure {
                workload,
                per_processor,
                mix,
                ..
            } => {
                let w = workload.build();
                let mut k = None;
                timed(&mut key, "exec.request_key", &mut || {
                    k = ex.request_key(w.as_ref(), *per_processor, *mix)
                });
                let k = k.expect("simulated points are cacheable");
                paths.push((
                    dir.join(format!("{:016x}.json", fnv1a(k.as_bytes()))),
                    false,
                ));
                for v in [&mut disk, &mut mem] {
                    timed(v, "exec.run", &mut || {
                        ex.run(w.as_ref(), *per_processor, *mix)
                            .expect("stored point reloads");
                    });
                }
            }
            JobSpec::Curve { request } => {
                let k = ex.curve_request_key(request).expect("curves are cacheable");
                paths.push((dir.join(format!("{:016x}.json", fnv1a(k.as_bytes()))), true));
                for v in [&mut disk, &mut mem] {
                    timed(v, "exec.run_curve", &mut || {
                        ex.run_curve(request).expect("stored curve reloads");
                    });
                }
            }
            _ => {}
        }
    }
    let s: CacheStats = ex.stats();
    assert_eq!(
        s.sim_runs, 0,
        "the executor probe reads only stored entries"
    );
    let mut decoded = 0;
    for (path, is_curve) in &paths {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        bytes.push(text.len() as f64);
        let mut ok = false;
        timed(&mut decode, "exec.decode", &mut || {
            ok = if *is_curve {
                serde_json::from_str::<CurveDiskEntry>(&text).is_ok()
            } else {
                serde_json::from_str::<DiskEntry>(&text).is_ok()
            };
        });
        decoded += usize::from(ok);
    }
    out.put("exec.key_us_p50", median(&key), "us");
    out.put("exec.mem_hit_us_p50", median(&mem), "us");
    out.put("exec.disk_hit_us_p50", median(&disk), "us");
    out.put("exec.decode_us_p50", median(&decode), "us");
    out.put("exec.entry_bytes_mean", mean(&bytes), "bytes");
    let probed = specs
        .iter()
        .filter(|s| matches!(s, JobSpec::Measure { .. } | JobSpec::Curve { .. }))
        .count();
    probed > 0 && paths.len() == probed && decoded == probed
}

/// Executor outcome counts, measurement and curve requests together.
pub fn exec_counts(s: &CacheStats, out: &mut Metrics) -> BTreeMap<&'static str, u64> {
    let c = s.curves.unwrap_or_default();
    let counts = BTreeMap::from([
        ("exec.sim_runs", s.sim_runs + c.runs),
        ("exec.disk_hits", s.disk_hits + c.disk_hits),
        ("exec.mem_hits", s.mem_hits + c.mem_hits),
        ("exec.dedup_hits", s.dedup_hits + c.dedup_hits),
        ("exec.stores", s.stores + c.stores),
    ]);
    for (k, v) in &counts {
        out.count(k, *v);
    }
    let lookups = s.lookups() + c.lookups();
    let hits = s.hits() + c.hits();
    out.put(
        "exec.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    counts
}

/// Counter-wise `after - before` of two executor snapshots.
pub fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    cache_zip(after, before, u64::saturating_sub)
}

/// Counter-wise sum of two executor snapshots.
pub fn cache_sum(a: &CacheStats, b: &CacheStats) -> CacheStats {
    cache_zip(a, b, u64::saturating_add)
}

fn cache_zip(a: &CacheStats, b: &CacheStats, f: fn(u64, u64) -> u64) -> CacheStats {
    let (ca, cb) = (a.curves(), b.curves());
    CacheStats {
        sim_runs: f(a.sim_runs, b.sim_runs),
        mem_hits: f(a.mem_hits, b.mem_hits),
        disk_hits: f(a.disk_hits, b.disk_hits),
        dedup_hits: f(a.dedup_hits, b.dedup_hits),
        stores: f(a.stores, b.stores),
        curves: Some(amem_core::CurveCacheStats {
            runs: f(ca.runs, cb.runs),
            mem_hits: f(ca.mem_hits, cb.mem_hits),
            disk_hits: f(ca.disk_hits, cb.disk_hits),
            dedup_hits: f(ca.dedup_hits, cb.dedup_hits),
            stores: f(ca.stores, cb.stores),
        }),
    }
}
