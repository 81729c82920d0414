//! One request model for every workload: the daemon's [`JobSpec`], run
//! either through the library (`Executor::run`, `run_sweep`,
//! `Executor::run_curve`) or through `amem_serve::Client`.

use std::sync::Arc;

use amem_core::curve::{CurveMode, CurveRequest};
use amem_core::sweep::run_sweep;
use amem_core::{AmemError, Executor, Measurement, MissRatioCurve, Sweep};
use amem_interfere::{InterferenceKind, InterferenceMix};
use amem_miniapps::McbCfg;
use amem_probes::dist::table2;
use amem_probes::probe::ProbeCfg;
use amem_serve::{JobResult, JobSpec, WorkloadSpec};
use amem_sim::config::MachineConfig;
use amem_sim::rng::Xoshiro256;

use crate::trace::Tracer;

/// The simulated machine every workload measures on: the paper's
/// 20 MB-L3 Xeon scaled to 1/64 (a 320 KB L3), so one request costs
/// milliseconds to a few hundred milliseconds of host time.
pub fn machine() -> MachineConfig {
    MachineConfig::xeon20mb().scaled(1.0 / 64.0)
}

/// Capacities (lines) every curve request evaluates: 1/16 to 2× the L3.
pub fn curve_ladder(m: &MachineConfig) -> Vec<u64> {
    let l3 = m.l3.lines();
    [16, 8, 4, 2, 1]
        .iter()
        .map(|d| l3 / d)
        .chain([l3 * 3 / 2, l3 * 2])
        .collect()
}

/// Probe buffer sizes relative to the L3: L3-resident to DRAM-bound.
pub const RATIOS: [f64; 3] = [0.5, 1.0, 2.0];

/// The `n`-th probe of a request list: Table II distributions taken in
/// turn, so every seed gets the same mix of access patterns, and a seeded
/// RNG stream of its own, so no two requests share a key.
pub fn probe(m: &MachineConfig, rng: &mut Xoshiro256, ratio: f64, n: usize) -> ProbeCfg {
    let dists = table2();
    ProbeCfg {
        seed: rng.next_u64(),
        ..ProbeCfg::for_machine(m, dists[n % dists.len()].dist, ratio, 1)
    }
}

pub fn measure(
    m: &MachineConfig,
    workload: WorkloadSpec,
    pp: usize,
    mix: InterferenceMix,
) -> JobSpec {
    JobSpec::Measure {
        machine: m.clone(),
        workload,
        per_processor: pp,
        mix,
    }
}

pub fn probe_sweep(m: &MachineConfig, p: ProbeCfg, kind: InterferenceKind) -> JobSpec {
    JobSpec::Sweep {
        machine: m.clone(),
        workload: WorkloadSpec::Probe(p),
        per_processor: 1,
        kind,
        max_count: 2,
    }
}

pub fn curve(m: &MachineConfig, p: &ProbeCfg) -> JobSpec {
    JobSpec::Curve {
        request: CurveRequest::from_probe(
            p,
            m.l3.line_bytes as u64,
            curve_ladder(m),
            CurveMode::Exact,
        ),
    }
}

/// A fig9-style MCB point: 20k particles, 4 ranks per socket, under
/// `bw` bandwidth threads.
pub fn mcb_point(m: &MachineConfig, rng: &mut Xoshiro256, bw: usize) -> JobSpec {
    let cfg = McbCfg {
        seed: rng.next_u64(),
        ..McbCfg::new(m, 20_000)
    };
    measure(m, WorkloadSpec::Mcb(cfg), 4, InterferenceMix::bandwidth(bw))
}

/// A library result, holding the executor's shared values so a memory
/// hit costs no copy.
pub enum Out {
    Measurement(Arc<Measurement>),
    Sweep(Sweep),
    Curve(Arc<MissRatioCurve>),
}

impl Out {
    /// The payload's JSON, the bytes the daemon would send for it.
    pub fn json(&self) -> String {
        let s = match self {
            Out::Measurement(m) => serde_json::to_string(m.as_ref()),
            Out::Sweep(s) => serde_json::to_string(s),
            Out::Curve(c) => serde_json::to_string(c.as_ref()),
        };
        s.expect("library results serialize")
    }

    /// Plausibility of a result: finite times, miss rates in [0, 1], and
    /// curves whose miss ratio never rises with capacity.
    pub fn sane(&self) -> bool {
        let rate_ok = |r: f64| (0.0..=1.0).contains(&r);
        match self {
            Out::Measurement(m) => {
                m.seconds.is_finite() && m.seconds > 0.0 && rate_ok(m.l3_miss_rate)
            }
            Out::Sweep(s) => {
                !s.points.is_empty()
                    && s.points.iter().all(|p| {
                        p.seconds.is_finite() && p.seconds > 0.0 && rate_ok(p.l3_miss_rate)
                    })
            }
            Out::Curve(c) => {
                let mut pts: Vec<(f64, f64)> = c
                    .points
                    .iter()
                    .map(|p| (p.capacity_bytes, p.miss_rate))
                    .collect();
                pts.sort_by(|a, b| a.0.total_cmp(&b.0));
                !pts.is_empty()
                    && pts.iter().all(|p| rate_ok(p.1))
                    && pts.windows(2).all(|w| w[1].1 <= w[0].1)
            }
        }
    }
}

/// The payload JSON of a daemon result (same bytes as [`Out::json`]).
pub fn served_json(r: &JobResult) -> Option<String> {
    let s = match r {
        JobResult::Measurement(m) => serde_json::to_string(m),
        JobResult::Sweep(s) => serde_json::to_string(s),
        JobResult::Curve(c) => serde_json::to_string(c),
        _ => return None,
    };
    s.ok()
}

/// Run one request through the library, with a span named after the
/// entry point it calls.
pub fn call(exec: &Executor, spec: &JobSpec, tracer: &Tracer, req: u64) -> Result<Out, AmemError> {
    match spec {
        JobSpec::Measure {
            workload,
            per_processor,
            mix,
            ..
        } => {
            let w = workload.build();
            let _s = tracer.span("exec.run", req);
            exec.run(w.as_ref(), *per_processor, *mix)
                .map(Out::Measurement)
        }
        JobSpec::Sweep {
            workload,
            per_processor,
            kind,
            max_count,
            ..
        } => {
            let w = workload.build();
            let _s = tracer.span("sweep.run_sweep", req);
            run_sweep(exec, w.as_ref(), *per_processor, *kind, *max_count).map(Out::Sweep)
        }
        JobSpec::Curve { request } => {
            let _s = tracer.span("exec.run_curve", req);
            exec.run_curve(request).map(Out::Curve)
        }
        JobSpec::Calibrate { .. } => unreachable!("no workload issues calibrate jobs"),
    }
}

/// One simulated point: a workload at a mapping under a mix.
pub struct Point {
    pub workload: WorkloadSpec,
    pub pp: usize,
    pub mix: InterferenceMix,
}

/// The distinct points a request simulates when its keys are cold.
pub fn points(exec: &Executor, spec: &JobSpec) -> Vec<Point> {
    match spec {
        JobSpec::Measure {
            workload,
            per_processor,
            mix,
            ..
        } => vec![Point {
            workload: workload.clone(),
            pp: *per_processor,
            mix: *mix,
        }],
        JobSpec::Sweep {
            workload,
            per_processor,
            kind,
            max_count,
            ..
        } => {
            let w = workload.build();
            (0..=*max_count)
                .filter(|&k| exec.feasible(w.as_ref(), *per_processor, k))
                .map(|k| Point {
                    workload: workload.clone(),
                    pp: *per_processor,
                    mix: InterferenceMix::of_kind(*kind, k),
                })
                .collect()
        }
        _ => Vec::new(),
    }
}
