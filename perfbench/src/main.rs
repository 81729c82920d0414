//! End-to-end and per-layer benchmark of the active-mem workspace.
//!
//! ```text
//! perfbench --workload <sim_cold|warm_replay|serve_open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process and prints a human-readable report
//! followed, as the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, from an untraced timed window. With
//! `--trace 1` they are the per-layer ones, from fixed-count untraced and
//! traced passes over the same seeded requests, and the spans are written
//! to `.bench_out/trace-<workload>-seed<n>.json` (Perfetto-loadable).
//! See README.md in this directory for what each metric should move.

mod layers;
mod request;
mod serve_open;
mod sim_cold;
mod trace;
mod util;
mod warm_replay;

use std::path::PathBuf;

use layers::Metrics;
use trace::Tracer;
use util::{fast_rate, fast_time, median, percentile, HostTags, RunDir, Units};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not reach reports 0 (see README.md for which layers each one reaches).
const PER_LAYER: [(&str, &str); 43] = [
    ("engine.host_ns_per_op", "ns/op"),
    ("engine.ops", "count"),
    ("l1.misses", "count"),
    ("l2.misses", "count"),
    ("l3.misses", "count"),
    ("dram.lines", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.dropped", "count"),
    ("l3.back_invalidations", "count"),
    ("tlb.misses", "count"),
    ("opgen.ns_per_op", "ns/op"),
    ("proc.cpu_s", "s"),
    ("proc.ctx_switches", "count"),
    ("sweep.wall_ms_p50", "ms"),
    ("sweep.fanout_eff", "ratio"),
    ("exec.key_us_p50", "us"),
    ("exec.mem_hit_us_p50", "us"),
    ("exec.disk_hit_us_p50", "us"),
    ("exec.decode_us_p50", "us"),
    ("exec.entry_bytes_mean", "bytes"),
    ("exec.sim_runs", "count"),
    ("exec.disk_hits", "count"),
    ("exec.mem_hits", "count"),
    ("exec.dedup_hits", "count"),
    ("exec.stores", "count"),
    ("exec.hit_ratio", "ratio"),
    ("curve.trace_ns_per_access", "ns"),
    ("stackdist.ns_per_access", "ns"),
    ("curve.accesses", "count"),
    ("serve.encode_us_p50", "us"),
    ("serve.decode_us_p50", "us"),
    ("serve.response_bytes_mean", "bytes"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p90_us", "us"),
    ("serve.quota_deferrals", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("bench.gen_lag_p90_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_ms_request", "ms"),
    ("trace.self_ms_exec", "ms"),
    ("trace.self_ms_sweep", "ms"),
    ("trace.self_ms_serve", "ms"),
];

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
}

/// What a workload run produced: request counts, checks, and metrics.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<(bool, String)>,
    metrics: Metrics,
    notes: Metrics,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            checks: Vec::new(),
            metrics: Metrics::default(),
            notes: Metrics::default(),
        }
    }

    /// A correctness condition of the run; any false one fails it.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks.push((ok, what.into()));
    }

    /// The end-to-end metrics of an untraced window. `setup_s` holds the
    /// set-up repetitions, reported as their median; `lat_ms` the p50 and
    /// p90 request latency; and `samples` the requests behind them.
    pub fn e2e(&mut self, setup_s: &[f64], results_per_s: f64, lat_ms: [f64; 2], samples: u64) {
        let m = &mut self.metrics;
        m.put("setup_s", median(setup_s), "s");
        m.put("results_per_s", results_per_s, "1/s");
        m.put("lat_p50_ms", lat_ms[0], "ms");
        m.put("lat_p90_ms", lat_ms[1], "ms");
        self.note("lat_samples", samples as f64, "count");
        self.note("setup_repeats", setup_s.len() as f64, "count");
    }

    /// [`Outcome::e2e`] from a window's identical units of work: each
    /// figure is the one the fastest tenth of units reach, and the medians
    /// over units are printed as report lines.
    pub fn e2e_units(&mut self, setup_s: &[f64], units: &Units, samples: u64) {
        self.e2e(
            setup_s,
            fast_rate(&units.rate),
            [fast_time(&units.p50_ms), fast_time(&units.p90_ms)],
            samples,
        );
        self.note("units", units.rate.len() as f64, "count");
        self.note("results_per_s.median", median(&units.rate), "1/s");
        self.note("lat_p50_ms.median", median(&units.p50_ms), "ms");
        self.note("lat_p90_ms.median", median(&units.p90_ms), "ms");
    }

    /// p50, p90 and sample count of one request class, as report lines,
    /// so it shows which class each end-to-end percentile falls in.
    pub fn class_latency(&mut self, class: &str, lat_ms: &[f64]) {
        self.note(&format!("{class}.requests"), lat_ms.len() as f64, "count");
        self.note(&format!("{class}.lat_p50_ms"), percentile(lat_ms, 0.5), "ms");
        self.note(&format!("{class}.lat_p90_ms"), percentile(lat_ms, 0.9), "ms");
    }

    /// A result-line metric the workload measures itself.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }

    pub fn layers(&mut self, m: Metrics) {
        self.metrics.0.extend(m.0);
    }

    /// A figure printed in the report but not in the result line.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.put(name, value, unit);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sim_cold|warm_replay|serve_open> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = get("--workload");
    let seed = get("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    let traced = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage();
    }
    Ctx {
        workload,
        seed,
        seconds,
        traced,
        tracer: Tracer::new(traced),
    }
}

/// Run the program at its defaults: no `AMEM_*` knob and no rayon thread
/// count may reach it.
fn strip_env() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("AMEM_") || k == "RAYON_NUM_THREADS")
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

fn main() {
    let stripped = strip_env();
    let ctx = parse_args();
    let run: fn(&Ctx, &RunDir) -> Outcome = match ctx.workload.as_str() {
        "sim_cold" => sim_cold::run,
        "warm_replay" => warm_replay::run,
        "serve_open" => serve_open::run,
        _ => usage(),
    };
    let tags = HostTags::detect();
    println!(
        "# workload: {}  seed: {}  seconds: {}  trace: {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    println!(
        "# host: {} ({} cores)  git: {}",
        tags.cpu_model, tags.cores, tags.git_sha
    );
    if !stripped.is_empty() {
        println!("# removed from the environment: {}", stripped.join(", "));
    }

    let dir = RunDir::create(&ctx.workload, ctx.seed).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the run directory: {e}");
        std::process::exit(1)
    });
    let mut o = run(&ctx, &dir);
    drop(dir);

    let (list, metrics): (&[(&str, &str)], Metrics) = if ctx.traced {
        let spans = ctx.tracer.spans();
        let named = trace::by_name(&spans);
        println!("# spans by name: count, total ms, self ms");
        for (name, (n, total, own)) in &named {
            println!(
                "#   {name:<28} {n:>7} {:>11.3} {:>11.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        let self_ms = |prefix: &str| {
            named
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v.2 as f64 / 1e6)
                .fold(0.0, |a, b| a + b)
        };
        let mut m = std::mem::take(&mut o.metrics);
        m.put("trace.self_ms_request", self_ms("request"), "ms");
        m.put("trace.self_ms_exec", self_ms("exec."), "ms");
        m.put("trace.self_ms_sweep", self_ms("sweep."), "ms");
        m.put("trace.self_ms_serve", self_ms("serve."), "ms");
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        match ctx.tracer.write_chrome(&path) {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => o.check(false, format!("write trace: {e}")),
        }
        (&PER_LAYER, m)
    } else {
        let mut m = std::mem::take(&mut o.metrics);
        // Peak RSS of the whole process, unless the workload read it at a
        // fixed point of its work.
        if !m.0.iter().any(|(n, _, _)| n == "peak_rss_mb") {
            m.put("peak_rss_mb", util::peak_rss_mb(), "MB");
        }
        (&END_TO_END, m)
    };

    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.note("fail_frac", fail_frac, "ratio");
    for (name, v, unit) in &o.notes.0 {
        println!("# {name} = {v} {unit}");
    }
    let mut correct = o.failed == 0 && o.attempted > 0;
    for (ok, what) in &o.checks {
        println!("# check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    let mut fields = Vec::new();
    for (name, unit) in list {
        let v = metrics
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1)
            .unwrap_or(0.0);
        let v = if v.is_finite() {
            v
        } else {
            correct = false;
            0.0
        };
        println!("{name} = {v} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, _, _) in &metrics.0 {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        fields.join(", ")
    );
}
