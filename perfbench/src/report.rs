//! Turning rounds and spans into metrics, and writing them out.

use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Span};
use crate::workloads::{Counts, Job};
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The benchmark package directory; run files go under `out/` in it.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// One pass over the job set.
#[derive(Debug, Default)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Each job's time, checks excluded.
    pub job_s: Vec<f64>,
    /// Summed job counts.
    pub counts: Counts,
    /// Failed, panicked or unverified jobs.
    pub failures: Vec<String>,
    /// This round's spans in the tracer.
    pub spans: Range<usize>,
}

impl Round {
    /// An empty round.
    pub fn new(traced: bool) -> Round {
        Round {
            traced,
            ..Round::default()
        }
    }

    /// Time to finish the job set.
    pub fn wall_s(&self) -> f64 {
        self.job_s.iter().sum()
    }
}

/// Where and on what the benchmark ran.
pub struct Env {
    /// Available cores.
    pub nproc: usize,
    /// Effective `MLAM_THREADS`.
    pub threads: usize,
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
    /// FNV-1a digest of the workspace sources the benchmark built.
    pub source_digest: String,
}

impl Env {
    /// Detects the environment. `MLAM_THREADS` defaults to 1 and may
    /// not exceed the core count: one job runs at a time, and worker
    /// threads beyond the cores would only measure contention.
    pub fn detect() -> Result<Env, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if std::env::var_os("MLAM_THREADS").is_none() {
            std::env::set_var("MLAM_THREADS", "1");
        }
        let threads = mlam_par::threads();
        if threads > nproc {
            return Err(format!(
                "MLAM_THREADS={threads} exceeds the {nproc} available cores"
            ));
        }
        let root = Path::new(PACKAGE_DIR).join("..");
        Ok(Env {
            nproc,
            threads,
            commit: git_commit(&root).unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(&root),
        })
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    // Only the repository rooted at this checkout counts, not one that
    // happens to enclose it.
    let top = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    if top.canonicalize().ok()? != root.canonicalize().ok()? {
        return None;
    }
    git(&["rev-parse", "HEAD"])
}

/// FNV-1a over the paths and contents of the workspace manifests and
/// sources, so results name the code they measured without git.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for rel in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(&root.join(rel), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            let keep = p.is_dir() && p.file_name().is_some_and(|n| n != "target")
                || p.extension().is_some_and(|x| x == "rs" || x == "toml");
            if keep {
                collect_files(&p, out);
            }
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run reports.
pub struct Metrics {
    /// The metadata line printed before the result.
    pub meta: String,
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed_jobs: usize,
    /// One line per failed job or count drift.
    pub failures: Vec<String>,
    counts: Counts,
    file_stem: String,
    counts_key: String,
    source_digest: String,
}

impl Metrics {
    /// Computes the metrics of a run.
    pub fn new(
        env: &Env,
        args: &Args,
        jobs: &[Job],
        rounds: &[Round],
        setup_s: &[f64],
        spans: &[Span],
    ) -> Metrics {
        let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let attempted = rounds.iter().map(|r| r.job_s.len()).sum::<usize>();
        let mut failures: Vec<String> = rounds
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.failures.iter().map(move |f| format!("round {i}, {f}")))
            .collect();
        let failed_jobs = failures.len();

        // Deterministic counts: every round must repeat the first.
        let counts = rounds[0].counts.clone();
        for (i, r) in rounds.iter().enumerate().skip(1) {
            if let Some(d) = count_drift(&counts, &r.counts) {
                failures.push(format!("count drift in round {i}: {d}"));
            }
        }

        let n_jobs = jobs.len() as f64;
        let c = |name: &str| counts.get(name).copied().unwrap_or(0.0);
        let plain_jobs = per_job_median(&plain);
        let plain_wall: f64 = plain_jobs.iter().sum();
        let end_to_end = vec![
            ("wall_s", plain_wall, "s"),
            ("job_p50_s", median(&plain_jobs), "s"),
            ("setup_s", median(setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "success_rate",
                1.0 - failed_jobs as f64 / attempted as f64,
                "ratio",
            ),
            ("queries_per_job", c("queries") / n_jobs, "count"),
            (
                "accuracy",
                ratio(c("accuracy_sum"), c("accuracy_n")),
                "ratio",
            ),
        ];

        let mut per_layer = Vec::new();
        let mut dip_samples = 0;
        if !traced.is_empty() {
            let layer = LayerTimes::new(&traced, spans);
            let s = |name: &str| layer.seconds(name);
            let (dip_p50, dip_p99, growth, samples) = dip_latency(&traced, spans);
            dip_samples = samples;
            let traced_wall: f64 = per_job_median(&traced).iter().sum();
            per_layer = vec![
                ("locking.miter_s", s("locking.miter"), "s"),
                ("locking.find_dip_s", s("locking.find_dip"), "s"),
                ("locking.constrain_s", s("locking.constrain"), "s"),
                ("locking.key_s", s("locking.key"), "s"),
                ("locking.dips", c("locking.dips"), "count"),
                ("locking.dip_p50_ms", dip_p50, "ms"),
                ("locking.dip_p99_ms", dip_p99, "ms"),
                ("locking.dip_growth", growth, "ratio"),
                ("locking.appsat_s", s("locking.appsat"), "s"),
                ("locking.appsat_dips", c("locking.appsat_dips"), "count"),
                (
                    "locking.appsat_queries",
                    c("locking.appsat_queries"),
                    "count",
                ),
                ("sat.solve_calls", c("sat.solve_calls"), "count"),
                ("sat.propagations", c("sat.propagations"), "count"),
                ("sat.conflicts", c("sat.conflicts"), "count"),
                ("sat.decisions", c("sat.decisions"), "count"),
                ("sat.learnts", c("sat.learnts"), "count"),
                (
                    "sat.props_per_call",
                    ratio(c("sat.propagations"), c("sat.solve_calls")),
                    "count",
                ),
                (
                    "sat.conflicts_per_call",
                    ratio(c("sat.conflicts"), c("sat.solve_calls")),
                    "count",
                ),
                (
                    "sat.props_per_s",
                    ratio(
                        c("sat.dip_loop_propagations"),
                        s("locking.find_dip") + s("locking.key"),
                    ),
                    "1/s",
                ),
                ("netlist.sim_s", s("netlist.sim"), "s"),
                ("netlist.sim_calls", c("netlist.sim_calls"), "count"),
                ("netlist.bdd_s", s("netlist.bdd"), "s"),
                ("netlist.encode_s", s("netlist.encode"), "s"),
                ("learn.features_s", s("learn.features"), "s"),
                (
                    "learn.train_s",
                    s("learn.train_perceptron") + s("learn.train_logistic"),
                    "s",
                ),
                ("learn.epochs", c("learn.epochs"), "count"),
                ("learn.mistakes", c("learn.mistakes"), "count"),
                (
                    "learn.mistakes_per_s",
                    ratio(c("learn.mistakes"), s("learn.train_perceptron")),
                    "1/s",
                ),
                ("learn.eval_s", s("learn.eval"), "s"),
                ("boolean.tester_s", s("boolean.tester"), "s"),
                ("boolean.chow_s", s("boolean.chow"), "s"),
                ("boolean.pocket_s", s("boolean.pocket"), "s"),
                ("boolean.examples", c("boolean.examples"), "count"),
                ("puf.eval_s", s("puf.eval"), "s"),
                ("puf.crps", c("puf.crps"), "count"),
                ("puf.crps_per_s", ratio(c("puf.crps"), s("puf.eval")), "1/s"),
                ("locking.self_s", layer.self_seconds("locking"), "s"),
                ("netlist.self_s", layer.self_seconds("netlist"), "s"),
                ("learn.self_s", layer.self_seconds("learn"), "s"),
                ("boolean.self_s", layer.self_seconds("boolean"), "s"),
                ("puf.self_s", layer.self_seconds("puf"), "s"),
                ("bench.self_s", layer.self_seconds("bench"), "s"),
                ("trace.job_s", traced_wall, "s"),
                (
                    "trace.overhead_pct",
                    100.0 * (ratio(traced_wall, plain_wall) - 1.0),
                    "%",
                ),
            ];
        }

        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"mlam_threads\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"jobs_per_round\": {}, \
             \"rounds\": {}, \"traced_rounds\": {}, \"jobs_timed\": {}, \"setup_samples_s\": {:?}, \"attempted\": {}, \
             \"failed\": {}, \"dip_samples\": {}, \"round_wall_s\": {:?}, \"end_to_end\": {}}}}}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            env.nproc,
            env.threads,
            env.commit,
            env.source_digest,
            jobs.len(),
            rounds.len(),
            traced.len(),
            plain.len() * jobs.len(),
            setup_s,
            attempted,
            failed_jobs,
            dip_samples,
            rounds.iter().map(Round::wall_s).collect::<Vec<_>>(),
            metrics_json(&end_to_end),
        );
        Metrics {
            meta,
            end_to_end,
            per_layer,
            attempted,
            failed_jobs,
            failures,
            counts,
            file_stem: format!(
                "{}-seed{}-trace{}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            ),
            counts_key: format!(
                "{}-seed{}-threads{}",
                args.workload.name(),
                args.seed,
                env.threads
            ),
            source_digest: env.source_digest.clone(),
        }
    }

    /// The result line: end-to-end metrics, or per-layer when traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed_jobs,
            metrics_json(metrics)
        )
    }

    /// Writes the run's files under `out/`: the metadata and result,
    /// the spans of a traced run, and the deterministic counts, which
    /// are compared with those of an earlier run at the same seed,
    /// thread count and sources (a mismatch is reported as drift).
    pub fn write_files(&mut self, spans: Option<&[Span]>) {
        let dir = Path::new(PACKAGE_DIR).join("out");
        let write = |name: String, body: String| {
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(&name), body))
            {
                eprintln!("perfbench: cannot write out/{name}: {e}");
            }
        };
        let traced = spans.is_some();
        write(
            format!("{}.json", self.file_stem),
            format!("{}\n{}\n", self.meta, self.result_json(traced)),
        );
        if let Some(spans) = spans {
            write(
                format!("{}.spans.json", self.file_stem),
                trace::chrome_json(spans),
            );
        }
        let mut body = format!("source_digest {}\n", self.source_digest);
        for (k, v) in &self.counts {
            let _ = writeln!(body, "{k} {v}");
        }
        let name = format!("counts-{}.txt", self.counts_key);
        match std::fs::read_to_string(dir.join(&name)) {
            Ok(prev) if prev.lines().next() == body.lines().next() => {
                if prev != body {
                    self.failures.push(format!(
                        "count drift against out/{name} from an earlier run"
                    ));
                }
            }
            _ => write(name, body),
        }
    }
}

/// The first count that differs between two rounds, if any.
fn count_drift(a: &Counts, b: &Counts) -> Option<String> {
    let names: std::collections::BTreeSet<&&str> = a.keys().chain(b.keys()).collect();
    names.into_iter().find_map(|k| {
        let (x, y) = (a.get(*k), b.get(*k));
        (x.map(|v| v.to_bits()) != y.map(|v| v.to_bits())).then(|| format!("{k}: {x:?} vs {y:?}"))
    })
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Each job's median time over `rounds`: one slow round (a noisy
/// neighbour, a page-fault storm) moves no job's figure.
fn per_job_median(rounds: &[&Round]) -> Vec<f64> {
    let jobs = rounds.first().map_or(0, |r| r.job_s.len());
    (0..jobs)
        .map(|j| median(&rounds.iter().map(|r| r.job_s[j]).collect::<Vec<_>>()))
        .collect()
}

/// Per-round span totals of the traced rounds.
struct LayerTimes {
    by_name: Vec<BTreeMap<&'static str, u64>>,
    self_by_layer: Vec<BTreeMap<&'static str, u64>>,
}

impl LayerTimes {
    fn new(traced: &[&Round], spans: &[Span]) -> LayerTimes {
        let mut by_name = Vec::new();
        let mut self_by_layer = Vec::new();
        for r in traced {
            let round = &spans[r.spans.clone()];
            let selfs = trace::self_time_by_layer(round);
            let jobs_ns: u64 = round
                .iter()
                .filter(|s| s.name == trace::JOB_SPAN)
                .map(Span::dur_ns)
                .sum();
            // An identity, not a check: `bench` self time is the job time
            // minus its layer spans, so the sum is the job time by
            // construction. What the layer spans cover shows in how small
            // `bench.self_s` is.
            debug_assert_eq!(selfs.values().sum::<u64>(), jobs_ns);
            by_name.push(trace::total_by_name(round));
            self_by_layer.push(selfs);
        }
        LayerTimes {
            by_name,
            self_by_layer,
        }
    }

    /// Median over traced rounds of the time in spans called `name`.
    fn seconds(&self, name: &str) -> f64 {
        per_round_median(&self.by_name, name)
    }

    /// Median over traced rounds of `layer`'s self time.
    fn self_seconds(&self, layer: &str) -> f64 {
        per_round_median(&self.self_by_layer, layer)
    }
}

fn per_round_median(rounds: &[BTreeMap<&'static str, u64>], key: &str) -> f64 {
    let v: Vec<f64> = rounds
        .iter()
        .map(|m| m.get(key).copied().unwrap_or(0) as f64 / 1e9)
        .collect();
    median(&v)
}

/// DIP latency over every traced `find_dip` call that found a DIP:
/// p50 and p99 in ms, the growth ratio (median latency of each job's
/// last decile of DIPs over its first decile, pooled), and the sample
/// count.
fn dip_latency(traced: &[&Round], spans: &[Span]) -> (f64, f64, f64, usize) {
    let mut all = Vec::new();
    let mut first = Vec::new();
    let mut last = Vec::new();
    for r in traced {
        let mut by_job: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in spans[r.spans.clone()]
            .iter()
            .filter(|s| s.name == "locking.find_dip")
        {
            by_job.entry(s.job).or_default().push(s);
        }
        for calls in by_job.values_mut() {
            calls.sort_by_key(|s| s.arg);
            // The last call proves that no DIP is left.
            calls.pop();
            let n = calls.len();
            for (i, s) in calls.iter().enumerate() {
                let ms = s.dur_ns() as f64 / 1e6;
                all.push(ms);
                match i * 10 / n.max(1) {
                    0 => first.push(ms),
                    9 => last.push(ms),
                    _ => {}
                }
            }
        }
    }
    let growth = ratio(median(&last), median(&first));
    (
        median(&all),
        quantile(&all, 0.99).unwrap_or(0.0),
        growth,
        all.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_names_the_first_differing_count() {
        let a: Counts = [("x", 1.0), ("y", 2.0)].into_iter().collect();
        let mut b = a.clone();
        assert_eq!(count_drift(&a, &b), None);
        b.insert("y", 3.0);
        assert!(count_drift(&a, &b).expect("drift").starts_with("y:"));
        b.remove("y");
        assert!(count_drift(&a, &b).is_some());
    }

    #[test]
    fn metrics_print_every_digit_and_no_nan() {
        let m = [("a", 0.1 + 0.2, "s"), ("b", f64::NAN, "count")];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn dip_growth_compares_last_and_first_deciles() {
        let mut spans = Vec::new();
        // One job, 20 DIPs taking 1..=20 ms, plus the final UNSAT call.
        for arg in 1..=21u32 {
            let ms = if arg == 21 { 500 } else { u64::from(arg) };
            spans.push(Span {
                id: arg,
                parent: Some(0),
                name: "locking.find_dip",
                job: 0,
                arg,
                start_ns: 0,
                end_ns: ms * 1_000_000,
            });
        }
        let round = Round {
            traced: true,
            spans: 0..spans.len(),
            ..Round::default()
        };
        let (p50, p99, growth, n) = dip_latency(&[&round], &spans);
        assert_eq!(n, 20);
        assert_eq!(p50, 10.5);
        assert!(p99 < 20.0 + 1e-9);
        // First decile {1, 2}, last decile {19, 20}.
        assert_eq!(growth, 19.5 / 1.5);
    }
}
