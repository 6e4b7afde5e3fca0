//! The harness: sets a workload up, runs its operations in a closed loop
//! with one client on one thread (the next operation starts when the
//! previous one returns), checks them, and reduces the samples to metrics.
//!
//! An untraced run produces the end-to-end metrics with the span recorder
//! off. A traced run makes one reference round without spans, repeats it
//! with spans on and the analysis entry points' `_traced` twins, then lets
//! the workload time its layers alone; it produces the per-layer metrics
//! and writes the span list.

use std::time::Instant;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self_time_by_name, Spans};
use crate::stats::{fingerprint, geomean, median, Summary};
use crate::workloads::{self, Arm, Rounds, Scenario};

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// (name, unit, value) of every metric the run owes: the end-to-end
    /// ones untraced, the per-layer ones traced.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per arm: name and wall-second summary of its operations.
    pub arms: Vec<(&'static str, Summary)>,
    /// FNV-1a over the simulated statistics of each arm's first operation.
    pub sim_fingerprint: u64,
    /// Self time per span name, traced runs only.
    pub self_times: Vec<(String, u64)>,
    /// Where the span list went, traced runs only.
    pub trace_file: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|(_, _, v)| v.is_finite())
    }
}

/// Set-ups are repeated (their median is `setup_s`) at least this often,
/// and for cheap ones until this much time is spent or the cap is reached.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// Rounds per run, whatever `--seconds` says: three samples per arm is the
/// least a median means anything for. The smoke run makes two, the least
/// that can show a repeat differing.
const MIN_ROUNDS: usize = 3;
const SMOKE_ROUNDS: usize = 2;

/// Samples and checks accumulated over rounds.
struct Tally {
    walls: Vec<Vec<f64>>,
    work: u64,
    first_sim: Vec<Option<Vec<u64>>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn new(arms: usize) -> Tally {
        Tally {
            walls: vec![Vec::new(); arms],
            work: 0,
            first_sim: vec![None; arms],
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Runs every arm's operations once over; returns the round's walls.
    fn round(
        &mut self,
        scenario: &mut dyn Scenario,
        arms: &[Arm],
        traced: bool,
        spans: &mut Spans,
    ) -> Vec<Vec<f64>> {
        let mut round = vec![Vec::new(); arms.len()];
        for (a, arm) in arms.iter().enumerate() {
            for _ in 0..arm.ops_per_round {
                spans.next_op();
                let op = scenario.op(a, traced, spans);
                self.attempted += 1;
                self.work += op.work;
                self.walls[a].push(op.wall_s);
                round[a].push(op.wall_s);
                if let Some(why) = op.error {
                    self.failures.push(format!("{}: {why}", arm.name));
                }
                match &self.first_sim[a] {
                    None => self.first_sim[a] = Some(op.sim),
                    Some(first) if *first != op.sim => self.failures.push(format!(
                        "{}: a repeat produced different simulated output",
                        arm.name
                    )),
                    Some(_) => {}
                }
            }
        }
        round
    }

    fn fingerprint(&self) -> u64 {
        fingerprint(self.first_sim.iter().flatten().flatten().copied())
    }

    fn summaries(&self, arms: &[Arm]) -> Vec<(&'static str, Summary)> {
        arms.iter()
            .zip(&self.walls)
            .map(|(arm, walls)| (arm.name, Summary::of(walls)))
            .collect()
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = if args.smoke { 20 } else { 1 };
    let min_rounds = if args.smoke { SMOKE_ROUNDS } else { MIN_ROUNDS };
    let mut spans = Spans::new(args.trace);

    // Set-up, repeated; the last one is kept and measured on.
    let mut setups = Vec::new();
    let mut scenario = loop {
        spans.next_op();
        let (scenario, wall) = spans.time("setup", |spans| {
            workloads::setup(&args.workload, args.seed, scale, spans)
        });
        let scenario = scenario.ok_or_else(|| format!("no workload called {}", args.workload))?;
        setups.push(wall);
        let spent: f64 = setups.iter().sum();
        let enough = spent >= SETUP_BUDGET_S || setups.len() >= MAX_SETUPS;
        if args.trace || (setups.len() >= MIN_SETUPS && enough) {
            break scenario;
        }
    };
    let arms = scenario.arms();

    // One untimed operation, so lazy initialisation is not sampled.
    spans.set_enabled(false);
    scenario.op(0, false, &mut spans);

    let mut tally = Tally::new(arms.len());
    if !args.trace {
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
            tally.round(scenario.as_mut(), &arms, false, &mut spans);
            rounds += 1;
        }
        // Both timings are built from per-arm medians, so one slow
        // operation moves neither: a round's work over a round's wall.
        let medians: Vec<f64> = tally.walls.iter().map(|w| median(w)).collect();
        let round_wall: f64 = arms
            .iter()
            .zip(&medians)
            .map(|(arm, m)| arm.ops_per_round as f64 * m)
            .sum();
        let values = [
            geomean(&medians),
            tally.work as f64 / rounds as f64 / round_wall / 1e3,
            peak_rss_mib(),
            median(&setups),
        ];
        return Ok(Outcome {
            attempted: tally.attempted,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|((m, _), v)| (m.name, m.unit, v))
                .collect(),
            arms: tally.summaries(&arms),
            sim_fingerprint: tally.fingerprint(),
            failures: tally.failures,
            self_times: Vec::new(),
            trace_file: None,
        });
    }

    let round_start = Instant::now();
    let untraced = tally.round(scenario.as_mut(), &arms, false, &mut spans);
    let untraced_s = round_start.elapsed().as_secs_f64();
    spans.set_enabled(true);
    let round_start = Instant::now();
    let traced = tally.round(scenario.as_mut(), &arms, true, &mut spans);
    let traced_s = round_start.elapsed().as_secs_f64();
    spans.next_op();
    let rounds = Rounds { untraced, traced };
    let (mut layers, _) = spans.time("layers", |spans| scenario.layers(&rounds, spans));
    layers.values.push((
        "bench.trace_overhead_pct".to_string(),
        (traced_s - untraced_s) / untraced_s * 100.0,
    ));
    tally.attempted += layers.attempted;
    tally.failures.append(&mut layers.failures);

    let trace_file = format!("results/bench/trace-{}.json", args.workload);
    std::fs::create_dir_all("results/bench")
        .and_then(|()| std::fs::write(&trace_file, spans.chrome_trace(&args.workload).render()))
        .map_err(|e| format!("cannot write {trace_file}: {e}"))?;

    for (name, _) in &layers.values {
        if !PER_LAYER.iter().any(|m| m.name == name) {
            tally
                .failures
                .push(format!("{name} is not a per-layer metric"));
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        // A layer this workload does not exercise reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.values.iter().find(|(n, _)| n == m.name);
                (m.name, m.unit, value.map_or(0.0, |(_, v)| *v))
            })
            .collect(),
        arms: tally.summaries(&arms),
        sim_fingerprint: tally.fingerprint(),
        failures: tally.failures,
        self_times: self_time_by_name(spans.list()),
        trace_file: Some(trace_file),
    })
}
