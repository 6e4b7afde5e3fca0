//! The six workloads: what each sets up, what one operation of each runs
//! and checks, and which layers its traced run takes apart.

use std::hint::black_box;

use crate::spans::Spans;
use crate::stats::{fingerprint, median};
use crate::surface::{
    self, Budget, EngineCounters, Fleet, NfChain, NfSpec, Packet, Recorded, Replay, Replayed,
    Synthesis, Workload, WorkloadKind,
};

/// One timed arm of a workload: an operation and how often a round runs it.
#[derive(Clone, Copy, Debug)]
pub struct Arm {
    pub name: &'static str,
    pub ops_per_round: usize,
}

/// What one operation reports back to the harness.
pub struct Op {
    /// Wall seconds of the timed call (boots and checks are outside it).
    pub wall_s: f64,
    /// Engine steps (synthesis) or simulated packets (replay) it did.
    pub work: u64,
    /// Its simulated statistics; a repeat must produce the same words.
    pub sim: Vec<u64>,
    /// Why the operation counts as failed, if it does.
    pub error: Option<String>,
}

/// Per-arm wall seconds of the two rounds a traced run makes.
pub struct Rounds {
    pub untraced: Vec<Vec<f64>>,
    pub traced: Vec<Vec<f64>>,
}

impl Rounds {
    fn untraced_s(&self, arm: usize) -> f64 {
        median(&self.untraced[arm])
    }
}

/// Per-layer values of a traced run, plus the extra checks made while
/// measuring them.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(String, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub trait Scenario {
    fn arms(&self) -> Vec<Arm>;
    /// Runs one operation of `arm`. With `traced`, the `_traced` twin of
    /// the analysis entry point is used where one exists.
    fn op(&mut self, arm: usize, traced: bool, spans: &mut Spans) -> Op;
    /// The isolated layer timings and counters of the traced run.
    fn layers(&mut self, rounds: &Rounds, spans: &mut Spans) -> Layers;
}

/// Builds a workload's inputs from the seed. `scale` is 1 for a real run
/// and 20 for the smoke run, which divides packet counts and step budgets.
pub fn setup(name: &str, seed: u64, scale: u64, spans: &mut Spans) -> Option<Box<dyn Scenario>> {
    Some(match name {
        "synth-chain" => Box::new(Synth::chains(seed, scale, spans)),
        "synth-nf" => Box::new(Synth::nfs(seed, scale, spans)),
        "replay-uniform" => Box::new(Replays::uniform(seed, scale, spans)),
        "replay-castan" => Box::new(Replays::castan(seed, scale, spans)),
        "fleet-defended" => Box::new(FleetRun::new(seed, scale, spans)),
        "pipeline" => Box::new(Pipeline::new(seed, scale, spans)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Shared pieces.

/// Nanoseconds per call of `f` over `iters` calls, inside a span.
fn ns_per_call(spans: &mut Spans, name: &str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let ((), wall) = spans.time(name, |_| {
        for i in 0..iters {
            f(i);
        }
    });
    wall * 1e9 / iters.max(1) as f64
}

/// Calls a per-item layer at least this often, so a ten-packet trace is
/// timed over as many calls as a hundred-thousand-packet one.
const MIN_LAYER_CALLS: usize = 100_000;

/// Nanoseconds per item of `f` over `items`, passed over as many times as
/// [`MIN_LAYER_CALLS`] needs, inside a span.
fn ns_per_item<T>(spans: &mut Spans, name: &str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes = MIN_LAYER_CALLS.div_ceil(items.len().max(1));
    let ((), wall) = spans.time(name, |_| {
        for _ in 0..passes {
            items.iter().for_each(&mut f);
        }
    });
    wall * 1e9 / (passes * items.len()).max(1) as f64
}

/// Dispatch alone on a trace: one `queue_of_packet` per packet, and the
/// batched Toeplitz pass over bursts of 32 flows.
fn dispatch_layers(
    layers: &mut Layers,
    spans: &mut Spans,
    packets: &[Packet],
    cores: usize,
) -> f64 {
    let dispatcher = surface::dispatcher(cores);
    let dispatch_ns = ns_per_item(spans, "layer.dispatch", packets, |p| {
        black_box(surface::queue_of(&dispatcher, p));
    });
    layers.set("runtime.dispatch_ns", dispatch_ns);
    let flows = surface::flows_of(packets);
    let bursts: Vec<&[surface::Flow]> = flows.chunks(32).collect();
    let burst_ns = ns_per_item(spans, "layer.toeplitz_batch", &bursts, |b| {
        black_box(surface::queues_of(&dispatcher, b));
    });
    layers.set(
        "runtime.toeplitz_batch_ns",
        burst_ns * bursts.len() as f64 / flows.len().max(1) as f64,
    );
    dispatch_ns
}

/// Median milliseconds of `f` over `reps` calls, inside a span.
fn median_ms<R>(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| spans.time(name, |_| black_box(f())).1 * 1e3)
        .collect();
    median(&walls)
}

/// A fixed integer loop: how fast this machine is today, for reading the
/// other numbers against.
fn host_calibration(layers: &mut Layers, spans: &mut Spans) {
    let ((), wall) = spans.time("layer.calibration", |_| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    layers.set("host.calib_ms", wall * 1e3);
}

fn packet_words(packets: &[Packet]) -> u64 {
    fingerprint(packets.iter().flat_map(|p| {
        surface::packet_bytes(p)
            .chunks(8)
            .map(|c| c.iter().fold(0u64, |w, &b| (w << 8) | u64::from(b)))
            .collect::<Vec<_>>()
    }))
}

fn synthesis_words(s: &Synthesis) -> Vec<u64> {
    vec![
        s.steps,
        s.states_explored,
        s.forks,
        s.predicted_cpp,
        s.packets.len() as u64,
        packet_words(&s.packets),
    ]
}

/// An analysis must return packets, and each must survive the wire.
fn check_synthesis(s: &Synthesis) -> Option<String> {
    if s.packets.is_empty() {
        return Some("analysis returned no packets".into());
    }
    let broken = s
        .packets
        .iter()
        .filter(|p| surface::parse(&surface::packet_bytes(p)).as_ref() != Some(*p))
        .count();
    (broken > 0)
        .then(|| format!("{broken} synthesized packets do not round-trip parse(to_bytes())"))
}

/// Every injected packet is accounted for: handed to a node or dropped at
/// the front tier, and past the warm-up it is in the measurement window.
fn check_conservation(r: &Replayed, replay: Replay, fleet: bool) -> Option<String> {
    let total = replay.total_packets as u64;
    if r.delivered + r.front_dropped != total {
        return Some(format!(
            "delivered {} + front-dropped {} != injected {total}",
            r.delivered, r.front_dropped
        ));
    }
    // A node's warm-up count is the warm-up packets routed to it, so on the
    // fleet the window loses exactly the warm-up packets that were delivered.
    let window = total - replay.warmup_packets as u64;
    let ok = if fleet {
        r.measured <= window && r.measured + r.front_dropped >= window
    } else {
        r.measured == window
    };
    (!ok || r.dropped > r.measured).then(|| {
        format!(
            "measured {} (dropped {}) does not match injected {total} - warm-up {}",
            r.measured, r.dropped, replay.warmup_packets
        )
    })
}

fn engine_layers(layers: &mut Layers, c: &EngineCounters) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    layers.set("core.explore_ms", ms(c.explore_ns));
    layers.set("core.solve_ms", ms(c.solve_ns));
    layers.set("core.merge_ms", ms(c.merge_ns));
    layers.set("core.synth_ms", ms(c.synth_ns));
    layers.set("core.ns_per_step", share(c.explore_ns, c.steps));
    layers.set(
        "core.us_per_solver_query",
        share(c.solve_ns, c.solver_queries) / 1e3,
    );
    layers.set("core.solver_queries", c.solver_queries as f64);
    layers.set(
        "core.solver_unknown_share",
        share(c.solver_unknown, c.solver_queries),
    );
    layers.set(
        "core.witness_hit_share",
        share(c.witness_hits, c.witness_hits + c.witness_misses),
    );
    layers.set(
        "core.intern_hit_share",
        share(c.intern_hits, c.intern_hits + c.intern_misses),
    );
    layers.set("core.states_explored", c.states_explored as f64);
    layers.set("core.forks", c.forks as f64);
    layers.set("core.prunes", c.prunes as f64);
    layers.set("core.frontier_peak", c.frontier_peak as f64);
}

/// Share by which the traced calls were slower than the untraced ones.
fn overhead_pct(traced: &[Vec<f64>], untraced: &[Vec<f64>]) -> f64 {
    let sum = |walls: &[Vec<f64>]| walls.iter().flatten().sum::<f64>();
    let ops = |walls: &[Vec<f64>]| walls.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    let (t, u) = (sum(traced) / ops(traced), sum(untraced) / ops(untraced));
    (t - u) / u * 100.0
}

/// The per-packet layers of the dataplane, driven alone on the traffic of
/// one replay arm: parse and build, dispatch, interpreter, cache hierarchy,
/// handoff. Returns the per-packet nanoseconds the run path itself spends
/// in them (parse and build are not on it).
fn dataplane_layers(
    layers: &mut Layers,
    spans: &mut Spans,
    chain: &NfChain,
    workload: &Workload,
    replay: Replay,
    cores: usize,
) -> f64 {
    let bytes: Vec<Vec<u8>> = workload.packets.iter().map(surface::packet_bytes).collect();
    let parse_ns = ns_per_item(spans, "layer.parse", &bytes, |b| {
        black_box(surface::parse(b));
    });
    layers.set("packet.parse_ns", parse_ns);
    let build_ns = ns_per_call(spans, "layer.build", 50_000, |i| {
        black_box(surface::build_packet(i));
    });
    layers.set("packet.build_ns", build_ns);
    let dispatch_ns = dispatch_layers(layers, spans, &workload.packets, cores);

    let total = replay.total_packets;
    let (rec, _): (Recorded, f64) = spans.time("layer.record", |_| {
        surface::record_chain_execution(chain, workload, total)
    });
    let (steps, interp_s) =
        spans.time("layer.interp", |_| surface::replay_interpreter(chain, &rec));
    let (_, handoff_s) = spans.time("layer.handoff", |_| {
        black_box(surface::replay_handoffs(chain, &rec))
    });
    let (misses, mem_s) = spans.time("layer.mem", |_| surface::replay_accesses(&rec, replay.seed));
    let per_pkt = |s: f64| s * 1e9 / rec.packets as f64;
    layers.set(
        "ir.interp_ns_per_step",
        interp_s * 1e9 / steps.max(1) as f64,
    );
    layers.set("ir.interp_steps_per_pkt", steps as f64 / rec.packets as f64);
    layers.set("ir.interp_ns_per_pkt", per_pkt(interp_s));
    let accesses = rec.accesses.len().max(1) as f64;
    layers.set("mem.access_ns", mem_s * 1e9 / accesses);
    layers.set("mem.accesses_per_pkt", accesses / rec.packets as f64);
    layers.set("mem.l3_miss_share", misses as f64 / accesses);
    layers.set("chain.handoff_ns", per_pkt(handoff_s));
    per_pkt(interp_s) + per_pkt(mem_s) + per_pkt(handoff_s) + dispatch_ns
}

// ---------------------------------------------------------------------------
// synth-chain and synth-nf.

enum Target {
    Nf(NfSpec),
    Chain(NfChain),
}

impl Target {
    /// One ground-truth catalogue per stage (one for a single NF).
    fn catalogs(&self, seed: u64) -> Vec<surface::Catalog> {
        match self {
            Target::Nf(nf) => vec![surface::catalog(nf, seed)],
            Target::Chain(chain) => surface::chain_catalogs(chain, seed),
        }
    }
}

struct SynthTarget {
    name: &'static str,
    ops_per_round: usize,
    target: Target,
    catalogs: Vec<surface::Catalog>,
    /// The threads=1 result of the last operation, for the checks that
    /// compare another configuration against it.
    last: Option<Synthesis>,
}

struct Synth {
    budget: Budget,
    targets: Vec<SynthTarget>,
    /// Engine counters of the traced round, summed over its analyses.
    counters: EngineCounters,
}

impl Synth {
    fn chains(seed: u64, scale: u64, spans: &mut Spans) -> Synth {
        let targets = surface::CHAINS.map(|name| (name, 1, Target::Chain(surface::chain(name))));
        Synth::new(seed, scale, targets.into(), spans)
    }

    fn nfs(seed: u64, scale: u64, spans: &mut Spans) -> Synth {
        // Repeats in inverse proportion to cost: 0.11 s, 0.26 s, 1.1 s and
        // 3.2 s per analysis on the reference container.
        let targets = surface::NFS
            .into_iter()
            .zip([4, 2, 1, 1])
            .map(|(name, ops)| (name, ops, Target::Nf(surface::nf(name))))
            .collect();
        Synth::new(seed, scale, targets, spans)
    }

    fn new(
        seed: u64,
        scale: u64,
        targets: Vec<(&'static str, usize, Target)>,
        spans: &mut Spans,
    ) -> Synth {
        let targets = targets
            .into_iter()
            .map(|(name, ops_per_round, target)| SynthTarget {
                name,
                ops_per_round,
                catalogs: spans.time("catalog", |_| target.catalogs(seed)).0,
                target,
                last: None,
            })
            .collect();
        Synth {
            budget: Budget::new(seed, scale),
            targets,
            counters: EngineCounters::default(),
        }
    }

    fn analyze(&self, t: &SynthTarget, budget: Budget) -> Synthesis {
        match &t.target {
            Target::Nf(nf) => surface::analyze_nf(budget, nf, &t.catalogs[0]),
            Target::Chain(chain) => surface::analyze_chain_of(budget, chain, &t.catalogs),
        }
    }

    /// One more analysis of `arm` under another budget; the result and the
    /// wall seconds.
    fn reanalyze(&self, arm: usize, budget: Budget, spans: &mut Spans) -> (Synthesis, f64) {
        spans.time("analyze", |_| self.analyze(&self.targets[arm], budget))
    }
}

impl Scenario for Synth {
    fn arms(&self) -> Vec<Arm> {
        self.targets
            .iter()
            .map(|t| Arm {
                name: t.name,
                ops_per_round: t.ops_per_round,
            })
            .collect()
    }

    fn op(&mut self, arm: usize, traced: bool, spans: &mut Spans) -> Op {
        let t = &self.targets[arm];
        let budget = self.budget;
        let ((synthesis, counters), wall_s) = spans.time("analyze", |_| match &t.target {
            _ if !traced => (self.analyze(t, budget), EngineCounters::default()),
            Target::Nf(nf) => surface::analyze_nf_traced(budget, nf, &t.catalogs[0]),
            Target::Chain(c) => surface::analyze_chain_of_traced(budget, c, &t.catalogs),
        });
        self.counters.absorb(&counters);
        let error = spans.time("check", |_| check_synthesis(&synthesis)).0;
        let op = Op {
            wall_s,
            work: synthesis.steps,
            sim: synthesis_words(&synthesis),
            error,
        };
        self.targets[arm].last = Some(synthesis);
        op
    }

    fn layers(&mut self, rounds: &Rounds, spans: &mut Spans) -> Layers {
        let mut layers = Layers::default();
        for (arm, t) in self.targets.iter().enumerate() {
            layers.set(
                &format!("core.analyze_ms.{}", t.name),
                rounds.untraced_s(arm) * 1e3,
            );
        }
        engine_layers(&mut layers, &self.counters);
        layers.set(
            "core.tracing_overhead_pct",
            overhead_pct(&rounds.traced, &rounds.untraced),
        );

        // Two threads against one, on the slowest chain. The first threaded
        // run pays for spawning the workers, so the faster of two counts.
        if let Some(arm) = self.targets.iter().position(|t| t.name == "nat-lb-lpm") {
            let two = Budget {
                threads: 2,
                ..self.budget
            };
            let (first, a) = self.reanalyze(arm, two, spans);
            let (_, b) = self.reanalyze(arm, two, spans);
            layers.set("core.par2_speedup", rounds.untraced_s(arm) / a.min(b));
            let one = self.targets[arm].last.as_ref();
            layers.check(Some(&first) == one, || {
                "the threads=2 report of nat-lb-lpm differs from the threads=1 report".into()
            });
        }

        // What branch-and-bound pruning saves, and the rainbow table the
        // NAT hash inversion builds, on the single-NF workload.
        if let Some(nat) = self.targets.iter().find_map(|t| match &t.target {
            Target::Nf(nf) if t.name == "nat-hash" => Some(nf.clone()),
            _ => None,
        }) {
            let unpruned = Budget {
                prune: false,
                ..self.budget
            };
            let (mut with, mut without) = (0u64, 0u64);
            for (arm, t) in self.targets.iter().enumerate() {
                with += t.last.as_ref().map_or(0, |l| l.states_explored);
                without += self.reanalyze(arm, unpruned, spans).0.states_explored;
            }
            layers.check(with <= without, || {
                format!("pruning explored more states ({with}) than no pruning ({without})")
            });
            layers.set(
                "analysis.prune_states_saved_share",
                without.saturating_sub(with) as f64 / without.max(1) as f64,
            );
            layers.set(
                "core.rainbow_build_ms",
                median_ms(spans, "layer.rainbow_build", 3, || {
                    surface::rainbow_build(&nat)
                }),
            );
        }

        let (seed, targets) = (self.budget.seed, &self.targets);
        layers.set(
            "mem.catalog_ms",
            median_ms(spans, "catalog", 5, || {
                for t in targets {
                    black_box(t.target.catalogs(seed));
                }
            }),
        );
        let mut solver = surface::SolverMicro::new();
        let solve_ns = ns_per_call(spans, "layer.solver_micro", 2_000, |_| {
            black_box(solver.solve());
        });
        layers.set("core.solver_micro_us", solve_ns / 1e3);
        host_calibration(&mut layers, spans);
        layers
    }
}

// ---------------------------------------------------------------------------
// replay-uniform and replay-castan.

struct ReplayArm {
    name: &'static str,
    cores: usize,
    workload: Workload,
    replay: Replay,
    /// Simulated Mpps of the last run.
    sim_mpps: f64,
}

struct Replays {
    chain: NfChain,
    seed: u64,
    /// Kind and scale of the generic trace, for timing its generator.
    generated: (WorkloadKind, f64),
    arms: Vec<ReplayArm>,
    discover: bool,
}

/// Packets per replay of generic traffic, and their warm-up share.
const REPLAY_PACKETS: usize = 200_000;
const WARMUP_SHARE: usize = 10;
/// Scale of the generic traces: 100,047 uniform packets, 10,001 Zipfian.
const REPLAY_SCALE: f64 = 0.1;

fn replay_of(total: usize, scale: u64, seed: u64) -> Replay {
    let total_packets = total / scale as usize;
    Replay {
        total_packets,
        warmup_packets: total_packets / WARMUP_SHARE,
        seed,
    }
}

impl Replays {
    fn uniform(seed: u64, scale: u64, spans: &mut Spans) -> Replays {
        let chain = surface::chain("nat-lpm");
        let trace_scale = REPLAY_SCALE / scale as f64;
        let traffic = spans
            .time("workload_gen", |_| {
                surface::traffic(&chain, WorkloadKind::UniRand, trace_scale, seed)
            })
            .0;
        let replay = replay_of(REPLAY_PACKETS, scale, seed);
        let arms = [("uniform-1c", 1), ("uniform-4c", 4)]
            .map(|(name, cores)| ReplayArm {
                name,
                cores,
                workload: traffic.clone(),
                replay,
                sim_mpps: 0.0,
            })
            .into();
        let mut r = Replays {
            chain,
            seed,
            generated: (WorkloadKind::UniRand, trace_scale),
            arms,
            discover: true,
        };
        r.boot_once(spans);
        r
    }

    fn castan(seed: u64, scale: u64, spans: &mut Spans) -> Replays {
        let chain = surface::chain("nat-lpm");
        let catalogs = spans
            .time("catalog", |_| surface::chain_catalogs(&chain, seed))
            .0;
        let synthesis = spans
            .time("analyze", |_| {
                surface::analyze_chain_of(Budget::new(seed, scale), &chain, &catalogs)
            })
            .0;
        let trace_scale = REPLAY_SCALE / scale as f64;
        let zipf = spans
            .time("workload_gen", |_| {
                surface::traffic(&chain, WorkloadKind::Zipfian, trace_scale, seed)
            })
            .0;
        let arms = vec![
            ReplayArm {
                name: "castan-1c",
                cores: 1,
                workload: surface::castan_traffic(&synthesis.packets),
                replay: replay_of(REPLAY_PACKETS / 2, scale, seed),
                sim_mpps: 0.0,
            },
            ReplayArm {
                name: "zipf-1c",
                cores: 1,
                workload: zipf,
                replay: replay_of(REPLAY_PACKETS, scale, seed),
                sim_mpps: 0.0,
            },
        ];
        let mut r = Replays {
            chain,
            seed,
            generated: (WorkloadKind::Zipfian, trace_scale),
            arms,
            discover: false,
        };
        r.boot_once(spans);
        r
    }

    /// Set-up boots each arm's DUT once, so work moved into the boot shows
    /// in `setup_s`; operations boot their own.
    fn boot_once(&mut self, spans: &mut Spans) {
        for arm in &self.arms {
            spans.time("dut_boot", |_| {
                black_box(surface::boot_sharded(&self.chain, arm.cores, arm.replay));
            });
        }
    }
}

impl Scenario for Replays {
    fn arms(&self) -> Vec<Arm> {
        self.arms
            .iter()
            .map(|a| Arm {
                name: a.name,
                ops_per_round: 1,
            })
            .collect()
    }

    fn op(&mut self, arm: usize, _traced: bool, spans: &mut Spans) -> Op {
        let a = &mut self.arms[arm];
        let (mut dut, _) = spans.time("dut_boot", |_| {
            surface::boot_sharded(&self.chain, a.cores, a.replay)
        });
        let ((replayed, _), wall_s) = spans.time("replay", |_| {
            surface::run_sharded(&mut dut, &a.workload, a.replay)
        });
        let error = spans
            .time("check", |_| check_conservation(&replayed, a.replay, false))
            .0;
        a.sim_mpps = replayed.sim_mpps;
        Op {
            wall_s,
            work: a.replay.total_packets as u64,
            sim: replayed.words(),
            error,
        }
    }

    fn layers(&mut self, rounds: &Rounds, spans: &mut Spans) -> Layers {
        let mut layers = Layers::default();
        let per_pkt =
            |arm: usize| rounds.untraced_s(arm) * 1e9 / self.arms[arm].replay.total_packets as f64;
        for (arm, a) in self.arms.iter().enumerate() {
            // The first arm at each width names the row.
            let first = self.arms.iter().position(|b| b.cores == a.cores) == Some(arm);
            if first {
                layers.set(
                    &format!("testbed.run_ns_per_pkt.{}c", a.cores),
                    per_pkt(arm),
                );
            }
        }
        let lead = &self.arms[0];
        layers.set("testbed.sim_mpps", lead.sim_mpps);
        let in_layers = dataplane_layers(
            &mut layers,
            spans,
            &self.chain,
            &lead.workload,
            lead.replay,
            lead.cores,
        );
        layers.set("testbed.residual_ns_per_pkt", per_pkt(0) - in_layers);
        layers.set(
            "testbed.boot_ms",
            median_ms(spans, "dut_boot", 5, || {
                surface::boot_sharded(&self.chain, lead.cores, lead.replay)
            }),
        );
        let (kind, scale) = self.generated;
        let (generated, wall) = spans.time("workload_gen", |_| {
            surface::traffic(&self.chain, kind, scale, self.seed)
        });
        layers.set(
            "workload.gen_ns_per_pkt",
            wall * 1e9 / generated.len() as f64,
        );
        if self.discover {
            layers.set(
                "xcore.discover_ms",
                median_ms(spans, "layer.xcore_discover", 3, || {
                    surface::xcore_discover(self.seed)
                }),
            );
        }
        host_calibration(&mut layers, spans);
        layers
    }
}

// ---------------------------------------------------------------------------
// fleet-defended.

struct FleetRun {
    chain: NfChain,
    base: Workload,
    skewed: Workload,
    fleet: surface::FleetConfig,
    replay: Replay,
    epoch: usize,
    last: Option<Replayed>,
    last_fleet: Option<Fleet>,
}

/// Packets per rebalance and telemetry epoch, at both levels.
const FLEET_EPOCH: usize = 2_000;

impl FleetRun {
    fn new(seed: u64, scale: u64, spans: &mut Spans) -> FleetRun {
        let chain = surface::chain("nat-lpm");
        let replay = replay_of(REPLAY_PACKETS, scale, seed);
        let epoch = FLEET_EPOCH / scale as usize;
        let fleet = surface::fleet_config(replay, epoch);
        let base = spans
            .time("workload_gen", |_| {
                surface::traffic(
                    &chain,
                    WorkloadKind::UniRand,
                    REPLAY_SCALE / scale as f64,
                    seed,
                )
            })
            .0;
        let skewed = spans
            .time("workload_gen", |_| surface::fleet_skew(&base, &fleet))
            .0;
        let run = FleetRun {
            chain,
            base,
            skewed,
            fleet,
            replay,
            epoch,
            last: None,
            last_fleet: None,
        };
        spans.time("dut_boot", |_| drop(black_box(run.boot(true))));
        run
    }

    fn boot(&self, telemetry: bool) -> Fleet {
        surface::boot_fleet(
            &self.chain,
            self.fleet,
            self.replay,
            telemetry.then_some(self.epoch),
        )
    }
}

impl Scenario for FleetRun {
    fn arms(&self) -> Vec<Arm> {
        vec![Arm {
            name: "fleet-4x4",
            ops_per_round: 1,
        }]
    }

    fn op(&mut self, _arm: usize, _traced: bool, spans: &mut Spans) -> Op {
        let (mut fleet, _) = spans.time("dut_boot", |_| self.boot(true));
        let (replayed, wall_s) = spans.time("replay", |_| fleet.run(&self.skewed, self.replay));
        let error = spans
            .time("check", |_| {
                check_conservation(&replayed, self.replay, true)
            })
            .0;
        let op = Op {
            wall_s,
            work: self.replay.total_packets as u64,
            sim: replayed.words(),
            error,
        };
        self.last = Some(replayed);
        self.last_fleet = Some(fleet);
        op
    }

    fn layers(&mut self, rounds: &Rounds, spans: &mut Spans) -> Layers {
        let mut layers = Layers::default();
        let total = self.replay.total_packets as f64;
        let with_telemetry = rounds.untraced[0]
            .iter()
            .chain(&rounds.traced[0])
            .copied()
            .fold(f64::INFINITY, f64::min);
        layers.set("cluster.run_ns_per_pkt", rounds.untraced_s(0) * 1e9 / total);
        if let Some(last) = &self.last {
            layers.set("cluster.migrated_flows", last.migrated_flows as f64);
            layers.set(
                "cluster.dropped_pkts",
                (last.front_dropped + last.dropped) as f64,
            );
            layers.set("testbed.sim_mpps", last.sim_mpps);
        }
        if let Some(fleet) = self.last_fleet.as_mut() {
            let (bytes, wall) =
                spans.time("layer.telemetry_snapshot", |_| fleet.telemetry_snapshot());
            layers.check(bytes > 0, || {
                "the fleet run left no telemetry registry".into()
            });
            layers.set("telemetry.snapshot_ms", wall * 1e3);
        }

        // The same input without telemetry: the faster of two runs against
        // the faster of the two with it.
        let mut without = f64::INFINITY;
        for _ in 0..2 {
            let mut fleet = spans.time("dut_boot", |_| self.boot(false)).0;
            let (replayed, wall) = spans.time("replay", |_| fleet.run(&self.skewed, self.replay));
            without = without.min(wall);
            layers.check(Some(&replayed) == self.last.as_ref(), || {
                "telemetry changed the simulated result of the fleet run".into()
            });
        }
        layers.set(
            "testbed.telemetry_overhead_pct",
            (with_telemetry - without) / without * 100.0,
        );

        layers.set(
            "cluster.boot_ms",
            median_ms(spans, "dut_boot", 5, || self.boot(true)),
        );
        layers.set(
            "cluster.skew_synth_ms",
            median_ms(spans, "workload_gen", 3, || {
                surface::fleet_skew(&self.base, &self.fleet)
            }),
        );
        let map = surface::fleet_map(&self.fleet);
        let lookup_ns = ns_per_item(spans, "layer.node_lookup", &self.skewed.packets, |p| {
            black_box(surface::node_of(&map, p));
        });
        layers.set("cluster.node_lookup_ns", lookup_ns);
        dispatch_layers(
            &mut layers,
            spans,
            &self.skewed.packets,
            surface::FLEET_CORES,
        );
        let dispatcher = surface::dispatcher(surface::FLEET_CORES);
        let (_, wall) = spans.time("layer.skew_steer", |_| {
            black_box(surface::skew_steer(&self.base.packets, &dispatcher))
        });
        layers.set("runtime.skew_steer_ns", wall * 1e9 / self.base.len() as f64);
        let rebalance = surface::RebalanceMicro::new();
        let rewrite_ns = ns_per_call(spans, "layer.rebalance", 2_000, |epoch| {
            black_box(rebalance.rewrite(epoch));
        });
        layers.set("runtime.rebalance_us", rewrite_ns / 1e3);
        host_calibration(&mut layers, spans);
        layers
    }
}

// ---------------------------------------------------------------------------
// pipeline.

struct Pipeline {
    chain: NfChain,
    seed: u64,
    scale: u64,
    /// Stage walls and results of the last round.
    last: Option<Round>,
    counters: EngineCounters,
}

struct Round {
    catalog_s: f64,
    analyze_s: f64,
    gen_s: f64,
    generated_packets: usize,
    replay_s: f64,
    replayed_packets: u64,
    search_s: f64,
    searches: usize,
    adv_slowdown_x: f64,
    castan_sim_mpps: f64,
}

/// Scale of the pipeline's generic traces and packets per replay: the
/// experiments' quick setting, ten times the packets.
const PIPELINE_SCALE: f64 = 0.01;
const PIPELINE_PACKETS: usize = 40_000;

impl Pipeline {
    /// Catalogues, analysis and traffic belong to the round; set-up builds
    /// the chain and boots the DUT once, so work moved into either shows.
    fn new(seed: u64, scale: u64, spans: &mut Spans) -> Pipeline {
        let chain = surface::chain("nat-lpm");
        let replay = replay_of(PIPELINE_PACKETS, scale, seed);
        spans.time("dut_boot", |_| {
            black_box(surface::boot_sharded(&chain, 1, replay));
        });
        Pipeline {
            chain,
            seed,
            scale,
            last: None,
            counters: EngineCounters::default(),
        }
    }
}

impl Scenario for Pipeline {
    fn arms(&self) -> Vec<Arm> {
        vec![Arm {
            name: "round",
            ops_per_round: 1,
        }]
    }

    fn op(&mut self, _arm: usize, traced: bool, spans: &mut Spans) -> Op {
        let (chain, seed) = (&self.chain, self.seed);
        let budget = Budget::new(seed, self.scale);
        let replay = replay_of(PIPELINE_PACKETS, self.scale, seed);
        let mut counters = EngineCounters::default();
        let mut replays: Vec<Replayed> = Vec::new();
        let mut mpps: Vec<f64> = Vec::new();
        let ((synthesis, mut round), wall_s) = spans.time("round", |spans| {
            let (catalogs, catalog_s) =
                spans.time("catalog", |_| surface::chain_catalogs(chain, seed));
            let (synthesis, analyze_s) = spans.time("analyze", |_| {
                if traced {
                    let (s, c) = surface::analyze_chain_of_traced(budget, chain, &catalogs);
                    counters = c;
                    s
                } else {
                    surface::analyze_chain_of(budget, chain, &catalogs)
                }
            });
            let (suite, gen_s) = spans.time("workload_gen", |_| {
                let generic = |kind| surface::traffic(chain, kind, PIPELINE_SCALE, seed);
                vec![
                    generic(WorkloadKind::OnePacket),
                    generic(WorkloadKind::Zipfian),
                    generic(WorkloadKind::UniRand),
                    surface::flow_matched_uniform(
                        chain,
                        synthesis.distinct_flows(),
                        PIPELINE_SCALE,
                        seed,
                    ),
                    surface::castan_traffic(&synthesis.packets),
                ]
            });
            let (mut replay_s, mut search_s) = (0.0, 0.0);
            for workload in suite.iter().filter(|w| !w.is_empty()) {
                let mut dut = spans
                    .time("dut_boot", |_| surface::boot_sharded(chain, 1, replay))
                    .0;
                let ((replayed, measurement), wall) = spans.time("replay", |_| {
                    surface::run_sharded(&mut dut, workload, replay)
                });
                replay_s += wall;
                let (rate, wall) =
                    spans.time("tput_search", |_| surface::throughput_search(&measurement));
                search_s += wall;
                replays.push(replayed);
                mpps.push(rate);
            }
            let round = Round {
                catalog_s,
                analyze_s,
                gen_s,
                generated_packets: suite.iter().map(Workload::len).sum(),
                replay_s,
                replayed_packets: replays.len() as u64 * replay.total_packets as u64,
                search_s,
                searches: mpps.len(),
                adv_slowdown_x: 0.0,
                castan_sim_mpps: 0.0,
            };
            (synthesis, round)
        });

        // The last two replays are the flow-matched uniform control and the
        // CASTAN trace (an analysis without packets leaves the latter out,
        // and fails the synthesis check).
        let error = spans
            .time("check", |_| {
                check_synthesis(&synthesis)
                    .or_else(|| {
                        replays
                            .iter()
                            .find_map(|r| check_conservation(r, replay, false))
                    })
                    .or_else(|| {
                        let [.., control, castan] = replays.as_slice() else {
                            return Some("fewer than two replays".to_string());
                        };
                        round.adv_slowdown_x =
                            castan.cycles_per_packet() / control.cycles_per_packet();
                        round.castan_sim_mpps = castan.sim_mpps;
                        (round.adv_slowdown_x < 1.0).then(|| {
                            format!(
                                "the CASTAN trace is not slower than its flow-matched control \
                                 (adv_slowdown_x {:.4})",
                                round.adv_slowdown_x
                            )
                        })
                    })
            })
            .0;
        let mut sim = synthesis_words(&synthesis);
        sim.extend(replays.iter().flat_map(Replayed::words));
        sim.extend(mpps.iter().map(|m| m.to_bits()));
        let work = round.replayed_packets;
        self.last = Some(round);
        if traced {
            self.counters = counters;
        }
        Op {
            wall_s,
            work,
            sim,
            error,
        }
    }

    fn layers(&mut self, _rounds: &Rounds, spans: &mut Spans) -> Layers {
        let mut layers = Layers::default();
        engine_layers(&mut layers, &self.counters);
        if let Some(r) = &self.last {
            layers.set("pipeline.adv_slowdown_x", r.adv_slowdown_x);
            layers.set("mem.catalog_ms", r.catalog_s * 1e3);
            layers.set("core.analyze_ms.nat-lpm", r.analyze_s * 1e3);
            layers.set(
                "workload.gen_ns_per_pkt",
                r.gen_s * 1e9 / r.generated_packets.max(1) as f64,
            );
            layers.set(
                "testbed.run_ns_per_pkt.1c",
                r.replay_s * 1e9 / r.replayed_packets.max(1) as f64,
            );
            layers.set(
                "testbed.tput_search_ms",
                r.search_s * 1e3 / r.searches.max(1) as f64,
            );
            layers.set("testbed.sim_mpps", r.castan_sim_mpps);
        }
        host_calibration(&mut layers, spans);
        layers
    }
}
