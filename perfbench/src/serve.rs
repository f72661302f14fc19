//! The serve workload, `serve_writes`: an in-process `Server` over an
//! archive-backed store with its fleet WAL, driven from this process over
//! loopback with `/v1/measure` and `/v1/trace/window` on never-seen keys,
//! campaign creates and leaderboard reads.
//!
//! Each run measures, in order: closed-loop passes over fixed request
//! lists on `nproc` connections (`wall_s`) and on one connection
//! (`wall_1t_s`), then an open-loop phase at the nominal rate (`p50_ms`,
//! `tail_ms`, timed from each request's due time). The load comes from
//! this process with at most `nproc` connections: the open-loop
//! generator pipelines requests onto them from one sending thread and one
//! receiving thread.
//!
//! The traced run adds a read phase over keys the set-up pre-archived in
//! a key space three times the store's LRU bound, with skewed popularity:
//! window reads answered inline on the reactor from memory or from the
//! archive's pruned path, plus `/healthz`, `/v1/systems` and
//! `/v1/sample-size`. Sub-millisecond reads are too jittery on a small
//! virtual machine for a bounded end-to-end metric, so the read path is
//! measured per layer only. So is the search over a ladder of offered
//! rates past saturation (`serve.max_rps_at_slo`): in a 30 s run its
//! rungs are too short to place the knee steadily.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mini_json::Json;
use power_archive::codec::DEFAULT_QUANTUM;
use power_archive::{Archive, ArchiveConfig, FleetWal, ProductsArchive};
use power_fleet::{Fleet, FleetConfig};
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan};
use power_serve::loadgen::{
    get_request_keep_alive as get, post_request_keep_alive as post, PooledClient,
};
use power_serve::poller::{Event, Interest, Poller};
use power_serve::{Metrics, ServeConfig, ServeState, Server, ServerConfig};
use power_sim::engine::{MeterScope, SimulationConfig};
use power_sim::store::ArchiveTier;
use power_sim::{SystemPreset, TraceStore};
use power_stats::sample_size::SampleSizePlan;

use crate::campaign::Rng;
use crate::kernels::{self, SimKey};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, Run};

/// Offered rate of the open-loop latency phase, requests/s: low enough
/// that queueing adds little to a request's own time.
const NOMINAL_RPS: f64 = 8.0;
/// The ladder's fixed offered rates, requests/s, about 25% apart: up to
/// well past what two vCPUs sustain (about 90/s).
const LADDER: [f64; 10] = [
    20.0, 25.0, 32.0, 40.0, 50.0, 63.0, 80.0, 100.0, 125.0, 160.0,
];
/// The rung the ladder search starts on.
const LADDER_START: usize = 4;
/// Requests offered on one rung: enough for a p90 tail.
const RUNG_REQS: usize = 100;
/// Latency limit on a rung's tail, ms: about 2.5 times the tail at the
/// nominal rate.
const SLO_MS: f64 = 100.0;
/// Requests in one closed-loop pass: two blocks of the mix, long enough
/// that the connections finishing unevenly at the end of a pass adds
/// little to it.
const PASS_LEN: usize = 40;
/// Share of the run spent in the open-loop latency phase; closed-loop
/// passes take the rest.
const NOMINAL_SHARE: f64 = 0.45;
/// Offered rate of the traced read phase, requests/s.
const READ_RPS: f64 = 2_000.0;

/// The store's LRU bound, and the pre-archived key space (three times
/// larger) the read mix draws from.
const LRU_ENTRIES: usize = 16;
const READ_KEYS: usize = 48;
/// Systems the read keys are drawn from.
const KEY_SYSTEMS: [&str; 4] = ["colosse", "l-csc", "piz daint", "titan"];
/// The system of every never-seen write key. One system keeps each
/// class's cold cost in one cluster (about 16 ms per measure and 31 ms
/// per window sweep at 1024 nodes on a 2-vCPU VM), so that `p50_ms` and
/// `tail_ms` fall inside a cluster rather than on a gap between
/// systems of very different cost.
const WRITE_SYSTEM: &str = "piz daint";
/// Machine size of pre-archived read keys, and of never-seen write keys:
/// 1024-node cold sweeps, so that compute rather than thread wake-ups
/// sets a write's latency.
const READ_NODES: u64 = 64;
const WRITE_NODES: u64 = 1024;
const KEY_DT: f64 = 30.0;
/// One window response in this many has its `average_w` checked against
/// a direct library computation.
const CHECK_EVERY: usize = 16;
/// Set-up is repeated at least this many times and for at least this
/// long; `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

/// A `/v1/trace/window` simulation identity.
#[derive(Clone, Debug, PartialEq)]
struct WinKey {
    system: &'static str,
    nodes: u64,
    seed: u64,
}

impl WinKey {
    fn sim_key(&self) -> Result<SimKey, String> {
        let preset = SystemPreset::by_name(self.system)
            .ok_or_else(|| format!("no preset `{}`", self.system))?;
        let nodes = (self.nodes as usize).min(preset.cluster_spec.total_nodes);
        // The service's simulation config (`ServeConfig::default()` noise).
        let cfg = ServeConfig::default();
        Ok(SimKey {
            preset: preset.with_total_nodes(nodes),
            config: SimulationConfig {
                dt: KEY_DT,
                noise_sigma: cfg.noise_sigma,
                common_noise_sigma: cfg.common_noise_sigma,
                seed: self.seed,
                threads: 1,
            },
        })
    }

    fn path(&self, from: f64, to: f64) -> String {
        format!(
            "/v1/trace/window?system={}&nodes={}&dt={KEY_DT}&seed={}&from={from:.1}&to={to:.1}",
            self.system.replace(' ', "%20"),
            self.nodes,
            self.seed
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Window,
    Healthz,
    Systems,
    SampleSize,
    Measure,
    Create,
    Leaderboard,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Window => "window",
            Class::Healthz => "healthz",
            Class::Systems => "systems",
            Class::SampleSize => "sample_size",
            Class::Measure => "measure",
            Class::Create => "create",
            Class::Leaderboard => "leaderboard",
        }
    }
}

/// What a response must contain to count as correct.
#[derive(Clone, Debug)]
enum Check {
    /// Status only (body checked for well-formed JSON).
    Status(u16),
    /// A window read: `average_w` against the library on sampled requests.
    Window {
        key: WinKey,
        from: f64,
        to: f64,
        sampled: bool,
    },
    /// `required_nodes` must equal the library's Eq. 5 plan.
    SampleSize(u64),
    /// `systems` lists the whole catalog.
    Systems,
    /// A revised-rule measurement; sampled ones are recomputed.
    Measure { key: WinKey, sampled: bool },
}

#[derive(Clone, Debug)]
struct Req {
    class: Class,
    raw: Vec<u8>,
    check: Check,
}

/// Seeded request generator for one workload.
struct Mix {
    rng: Rng,
    writes: bool,
    /// Zipf(1.1) cumulative weights over the archived keys, hottest first.
    cdf: Vec<f64>,
    keys: Vec<WinKey>,
    /// Next never-seen seed for write keys.
    fresh: u64,
    /// Run length per key system, seconds (preset lookups are not cheap).
    run_seconds: BTreeMap<&'static str, f64>,
    n: usize,
}

fn read_keys() -> Vec<WinKey> {
    (0..READ_KEYS)
        .map(|i| WinKey {
            system: KEY_SYSTEMS[i % KEY_SYSTEMS.len()],
            nodes: READ_NODES,
            seed: 1 + (i / KEY_SYSTEMS.len()) as u64,
        })
        .collect()
}

impl Mix {
    fn new(writes: bool, seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let mut keys = read_keys();
        rng.shuffle(&mut keys);
        let weights: Vec<f64> = (1..=keys.len())
            .map(|r| 1.0 / (r as f64).powf(1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            // Never-seen keys start far above the pre-archived seeds.
            fresh: 1_000_000 + (rng.next_u64() % 1_000_000) * 1_000,
            rng,
            writes,
            cdf,
            keys,
            n: 0,
            run_seconds: KEY_SYSTEMS
                .iter()
                .map(|&name| {
                    let total = SystemPreset::by_name(name)
                        .map_or(3600.0, |p| p.workload.workload().phases().total());
                    (name, total)
                })
                .collect(),
        }
    }

    fn window(&mut self, key: WinKey) -> Req {
        let total = self.run_seconds[key.system];
        let from = (self.rng.unit() * 0.8 * total * 10.0).floor() / 10.0;
        let to = from + ((0.05 + 0.15 * self.rng.unit()) * total * 10.0).floor() / 10.0 + 0.1;
        self.n += 1;
        Req {
            class: Class::Window,
            raw: get(&key.path(from, to)),
            check: Check::Window {
                sampled: self.n.is_multiple_of(CHECK_EVERY),
                key,
                from,
                to,
            },
        }
    }

    /// A never-seen key.
    fn fresh_key(&mut self) -> WinKey {
        self.fresh += 1;
        WinKey {
            system: WRITE_SYSTEM,
            nodes: WRITE_NODES,
            seed: self.fresh,
        }
    }

    fn request(&mut self, class: Class) -> Req {
        match class {
            Class::Window if self.writes => {
                let key = self.fresh_key();
                self.window(key)
            }
            Class::Window => {
                let r = self.rng.unit();
                let i = self
                    .cdf
                    .iter()
                    .position(|&c| r < c)
                    .unwrap_or(self.keys.len() - 1);
                let key = self.keys[i].clone();
                self.window(key)
            }
            Class::Measure => {
                let key = self.fresh_key();
                self.n += 1;
                let body = format!(
                    r#"{{"system": "{}", "nodes": {}, "dt": {KEY_DT}, "seed": {}}}"#,
                    key.system, key.nodes, key.seed
                );
                Req {
                    class,
                    raw: post("/v1/measure", &body),
                    check: Check::Measure {
                        sampled: self.n.is_multiple_of(CHECK_EVERY),
                        key,
                    },
                }
            }
            Class::Create => {
                self.fresh += 1;
                let body = format!(
                    r#"{{"name": "bench", "population": 256, "samples_per_node": 16, "seed": {}}}"#,
                    self.fresh
                );
                Req {
                    class,
                    raw: post("/v1/campaigns", &body),
                    check: Check::Status(201),
                }
            }
            Class::Leaderboard => Req {
                class,
                raw: get("/v1/leaderboard?limit=10"),
                check: Check::Status(200),
            },
            Class::Healthz => Req {
                class,
                raw: get("/healthz"),
                check: Check::Status(200),
            },
            Class::Systems => Req {
                class,
                raw: get("/v1/systems"),
                check: Check::Systems,
            },
            Class::SampleSize => {
                let cv = [0.02, 0.03, 0.05][self.rng.below(3)];
                let lambda = [0.01, 0.02][self.rng.below(2)];
                let population = 512 + self.rng.below(3584) as u64;
                let n = SampleSizePlan::new(0.95, lambda, cv)
                    .and_then(|p| p.required_nodes(population))
                    .unwrap_or(0);
                Req {
                    class,
                    raw: post(
                        "/v1/sample-size",
                        &format!(
                            r#"{{"lambda": {lambda}, "cv": {cv}, "population": {population}}}"#
                        ),
                    ),
                    check: Check::SampleSize(n),
                }
            }
        }
    }

    /// The next `n` requests. The mix is dealt in blocks of 20 with exact
    /// class counts in seeded order, so every pass and phase carries the
    /// same work and only its order varies with the seed.
    fn take(&mut self, n: usize) -> Vec<Req> {
        let block: &[(Class, usize)] = if self.writes {
            &[
                (Class::Measure, 8),
                (Class::Window, 8),
                (Class::Create, 2),
                (Class::Leaderboard, 2),
            ]
        } else {
            &[
                (Class::Window, 14),
                (Class::Healthz, 2),
                (Class::Systems, 2),
                (Class::SampleSize, 2),
            ]
        };
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut classes: Vec<Class> = block
                .iter()
                .flat_map(|&(c, k)| std::iter::repeat_n(c, k))
                .collect();
            self.rng.shuffle(&mut classes);
            for c in classes.into_iter().take(n - out.len()) {
                out.push(self.request(c));
            }
        }
        out
    }
}

/// One answered (or failed) request.
#[derive(Clone, Debug, Default)]
struct Done {
    status: u16,
    body: String,
    /// Seconds from due (open loop) or send (closed loop) to response.
    latency_s: f64,
    /// Seconds the generator sent late.
    late_s: f64,
    due: Option<Instant>,
    end: Option<Instant>,
}

/// A parsed response: status, body, bytes consumed.
fn parse_response(buf: &[u8]) -> Option<Result<(u16, String, usize), String>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Some(Err("response head is not UTF-8".into())),
    };
    let status = head
        .get(9..12)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"));
    let status = match status {
        Ok(s) => s,
        Err(e) => return Some(Err(e)),
    };
    let len = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let total = head_end + 4 + len;
    if buf.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Some(Ok((status, body, total)))
}

/// How long a client waits on a stalled socket before giving up, so a
/// hung server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| s.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

fn write_all_nb(mut s: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    while !bytes.is_empty() {
        match s.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Open loop: request `i` is due at `start + i / rate`, sent on
/// connection `i % conns` no earlier than that, and timed from its due
/// time. Responses are read by a second thread. Requests unanswered
/// `drain` after the last send count as failures (status 0).
fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    reqs: &[Req],
    drain: Duration,
) -> Result<Vec<Done>, String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    for s in &streams {
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let fifos: Vec<Mutex<VecDeque<(usize, Instant, Instant)>>> =
        (0..conns).map(|_| Mutex::new(VecDeque::new())).collect();
    let results: Mutex<Vec<Done>> = Mutex::new(vec![Done::default(); reqs.len()]);
    let answered = AtomicUsize::new(0);
    let sent_all = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let poller = Poller::new().map_err(|e| e.to_string())?;
    for (i, s) in streams.iter().enumerate() {
        poller
            .register(s.as_raw_fd(), i, Interest::READ)
            .map_err(|e| e.to_string())?;
    }

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
            let mut events: Vec<Event> = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut deadline: Option<Instant> = None;
            loop {
                if answered.load(Ordering::SeqCst) == reqs.len() {
                    break;
                }
                if deadline.is_none() && sent_all.load(Ordering::SeqCst) {
                    deadline = Some(Instant::now() + drain);
                }
                if deadline.is_some_and(|d| Instant::now() > d) {
                    break;
                }
                if poller.wait(&mut events, Duration::from_millis(20)).is_err() {
                    break;
                }
                for ev in events.drain(..) {
                    let Some(mut s) = streams.get(ev.token) else {
                        continue;
                    };
                    loop {
                        match s.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(n) => bufs[ev.token].extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(_) => break,
                        }
                    }
                    let now = Instant::now();
                    let buf = &mut bufs[ev.token];
                    while let Some(parsed) = parse_response(buf) {
                        let Some((idx, due, sent)) =
                            fifos[ev.token].lock().expect("fifo lock").pop_front()
                        else {
                            break;
                        };
                        let (status, body, used) = parsed.unwrap_or((0, String::new(), buf.len()));
                        buf.drain(..used);
                        results.lock().expect("results lock")[idx] = Done {
                            status,
                            body,
                            latency_s: (now - due).as_secs_f64(),
                            late_s: (sent - due).as_secs_f64(),
                            due: Some(due),
                            end: Some(now),
                        };
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        });

        for (i, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let c = i % conns;
            fifos[c]
                .lock()
                .expect("fifo lock")
                .push_back((i, due, Instant::now()));
            if write_all_nb(&streams[c], &req.raw).is_err() {
                break;
            }
        }
        sent_all.store(true, Ordering::SeqCst);
        receiver.join().expect("receiver thread panicked");
    });
    Ok(results.into_inner().expect("results lock"))
}

/// Closed loop: `conns` client threads, each sending its next request
/// only after the previous response; returns wall seconds.
fn closed_loop(addr: SocketAddr, conns: usize, reqs: &[Req]) -> Result<(f64, Vec<Done>), String> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Done>> = Mutex::new(vec![Done::default(); reqs.len()]);
    let t = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = PooledClient::new(addr, IO_TIMEOUT);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else {
                            return Ok(());
                        };
                        let sent = Instant::now();
                        let r = client
                            .request(&req.raw)
                            .map_err(|e| format!("{}: {e}", req.class.label()))?;
                        results.lock().expect("results lock")[i] = Done {
                            status: r.status,
                            body: r.body,
                            latency_s: sent.elapsed().as_secs_f64(),
                            ..Done::default()
                        };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked")?;
        }
        Ok(())
    })?;
    Ok((
        t.elapsed().as_secs_f64(),
        results.into_inner().expect("results lock"),
    ))
}

/// Response checking: every status, and sampled bodies against the
/// library. Window values are compared within the archive's quantum.
struct Verifier {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    refs: BTreeMap<(String, u64, u64), Arc<power_sim::RunProducts>>,
}

impl Verifier {
    fn new() -> Self {
        Verifier {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            refs: BTreeMap::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    fn reference(&mut self, key: &WinKey) -> Result<Arc<power_sim::RunProducts>, String> {
        let id = (key.system.to_string(), key.nodes, key.seed);
        if let Some(p) = self.refs.get(&id) {
            return Ok(Arc::clone(p));
        }
        let sk = key.sim_key()?;
        let p = sk.products(&sk.cluster()?)?;
        // Only the pre-archived read keys recur; caching a never-seen
        // write key would only grow the process.
        if key.nodes == READ_NODES {
            self.refs.insert(id, Arc::clone(&p));
        }
        Ok(p)
    }

    /// Checks one response; `Err` describes what was wrong.
    fn verify(&mut self, req: &Req, done: &Done) -> Result<(), String> {
        let expected = match req.check {
            Check::Status(s) => s,
            _ => 200,
        };
        if done.status != expected {
            return Err(format!(
                "{}: status {} (expected {expected}): {}",
                req.class.label(),
                done.status,
                done.body.chars().take(120).collect::<String>()
            ));
        }
        let body =
            Json::parse(&done.body).map_err(|e| format!("{}: body: {e:?}", req.class.label()))?;
        let num = |k: &str| body.get(k).and_then(Json::as_f64);
        match &req.check {
            Check::Status(_) => Ok(()),
            Check::Systems => match body.get("systems").and_then(Json::as_array) {
                Some(s) if s.len() == 10 => Ok(()),
                _ => Err("systems: catalog is not the ten paper systems".into()),
            },
            Check::SampleSize(n) => match num("required_nodes") {
                Some(v) if v == *n as f64 => Ok(()),
                v => Err(format!(
                    "sample-size: required_nodes {v:?}, library says {n}"
                )),
            },
            Check::Window {
                key,
                from,
                to,
                sampled,
            } => {
                let served = num("average_w").ok_or("window: no average_w")?;
                if !*sampled {
                    return Ok(());
                }
                let p = self.reference(key)?;
                let trace = p.system_trace(MeterScope::Wall).ok_or("no system trace")?;
                let want = trace
                    .window_average(*from, *to)
                    .map_err(|e| e.to_string())?;
                if (served - want).abs() <= DEFAULT_QUANTUM + 1e-12 * want.abs() {
                    Ok(())
                } else {
                    Err(format!(
                        "window {key:?} [{from}, {to}): served {served} W, library {want} W"
                    ))
                }
            }
            Check::Measure { key, sampled } => {
                let served = num("reported_power_w").ok_or("measure: no reported_power_w")?;
                if !*sampled {
                    return Ok(());
                }
                let sk = key.sim_key()?;
                let cluster = sk.cluster()?;
                let m = measure_with_store(
                    &TraceStore::new(),
                    &cluster,
                    sk.preset.workload.workload(),
                    sk.preset.balance,
                    sk.config,
                    &MeasurementPlan::honest(Methodology::Revised, key.seed),
                )
                .map_err(|e| e.to_string())?;
                if (served - m.reported_power_w).abs() <= 1e-9 * m.reported_power_w.abs() {
                    Ok(())
                } else {
                    Err(format!(
                        "measure {key:?}: served {served} W, library {} W",
                        m.reported_power_w
                    ))
                }
            }
        }
    }

    fn check_all(&mut self, reqs: &[Req], done: &[Done]) {
        for (r, d) in reqs.iter().zip(done) {
            self.attempted += 1;
            if let Err(e) = self.verify(r, d) {
                self.fail(e);
            }
        }
    }
}

/// A running server over a store directory.
struct Setup {
    server: Server,
    dir: PathBuf,
}

/// The service state over `dir`, wired as `ServeState::try_new` wires it
/// (bounded store over the archive, warmed from it; fleet journalled to
/// `fleet.wal` beside it) but with fsync off in the archive and the
/// journal. On a shared virtual disk, fdatasync took 0.12 ms in one hour
/// and 4 ms in the next; at two per cold sweep that swung the workload's
/// latencies and pass times by a third. Encoding, CRCs and appends are
/// still measured; the disk's flush is not.
fn open_state(dir: &Path) -> std::io::Result<ServeState> {
    let config = ServeConfig {
        store_capacity: Some(LRU_ENTRIES),
        store_dir: Some(dir.to_path_buf()),
        sim_threads: 1,
        ..ServeConfig::default()
    };
    let archive = Archive::open_with(
        dir,
        ArchiveConfig {
            fsync: false,
            ..ArchiveConfig::default()
        },
    )?;
    let products = Arc::new(ProductsArchive::new(archive));
    let store = TraceStore::bounded(LRU_ENTRIES)
        .with_archive(Arc::clone(&products) as Arc<dyn ArchiveTier>);
    let warmed = if config.warm_on_start {
        store.warm_from_archive()
    } else {
        0
    };
    let wal = FleetWal::open_with_fsync(dir.join("fleet.wal"), false)?;
    let fleet = Fleet::open(
        FleetConfig {
            shards: config.fleet_shards,
            max_campaigns: config.max_campaigns,
        },
        Box::new(wal),
    )
    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let mut catalog = SystemPreset::trace_presets();
    catalog.extend(SystemPreset::variability_presets());
    Ok(ServeState {
        config,
        catalog,
        store,
        archive: Some(products),
        warmed,
        fleet: Arc::new(fleet),
        metrics: Metrics::new(),
        started: Instant::now(),
    })
}

fn start(dir: &Path, threads: usize) -> Result<Server, String> {
    let state = open_state(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    Server::start(
        ServerConfig {
            workers: threads,
            queue_depth: 256,
            max_requests_per_connection: u64::MAX,
            idle_timeout: Duration::from_secs(120),
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
        Arc::new(state),
    )
    .map_err(|e| e.to_string())
}

/// Builds the server: archives the read keys through a first server,
/// then reopens the directory (warming the LRU) as users would after a
/// restart. Also returns the set-up's seconds: opening and filling the
/// archive, and reopening it. The first server's shutdown is left out.
fn setup(run: &Run, rep: usize) -> Result<(Setup, f64), String> {
    let dir = run.work.join(format!("store-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut mix = Mix::new(false, 0);
    let reqs: Vec<Req> = read_keys().into_iter().map(|k| mix.window(k)).collect();
    let t = Instant::now();
    let first = start(&dir, run.threads)?;
    let (_, done) = closed_loop(first.local_addr(), run.threads, &reqs)?;
    let archived = t.elapsed();
    first.shutdown();
    if let Some(d) = done.iter().find(|d| d.status != 200) {
        return Err(format!("pre-archiving failed: {} {}", d.status, d.body));
    }
    let t = Instant::now();
    let server = start(&dir, run.threads)?;
    let secs = (archived + t.elapsed()).as_secs_f64();
    Ok((Setup { server, dir }, secs))
}

fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_s * 1e3).collect()
}

fn fetch_metrics(addr: SocketAddr) -> Result<String, String> {
    PooledClient::new(addr, IO_TIMEOUT)
        .request(&get("/metrics"))
        .map(|r| r.body)
        .map_err(|e| format!("/metrics: {e}"))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut current: Option<Setup> = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        if let Some(old) = current.take() {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let (s, secs) = setup(run, setup_s.len())?;
        current = Some(s);
        setup_s.push(secs);
    }
    out.metric("setup_s", median(&setup_s));
    out.detail("setup_repetitions", setup_s.len() as f64);
    let s = current.expect("set up at least once");
    let mut mix = Mix::new(true, run.seed);
    let mut v = Verifier::new();
    let result = if run.trace {
        traced(run, &s, &mut mix, &mut v, &mut out)
    } else {
        timed(run, s.server.local_addr(), &mut mix, &mut v, &mut out)
    };
    s.server.shutdown();
    result?;
    out.attempted += v.attempted;
    out.failed += v.failed;
    out.failures.extend(v.failures);
    Ok(out)
}

/// Open-loop phase of `n` requests at `rate`: the phase's requests and
/// their responses.
fn phase(
    addr: SocketAddr,
    run: &Run,
    rate: f64,
    n: usize,
    mix: &mut Mix,
) -> Result<(Vec<Req>, Vec<Done>), String> {
    let reqs = mix.take(n.max(1));
    let drain = Duration::from_secs_f64((SLO_MS * 20.0 / 1e3).max(2.0));
    let done = open_loop(addr, run.threads, rate, &reqs, drain)?;
    Ok((reqs, done))
}

/// Untimed closed-loop passes before any measurement, so the server's
/// threads have grown their heaps and warmed their caches as a
/// long-running server's have. Responses are still checked.
fn warm_up(addr: SocketAddr, run: &Run, mix: &mut Mix, v: &mut Verifier) -> Result<(), String> {
    for _ in 0..WARM_UP_PASSES {
        let reqs = mix.take(PASS_LEN);
        let (_, done) = closed_loop(addr, run.threads, &reqs)?;
        v.check_all(&reqs, &done);
    }
    Ok(())
}

const WARM_UP_PASSES: usize = 4;

fn timed(
    run: &Run,
    addr: SocketAddr,
    mix: &mut Mix,
    v: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    let secs = run.seconds;
    warm_up(addr, run, mix, v)?;

    // Closed-loop passes over fixed-length request lists, alternating
    // nproc connections and one. They come straight after the warm-up:
    // after a stretch of light load the first passes run up to twice as
    // slow while the virtual CPUs ramp up.
    let deadline = Instant::now() + Duration::from_secs_f64(secs * (1.0 - NOMINAL_SHARE));
    let (mut walls, mut walls_1t) = (Vec::new(), Vec::new());
    // `peak_rss_mb` is the peak over every measured phase.
    crate::reset_peak_rss();
    while walls.is_empty() || Instant::now() < deadline {
        for (conns, into) in [(run.threads, &mut walls), (1, &mut walls_1t)] {
            let reqs = mix.take(PASS_LEN);
            let (wall, done) = closed_loop(addr, conns, &reqs)?;
            v.check_all(&reqs, &done);
            into.push(wall);
        }
    }
    out.metric("wall_s", median(&walls));
    out.metric("wall_1t_s", median(&walls_1t));
    out.detail("passes", walls.len() as f64);

    let n = (NOMINAL_RPS * secs * NOMINAL_SHARE).round() as usize;
    let (reqs, done) = phase(addr, run, NOMINAL_RPS, n, mix)?;
    v.check_all(&reqs, &done);
    out.latency(&[&latencies_ms(&done)]);
    let late: Vec<f64> = done.iter().map(|d| d.late_s * 1e3).collect();
    out.detail("gen_late_ms_p99", percentile(&late, 99.0));
    out.detail("nominal_rps", NOMINAL_RPS);
    Ok(())
}

/// `serve.max_rps_at_slo`: a staircase search over [`LADDER`] from
/// [`LADDER_START`]. It climbs while rungs pass, or descends until one
/// does, and reports the highest passing rate. A rung passes when every
/// response is correct (a refused or failed request is a miss, and also
/// counts as failed), its tail percentile meets [`SLO_MS`], and its
/// backlog does not grow: the last quarter of its requests may wait at
/// most half the limit longer than the first quarter.
fn ladder(
    addr: SocketAddr,
    run: &Run,
    mix: &mut Mix,
    v: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rung = LADDER_START;
    let mut climbing = None;
    let mut best = 0.0;
    let mut rungs = Vec::new();
    loop {
        let rate = LADDER[rung];
        let (reqs, done) = phase(addr, run, rate, RUNG_REQS, mix)?;
        let failed_before = v.failed;
        v.check_all(&reqs, &done);
        let ms = latencies_ms(&done);
        let p = crate::stats::tail_percentile(ms.len()).ok_or("a rung too short for a tail")?;
        let tail = percentile(&ms, p);
        let q = ms.len() / 4;
        let growth = median(&ms[ms.len() - q..]) - median(&ms[..q]);
        let pass = v.failed == failed_before && tail <= SLO_MS && growth <= SLO_MS / 2.0;
        rungs.push(Json::object([
            ("rps", Json::num(rate)),
            ("tail_percentile", Json::num(p)),
            ("tail_ms", Json::num(tail)),
            ("backlog_growth_ms", Json::num(growth)),
            ("pass", Json::Bool(pass)),
        ]));
        if pass {
            best = rate;
        }
        let up = *climbing.get_or_insert(pass);
        if pass != up || (up && rung + 1 == LADDER.len()) || (!up && rung == 0) {
            break;
        }
        rung = if up { rung + 1 } else { rung - 1 };
    }
    out.metric("serve.max_rps_at_slo", best);
    out.detail("slo_ms", SLO_MS);
    out.details.insert("ladder".into(), Json::Array(rungs));
    Ok(())
}

/// Per-endpoint `(sum µs, count)` of the server's latency histogram.
fn server_totals(addr: SocketAddr) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let text = fetch_metrics(addr)?;
    let series = |suffix: &str| -> BTreeMap<String, f64> {
        let prefix = format!("power_serve_latency_us_{suffix}{{endpoint=\"");
        text.lines()
            .filter_map(|l| l.strip_prefix(prefix.as_str()))
            .filter_map(|l| l.split_once("\"} "))
            .filter_map(|(ep, v)| Some((ep.to_string(), v.trim().parse::<f64>().ok()?)))
            .collect()
    };
    let counts = series("count");
    Ok(series("sum")
        .into_iter()
        .map(|(ep, sum)| {
            let n = counts.get(&ep).copied().unwrap_or(0.0);
            (ep, (sum, n))
        })
        .collect())
}

/// Mean handler latency (µs) per endpoint between two snapshots. The
/// histogram's bins are 2.5 ms wide, too coarse for a sub-millisecond
/// percentile, so the server side is an exact mean.
fn mean_between(
    before: &BTreeMap<String, (f64, f64)>,
    after: &BTreeMap<String, (f64, f64)>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .filter_map(|(ep, &(sum, n))| {
            let (s0, n0) = before.get(ep).copied().unwrap_or((0.0, 0.0));
            (n > n0).then(|| (ep.clone(), (sum - s0) / (n - n0)))
        })
        .collect()
}

/// Client spans for one open-loop phase: one per request (due →
/// response) named `<prefix>.<class>`, with the generator's lateness as
/// a child. Returns per-class latencies in ms.
fn spans(
    tracer: &mut Tracer,
    prefix: &str,
    reqs: &[Req],
    done: &[Done],
    op0: u64,
) -> BTreeMap<Class, Vec<f64>> {
    let mut per_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (i, (r, d)) in reqs.iter().zip(done).enumerate() {
        let (Some(due), Some(end)) = (d.due, d.end) else {
            continue;
        };
        let op = op0 + i as u64;
        let span = tracer.record(format!("{prefix}.{}", r.class.label()), due, end, None, op);
        let late = Duration::from_secs_f64(d.late_s.max(0.0));
        tracer.record("gen.late", due, due + late, Some(span), op);
        per_class
            .entry(r.class)
            .or_default()
            .push(d.latency_s * 1e3);
    }
    per_class
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The traced run: a read phase over the pre-archived keys and a write
/// phase, both traced; the server's counters and per-endpoint handler
/// times per phase; and the layer kernels. Spans are built after each
/// phase from the due and response times every open-loop request
/// records, so tracing adds no work while a phase runs.
fn traced(
    run: &Run,
    s: &Setup,
    mix: &mut Mix,
    v: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    let addr = s.server.local_addr();
    let mut tracer = Tracer::new();
    // Reads first, while the LRU still holds the keys warmed at start-up:
    // the write phase evicts them.
    let r0 = server_totals(addr)?;
    let mut read_mix = Mix::new(false, run.seed);
    let n = (READ_RPS * run.seconds * 0.3).round() as usize;
    let (rreqs, rdone) = phase(addr, run, READ_RPS, n, &mut read_mix)?;
    v.check_all(&rreqs, &rdone);
    let r1 = server_totals(addr)?;
    let reads = spans(&mut tracer, "serve.read", &rreqs, &rdone, 0);

    warm_up(addr, run, mix, v)?;
    let m0 = server_totals(addr)?;
    let n = (NOMINAL_RPS * run.seconds * 0.5).round() as usize;
    let (reqs, done) = phase(addr, run, NOMINAL_RPS, n, mix)?;
    v.check_all(&reqs, &done);
    let m1 = server_totals(addr)?;
    let writes = spans(&mut tracer, "serve.class", &reqs, &done, rreqs.len() as u64);
    let first = done.iter().filter_map(|d| d.due).min();
    let last = done.iter().filter_map(|d| d.end).max();
    if let (Some(a), Some(b)) = (first, last) {
        out.metric("trace.wall_s", (b - a).as_secs_f64());
    }
    let late: Vec<f64> = done.iter().map(|d| d.late_s * 1e3).collect();
    out.metric("gen.late_ms_p99", percentile(&late, 99.0));
    ladder(addr, run, mix, v, out)?;
    let write_server_us: f64 =
        m1.values().map(|x| x.0).sum::<f64>() - m0.values().map(|x| x.0).sum::<f64>();
    let write_client_us: f64 = done.iter().map(|d| d.latency_s * 1e6).sum();

    for (class, ms) in &writes {
        out.metric(
            &format!("serve.class.{}_p50_ms", class.label()),
            percentile(ms, 50.0),
        );
    }
    for (class, ms) in &reads {
        let name = if *class == Class::Window {
            "window_read"
        } else {
            class.label()
        };
        out.metric(&format!("serve.class.{name}_p50_ms"), percentile(ms, 50.0));
    }
    let write_means = mean_between(&m0, &m1);
    for ep in ["trace_window", "measure", "campaigns", "leaderboard"] {
        if let Some(us) = write_means.get(ep) {
            out.metric(&format!("serve.latency_us_mean.{ep}"), *us);
        }
    }
    let read_means = mean_between(&r0, &r1);
    for (ep, name) in [
        ("trace_window", "trace_window_read"),
        ("healthz", "healthz"),
        ("systems", "systems"),
        ("sample_size", "sample_size"),
    ] {
        if let Some(us) = read_means.get(ep) {
            out.metric(&format!("serve.latency_us_mean.{name}"), *us);
        }
    }
    // Reactor read/parse/write plus loopback and client, for window reads
    // answered inline.
    if let (Some(client), Some(server)) =
        (reads.get(&Class::Window), read_means.get("trace_window"))
    {
        out.metric("serve.outside_handler_us", mean(client) * 1e3 - server);
    }

    let state = s.server.state();
    out.metric(
        "serve.dispatch_rejected",
        state.metrics.dispatch_rejections() as f64,
    );
    let requests: u64 = power_serve::Endpoint::ALL
        .iter()
        .map(|&e| state.metrics.requests(e))
        .sum();
    let conns = state.metrics.admission().accepted.max(1);
    out.metric("serve.requests_per_conn", requests as f64 / conns as f64);
    let st = state.store.stats();
    out.store(st.hits, st.misses, st.derived, st.coalesced, st.evictions);
    out.metric("archive.writes", st.archive_writes as f64);
    out.metric("archive.hits", st.archive_hits as f64);
    out.metric("archive.pruned_queries", st.archive_pruned_queries as f64);
    out.metric("archive.blocks_skipped", st.blocks_skipped as f64);
    if let Some(a) = &state.archive {
        out.metric("archive.bytes", a.stats().live_bytes as f64);
    }
    let counts = state.fleet.state_counts();
    let created: u64 = counts.iter().map(|(_, c)| c).sum();
    let completed: u64 = counts
        .iter()
        .filter(|(s, _)| matches!(s.label(), "stopped" | "exhausted"))
        .map(|(_, c)| c)
        .sum();
    out.metric("fleet.campaigns_created", created as f64);
    out.metric("fleet.campaigns_completed", completed as f64);
    out.metric(
        "fleet.samples",
        state.fleet.plane_stats().ingest.accepted as f64,
    );

    // Kernels on the workload's own key shapes.
    let keys: Vec<SimKey> = (0..KEY_SYSTEMS.len())
        .map(|_| mix.fresh_key().sim_key())
        .collect::<Result<_, _>>()?;
    let products = kernels::sim_kernel(&keys, out)?;
    kernels::archive_kernel(&products, out)?;
    kernels::meter_kernel(&keys[0], out)?;

    let path = run.trace_path();
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // Where write-request time goes: server side (the server's latency
    // sums, from parse to response: dispatch queue and handler) or client
    // side (reactor I/O, loopback, the client, and waiting behind another
    // request on the same connection).
    out.detail("server_share", write_server_us / write_client_us.max(1.0));
    out.detail_str(
        "dominant_layer",
        if write_server_us * 2.0 > write_client_us {
            "server side: dispatch queue and worker handlers (cold sweeps, metering, archive writes)"
        } else {
            "client side: reactor I/O, loopback, client and head-of-line waits"
        },
    );
    out.detail_str("spans", &path.display().to_string());
    out.detail("spans_recorded", tracer.spans().len() as f64);
    Ok(())
}

/// Self-test: correct responses pass the verifier; a wrong status, a
/// window average off by more than the quantum and a wrong sample-size
/// answer each count as a failure.
pub fn selftest_checks() -> Result<(), String> {
    let mut mix = Mix::new(false, 7);
    let key = read_keys()[0].clone();
    let mut window = mix.window(key.clone());
    let Check::Window { from, to, .. } = window.check.clone() else {
        unreachable!("window() builds window checks")
    };
    window.check = Check::Window {
        key: key.clone(),
        from,
        to,
        sampled: true,
    };
    let sk = key.sim_key()?;
    let want = sk
        .products(&sk.cluster()?)?
        .system_trace(MeterScope::Wall)
        .ok_or("no system trace")?
        .window_average(from, to)
        .map_err(|e| e.to_string())?;
    let body = |w: f64| Json::object([("average_w", Json::num(w))]).render();
    let plan = SampleSizePlan::new(0.95, 0.01, 0.03).map_err(|e| e.to_string())?;
    let n = plan.required_nodes(1000).map_err(|e| e.to_string())?;
    let sample = Req {
        class: Class::SampleSize,
        raw: Vec::new(),
        check: Check::SampleSize(n),
    };
    let answer = |status: u16, body: String| Done {
        status,
        body,
        ..Done::default()
    };
    let cases = [
        (&window, answer(200, body(want)), true),
        (
            &window,
            answer(200, body(want + DEFAULT_QUANTUM / 4.0)),
            true,
        ),
        (
            &window,
            answer(200, body(want + 4.0 * DEFAULT_QUANTUM)),
            false,
        ),
        (&window, answer(503, body(want)), false),
        (
            &sample,
            answer(200, format!(r#"{{"required_nodes": {n}}}"#)),
            true,
        ),
        (
            &sample,
            answer(200, format!(r#"{{"required_nodes": {}}}"#, n + 1)),
            false,
        ),
    ];
    let mut v = Verifier::new();
    for (i, (req, done, ok)) in cases.iter().enumerate() {
        let before = v.failed;
        v.check_all(std::slice::from_ref(*req), std::slice::from_ref(done));
        if (v.failed == before) != *ok {
            return Err(format!(
                "response case {i}: verifier said ok = {}, want {ok}",
                v.failed == before
            ));
        }
    }
    Ok(())
}
