//! Multi-process execution: the same `CommProgram`, ranks as OS processes.
//!
//! A launcher ([`evaluate_distributed`]) binds a rendezvous endpoint
//! (`unix:/path` or `tcp:host:port`) and optionally spawns `p` copies of
//! the `fmm-worker` binary; independently started workers can join the
//! same rendezvous by address. The control plane speaks `FMMC` frames
//! (one [`fmm_wire`] frame each, like the `FMMW` data plane; the codecs
//! below are public so `fmm-verify` can prove them total):
//!
//! 1. each worker binds its own *mesh* listener first, connects the
//!    rendezvous, and sends `Hello { rank, mesh_addr }`;
//! 2. once all `p` Hellos are in, the launcher runs the pre-flight
//!    budget check ([`fmm_machine::preflight`]) — it already has the
//!    depth, grid, and fabric in hand — then broadcasts `Job`: the full
//!    method configuration (resolved kernel included, so every host runs
//!    identical arithmetic), the particle system, and the mesh address
//!    table;
//! 3. every worker rebuilds the identical `Fmm` and `CommProgram` from
//!    the job (translation matrices and schedules are pure functions of
//!    the config), wires its mesh row — connect to lower ranks, accept
//!    from higher — and executes the program over a
//!    [`SocketTransport`];
//! 4. each worker returns `Result` (its `WorkerOut`, f64s as exact bit
//!    patterns, counters as u64s); the launcher assembles the same
//!    [`EvalOutput`] the in-process path produces — bitwise identical,
//!    per-rank counters included.
//!
//! Because every listener is bound before the address table is
//! published, mesh connections can only land in a bound listener's
//! backlog — no sleep-and-retry loops in the data path.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use fmm_core::driver::{EvalOutput, Fmm, FmmError};
use fmm_core::near::NearFieldStats;
use fmm_core::stats::Counters;
use fmm_core::{
    Balance, DepthPolicy, Domain, Executor, FmmConfig, Kernel, Separation, SpmdOptions,
};
use fmm_machine::{communication_budget_with, preflight, ProgramConfig, TransportModel};
use fmm_wire::{invalid, put_f64, put_f64s, put_f64x3s, put_str, put_u32, put_u64, put_u8, Reader};

use crate::exec::{self, WorkerOut};
use crate::fabric::WorkerCtx;
use crate::transport::{connect_mesh, FabricAddr, MeshStream, SocketTransport};
use crate::{assemble, build_program, vu_grid_for};

/// Control-plane frame magic.
pub const CTRL_MAGIC: [u8; 4] = *b"FMMC";
/// Control frames carry whole particle systems; cap at 1 GiB.
pub const MAX_CTRL: usize = 1 << 30;

const OP_HELLO: u8 = 1;
const OP_JOB: u8 = 2;
const OP_RESULT: u8 = 3;

/// How long control-plane reads may stall before the run is declared
/// wedged (covers the whole compute phase on the worker side).
const CTRL_TIMEOUT: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------
// FMMC message codecs
// ---------------------------------------------------------------------
//
// A control message is one frame whose payload is `"FMMC" | u8 opcode |
// body`. The exchange is a fixed sequence — Hello, Job, Result — so each
// message has its own encoder and reader, and a reader rejects any other
// opcode.

fn ctrl_payload(op: u8) -> Vec<u8> {
    let mut b = CTRL_MAGIC.to_vec();
    put_u8(&mut b, op);
    b
}

/// Read one control frame carrying opcode `op` and decode its body,
/// which must be consumed whole.
fn read_message<T>(
    r: &mut impl Read,
    op: u8,
    body: impl FnOnce(&mut Reader) -> io::Result<T>,
) -> io::Result<T> {
    let payload = fmm_wire::read_frame(r, MAX_CTRL)?;
    let mut d = Reader::new(&payload);
    d.magic(CTRL_MAGIC)?;
    let got = d.u8()?;
    if got != op {
        return Err(invalid(format!("expected control opcode {op}, got {got}")));
    }
    let msg = body(&mut d)?;
    d.done()?;
    Ok(msg)
}

/// `Hello`: a worker's rank and the address its mesh listener is bound to.
pub fn encode_hello(rank: u32, mesh_addr: &str) -> Vec<u8> {
    let mut b = ctrl_payload(OP_HELLO);
    put_u32(&mut b, rank);
    put_str(&mut b, mesh_addr);
    b
}

pub fn read_hello(r: &mut impl Read) -> io::Result<(u32, String)> {
    read_message(r, OP_HELLO, |d| Ok((d.u32()?, d.str()?)))
}

// ---------------------------------------------------------------------
// Job description
// ---------------------------------------------------------------------

/// Everything a worker needs to reproduce the launcher's evaluation
/// bitwise: the method knobs (kernel resolved by name), the system, and
/// the mesh address table.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub order: u32,
    pub m_trunc: u32,
    pub outer_ratio: f64,
    pub inner_ratio: f64,
    pub sep_d: u32,
    pub depth: u32,
    pub softening: f64,
    pub kernel: String,
    pub cost_weighted: bool,
    pub with_fields: bool,
    pub workers: u32,
    pub domain_min: [f64; 3],
    pub domain_size: f64,
    pub positions: Vec<[f64; 3]>,
    pub charges: Vec<f64>,
    pub peers: Vec<String>,
}

/// `Job`: the launcher's broadcast.
pub fn encode_job(job: &JobSpec) -> Vec<u8> {
    let mut b = ctrl_payload(OP_JOB);
    put_u32(&mut b, job.order);
    put_u32(&mut b, job.m_trunc);
    put_f64(&mut b, job.outer_ratio);
    put_f64(&mut b, job.inner_ratio);
    put_u32(&mut b, job.sep_d);
    put_u32(&mut b, job.depth);
    put_f64(&mut b, job.softening);
    put_str(&mut b, &job.kernel);
    put_u32(&mut b, u32::from(job.cost_weighted));
    put_u32(&mut b, u32::from(job.with_fields));
    put_u32(&mut b, job.workers);
    put_f64s(&mut b, &job.domain_min);
    put_f64(&mut b, job.domain_size);
    put_u64(&mut b, job.positions.len() as u64);
    put_f64x3s(&mut b, &job.positions);
    put_f64s(&mut b, &job.charges);
    put_u32(&mut b, job.peers.len() as u32);
    for a in &job.peers {
        put_str(&mut b, a);
    }
    b
}

/// Read a `Job`; its address table must name one peer per worker.
pub fn read_job(r: &mut impl Read) -> io::Result<JobSpec> {
    read_message(r, OP_JOB, |d| {
        // A struct literal evaluates its fields in source order: wire order.
        let mut job = JobSpec {
            order: d.u32()?,
            m_trunc: d.u32()?,
            outer_ratio: d.f64()?,
            inner_ratio: d.f64()?,
            sep_d: d.u32()?,
            depth: d.u32()?,
            softening: d.f64()?,
            kernel: d.str()?,
            cost_weighted: d.u32()? != 0,
            with_fields: d.u32()? != 0,
            workers: d.u32()?,
            domain_min: [d.f64()?, d.f64()?, d.f64()?],
            domain_size: d.f64()?,
            positions: Vec::new(),
            charges: Vec::new(),
            peers: Vec::new(),
        };
        let n = d.u64()?;
        job.positions = d.f64x3s(n)?;
        job.charges = d.f64s(n)?;
        let np = d.u32()?;
        if np != job.workers {
            let workers = job.workers;
            return Err(invalid(format!(
                "job names {np} peers for {workers} workers"
            )));
        }
        job.peers = (0..np).map(|_| d.str()).collect::<io::Result<_>>()?;
        Ok(job)
    })
}

impl JobSpec {
    /// Rebuild the method configuration the launcher serialized. The
    /// kernel arrives pre-resolved: every rank must run the same
    /// microkernel family or the bitwise contract breaks.
    fn config(&self) -> Result<FmmConfig, String> {
        let kernel = Kernel::from_name(&self.kernel)
            .ok_or_else(|| format!("job names unknown kernel {:?}", self.kernel))?;
        let mut cfg = FmmConfig::order(self.order as usize);
        cfg.m_trunc = self.m_trunc as usize;
        cfg.outer_ratio = self.outer_ratio;
        cfg.inner_ratio = self.inner_ratio;
        cfg.separation = match self.sep_d {
            1 => Separation::One,
            2 => Separation::Two,
            d => return Err(format!("job names unknown separation {d}")),
        };
        cfg.depth = DepthPolicy::Fixed(self.depth);
        cfg.softening = self.softening;
        cfg.kernel = Some(kernel);
        cfg.executor = Executor::spmd(self.workers as usize);
        cfg.balance = if self.cost_weighted {
            Balance::CostWeighted
        } else {
            Balance::Uniform
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------
// WorkerOut wire form
// ---------------------------------------------------------------------

/// `Result`: one worker's [`WorkerOut`], f64s as exact bit patterns.
pub fn encode_result(rank: u32, out: &WorkerOut) -> Vec<u8> {
    let mut b = ctrl_payload(OP_RESULT);
    put_u32(&mut b, rank);
    for ph in out.counters.iter() {
        put_u64(&mut b, ph.messages);
        put_u64(&mut b, ph.bytes);
        put_u64(&mut b, ph.local_words);
    }
    put_u64(&mut b, out.orig.len() as u64);
    for &o in &out.orig {
        put_u64(&mut b, o as u64);
    }
    put_f64s(&mut b, &out.pot);
    put_u32(&mut b, u32::from(out.fields.is_some()));
    if let Some(fs) = &out.fields {
        put_f64x3s(&mut b, fs);
    }
    put_u64(&mut b, out.near_stats.pair_interactions);
    put_u64(&mut b, out.near_stats.box_pairs);
    put_u64(&mut b, out.near_stats.flops);
    put_u64(&mut b, out.p2o_flops);
    put_u64(&mut b, out.eval_flops);
    put_u64(&mut b, out.traversal_flops);
    for t in out.times.iter().chain(&out.wait) {
        put_u64(&mut b, t.as_nanos() as u64);
    }
    b
}

pub fn read_result(r: &mut impl Read) -> io::Result<(u32, WorkerOut)> {
    read_message(r, OP_RESULT, |d| {
        let rank = d.u32()?;
        let mut counters = Counters::default();
        for phase in 0..Counters::PHASES {
            counters.set_phase(phase);
            let (messages, bytes, local) = (d.u64()?, d.u64()?, d.u64()?);
            if bytes % 8 != 0 {
                return Err(invalid("counter bytes not word-aligned".into()));
            }
            counters.add_messages(messages);
            counters.add_words(bytes / 8);
            counters.add_local_words(local);
        }
        counters.set_phase(0);
        let n = d.u64()?;
        let orig = d.u64s(n)?.into_iter().map(|o| o as usize).collect();
        let pot = d.f64s(n)?;
        let fields = if d.u32()? != 0 {
            Some(d.f64x3s(n)?)
        } else {
            None
        };
        let mut out = WorkerOut {
            counters,
            orig,
            pot,
            fields,
            near_stats: NearFieldStats {
                pair_interactions: d.u64()?,
                box_pairs: d.u64()?,
                flops: d.u64()?,
            },
            p2o_flops: d.u64()?,
            eval_flops: d.u64()?,
            traversal_flops: d.u64()?,
            ..WorkerOut::default()
        };
        for t in out.times.iter_mut().chain(&mut out.wait) {
            *t = Duration::from_nanos(d.u64()?);
        }
        Ok((rank, out))
    })
}

// ---------------------------------------------------------------------
// Control-plane endpoints (unix or tcp)
// ---------------------------------------------------------------------

trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// A control connection, its reads bounded by [`CTRL_TIMEOUT`].
fn ctrl_conn<S: MeshStream>(s: S) -> io::Result<Box<dyn Conn>> {
    s.read_timeout(CTRL_TIMEOUT)?;
    Ok(Box::new(s))
}

enum CtrlListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl CtrlListener {
    fn bind(addr: &FabricAddr) -> io::Result<Self> {
        match addr {
            FabricAddr::Tcp(a) => Ok(CtrlListener::Tcp(TcpListener::bind(a.as_str())?)),
            #[cfg(unix)]
            FabricAddr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                Ok(CtrlListener::Unix(UnixListener::bind(p)?))
            }
            #[cfg(not(unix))]
            FabricAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix rendezvous needs UNIX-domain sockets",
            )),
        }
    }

    /// The address workers should dial — for `tcp:host:0` this is the
    /// OS-assigned port, not the wildcard the launcher was given.
    fn resolved(&self, requested: &FabricAddr) -> io::Result<FabricAddr> {
        match self {
            CtrlListener::Tcp(l) => Ok(FabricAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            CtrlListener::Unix(_) => Ok(requested.clone()),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            CtrlListener::Tcp(l) => ctrl_conn(l.accept()?.0),
            #[cfg(unix)]
            CtrlListener::Unix(l) => ctrl_conn(l.accept()?.0),
        }
    }
}

/// Connect the rendezvous, retrying briefly: workers may start before
/// the launcher has bound its endpoint.
fn ctrl_connect(addr: &FabricAddr) -> io::Result<Box<dyn Conn>> {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let res = match addr {
            FabricAddr::Tcp(a) => TcpStream::connect(a.as_str()).and_then(ctrl_conn),
            #[cfg(unix)]
            FabricAddr::Unix(p) => UnixStream::connect(p).and_then(ctrl_conn),
            #[cfg(not(unix))]
            FabricAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix rendezvous needs UNIX-domain sockets",
            )),
        };
        match res {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() < deadline => {
                let transient = matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::NotFound
                        | io::ErrorKind::AddrNotAvailable
                );
                if !transient {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------

/// How a multi-process run is launched.
pub struct LaunchConfig {
    /// Rendezvous endpoint; its kind (unix/tcp) is also the data fabric.
    pub rendezvous: FabricAddr,
    /// Rank count (power of two).
    pub workers: usize,
    /// Evaluate forces as well as potentials.
    pub with_fields: bool,
    /// Spawn this `fmm-worker` binary for every rank. `None` waits for
    /// externally started workers to join the rendezvous.
    pub worker_bin: Option<PathBuf>,
    /// Pre-flight traffic ceiling in bytes (`None` skips the capacity
    /// gate but still validates frame feasibility).
    pub capacity_bytes: Option<u64>,
}

fn io_err(stage: &str, e: impl std::fmt::Display) -> FmmError {
    FmmError::InvalidConfig(format!("distributed launch failed at {stage}: {e}"))
}

/// Evaluate `fmm` on `p` OS-process ranks joined through a rendezvous.
/// Output — potentials, fields, counters, report — is bitwise identical
/// to `Executor::spmd(p)` in one process.
pub fn evaluate_distributed(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    lc: &LaunchConfig,
) -> Result<EvalOutput, FmmError> {
    let cfg = fmm.config();
    let p = lc.workers;
    if p == 0 || !p.is_power_of_two() {
        return Err(FmmError::InvalidConfig(format!(
            "distributed worker count {p} must be a power of two"
        )));
    }
    if positions.len() != charges.len() || positions.is_empty() {
        return Err(FmmError::BadInput(format!(
            "{} positions vs {} charges",
            positions.len(),
            charges.len()
        )));
    }
    let domain = Domain::bounding(positions);
    let depth = cfg.depth.resolve(positions.len());
    let grid = vu_grid_for(p);
    let n_axis = 1usize << depth;
    if grid.dims.iter().any(|&d| d > n_axis) {
        return Err(FmmError::InvalidConfig(format!(
            "{p} workers on a {:?} grid exceed depth {depth}'s {n_axis} boxes per axis",
            grid.dims
        )));
    }
    let balance = cfg.balance;
    let plan = fmm.plan_for(depth);
    let program = build_program(fmm, positions, domain, depth, grid, lc.with_fields, balance);

    // Pre-flight: price the program on the selected wire and refuse to
    // spawn ranks for a run that cannot fit the operator's budget.
    let budget = communication_budget_with(
        &ProgramConfig {
            depth,
            k: fmm.k(),
            m: cfg.m_trunc,
            particles_per_box: positions.len() as f64 / 8f64.powi(depth as i32),
            vu_grid: grid,
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / p as f64,
            forces_near: lc.with_fields,
        },
        program.partition.as_ref().map(|ps| &ps.partition),
    );
    let model = TransportModel::by_name(lc.rendezvous.fabric().name())
        .expect("every fabric has a transport model");
    preflight(&budget, &model, lc.capacity_bytes).map_err(FmmError::InvalidConfig)?;

    let listener = CtrlListener::bind(&lc.rendezvous).map_err(|e| io_err("rendezvous bind", e))?;
    let rendezvous = listener
        .resolved(&lc.rendezvous)
        .map_err(|e| io_err("rendezvous addr", e))?;

    let mut children: Vec<Child> = Vec::new();
    if let Some(bin) = &lc.worker_bin {
        for rank in 0..p {
            let child = Command::new(bin)
                .arg("--rank")
                .arg(rank.to_string())
                .arg("--fabric")
                .arg(rendezvous.to_string())
                .spawn()
                .map_err(|e| io_err("worker spawn", e))?;
            children.push(child);
        }
    }

    let run = || -> io::Result<Vec<WorkerOut>> {
        // Collect one Hello per rank; the mesh table is rank-indexed.
        let mut conns: Vec<Option<Box<dyn Conn>>> = (0..p).map(|_| None).collect();
        let mut peers = vec![String::new(); p];
        for _ in 0..p {
            let mut conn = listener.accept()?;
            let (rank, mesh_addr) = read_hello(&mut conn)?;
            let rank = rank as usize;
            if rank >= p || conns[rank].is_some() {
                return Err(invalid(format!(
                    "duplicate or out-of-range rank {rank} at rendezvous"
                )));
            }
            peers[rank] = mesh_addr;
            conns[rank] = Some(conn);
        }
        let job = encode_job(&JobSpec {
            order: cfg.order as u32,
            m_trunc: cfg.m_trunc as u32,
            outer_ratio: cfg.outer_ratio,
            inner_ratio: cfg.inner_ratio,
            sep_d: cfg.separation.d() as u32,
            depth,
            softening: cfg.softening,
            kernel: cfg.resolve_kernel().name().to_string(),
            cost_weighted: balance == Balance::CostWeighted,
            with_fields: lc.with_fields,
            workers: p as u32,
            domain_min: domain.min,
            domain_size: domain.size,
            positions: positions.to_vec(),
            charges: charges.to_vec(),
            peers,
        });
        for conn in conns.iter_mut().flatten() {
            fmm_wire::write_frame(conn, &job, MAX_CTRL)?;
        }
        let mut outs: Vec<Option<WorkerOut>> = (0..p).map(|_| None).collect();
        for (rank, conn) in conns.iter_mut().enumerate() {
            let conn = conn.as_mut().unwrap();
            let (r, out) = read_result(conn)?;
            if r as usize != rank {
                return Err(invalid(format!(
                    "rank {rank}'s connection returned rank {r}'s result"
                )));
            }
            if let Some(o) = out.orig.iter().find(|&&o| o >= positions.len()) {
                return Err(invalid(format!(
                    "rank {rank} returned particle {o} of {}",
                    positions.len()
                )));
            }
            outs[rank] = Some(out);
        }
        Ok(outs.into_iter().map(Option::unwrap).collect())
    };
    let outs = run();

    // Reap spawned workers regardless of how the exchange went.
    let mut child_fail = None;
    for (rank, mut child) in children.into_iter().enumerate() {
        if outs.is_err() {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(st) if st.success() || outs.is_err() => {}
            Ok(st) => child_fail = Some(format!("worker rank {rank} exited with {st}")),
            Err(e) => child_fail = Some(format!("worker rank {rank} unreapable: {e}")),
        }
    }
    if let FabricAddr::Unix(path) = &lc.rendezvous {
        let _ = std::fs::remove_file(path);
    }
    let outs = outs.map_err(|e| io_err("rendezvous exchange", e))?;
    if let Some(fail) = child_fail {
        return Err(io_err("worker exit", fail));
    }
    Ok(assemble(
        fmm,
        &plan,
        &program,
        positions.len(),
        domain,
        outs,
    ))
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

fn run_job<S: MeshStream>(
    rank: usize,
    job: &JobSpec,
    mesh: Vec<Option<S>>,
) -> Result<WorkerOut, String> {
    let cfg = job.config()?;
    let fmm = Fmm::new(cfg).map_err(|e| e.to_string())?;
    let p = job.workers as usize;
    let grid = vu_grid_for(p);
    let domain = Domain {
        min: job.domain_min,
        size: job.domain_size,
    };
    let plan = fmm.plan_for(job.depth);
    let program = build_program(
        &fmm,
        &job.positions,
        domain,
        job.depth,
        grid,
        job.with_fields,
        fmm.config().balance,
    );
    let shared = exec::Shared {
        fmm: &fmm,
        positions: &job.positions,
        charges: &job.charges,
        domain,
        depth: job.depth,
        with_fields: job.with_fields,
        plan: &plan,
        program: &program,
    };
    let transport = SocketTransport::new(rank, mesh).map_err(|e| e.to_string())?;
    let ctx = WorkerCtx::new(rank, grid, Box::new(transport));
    Ok(exec::worker_main(ctx, &shared))
}

/// Join a rendezvous as rank `rank` and execute the job the launcher
/// publishes: the `fmm-worker` binary is a thin shell over this.
pub fn worker_join(rendezvous: &FabricAddr, rank: usize) -> Result<(), String> {
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("rank {rank} {stage}: {e}");

    // Bind the mesh listener *before* saying Hello: once the launcher
    // publishes the address table, every listener is guaranteed bound.
    enum MeshListener {
        Tcp(TcpListener),
        #[cfg(unix)]
        Unix(UnixListener, PathBuf),
    }
    let (mesh_listener, mesh_addr) = match rendezvous {
        FabricAddr::Tcp(_) => {
            let l = TcpListener::bind("127.0.0.1:0").map_err(|e| err("mesh bind", &e))?;
            let a = l.local_addr().map_err(|e| err("mesh addr", &e))?;
            (MeshListener::Tcp(l), format!("tcp:{a}"))
        }
        #[cfg(unix)]
        FabricAddr::Unix(base) => {
            let path = PathBuf::from(format!("{}.r{rank}", base.display()));
            let _ = std::fs::remove_file(&path);
            let l = UnixListener::bind(&path).map_err(|e| err("mesh bind", &e))?;
            let a = format!("unix:{}", path.display());
            (MeshListener::Unix(l, path), a)
        }
        #[cfg(not(unix))]
        FabricAddr::Unix(_) => return Err("unix fabric needs UNIX-domain sockets".into()),
    };

    let mut conn = ctrl_connect(rendezvous).map_err(|e| err("rendezvous connect", &e))?;
    let hello = encode_hello(rank as u32, &mesh_addr);
    fmm_wire::write_frame(&mut conn, &hello, MAX_CTRL).map_err(|e| err("hello", &e))?;

    let job = read_job(&mut conn).map_err(|e| err("job read", &e))?;
    let p = job.workers as usize;
    if rank >= p {
        return Err(format!("rank {rank} out of range for {p} workers"));
    }

    let out = match mesh_listener {
        MeshListener::Tcp(l) => {
            let mesh = connect_mesh(
                rank,
                p,
                |peer| {
                    let a = job.peers[peer]
                        .strip_prefix("tcp:")
                        .ok_or_else(|| invalid("peer kind".into()))?;
                    TcpStream::connect(a)
                },
                || l.accept().map(|(s, _)| s),
            )
            .map_err(|e| err("mesh", &e))?;
            run_job(rank, &job, mesh)?
        }
        #[cfg(unix)]
        MeshListener::Unix(l, path) => {
            let mesh = connect_mesh(
                rank,
                p,
                |peer| {
                    let a = job.peers[peer]
                        .strip_prefix("unix:")
                        .ok_or_else(|| invalid("peer kind".into()))?;
                    UnixStream::connect(a)
                },
                || l.accept().map(|(s, _)| s),
            );
            let _ = std::fs::remove_file(&path);
            run_job(rank, &job, mesh.map_err(|e| err("mesh", &e))?)?
        }
    };

    let result = encode_result(rank as u32, &out);
    fmm_wire::write_frame(&mut conn, &result, MAX_CTRL).map_err(|e| err("result", &e))?;
    Ok(())
}

/// Everything an `SpmdOptions` launch needs to know, derived from the
/// environment: the `--fabric`-style rendezvous address in `FMM_FABRIC`,
/// the worker binary in `FMM_WORKER_BIN`, and an optional capacity gate
/// in `FMM_CAPACITY_BYTES`.
pub fn launch_config_from_env(opts: SpmdOptions, with_fields: bool) -> Option<LaunchConfig> {
    let addr = std::env::var("FMM_FABRIC").ok()?;
    let rendezvous = FabricAddr::parse(&addr).ok()?;
    if rendezvous.fabric() != opts.transport {
        return None;
    }
    Some(LaunchConfig {
        rendezvous,
        workers: opts.workers,
        with_fields,
        worker_bin: std::env::var_os("FMM_WORKER_BIN").map(PathBuf::from),
        capacity_bytes: std::env::var("FMM_CAPACITY_BYTES")
            .ok()
            .and_then(|v| v.parse().ok()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        fmm_wire::write_frame(&mut frame, payload, MAX_CTRL).unwrap();
        frame
    }

    fn job(cost_weighted: bool, workers: u32, n: usize) -> JobSpec {
        JobSpec {
            order: 3,
            m_trunc: 5,
            outer_ratio: 1.25,
            inner_ratio: 0.875,
            sep_d: 2,
            depth: 3,
            softening: 0.0,
            kernel: "scalar".into(),
            cost_weighted,
            with_fields: cost_weighted,
            workers,
            domain_min: [-1.0, 0.5, 2.0],
            domain_size: 3.5,
            positions: (0..n).map(|i| [0.1, 0.2, i as f64]).collect(),
            charges: (0..n).map(|i| 1.0 - i as f64).collect(),
            peers: vec!["unix:/tmp/a".into(); workers as usize],
        }
    }

    #[test]
    fn job_spec_round_trips() {
        let job = job(true, 4, 2);
        let out = read_job(&mut framed(&encode_job(&job)).as_slice()).unwrap();
        assert_eq!(out, job);
        let cfg = out.config().unwrap();
        assert_eq!(cfg.m_trunc, 5);
        assert_eq!(cfg.balance, Balance::CostWeighted);
    }

    #[test]
    fn job_decode_rejects_truncation() {
        let payload = encode_job(&job(false, 2, 1));
        for cut in 0..payload.len() {
            let frame = framed(&payload[..cut]);
            assert!(read_job(&mut frame.as_slice()).is_err(), "cut {cut}");
        }
        let mut extra = payload.clone();
        extra.push(0);
        assert!(
            read_job(&mut framed(&extra).as_slice()).is_err(),
            "trailing byte accepted"
        );
    }

    #[test]
    fn worker_out_round_trips_counters_and_bits() {
        let mut counters = Counters::default();
        counters.set_phase(2);
        counters.add_messages(7);
        counters.add_words(100);
        counters.set_phase(5);
        counters.add_local_words(3);
        counters.set_phase(0);
        let out = WorkerOut {
            counters,
            orig: vec![4, 0, 2],
            pot: vec![1.5, f64::from_bits(0x7ff8_0000_0000_0001), -0.0],
            fields: Some(vec![[1.0, 2.0, 3.0]; 3]),
            near_stats: NearFieldStats {
                pair_interactions: 9,
                box_pairs: 4,
                flops: 99,
            },
            p2o_flops: 1,
            eval_flops: 2,
            traversal_flops: 3,
            times: [Duration::from_nanos(5); 6],
            wait: [Duration::from_nanos(2); 6],
        };
        let frame = framed(&encode_result(3, &out));
        let (rank, back) = read_result(&mut frame.as_slice()).unwrap();
        assert_eq!(rank, 3);
        assert_eq!(back.counters, out.counters);
        assert_eq!(back.orig, out.orig);
        for (a, b) in out.pot.iter().zip(&back.pot) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.fields, out.fields);
        assert_eq!(back.near_stats, out.near_stats);
        assert_eq!(back.times, out.times);
        assert_eq!(back.wait, out.wait);
    }

    #[test]
    fn ctrl_frames_round_trip_and_reject_bad_magic_and_opcode() {
        let mut buf = framed(&encode_hello(5, "tcp:127.0.0.1:9"));
        let hello = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(hello, (5, "tcp:127.0.0.1:9".to_string()));
        assert!(
            read_job(&mut buf.as_slice()).is_err(),
            "Hello read as a Job"
        );
        buf[4] = b'X';
        assert!(read_hello(&mut buf.as_slice()).is_err());
    }

    /// The bytes of a `Job` for `workers` ranks, up to and excluding its
    /// particle count.
    fn job_head(workers: u32) -> Vec<u8> {
        let mut head = job(false, 0, 0);
        head.workers = workers;
        let mut b = encode_job(&head);
        b.truncate(b.len() - 12); // n: u64, peer count: u32
        b
    }

    #[test]
    fn hostile_result_particle_count_is_an_error() {
        let mut b = ctrl_payload(OP_RESULT);
        put_u32(&mut b, 0);
        for _ in 0..3 * Counters::PHASES {
            put_u64(&mut b, 0);
        }
        put_u64(&mut b, 1 << 40);
        assert!(read_result(&mut framed(&b).as_slice()).is_err());
    }

    #[test]
    fn hostile_job_particle_count_is_an_error() {
        let mut b = job_head(0);
        put_u64(&mut b, 1 << 61); // 8 · 3 · 2^61 wraps to 0 in u64
        put_u32(&mut b, 0);
        assert!(read_job(&mut framed(&b).as_slice()).is_err());
    }

    #[test]
    fn hostile_job_peer_count_is_an_error() {
        let mut b = job_head(u32::MAX);
        put_u64(&mut b, 0);
        put_u32(&mut b, u32::MAX);
        assert!(read_job(&mut framed(&b).as_slice()).is_err());
        // A table that does not name one peer per worker is refused too.
        let mut short = job(false, 2, 1);
        short.peers.pop();
        assert!(read_job(&mut framed(&encode_job(&short)).as_slice()).is_err());
    }
}
