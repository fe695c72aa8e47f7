//! Multi-process execution: the same `CommProgram`, ranks as OS processes.
//!
//! A launcher ([`evaluate_distributed`]) binds a rendezvous endpoint
//! (`unix:/path` or `tcp:host:port`) and optionally spawns `p` copies of
//! the `fmm-worker` binary; independently started workers can join the
//! same rendezvous by address. The control plane speaks `FMMC` frames
//! (length-prefixed, same little-endian discipline as the `FMMW` data
//! plane):
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
// FMMC framing and primitive encodings
// ---------------------------------------------------------------------

fn write_ctrl(w: &mut impl Write, op: u8, body: &[u8]) -> io::Result<()> {
    let len = 5 + body.len();
    if len > MAX_CTRL {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "control frame exceeds MAX_CTRL",
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&CTRL_MAGIC)?;
    w.write_all(&[op])?;
    w.write_all(body)?;
    w.flush()
}

fn read_ctrl(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    let len = u32::from_le_bytes(lenb) as usize;
    if !(5..=MAX_CTRL).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame length {len} out of range"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if payload[..4] != CTRL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad control magic {:02x?}", &payload[..4]),
        ));
    }
    let op = payload[4];
    payload.drain(..5);
    Ok((op, payload))
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(b: &mut Vec<u8>, v: f64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Decode cursor with bounds-checked little-endian takes.
struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b }
    }
    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.b.len() < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("truncated control body: need {n}, have {}", self.b.len()),
            ));
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
    fn f64s(&mut self, n: usize) -> io::Result<Vec<f64>> {
        Ok(self
            .bytes(8 * n)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn done(&self) -> io::Result<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} trailing bytes in control body", self.b.len()),
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Job description
// ---------------------------------------------------------------------

/// Everything a worker needs to reproduce the launcher's evaluation
/// bitwise: the method knobs (kernel resolved by name), the system, and
/// the mesh address table.
pub(crate) struct JobSpec {
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

impl JobSpec {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, self.order);
        put_u32(&mut b, self.m_trunc);
        put_f64(&mut b, self.outer_ratio);
        put_f64(&mut b, self.inner_ratio);
        put_u32(&mut b, self.sep_d);
        put_u32(&mut b, self.depth);
        put_f64(&mut b, self.softening);
        put_str(&mut b, &self.kernel);
        put_u32(&mut b, u32::from(self.cost_weighted));
        put_u32(&mut b, u32::from(self.with_fields));
        put_u32(&mut b, self.workers);
        for d in 0..3 {
            put_f64(&mut b, self.domain_min[d]);
        }
        put_f64(&mut b, self.domain_size);
        put_u64(&mut b, self.positions.len() as u64);
        for p in &self.positions {
            for &c in p {
                put_f64(&mut b, c);
            }
        }
        for &q in &self.charges {
            put_f64(&mut b, q);
        }
        put_u32(&mut b, self.peers.len() as u32);
        for a in &self.peers {
            put_str(&mut b, a);
        }
        b
    }

    fn decode(body: &[u8]) -> io::Result<JobSpec> {
        let mut d = Dec::new(body);
        let order = d.u32()?;
        let m_trunc = d.u32()?;
        let outer_ratio = d.f64()?;
        let inner_ratio = d.f64()?;
        let sep_d = d.u32()?;
        let depth = d.u32()?;
        let softening = d.f64()?;
        let kernel = d.str()?;
        let cost_weighted = d.u32()? != 0;
        let with_fields = d.u32()? != 0;
        let workers = d.u32()?;
        let domain_min = [d.f64()?, d.f64()?, d.f64()?];
        let domain_size = d.f64()?;
        let n = d.u64()? as usize;
        let flat = d.f64s(3 * n)?;
        let positions = flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
        let charges = d.f64s(n)?;
        let np = d.u32()? as usize;
        let mut peers = Vec::with_capacity(np);
        for _ in 0..np {
            peers.push(d.str()?);
        }
        d.done()?;
        Ok(JobSpec {
            order,
            m_trunc,
            outer_ratio,
            inner_ratio,
            sep_d,
            depth,
            softening,
            kernel,
            cost_weighted,
            with_fields,
            workers,
            domain_min,
            domain_size,
            positions,
            charges,
            peers,
        })
    }

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

fn encode_out(rank: u32, out: &WorkerOut) -> Vec<u8> {
    let mut b = Vec::new();
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
    for &p in &out.pot {
        put_f64(&mut b, p);
    }
    put_u32(&mut b, u32::from(out.fields.is_some()));
    if let Some(fs) = &out.fields {
        for f in fs {
            for &c in f {
                put_f64(&mut b, c);
            }
        }
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

fn decode_out(body: &[u8]) -> io::Result<(u32, WorkerOut)> {
    let mut d = Dec::new(body);
    let rank = d.u32()?;
    let mut counters = Counters::default();
    for phase in 0..Counters::PHASES {
        counters.set_phase(phase);
        let (messages, bytes, local) = (d.u64()?, d.u64()?, d.u64()?);
        if bytes % 8 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "counter bytes not word-aligned",
            ));
        }
        counters.add_messages(messages);
        counters.add_words(bytes / 8);
        counters.add_local_words(local);
    }
    counters.set_phase(0);
    let n = d.u64()? as usize;
    let mut orig = Vec::with_capacity(n);
    for _ in 0..n {
        orig.push(d.u64()? as usize);
    }
    let pot = d.f64s(n)?;
    let fields = if d.u32()? != 0 {
        let flat = d.f64s(3 * n)?;
        Some(flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect())
    } else {
        None
    };
    let near_stats = NearFieldStats {
        pair_interactions: d.u64()?,
        box_pairs: d.u64()?,
        flops: d.u64()?,
    };
    let p2o_flops = d.u64()?;
    let eval_flops = d.u64()?;
    let traversal_flops = d.u64()?;
    let (mut times, mut wait) = ([Duration::ZERO; 6], [Duration::ZERO; 6]);
    for t in times.iter_mut().chain(&mut wait) {
        *t = Duration::from_nanos(d.u64()?);
    }
    d.done()?;
    Ok((
        rank,
        WorkerOut {
            counters,
            orig,
            pot,
            fields,
            near_stats,
            p2o_flops,
            eval_flops,
            traversal_flops,
            times,
            wait,
        },
    ))
}

// ---------------------------------------------------------------------
// Control-plane endpoints (unix or tcp)
// ---------------------------------------------------------------------

trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

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
            CtrlListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(CTRL_TIMEOUT))?;
                Ok(Box::new(s))
            }
            #[cfg(unix)]
            CtrlListener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(CTRL_TIMEOUT))?;
                Ok(Box::new(s))
            }
        }
    }
}

/// Connect the rendezvous, retrying briefly: workers may start before
/// the launcher has bound its endpoint.
fn ctrl_connect(addr: &FabricAddr) -> io::Result<Box<dyn Conn>> {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let res: io::Result<Box<dyn Conn>> = match addr {
            FabricAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(|s| {
                let _ = s.set_read_timeout(Some(CTRL_TIMEOUT));
                Box::new(s) as Box<dyn Conn>
            }),
            #[cfg(unix)]
            FabricAddr::Unix(p) => UnixStream::connect(p).map(|s| {
                let _ = s.set_read_timeout(Some(CTRL_TIMEOUT));
                Box::new(s) as Box<dyn Conn>
            }),
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
    let balance = cfg.effective_balance();
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
            let (op, body) = read_ctrl(&mut conn)?;
            if op != OP_HELLO {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Hello, got opcode {op}"),
                ));
            }
            let mut dec = Dec::new(&body);
            let rank = dec.u32()? as usize;
            let mesh_addr = dec.str()?;
            dec.done()?;
            if rank >= p || conns[rank].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("duplicate or out-of-range rank {rank} at rendezvous"),
                ));
            }
            peers[rank] = mesh_addr;
            conns[rank] = Some(conn);
        }
        let job = JobSpec {
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
        }
        .encode();
        for conn in conns.iter_mut().flatten() {
            write_ctrl(conn, OP_JOB, &job)?;
        }
        let mut outs: Vec<Option<WorkerOut>> = (0..p).map(|_| None).collect();
        for (rank, conn) in conns.iter_mut().enumerate() {
            let conn = conn.as_mut().unwrap();
            let (op, body) = read_ctrl(conn)?;
            if op != OP_RESULT {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Result from rank {rank}, got opcode {op}"),
                ));
            }
            let (r, out) = decode_out(&body)?;
            if r as usize != rank {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {rank}'s connection returned rank {r}'s result"),
                ));
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
        fmm.config().effective_balance(),
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
    let mut hello = Vec::new();
    put_u32(&mut hello, rank as u32);
    put_str(&mut hello, &mesh_addr);
    write_ctrl(&mut conn, OP_HELLO, &hello).map_err(|e| err("hello", &e))?;

    let (op, body) = read_ctrl(&mut conn).map_err(|e| err("job read", &e))?;
    if op != OP_JOB {
        return Err(err("job read", &format!("unexpected opcode {op}")));
    }
    let job = JobSpec::decode(&body).map_err(|e| err("job decode", &e))?;
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
                        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "peer kind"))?;
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
                        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "peer kind"))?;
                    UnixStream::connect(a)
                },
                || l.accept().map(|(s, _)| s),
            );
            let _ = std::fs::remove_file(&path);
            run_job(rank, &job, mesh.map_err(|e| err("mesh", &e))?)?
        }
    };

    let body = encode_out(rank as u32, &out);
    write_ctrl(&mut conn, OP_RESULT, &body).map_err(|e| err("result", &e))?;
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

    #[test]
    fn job_spec_round_trips() {
        let job = JobSpec {
            order: 3,
            m_trunc: 5,
            outer_ratio: 1.25,
            inner_ratio: 0.875,
            sep_d: 2,
            depth: 3,
            softening: 0.0,
            kernel: "scalar".into(),
            cost_weighted: true,
            with_fields: true,
            workers: 4,
            domain_min: [-1.0, 0.5, 2.0],
            domain_size: 3.5,
            positions: vec![[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
            charges: vec![1.0, -1.0],
            peers: vec!["unix:/tmp/a".into(); 4],
        };
        let out = JobSpec::decode(&job.encode()).unwrap();
        assert_eq!(out.order, 3);
        assert_eq!(out.positions, job.positions);
        assert_eq!(out.charges, job.charges);
        assert_eq!(out.peers, job.peers);
        assert!(out.cost_weighted && out.with_fields);
        let cfg = out.config().unwrap();
        assert_eq!(cfg.m_trunc, 5);
        assert_eq!(cfg.balance, Balance::CostWeighted);
    }

    #[test]
    fn job_decode_rejects_truncation() {
        let job = JobSpec {
            order: 3,
            m_trunc: 5,
            outer_ratio: 1.25,
            inner_ratio: 0.875,
            sep_d: 2,
            depth: 3,
            softening: 0.0,
            kernel: "scalar".into(),
            cost_weighted: false,
            with_fields: false,
            workers: 2,
            domain_min: [0.0; 3],
            domain_size: 1.0,
            positions: vec![[0.1, 0.2, 0.3]],
            charges: vec![1.0],
            peers: vec!["tcp:127.0.0.1:1".into(); 2],
        };
        let bytes = job.encode();
        for cut in [0, 4, 17, bytes.len() - 1] {
            assert!(JobSpec::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(JobSpec::decode(&extra).is_err(), "trailing byte accepted");
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
        let (rank, back) = decode_out(&encode_out(3, &out)).unwrap();
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
    fn ctrl_frames_round_trip_and_reject_bad_magic() {
        let mut buf = Vec::new();
        write_ctrl(&mut buf, OP_HELLO, b"payload").unwrap();
        let (op, body) = read_ctrl(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_HELLO);
        assert_eq!(body, b"payload");
        buf[4] = b'X';
        assert!(read_ctrl(&mut buf.as_slice()).is_err());
    }
}
