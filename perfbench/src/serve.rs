//! `serve`: an in-process `cjrcd` (event front end, two workers) driven
//! open-loop.
//!
//! Requests are due at a fixed rate with seeded exponential gaps and are
//! pipelined over two connection slots, taken in turn. Each slot runs one
//! conversation at a time: open a seeded suite program, about 20 requests
//! (edit 20%, check 40% of which half come right after an edit, query
//! 30%, policy 10%), then `shutdown`; the next request on that slot opens
//! a new connection with a new draw. An edit replaces one integer literal
//! inside a method body. Latency is timed from each request's *due* time,
//! so a stall also charges the requests queued behind it.
//!
//! One thread sends (sleeping until each due time), one reads every
//! connection through a `cj_net::Poller`; responses are validated after
//! the phase, so validation never delays a receive timestamp.

use crate::common::{self, ms, Report, Rng, Spans};
use cj_benchmarks::Benchmark;
use cj_driver::{
    parse_json, Daemon, DaemonConfig, Frontend, Json, Server, SessionOptions, Workspace,
};
use cj_regions::incremental::SolveMemo;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load of the latency phase, in requests per second: about 40%
/// of the ~2600 req/s saturation measured on a 2-vCPU x86-64 VM. Far below
/// it the vCPUs idle between requests and the median is mostly wake-up
/// latency, which varies several-fold from run to run on a shared host.
pub const NOMINAL_RPS: f64 = 1000.0;
/// The p99 latency limit of the ladder. At the nominal rate p99 is already
/// 25–60 ms, since a connection's requests wait behind its ~13 ms checks;
/// near saturation p99 climbs steeply through 100 ms.
pub const LIMIT_MS: f64 = 100.0;
/// Fixed ladder of offered rates above nominal, searched for the highest
/// one that meets the limit with no growing backlog.
pub const LADDER_RPS: [f64; 22] = [
    1500.0, 1600.0, 1700.0, 1800.0, 1900.0, 2000.0, 2100.0, 2200.0, 2300.0, 2400.0, 2500.0, 2600.0,
    2700.0, 2800.0, 2900.0, 3000.0, 3100.0, 3200.0, 3300.0, 3400.0, 3500.0, 3600.0,
];
/// Requests a conversation runs between its `open` and its `shutdown`.
const CONVERSATION: usize = 20;
const SLOTS: usize = 2;
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open,
    Edit,
    Check,
    Query,
    Policy,
    Shutdown,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Edit => "edit",
            Kind::Check => "check",
            Kind::Query => "query",
            Kind::Policy => "policy",
            Kind::Shutdown => "shutdown",
        }
    }
}

/// A suite program prepared for conversations.
pub struct Program {
    pub text: String,
    /// Byte ranges of the integer literals inside method bodies.
    pub literals: Vec<(usize, usize)>,
    /// Names of the program's constraint abstractions (`inv.C`, `pre.C.m`).
    pub queries: Vec<String>,
    pub classes: Vec<String>,
}

/// Integer literals at brace depth two or more, i.e. inside method bodies.
fn literal_ranges(src: &str) -> Vec<(usize, usize)> {
    use cj_frontend::token::TokenKind;
    let (tokens, _) = cj_frontend::lexer::lex(src);
    let mut depth = 0usize;
    let mut out = Vec::new();
    for token in tokens {
        match token.kind {
            TokenKind::LBrace => depth += 1,
            TokenKind::RBrace => depth = depth.saturating_sub(1),
            TokenKind::Int(_) if depth >= 2 => {
                out.push((token.span.lo as usize, token.span.hi as usize));
            }
            _ => {}
        }
    }
    out
}

fn prepare(b: &Benchmark) -> Program {
    let mut session = cj_driver::Session::new(b.source, SessionOptions::default());
    let compilation = session.check().expect("suite program compiles");
    let mut queries: Vec<String> = compilation
        .program
        .q
        .iter()
        .map(|a| a.name.clone())
        .collect();
    queries.sort();
    let classes = queries
        .iter()
        .filter_map(|q| q.strip_prefix("inv."))
        .map(str::to_string)
        .collect();
    Program {
        text: b.source.to_string(),
        literals: literal_ranges(b.source),
        queries,
        classes,
    }
}

/// One request of a conversation.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    /// A `check` sent right after an `edit`: it must re-infer.
    pub after_edit: bool,
    pub line: String,
}

fn req(kind: Kind, line: String) -> Req {
    Req {
        kind,
        after_edit: false,
        line,
    }
}

fn source_line(cmd: &str, text: &str) -> String {
    format!(
        "{{\"cmd\":\"{cmd}\",\"file\":\"main.cj\",\"text\":{}}}",
        cj_diag::json_string(text)
    )
}

/// One seeded conversation: open, about [`CONVERSATION`] requests, shutdown.
fn conversation(rng: &mut Rng, p: &Program) -> Vec<Req> {
    let mut text = p.text.clone();
    let mut literals = p.literals.clone();
    let mut out = vec![req(Kind::Open, source_line("open", &text))];
    while out.len() <= CONVERSATION {
        match rng.below(80) {
            0..=19 if !literals.is_empty() => {
                // Replace one literal with a different value.
                let i = rng.below(literals.len());
                let (lo, hi) = literals[i];
                let old: i64 = text[lo..hi].parse().expect("integer literal");
                let new = old.wrapping_add(1 + rng.below(1000) as i64).to_string();
                text.replace_range(lo..hi, &new);
                let delta = new.len() as isize - (hi - lo) as isize;
                literals[i].1 = lo + new.len();
                for range in &mut literals[i + 1..] {
                    range.0 = (range.0 as isize + delta) as usize;
                    range.1 = (range.1 as isize + delta) as usize;
                }
                out.push(req(Kind::Edit, source_line("edit", &text)));
                out.push(Req {
                    kind: Kind::Check,
                    after_edit: true,
                    line: "{\"cmd\":\"check\"}".to_string(),
                });
            }
            0..=39 => out.push(req(Kind::Check, "{\"cmd\":\"check\"}".to_string())),
            40..=69 => {
                let q = &p.queries[rng.below(p.queries.len())];
                out.push(req(
                    Kind::Query,
                    format!("{{\"cmd\":\"query\",\"name\":{}}}", cj_diag::json_string(q)),
                ));
            }
            _ => {
                let class = &p.classes[rng.below(p.classes.len())];
                out.push(req(
                    Kind::Policy,
                    format!("{{\"cmd\":\"policy\",\"rules\":\"no-escape {class}\"}}"),
                ));
            }
        }
    }
    out.push(req(Kind::Shutdown, "{\"cmd\":\"shutdown\"}".to_string()));
    out
}

/// A scheduled request: due `due_units / rate` seconds into a phase.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due_units: f64,
    pub slot: usize,
    pub req: Req,
}

/// The seeded request stream: unit-rate exponential gaps, requests dealt
/// to the slots in turn, each slot working through its conversations. The
/// same seed gives the same stream at every rate; a rate only scales time.
pub fn plan(seed: u64, programs: &[Program], requests: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut at = 0.0;
    let mut current: Vec<VecDeque<Req>> = vec![VecDeque::new(); SLOTS];
    // Programs are dealt from seeded permutations of the corpus, so every
    // stretch of 20 conversations opens each program once.
    let mut deck: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(requests + SLOTS);
    for k in 0..requests {
        at += -rng.unit().ln();
        let slot = k % SLOTS;
        if current[slot].is_empty() {
            if deck.is_empty() {
                deck = (0..programs.len()).collect();
                rng.shuffle(&mut deck);
            }
            let program = &programs[deck.pop().expect("refilled")];
            current[slot] = conversation(&mut rng, program).into();
        }
        let req = current[slot].pop_front().expect("refilled");
        out.push(Planned {
            due_units: at,
            slot,
            req,
        });
    }
    // Close the conversations still open at the end of the phase.
    for (slot, rest) in current.iter().enumerate() {
        if !rest.is_empty() {
            out.push(Planned {
                due_units: at,
                slot,
                req: req(Kind::Shutdown, "{\"cmd\":\"shutdown\"}".to_string()),
            });
        }
    }
    out
}

/// Whether `response` is a valid answer to `r`.
pub fn validate(r: &Req, response: &str) -> Result<(), String> {
    let json = parse_json(response).map_err(|e| format!("malformed response: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "refused: {}",
            json.get_str("error").unwrap_or(response)
        ));
    }
    let status = json.get_str("status").unwrap_or("");
    match r.kind {
        Kind::Open | Kind::Edit => Ok(()),
        Kind::Check if status != "well-region-typed" => Err(format!("check status `{status}`")),
        Kind::Check if r.after_edit => {
            match json
                .get("passes_executed")
                .and_then(|p| p.get("methods_inferred"))
            {
                Some(Json::Num(n)) if *n >= 1.0 => Ok(()),
                _ => Err("check after an edit re-inferred no method".to_string()),
            }
        }
        Kind::Check => Ok(()),
        Kind::Query if json.get_str("abs").is_some() => Ok(()),
        Kind::Query => Err("query answered without `abs`".to_string()),
        Kind::Policy if status.starts_with("policy-") => Ok(()),
        Kind::Policy => Err(format!("policy status `{status}`")),
        Kind::Shutdown if status == "bye" => Ok(()),
        Kind::Shutdown => Err(format!("shutdown status `{status}`")),
    }
}

// ---- the open-loop driver --------------------------------------------------

/// The plan indices of a connection's requests still waiting for an
/// answer, oldest first.
type Fifo = Arc<Mutex<VecDeque<usize>>>;

enum ToReader {
    Conn(usize, TcpStream, Fifo),
    Stop,
}

/// The outcome of one phase: per planned request, when it was sent and
/// its response line with receive time (`None` if never answered).
pub struct Phase {
    pub start: Instant,
    pub rate: f64,
    pub sent: Vec<Option<Instant>>,
    pub answers: Vec<Option<(Instant, String)>>,
}

impl Phase {
    fn due(&self, p: &Planned) -> Instant {
        self.start + Duration::from_secs_f64(p.due_units / self.rate)
    }

    /// Latency of each answered request from its due time, in ms.
    pub fn latencies(&self, plan: &[Planned]) -> Vec<Option<f64>> {
        plan.iter()
            .zip(&self.answers)
            .map(|(p, a)| {
                a.as_ref()
                    .map(|(at, _)| ms(at.saturating_duration_since(self.due(p))))
            })
            .collect()
    }

    /// How late the sender was for each request, in ms.
    pub fn lags(&self, plan: &[Planned]) -> Vec<f64> {
        plan.iter()
            .zip(&self.sent)
            .filter_map(|(p, s)| s.map(|s| ms(s.saturating_duration_since(self.due(p)))))
            .collect()
    }
}

/// The connection reader: one `Poller` over every live connection plus a
/// wake socket the sender pokes when it hands over a new connection.
fn reader(
    rx: mpsc::Receiver<ToReader>,
    mut wake: UnixStream,
    total: usize,
    resolved: Arc<AtomicUsize>,
) -> std::io::Result<Vec<Option<(Instant, String)>>> {
    const WAKE: usize = usize::MAX;
    struct Conn {
        stream: TcpStream,
        buf: Vec<u8>,
        fifo: Fifo,
    }
    let mut poller = cj_net::Poller::new()?;
    wake.set_nonblocking(true)?;
    poller.register(wake.as_raw_fd(), WAKE, true, false)?;
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut answers: Vec<Option<(Instant, String)>> = vec![None; total];
    let mut ready = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        ready.clear();
        poller.wait(
            &mut ready,
            Some(Duration::from_millis(100)),
            conns.len() + 1,
        )?;
        for r in &ready {
            if r.key == WAKE {
                while wake.read(&mut chunk).is_ok_and(|n| n > 0) {}
                for msg in rx.try_iter() {
                    match msg {
                        ToReader::Conn(id, stream, fifo) => {
                            stream.set_nonblocking(true)?;
                            poller.register(stream.as_raw_fd(), id, true, false)?;
                            conns.insert(
                                id,
                                Conn {
                                    stream,
                                    buf: Vec::new(),
                                    fifo,
                                },
                            );
                        }
                        ToReader::Stop => return Ok(answers),
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&r.key) else {
                continue;
            };
            let mut closed = false;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => {
                        let at = Instant::now();
                        conn.buf.extend_from_slice(&chunk[..n]);
                        while let Some(nl) = conn.buf.iter().position(|&c| c == b'\n') {
                            let line: Vec<u8> = conn.buf.drain(..=nl).collect();
                            let pending = conn.fifo.lock().expect("fifo lock").pop_front();
                            if let Some(index) = pending {
                                let text = String::from_utf8_lossy(&line[..nl]).into_owned();
                                answers[index] = Some((at, text));
                                resolved.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if closed {
                let conn = conns.remove(&r.key).expect("present");
                let _ = poller.deregister(conn.stream.as_raw_fd());
                // Requests still waiting on a closed connection are lost.
                let lost = conn.fifo.lock().expect("fifo lock").len();
                resolved.fetch_add(lost, Ordering::SeqCst);
            }
        }
    }
}

/// The sender's side of the channel to the reader.
struct Link {
    tx: mpsc::Sender<ToReader>,
    wake: UnixStream,
    resolved: Arc<AtomicUsize>,
}

impl Link {
    fn send(&mut self, msg: ToReader) -> std::io::Result<()> {
        self.tx
            .send(msg)
            .map_err(|_| std::io::Error::other("reader gone"))?;
        self.wake.write_all(b"w")
    }
}

/// The sender's half of [`drive`]: each request at its due time, a new
/// connection for each conversation, then a wait of at most `grace` for
/// the answers. Returns when each request was sent.
fn send_all(
    addr: SocketAddr,
    plan: &[Planned],
    rate: f64,
    start: Instant,
    link: &mut Link,
    grace: Duration,
) -> std::io::Result<Vec<Option<Instant>>> {
    let mut slots: Vec<Option<(TcpStream, Fifo)>> = (0..SLOTS).map(|_| None).collect();
    let mut sent = vec![None; plan.len()];
    let mut failed_sends = 0usize;
    for (index, p) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(p.due_units / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if p.req.kind == Kind::Open || slots[p.slot].is_none() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let fifo = Arc::new(Mutex::new(VecDeque::new()));
            link.send(ToReader::Conn(
                index,
                stream.try_clone()?,
                Arc::clone(&fifo),
            ))?;
            slots[p.slot] = Some((stream, fifo));
        }
        let (stream, fifo) = slots[p.slot].as_mut().expect("connected");
        fifo.lock().expect("fifo lock").push_back(index);
        sent[index] = Some(Instant::now());
        let mut line = p.req.line.clone().into_bytes();
        line.push(b'\n');
        if stream.write_all(&line).is_err() {
            // The request never left: not pending on the connection.
            fifo.lock().expect("fifo lock").pop_back();
            failed_sends += 1;
        }
        if p.req.kind == Kind::Shutdown {
            slots[p.slot] = None;
        }
    }
    let deadline = Instant::now() + grace;
    while link.resolved.load(Ordering::SeqCst) + failed_sends < plan.len()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(sent)
}

/// Sends `plan` open-loop at `rate` requests per second to `addr` and
/// collects every answer; waits at most `grace` after the last due time.
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    rate: f64,
    grace: Duration,
) -> std::io::Result<Phase> {
    let (tx, rx) = mpsc::channel();
    let (wake, wake_rx) = UnixStream::pair()?;
    let resolved = Arc::new(AtomicUsize::new(0));
    let reader_resolved = Arc::clone(&resolved);
    let total = plan.len();
    let reader = std::thread::Builder::new()
        .name("perfbench-reader".to_string())
        .spawn(move || reader(rx, wake_rx, total, reader_resolved))?;
    let mut link = Link { tx, wake, resolved };
    let start = Instant::now() + Duration::from_millis(5);
    // The reader is stopped and joined whatever happens to the sender.
    let sent = send_all(addr, plan, rate, start, &mut link, grace);
    let _ = link.send(ToReader::Stop);
    let answers = reader.join().expect("reader thread")?;
    Ok(Phase {
        start,
        rate,
        sent: sent?,
        answers,
    })
}

// ---- the daemon and the phases ---------------------------------------------

/// An in-process `cjrcd`, stopped and joined on drop.
struct LiveDaemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<cj_driver::DaemonSummary>>>,
}

impl LiveDaemon {
    fn start() -> std::io::Result<LiveDaemon> {
        let config = DaemonConfig {
            frontend: Frontend::Event,
            workers: WORKERS,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::bind_tcp("127.0.0.1:0", config)?;
        let addr = daemon.local_addr().expect("tcp daemon");
        let stop = daemon.stop_handle();
        let thread = Some(std::thread::spawn(move || daemon.run()));
        Ok(LiveDaemon { addr, stop, thread })
    }

    fn stop(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().map(|t| t.join()) {
            Some(Ok(Err(e))) => Err(format!("daemon failed: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
            _ => Ok(()),
        }
    }
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One request and its response, closed-loop, on a blocking connection.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut std::io::BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    use std::io::BufRead;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response)
}

/// Compiles every program once through one connection, so the shared SCC
/// memo is warm: the phases then measure a daemon in steady state.
fn warm_up(addr: SocketAddr, programs: &[Program]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    for p in programs {
        exchange(&mut stream, &mut reader, &source_line("open", &p.text))?;
        let response = exchange(&mut stream, &mut reader, "{\"cmd\":\"check\"}")?;
        if !response.contains("well-region-typed") {
            return Err(std::io::Error::other(format!(
                "warm-up check failed: {response}"
            )));
        }
    }
    exchange(&mut stream, &mut reader, "{\"cmd\":\"shutdown\"}")?;
    Ok(())
}

/// Counts and checks every planned request of a phase; returns the
/// latencies of the valid ones (ms, in plan order).
fn judge(report: &mut Report, plan: &[Planned], phase: &Phase) -> Vec<Option<f64>> {
    let latencies = phase.latencies(plan);
    plan.iter()
        .zip(&phase.answers)
        .zip(latencies)
        .map(|((p, answer), latency)| {
            let verdict = match answer {
                Some((_, line)) => validate(&p.req, line),
                None => Err("no response".to_string()),
            };
            let ok = verdict.is_ok();
            report.outcome(ok, || {
                format!("{}: {}", p.req.kind.name(), verdict.unwrap_err())
            });
            latency.filter(|_| ok)
        })
        .collect()
}

/// Whether a ladder phase meets the limit: every request answered
/// validly, p99 within the limit, and no growing backlog — everything
/// answered within the limit of the last due time.
fn meets_limit(plan: &[Planned], phase: &Phase) -> bool {
    let valid = plan.iter().zip(&phase.answers).all(|(p, a)| {
        a.as_ref()
            .is_some_and(|(_, line)| validate(&p.req, line).is_ok())
    });
    let latencies: Vec<f64> = phase.latencies(plan).into_iter().flatten().collect();
    let last_due = plan.last().map_or(phase.start, |p| phase.due(p));
    let drained = phase
        .answers
        .iter()
        .flatten()
        .all(|(at, _)| ms(at.saturating_duration_since(last_due)) <= LIMIT_MS);
    valid && drained && common::quantile(&latencies, 0.99) <= LIMIT_MS
}

fn requests_for(rate: f64, secs: f64) -> usize {
    ((rate * secs).round() as usize).max(SLOTS * (CONVERSATION + 2))
}

/// Starts a daemon and warms its memo.
fn start_warm(programs: &[Program]) -> std::io::Result<LiveDaemon> {
    let daemon = LiveDaemon::start()?;
    warm_up(daemon.addr, programs)?;
    Ok(daemon)
}

/// The highest ladder rate that meets the limit, by binary search over
/// the ladder (`None`: not even the lowest rung does).
fn ladder(
    report: &mut Report,
    seed: u64,
    programs: &[Program],
    addr: SocketAddr,
    rung_secs: f64,
) -> Option<f64> {
    let (mut passed, mut hi) = (None::<usize>, LADDER_RPS.len());
    loop {
        let lo = passed.map_or(0, |i| i + 1);
        if lo >= hi {
            break;
        }
        let mid = (lo + hi) / 2;
        let rate = LADDER_RPS[mid];
        let rung = plan(seed, programs, requests_for(rate, rung_secs));
        let ok = match drive(addr, &rung, rate, Duration::from_secs(30)) {
            Ok(phase) => meets_limit(&rung, &phase),
            Err(e) => {
                report
                    .broken
                    .push(format!("ladder phase at {rate} req/s failed: {e}"));
                false
            }
        };
        report.row(format!(
            "ladder {rate} req/s for {rung_secs:.1} s: {}",
            if ok { "meets the limit" } else { "misses it" }
        ));
        if ok {
            passed = Some(mid);
        } else {
            hi = mid;
        }
    }
    passed.map(|i| LADDER_RPS[i])
}

pub fn run(seed: u64, seconds: f64, traced: bool, cjrc: Option<&Path>) -> Report {
    let mut report = Report::default();
    let corpus = cj_benchmarks::all_benchmarks();
    // Set-up: prepare the programs, start the daemon and warm its memo.
    let ((programs, daemon), setup_s) = common::timed_setup(5, || {
        let programs: Vec<Program> = corpus.iter().map(prepare).collect();
        let daemon = start_warm(&programs);
        (programs, daemon)
    });
    let mut daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            report.broken.push(format!("daemon set-up failed: {e}"));
            return report;
        }
    };
    // Traced: a quarter untraced (the overhead base), a quarter traced,
    // half on the ladder.
    let latency_secs = if traced { seconds / 4.0 } else { seconds };
    let nominal = plan(seed, &programs, requests_for(NOMINAL_RPS, latency_secs));
    let phase = match drive(daemon.addr, &nominal, NOMINAL_RPS, Duration::from_secs(30)) {
        Ok(phase) => phase,
        Err(e) => {
            report.broken.push(format!("nominal phase failed: {e}"));
            return report;
        }
    };
    let latencies: Vec<f64> = judge(&mut report, &nominal, &phase)
        .into_iter()
        .flatten()
        .collect();
    let (tail, label) = common::tail(&latencies);
    report.row(format!(
        "{NOMINAL_RPS} req/s offered: {} requests, p50 {:.3} ms, {label} {tail:.3} ms, p99 {:.3} ms, generator lag p99 {:.3} ms",
        nominal.len(),
        common::median(&latencies),
        common::quantile(&latencies, 0.99),
        common::quantile(&phase.lags(&nominal), 0.99)
    ));
    if !traced {
        if let Err(e) = daemon.stop() {
            report.broken.push(e);
        }
        report.metric("setup_s", setup_s, "s");
        report.metric("latency_ms_p50", common::median(&latencies), "ms");
        report.metric("latency_ms_tail", tail, "ms");
        return report;
    }
    traced_run(&mut report, &programs, daemon, &nominal, &phase, cjrc);
    match start_warm(&programs) {
        Ok(mut daemon) => {
            let max = ladder(&mut report, seed, &programs, daemon.addr, seconds / 10.0);
            report.metric("net.max_rps", max.unwrap_or(NOMINAL_RPS), "1/s");
            if let Err(e) = daemon.stop() {
                report.broken.push(e);
            }
        }
        Err(e) => report
            .broken
            .push(format!("ladder daemon set-up failed: {e}")),
    }
    report
}

fn metrics_queue_wait_us(addr: SocketAddr) -> std::io::Result<f64> {
    let mut stream = TcpStream::connect(addr)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let response = exchange(&mut stream, &mut reader, "{\"cmd\":\"metrics\"}")?;
    exchange(&mut stream, &mut reader, "{\"cmd\":\"shutdown\"}")?;
    let json = parse_json(response.trim()).map_err(std::io::Error::other)?;
    match json
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("queue_wait_us"))
        .and_then(|q| q.get("p99_us"))
    {
        Some(Json::Num(us)) => Ok(*us),
        _ => Err(std::io::Error::other(format!(
            "no queue_wait_us p99 in {response}"
        ))),
    }
}

fn by_kind(plan: &[Planned], values: &[Option<f64>], kind: Kind) -> Vec<f64> {
    plan.iter()
        .zip(values)
        .filter(|(p, _)| p.req.kind == kind)
        .filter_map(|(_, v)| *v)
        .collect()
}

/// The traced half: the nominal phase again with spans recorded in the
/// daemon, the `metrics` request, then the same stream through
/// `Server::handle_line` in-process to split client latency into handle
/// time and the residual.
fn traced_run(
    report: &mut Report,
    programs: &[Program],
    mut daemon: LiveDaemon,
    nominal: &[Planned],
    plain: &Phase,
    cjrc: Option<&Path>,
) {
    let plain_p50 = common::median(
        &plain
            .latencies(nominal)
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
    );
    cj_trace::install();
    let phase = match drive(daemon.addr, nominal, NOMINAL_RPS, Duration::from_secs(30)) {
        Ok(phase) => phase,
        Err(e) => {
            report.broken.push(format!("traced phase failed: {e}"));
            let _ = cj_trace::uninstall();
            return;
        }
    };
    let client = judge(report, nominal, &phase);
    let lags = phase.lags(nominal);
    let queue_wait_us = metrics_queue_wait_us(daemon.addr).unwrap_or_else(|e| {
        report.broken.push(format!("metrics request failed: {e}"));
        0.0
    });
    // Joining the daemon flushes its threads' span buffers.
    if let Err(e) = daemon.stop() {
        report.broken.push(e);
    }
    let mut events = cj_trace::uninstall();

    // The same stream, in order, straight into `Server::handle_line`, over
    // a shared memo warmed like the daemon's.
    let memo = Arc::new(SolveMemo::new());
    let server = || {
        Server::with_workspace(Workspace::with_shared_memo(
            SessionOptions::default(),
            Arc::clone(&memo),
        ))
    };
    let mut warm = server();
    for p in programs {
        warm.handle_line(&source_line("open", &p.text));
        warm.handle_line("{\"cmd\":\"check\"}");
    }
    cj_trace::install();
    let mut servers: Vec<Option<Server>> = (0..SLOTS).map(|_| None).collect();
    let mut handle = vec![None; nominal.len()];
    let mut passes: HashMap<&'static str, f64> = HashMap::new();
    for (i, p) in nominal.iter().enumerate() {
        if p.req.kind == Kind::Open || servers[p.slot].is_none() {
            servers[p.slot] = Some(server());
        }
        let live = servers[p.slot].as_mut().expect("conversation open");
        let started = Instant::now();
        let response = {
            let _s = cj_trace::span("driver", "driver.handle");
            live.handle_line(&p.req.line)
        };
        handle[i] = Some(ms(started.elapsed()));
        let verdict = validate(&p.req, &response);
        report.outcome(verdict.is_ok(), || {
            format!(
                "in-process {}: {}",
                p.req.kind.name(),
                verdict.clone().unwrap_err()
            )
        });
        if let Some(executed) = parse_json(&response)
            .ok()
            .and_then(|j| j.get("passes_executed").cloned())
        {
            for key in [
                "methods_inferred",
                "methods_reused",
                "sccs_solved",
                "sccs_reused",
            ] {
                if let Some(Json::Num(n)) = executed.get(key) {
                    *passes.entry(key).or_default() += n;
                }
            }
        }
    }
    events.extend(cj_trace::uninstall());
    let spans = Spans::new(&events);

    let count = |key: &str| passes.get(key).copied().unwrap_or(0.0);
    let ratio = |part: f64, rest: f64| part / (part + rest).max(1.0);
    report.metric("core.methods_inferred", count("methods_inferred"), "count");
    report.metric("core.sccs_solved", count("sccs_solved"), "count");
    report.metric(
        "core.methods_reused_ratio",
        ratio(count("methods_reused"), count("methods_inferred")),
        "ratio",
    );
    // `sccs_reused` already includes the SCCs another client solved.
    report.metric(
        "regions.memo_hit_ratio",
        ratio(count("sccs_reused"), count("sccs_solved")),
        "ratio",
    );
    // The trace holds the stream twice: in the daemon, then in-process.
    let n_requests = 2.0 * nominal.len() as f64;
    report.metric(
        "core.infer_bodies_self_ms",
        spans.self_ms("infer-bodies") / n_requests,
        "ms",
    );
    report.metric(
        "core.solve_self_ms",
        spans.self_ms("solve") / n_requests,
        "ms",
    );
    report.metric(
        "core.solve_scc_ms",
        spans.total_ms("solve-scc") / n_requests,
        "ms",
    );
    report.metric(
        "core.infer_unattributed_ms",
        spans.self_ms("infer") / n_requests,
        "ms",
    );
    for kind in [Kind::Edit, Kind::Check, Kind::Query, Kind::Policy] {
        let h = by_kind(nominal, &handle, kind);
        report.metric(
            format!("driver.handle_ms_p50.{}", kind.name()),
            common::median(&h),
            "ms",
        );
        report.metric(
            format!("driver.handle_ms_p99.{}", kind.name()),
            common::quantile(&h, 0.99),
            "ms",
        );
    }
    let after_edit: Vec<f64> = nominal
        .iter()
        .zip(&handle)
        .filter(|(p, _)| p.req.after_edit)
        .filter_map(|(_, h)| *h)
        .collect();
    report.metric(
        "driver.check_after_edit_ms_p50",
        common::median(&after_edit),
        "ms",
    );
    report.metric("driver.queue_wait_us_p99", queue_wait_us, "us");
    let residual: Vec<Option<f64>> = client
        .iter()
        .zip(&handle)
        .map(|(c, h)| Some(c.as_ref()? - h.as_ref()?))
        .collect();
    let all_residual: Vec<f64> = residual.iter().flatten().copied().collect();
    report.metric("net.residual_ms_p50", common::median(&all_residual), "ms");
    report.metric(
        "net.residual_ms_p99",
        common::quantile(&all_residual, 0.99),
        "ms",
    );
    report.metric(
        "net.generator_lag_ms_p99",
        common::quantile(&lags, 0.99),
        "ms",
    );
    let client_ms: Vec<f64> = client.iter().flatten().copied().collect();
    report.metric(
        "net.client_ms_p99",
        common::quantile(&client_ms, 0.99),
        "ms",
    );
    let traced_p50 = common::median(&client_ms);
    report.metric("trace.overhead_ratio", traced_p50 / plain_p50, "ratio");
    crate::shares(report, &spans);

    report.row(
        "driver.queue_wait_us_p99 is a log2 bucket bound: the true p99 lies within a factor of 2 below it",
    );
    report.row(format!(
        "{:<9} {:>6} {:>11} {:>11} {:>11} {:>11} {:>12} {:>12}",
        "kind",
        "count",
        "client p50",
        "client p99",
        "handle p50",
        "handle p99",
        "residual p50",
        "residual p99"
    ));
    for kind in [
        Kind::Open,
        Kind::Edit,
        Kind::Check,
        Kind::Query,
        Kind::Policy,
        Kind::Shutdown,
    ] {
        let c = by_kind(nominal, &client, kind);
        let h = by_kind(nominal, &handle, kind);
        let r = by_kind(nominal, &residual, kind);
        report.row(format!(
            "{:<9} {:>6} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>12.3} {:>12.3}",
            kind.name(),
            h.len(),
            common::median(&c),
            common::quantile(&c, 0.99),
            common::median(&h),
            common::quantile(&h, 0.99),
            common::median(&r),
            common::quantile(&r, 0.99)
        ));
    }
    report.rows.extend(spans.unattributed_rows(
        &["worker-handle", "driver.handle", "request:check", "infer"],
        1.0,
    ));
    common::export_trace(report, &events, "serve", cjrc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stub daemon answering every request at once with a valid
    /// response, except that it stalls once, for `stall`, before answering
    /// the `stall_at`-th request it receives.
    fn stub(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicUsize::new(0));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                while !accept_stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    stream.set_nonblocking(false).expect("blocking");
                    let seen = Arc::clone(&seen);
                    scope.spawn(move || {
                        let mut out = stream.try_clone().expect("clone");
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { return };
                            if seen.fetch_add(1, Ordering::SeqCst) + 1 == stall_at {
                                std::thread::sleep(stall);
                            }
                            let response = if line.contains("\"cmd\":\"check\"") {
                                r#"{"ok":true,"status":"well-region-typed","passes_executed":{"methods_inferred":1}}"#
                            } else if line.contains("\"cmd\":\"query\"") {
                                r#"{"ok":true,"abs":"inv.A<r1> = true"}"#
                            } else if line.contains("\"cmd\":\"policy\"") {
                                r#"{"ok":true,"status":"policy-ok"}"#
                            } else if line.contains("\"cmd\":\"shutdown\"") {
                                r#"{"ok":true,"status":"bye"}"#
                            } else {
                                r#"{"ok":true}"#
                            };
                            if out.write_all(format!("{response}\n").as_bytes()).is_err()
                                || response.contains("bye")
                            {
                                return;
                            }
                        }
                    });
                }
            });
        });
        (addr, stop, thread)
    }

    fn tiny_program() -> Program {
        let text = "class A { int f() { 1 + 2 } }".to_string();
        Program {
            literals: literal_ranges(&text),
            text,
            queries: vec!["inv.A".to_string()],
            classes: vec!["A".to_string()],
        }
    }

    #[test]
    fn edits_replace_one_literal_with_a_new_value() {
        let program = tiny_program();
        assert_eq!(program.literals.len(), 2);
        let stream = plan(7, std::slice::from_ref(&program), 400);
        let edits: Vec<&Planned> = stream.iter().filter(|p| p.req.kind == Kind::Edit).collect();
        assert!(!edits.is_empty());
        for (i, p) in stream.iter().enumerate() {
            if p.req.kind == Kind::Edit {
                let next = &stream[i + 1..]
                    .iter()
                    .find(|q| q.slot == p.slot)
                    .expect("check follows")
                    .req;
                assert!(next.kind == Kind::Check && next.after_edit);
            }
        }
    }

    /// Open-loop timing: a stall delays every request queued behind it,
    /// each timed from its due time, while the generator keeps its
    /// schedule and reports how late it ran.
    #[test]
    fn a_stall_inflates_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(300);
        let (addr, stop, server) = stub(100, stall);
        let program = tiny_program();
        let stream = plan(3, std::slice::from_ref(&program), 400);
        let phase = drive(addr, &stream, 200.0, Duration::from_secs(10)).expect("phase");
        stop.store(true, Ordering::SeqCst);
        server.join().expect("stub");

        let latencies: Vec<f64> = phase
            .latencies(&stream)
            .into_iter()
            .map(|l| l.expect("answered"))
            .collect();
        let slow = latencies.iter().filter(|&&l| l >= 100.0).count();
        let worst = latencies.iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= 250.0,
            "the stalled request itself waited {worst} ms"
        );
        // About 30 requests of the stalled slot come due during the stall;
        // a closed-loop client would have charged it to one request only.
        assert!(
            slow >= 10,
            "only {slow} requests were charged for the stall"
        );
        let lags = phase.lags(&stream);
        assert_eq!(lags.len(), stream.len());
        let lag_p99 = common::quantile(&lags, 0.99);
        assert!(
            lag_p99.is_finite() && lag_p99 < 50.0,
            "generator lag p99 {lag_p99} ms"
        );
    }
}
