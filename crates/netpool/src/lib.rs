//! Readiness-polled connection multiplexing: the one way a Hyper-Q
//! server runs a connection.
//!
//! Both Hyper-Q servers — the pgdb PG v3 server and the QIPC endpoint —
//! hand every accepted socket to this scheduler. A gateway's sessions
//! are mostly idle: thousands of Q applications hold connections open
//! and speak rarely (the translation cache already makes the
//! per-statement cost small), so a session must not cost a thread. The
//! scheduler is:
//!
//! * non-blocking sockets registered with an epoll [`poll::Poller`]
//!   (one-shot, level-triggered);
//! * a single poll thread that converts readiness into dispatch tickets;
//! * a **bounded worker pool** that runs the protocol state machine for
//!   whichever sessions are actually speaking;
//! * per-session buffers, so a partial frame survives parking: bytes
//!   accumulate in the handler's own framing state across dispatches,
//!   and un-flushed response bytes wait in the session's write buffer
//!   until the socket drains.
//!
//! A session that is registered but not being processed is **parked**:
//! it costs one fd, its buffered state, and nothing else — no thread, no
//! stack. `net_sessions_active` minus `net_worker_busy` of the gauges
//! below is the number of parked sessions at any instant.
//!
//! The protocol logic plugs in through [`SessionHandler`] — a sans-io
//! state machine fed raw bytes that answers with response bytes; the
//! scheduler owns the socket.

pub mod poll;

use poll::{Event, Interest, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The connection layer a server runs. There is one; nothing reads the
/// field that holds it. Goes with ROADMAP item 8 step A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// Readiness-polled sessions multiplexed over a bounded worker pool.
    #[default]
    Multiplexed,
}

/// Resolve the worker-pool width: an explicit non-zero config wins,
/// then `HQ_NET_WORKERS`, then a small default (4 — the pool exists to
/// be an order of magnitude narrower than the session count, and the
/// workloads behind it are short protocol bursts, not long computations).
pub fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::env::var("HQ_NET_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

// ---------------------------------------------------------------------
// Accept-loop backoff
// ---------------------------------------------------------------------

/// Capped exponential backoff for transient `accept()` failures.
///
/// The previous fixed 10 ms sleep could spin a CPU core at 100 Hz for
/// as long as the fault persisted (fd exhaustion lasts until *some*
/// connection closes) and was flaky-prone under CI schedulers. The
/// backoff starts at 1 ms, doubles per consecutive failure, caps at
/// 200 ms, and resets on the first successful accept.
#[derive(Debug)]
pub struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    const FLOOR: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_millis(200);

    /// A fresh backoff at the floor delay.
    pub fn new() -> AcceptBackoff {
        AcceptBackoff { next: Self::FLOOR }
    }

    /// Sleep for the current delay, then double it (capped).
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next);
        self.next = (self.next * 2).min(Self::CAP);
    }

    /// A successful accept ends the fault episode.
    pub fn reset(&mut self) {
        self.next = Self::FLOOR;
    }

    /// The delay the next [`AcceptBackoff::sleep`] would incur.
    pub fn current(&self) -> Duration {
        self.next
    }
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Is this `accept()` failure one connection's problem rather than the
/// listener's? (Peer reset in the backlog, fd pressure, a signal.)
fn transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Session handler
// ---------------------------------------------------------------------

/// What the handler wants done with the connection after a dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerControl {
    /// Keep the session: flush pending output, park until readable.
    Continue,
    /// Flush pending output, then close the connection.
    Close,
}

/// A sans-io protocol state machine driven by the scheduler.
///
/// The scheduler owns the socket; the handler never sees it. Bytes read
/// off the wire are fed to [`SessionHandler::on_bytes`], response bytes
/// are appended to `out`, and partial frames live inside the handler's
/// own framing state between dispatches — that is what lets a session
/// park mid-frame and resume on a different worker thread.
pub trait SessionHandler: Send {
    /// Feed freshly read bytes; append any response bytes to `out`.
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> HandlerControl;

    /// The peer shut down its write side (EOF). Final bytes may still
    /// be appended to `out`; the connection closes afterwards.
    fn on_eof(&mut self, _out: &mut Vec<u8>) {}

    /// Is a partially received frame buffered? Sessions idle *between*
    /// frames owe us nothing and park indefinitely; a session stalled
    /// **mid-frame** past its read deadline is presumed dead and swept.
    fn mid_frame(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Process-wide connection-layer metrics (summed across every NetPool
/// instance in the process — one per listening server).
struct NetMetrics {
    sessions_active: Arc<obs::Gauge>,
    sessions_parked: Arc<obs::Gauge>,
    worker_busy: Arc<obs::Gauge>,
    dispatches: Arc<obs::Counter>,
    sessions_opened: Arc<obs::Counter>,
    sessions_closed: Arc<obs::Counter>,
    stalled_swept: Arc<obs::Counter>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global_registry();
        NetMetrics {
            sessions_active: reg.gauge("net_sessions_active"),
            sessions_parked: reg.gauge("net_sessions_parked"),
            worker_busy: reg.gauge("net_worker_busy"),
            dispatches: reg.counter("net_dispatches_total"),
            sessions_opened: reg.counter("net_sessions_opened_total"),
            sessions_closed: reg.counter("net_sessions_closed_total"),
            stalled_swept: reg.counter("net_stalled_sessions_swept_total"),
        }
    })
}

// ---------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------

/// One multiplexed session: socket, protocol machine, pending output.
struct Slot {
    stream: TcpStream,
    handler: Box<dyn SessionHandler>,
    /// Response bytes accepted from the handler but not yet accepted by
    /// the socket. Non-empty ⇒ the registration includes write interest.
    wbuf: VecDeque<u8>,
    /// Set once the handler asked to close; the session lingers only to
    /// drain `wbuf`.
    closing: bool,
    /// Last moment bytes moved on this session (for the stall sweep).
    last_activity: Instant,
    /// Mid-frame read deadline; `None` disables sweeping.
    read_deadline: Option<Duration>,
}

struct Shared {
    poller: Poller,
    slots: Mutex<HashMap<u64, Slot>>,
    queue: Mutex<VecDeque<Event>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_token: AtomicU64,
    workers: usize,
    /// One byte written here wakes the poll thread at once (its read end
    /// is registered under [`WAKE`]).
    waker: UnixStream,
    _wake_rx: UnixStream,
}

/// The poll token of the waker; session tokens start at 1.
const WAKE: u64 = 0;

/// A readiness-polled session scheduler: one poll thread, `workers`
/// dispatch threads, any number of registered sessions. Dropping the
/// last handle stops every thread, joins them and closes every session.
pub struct NetPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NetPool {
    /// Start a scheduler with `workers` dispatch threads (`0` defers to
    /// `HQ_NET_WORKERS`, then the built-in default).
    pub fn start(workers: usize) -> std::io::Result<Arc<NetPool>> {
        let workers = resolve_workers(workers);
        let (waker, wake_rx) = UnixStream::pair()?;
        let poller = Poller::new()?;
        poller.register(wake_rx.as_raw_fd(), WAKE, Interest::READ)?;
        let shared = Arc::new(Shared {
            poller,
            slots: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_token: AtomicU64::new(1),
            workers,
            waker,
            _wake_rx: wake_rx,
        });
        // A thread that fails to start stops the ones already running
        // when `pool` drops.
        let mut pool = NetPool { shared, threads: Vec::with_capacity(workers + 1) };
        let spawn = |pool: &mut NetPool, name: String, run: fn(&Shared)| {
            let shared = Arc::clone(&pool.shared);
            let thread = std::thread::Builder::new().name(name).spawn(move || run(&shared))?;
            pool.threads.push(thread);
            std::io::Result::Ok(())
        };
        spawn(&mut pool, "netpool-poll".into(), poll_loop)?;
        for i in 0..workers {
            spawn(&mut pool, format!("netpool-worker-{i}"), worker_loop)?;
        }
        Ok(Arc::new(pool))
    }

    /// The number of dispatch threads this scheduler runs.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Number of currently registered sessions on this scheduler.
    pub fn sessions(&self) -> usize {
        self.shared.slots.lock().unwrap().len()
    }

    /// Register a connection. The stream is switched to non-blocking;
    /// the handler runs on worker threads whenever the peer speaks.
    /// `read_deadline` bounds a *mid-frame* stall (a peer idle between
    /// frames parks forever).
    pub fn register(
        &self,
        stream: TcpStream,
        handler: Box<dyn SessionHandler>,
        read_deadline: Option<Duration>,
    ) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let slot = Slot {
            stream,
            handler,
            wbuf: VecDeque::new(),
            closing: false,
            last_activity: Instant::now(),
            read_deadline,
        };
        self.shared.slots.lock().unwrap().insert(token, slot);
        let m = net_metrics();
        m.sessions_active.add(1);
        m.sessions_parked.add(1);
        m.sessions_opened.inc();
        if let Err(e) = self.shared.poller.register(fd, token, Interest::READ) {
            // Roll back: the session never became pollable.
            self.shared.slots.lock().unwrap().remove(&token);
            m.sessions_active.add(-1);
            m.sessions_parked.add(-1);
            m.sessions_closed.inc();
            return Err(e);
        }
        Ok(())
    }
}

impl Drop for NetPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.shared.waker).write(&[1]);
        // Taking the queue lock orders the flag before any worker's next
        // look at it, so none waits past this notification (a poisoned
        // lock is held just the same).
        drop(self.shared.queue.lock());
        self.shared.queue_cv.notify_all();
        for thread in self.threads.drain(..) {
            // A dispatch finishes its session's current burst first.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The accept loop
// ---------------------------------------------------------------------

/// A listening socket whose accept thread registers every connection
/// with a [`NetPool`] of its own: how both Hyper-Q servers run. Dropping
/// the handle leaves it serving, as [`Acceptor::detach`] does;
/// [`Acceptor::stop`] ends it.
pub struct Acceptor {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Serve `listener` on a scheduler of `workers` dispatch threads (as
    /// in [`NetPool::start`]). `handler` builds each accepted peer's
    /// protocol machine; `read_deadline` is every session's mid-frame
    /// deadline. A failed `accept()` of one connection (peer reset in
    /// the backlog, fd pressure, a signal) does not end the loop, and
    /// the loop backs off while the fault lasts.
    pub fn start<F>(
        listener: TcpListener,
        workers: usize,
        read_deadline: Option<Duration>,
        mut handler: F,
    ) -> std::io::Result<Acceptor>
    where
        F: FnMut(SocketAddr) -> Box<dyn SessionHandler> + Send + 'static,
    {
        let addr = listener.local_addr()?;
        let pool = NetPool::start(workers)?;
        let stopping = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&stopping);
        let accept = move || {
            let mut backoff = AcceptBackoff::new();
            loop {
                let accepted = listener.accept();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, peer)) => {
                        backoff.reset();
                        // Registration failure drops the handler.
                        let _ = pool.register(stream, handler(peer), read_deadline);
                    }
                    Err(e) if transient_accept_error(&e) => backoff.sleep(),
                    Err(_) => break,
                }
            }
            // `pool` drops here: its threads stop and its sessions close.
        };
        let thread = std::thread::Builder::new().name("netpool-accept".into()).spawn(accept)?;
        Ok(Acceptor { addr, stopping, thread: Some(thread) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every session and join every thread this
    /// acceptor started: the accept thread, the poll thread and the
    /// dispatch threads.
    pub fn stop(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocked accept() with a connection of our own.
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let _ = TcpStream::connect((ip, self.addr.port()));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Leave the acceptor serving until the process ends.
    pub fn detach(mut self) {
        self.thread.take();
    }
}

/// The poll thread: readiness in, dispatch tickets out — plus the
/// periodic mid-frame stall sweep.
fn poll_loop(shared: &Shared) {
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        events.clear();
        if shared.poller.wait(&mut events, 100).is_err() {
            break;
        }
        events.retain(|ev| ev.token != WAKE);
        if !events.is_empty() {
            let mut q = shared.queue.lock().unwrap();
            for ev in &events {
                q.push_back(*ev);
            }
            drop(q);
            shared.queue_cv.notify_all();
        }
        // Sweep sessions stalled mid-frame past their read deadline.
        // One-shot registration guarantees a swept token is not also in
        // flight on a worker (in-flight slots are out of the map).
        if last_sweep.elapsed() >= Duration::from_millis(100) {
            last_sweep = Instant::now();
            let mut slots = shared.slots.lock().unwrap();
            let expired: Vec<u64> = slots
                .iter()
                .filter(|(_, s)| {
                    s.read_deadline
                        .is_some_and(|d| s.handler.mid_frame() && s.last_activity.elapsed() > d)
                })
                .map(|(t, _)| *t)
                .collect();
            for token in expired {
                if let Some(slot) = slots.remove(&token) {
                    drop(slot); // fd close deregisters it from epoll
                    let m = net_metrics();
                    m.sessions_active.add(-1);
                    m.sessions_parked.add(-1);
                    m.sessions_closed.inc();
                    m.stalled_swept.inc();
                }
            }
        }
    }
}

/// A dispatch thread: claim a ticket, own the session exclusively (the
/// slot comes *out* of the map, and one-shot registration stops further
/// events), run the protocol machine, flush, re-arm, park.
fn worker_loop(shared: &Shared) {
    loop {
        let event = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(ev) = q.pop_front() {
                    break ev;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let Some(mut slot) = shared.slots.lock().unwrap().remove(&event.token) else {
            continue; // already closed (e.g. swept)
        };
        let m = net_metrics();
        m.worker_busy.add(1);
        m.sessions_parked.add(-1);
        m.dispatches.inc();

        let close = process(&mut slot, &event);

        if close {
            finish_close(&mut slot);
            m.sessions_active.add(-1);
            m.sessions_closed.inc();
        } else {
            // Park again: re-insert, then re-arm. Order matters — the
            // next event may fire the instant the rearm lands, and the
            // dispatching worker must find the slot present.
            let interest = Interest { readable: true, writable: !slot.wbuf.is_empty() };
            let fd = slot.stream.as_raw_fd();
            shared.slots.lock().unwrap().insert(event.token, slot);
            m.sessions_parked.add(1);
            if shared.poller.rearm(fd, event.token, interest).is_err() {
                // The fd is gone; drop the session.
                if shared.slots.lock().unwrap().remove(&event.token).is_some() {
                    m.sessions_active.add(-1);
                    m.sessions_parked.add(-1);
                    m.sessions_closed.inc();
                }
            }
        }
        m.worker_busy.add(-1);
    }
}

/// Run one dispatch on an exclusively owned session. Returns whether
/// the connection is finished.
fn process(slot: &mut Slot, event: &Event) -> bool {
    // Drain pending output first (we may only be here for writability).
    if flush(slot).is_err() {
        return true;
    }
    if slot.closing {
        return slot.wbuf.is_empty();
    }
    if !event.readable && !event.hangup {
        return false;
    }
    let mut chunk = [0u8; 16384];
    let mut out = Vec::new();
    loop {
        match slot.stream.read(&mut chunk) {
            Ok(0) => {
                slot.handler.on_eof(&mut out);
                let _ = send(slot, &mut out);
                return true;
            }
            Ok(n) => {
                slot.last_activity = Instant::now();
                let control = slot.handler.on_bytes(&chunk[..n], &mut out);
                if send(slot, &mut out).is_err() {
                    return true;
                }
                if control == HandlerControl::Close {
                    slot.closing = true;
                    return slot.wbuf.is_empty();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Write the handler's response bytes behind whatever the write buffer
/// still holds. They go to the socket straight from `out`; only what it
/// will not take now is copied into the write buffer. `out` is left
/// empty, its capacity kept for the next read.
fn send(slot: &mut Slot, out: &mut Vec<u8>) -> std::io::Result<()> {
    flush(slot)?;
    let mut sent = 0;
    while slot.wbuf.is_empty() && sent < out.len() {
        match slot.stream.write(&out[sent..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                sent += n;
                slot.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    slot.wbuf.extend(&out[sent..]);
    out.clear();
    Ok(())
}

/// Push as much of the write buffer as the socket will take.
fn flush(slot: &mut Slot) -> std::io::Result<()> {
    while !slot.wbuf.is_empty() {
        let (front, _) = slot.wbuf.as_slices();
        match slot.stream.write(front) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                slot.wbuf.drain(..n);
                slot.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Closing with bytes still buffered: give the peer a bounded, blocking
/// chance to take them (a FATAL error frame is worthless if the close
/// races it off the wire).
fn finish_close(slot: &mut Slot) {
    if slot.wbuf.is_empty() {
        return;
    }
    let _ = slot.stream.set_nonblocking(false);
    let _ = slot
        .stream
        .set_write_timeout(Some(Duration::from_secs(5)));
    let (a, b) = slot.wbuf.as_slices();
    let _ = slot.stream.write_all(a);
    let _ = slot.stream.write_all(b);
    slot.wbuf.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A line-echo protocol: proves framing state survives parking.
    struct EchoLines {
        partial: Vec<u8>,
    }

    impl SessionHandler for EchoLines {
        fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> HandlerControl {
            self.partial.extend_from_slice(bytes);
            while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.partial.drain(..=pos).collect();
                if line.starts_with(b"quit") {
                    return HandlerControl::Close;
                }
                out.extend_from_slice(b"echo: ");
                out.extend_from_slice(&line);
            }
            HandlerControl::Continue
        }

        fn mid_frame(&self) -> bool {
            !self.partial.is_empty()
        }
    }

    fn echo_server(
        pool: &Arc<NetPool>,
        deadline: Option<Duration>,
    ) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = Arc::clone(pool);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                pool.register(stream, Box::new(EchoLines { partial: Vec::new() }), deadline)
                    .unwrap();
            }
        });
        addr
    }

    #[test]
    fn sessions_multiplex_over_a_small_worker_pool() {
        let pool = NetPool::start(2).unwrap();
        let addr = echo_server(&pool, None);
        // Many more sessions than workers, all concurrently connected.
        let mut clients: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // Let registrations land.
        for _ in 0..100 {
            if pool.sessions() == 32 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.sessions(), 32);
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("hello {i}\n").as_bytes()).unwrap();
            let mut buf = [0u8; 64];
            let n = c.read(&mut buf).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&buf[..n]),
                format!("echo: hello {i}\n")
            );
        }
    }

    #[test]
    fn partial_frames_survive_parking() {
        let pool = NetPool::start(2).unwrap();
        let addr = echo_server(&pool, None);
        let mut c = TcpStream::connect(addr).unwrap();
        // Half a line, a pause long enough to guarantee the session
        // parks, then the rest.
        c.write_all(b"split ").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        c.write_all(b"frame\n").unwrap();
        let mut buf = [0u8; 64];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf[..n]), "echo: split frame\n");
    }

    #[test]
    fn close_control_flushes_then_closes() {
        let pool = NetPool::start(1).unwrap();
        let addr = echo_server(&pool, None);
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"quit\n").unwrap();
        let mut buf = Vec::new();
        c.read_to_end(&mut buf).unwrap(); // EOF proves the server closed
        assert!(buf.is_empty());
    }

    #[test]
    fn mid_frame_stall_is_swept_but_idle_sessions_park_forever() {
        let pool = NetPool::start(1).unwrap();
        let addr = echo_server(&pool, Some(Duration::from_millis(200)));
        // Idle session: never speaks, must survive well past the deadline.
        let mut idle = TcpStream::connect(addr).unwrap();
        // Stalled session: sends half a frame and goes silent.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"never finis").unwrap();
        std::thread::sleep(Duration::from_millis(600));
        // The stalled session was closed by the sweep…
        let mut buf = [0u8; 16];
        assert_eq!(stalled.read(&mut buf).unwrap(), 0, "stalled session must be swept");
        // …while the idle one still answers.
        idle.write_all(b"ping\n").unwrap();
        let n = idle.read(&mut buf).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf[..n]), "echo: ping\n");
    }

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut b = AcceptBackoff::new();
        assert_eq!(b.current(), Duration::from_millis(1));
        b.sleep();
        assert_eq!(b.current(), Duration::from_millis(2));
        b.sleep();
        b.sleep();
        assert_eq!(b.current(), Duration::from_millis(8));
        for _ in 0..10 {
            // Capped: never exceeds 200ms no matter how long the episode.
            let before = b.current();
            assert!(before <= Duration::from_millis(200));
            if before == Duration::from_millis(200) {
                break;
            }
            b.sleep();
        }
        b.reset();
        assert_eq!(b.current(), Duration::from_millis(1));
    }
}
