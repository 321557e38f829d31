//! `dstressd`: the TCP front-end over [`ServiceEngine`].
//!
//! Hand-rolled on `std::net` threads — no async runtime. One acceptor
//! thread hands each connection to its own client thread; every client
//! speaks line-delimited JSON ([`Request`] in, [`Response`] /
//! [`SeqEvent`] out). All campaign state lives on a single engine thread
//! that alternates between answering queued requests through
//! [`ServiceEngine::handle`] and ticking the scheduler, so the engine
//! itself needs no locking; client threads answer only `Ping` themselves.
//! A [`Reply::Watch`] flips the connection into streaming mode: the
//! client thread pumps its [`Subscriber`] — a cursor into the campaign's
//! event ring, starting at the requested `from_seq` — onto the socket
//! until the ring closes, then returns to request/response mode.
//!
//! The connection edge is its own fault domain: every client read runs
//! under a short poll timeout, so the client thread — never the engine —
//! enforces two deadlines. A connection that starts a frame but does not
//! finish it within [`DaemonConfig::frame_deadline`] (a slow-loris
//! client) is reaped; one that sits idle between requests past
//! [`DaemonConfig::idle_timeout`] is reaped. [`FrameReader`] keeps the
//! partial line across poll timeouts, so a merely slow legitimate frame
//! is never torn.
//!
//! Shutdown: the acceptor stops, every client socket is
//! [`Shutdown::Both`]-torn (which unblocks their reads without losing
//! frame state), the threads are joined, and finally the engine thread
//! checkpoints out. Because every generation already journals before the
//! next step, a hard kill (power loss, SIGKILL) loses nothing either —
//! the next boot resumes each campaign from its journal bit-identically.

use crate::service::broadcast::{Recv, Subscriber};
use crate::service::engine::{Reply, ServiceEngine};
use crate::service::protocol::{
    parse_request, Event, FrameError, FrameReader, Request, Response, SeqEvent,
};
use dstress_ga::journal::{DiskStorage, Storage};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a client thread wakes from a blocked read to check its
/// deadlines and the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; use port 0 to let the OS pick (the bound address
    /// is reported by [`Dstressd::addr`]).
    pub addr: String,
    /// The campaign registry directory.
    pub dir: PathBuf,
    /// Evaluation worker threads shared by all campaigns of a substrate.
    pub workers: usize,
    /// Events each campaign's ring retains: every watcher reads them from
    /// there (`watch --from-seq` included), and one that falls further
    /// behind is told how many it lagged.
    pub event_capacity: usize,
    /// How long a started frame may dribble in before the connection is
    /// reaped (the slow-loris bound).
    pub frame_deadline: Duration,
    /// How long a connection may sit idle between requests before it is
    /// reaped. Watch streams are never idle-reaped while events flow.
    pub idle_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            dir: PathBuf::from("dstressd-campaigns"),
            workers: 2,
            event_capacity: 256,
            frame_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// A client request routed to the engine thread, with its reply channel.
type Command = (Request, Sender<Reply>);

type ClientRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running campaign daemon. Dropping it (or calling
/// [`shutdown`](Dstressd::shutdown)) stops the listener, disconnects
/// every client, and checkpoints the engine out cleanly.
pub struct Dstressd {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    clients: ClientRegistry,
}

impl std::fmt::Debug for Dstressd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dstressd")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Dstressd {
    /// Boots the engine over `config.dir` on the real filesystem
    /// (resuming every unfinished campaign) and starts serving on
    /// `config.addr`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and engine boot failures (a corrupt
    /// registry refuses to boot).
    pub fn start(config: DaemonConfig) -> io::Result<Dstressd> {
        Self::start_with_storage(DiskStorage::new(), config)
    }

    /// [`start`](Self::start) over an injectable [`Storage`] — how the
    /// chaos suite runs a whole daemon against a fault-scheduled
    /// in-memory filesystem.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and engine boot failures.
    pub fn start_with_storage<S: Storage + Clone + Send + 'static>(
        storage: S,
        config: DaemonConfig,
    ) -> io::Result<Dstressd> {
        let engine = ServiceEngine::with_storage(
            storage,
            &config.dir,
            config.workers,
            config.event_capacity,
        )?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let clients: ClientRegistry = Arc::new(Mutex::new(Vec::new()));
        let (commands, inbox) = mpsc::channel();
        let engine_handle = std::thread::Builder::new()
            .name("dstressd-engine".into())
            .spawn({
                let shutdown = Arc::clone(&shutdown);
                move || engine_loop(engine, inbox, shutdown)
            })?;
        let deadlines = (config.frame_deadline, config.idle_timeout);
        let accept_handle = std::thread::Builder::new()
            .name("dstressd-accept".into())
            .spawn({
                let shutdown = Arc::clone(&shutdown);
                let clients = Arc::clone(&clients);
                move || accept_loop(listener, commands, shutdown, clients, deadlines)
            })?;
        Ok(Dstressd {
            addr,
            shutdown,
            accept: Some(accept_handle),
            engine: Some(engine_handle),
            clients,
        })
    }

    /// The address the daemon is actually listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon: no new connections, every client disconnected,
    /// engine checkpointed out. Idempotent.
    ///
    /// # Errors
    ///
    /// Reports an engine thread that died abnormally. Storage faults
    /// never kill the engine — they quarantine single campaigns — so
    /// this is only ever a bug's panic.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let clients = std::mem::take(
            &mut *self
                .clients
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for (stream, handle) in clients {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        match self.engine.take() {
            Some(engine) => engine
                .join()
                .map_err(|_| io::Error::other("the engine thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Dstressd {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The engine thread: answer queued requests, tick the scheduler, sleep
/// briefly when idle. Returns once the shutdown flag is raised and the
/// in-flight generation has been settled. Infallible: storage faults
/// quarantine individual campaigns inside [`ServiceEngine::tick`].
fn engine_loop<S: Storage + Clone>(
    mut engine: ServiceEngine<S>,
    inbox: Receiver<Command>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        while let Ok((request, reply)) = inbox.try_recv() {
            let _ = reply.send(engine.handle(request));
        }
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !engine.tick() {
            // Idle: block on the inbox instead of spinning.
            match inbox.recv_timeout(Duration::from_millis(20)) {
                Ok((request, reply)) => {
                    let _ = reply.send(engine.handle(request));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    commands: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    clients: ClientRegistry,
    deadlines: (Duration, Duration),
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(teardown) = stream.try_clone() else {
                    continue;
                };
                let commands = commands.clone();
                let shutdown = Arc::clone(&shutdown);
                let spawned = std::thread::Builder::new()
                    .name("dstressd-client".into())
                    .spawn(move || client_loop(stream, commands, shutdown, deadlines));
                if let Ok(handle) = spawned {
                    clients
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((teardown, handle));
                }
            }
            // Nothing pending (or a transient accept error): poll again.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Sends a request to the engine thread and waits for its reply.
fn ask(commands: &Sender<Command>, request: Request) -> Reply {
    let refused = |message: &str| {
        Reply::Response(Response::Error {
            message: message.into(),
        })
    };
    let (reply, answer) = mpsc::channel();
    if commands.send((request, reply)).is_err() {
        return refused("the daemon is shutting down");
    }
    answer
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| refused("the daemon did not answer"))
}

fn write_line<W: Write, T: serde::Serialize>(out: &mut W, value: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(value).map_err(io::Error::other)?;
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// One connection: run the session, then actively shut the socket down.
/// The explicit `shutdown(2)` matters: the accept loop's teardown
/// registry holds another clone of this socket, so merely dropping the
/// session's halves would leave the fd open — and a reaped slow-loris
/// peer blocked — until the whole daemon stops.
fn client_loop(
    stream: TcpStream,
    commands: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    deadlines: (Duration, Duration),
) {
    let Ok(socket) = stream.try_clone() else {
        return;
    };
    client_session(stream, commands, shutdown, deadlines);
    let _ = socket.shutdown(Shutdown::Both);
}

/// One connection's session: read a frame, answer it, repeat. A
/// malformed or oversized frame earns a typed [`Response::Error`] and
/// the connection stays up; EOF, socket errors, daemon shutdown, or a
/// blown deadline (slow-loris frame, idle connection) end it.
fn client_session(
    stream: TcpStream,
    commands: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    (frame_deadline, idle_timeout): (Duration, Duration),
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut frames = FrameReader::new();
    let mut last_activity = Instant::now();
    let mut frame_started: Option<Instant> = None;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match frames.read(&mut reader) {
            Ok(Some(frame)) => {
                frame_started = None;
                last_activity = Instant::now();
                frame
            }
            Ok(None) => {
                // A poll timeout: enforce the connection deadlines.
                if frames.mid_frame() {
                    let started = *frame_started.get_or_insert_with(Instant::now);
                    if started.elapsed() >= frame_deadline {
                        return; // slow-loris: a frame that never finishes
                    }
                } else {
                    frame_started = None;
                    if last_activity.elapsed() >= idle_timeout {
                        return; // idle connection
                    }
                }
                continue;
            }
            Err(FrameError::TooLong) => {
                frame_started = None;
                last_activity = Instant::now();
                let refused = Response::Error {
                    message: "frame too long".into(),
                };
                if write_line(&mut writer, &refused).is_err() {
                    return;
                }
                continue;
            }
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => return,
        };
        if frame.is_empty() {
            continue;
        }
        let request = match parse_request(&frame) {
            Ok(request) => request,
            Err(error) => {
                if write_line(&mut writer, &error).is_err() {
                    return;
                }
                continue;
            }
        };
        // A liveness probe must not wait for the engine's current tick.
        let reply = match request {
            Request::Ping => Reply::Response(Response::Pong),
            request => ask(&commands, request),
        };
        let served = match reply {
            Reply::Response(response) => write_line(&mut writer, &response).is_ok(),
            Reply::Watch {
                campaign,
                mut subscriber,
            } => {
                let settled = stream_watch(&mut writer, campaign, &mut subscriber, &shutdown);
                // A long watch is activity, not idleness.
                last_activity = Instant::now();
                settled.unwrap_or(false)
            }
        };
        if !served {
            return;
        }
    }
}

/// Writes a watch stream: the `Watching` acknowledgement, then the
/// subscription from its cursor. Lag surfaces as an explicit seq-0
/// [`Event::Lagged`] line.
///
/// Returns `true` when the campaign's ring closed: the stream then ends
/// with the `Ok` marker that returns the connection to request/response
/// mode. A daemon shutdown returns `false` without the marker — settled
/// is final, shutdown is a reconnect cue — so the caller drops the
/// connection and a reconnecting watcher keeps retrying against the
/// restarted daemon.
fn stream_watch<W: Write>(
    out: &mut W,
    campaign: u64,
    subscriber: &mut Subscriber,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<bool> {
    write_line(out, &Response::Watching { campaign })?;
    loop {
        match subscriber.recv_timeout(Duration::from_millis(100)) {
            Recv::Event(event) => write_line(out, &event)?,
            Recv::Lagged(missed) => write_line(
                out,
                &SeqEvent {
                    seq: 0,
                    event: Event::Lagged { missed },
                },
            )?,
            Recv::Empty => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Recv::Closed => {
                write_line(out, &Response::Ok)?;
                return Ok(true);
            }
        }
    }
}
