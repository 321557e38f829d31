//! Protocol robustness for the `dstressd` campaign daemon.
//!
//! These tests speak raw bytes over real loopback TCP: torn frames,
//! oversized lines, unknown commands, malformed JSON, and many clients
//! interleaving — none of it may kill the daemon, and every malformed
//! frame earns a typed `Error` reply on a connection that stays usable.

use dstress::service::{CampaignSpec, DaemonConfig, Dstressd, Request, Response, MAX_FRAME_BYTES};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dstressd-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(tag: &str) -> Dstressd {
    Dstressd::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        dir: temp_dir(tag),
        workers: 1,
        event_capacity: 8,
        ..DaemonConfig::default()
    })
    .expect("daemon boots")
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    serde_json::from_str(&line).expect("typed response")
}

fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Response {
    let mut line = serde_json::to_string(request).expect("encode");
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
    read_response(reader)
}

#[test]
fn malformed_frames_earn_typed_errors_and_the_connection_survives() {
    let daemon = start_daemon("malformed");
    let (mut stream, mut reader) = connect(daemon.addr());
    for bad in [
        "not json at all",
        "{\"truncated\":",
        "{\"Unknown\":{}}",
        "\"Frobnicate\"",
        "[1,2,3]",
        "{\"Submit\":{\"spec\":{\"scale\":17}}}",
    ] {
        stream.write_all(bad.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        match read_response(&mut reader) {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("expected a typed error for {bad:?}, got {other:?}"),
        }
    }
    // After every malformed frame the connection still answers pings.
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &Request::Ping),
        Response::Pong
    );
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn torn_frames_reassemble_and_mid_frame_disconnects_are_harmless() {
    let daemon = start_daemon("torn");
    // A request split across many writes with pauses is one frame.
    let (mut stream, mut reader) = connect(daemon.addr());
    let line = format!("{}\n", serde_json::to_string(&Request::Ping).unwrap());
    for chunk in line.as_bytes().chunks(3) {
        stream.write_all(chunk).expect("send chunk");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(read_response(&mut reader), Response::Pong);
    // A client that dies mid-frame (no trailing newline) does not take
    // the daemon with it.
    let (mut dying, _) = connect(daemon.addr());
    dying
        .write_all(b"{\"Status\":{\"campai")
        .expect("send torn");
    drop(dying);
    let (mut stream, mut reader) = connect(daemon.addr());
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &Request::List),
        Response::List {
            campaigns: Vec::new()
        }
    );
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_lines_are_refused_without_losing_the_connection() {
    let daemon = start_daemon("oversized");
    let (mut stream, mut reader) = connect(daemon.addr());
    let huge = vec![b'x'; MAX_FRAME_BYTES + 100];
    stream.write_all(&huge).expect("send oversized");
    stream.write_all(b"\n").expect("send newline");
    match read_response(&mut reader) {
        Response::Error { message } => assert!(message.contains("too long"), "{message}"),
        other => panic!("expected a frame-too-long error, got {other:?}"),
    }
    // The overflow was drained to the newline: the next frame parses.
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &Request::Ping),
        Response::Pong
    );
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn interleaved_clients_each_get_their_own_replies() {
    let daemon = start_daemon("interleaved");
    let addr = daemon.addr();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                for round in 0..20 {
                    if (i + round) % 3 == 0 {
                        // Sprinkle garbage between valid requests.
                        stream.write_all(b"###garbage###\n").expect("send");
                        match read_response(&mut reader) {
                            Response::Error { .. } => {}
                            other => panic!("expected an error, got {other:?}"),
                        }
                    }
                    // Unknown campaign ids are typed errors, not panics.
                    let reply = roundtrip(
                        &mut stream,
                        &mut reader,
                        &Request::Status {
                            campaign: 1_000 + i,
                        },
                    );
                    match reply {
                        Response::Error { message } => {
                            assert!(message.contains("no campaign"), "{message}")
                        }
                        other => panic!("expected an error, got {other:?}"),
                    }
                    assert_eq!(
                        roundtrip(&mut stream, &mut reader, &Request::Ping),
                        Response::Pong
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn pausing_cancelling_and_watching_unknown_campaigns_is_typed() {
    let daemon = start_daemon("unknown-ids");
    let (mut stream, mut reader) = connect(daemon.addr());
    for request in [
        Request::Status { campaign: 9 },
        Request::Pause { campaign: 9 },
        Request::Resume { campaign: 9 },
        Request::Cancel { campaign: 9 },
        Request::Watch {
            campaign: 9,
            from_seq: 0,
        },
    ] {
        match roundtrip(&mut stream, &mut reader, &request) {
            Response::Error { message } => assert_eq!(message, "no campaign 9", "{request:?}"),
            other => panic!("expected an error for {request:?}, got {other:?}"),
        }
    }
    // A terminal campaign refuses a pause with its state. The one-step
    // budget keeps it live (budget-paused) until the cancel lands.
    let submit = Request::Submit {
        spec: CampaignSpec {
            scale: "quick".into(),
            step_budget: 1,
            ..CampaignSpec::default()
        },
    };
    let Response::Submitted { campaign, .. } = roundtrip(&mut stream, &mut reader, &submit) else {
        panic!("expected a submit acknowledgement");
    };
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &Request::Cancel { campaign }),
        Response::Ok
    );
    match roundtrip(&mut stream, &mut reader, &Request::Pause { campaign }) {
        Response::Error { message } => {
            assert_eq!(message, format!("campaign {campaign} is cancelled"))
        }
        other => panic!("expected an error for pausing a cancelled campaign, got {other:?}"),
    }
    daemon.shutdown().expect("clean shutdown");
}

/// Slow-loris containment: a client that trickles half a frame and then
/// stalls, and a client that connects and never speaks, are both reaped
/// on the configured deadlines — and neither takes the daemon (or any
/// well-behaved client) with it.
#[test]
fn stalled_and_idle_connections_are_reaped_without_hurting_the_daemon() {
    let daemon = Dstressd::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        dir: temp_dir("slow-loris"),
        workers: 1,
        event_capacity: 8,
        frame_deadline: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(700),
    })
    .expect("daemon boots");
    let reaped = |mut reader: BufReader<TcpStream>| {
        // A reaped connection reads EOF; a live one would time out.
        let mut line = String::new();
        matches!(reader.read_line(&mut line), Ok(0))
    };
    // Half a frame, then silence: reaped on the frame deadline.
    let (mut stalled, stalled_reader) = connect(daemon.addr());
    stalled.write_all(b"{\"Status\":{\"campai").expect("send");
    // No bytes at all: reaped on the (longer) idle timeout.
    let (_idle, idle_reader) = connect(daemon.addr());
    std::thread::sleep(Duration::from_millis(2_000));
    assert!(reaped(stalled_reader), "mid-frame staller was not reaped");
    assert!(reaped(idle_reader), "idle connection was not reaped");
    // The daemon and fresh connections are unharmed.
    let (mut stream, mut reader) = connect(daemon.addr());
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &Request::Ping),
        Response::Pong
    );
    daemon.shutdown().expect("clean shutdown");
}

/// One shared daemon for the property tests: booting a fresh one per
/// case would dominate the runtime. The daemon is intentionally leaked —
/// its threads die with the test process.
fn shared_daemon() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let daemon = start_daemon("property");
        let addr = daemon.addr();
        std::mem::forget(daemon);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary newline-free garbage never panics the daemon and always
    /// earns exactly one reply, after which the connection still works.
    #[test]
    // Empty frames (and lone carriage returns, which strip to empty) are
    // skipped without a reply by design, so the property sends at least
    // one printable byte (0x20..0x7f excludes both newline flavours).
    fn arbitrary_frames_never_kill_the_daemon(
        frame in proptest::collection::vec(0x20u8..0x7f, 1..200),
    ) {
        let (mut stream, mut reader) = connect(shared_daemon());
        stream.write_all(&frame).expect("send");
        stream.write_all(b"\n").expect("send");
        // Whatever came back was a well-formed Response frame...
        let _ = read_response(&mut reader);
        // ...and the connection is still in protocol sync.
        prop_assert_eq!(
            roundtrip(&mut stream, &mut reader, &Request::Ping),
            Response::Pong
        );
    }

    /// Requests round-trip through their wire encoding.
    #[test]
    fn requests_roundtrip_the_wire_encoding(campaign in any::<u64>()) {
        for request in [
            Request::Status { campaign },
            Request::Pause { campaign },
            Request::Watch {
                campaign,
                from_seq: campaign / 2,
            },
            Request::List,
            Request::Ping,
        ] {
            let encoded = serde_json::to_string(&request).expect("encode");
            let decoded: Request = serde_json::from_str(&encoded).expect("decode");
            prop_assert_eq!(decoded, request);
        }
    }
}
