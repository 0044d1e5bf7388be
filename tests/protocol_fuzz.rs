//! Protocol robustness: arbitrary client input must never crash the
//! KV server or the unix-socket daemon — only produce error replies.
//! The `tcp_*` tests need the epoll reactor and are Linux-only; the
//! parser, store, decoder and unix-socket tests run everywhere.

use std::io::{BufRead, BufReader, Write};
#[cfg(target_os = "linux")]
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use proptest::prelude::*;

use softmem::core::{MachineMemory, Priority, Sma};
use softmem::daemon::uds::UdsSmdServer;
use softmem::daemon::{Smd, SmdConfig};
use softmem::kv::protocol::routing_key_of;
use softmem::kv::{CommandRef, Response, Store};
#[cfg(target_os = "linux")]
use softmem::kv::{ReactorConfig, ReactorFrontend, ShardedStore};

/// Printable-ish junk lines (no newlines — the framing layer splits
/// on them anyway).
fn junk_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            8 => proptest::char::range(' ', '~'),
            1 => Just('\t'),
        ],
        0..80,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Raw request frames built to stress the routing extractor: a known
/// (or near-miss) verb in random case, then random pieces — runs of
/// spaces, ASCII and non-ASCII tokens, tabs, CR/LF and the odd invalid
/// UTF-8 byte.
fn routing_frame() -> impl Strategy<Value = Vec<u8>> {
    const VERBS: &[&str] = &[
        "PING", "SET", "GET", "DEL", "EXISTS", "DBSIZE", "FLUSHALL", "KEYS", "INFO", "SHED",
        "INCR", "INCRBY", "APPEND", "PEXPIRE", "PTTL", "PERSIST", "SETNX", "MGET", "STATS",
        "SHUTDOWN", "GETX", "SE", "INC", "", "ÉGET",
    ];
    const ODD: &[&str] = &["é", "✓", "\u{0}", "\t"];
    const EOL: &[&str] = &["\r", "\n", "\r\n"];
    let piece = prop_oneof![
        4 => Just(b" ".to_vec()),
        1 => Just(b"  ".to_vec()),
        4 => proptest::collection::vec(proptest::char::range('!', '~'), 1..6)
            .prop_map(|cs| cs.into_iter().collect::<String>().into_bytes()),
        1 => (0..ODD.len()).prop_map(|i| ODD[i].as_bytes().to_vec()),
        1 => (0..EOL.len()).prop_map(|i| EOL[i].as_bytes().to_vec()),
        1 => Just(vec![0xFF]),
    ];
    (
        (0..VERBS.len()).prop_map(|i| VERBS[i]),
        any::<u32>(),
        proptest::collection::vec(piece, 0..8),
    )
        .prop_map(|(verb, case, pieces)| {
            let mut frame: Vec<u8> = verb
                .bytes()
                .enumerate()
                .map(|(i, b)| {
                    if (case >> (i % 32)) & 1 == 1 {
                        b.to_ascii_lowercase()
                    } else {
                        b
                    }
                })
                .collect();
            for p in pieces {
                frame.extend_from_slice(&p);
            }
            frame
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kv_command_parser_never_panics(line in junk_line()) {
        // Parsing junk either yields a command or a clean error.
        let _ = CommandRef::parse(&line);
    }

    #[test]
    fn kv_store_executes_arbitrary_parsed_commands(lines in proptest::collection::vec(junk_line(), 1..24)) {
        let sma = Sma::standalone(256);
        let store = Store::new(&sma, "fuzz", Priority::default());
        for line in &lines {
            if let Ok(cmd) = CommandRef::parse(line) {
                // Execution must not panic, whatever was parsed.
                let _ = cmd.execute(&store);
            }
        }
        // The store remains consistent and usable.
        store.set(b"sentinel", b"alive").expect("budget");
        prop_assert_eq!(store.get(b"sentinel"), Some(b"alive".to_vec()));
    }
}

proptest! {
    // Pure parsing, no I/O: cheap enough for many cases.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn routing_key_of_agrees_with_the_full_parse(frame in routing_frame()) {
        // A shard worker executes what it receives on its own shard,
        // so the reactor's cheap extractor must name exactly the key
        // the worker's parse routes by. Frames the parse rejects may
        // still route anywhere deterministic, but never by an empty key.
        let fast = routing_key_of(&frame);
        match std::str::from_utf8(&frame).map(CommandRef::parse) {
            Ok(Ok(cmd)) => prop_assert_eq!(fast, cmd.routing_key(), "frame {:?}", frame),
            _ => prop_assert!(fast.is_none_or(|k| !k.is_empty()), "frame {:?}", frame),
        }
    }
}

#[cfg(target_os = "linux")]
/// Starts a TCP-fronted KV server and returns a raw client stream
/// (bypassing `TcpKvClient` so tests control framing byte by byte).
/// Dropping the frontend stops the server.
fn raw_tcp_server() -> (Sma2, ReactorFrontend, TcpStream) {
    let sma = Sma::standalone(512);
    let engine = ShardedStore::new(&sma, "kv", Priority::default(), 1);
    let frontend = ReactorFrontend::bind(
        "127.0.0.1:0",
        std::sync::Arc::new(engine),
        ReactorConfig::default(),
    )
    .expect("bind");
    let stream = TcpStream::connect(frontend.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    (sma, frontend, stream)
}

#[cfg(target_os = "linux")]
type Sma2 = std::sync::Arc<Sma>;

#[cfg(target_os = "linux")]
/// A scripted exchange whose per-command replies are known up front.
/// Every reply here is a single line, so reply framing is trivial to
/// check: one line back per command, in order.
fn scripted_commands(n: usize) -> (Vec<u8>, Vec<String>) {
    let mut wire = Vec::new();
    let mut expected = Vec::new();
    for i in 0..n {
        let (cmd, reply) = match i % 5 {
            0 => (format!("SET k{i} value-{i}"), "+OK".to_string()),
            1 => ("PING".to_string(), "+PONG".to_string()),
            2 => (format!("GET k{}", i - 2), format!("$value-{}", i - 2)),
            3 => (format!("EXISTS k{}", i - 3), ":1".to_string()),
            _ => ("DEL nothing-here".to_string(), ":0".to_string()),
        };
        wire.extend_from_slice(cmd.as_bytes());
        wire.push(b'\n');
        expected.push(reply);
    }
    (wire, expected)
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_pipelined_frames_are_answered_in_order() {
    let (_sma, _frontend, mut stream) = raw_tcp_server();
    let (wire, expected) = scripted_commands(40);
    // The whole pipeline in one write: the server must frame on
    // newlines, not on read boundaries.
    stream.write_all(&wire).expect("write pipeline");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (i, want) in expected.iter().enumerate() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(reply.trim_end(), want, "reply #{i} out of order");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_partial_single_byte_writes_still_frame_correctly() {
    let (_sma, _frontend, mut stream) = raw_tcp_server();
    let (wire, expected) = scripted_commands(10);
    // Worst-case fragmentation: every byte is its own segment. The
    // server sees arbitrary partial reads and must reassemble lines.
    for (i, &b) in wire.iter().enumerate() {
        stream.write_all(&[b]).expect("write byte");
        if i % 7 == 0 {
            stream.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (i, want) in expected.iter().enumerate() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(reply.trim_end(), want, "reply #{i} mangled by split frames");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_half_frame_then_disconnect_does_not_wedge_the_server() {
    let (_sma, frontend, mut stream) = raw_tcp_server();
    // A command with no terminating newline, then a hard disconnect:
    // the unfinished frame must be dropped, not executed or replayed.
    stream.write_all(b"SET orphan half-a-fra").expect("write");
    drop(stream);
    // The server keeps serving fresh connections…
    let mut stream2 = TcpStream::connect(frontend.addr()).expect("reconnect");
    stream2.write_all(b"DBSIZE\n").expect("write");
    let mut reader = BufReader::new(stream2.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    // …and the orphaned half-frame was never executed.
    assert_eq!(reply.trim_end(), ":0", "half frame must not execute");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any chunking of the pipelined byte stream — splits may land
    /// mid-verb, mid-key, or between frames — yields byte-identical
    /// replies in command order.
    #[cfg(target_os = "linux")]
    #[test]
    fn tcp_replies_are_invariant_under_arbitrary_frame_splits(
        n_cmds in 4usize..24,
        cuts in proptest::collection::btree_set(1usize..300, 0..12),
    ) {
        let (_sma, _frontend, mut stream) = raw_tcp_server();
        let (wire, expected) = scripted_commands(n_cmds);
        let mut at = 0usize;
        for &cut in cuts.iter().filter(|&&c| c < wire.len()) {
            stream.write_all(&wire[at..cut]).expect("write chunk");
            stream.flush().expect("flush");
            at = cut;
        }
        stream.write_all(&wire[at..]).expect("write tail");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for (i, want) in expected.iter().enumerate() {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            prop_assert_eq!(reply.trim_end(), want.as_str(), "reply #{} differs under split", i);
        }
    }

    /// `Response::decode` must survive truncated multi-line (array)
    /// frames — the partial-read case one layer up.
    #[test]
    fn response_decode_handles_truncated_arrays(
        items in proptest::collection::vec(
            proptest::collection::vec(proptest::char::range('a', 'z'), 1..9)
                .prop_map(|cs| cs.into_iter().collect::<String>()),
            0..6,
        ),
        keep in 0usize..8,
    ) {
        let mut full = Vec::new();
        Response::Array(items.iter().map(|s| s.as_bytes().to_vec()).collect())
            .encode_into(&mut full);
        let full = String::from_utf8(full).expect("ascii items");
        let lines: Vec<&str> = full.lines().collect();
        let keep = keep.min(lines.len());
        let truncated = lines[..keep].join("\n");
        match Response::decode(&truncated) {
            // Complete prefix (or benign re-parse): must round-trip…
            Ok(Response::Array(got)) => prop_assert_eq!(got.len(), items.len()),
            Ok(other) => prop_assert!(keep == 0 || items.is_empty(), "unexpected: {:?}", other),
            // …anything else must be a clean error, never a panic.
            Err(_) => {}
        }
    }
}

#[cfg(target_os = "linux")]
/// Checks one STATS bulk reply line: `$` sigil, single-line JSON with
/// the network plane's section, the `kv` registry and a counter that
/// proves real content.
fn assert_stats_reply(reply: &str) {
    let line = reply.trim_end();
    assert!(
        line.starts_with("${\"net\":{") && line.contains(",\"kv\":{"),
        "STATS reply malformed: {line}"
    );
    assert!(line.contains("\"sets\":"), "STATS missing counters: {line}");
    assert!(
        line.contains("\"op_ns\":"),
        "STATS missing histograms: {line}"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_stats_replies_frame_correctly_under_byte_splits() {
    let (_sma, _frontend, mut stream) = raw_tcp_server();
    // STATS interleaved with scripted commands, the whole exchange
    // written one byte at a time — the JSON payload must come back as
    // exactly one `$` line wherever the read boundaries fall.
    let wire = b"SET a 1\nSTATS\nPING\nSTATS\n";
    for &b in wire {
        stream.write_all(&[b]).expect("write byte");
    }
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        lines.push(reply);
    }
    assert_eq!(lines[0].trim_end(), "+OK");
    assert_stats_reply(&lines[1]);
    assert_eq!(lines[2].trim_end(), "+PONG");
    assert_stats_reply(&lines[3]);
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_half_stats_frame_then_disconnect_is_dropped() {
    let (_sma, frontend, mut stream) = raw_tcp_server();
    // Half a STATS verb, then a hard disconnect: the orphan frame must
    // not execute or wedge the server.
    stream.write_all(b"STAT").expect("write");
    drop(stream);
    let mut stream2 = TcpStream::connect(frontend.addr()).expect("reconnect");
    stream2.write_all(b"STATS\n").expect("write");
    let mut reader = BufReader::new(stream2.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert_stats_reply(&reply);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// STATS pipelined among scripted commands under arbitrary frame
    /// splits: the scripted replies stay byte-identical and every
    /// STATS reply is a well-formed single-line JSON bulk.
    #[cfg(target_os = "linux")]
    #[test]
    fn tcp_stats_is_invariant_under_arbitrary_frame_splits(
        n_cmds in 4usize..16,
        cuts in proptest::collection::btree_set(1usize..220, 0..10),
    ) {
        let (_sma, _frontend, mut stream) = raw_tcp_server();
        let (mut wire, expected) = scripted_commands(n_cmds);
        wire.extend_from_slice(b"STATS\n");
        let mut at = 0usize;
        for &cut in cuts.iter().filter(|&&c| c < wire.len()) {
            stream.write_all(&wire[at..cut]).expect("write chunk");
            stream.flush().expect("flush");
            at = cut;
        }
        stream.write_all(&wire[at..]).expect("write tail");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for (i, want) in expected.iter().enumerate() {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            prop_assert_eq!(reply.trim_end(), want.as_str(), "reply #{} differs under split", i);
        }
        let mut stats = String::new();
        reader.read_line(&mut stats).expect("read stats");
        assert_stats_reply(&stats);
    }
}

#[test]
fn uds_stats_command_replies_with_daemon_snapshot() {
    let socket = std::env::temp_dir().join(format!("softmem-stats-{}.sock", std::process::id()));
    let machine = MachineMemory::unbounded();
    let smd = Smd::new(SmdConfig::new(&machine, 64).initial_budget(4));
    let server = UdsSmdServer::bind(smd, &socket).expect("bind");

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // The daemon pushes unsolicited CREDIT/DEMAND lines (e.g. the
    // registration grant) between replies; skip those.
    let mut next_reply = move || loop {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        if !(reply.starts_with("CREDIT") || reply.starts_with("DEMAND")) {
            return reply;
        }
    };
    stream
        .write_all(b"REGISTER 1 stats-probe\n")
        .expect("write");
    let reply = next_reply();
    assert!(reply.starts_with("REGISTERED 1 "), "{reply}");

    // The verb split across writes: the daemon frames on newlines, so
    // partial reads must reassemble into one STATS command.
    stream.write_all(b"STA").expect("write");
    stream.flush().expect("flush");
    std::thread::sleep(std::time::Duration::from_millis(5));
    stream.write_all(b"TS 2\n").expect("write");
    let reply = next_reply();
    let line = reply.trim_end();
    assert!(line.starts_with("STATS 2 {\"smd\":{"), "{line}");
    assert!(line.contains("\"grants_total\":"), "{line}");
    assert!(line.contains("\"registered_procs\":"), "{line}");

    // STATS before REGISTER on a fresh connection is a clean error.
    let mut bare = UnixStream::connect(&socket).expect("connect");
    let mut bare_reader = BufReader::new(bare.try_clone().expect("clone"));
    bare.write_all(b"STATS 7\n").expect("write");
    let mut bare_reply = String::new();
    bare_reader.read_line(&mut bare_reply).expect("read");
    assert!(bare_reply.starts_with("ERR"), "{bare_reply}");

    drop(stream);
    drop(bare);
    drop(server);
}

#[test]
fn uds_daemon_survives_garbage_clients() {
    let socket = std::env::temp_dir().join(format!("softmem-fuzz-{}.sock", std::process::id()));
    let machine = MachineMemory::unbounded();
    let smd = Smd::new(SmdConfig::new(&machine, 64).initial_budget(4));
    let server = UdsSmdServer::bind(smd, &socket).expect("bind");

    let garbage: &[&str] = &[
        "",
        "   ",
        "REQUEST 1 1 0 0",                // before REGISTER
        "YIELD x y z w",                  // malformed numbers
        "REGISTER",                       // no name (anonymous)
        "REGISTER again",                 // double registration
        "REQUEST -5 huge 0 0",            // bad integers
        "REQUEST 1",                      // wrong arity
        "RELEASE lots",                   //
        "TRAD",                           //
        "CREDIT 99",                      // a daemon→client verb, reversed
        "DEMAND 1 1",                     // likewise
        "\u{7f}\u{1b}[31mweird\u{1b}[0m", // control characters
        "REQUEST 2 2 0 0",                // a real request at the end
    ];
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut replies = 0;
    for line in garbage {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        // Not every line gets a reply (YIELD is fire-and-forget); poll
        // with a short timeout.
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(100)))
            .expect("timeout");
        let mut reply = String::new();
        if reader.read_line(&mut reply).is_ok() && !reply.is_empty() {
            replies += 1;
            assert!(
                reply.starts_with("ERR")
                    || reply.starts_with("REGISTERED")
                    || reply.starts_with("GRANT")
                    || reply.starts_with("DENY")
                    || reply.starts_with("CREDIT")
                    || reply.starts_with("OK"),
                "unexpected reply: {reply}"
            );
        }
    }
    assert!(replies > 5, "the daemon kept answering: {replies}");
    // The daemon is still fully functional for a well-behaved client.
    let p = softmem::daemon::uds::UdsProcess::connect(
        &socket,
        "clean",
        softmem::core::SmaConfig::for_testing(0),
    )
    .expect("connect");
    assert_eq!(p.request_range(8, 8).expect("granted"), 8);
    drop(p);
    drop(server);
}
