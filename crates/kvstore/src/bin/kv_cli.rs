//! A minimal interactive client for `kv_server`.
//!
//! ```sh
//! cargo run --release -p softmem-kv --bin kv_cli -- 127.0.0.1:PORT
//! # batch stdin through the pipelined path, 64 commands per write:
//! cat workload.txt | cargo run --release -p softmem-kv --bin kv_cli -- 127.0.0.1:PORT --pipeline 64
//! ```

use std::io::{BufRead, Write};

use softmem_kv::{Response, TcpKvClient};

fn print_reply(reply: &Response) {
    match reply {
        Response::Ok(s) => println!("{s}"),
        Response::Bulk(None) => println!("(nil)"),
        Response::Bulk(Some(v)) => println!("\"{}\"", String::from_utf8_lossy(v)),
        Response::Int(n) => println!("(integer) {n}"),
        Response::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                println!("{}) {}", i + 1, String::from_utf8_lossy(item));
            }
            if items.is_empty() {
                println!("(empty)");
            }
        }
        Response::Error(msg) => println!("(error) {msg}"),
    }
}

/// Reads commands from stdin and ships them in batches of `batch`
/// per write, printing the replies in order — the way to drive a bulk
/// load or benchmark without paying one round trip per command.
fn run_pipeline(mut client: TcpKvClient, batch: usize) {
    let stdin = std::io::stdin();
    let mut pending: Vec<String> = Vec::with_capacity(batch);
    let flush = |pending: &mut Vec<String>, client: &mut TcpKvClient| -> bool {
        if pending.is_empty() {
            return true;
        }
        match client.request_pipeline(pending) {
            Ok(replies) => {
                for reply in &replies {
                    print_reply(reply);
                }
                pending.clear();
                true
            }
            Err(e) => {
                eprintln!("connection error: {e}");
                false
            }
        }
    };
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim().to_string();
        if line.is_empty() {
            continue;
        }
        let stop = line.eq_ignore_ascii_case("shutdown");
        pending.push(line);
        if pending.len() >= batch || stop {
            if !flush(&mut pending, &mut client) {
                return;
            }
            if stop {
                return;
            }
        }
    }
    flush(&mut pending, &mut client);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .get(1)
        .expect("usage: kv_cli <host:port> [--pipeline N]")
        .parse()
        .expect("valid socket address");
    let pipeline: Option<usize> = args
        .iter()
        .position(|a| a == "--pipeline")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--pipeline takes a batch size >= 1"));
    let mut client = TcpKvClient::connect(addr).expect("connect");

    if let Some(batch) = pipeline {
        run_pipeline(client, batch.max(1));
        return;
    }

    println!("connected to {addr}; type commands (Ctrl-D to quit)");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("softmem-kv> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match client.request(line) {
            Ok(reply) => print_reply(&reply),
            Err(e) => {
                println!("connection error: {e}");
                break;
            }
        }
        if line.eq_ignore_ascii_case("shutdown") {
            break;
        }
    }
}
