//! The wire protocol: a line-oriented, Redis-flavoured command set.
//!
//! Requests are single lines, e.g. `SET user:1 alice`; values with
//! spaces can be sent as the remainder of the line after the key.
//! Replies use Redis-style sigils: `+OK`, `$<value>`, `:<integer>`,
//! `-ERR <message>`, `*<n>` followed by `n` element lines.
//!
//! The module separates the three protocol stages so each layer of the
//! server pays only for what it needs:
//!
//! * **Framing** ([`next_frame`]) — find a complete request line in a
//!   byte buffer without interpreting it. This is the only stage the
//!   reactor front-end runs on the event loop.
//! * **Routing** ([`routing_key_of`]) — extract the routing key of a
//!   single-key command from a raw frame without allocating or fully
//!   parsing, so frames can be hash-routed to shard queues.
//! * **Parsing/execution** ([`CommandRef::parse`]) — the borrowed-slice
//!   parse that shard workers run; key/value slices borrow straight
//!   from the frame, and [`CommandRef::execute`] runs against a store.
//!
//! There is one command type ([`CommandRef`]) and one reply encoder
//! ([`Response::encode_into`], binary-safe); in-process callers reach
//! the same path through [`crate::ShardedStore::execute`].

use crate::store::Store;

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `+<text>`.
    Ok(String),
    /// `$<bytes>`; `None` encodes a miss (`$-1`).
    Bulk(Option<Vec<u8>>),
    /// `:<n>`.
    Int(i64),
    /// `*<n>` + element lines.
    Array(Vec<Vec<u8>>),
    /// `-ERR <message>`.
    Error(String),
}

/// A parsed client command whose key/value fields borrow straight
/// from the request frame. Shard workers parse and execute this form —
/// no per-request key/value allocation, only the reply itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandRef<'a> {
    /// `PING` → `+PONG`.
    Ping,
    /// `SET key value` → `+OK`.
    Set {
        /// Key bytes.
        key: &'a [u8],
        /// Value bytes (remainder of the line).
        value: &'a [u8],
    },
    /// `GET key` → `$value` or `$-1` (miss).
    Get {
        /// Key bytes.
        key: &'a [u8],
    },
    /// `DEL key` → `:1`/`:0`.
    Del {
        /// Key bytes.
        key: &'a [u8],
    },
    /// `EXISTS key` → `:1`/`:0`.
    Exists {
        /// Key bytes.
        key: &'a [u8],
    },
    /// `DBSIZE` → `:n`.
    DbSize,
    /// `FLUSHALL` → `+OK`.
    FlushAll,
    /// `KEYS prefix` (empty prefix lists all) → `*n` + keys.
    Keys {
        /// Required key prefix.
        prefix: &'a [u8],
    },
    /// `INFO` → `$<multi-line stats>`.
    Info,
    /// `SHED bytes` → `:freed`.
    Shed {
        /// Bytes to give up.
        bytes: usize,
    },
    /// `INCR key` / `INCRBY key n` → `:new-value`.
    IncrBy {
        /// Key bytes.
        key: &'a [u8],
        /// Signed delta.
        delta: i64,
    },
    /// `APPEND key value` → `:new-length`.
    Append {
        /// Key bytes.
        key: &'a [u8],
        /// Bytes to append.
        value: &'a [u8],
    },
    /// `PEXPIRE key ms` → `:1`/`:0`.
    PExpire {
        /// Key bytes.
        key: &'a [u8],
        /// Time to live in milliseconds.
        ms: u64,
    },
    /// `PTTL key` → remaining ms, `:-1` or `:-2`.
    PTtl {
        /// Key bytes.
        key: &'a [u8],
    },
    /// `PERSIST key` → `:1`/`:0`.
    Persist {
        /// Key bytes.
        key: &'a [u8],
    },
    /// `SETNX key value` → `:1`/`:0`.
    SetNx {
        /// Key bytes.
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
    },
    /// `MGET key…` → `*n` elements (`(nil)` for a miss).
    MGet {
        /// Keys, position-matched in the reply.
        keys: Vec<&'a [u8]>,
    },
    /// `STATS` → `$<telemetry JSON snapshot>`.
    Stats,
    /// `SHUTDOWN` → `+OK` and the server exits.
    Shutdown,
}

impl<'a> CommandRef<'a> {
    /// Parses one request line without copying key or value bytes.
    pub fn parse(line: &'a str) -> Result<CommandRef<'a>, String> {
        let (verb, rest) = split_verb(line);
        // Uppercase the verb on the stack; every real verb fits, and
        // anything longer is by construction an unknown command.
        let mut up = [0u8; 12];
        let verb_up: &str = if verb.len() <= up.len() {
            for (dst, src) in up.iter_mut().zip(verb.bytes()) {
                *dst = src.to_ascii_uppercase();
            }
            std::str::from_utf8(&up[..verb.len()]).unwrap_or("")
        } else {
            "\u{0}" // sentinel: cannot match any verb, falls through to unknown
        };
        let one_arg = |rest: &'a str, verb: &str| -> Result<&'a [u8], String> {
            if rest.is_empty() {
                Err(format!("wrong number of arguments for '{verb}'"))
            } else {
                Ok(rest.as_bytes())
            }
        };
        match verb_up {
            "PING" => Ok(CommandRef::Ping),
            "SET" => {
                let mut kv = rest.splitn(2, ' ');
                let key = kv.next().unwrap_or("");
                let value = kv.next();
                match (key.is_empty(), value) {
                    (false, Some(v)) => Ok(CommandRef::Set {
                        key: key.as_bytes(),
                        value: v.as_bytes(),
                    }),
                    _ => Err("wrong number of arguments for 'SET'".into()),
                }
            }
            "GET" => Ok(CommandRef::Get {
                key: one_arg(rest, "GET")?,
            }),
            "DEL" => Ok(CommandRef::Del {
                key: one_arg(rest, "DEL")?,
            }),
            "EXISTS" => Ok(CommandRef::Exists {
                key: one_arg(rest, "EXISTS")?,
            }),
            "DBSIZE" => Ok(CommandRef::DbSize),
            "FLUSHALL" => Ok(CommandRef::FlushAll),
            "KEYS" => Ok(CommandRef::Keys {
                prefix: rest.as_bytes(),
            }),
            "INFO" => Ok(CommandRef::Info),
            "SHED" => rest
                .trim()
                .parse::<usize>()
                .map(|bytes| CommandRef::Shed { bytes })
                .map_err(|_| "SHED requires a byte count".into()),
            "INCR" => Ok(CommandRef::IncrBy {
                key: one_arg(rest, "INCR")?,
                delta: 1,
            }),
            "INCRBY" => {
                let mut kv = rest.splitn(2, ' ');
                let key = kv.next().unwrap_or("");
                let delta = kv.next().and_then(|s| s.trim().parse::<i64>().ok());
                match (key.is_empty(), delta) {
                    (false, Some(delta)) => Ok(CommandRef::IncrBy {
                        key: key.as_bytes(),
                        delta,
                    }),
                    _ => Err("INCRBY requires a key and an integer".into()),
                }
            }
            "APPEND" => {
                let mut kv = rest.splitn(2, ' ');
                let key = kv.next().unwrap_or("");
                let value = kv.next();
                match (key.is_empty(), value) {
                    (false, Some(v)) => Ok(CommandRef::Append {
                        key: key.as_bytes(),
                        value: v.as_bytes(),
                    }),
                    _ => Err("wrong number of arguments for 'APPEND'".into()),
                }
            }
            "PEXPIRE" => {
                let mut kv = rest.splitn(2, ' ');
                let key = kv.next().unwrap_or("");
                let ms = kv.next().and_then(|s| s.trim().parse::<u64>().ok());
                match (key.is_empty(), ms) {
                    (false, Some(ms)) => Ok(CommandRef::PExpire {
                        key: key.as_bytes(),
                        ms,
                    }),
                    _ => Err("PEXPIRE requires a key and milliseconds".into()),
                }
            }
            "PTTL" => Ok(CommandRef::PTtl {
                key: one_arg(rest, "PTTL")?,
            }),
            "PERSIST" => Ok(CommandRef::Persist {
                key: one_arg(rest, "PERSIST")?,
            }),
            "SETNX" => {
                let mut kv = rest.splitn(2, ' ');
                let key = kv.next().unwrap_or("");
                let value = kv.next();
                match (key.is_empty(), value) {
                    (false, Some(v)) => Ok(CommandRef::SetNx {
                        key: key.as_bytes(),
                        value: v.as_bytes(),
                    }),
                    _ => Err("wrong number of arguments for 'SETNX'".into()),
                }
            }
            "MGET" => {
                let keys: Vec<&[u8]> = rest.split_whitespace().map(|k| k.as_bytes()).collect();
                if keys.is_empty() {
                    Err("wrong number of arguments for 'MGET'".into())
                } else {
                    Ok(CommandRef::MGet { keys })
                }
            }
            "STATS" => Ok(CommandRef::Stats),
            "SHUTDOWN" => Ok(CommandRef::Shutdown),
            "" => Err("empty command".into()),
            _ => Err(format!("unknown command '{}'", verb.to_ascii_uppercase())),
        }
    }

    /// The shard-routing key: `Some` for single-key commands, `None`
    /// for global / multi-key / connection-control commands (which the
    /// dispatcher handles specially).
    pub fn routing_key(&self) -> Option<&'a [u8]> {
        match self {
            CommandRef::Set { key, .. }
            | CommandRef::Get { key }
            | CommandRef::Del { key }
            | CommandRef::Exists { key }
            | CommandRef::IncrBy { key, .. }
            | CommandRef::Append { key, .. }
            | CommandRef::PExpire { key, .. }
            | CommandRef::PTtl { key }
            | CommandRef::Persist { key }
            | CommandRef::SetNx { key, .. } => Some(key),
            _ => None,
        }
    }

    /// Executes against a store. (`Shutdown` is handled by the server
    /// loop; here it just acknowledges.) Every call counts in the
    /// store's `ops`; one in [`softmem_telemetry::SAMPLE_EVERY`] is
    /// timed into `op_ns`.
    pub fn execute(&self, store: &Store) -> Response {
        let metrics = store.metrics();
        let timer = softmem_telemetry::Timer::start_sampled(metrics.ops.inc());
        let response = self.execute_inner(store);
        timer.observe(&metrics.op_ns);
        response
    }

    fn execute_inner(&self, store: &Store) -> Response {
        match self {
            CommandRef::Ping => Response::Ok("PONG".into()),
            CommandRef::Set { key, value } => match store.set(key, value) {
                Ok(()) => Response::Ok("OK".into()),
                Err(e) => Response::Error(format!("OOM {e}")),
            },
            CommandRef::Get { key } => {
                // Borrowed-bytes reply: the value lands in the reply
                // buffer in one copy, straight from the guarded read.
                let mut buf = Vec::new();
                Response::Bulk(store.get_into(key, &mut buf).then_some(buf))
            }
            CommandRef::Del { key } => Response::Int(store.del(key) as i64),
            CommandRef::Exists { key } => Response::Int(store.exists(key) as i64),
            CommandRef::DbSize => Response::Int(store.dbsize() as i64),
            CommandRef::FlushAll => {
                store.flushall();
                Response::Ok("OK".into())
            }
            CommandRef::Keys { prefix } => Response::Array(store.keys_with_prefix(prefix)),
            CommandRef::Info => Response::Bulk(Some(render_info(store).into_bytes())),
            CommandRef::Shed { bytes } => Response::Int(store.shed(*bytes) as i64),
            CommandRef::IncrBy { key, delta } => match store.incr_by(key, *delta) {
                Ok(n) => Response::Int(n),
                Err(msg) => Response::Error(msg),
            },
            CommandRef::Append { key, value } => match store.append(key, value) {
                Ok(len) => Response::Int(len as i64),
                Err(e) => Response::Error(format!("OOM {e}")),
            },
            CommandRef::PExpire { key, ms } => {
                Response::Int(store.expire(key, std::time::Duration::from_millis(*ms)) as i64)
            }
            CommandRef::PTtl { key } => Response::Int(match store.ttl(key) {
                crate::store::Ttl::NoKey => -2,
                crate::store::Ttl::NoExpiry => -1,
                crate::store::Ttl::Remaining(d) => d.as_millis() as i64,
            }),
            CommandRef::Persist { key } => Response::Int(store.persist(key) as i64),
            CommandRef::SetNx { key, value } => match store.setnx(key, value) {
                Ok(stored) => Response::Int(stored as i64),
                Err(e) => Response::Error(format!("OOM {e}")),
            },
            CommandRef::MGet { keys } => Response::Array(
                keys.iter()
                    .map(|k| {
                        // Each reply element is filled straight from
                        // the guarded borrow (no Option layer, no
                        // intermediate clone).
                        let mut buf = Vec::new();
                        if !store.get_into(k, &mut buf) {
                            buf.extend_from_slice(b"(nil)");
                        }
                        buf
                    })
                    .collect(),
            ),
            CommandRef::Stats => Response::Bulk(Some(render_stats(store).into_bytes())),
            CommandRef::Shutdown => Response::Ok("OK".into()),
        }
    }
}

/// Splits a request line (terminator trimmed) at its first space into
/// the verb and the rest — where [`CommandRef::parse`] says a verb
/// ends.
fn split_verb(line: &str) -> (&str, &str) {
    let line = line.trim_end_matches(['\r', '\n']);
    line.split_once(' ').unwrap_or((line, ""))
}

/// Finds the next complete request line in `buf`: returns the frame
/// (trailing `\r` stripped, `\n` excluded) and the total bytes
/// consumed including the terminator, or `None` if no full line has
/// arrived yet. Pure framing — the frame is not interpreted, so this
/// is safe to run on a reactor thread.
pub fn next_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let mut frame = &buf[..nl];
    if frame.last() == Some(&b'\r') {
        frame = &frame[..frame.len() - 1];
    }
    Some((frame, nl + 1))
}

/// Extracts the shard-routing key from a raw request frame without a
/// full parse, mirroring [`CommandRef::parse`]'s `splitn(2, ' ')`
/// semantics exactly: for `SET`/`APPEND`/`SETNX`/`INCRBY`/`PEXPIRE`
/// the key is the first token after the verb; for
/// `GET`/`DEL`/`EXISTS`/`PTTL`/`PERSIST`/`INCR` the key is the
/// *entire* remainder of the line (keys may contain spaces). Returns
/// `None` for global, multi-key, keyless, or unknown commands — those
/// take the dispatcher's slow path. Frames that *look* single-key but
/// fail the full parse (e.g. `SET k` with no value) may still return
/// a key: they route deterministically to that key's shard, whose
/// worker then reports the parse error. Whenever the full parse
/// succeeds with a routing key, this returns the identical bytes.
pub fn routing_key_of(frame: &[u8]) -> Option<&[u8]> {
    let mut frame = frame;
    while let Some((&last, head)) = frame.split_last() {
        if last == b'\r' || last == b'\n' {
            frame = head;
        } else {
            break;
        }
    }
    let (verb, rest) = match frame.iter().position(|&b| b == b' ') {
        Some(i) => (&frame[..i], &frame[i + 1..]),
        None => (frame, &frame[frame.len()..]),
    };
    // Commands whose key stops at the next space…
    const KEY_IS_FIRST_TOKEN: [&[u8]; 5] = [b"SET", b"APPEND", b"SETNX", b"INCRBY", b"PEXPIRE"];
    // …and commands whose key is everything after the verb.
    const KEY_IS_REST: [&[u8]; 6] = [b"GET", b"DEL", b"EXISTS", b"PTTL", b"PERSIST", b"INCR"];
    let matches = |v: &&[u8]| verb.eq_ignore_ascii_case(v);
    let key = if KEY_IS_FIRST_TOKEN.iter().any(matches) {
        match rest.iter().position(|&b| b == b' ') {
            Some(i) => &rest[..i],
            None => rest,
        }
    } else if KEY_IS_REST.iter().any(matches) {
        rest
    } else {
        return None;
    };
    if key.is_empty() {
        None
    } else {
        Some(key)
    }
}

pub(crate) fn render_info(store: &Store) -> String {
    // Single line: the protocol frames replies by lines, so INFO packs
    // its fields with `;` separators — exactly the telemetry
    // registry's flat rendering, so there is no bespoke formatting to
    // drift out of sync with the metric set.
    store.refresh_gauges();
    store.metrics().snapshot().render_flat()
}

pub(crate) fn render_stats(store: &Store) -> String {
    // Single line of whitespace-free JSON, safe under line framing.
    store.refresh_gauges();
    softmem_telemetry::combined_json(&[store.metrics().snapshot()])
}

impl Response {
    /// Appends the encoded reply to `out` as raw bytes (always ends
    /// with `\n`). Bulk and array payloads are copied untouched, so
    /// values that are not valid UTF-8 survive the wire; a bulk
    /// payload reserves its room first, so `out` grows at most once.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        match self {
            Response::Ok(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.push(b'\n');
            }
            Response::Bulk(None) => out.extend_from_slice(b"$-1\n"),
            Response::Bulk(Some(v)) => {
                out.reserve(v.len() + 2);
                out.push(b'$');
                out.extend_from_slice(v);
                out.push(b'\n');
            }
            Response::Int(n) => {
                let _ = write!(out, ":{n}");
                out.push(b'\n');
            }
            Response::Array(items) => {
                let _ = write!(out, "*{}", items.len());
                out.push(b'\n');
                for item in items {
                    out.extend_from_slice(item);
                    out.push(b'\n');
                }
            }
            Response::Error(msg) => {
                out.extend_from_slice(b"-ERR ");
                out.extend_from_slice(msg.as_bytes());
                out.push(b'\n');
            }
        }
    }

    /// Decodes a reply from protocol text (the first line, plus array
    /// elements where applicable).
    pub fn decode(text: &str) -> Result<Response, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty response")?;
        match first.as_bytes().first() {
            Some(b'+') => Ok(Response::Ok(first[1..].to_string())),
            Some(b':') => first[1..]
                .parse::<i64>()
                .map(Response::Int)
                .map_err(|e| e.to_string()),
            Some(b'$') => {
                if first == "$-1" {
                    Ok(Response::Bulk(None))
                } else {
                    // Bulk payload = rest of first line + any
                    // remaining lines (INFO is multi-line).
                    let mut payload = first[1..].to_string();
                    for line in lines {
                        payload.push('\n');
                        payload.push_str(line);
                    }
                    Ok(Response::Bulk(Some(payload.into_bytes())))
                }
            }
            Some(b'*') => {
                let n: usize = first[1..].parse().map_err(|_| "bad array length")?;
                let items: Vec<Vec<u8>> = lines.take(n).map(|l| l.as_bytes().to_vec()).collect();
                if items.len() != n {
                    return Err("truncated array".into());
                }
                Ok(Response::Array(items))
            }
            Some(b'-') => Ok(Response::Error(
                first.trim_start_matches("-ERR ").to_string(),
            )),
            _ => Err(format!("unparseable response: {first}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmem_core::{Priority, Sma};

    #[test]
    fn parse_basic_commands() {
        assert_eq!(CommandRef::parse("PING").unwrap(), CommandRef::Ping);
        assert_eq!(
            CommandRef::parse("SET k hello world").unwrap(),
            CommandRef::Set {
                key: b"k",
                value: b"hello world"
            }
        );
        assert_eq!(
            CommandRef::parse("get k\r\n").unwrap(),
            CommandRef::Get { key: b"k" }
        );
        assert_eq!(CommandRef::parse("DBSIZE").unwrap(), CommandRef::DbSize);
        assert_eq!(
            CommandRef::parse("KEYS user:").unwrap(),
            CommandRef::Keys { prefix: b"user:" }
        );
        assert_eq!(
            CommandRef::parse("SHED 4096").unwrap(),
            CommandRef::Shed { bytes: 4096 }
        );
    }

    #[test]
    fn parse_new_commands() {
        assert_eq!(
            CommandRef::parse("INCR n").unwrap(),
            CommandRef::IncrBy {
                key: b"n",
                delta: 1
            }
        );
        assert_eq!(
            CommandRef::parse("INCRBY n -5").unwrap(),
            CommandRef::IncrBy {
                key: b"n",
                delta: -5
            }
        );
        assert_eq!(
            CommandRef::parse("APPEND k tail text").unwrap(),
            CommandRef::Append {
                key: b"k",
                value: b"tail text"
            }
        );
        assert_eq!(
            CommandRef::parse("PEXPIRE k 1500").unwrap(),
            CommandRef::PExpire {
                key: b"k",
                ms: 1500
            }
        );
        assert_eq!(
            CommandRef::parse("PTTL k").unwrap(),
            CommandRef::PTtl { key: b"k" }
        );
        assert_eq!(
            CommandRef::parse("PERSIST k").unwrap(),
            CommandRef::Persist { key: b"k" }
        );
        assert!(CommandRef::parse("INCRBY n lots").is_err());
        assert!(CommandRef::parse("PEXPIRE k").is_err());
    }

    #[test]
    fn execute_new_commands() {
        let sma = Sma::standalone(64);
        let store = Store::new(&sma, "kv", Priority::default());
        assert_eq!(
            CommandRef::parse("INCR hits").unwrap().execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("INCRBY hits 9").unwrap().execute(&store),
            Response::Int(10)
        );
        assert_eq!(
            CommandRef::parse("APPEND log a").unwrap().execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("PTTL log").unwrap().execute(&store),
            Response::Int(-1)
        );
        assert_eq!(
            CommandRef::parse("PEXPIRE log 60000")
                .unwrap()
                .execute(&store),
            Response::Int(1)
        );
        match CommandRef::parse("PTTL log").unwrap().execute(&store) {
            Response::Int(ms) => assert!((0..=60_000).contains(&ms)),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            CommandRef::parse("PERSIST log").unwrap().execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("PTTL missing").unwrap().execute(&store),
            Response::Int(-2)
        );
    }

    #[test]
    fn setnx_and_mget_protocol() {
        let sma = Sma::standalone(64);
        let store = Store::new(&sma, "kv", Priority::default());
        assert_eq!(
            CommandRef::parse("SETNX lock holder-1")
                .unwrap()
                .execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("SETNX lock holder-2")
                .unwrap()
                .execute(&store),
            Response::Int(0)
        );
        store.set(b"a", b"1").unwrap();
        assert_eq!(
            CommandRef::parse("MGET a nope lock")
                .unwrap()
                .execute(&store),
            Response::Array(vec![b"1".to_vec(), b"(nil)".to_vec(), b"holder-1".to_vec()])
        );
        assert!(CommandRef::parse("MGET").is_err());
        assert!(CommandRef::parse("SETNX k").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(CommandRef::parse("").is_err());
        assert!(CommandRef::parse("SET k").is_err());
        assert!(CommandRef::parse("GET").is_err());
        assert!(CommandRef::parse("SHED lots").is_err());
        assert!(CommandRef::parse("BANANA").is_err());
    }

    #[test]
    fn framing_finds_lines_and_strips_cr() {
        assert_eq!(next_frame(b""), None);
        assert_eq!(next_frame(b"GET k"), None, "no terminator yet");
        assert_eq!(next_frame(b"GET k\n"), Some((&b"GET k"[..], 6)));
        assert_eq!(next_frame(b"GET k\r\nrest"), Some((&b"GET k"[..], 7)));
        assert_eq!(next_frame(b"\n"), Some((&b""[..], 1)), "empty line");
        // Consuming repeatedly walks a pipelined buffer.
        let mut buf: &[u8] = b"PING\nGET a\r\nSET b 1\n";
        let mut frames = Vec::new();
        while let Some((frame, used)) = next_frame(buf) {
            frames.push(frame.to_vec());
            buf = &buf[used..];
        }
        assert_eq!(
            frames,
            vec![b"PING".to_vec(), b"GET a".to_vec(), b"SET b 1".to_vec()]
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn routing_key_of_matches_full_parse() {
        // The fast-path extractor must agree with the real parser on
        // every frame: same Some/None shape, same key bytes.
        let corpus: &[&str] = &[
            "PING",
            "SET k v",
            "set k v with spaces",
            "SET k",
            "GET k",
            "get spaced key name",
            "GET ",
            "DEL k",
            "EXISTS k",
            "DBSIZE",
            "FLUSHALL",
            "KEYS pre",
            "KEYS",
            "INFO",
            "SHED 4096",
            "SHED",
            "INCR counter with spaces",
            "INCRBY n 5",
            "INCRBY n",
            "APPEND k tail text",
            "PEXPIRE k 100",
            "PTTL k",
            "PERSIST spaced key",
            "SETNX lock holder",
            "MGET a b c",
            "MGET",
            "STATS",
            "SHUTDOWN",
            "BANANA k",
            "",
            "   ",
            "GET\r",
        ];
        for line in corpus {
            let fast = routing_key_of(line.as_bytes()).map(|k| k.to_vec());
            match CommandRef::parse(line) {
                // Parse succeeded: the fast path must agree exactly.
                Ok(cmd) => {
                    let parsed = cmd.routing_key().map(|k| k.to_vec());
                    assert_eq!(fast, parsed, "disagreement on {line:?}");
                }
                // Parse failed: any answer routes deterministically;
                // just require the extractor not to panic (already
                // exercised above) and, for non-single-key shapes, to
                // stay None.
                Err(_) => {
                    if let Some(key) = &fast {
                        assert!(!key.is_empty(), "empty key routed on {line:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn command_ref_parse_borrows_from_the_line() {
        let line = "SET user:1 alice in wonderland".to_string();
        assert_eq!(
            CommandRef::parse(&line).unwrap(),
            CommandRef::Set {
                key: b"user:1",
                value: b"alice in wonderland"
            }
        );
        // Routing key of a multi-key command is None.
        assert_eq!(CommandRef::parse("MGET a b").unwrap().routing_key(), None);
        assert_eq!(
            CommandRef::parse("GET spaced key").unwrap().routing_key(),
            Some(&b"spaced key"[..])
        );
    }

    /// The reply as it goes on the wire.
    fn wire(resp: &Response) -> Vec<u8> {
        let mut raw = Vec::new();
        resp.encode_into(&mut raw);
        raw
    }

    fn every_reply_shape() -> [Response; 6] {
        [
            Response::Ok("OK".into()),
            Response::Bulk(None),
            Response::Bulk(Some(b"value".to_vec())),
            Response::Int(-3),
            Response::Array(vec![b"a".to_vec(), b"b".to_vec()]),
            Response::Error("boom".into()),
        ]
    }

    #[test]
    fn encode_into_writes_the_wire_format() {
        let want: [&[u8]; 6] = [
            b"+OK\n",
            b"$-1\n",
            b"$value\n",
            b":-3\n",
            b"*2\na\nb\n",
            b"-ERR boom\n",
        ];
        for (resp, want) in every_reply_shape().iter().zip(want) {
            assert_eq!(wire(resp), want, "{resp:?}");
        }
        // Binary payloads pass through untouched.
        assert_eq!(
            wire(&Response::Bulk(Some(vec![0xff, 0x00, 0x7f]))),
            [b'$', 0xff, 0x00, 0x7f, b'\n']
        );
        // Appends: one buffer carries a whole batch of replies.
        let mut batch = wire(&Response::Int(1));
        Response::Int(2).encode_into(&mut batch);
        assert_eq!(batch, b":1\n:2\n");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for resp in every_reply_shape() {
            let text = String::from_utf8(wire(&resp)).unwrap();
            assert_eq!(Response::decode(&text).unwrap(), resp);
        }
    }

    #[test]
    fn execute_against_store() {
        let sma = Sma::standalone(256);
        let store = Store::new(&sma, "kv", Priority::default());
        assert_eq!(
            CommandRef::parse("SET a 1").unwrap().execute(&store),
            Response::Ok("OK".into())
        );
        assert_eq!(
            CommandRef::parse("GET a").unwrap().execute(&store),
            Response::Bulk(Some(b"1".to_vec()))
        );
        assert_eq!(
            CommandRef::parse("GET b").unwrap().execute(&store),
            Response::Bulk(None)
        );
        assert_eq!(
            CommandRef::parse("EXISTS a").unwrap().execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("DEL a").unwrap().execute(&store),
            Response::Int(1)
        );
        assert_eq!(
            CommandRef::parse("DBSIZE").unwrap().execute(&store),
            Response::Int(0)
        );
        if let Response::Bulk(Some(info)) = CommandRef::Info.execute(&store) {
            let text = String::from_utf8(info).unwrap();
            assert!(text.contains("keys:0"), "{text}");
            assert!(text.contains("hits:1"), "{text}");
        } else {
            panic!("INFO must return bulk");
        }
    }

    #[test]
    fn stats_returns_json_snapshot() {
        let sma = Sma::standalone(64);
        let store = Store::new(&sma, "kv", Priority::default());
        store.set(b"a", b"1").unwrap();
        store.get(b"a");
        assert_eq!(CommandRef::parse("stats").unwrap(), CommandRef::Stats);
        let reply = CommandRef::Stats.execute(&store);
        let Response::Bulk(Some(json)) = reply else {
            panic!("STATS must return bulk, got {reply:?}");
        };
        let text = String::from_utf8(json).unwrap();
        assert!(text.starts_with("{\"kv\":{"), "{text}");
        assert!(!text.contains('\n'), "STATS must be one line: {text}");
        assert!(text.contains("\"hits\":"), "{text}");
        assert!(text.contains("\"op_ns\":"), "{text}");
        assert!(text.contains("\"hits\":1"), "{text}");
        assert!(text.contains("\"keys\":1"), "{text}");
        // The reply survives an encode/decode round trip intact.
        let text = String::from_utf8(wire(&CommandRef::Stats.execute(&store))).unwrap();
        let decoded = Response::decode(&text).unwrap();
        let Response::Bulk(Some(raw)) = decoded else {
            panic!("decode changed shape");
        };
        assert!(String::from_utf8(raw).unwrap().starts_with("{\"kv\":{"));
    }
}
