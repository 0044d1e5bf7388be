//! A blocking TCP client for the line protocol — what `kv_cli` and the
//! tests speak to a `ReactorFrontend` or a `kv_server` process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use crate::protocol::Response;

/// A blocking TCP client for the line protocol.
pub struct TcpKvClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpKvClient {
    /// Connects to a server (a `ReactorFrontend` or `kv_server`).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(TcpKvClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one line, reads one reply (INFO and arrays read
    /// additional lines as indicated by the reply header).
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        // One write per request (line + terminator): with Nagle off
        // this is one packet, one reply.
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer.write_all(msg.as_bytes())?;
        self.read_reply()
    }

    /// Sends every non-empty line in one write, then reads the replies
    /// in order — the pipelining mode `kv_cli --pipeline` uses to
    /// amortize round trips. Empty lines are skipped (the server never
    /// answers them), so replies match the returned vector exactly.
    pub fn request_pipeline<S: AsRef<str>>(
        &mut self,
        lines: &[S],
    ) -> std::io::Result<Vec<Response>> {
        let mut batch = String::new();
        let mut expected = 0usize;
        for line in lines {
            let line = line.as_ref();
            if line.trim().is_empty() {
                continue;
            }
            batch.push_str(line);
            batch.push('\n');
            expected += 1;
        }
        if expected == 0 {
            return Ok(Vec::new());
        }
        self.writer.write_all(batch.as_bytes())?;
        (0..expected).map(|_| self.read_reply()).collect()
    }

    /// Reads one complete reply frame (header line plus any array
    /// elements it announces).
    fn read_reply(&mut self) -> std::io::Result<Response> {
        let mut first = String::new();
        self.reader.read_line(&mut first)?;
        let mut text = first.clone();
        if let Some(rest) = first.strip_prefix('*') {
            let n: usize = rest.trim().parse().unwrap_or(0);
            for _ in 0..n {
                let mut item = String::new();
                self.reader.read_line(&mut item)?;
                text.push_str(&item);
            }
        }
        Response::decode(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorFrontend};
    use crate::ShardedStore;
    use softmem_core::{Priority, Sma};
    use std::sync::Arc;

    #[test]
    fn pipeline_skips_empty_lines_and_reads_multi_line_replies() {
        let sma = Sma::standalone(512);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::default(), 2));
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, ReactorConfig::default()).unwrap();
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        // The server never answers an empty line, so the client must
        // not wait for one: four replies for five lines. Each line
        // here touches one key: across shards only the reply order of
        // a pipeline is guaranteed, not the execution order, so a
        // merged verb (DBSIZE, KEYS) may not ride with the SETs it
        // counts.
        let replies = client
            .request_pipeline(&["SET a 1", "SET b 2", "", "GET a", "GET b"])
            .unwrap();
        assert_eq!(
            replies,
            vec![
                Response::Ok("OK".into()),
                Response::Ok("OK".into()),
                Response::Bulk(Some(b"1".to_vec())),
                Response::Bulk(Some(b"2".to_vec())),
            ]
        );
        assert!(client.request_pipeline(&["", "  "]).unwrap().is_empty());
        // Both SETs are answered, so the merged verbs now see them. An
        // array reply announces its own length; the next reply on the
        // same connection still lines up behind it.
        assert_eq!(
            client.request_pipeline(&["KEYS ", "DBSIZE"]).unwrap(),
            vec![
                Response::Array(vec![b"a".to_vec(), b"b".to_vec()]),
                Response::Int(2),
            ]
        );
        assert_eq!(client.request("PING").unwrap(), Response::Ok("PONG".into()));
    }
}
