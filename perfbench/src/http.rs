//! The benchmark's own HTTP/1.1 client for `ppserved`: one request per
//! connection (the server closes after each response), either blocking or
//! driven nonblocking by the open-loop client, plus readers for the few
//! response fields and `/metrics` counters the benchmark needs.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: ppserved\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses a complete `Connection: close` response.
pub fn parse_response(raw: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some(Response {
        status,
        body: body.to_string(),
    })
}

/// One blocking request with a `timeout` on each read and write.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(&request_bytes(method, path, body))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed response"))
}

/// A request in flight on a nonblocking connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    raw: Vec<u8>,
}

impl Conn {
    /// Connects (loopback connects complete at once) and queues the request.
    pub fn open(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            out: request_bytes(method, path, body),
            written: 0,
            raw: Vec::new(),
        })
    }

    /// Makes what progress the socket allows without blocking. Returns the
    /// response once the server has closed the connection, and whether any
    /// byte moved.
    pub fn drive(&mut self) -> std::io::Result<(Option<Response>, bool)> {
        let mut moved = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok((None, moved)),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    let response = parse_response(&self.raw).ok_or_else(|| {
                        std::io::Error::new(ErrorKind::InvalidData, "malformed response")
                    })?;
                    return Ok((Some(response), true));
                }
                Ok(n) => {
                    self.raw.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok((None, moved)),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The raw token after the first `"key":` in a flat JSON text: a string's
/// contents without quotes, or a number / `true` / `false` / `null`.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = json[json.find(&pattern)? + pattern.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Every integer value of `"key":` in document order (the vertex ids of a
/// ranks response).
pub fn all_u64(json: &str, key: &str) -> Vec<u64> {
    let pattern = format!("\"{key}\":");
    json.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Samples of a Prometheus text exposition: `name{labels}` → value.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            Some((key.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Growth of every sample whose key is `name` or `name{...}` between two
/// scrapes, summed over label sets. Samples absent before count from 0.
pub fn counter_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    name: &str,
) -> f64 {
    let labelled = format!("{name}{{");
    after
        .iter()
        .filter(|(key, _)| *key == name || key.starts_with(&labelled))
        .map(|(key, v)| v - before.get(key).copied().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_close_delimited_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 9\r\n\r\n{\"id\":7}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{\"id\":7}");
        assert!(r.is_success());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_none());
    }

    #[test]
    fn reads_fields_of_a_job_record() {
        let body = "{\"id\":12,\"state\":\"done\",\"cached\":false,\"config_hash\":\"00ab\",\
                    \"result\":{\"workload\":\"bfs\",\"checksum\":\"00000000deadbeef\"},\"total_seconds\":0.0412}";
        assert_eq!(field(body, "id"), Some("12"));
        assert_eq!(field(body, "state"), Some("done"));
        assert_eq!(field(body, "cached"), Some("false"));
        assert_eq!(field(body, "checksum"), Some("00000000deadbeef"));
        assert_eq!(field(body, "total_seconds"), Some("0.0412"));
        assert_eq!(field(body, "coalesced"), None);
    }

    #[test]
    fn reads_vertex_ids_in_order() {
        let body = "{\"id\":3,\"top\":2,\"vertices\":4096,\"ranks\":[\
                    {\"vertex\":17,\"rank\":0.01,\"rank_bits\":\"3f84\"},\
                    {\"vertex\":5,\"rank\":0.009,\"rank_bits\":\"3f82\"}]}";
        assert_eq!(all_u64(body, "vertex"), vec![17, 5]);
        assert_eq!(all_u64(body, "vertices"), vec![4096]);
    }

    #[test]
    fn metrics_delta_sums_label_sets_and_skips_other_names() {
        let before = parse_metrics(
            "# TYPE ppbench_cache_hits_total counter\n\
             ppbench_cache_hits_total 10\n\
             ppbench_rejected_total{reason=\"queue_full\"} 1\n\
             ppbench_rejected_total_extra 100\n",
        );
        let after = parse_metrics(
            "ppbench_cache_hits_total 250\n\
             ppbench_rejected_total{reason=\"queue_full\"} 3\n\
             ppbench_rejected_total{reason=\"quota\"} 2\n\
             ppbench_rejected_total_extra 900\n",
        );
        assert_eq!(
            counter_delta(&before, &after, "ppbench_cache_hits_total"),
            240.0
        );
        // 2 more queue_full, 2 quota that did not exist before; the
        // similarly named counter is not summed in.
        assert_eq!(
            counter_delta(&before, &after, "ppbench_rejected_total"),
            4.0
        );
        assert_eq!(counter_delta(&before, &after, "ppbench_absent_total"), 0.0);
    }
}
