//! Open-loop HTTP/1.1 load over a small pool of persistent connections.
//!
//! Every request has a due time on a fixed schedule. When it is due, one
//! thread writes it on the pool's connection with the fewest requests in
//! flight (ties go to the one that answered last, never to a connection
//! that has not answered yet; pipelining up to a cap), as a
//! connection-pool client does, and
//! times it from the due time, not from the write: a stalled reply delays
//! every request queued behind it, and that wait is part of their latency.
//! How late the writes themselves ran is recorded separately, so a
//! generator that cannot keep up is visible instead of silently turning
//! the loop into a closed one.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// When the request is due, from the run's origin.
    pub due: Duration,
    /// Request path (`/run/table4?seed=7&scale=smoke`).
    pub path: String,
}

/// What happened to one scheduled request (same index as the schedule).
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// When the request was written, ns from the origin (0 if never sent).
    pub sent_ns: u64,
    /// When its reply was complete, ns from the origin (0 if none).
    pub done_ns: u64,
    /// Status 200 and the body passed the caller's check.
    pub ok: bool,
}

/// Limits of the generator.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Persistent connections in the pool.
    pub connections: usize,
    /// Requests written but not yet answered, per connection, at most.
    pub max_in_flight: usize,
    /// Requests per connection before the generator reconnects. The
    /// server closes a connection after its own cap; staying at or below
    /// it means no pipelined request is ever lost to that close.
    pub max_per_conn: usize,
    /// A connection that delivers no byte for this long while requests
    /// are in flight is abandoned and its requests count as failed.
    pub stall_timeout: Duration,
}

/// A parsed response head plus its body range in the carry buffer.
struct Framed {
    status: u16,
    close: bool,
    body_start: usize,
    end: usize,
}

/// Parses one complete response from the front of `buf`, if there is one.
fn frame(buf: &[u8]) -> io::Result<Option<Framed>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(Framed {
        status,
        close,
        body_start,
        end: body_start + length,
    }))
}

/// Waits until one of `streams` has bytes to read or `timeout` passes
/// (with no streams, just waits); returns which are readable. `ppoll`
/// waits with nanosecond resolution, where a socket read timeout would
/// round to the kernel's tick. Linux only, like the benchmark.
fn wait_readable(streams: &[&TcpStream], timeout: Duration) -> Vec<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised entries laid out as the C
    // `struct pollfd`, and `ts` as `struct timespec` on 64-bit Linux; both
    // outlive the call. A null sigmask leaves the signal mask unchanged.
    // ppoll writes only the entries' `revents`.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    fds.iter().map(|f| n > 0 && f.revents != 0).collect()
}

/// One pooled connection.
struct Lane {
    stream: TcpStream,
    carry: Vec<u8>,
    in_flight: VecDeque<usize>,
    sent: usize,
    /// Takes no new requests: it reached its request cap or the server
    /// said it will close. It is replaced once its replies are in.
    retiring: bool,
    /// Last time a byte arrived (or a request went out on an idle lane);
    /// drives the stall timeout.
    last_progress: Instant,
    /// When the last reply completed; `None` until the first one. Ties
    /// between lanes go to the one that answered last, and never to a new
    /// connection that the server may not have accepted yet.
    answered: Option<Instant>,
}

impl Lane {
    fn open(addr: &str) -> io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Lane {
            stream,
            carry: Vec::with_capacity(1 << 16),
            in_flight: VecDeque::new(),
            sent: 0,
            retiring: false,
            last_progress: Instant::now(),
            answered: None,
        })
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives `schedule` (ascending due times) from `origin` over a pool of
/// keep-alive connections to `addr`, and returns one [`Outcome`] per
/// request. `check` judges each 200 body against the bytes expected for
/// that request. A failed request is recorded and the run goes on: a
/// dropped or stalled connection fails its in-flight requests and is
/// replaced.
pub fn drive<F>(
    addr: &str,
    origin: Instant,
    schedule: &[Request],
    limits: Limits,
    check: F,
) -> io::Result<Vec<Outcome>>
where
    F: Fn(usize, &[u8]) -> bool,
{
    let mut out = vec![Outcome::default(); schedule.len()];
    let mut lanes = (0..limits.connections.max(1))
        .map(|_| Lane::open(addr))
        .collect::<io::Result<Vec<Lane>>>()?;
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    loop {
        // Replace connections that are done.
        for lane in &mut lanes {
            if lane.retiring && lane.in_flight.is_empty() {
                *lane = Lane::open(addr)?;
            }
        }
        // Write every due request on the least-loaded open connection.
        while next < schedule.len() && schedule[next].due <= origin.elapsed() {
            let Some(lane) = lanes
                .iter_mut()
                .filter(|l| !l.retiring && l.in_flight.len() < limits.max_in_flight)
                .min_by_key(|l| {
                    (
                        l.in_flight.len(),
                        l.answered.map_or(Duration::MAX, |t| t.elapsed()),
                    )
                })
            else {
                break;
            };
            let request = format!(
                "GET {} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\r\n",
                schedule[next].path
            );
            if lane.stream.write_all(request.as_bytes()).is_err() {
                lane.retiring = true;
                continue;
            }
            if lane.in_flight.is_empty() {
                lane.last_progress = Instant::now();
            }
            out[next].sent_ns = nanos(origin.elapsed());
            lane.in_flight.push_back(next);
            lane.sent += 1;
            lane.retiring = lane.sent >= limits.max_per_conn;
            next += 1;
        }
        let busy: Vec<usize> = (0..lanes.len())
            .filter(|&i| !lanes[i].in_flight.is_empty())
            .collect();
        if busy.is_empty() && next == schedule.len() {
            return Ok(out);
        }
        if lanes.iter().any(|l| l.retiring && l.in_flight.is_empty()) {
            continue;
        }
        let can_send = lanes
            .iter()
            .any(|l| !l.retiring && l.in_flight.len() < limits.max_in_flight);
        let wait = match schedule.get(next) {
            Some(r) if can_send => r.due.saturating_sub(origin.elapsed()),
            _ => Duration::from_millis(20),
        };
        let streams: Vec<&TcpStream> = busy.iter().map(|&i| &lanes[i].stream).collect();
        let readable = wait_readable(&streams, wait);
        for (&i, ready) in busy.iter().zip(readable) {
            let lane = &mut lanes[i];
            let mut lost = false;
            if ready {
                match lane.stream.read(&mut chunk) {
                    Ok(0) | Err(_) => lost = true,
                    Ok(n) => {
                        lane.carry.extend_from_slice(&chunk[..n]);
                        lane.last_progress = Instant::now();
                    }
                }
            }
            let mut consumed = 0;
            loop {
                match frame(&lane.carry[consumed..]) {
                    Ok(Some(f)) => {
                        let Some(j) = lane.in_flight.pop_front() else {
                            lost = true;
                            break;
                        };
                        let body = &lane.carry[consumed + f.body_start..consumed + f.end];
                        out[j].done_ns = nanos(origin.elapsed());
                        out[j].ok = f.status == 200 && check(j, body);
                        lane.answered = Some(Instant::now());
                        consumed += f.end;
                        lane.retiring |= f.close;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            lane.carry.drain(..consumed);
            if !lane.in_flight.is_empty() && lane.last_progress.elapsed() > limits.stall_timeout {
                lost = true;
            }
            if lost {
                // Whatever was in flight here is gone: the requests stay
                // failed (no reply) and the connection is replaced.
                lane.in_flight.clear();
                lane.retiring = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A server that answers every request with `ok` at once, except that
    /// it waits `stall` before answering request number `stalled` (counted
    /// across its connections).
    fn stalling_server(stalled: usize, stall: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let served = Arc::new(AtomicUsize::new(0));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    stream.set_nodelay(true).expect("nodelay");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = std::io::BufReader::new(stream);
                    loop {
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if line != "\r\n" {
                            continue;
                        }
                        if served.fetch_add(1, Ordering::SeqCst) == stalled {
                            std::thread::sleep(stall);
                        }
                        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                        if writer.write_all(reply).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn schedule(n: usize, spacing: Duration) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                due: spacing * i as u32,
                path: format!("/r{i}"),
            })
            .collect()
    }

    fn limits(connections: usize, max_in_flight: usize) -> Limits {
        Limits {
            connections,
            max_in_flight,
            max_per_conn: 1_000,
            stall_timeout: Duration::from_secs(5),
        }
    }

    fn run(connections: usize, max_in_flight: usize) -> (Vec<Request>, Vec<Outcome>) {
        let addr = stalling_server(5, Duration::from_millis(60));
        let sched = schedule(40, Duration::from_millis(2));
        let out = drive(
            &addr,
            Instant::now(),
            &sched,
            limits(connections, max_in_flight),
            |_, body| body == b"ok",
        )
        .expect("drive");
        assert!(out.iter().all(|o| o.ok));
        (sched, out)
    }

    fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }

    #[test]
    fn framing_waits_for_whole_bodies() {
        let whole = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nokHTTP";
        let f = frame(whole).expect("valid").expect("complete");
        assert_eq!(
            (f.status, f.close, &whole[f.body_start..f.end]),
            (200, true, &b"ok"[..])
        );
        assert!(frame(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok")
            .expect("valid")
            .is_none());
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn a_stalled_reply_delays_the_requests_queued_behind_it() {
        // One connection, one request in flight, requests 2 ms apart: the
        // ones due during the 60 ms stall are written late, so timed from
        // their writes they look fast; timed from when they were due they
        // carry the wait the stall imposed on them.
        let (sched, out) = run(1, 1);
        let from_due = |i: usize| ms(out[i].done_ns - nanos(sched[i].due));
        let from_send = |i: usize| ms(out[i].done_ns - out[i].sent_ns);
        assert!(from_due(5) >= 55.0, "stalled reply: {} ms", from_due(5));
        assert!(
            from_due(6) >= 50.0,
            "queued behind the stall: {} ms",
            from_due(6)
        );
        assert!(
            from_send(6) < 20.0,
            "its own round trip: {} ms",
            from_send(6)
        );
        // Requests due ever later wait ever less, and the backlog drains.
        assert!(from_due(10) < from_due(6));
        assert!(from_due(39) < 20.0, "drained: {} ms", from_due(39));
    }

    #[test]
    fn pipelined_requests_keep_their_schedule_through_a_stall() {
        // With room to pipeline, requests due during the stall are still
        // written on time, and their latency still includes the stall.
        let (sched, out) = run(1, 64);
        let late = ms(out[6].sent_ns - nanos(sched[6].due));
        assert!(late < 20.0, "written on time: {late} ms late");
        let from_due = ms(out[6].done_ns - nanos(sched[6].due));
        assert!(from_due >= 50.0, "queued behind the stall: {from_due} ms");
    }

    #[test]
    fn a_second_connection_carries_the_load_past_a_stall() {
        // The stalled connection has a request in flight, so requests due
        // during the stall go to the other connection and stay fast.
        let (sched, out) = run(2, 64);
        let from_due = |i: usize| ms(out[i].done_ns - nanos(sched[i].due));
        let stalled = (0..sched.len()).filter(|&i| from_due(i) >= 50.0).count();
        assert_eq!(stalled, 1, "only the stalled request itself waits");
    }
}
