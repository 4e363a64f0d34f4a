//! The serve-open workload: a separate `xsdf serve` process with one
//! worker per core, warmed by a fixed number of requests, and one client
//! (this process) holding at most one keep-alive connection per core that
//! sends stream documents on a fixed open-loop schedule.
//!
//! Each request is timed from when it was due to be sent, so a stall
//! charges the wait it imposes on later requests too. The rate is fixed
//! well below capacity so the backlog stays flat even while the host is
//! slow; a run whose sends lag the schedule by more than [`MAX_LAG`] did
//! not offer the scheduled load and is marked invalid.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use server::http::client_roundtrip;

use crate::batch::{self, generate, nearest};
use crate::check::{score_gold, Reference, Tally};
use crate::{median_s, nproc, sys, trace, Args, Outcome, Workload, TIMED_BASE};

/// Send lag (p99) beyond which the generator is taken to have fallen
/// behind its schedule.
const MAX_LAG: Duration = Duration::from_secs(1);

/// How long a server may take to print its address or to drain and exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `xsdf serve` child process.
struct Served {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Served {
    fn start(xsdf: &Path) -> Result<Self, String> {
        let mut child = Command::new(xsdf)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xsdf.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the address line, then keeps draining so the server never
        // blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_owned());
                }
            }
        });
        let mut served = Served {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        let addr = rx
            .recv_timeout(PROCESS_TIMEOUT)
            .map_err(|_| "the server printed no address".to_string())?;
        served.addr = addr
            .parse()
            .map_err(|_| format!("bad server address {addr:?}"))?;
        Ok(served)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn get(&self, path: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let resp = client_roundtrip(&mut stream, &mut Vec::new(), "GET", path, &[], b"")
            .map_err(|e| format!("GET {path}: {e}"))?;
        String::from_utf8(resp.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
    }

    /// Drains the server through `POST /shutdown` and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = TcpStream::connect(self.addr).and_then(|mut s| {
            client_roundtrip(&mut s, &mut Vec::new(), "POST", "/shutdown", &[], b"")
        });
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if asked.is_ok() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break None,
            }
        };
        if let Some(drain) = self.stderr.take() {
            if status.is_none() {
                let _ = self.child.kill();
                let _ = self.child.wait();
            }
            let _ = drain.join();
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("the server exited with {s}")),
            None => Err("the server did not drain; killed".into()),
        }
    }
}

impl Drop for Served {
    /// A server not stopped through [`Served::stop`] (an error path) is
    /// killed and reaped.
    fn drop(&mut self) {
        if let Some(drain) = self.stderr.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = drain.join();
        }
    }
}

/// One request of the window.
struct Sent {
    /// When it was due to be sent.
    due: Instant,
    /// HTTP status, or 0 when the exchange failed.
    status: u16,
    /// From when the request was due to its response.
    latency: Duration,
    /// From when it was due to when it was sent.
    lag: Duration,
    body: Vec<u8>,
}

/// Sends `docs` on the schedule "document i is due `i / rate` seconds
/// after the start" over `conns` keep-alive connections. Bodies of the
/// first `keep` documents are kept for the output check.
fn open_loop(addr: SocketAddr, docs: &[String], rate: f64, conns: usize, keep: usize) -> Vec<Sent> {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let mut sent: Vec<(usize, Sent)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut stream: Option<TcpStream> = None;
                    let mut carry = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(xml) = docs.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag = Instant::now().saturating_duration_since(due);
                        if stream.is_none() {
                            carry.clear();
                            stream = TcpStream::connect(addr).ok();
                            if let Some(s) = &stream {
                                let _ = s.set_nodelay(true);
                            }
                        }
                        let resp = stream.as_mut().map(|s| {
                            client_roundtrip(
                                s,
                                &mut carry,
                                "POST",
                                "/disambiguate",
                                &[],
                                xml.as_bytes(),
                            )
                        });
                        let latency = Instant::now().saturating_duration_since(due);
                        let (status, body) = match resp {
                            Some(Ok(r)) => {
                                if r.close {
                                    stream = None;
                                }
                                (r.status, if i < keep { r.body } else { Vec::new() })
                            }
                            _ => {
                                stream = None;
                                (0, Vec::new())
                            }
                        };
                        out.push((
                            i,
                            Sent {
                                due,
                                status,
                                latency,
                                lag,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client connection thread panicked"))
            .collect()
    });
    sent.sort_by_key(|(i, _)| *i);
    sent.into_iter().map(|(_, s)| s).collect()
}

/// Closed-loop warm-up: every document once, over `conns` connections.
fn warm(addr: SocketAddr, docs: &[String], conns: usize) -> Result<(), String> {
    let sent = open_loop(addr, docs, f64::INFINITY, conns, 0);
    match sent.iter().filter(|s| s.status != 200).count() {
        0 => Ok(()),
        n => Err(format!("{n} warm-up request(s) failed")),
    }
}

/// Latencies in milliseconds. A request that failed or whose body did not
/// match counts as infinitely slow: it misses any latency limit.
fn latencies_ms(sent: &[Sent], good: &[bool]) -> Vec<f64> {
    sent.iter()
        .zip(good)
        .map(|(s, &good)| {
            if good {
                s.latency.as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// A number field of the server's `/metrics` object.
fn metric(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    json.find(&needle)
        .map(|at| &json[at + needle.len()..])
        .and_then(|rest| {
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

fn sheds(json: &str) -> f64 {
    [
        "rejected_queue_full",
        "rejected_draining",
        "rejected_over_capacity",
        "rejected_pressure",
    ]
    .iter()
    .map(|k| metric(json, k))
    .sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = args.plan;
    let xsdf = args.xsdf.as_deref().ok_or("serve-open needs --xsdf")?;
    let gen = semnet::mini_wordnet();
    let conns = nproc();
    let mut replay = trace::Replay::new(Instant::now(), plan.chunk as u64);
    let (_, warm_xml) = generate(gen, args.seed, 0, plan.warm_requests);

    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..plan.setups {
        let t = Instant::now();
        let s = Served::start(xsdf)?;
        warm(s.addr, &warm_xml, conns)?;
        setups.push(t.elapsed());
        if i + 1 < plan.setups {
            s.stop()?;
        } else {
            served = Some(s);
        }
    }
    let served = served.ok_or("no set-up ran")?;
    println!(
        "set-up: {} server start(s), median {:.3} s",
        setups.len(),
        median_s(&setups)
    );

    let n = (plan.rate * args.seconds).round().max(1.0) as usize;
    let (mut docs, xml) = generate(gen, args.seed, TIMED_BASE, n);
    docs.truncate(plan.sample);
    let before = served.get("/metrics")?;
    let cpu = sys::cpu_time(&served.pid())?;
    let t = Instant::now();
    let sent = open_loop(served.addr, &xml, plan.rate, conns, plan.sample);
    let window = t.elapsed();
    let cpu = sys::cpu_time(&served.pid())?.saturating_sub(cpu);
    let after = served.get("/metrics")?;
    let rss = sys::peak_rss_mb(&served.pid())?;
    served.stop()?;

    // Output check: each sampled body against the in-process
    // serialization of the serial reference result.
    let reference = Reference::new(gen, batch::config(Workload::ServeOpen));
    let mut tally = Tally::default();
    let mut good: Vec<bool> = sent.iter().map(|s| s.status == 200).collect();
    for (i, (doc, xml)) in docs.iter().zip(&xml).enumerate() {
        let want = reference.result(xml)?;
        let mut body = want.semantic_tree.to_annotated_xml();
        body.push('\n');
        tally.checked += 1;
        if sent[i].body != body.as_bytes() {
            good[i] = false;
            tally.mismatched += 1;
        }
        if !score_gold(gen, doc, &want, &mut tally.prf) {
            tally.misaligned += 1;
        }
    }
    tally.report();

    let ok = good.iter().filter(|&&g| g).count();
    let lags: Vec<f64> = sent.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect();
    let lag_p99 = nearest(&lags, 0.99);
    let behind = lag_p99 > MAX_LAG.as_secs_f64() * 1e3;
    println!(
        "window: {} request(s) at {} /s over {} connection(s) in {:.3} s; {} ok; \
         latency samples {}; send lag p99 {:.3} ms{}",
        sent.len(),
        plan.rate,
        conns,
        window.as_secs_f64(),
        ok,
        sent.len(),
        lag_p99,
        if behind {
            " (generator fell behind: invalid)"
        } else {
            ""
        }
    );

    let mut out = Outcome {
        attempted: sent.len() as u64,
        failed: (sent.len() - ok) as u64 + tally.misaligned,
        ..Outcome::default()
    };
    out.correct = out.failed == 0 && !behind && tally.passed(plan.sample.min(n));
    if !args.trace {
        out.metric("setup_s", median_s(&setups), "s");
        out.metric("docs_per_s", ok as f64 / window.as_secs_f64(), "1/s");
        out.metric(
            "cpu_ms_per_doc",
            cpu.as_secs_f64() * 1e3 / ok.max(1) as f64,
            "ms",
        );
        let latency = latencies_ms(&sent, &good);
        out.metric("latency_p50_ms", nearest(&latency, 0.50), "ms");
        out.metric("latency_p99_ms", nearest(&latency, 0.99), "ms");
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("sense_f1", tally.prf.f_value(), "ratio");
        return Ok(out);
    }

    // The traced run: the window's documents replayed in process through
    // the stage functions on an engine warmed like the server.
    let server = trace::Server {
        lag_p99_ms: lag_p99,
        queue_wait_p99_ms: metric(&after, "queue_wait_p99_ms"),
        service_p50_ms: metric(&after, "doc_p50_ms"),
        sheds: sheds(&after) - sheds(&before),
    };
    for (i, s) in sent.iter().enumerate() {
        let pos = TIMED_BASE + i as u64;
        let request = replay.record("client.request", s.due, s.due + s.latency, None, pos);
        replay.record("client.send_lag", s.due, s.due + s.lag, Some(request), pos);
    }
    let mut layers = batch::replay_resident(args, gen, &warm_xml, server, replay)?;
    layers.attempted += out.attempted;
    layers.failed += out.failed;
    layers.correct &= out.correct;
    Ok(layers)
}
