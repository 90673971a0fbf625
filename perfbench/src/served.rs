//! The `rlcheck serve` daemon and its closed-loop clients.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use relative_liveness::json::{self, Json, ObjBuilder};
use rl_obs::HistogramSnapshot;

use crate::cases::Verdicts;
use crate::inproc::verify_report;
use crate::shuffle;

/// One inline check a client submits.
pub struct Job {
    pub name: String,
    pub system: String,
    pub formula: String,
    pub expect: Verdicts,
}

/// A running daemon; dropping it kills the process if it is still alive.
pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
}

impl Daemon {
    /// Starts `rlcheck serve --socket <sock> --jobs 2`, otherwise on its
    /// defaults.
    pub fn spawn(rlcheck: &Path, sock: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let child = Command::new(rlcheck)
            .arg("serve")
            .arg("--socket")
            .arg(sock)
            .args(["--jobs", "2"])
            .env_remove("RL_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", rlcheck.display()))?;
        Ok(Daemon {
            child: Some(child),
            sock: sock.to_path_buf(),
        })
    }

    /// Opens a connection, polling until the daemon listens.
    pub fn connect(&mut self) -> Result<Client, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) if start.elapsed() > Duration::from_secs(20) => {
                    return Err(format!("daemon never listened: {e}"))
                }
                Err(_) => {
                    if let Some(status) = self.child.as_mut().and_then(|c| c.try_wait().ok()?) {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        let reply = c.call(&ObjBuilder::new().field("cmd", "shutdown").build())?;
        drop(c);
        let mut child = self.child.take().ok_or("daemon already gone")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain in time".into());
                }
            }
        }
        let _ = std::fs::remove_file(&self.sock);
        match reply.get("ok") {
            Some(Json::Bool(true)) => Ok(()),
            _ => Err(format!("shutdown refused: {reply:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// One persistent connection speaking line-delimited JSON.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        let mut line = json::to_string(request).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => json::parse(&reply).map_err(|e| e.to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Submits `job` inline, waits for its result and checks it. Returns
    /// the submit→ack time in milliseconds.
    pub fn run(&mut self, job: &Job) -> Result<f64, String> {
        let submit = ObjBuilder::new()
            .field("cmd", "submit")
            .field("name", job.name.as_str())
            .field("system", job.system.as_str())
            .field("formula", job.formula.as_str())
            .build();
        let start = Instant::now();
        let ack = self.call(&submit)?;
        let ack_ms = start.elapsed().as_secs_f64() * 1e3;
        let id = match (ack.get("ok"), ack.get("id")) {
            (Some(Json::Bool(true)), Some(Json::Int(id))) => *id,
            _ => return Err(format!("submit not accepted: {ack:?}")),
        };
        let wait = ObjBuilder::new()
            .field("cmd", "wait")
            .field("id", id)
            .build();
        let reply = self.call(&wait)?;
        let code = match (reply.get("ok"), reply.get("code")) {
            (Some(Json::Bool(true)), Some(Json::Int(code))) => *code as u8,
            _ => return Err(format!("wait failed: {reply:?}")),
        };
        let out = match reply.get("output") {
            Some(Json::Str(s)) => s.as_str(),
            _ => "",
        };
        verify_report(code, out, &job.expect).map_err(|e| format!("{}: {e}", job.name))?;
        Ok(ack_ms)
    }

    /// The daemon's histograms, from the `metrics` verb's JSONL form.
    pub fn histograms(&mut self) -> Result<Vec<(String, HistogramSnapshot)>, String> {
        use relative_liveness::json::FromJson;
        let reply = self.call(
            &ObjBuilder::new()
                .field("cmd", "metrics")
                .field("format", "jsonl")
                .build(),
        )?;
        let Some(Json::Str(body)) = reply.get("body") else {
            return Err(format!("metrics reply without body: {reply:?}"));
        };
        let mut out = Vec::new();
        for line in body.lines().filter(|l| !l.trim().is_empty()) {
            let v = json::parse(line).map_err(|e| e.to_string())?;
            if let Some(Json::Str(name)) = v.get("name") {
                let snap = HistogramSnapshot::from_json(&v).map_err(|e| e.to_string())?;
                out.push((name.clone(), snap));
            }
        }
        Ok(out)
    }

    /// One counter of the `metrics` verb's Prometheus exposition.
    pub fn counter(&mut self, prom_name: &str) -> Result<f64, String> {
        let reply = self.call(&ObjBuilder::new().field("cmd", "metrics").build())?;
        let Some(Json::Str(body)) = reply.get("body") else {
            return Err(format!("metrics reply without body: {reply:?}"));
        };
        body.lines()
            .find_map(|l| {
                l.strip_prefix(prom_name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse()
                    .ok()
            })
            .ok_or_else(|| format!("no counter {prom_name} in the exposition"))
    }

    /// Jobs completed so far, from the `stats` verb.
    pub fn completed(&mut self) -> Result<f64, String> {
        let reply = self.call(&ObjBuilder::new().field("cmd", "stats").build())?;
        match reply.get("completed") {
            Some(Json::Int(n)) => Ok(*n as f64),
            _ => Err(format!("stats without `completed`: {reply:?}")),
        }
    }
}

/// One operation as a client saw it.
pub struct Sample {
    pub job: usize,
    pub ack_ms: f64,
    pub failure: Option<String>,
}

/// Drives every client in its own thread through one shuffled round of the
/// mix, each sending the next job only after the previous reply (a closed
/// loop).
pub fn closed_loop(clients: &mut [Client], jobs: &[Job], mix: &[usize], seed: u64) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + c as u64));
                    let mut order = mix.to_vec();
                    shuffle(&mut order, &mut rng);
                    order
                        .into_iter()
                        .map(|job| match client.run(&jobs[job]) {
                            Ok(ack_ms) => Sample {
                                job,
                                ack_ms,
                                failure: None,
                            },
                            Err(e) => Sample {
                                job,
                                ack_ms: f64::INFINITY,
                                failure: Some(e),
                            },
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The daemon-side layer numbers over one phase: queue wait and job wall
/// percentiles from the service histograms, and op-cache hits per job.
pub struct DaemonView {
    hists: Vec<(String, HistogramSnapshot)>,
    cache_hits: f64,
    completed: f64,
}

impl DaemonView {
    pub fn take(client: &mut Client) -> Result<DaemonView, String> {
        Ok(DaemonView {
            hists: client.histograms()?,
            cache_hits: client.counter("rl_opcache_hits_total")?,
            completed: client.completed()?,
        })
    }

    fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// `(queue_wait_us_p50, queue_wait_us_p90, job_wall_us_p50,
    /// cache_hits_per_job)` for the jobs run between `self` and `later`.
    pub fn delta(&self, later: &DaemonView) -> Result<[f64; 4], String> {
        let window = |name: &str| -> Result<HistogramSnapshot, String> {
            let newer = later.hist(name).ok_or(format!("no histogram {name}"))?;
            Ok(match self.hist(name) {
                Some(older) => older.delta_to(newer).unwrap_or_else(|| newer.clone()),
                None => newer.clone(),
            })
        };
        let queue = window("serve/queue_wait_us")?;
        let wall = window("serve/job_wall_us")?;
        let jobs = (later.completed - self.completed).max(1.0);
        let quantile = |h: &HistogramSnapshot, q: f64| -> Result<f64, String> {
            h.quantile(q)
                .map(|v| v as f64)
                .ok_or_else(|| "empty daemon histogram".to_owned())
        };
        Ok([
            quantile(&queue, 0.5)?,
            quantile(&queue, 0.9)?,
            quantile(&wall, 0.5)?,
            (later.cache_hits - self.cache_hits) / jobs,
        ])
    }
}
