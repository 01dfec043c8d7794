//! The server child: this binary re-spawned with the hidden `serve`
//! sub-command. It loads the saved index, binds the real
//! `seesaw_server::Server` on an ephemeral port, prints `ready <port>`
//! and serves until its stdin closes; then it shuts down gracefully
//! and prints its `ServerStats`. Being a process of its own is what
//! makes the client's latency and the operator's memory the real ones.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use seesaw_core::{load_index, SearchService};
use seesaw_server::{Server, ServerConfig, ServerStats};

use crate::corpus::{generate_dataset, load_config};
use crate::spec::ServeShape;
use crate::Error;

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    spawned_at: Instant,
}

impl ServerChild {
    /// Spawn `exe serve …` over the index at `index_path`, built from
    /// the dataset of `scale`, and wait for its `ready` line.
    pub fn spawn(
        exe: &Path,
        scale: f64,
        index_path: &Path,
        shape: ServeShape,
    ) -> Result<Self, Error> {
        let spawned_at = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--scale")
            .arg(scale.to_string())
            .arg("--index")
            .arg(index_path)
            .arg("--workers")
            .arg(shape.workers.to_string())
            .arg("--event-loops")
            .arg(shape.event_loops.to_string())
            .arg("--queue-depth")
            .arg(shape.queue_depth.to_string())
            .arg("--max-connections")
            .arg(shape.max_connections.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let port = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("ready ")
                .and_then(|p| p.parse::<u16>().ok()),
            Err(_) => None,
        };
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Error::Child(format!(
                "server child did not report ready (said {line:?})"
            )));
        };
        Ok(Self {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            spawned_at,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// When the process was spawned: the start of a cold start.
    pub fn spawned_at(&self) -> Instant {
        self.spawned_at
    }

    /// Peak resident set (`VmHWM`) of the child, in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, Error> {
        self.status_kib("VmHWM:").map(|kib| kib * 1024)
    }

    /// Current resident set (`VmRSS`) of the child, in bytes.
    pub fn rss_bytes(&self) -> Result<u64, Error> {
        self.status_kib("VmRSS:").map(|kib| kib * 1024)
    }

    fn status_kib(&self, key: &str) -> Result<u64, Error> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .ok_or_else(|| Error::Child(format!("no {key} line in the child's status")))
    }

    /// Close the child's stdin, read the stats it prints after its
    /// graceful shutdown, and wait for it to exit.
    pub fn shutdown(mut self) -> Result<ServerStats, Error> {
        drop(self.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = self.child.wait()?;
        let fields: Vec<u64> = line
            .trim()
            .strip_prefix("stats ")
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if !status.success() || fields.len() != 4 {
            return Err(Error::Child(format!(
                "server child exited with {status} after saying {line:?}"
            )));
        }
        Ok(ServerStats {
            connections_accepted: fields[0],
            connections_rejected: fields[1],
            requests_served: fields[2],
            requests_rejected_saturated: fields[3],
        })
    }
}

impl Drop for ServerChild {
    /// A child still running here was not shut down (an error path):
    /// never leave it behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The child side: `serve --scale S --index P --workers N
/// --event-loops N --queue-depth N --max-connections N`.
pub fn serve_main(args: &[String]) -> Result<(), Error> {
    let value = |flag: &str| -> Result<&str, Error> {
        args.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| Error::Usage(format!("serve needs {flag}")))
    };
    let number = |flag: &str| -> Result<usize, Error> {
        value(flag)?
            .parse()
            .map_err(|_| Error::Usage(format!("{flag} takes a whole number")))
    };
    let scale: f64 = value("--scale")?
        .parse()
        .map_err(|_| Error::Usage("--scale takes a number".to_string()))?;
    let index_path = PathBuf::from(value("--index")?);
    let config = ServerConfig::default()
        .with_workers(number("--workers")?)
        .with_event_loops(number("--event-loops")?)
        .with_queue_depth(number("--queue-depth")?)
        .with_max_connections(number("--max-connections")?);

    let dataset = Arc::new(generate_dataset(scale));
    let index = load_index(&index_path, &load_config())
        .map_err(|e| Error::Setup(format!("load_index: {e}")))?;
    let service = Arc::new(SearchService::new(index, dataset));
    let server = Server::bind(service, "127.0.0.1:0", config)?;

    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready {}", server.local_addr().port())?;
    stdout.flush()?;

    // Serve until the parent closes our stdin (or dies, which closes it
    // too), so a child never outlives its benchmark run.
    let mut sink = String::new();
    while std::io::stdin().lock().read_line(&mut sink)? > 0 {
        sink.clear();
    }
    let stats = server.shutdown();
    writeln!(
        stdout,
        "stats {} {} {} {}",
        stats.connections_accepted,
        stats.connections_rejected,
        stats.requests_served,
        stats.requests_rejected_saturated
    )?;
    stdout.flush()?;
    Ok(())
}
