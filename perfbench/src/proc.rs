//! Child processes of the program under test: one-shot `repro` commands and
//! `repro serve` servers. Every child is reaped with `wait4`, which also
//! returns the child's peak resident set size.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mp_serve::prelude::*;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Peak resident set size in MB.
    pub peak_rss_mb: f64,
}

/// Block until `child` ends and reap it.
pub fn reap(child: &mut Child) -> std::io::Result<Exit> {
    let mut status = 0i32;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss_kb: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects; the pid is our own unreaped child.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit { code, peak_rss_mb: usage.maxrss_kb as f64 / 1024.0 })
}

/// Run `repro <args>` to completion: exit, wall seconds and stdout.
pub fn run_repro(repro: &Path, args: &[&str]) -> Result<(Exit, f64, String), String> {
    let started = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let (stderr, stderr_reader) = drain(child.stderr.take().expect("piped"));
    let mut stdout = String::new();
    let read = std::io::Read::read_to_string(&mut child.stdout.take().expect("piped"), &mut stdout);
    let exit = reap(&mut child).map_err(|e| format!("wait for repro: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    stderr_reader.join().expect("stderr reader thread");
    read.map_err(|e| format!("read repro output: {e}"))?;
    if exit.code != Some(0) {
        let stderr = stderr.lock().expect("stderr log").join("\n");
        return Err(format!("repro {} exited with {:?}: {stderr}", args.join(" "), exit.code));
    }
    Ok((exit, wall, stdout))
}

/// Collect a child's output lines on a reader thread, which ends when the
/// child closes the pipe.
fn drain(pipe: impl std::io::Read + Send + 'static) -> (Arc<Mutex<Vec<String>>>, JoinHandle<()>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            sink.lock().expect("line log").push(line);
        }
    });
    (lines, reader)
}

/// A running `repro serve`.
pub struct Server {
    child: Child,
    reaped: Option<Exit>,
    /// Where it listens.
    pub endpoint: Endpoint,
    stderr: Arc<Mutex<Vec<String>>>,
    /// The stdout and stderr reader threads, joined once the child is reaped.
    readers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn `repro serve` on an ephemeral localhost port with `extra`
    /// flags and wait for its readiness line.
    pub fn spawn(repro: &Path, extra: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--shards", "2", "--threads", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        let (stderr, stderr_reader) = drain(child.stderr.take().expect("piped"));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).map_err(|e| format!("read server: {e}"));
        let address = line
            .split("listening on tcp://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(address) = address.filter(|_| ready.is_ok()) else {
            let _ = child.kill();
            let _ = reap(&mut child);
            let _ = stderr_reader.join();
            let stderr = stderr.lock().expect("stderr log").join("\n");
            return Err(format!("server did not become ready: {line:?} {stderr}"));
        };
        // Keep the pipe drained so the server never blocks on stdout.
        let stdout_reader = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stdout.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let readers = vec![stdout_reader, stderr_reader];
        Ok(Server { child, reaped: None, endpoint: Endpoint::Tcp(address), stderr, readers })
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connect {}: {e}", self.endpoint))
    }

    /// Lines the server has written to stderr so far.
    pub fn stderr_lines(&self) -> Vec<String> {
        self.stderr.lock().expect("stderr log").clone()
    }

    /// Graceful stop through the `shutdown` verb; returns the reaped exit.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        let asked = self.connect().and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if let Err(e) = asked {
            let _ = self.child.kill();
            let _ = self.wait();
            return Err(format!("shutdown: {e}"));
        }
        let exit = self.wait()?;
        if exit.code != Some(0) {
            return Err(format!("server exited with {:?}", exit.code));
        }
        Ok(exit)
    }

    /// SIGKILL and reap.
    pub fn kill(mut self) -> Result<Exit, String> {
        self.child.kill().map_err(|e| format!("kill server: {e}"))?;
        self.wait()
    }

    fn wait(&mut self) -> Result<Exit, String> {
        if let Some(exit) = self.reaped {
            return Ok(exit);
        }
        let exit = reap(&mut self.child).map_err(|e| format!("wait for server: {e}"))?;
        self.reaped = Some(exit);
        for reader in self.readers.drain(..) {
            reader.join().map_err(|_| "server output reader panicked".to_string())?;
        }
        Ok(exit)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reaped.is_none() {
            let _ = self.child.kill();
            let _ = self.wait();
        }
    }
}

/// Poll `check` every `step` until it yields `Some` or `timeout` passes.
pub fn poll<T>(
    timeout: Duration,
    step: Duration,
    mut check: impl FnMut() -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = check() {
            return Some(value);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(step);
    }
}
