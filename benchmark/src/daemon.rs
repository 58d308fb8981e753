//! `prop serve` daemons started and stopped by the benchmark.

use crate::sys;
use crate::wire::Conn;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to drain and exit after `shutdown`.
const STOP_GRACE: Duration = Duration::from_secs(20);

/// A running daemon on an ephemeral loopback port. Dropping it kills the
/// process if it is still running; [`Daemon::stop`] shuts it down
/// gracefully.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    // Held open so the daemon's final status line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `prop serve --addr 127.0.0.1:0 <args>` and waits until it
    /// reports the address it bound.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start or exits before listening.
    pub fn start(prop: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(prop)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "prop serve did not start: {line:?}"
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// A new connection to the daemon.
    ///
    /// # Errors
    ///
    /// Fails when the daemon does not accept.
    pub fn conn(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    /// Peak resident set size so far, in KiB.
    pub fn hwm_kb(&self) -> Option<u64> {
        sys::vm_hwm_kb(self.child.id())
    }

    /// CPU time used so far.
    pub fn cpu(&self) -> Option<Duration> {
        sys::cpu_time(self.child.id())
    }

    /// Sends `shutdown`, waits for the drain, and reaps the process.
    ///
    /// # Errors
    ///
    /// Fails when the daemon refuses, or has to be killed after
    /// [`STOP_GRACE`].
    pub fn stop(mut self) -> io::Result<()> {
        let reply = self.conn().and_then(|mut c| c.request("shutdown"));
        let deadline = Instant::now() + STOP_GRACE;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("daemon did not stop after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        reply.map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
