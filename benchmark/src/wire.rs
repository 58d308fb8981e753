//! A client for the daemon's line protocol (DESIGN.md §11), written
//! against the documented wire format rather than the daemon's library.

use crate::json::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Longest wait for one response: a lost answer fails its operation
/// instead of stalling the run.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Percent-encodes bytes into the wire's value alphabet: `[A-Za-z0-9._~-]`
/// pass through, everything else becomes `%XX`.
pub fn percent_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        if b.is_ascii_alphanumeric() || b"._~-".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// One connection to a daemon: requests and responses are single lines.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be made.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line; `line` must end in `\n`.
    ///
    /// # Errors
    ///
    /// Fails when the write fails.
    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.writer.write_all(line)
    }

    /// Reads one response line as JSON.
    ///
    /// # Errors
    ///
    /// Fails on EOF, I/O errors and lines that are not JSON.
    pub fn recv(&mut self) -> io::Result<Json> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        json::parse(self.line.trim_end()).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {:?}", self.line))
        })
    }

    /// Sends `line` (without its `\n`) and reads the response.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`] and [`Conn::recv`].
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        self.send(format!("{line}\n").as_bytes())?;
        self.recv()
    }

    /// Stores the `.hgb` snapshot at `path` in the daemon's circuit store
    /// under `circuit`, sent inline.
    ///
    /// # Errors
    ///
    /// An unreadable file, a connection error or a refusal.
    pub fn upload_hgb(&mut self, circuit: &str, path: &Path) -> Result<(), String> {
        let snapshot = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = format!(
            "upload circuit={circuit} fmt=hgb payload={}",
            percent_encode(&snapshot)
        );
        let reply = self.request(&line).map_err(|e| e.to_string())?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("upload refused: {}", reply.render()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_encoding_keeps_only_the_unreserved_set() {
        assert_eq!(percent_encode(b"8 3\n1 2%"), "8%203%0A1%202%25");
        assert_eq!(percent_encode(b"a.b_c~d-E9"), "a.b_c~d-E9");
        assert_eq!(percent_encode(&[0, 255]), "%00%FF");
    }
}
