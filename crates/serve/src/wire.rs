//! The line-delimited wire protocol of the `prop-serve` daemon.
//!
//! Every request is one `\n`-terminated ASCII line: a verb followed by
//! space-separated `key=value` fields. Values that may contain arbitrary
//! bytes (the netlist payload) are percent-encoded, so the framing is
//! trivially resynchronisable: one line, one request. Every response is
//! one line of minimal JSON (see [`crate::json`]).
//!
//! ```text
//! submit engine=prop runs=4 seed=7 r1=0.45 r2=0.55 timeout_ms=0 priority=0 wait=1 ml_coarsest=120 ml_starts=8 ml_max_net=8 ml_refine_passes=1 ml_polish=1 ml_flow=0 ml_flow_corridor=3000 fmt=hgr payload=8%0A1%202%0A...
//! submit engine=ml runs=8 seed=7 circuit_id=golem4 wait=1
//! upload circuit=golem4 fmt=hgb payload=%50%52...
//! upload circuit=golem4 fmt=hgr path=%2Fdata%2Fgolem4.hgr
//! circuits
//! evict circuit=golem4
//! batch circuit_id=golem4 engines=fm,ml eps=0.45:0.55 runs=16 seed=7 chunk=2 timeout_ms=0
//! watch job=5
//! status job=3
//! wait job=3
//! cancel job=3
//! stats
//! shutdown
//! ping
//! ```
//!
//! Robustness contract (exercised by `tests/wire_adversarial.rs`): a
//! malformed line yields an error response and the connection stays
//! usable; an oversized line yields an error response and the connection
//! is dropped (the framing is lost); a premature disconnect mid-line is
//! a clean drop. Nothing on this path panics.

use prop_engines::{EngineName, Job};
use std::fmt;
use std::io::{BufRead, ErrorKind};

/// Default cap on one request line, decoded payload included. Large
/// enough for multi-million-pin netlists, small enough to bound a
/// hostile client's memory use.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Highest admissible priority (priorities are `0..=MAX_PRIORITY`,
/// higher is more urgent, FIFO within a level).
pub const MAX_PRIORITY: u8 = 3;

/// A parsed request.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter / histogram snapshot.
    Stats,
    /// Graceful shutdown: stop admitting, drain the queue, exit.
    Shutdown,
    /// Enqueue a partitioning job.
    Submit(SubmitRequest),
    /// Non-blocking job state query.
    Status {
        /// Job id.
        job: u64,
    },
    /// Block until the job reaches a terminal state.
    Wait {
        /// Job id.
        job: u64,
    },
    /// Trip the job's cancellation token.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Persist a netlist under a circuit id in the daemon's store.
    Upload(UploadRequest),
    /// List the circuits in the daemon's store.
    Circuits,
    /// Remove a circuit from the daemon's store.
    Evict {
        /// Circuit id to remove.
        circuit: String,
    },
    /// Submit a sharded sweep (coordinator mode only).
    Batch(crate::batch::BatchRequest),
    /// Stream a batch's progress events until its terminal `done` line
    /// (coordinator mode only). The one multi-line response in the
    /// protocol: each event is still one line of minimal JSON.
    Watch {
        /// Batch job id.
        job: u64,
    },
}

/// The fields of an `upload` line: exactly one netlist source (an inline
/// percent-encoded `payload` or a daemon-local `path`), persisted as a
/// `.hgb` snapshot under `circuit`.
#[derive(Clone, PartialEq, Debug)]
pub struct UploadRequest {
    /// Circuit id to store under (`[A-Za-z0-9_.-]`, no leading dot).
    pub circuit: String,
    /// Format of the inline payload: `hgr`, `netd`, or `hgb`. Ignored for
    /// `path` uploads, where the extension decides.
    pub fmt: String,
    /// Inline netlist bytes (text for `hgr`/`netd`, the binary image for
    /// `hgb`), or `None` for a `path` upload.
    pub payload: Option<Vec<u8>>,
    /// Daemon-local file to ingest instead of an inline payload — the
    /// route for circuits larger than the request cap.
    pub path: Option<String>,
}

impl UploadRequest {
    /// Renders the request as one wire line (without the trailing `\n`).
    pub fn render(&self) -> String {
        let mut line = format!("upload circuit={} fmt={}", self.circuit, self.fmt);
        if let Some(path) = &self.path {
            line.push_str(" path=");
            line.push_str(&percent_encode(path.as_bytes()));
        }
        if let Some(payload) = &self.payload {
            line.push_str(" payload=");
            line.push_str(&percent_encode(payload));
        }
        line
    }
}

/// The fields of a `submit` line: one [`Job`] plus how the daemon should
/// transport and schedule it.
#[derive(Clone, PartialEq, Debug)]
pub struct SubmitRequest {
    /// What to run: `engine=`, `runs=`, `seed=`, `r1=`/`r2=`, the `ml_*`
    /// knobs, `k=` and `budgets=`. The engine is one the daemon serves
    /// (see [`served_engine`]).
    pub job: Job,
    /// Per-job execution deadline in milliseconds; 0 disables it.
    pub timeout_ms: u64,
    /// Scheduling priority (`0..=MAX_PRIORITY`, higher first).
    pub priority: u8,
    /// Netlist format: `hgr` or `netd`.
    pub fmt: String,
    /// The decoded netlist text. Empty when the job references a stored
    /// circuit via `circuit_id` instead.
    pub payload: String,
    /// When non-empty, the job runs against this circuit from the
    /// daemon's store (uploaded once via the `upload` verb) instead of an
    /// inline payload — upload once, sweep seeds/methods/ε after.
    pub circuit_id: String,
    /// When set, the response is sent only once the job is terminal and
    /// carries the full result.
    pub wait: bool,
}

impl Default for SubmitRequest {
    fn default() -> Self {
        SubmitRequest {
            job: Job::default(),
            timeout_ms: 0,
            priority: 0,
            fmt: "hgr".into(),
            payload: String::new(),
            circuit_id: String::new(),
            wait: false,
        }
    }
}

impl SubmitRequest {
    /// Renders the request as one wire line (without the trailing `\n`).
    /// The netlist source is `circuit_id=` when one is set, the inline
    /// `payload=` otherwise.
    pub fn render(&self) -> String {
        let job = &self.job;
        let ml = &job.spec.ml;
        let source = if self.circuit_id.is_empty() {
            format!("payload={}", percent_encode(self.payload.as_bytes()))
        } else {
            format!("circuit_id={}", self.circuit_id)
        };
        let budgets = match &job.budgets {
            Some(budgets) => {
                let list: Vec<String> = budgets.iter().map(f64::to_string).collect();
                format!(" budgets={}", list.join(","))
            }
            None => String::new(),
        };
        format!(
            "submit engine={} runs={} seed={} r1={} r2={} timeout_ms={} priority={} wait={} \
             ml_coarsest={} ml_starts={} ml_max_net={} ml_refine_passes={} ml_polish={} \
             ml_flow={} ml_flow_corridor={} k={}{budgets} fmt={} {source}",
            job.spec.name,
            job.runs,
            job.seed,
            job.r1,
            job.r2,
            self.timeout_ms,
            self.priority,
            u8::from(self.wait),
            ml.coarsest_nodes,
            ml.coarsest_starts,
            ml.max_match_net,
            ml.refine_passes,
            ml.polish_passes,
            u8::from(ml.flow.enabled),
            ml.flow.corridor_nodes,
            job.k,
            self.fmt,
        )
    }
}

/// Resolves a wire engine name to a served engine: every iterative
/// engine of the registry. The one-shot global methods have no
/// multi-start runs to cancel and cannot drive k-way recursion, so they
/// are refused like unknown names.
///
/// # Errors
///
/// The `unknown_engine` message, which lists the served engines.
pub fn served_engine(name: &str) -> Result<EngineName, String> {
    match name.parse::<EngineName>() {
        Ok(engine) if engine.is_iterative() => Ok(engine),
        _ => Err(format!(
            "unknown engine {name:?} (use {})",
            EngineName::names(EngineName::is_iterative)
        )),
    }
}

/// A framing or parse failure on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The line exceeded the configured request cap; framing is lost and
    /// the connection must be dropped.
    TooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// EOF arrived mid-line: the peer disconnected before terminating its
    /// request.
    Truncated,
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The line failed to parse; the connection stays usable.
    Malformed(String),
    /// A `submit` named an engine the daemon does not serve; the
    /// connection stays usable.
    UnknownEngine(String),
}

impl WireError {
    /// The error code of the daemon's response to this failure.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::TooLarge { .. } => "too_large",
            WireError::UnknownEngine(_) => "unknown_engine",
            _ => "malformed",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooLarge { limit } => {
                write!(f, "request exceeds the {limit}-byte limit")
            }
            WireError::Truncated => write!(f, "connection closed mid-request"),
            WireError::NotUtf8 => write!(f, "request is not valid UTF-8"),
            WireError::Malformed(m) => write!(f, "malformed request: {m}"),
            WireError::UnknownEngine(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for WireError {}

/// Reads one `\n`-terminated line of at most `max_bytes` (terminator
/// excluded), without buffering past it.
///
/// Returns `Ok(None)` on a clean EOF before any byte of a new request.
///
/// # Errors
///
/// [`WireError::TooLarge`] once the cap is exceeded (the connection must
/// then be dropped — the rest of the oversized line was not consumed),
/// [`WireError::Truncated`] on EOF mid-line, and [`WireError::Malformed`]
/// on I/O errors other than interrupts.
pub fn read_request_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Malformed(format!("read failed: {e}"))),
        };
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(WireError::Truncated)
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if line.len() + nl > max_bytes {
                    return Err(WireError::TooLarge { limit: max_bytes });
                }
                line.extend_from_slice(&buf[..nl]);
                reader.consume(nl + 1);
                // Tolerate CRLF clients.
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            None => {
                let n = buf.len();
                if line.len() + n > max_bytes {
                    return Err(WireError::TooLarge { limit: max_bytes });
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Percent-encodes arbitrary bytes into the wire's value alphabet
/// (unreserved ASCII passes through; everything else becomes `%XX`).
pub fn percent_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len());
    for &b in bytes {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'~' | b'-' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes a percent-encoded value back to raw bytes (the payload of a
/// binary `.hgb` upload is not UTF-8, so no string round-trip applies).
///
/// # Errors
///
/// Fails on truncated or non-hex escapes.
pub fn percent_decode_bytes(text: &str) -> Result<Vec<u8>, WireError> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| WireError::Malformed("truncated percent escape".into()))?;
            let hex = std::str::from_utf8(hex)
                .map_err(|_| WireError::Malformed("bad percent escape".into()))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| WireError::Malformed(format!("bad percent escape %{hex}")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Ok(out)
}

/// Decodes a percent-encoded value back to a UTF-8 string.
///
/// # Errors
///
/// Fails on truncated or non-hex escapes and on non-UTF-8 decoded bytes.
pub fn percent_decode(text: &str) -> Result<String, WireError> {
    String::from_utf8(percent_decode_bytes(text)?).map_err(|_| WireError::NotUtf8)
}

/// Parses one request line (UTF-8, `\n` already stripped).
///
/// # Errors
///
/// [`WireError::Malformed`] on unknown verbs or keys, bad values, or
/// missing required fields; [`WireError::NotUtf8`] when the payload
/// decodes to non-UTF-8 bytes.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let mut tokens = line.split(' ').filter(|t| !t.is_empty());
    let verb = tokens
        .next()
        .ok_or_else(|| WireError::Malformed("empty request".into()))?;
    let fields: Vec<(&str, &str)> = tokens
        .map(|t| {
            t.split_once('=')
                .ok_or_else(|| WireError::Malformed(format!("field {t:?} is not key=value")))
        })
        .collect::<Result<_, _>>()?;

    let job_field = |fields: &[(&str, &str)]| -> Result<u64, WireError> {
        let mut job = None;
        for &(k, v) in fields {
            match k {
                "job" => {
                    job = Some(v.parse::<u64>().map_err(|_| {
                        WireError::Malformed(format!("bad value {v:?} for job"))
                    })?)
                }
                other => {
                    return Err(WireError::Malformed(format!("unknown field {other:?}")))
                }
            }
        }
        job.ok_or_else(|| WireError::Malformed("missing job=<id>".into()))
    };

    match verb {
        "ping" | "stats" | "shutdown" => {
            if let Some(&(k, _)) = fields.first() {
                return Err(WireError::Malformed(format!(
                    "{verb} takes no fields (got {k:?})"
                )));
            }
            Ok(match verb {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                _ => Request::Shutdown,
            })
        }
        "status" => Ok(Request::Status {
            job: job_field(&fields)?,
        }),
        "wait" => Ok(Request::Wait {
            job: job_field(&fields)?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: job_field(&fields)?,
        }),
        "submit" => parse_submit(&fields).map(Request::Submit),
        "batch" => crate::batch::BatchRequest::parse(&fields).map(Request::Batch),
        "watch" => Ok(Request::Watch {
            job: job_field(&fields)?,
        }),
        "upload" => parse_upload(&fields).map(Request::Upload),
        "circuits" => {
            if let Some(&(k, _)) = fields.first() {
                return Err(WireError::Malformed(format!(
                    "circuits takes no fields (got {k:?})"
                )));
            }
            Ok(Request::Circuits)
        }
        "evict" => {
            let mut circuit = None;
            for &(k, v) in &fields {
                match k {
                    "circuit" => circuit = Some(v.to_string()),
                    other => {
                        return Err(WireError::Malformed(format!("unknown field {other:?}")))
                    }
                }
            }
            Ok(Request::Evict {
                circuit: circuit
                    .ok_or_else(|| WireError::Malformed("missing circuit=<id>".into()))?,
            })
        }
        other => Err(WireError::Malformed(format!("unknown verb {other:?}"))),
    }
}

fn parse_upload(fields: &[(&str, &str)]) -> Result<UploadRequest, WireError> {
    let mut circuit = None;
    let mut fmt = "hgr".to_string();
    let mut payload = None;
    let mut path = None;
    for &(k, v) in fields {
        match k {
            "circuit" => circuit = Some(v.to_string()),
            "fmt" => {
                if v != "hgr" && v != "netd" && v != "hgb" {
                    return Err(WireError::Malformed(format!(
                        "unknown netlist format {v:?} (use hgr, netd, or hgb)"
                    )));
                }
                fmt = v.to_string();
            }
            "payload" => payload = Some(percent_decode_bytes(v)?),
            "path" => path = Some(percent_decode(v)?),
            other => return Err(WireError::Malformed(format!("unknown field {other:?}"))),
        }
    }
    let circuit =
        circuit.ok_or_else(|| WireError::Malformed("upload needs circuit=<id>".into()))?;
    if payload.is_some() == path.is_some() {
        return Err(WireError::Malformed(
            "upload needs exactly one of payload=<netlist> or path=<file>".into(),
        ));
    }
    Ok(UploadRequest {
        circuit,
        fmt,
        payload,
        path,
    })
}

fn parse_submit(fields: &[(&str, &str)]) -> Result<SubmitRequest, WireError> {
    fn val<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, WireError> {
        v.parse()
            .map_err(|_| WireError::Malformed(format!("bad value {v:?} for {key}")))
    }
    fn flag(key: &str, v: &str) -> Result<bool, WireError> {
        match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(WireError::Malformed(format!(
                "bad value {v:?} for {key} (use 0 or 1)"
            ))),
        }
    }
    let mut req = SubmitRequest::default();
    let job = &mut req.job;
    let ml = &mut job.spec.ml;
    let mut engine = EngineName::Prop.as_str();
    let mut has_payload = false;
    for &(k, v) in fields {
        match k {
            "engine" => engine = v,
            "runs" => job.runs = val(k, v)?,
            "seed" => job.seed = val(k, v)?,
            "r1" => job.r1 = val(k, v)?,
            "r2" => job.r2 = val(k, v)?,
            "timeout_ms" => req.timeout_ms = val(k, v)?,
            "priority" => {
                req.priority = val(k, v)?;
                if req.priority > MAX_PRIORITY {
                    return Err(WireError::Malformed(format!(
                        "priority {} exceeds the maximum {MAX_PRIORITY}",
                        req.priority
                    )));
                }
            }
            "wait" => req.wait = flag(k, v)?,
            "fmt" => {
                if v != "hgr" && v != "netd" {
                    return Err(WireError::Malformed(format!(
                        "unknown netlist format {v:?} (use hgr or netd)"
                    )));
                }
                req.fmt = v.to_string();
            }
            "ml_coarsest" => ml.coarsest_nodes = val(k, v)?,
            "ml_starts" => ml.coarsest_starts = val(k, v)?,
            "ml_max_net" => ml.max_match_net = val(k, v)?,
            "ml_refine_passes" => ml.refine_passes = val(k, v)?,
            "ml_polish" => ml.polish_passes = val(k, v)?,
            "ml_flow" => ml.flow.enabled = flag(k, v)?,
            "ml_flow_corridor" => ml.flow.corridor_nodes = val(k, v)?,
            "k" => job.k = val(k, v)?,
            "budgets" => {
                job.budgets = Some(
                    v.split(',')
                        .map(|b| val::<f64>(k, b.trim()))
                        .collect::<Result<Vec<f64>, WireError>>()?,
                );
            }
            "payload" => {
                req.payload = percent_decode(v)?;
                has_payload = true;
            }
            "circuit_id" => req.circuit_id = v.to_string(),
            other => return Err(WireError::Malformed(format!("unknown field {other:?}"))),
        }
    }
    if has_payload && !req.circuit_id.is_empty() {
        return Err(WireError::Malformed(
            "submit takes either payload=<netlist> or circuit_id=<id>, not both".into(),
        ));
    }
    if !has_payload && req.circuit_id.is_empty() {
        return Err(WireError::Malformed(
            "submit needs payload=<netlist> or circuit_id=<id>".into(),
        ));
    }
    // A malformed line is refused as malformed whatever its engine, so
    // the job is validated before the name is resolved. Every served
    // engine is iterative, like the default the job holds until then, so
    // validation does not depend on the name.
    req.job
        .validate()
        .map_err(|e| WireError::Malformed(e.to_string()))?;
    req.job.spec.name = served_engine(engine).map_err(WireError::UnknownEngine)?;
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_engines::EngineSpec;
    use prop_multilevel::{FlowConfig, MultilevelConfig};
    use std::io::BufReader;

    #[test]
    fn percent_roundtrip() {
        let payload = "8 7\n1 2\n% odd ~ bytes\t\r\nümlaut";
        let enc = percent_encode(payload.as_bytes());
        assert!(!enc.contains(' ') && !enc.contains('\n'));
        assert_eq!(percent_decode(&enc).unwrap(), payload);
    }

    #[test]
    fn percent_decode_rejects_bad_escapes() {
        assert!(percent_decode("%").is_err());
        assert!(percent_decode("%1").is_err());
        assert!(percent_decode("%zz").is_err());
        // Valid escape, invalid UTF-8.
        assert_eq!(percent_decode("%FF"), Err(WireError::NotUtf8));
    }

    fn ml_fm_request() -> SubmitRequest {
        SubmitRequest {
            job: Job {
                spec: EngineSpec {
                    name: EngineName::Fm,
                    ml: MultilevelConfig {
                        coarsest_nodes: 64,
                        coarsest_starts: 16,
                        max_match_net: 12,
                        refine_passes: 2,
                        polish_passes: 0,
                        flow: FlowConfig {
                            enabled: true,
                            corridor_nodes: 800,
                        },
                        ..MultilevelConfig::default()
                    },
                },
                runs: 20,
                seed: 99,
                r1: 0.4,
                r2: 0.6,
                ..Job::default()
            },
            timeout_ms: 1500,
            priority: 2,
            fmt: "hgr".into(),
            payload: "3 2\n1 2\n2 3\n".into(),
            circuit_id: String::new(),
            wait: true,
        }
    }

    #[test]
    fn submit_line_roundtrip() {
        let req = ml_fm_request();
        let parsed = parse_request(&req.render()).unwrap();
        assert_eq!(parsed, Request::Submit(req));
    }

    /// The wire text of a job is pinned byte for byte: clients built
    /// against any earlier daemon keep talking to this one.
    #[test]
    fn submit_line_text_is_pinned() {
        assert_eq!(
            ml_fm_request().render(),
            "submit engine=fm runs=20 seed=99 r1=0.4 r2=0.6 timeout_ms=1500 priority=2 wait=1 \
             ml_coarsest=64 ml_starts=16 ml_max_net=12 ml_refine_passes=2 ml_polish=0 \
             ml_flow=1 ml_flow_corridor=800 k=2 fmt=hgr payload=3%202%0A1%202%0A2%203%0A"
        );
        let stored = SubmitRequest {
            job: Job {
                k: 3,
                budgets: Some(vec![10.0, 2.5, 7.0]),
                ..Job::new(EngineName::Ml)
            },
            circuit_id: "golem3".into(),
            ..SubmitRequest::default()
        };
        assert_eq!(
            stored.render(),
            "submit engine=ml runs=1 seed=0 r1=0.45 r2=0.55 timeout_ms=0 priority=0 wait=0 \
             ml_coarsest=120 ml_starts=8 ml_max_net=8 ml_refine_passes=1 ml_polish=1 \
             ml_flow=0 ml_flow_corridor=3000 k=3 budgets=10,2.5,7 fmt=hgr circuit_id=golem3"
        );
    }

    #[test]
    fn kway_fields_roundtrip_and_validate() {
        let req = SubmitRequest {
            job: Job { k: 4, budgets: Some(vec![1200.0, 600.5, 600.5, 400.0]), ..Job::new(EngineName::Ml) },
            circuit_id: "golem3".into(),
            ..SubmitRequest::default()
        };
        let line = req.render();
        assert!(line.contains("k=4"));
        assert!(line.contains("budgets=1200,600.5,600.5,400"));
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(req));

        // Uniform k-way renders no budgets field at all.
        let req = SubmitRequest {
            job: Job { k: 8, ..Job::new(EngineName::Prop) },
            payload: "x".into(),
            ..SubmitRequest::default()
        };
        assert!(!req.render().contains("budgets="));
        assert_eq!(parse_request(&req.render()).unwrap(), Request::Submit(req));

        // Arity, positivity, and k floor are wire-level errors.
        assert!(parse_request("submit payload=a k=1").is_err());
        assert!(parse_request("submit payload=a k=3 budgets=1,2").is_err());
        assert!(parse_request("submit payload=a k=2 budgets=1,-2").is_err());
        assert!(parse_request("submit payload=a k=2 budgets=").is_err());
    }

    #[test]
    fn submit_by_circuit_id_roundtrip() {
        let req = SubmitRequest {
            job: Job { runs: 3, seed: 11, ..Job::new(EngineName::Ml) },
            circuit_id: "golem4".into(),
            wait: true,
            ..SubmitRequest::default()
        };
        let line = req.render();
        assert!(line.contains("circuit_id=golem4"));
        assert!(!line.contains("payload="), "no inline payload when stored");
        assert_eq!(parse_request(&line).unwrap(), Request::Submit(req));
        // Exactly one netlist source.
        assert!(parse_request("submit circuit_id=a payload=b").is_err());
        assert!(parse_request("submit engine=ml runs=2").is_err());
    }

    #[test]
    fn upload_roundtrips_inline_and_path() {
        let req = UploadRequest {
            circuit: "c17".into(),
            fmt: "hgb".into(),
            payload: Some(vec![0x00, 0xff, b'\n', b'%', 0x7f]),
            path: None,
        };
        assert_eq!(parse_request(&req.render()).unwrap(), Request::Upload(req));

        let req = UploadRequest {
            circuit: "big".into(),
            fmt: "hgr".into(),
            payload: None,
            path: Some("/tmp/some dir/big.hgb".into()),
        };
        assert_eq!(parse_request(&req.render()).unwrap(), Request::Upload(req));

        // Exactly one source, and a circuit id, are required.
        assert!(parse_request("upload circuit=x").is_err());
        assert!(parse_request("upload circuit=x payload=a path=b").is_err());
        assert!(parse_request("upload payload=a").is_err());
        assert!(parse_request("upload circuit=x fmt=xml payload=a").is_err());
    }

    #[test]
    fn circuits_and_evict_parse() {
        assert_eq!(parse_request("circuits").unwrap(), Request::Circuits);
        assert!(parse_request("circuits extra=1").is_err());
        assert_eq!(
            parse_request("evict circuit=golem3").unwrap(),
            Request::Evict {
                circuit: "golem3".into()
            }
        );
        assert!(parse_request("evict").is_err());
    }

    #[test]
    fn percent_decode_bytes_handles_binary() {
        let raw: Vec<u8> = (0..=255).collect();
        let enc = percent_encode(&raw);
        assert_eq!(percent_decode_bytes(&enc).unwrap(), raw);
        // The str decoder still rejects non-UTF-8.
        assert_eq!(percent_decode("%FF"), Err(WireError::NotUtf8));
    }

    #[test]
    fn ml_knobs_default_and_map_to_engine_config() {
        let ml = |line: &str| match parse_request(line).unwrap() {
            Request::Submit(req) => req.job.spec.ml,
            other => panic!("expected submit, got {other:?}"),
        };
        // A submit line without ml fields parses to the engine defaults.
        assert_eq!(ml("submit engine=ml payload=abc"), MultilevelConfig::default());

        // Explicit fields land on the matching config knobs.
        let cfg = ml("submit engine=ml ml_coarsest=50 ml_starts=3 payload=abc");
        assert_eq!(cfg.coarsest_nodes, 50);
        assert_eq!(cfg.coarsest_starts, 3);

        // ml_flow enables the corridor-flow pass; the corridor knob
        // passes through.
        let cfg = ml("submit engine=ml ml_flow=1 ml_flow_corridor=250 payload=abc");
        assert!(cfg.flow.enabled);
        assert_eq!(cfg.flow.corridor_nodes, 250);
        assert!(parse_request("submit ml_starts=x payload=abc").is_err());
        assert!(parse_request("submit ml_flow=2 payload=abc").is_err());
    }

    #[test]
    fn unknown_and_one_shot_engines_are_typed_refusals() {
        for name in ["quantum", "eig1", "window"] {
            let err = parse_request(&format!("submit engine={name} payload=abc")).unwrap_err();
            assert_eq!(err.code(), "unknown_engine", "{name}");
            assert!(err.to_string().contains("prop, prop-paper"), "{err}");
        }
        // A malformed line is malformed whatever its engine.
        let err = parse_request("submit engine=quantum runs=0 payload=abc").unwrap_err();
        assert_eq!(err.code(), "malformed");
        // Ratios follow the one job rule.
        assert!(parse_request("submit r1=0.6 r2=0.7 payload=abc").is_err());
        assert!(parse_request("submit r1=0.5 r2=0.5 payload=abc").is_ok());
    }

    #[test]
    fn removed_ml_threads_field_is_refused() {
        // Every V-cycle runs on one thread; the old worker knob is an
        // unknown field like any other.
        assert_eq!(
            parse_request("submit engine=ml ml_threads=2 payload=abc"),
            Err(WireError::Malformed("unknown field \"ml_threads\"".into()))
        );
    }

    #[test]
    fn simple_verbs_parse() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("status job=12").unwrap(),
            Request::Status { job: 12 }
        );
        assert_eq!(
            parse_request("wait job=3").unwrap(),
            Request::Wait { job: 3 }
        );
        assert_eq!(
            parse_request("cancel job=0").unwrap(),
            Request::Cancel { job: 0 }
        );
    }

    #[test]
    fn batch_and_watch_roundtrip() {
        let req = crate::batch::BatchRequest {
            circuit_id: "golem3".into(),
            engines: vec![EngineName::Fm, EngineName::Ml],
            eps: vec![(0.45, 0.55), (0.4, 0.6)],
            runs: 12,
            seed: 41,
            chunk: 2,
            timeout_ms: 2500,
        };
        assert_eq!(
            parse_request(&req.render()).unwrap(),
            Request::Batch(req.clone())
        );
        // Defaults apply when only the circuit is named.
        let parsed = parse_request("batch circuit_id=c17").unwrap();
        let Request::Batch(minimal) = parsed else {
            panic!("expected batch")
        };
        assert_eq!(minimal.engines, vec![EngineName::Prop]);
        assert_eq!(minimal.eps, vec![(0.45, 0.55)]);
        assert_eq!(minimal.runs, 1);

        assert_eq!(parse_request("watch job=9").unwrap(), Request::Watch { job: 9 });
        for bad in [
            "batch",
            "batch circuit_id=c runs=0",
            "batch circuit_id=c chunk=0",
            "batch circuit_id=c engines=sa2",
            "batch circuit_id=c eps=0.6:0.4",
            "batch circuit_id=c eps=half",
            "batch circuit_id=c frobnicate=1",
            "watch",
            "watch job=x",
            "watch circuit=c",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "frobnicate",
            "status",
            "status job=x",
            "status jib=1",
            "ping extra=1",
            "submit",
            "submit payload=abc runs=0",
            "submit payload=abc priority=9",
            "submit payload=abc wait=yes",
            "submit payload=abc fmt=xml",
            "submit payload=%GG",
            "submit key-without-value payload=a",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn bounded_line_reader() {
        let mut r = BufReader::new(&b"hello\nworld\n"[..]);
        assert_eq!(read_request_line(&mut r, 64).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_request_line(&mut r, 64).unwrap(), Some(b"world".to_vec()));
        assert_eq!(read_request_line(&mut r, 64).unwrap(), None);

        // CRLF tolerated.
        let mut r = BufReader::new(&b"ping\r\n"[..]);
        assert_eq!(read_request_line(&mut r, 64).unwrap(), Some(b"ping".to_vec()));

        // Truncated: bytes then EOF without a newline.
        let mut r = BufReader::new(&b"no newline"[..]);
        assert_eq!(read_request_line(&mut r, 64), Err(WireError::Truncated));

        // Oversized: cap excludes the terminator.
        let mut r = BufReader::new(&b"123456789\n"[..]);
        assert_eq!(
            read_request_line(&mut r, 4),
            Err(WireError::TooLarge { limit: 4 })
        );
        let mut r = BufReader::new(&b"1234\n"[..]);
        assert_eq!(read_request_line(&mut r, 4).unwrap(), Some(b"1234".to_vec()));
    }
}
