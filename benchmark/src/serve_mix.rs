//! serve-mix: seeded Poisson arrivals against one `prop serve` daemon,
//! sent by two client threads with one connection each.
//!
//! Three quarters of the jobs are one-run FM jobs on the stored p2
//! circuit (a store hit); the rest are two-run PROP jobs that carry the
//! balu circuit inline as hMETIS text (parsed per job). At 70 jobs/s the
//! two workers are about 45% busy, so queueing, the wire codec, the store
//! lookup and the text parse weigh about as much as the engines.

use crate::calibrate::Calibration;
use crate::daemon::Daemon;
use crate::json::Json;
use crate::parse::{self, JobView};
use crate::report::{metric, scaled, EndToEnd, Metric, Outcome, Sample};
use crate::schedule::{job_seed, poisson, Arrival};
use crate::stats;
use crate::wire::{percent_encode, Conn};
use crate::workload::{generate, repeated_setup, Ctx, BALU, P2};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Arrival rate in jobs per second: 15 s give the thousand samples a
/// 99th percentile needs. (A lower rate is not steadier: in runs
/// alternating between the two rates, the scaled median latency of ten
/// runs spread by 22–24% at 40 jobs/s against 7–10% at 70 jobs/s.)
pub const RATE: f64 = 70.0;
/// Distinct FM-by-id job keys. One-run FM cuts vary by about 9% between
/// seeds, so the cut metric averages many keys.
pub const FM_KEYS: usize = 96;
/// Distinct inline PROP job keys.
pub const PROP_KEYS: usize = 32;
/// Warm-up jobs of each kind in every set-up.
const WARMUP_JOBS: usize = 8;
/// Share of arrivals that are FM-by-id jobs.
pub const FM_SHARE: f64 = 0.75;
/// Latency limit for `slo_frac`, from the time a job was due.
pub const SLO_MS: f64 = 50.0;
/// A run whose generator woke up later than this is marked invalid.
pub const MAX_LATE_MS: f64 = 10.0;
/// Client threads, each with one connection.
pub const CLIENTS: usize = 2;
/// Parts the window is played in. Before each part and after the last
/// the generator pauses, the daemon drains, and the benchmark times its
/// calibration kernel; the part's latencies are scaled by the kernel
/// times before and after it. The host's speed changes within seconds:
/// kernel samples taken only before and after the whole window tracked
/// the daemon worse than no scaling. In runs alternating between the
/// settings, the scaled median latency of ten seeds spread by 12–18%
/// with six parts against 6–7% with fifteen or thirty.
pub const PARTS: usize = 30;
/// Calibration samples between parts: three on each of two CPUs.
const CALIBRATION_SAMPLES: usize = 6;

/// The job seed of every key: FM keys first, then PROP keys.
pub fn key_seeds(seed: u64) -> Vec<u64> {
    (0..(FM_KEYS + PROP_KEYS) as u64)
        .map(|k| job_seed(seed, "serve-mix", k))
        .collect()
}

/// Whether `key` is an inline PROP job.
pub fn is_inline(key: usize) -> bool {
    key >= FM_KEYS
}

/// The wire request of `key`, rendered once before timing starts.
fn request_line(key: usize, seed: u64, balu_payload: &str) -> Vec<u8> {
    if is_inline(key) {
        format!("submit engine=prop runs=2 seed={seed} wait=1 fmt=hgr payload={balu_payload}\n")
    } else {
        format!("submit engine=fm runs=1 seed={seed} wait=1 circuit_id=p2\n")
    }
    .into_bytes()
}

/// The `prop partition` job equivalent to `key`, for reference results.
fn reference_command(prop: &Path, key: usize, seed: u64, p2: &Path, balu: &Path) -> Command {
    let mut cmd = Command::new(prop);
    let (file, method, runs) = if is_inline(key) {
        (balu, "prop", "2")
    } else {
        (p2, "fm", "1")
    };
    cmd.arg("partition").arg(file).args([
        "--method",
        method,
        "--runs",
        runs,
        "--seed",
        &seed.to_string(),
    ]);
    cmd
}

/// A daemon ready for the mix: circuits generated, p2 uploaded, eight
/// jobs of each kind run.
#[derive(Debug)]
pub struct Served {
    /// The daemon.
    pub daemon: Daemon,
    /// The stored circuit's file.
    pub p2: PathBuf,
    /// The inline circuit's file.
    pub balu: PathBuf,
    /// Request line of every key.
    pub lines: Vec<Vec<u8>>,
}

/// Sets up a daemon in `dir`.
///
/// # Errors
///
/// Any failed step.
pub fn start(ctx: &Ctx, dir: &Path, seeds: &[u64]) -> Result<Served, String> {
    let p2 = generate(ctx, dir, &P2)?;
    let balu = generate(ctx, dir, &BALU)?;
    let store = dir.join("store").to_string_lossy().into_owned();
    let args: Vec<String> = [
        "--workers",
        "2",
        "--queue-cap",
        "256",
        "--store-dir",
        &store,
    ]
    .map(String::from)
    .to_vec();
    let daemon = Daemon::start(&ctx.prop, &args).map_err(|e| e.to_string())?;
    let mut conn = daemon.conn().map_err(|e| e.to_string())?;
    conn.upload_hgb("p2", &p2)?;
    let text = std::fs::read(&balu).map_err(|e| e.to_string())?;
    let payload = percent_encode(&text);
    let lines: Vec<Vec<u8>> = seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| request_line(k, s, &payload))
        .collect();
    for key in (0..WARMUP_JOBS).chain(FM_KEYS..FM_KEYS + WARMUP_JOBS) {
        conn.send(&lines[key]).map_err(|e| e.to_string())?;
        parse::job_view(&conn.recv().map_err(|e| e.to_string())?)?;
    }
    Ok(Served {
        daemon,
        p2,
        balu,
        lines,
    })
}

/// One answered (or failed) arrival.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Index into the schedule.
    pub index: usize,
    /// Which part of the window it was sent in (see [`play`]).
    pub part: usize,
    /// The key sent.
    pub key: usize,
    /// Milliseconds from when the job was due to its response.
    pub from_due_ms: f64,
    /// Milliseconds from sending the request to its response.
    pub from_send_ms: f64,
    /// How late the generator sent a request whose connection was free.
    pub late_ms: f64,
    /// The response, or the connection error.
    pub response: Result<Json, String>,
}

/// Plays `schedule` against `addr` with [`CLIENTS`] connections: each
/// client thread takes the next arrival, sleeps until it is due, sends
/// it and waits for the answer. An arrival that finds both connections
/// busy waits, and that wait counts in its latency from due.
pub fn drive(addr: &str, lines: &[Vec<u8>], schedule: &[Arrival]) -> Vec<Reply> {
    let conns: Vec<Option<Conn>> = (0..CLIENTS).map(|_| Conn::connect(addr).ok()).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = schedule.get(index) else {
                            return out;
                        };
                        let due = start + arrival.due;
                        let picked = Instant::now();
                        if picked < due {
                            std::thread::sleep(due - picked);
                        }
                        let sent = Instant::now();
                        let late = if picked < due {
                            sent - due
                        } else {
                            Duration::ZERO
                        };
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        let response = match conn.as_mut() {
                            Some(c) => c
                                .send(&lines[arrival.key])
                                .and_then(|()| c.recv())
                                .map_err(|e| e.to_string()),
                            None => Err("cannot connect".to_string()),
                        };
                        if response.is_err() {
                            conn = None;
                        }
                        let done = Instant::now();
                        out.push(Reply {
                            index,
                            part: 0,
                            key: arrival.key,
                            from_due_ms: (done - due).as_secs_f64() * 1e3,
                            from_send_ms: (done - sent).as_secs_f64() * 1e3,
                            late_ms: late.as_secs_f64() * 1e3,
                            response,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    replies.sort_by_key(|r| r.index);
    replies
}

/// Cuts a sorted `schedule` spanning `seconds` into [`PARTS`] parts of
/// equal length, each timed from its own start.
pub fn parts(schedule: &[Arrival], seconds: f64) -> Vec<Vec<Arrival>> {
    let part = seconds / PARTS as f64;
    let mut rest = schedule;
    (0..PARTS)
        .map(|p| {
            let start = Duration::from_secs_f64(part * p as f64);
            let end = Duration::from_secs_f64(part * (p + 1) as f64);
            let n = if p + 1 == PARTS {
                rest.len()
            } else {
                rest.iter().take_while(|a| a.due < end).count()
            };
            let (now, later) = rest.split_at(n);
            rest = later;
            now.iter()
                .map(|a| Arrival {
                    due: a.due.saturating_sub(start),
                    key: a.key,
                })
                .collect()
        })
        .collect()
}

/// Plays `schedule`, which spans `seconds`, as its [`parts`], each with
/// [`drive`]. `before_part` runs before each part, while the daemon is
/// idle. Each reply keeps its arrival's index in `schedule` and records
/// its part.
pub fn play(
    addr: &str,
    lines: &[Vec<u8>],
    schedule: &[Arrival],
    seconds: f64,
    mut before_part: impl FnMut(),
) -> Vec<Reply> {
    let mut replies: Vec<Reply> = Vec::with_capacity(schedule.len());
    for (p, arrivals) in parts(schedule, seconds).into_iter().enumerate() {
        before_part();
        let offset = replies.len();
        replies.extend(drive(addr, lines, &arrivals).into_iter().map(|mut r| {
            r.index += offset;
            r.part = p;
            r
        }));
    }
    replies
}

/// The `job_view` of every reply, checked against the CLI's result for
/// the same key and against earlier answers for the same key. Returns
/// the view per reply (`None` when wrong or failed).
fn check(
    out: &mut Outcome,
    replies: &[Reply],
    references: &BTreeMap<usize, f64>,
) -> Vec<Option<JobView>> {
    let mut hashes: BTreeMap<usize, String> = BTreeMap::new();
    replies
        .iter()
        .map(|r| {
            out.attempted += 1;
            let view = r.response.clone().and_then(|v| parse::job_view(&v));
            let verdict = view.and_then(|view| {
                if references.get(&r.key) != Some(&view.cut) {
                    return Err(format!(
                        "cut {} != CLI reference {:?}",
                        view.cut,
                        references.get(&r.key)
                    ));
                }
                let first = hashes
                    .entry(r.key)
                    .or_insert_with(|| view.assignment_hash.clone());
                if *first != view.assignment_hash {
                    return Err(format!(
                        "assignment {} != earlier {first}",
                        view.assignment_hash
                    ));
                }
                Ok(view)
            });
            verdict
                .map_err(|e| out.fail(format!("arrival {} key {}: {e}", r.index, r.key)))
                .ok()
        })
        .collect()
}

/// Cut of every key's reference `prop partition` job.
fn references(
    ctx: &Ctx,
    served: &Served,
    seeds: &[u64],
    keys: impl Iterator<Item = usize>,
    out: &mut Outcome,
) -> BTreeMap<usize, f64> {
    let mut refs = BTreeMap::new();
    for key in keys {
        let cmd = &mut reference_command(&ctx.prop, key, seeds[key], &served.p2, &served.balu);
        match crate::sys::run(cmd)
            .map_err(|e| e.to_string())
            .and_then(|f| parse::cli_result(&f.stdout))
        {
            Ok(r) => {
                refs.insert(key, r.cut);
            }
            Err(e) => out.error(format!("reference for key {key}: {e}")),
        }
    }
    refs
}

/// Runs serve-mix.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seeds = key_seeds(ctx.seed);
    let (served, setup_s) = repeated_setup(
        ctx,
        |dir| start(ctx, dir, &seeds),
        |s: Served| s.daemon.stop().map_err(|e| e.to_string()),
    )?;
    let schedule = poisson(ctx.seed, RATE, ctx.seconds, FM_SHARE, FM_KEYS, PROP_KEYS);
    // Calibrate between the parts, never inside one: the kernel would
    // compete with the daemon for the two CPUs.
    let mut calibration = Calibration::default();
    let mut part_marks = Vec::new();
    let cpu_before = served.daemon.cpu();
    let replies = play(
        &served.daemon.addr,
        &served.lines,
        &schedule,
        ctx.seconds,
        || part_marks.push(calibration.mark(CALIBRATION_SAMPLES)),
    );
    let cpu = served.daemon.cpu().zip(cpu_before).map(|(a, b)| a - b);
    calibration.mark(CALIBRATION_SAMPLES);
    let stats_reply = served.daemon.conn().and_then(|mut c| c.request("stats"));
    let hwm_kb = served.daemon.hwm_kb();

    let mut out = Outcome::default();
    let used: std::collections::BTreeSet<usize> = replies.iter().map(|r| r.key).collect();
    let refs = references(ctx, &served, &seeds, used.into_iter(), &mut out);
    served.daemon.stop().map_err(|e| e.to_string())?;
    let views = check(&mut out, &replies, &refs);

    let n = replies.len();
    let latency: Vec<f64> = replies
        .iter()
        .zip(&views)
        .map(|(r, v)| {
            if v.is_some() {
                r.from_due_ms
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let cuts: BTreeMap<usize, f64> = replies
        .iter()
        .zip(&views)
        .filter_map(|(r, v)| Some((r.key, v.as_ref()?.cut)))
        .collect();
    let cut_values: Vec<f64> = cuts.values().copied().collect();
    let e2e = EndToEnd {
        setup_s,
        latency_ms: scaled(
            replies
                .iter()
                .zip(&latency)
                .map(|(r, &raw)| (raw, part_marks[r.part]))
                .collect(),
            &calibration,
        ),
        cpu_ms: vec![Sample {
            raw: cpu.map_or(f64::NAN, |c| c.as_secs_f64() * 1e3 / n.max(1) as f64),
            scale: calibration.scale(),
        }],
        cut: stats::mean(&cut_values).unwrap_or(f64::NAN),
        cut_jobs: cut_values.len(),
        peak_rss_mb: hwm_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0),
        calibration,
    };
    out.metrics = e2e.metrics();
    out.details = e2e.raw();
    out.details.extend(tail("latency_ms", &latency));
    let within = latency.iter().filter(|&&l| l <= SLO_MS).count();
    out.details.push(metric(
        "slo_frac",
        "fraction",
        within as f64 / n.max(1) as f64,
        n,
    ));
    let late_max = late_ms_max(&replies);
    if late_max > MAX_LATE_MS {
        out.invalid = Some(format!(
            "generator ran {late_max:.1} ms late (limit {MAX_LATE_MS} ms)"
        ));
    }
    match stats_reply {
        Ok(s) => out.details.extend(daemon_details(&replies, &views, &s)),
        Err(e) => out.error(format!("stats: {e}")),
    }
    Ok(out)
}

/// The highest of the 99th, 95th and 90th percentiles of `values` that
/// has ten samples beyond it, named `<name>_p<percentile>`.
pub fn tail(name: &str, values: &[f64]) -> Option<Metric> {
    let n = values.len();
    let p = [99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| stats::reportable(n, p))?;
    Some(metric(
        format!("{name}_p{p}"),
        "ms",
        stats::percentile(values, p)?,
        n,
    ))
}

/// How late the generator sent a request whose connection was free, at
/// worst.
pub fn late_ms_max(replies: &[Reply]) -> f64 {
    replies.iter().map(|r| r.late_ms).fold(0.0, f64::max)
}

/// Numbers the timed and the traced run both print: generator lateness,
/// the daemon's execution time (`wall_ms`) per job kind over the
/// answered `views`, and its refusal and failure counters from `stats`.
pub fn daemon_details(replies: &[Reply], views: &[Option<JobView>], stats: &Json) -> Vec<Metric> {
    let exec = |inline: bool| -> Vec<f64> {
        replies
            .iter()
            .zip(views)
            .filter(|(r, _)| is_inline(r.key) == inline)
            .filter_map(|(_, v)| Some(v.as_ref()?.wall_ms.unwrap_or(f64::NAN)))
            .collect()
    };
    let (byid, inline) = (exec(false), exec(true));
    let jobs = stats.get("stats").and_then(|s| s.get("jobs"));
    let count = |k: &str| jobs.and_then(|j| j.num(k)).unwrap_or(f64::NAN);
    vec![
        metric(
            "serve.late_ms_max",
            "ms",
            late_ms_max(replies),
            replies.len(),
        ),
        metric(
            "serve.exec_ms_p50_byid",
            "ms",
            stats::median(&byid).unwrap_or(f64::NAN),
            byid.len(),
        ),
        metric(
            "serve.exec_ms_p50_inline",
            "ms",
            stats::median(&inline).unwrap_or(f64::NAN),
            inline.len(),
        ),
        metric(
            "serve.rejected",
            "count",
            count("rejected_full") + count("rejected_shutdown"),
            1,
        ),
        metric("serve.failed", "count", count("failed"), 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_cover_the_schedule_in_order() {
        let schedule = poisson(3, RATE, 15.0, FM_SHARE, FM_KEYS, PROP_KEYS);
        let parts = parts(&schedule, 15.0);
        assert_eq!(parts.len(), PARTS);
        let part = Duration::from_secs_f64(15.0 / PARTS as f64);
        let mut offset = Duration::ZERO;
        let mut i = 0;
        for p in &parts {
            assert!(!p.is_empty());
            for a in p {
                assert!(a.due < part);
                assert_eq!((a.due + offset, a.key), (schedule[i].due, schedule[i].key));
                i += 1;
            }
            offset += part;
        }
        assert_eq!(i, schedule.len());
    }
}
