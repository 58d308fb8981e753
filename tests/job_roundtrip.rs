//! Every surface parses a job into the same `prop_engines::Job`.
//!
//! One job with multilevel knobs and budgets is parsed from `prop
//! partition` argv, from `prop submit` argv, and from its own wire line
//! (`SubmitRequest::render` then `parse_request`); all three must give
//! the job back unchanged. A batch carries no knobs, `k` or budgets, so
//! the job's batch-expressible part (engine, window, runs, seed) is also
//! built through a batch expansion, sent over the wire, and compared with
//! the same part parsed by the other three surfaces.

use prop_cli::{parse_args, Command};
use prop_engines::{EngineName, EngineSpec, Job};
use prop_multilevel::{FlowConfig, MultilevelConfig};
use prop_serve::{wire, BatchRequest, Request, SubmitRequest};

/// `prop partition` (`--method`) or `prop submit` (`--engine`) argv for
/// `job`, flags in a fixed order.
fn argv(command: &str, job: &Job) -> Vec<String> {
    let engine_flag = if command == "partition" {
        "--method"
    } else {
        "--engine"
    };
    let mut args: Vec<String> = vec![command.into(), "c.hgr".into()];
    let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
    flag(engine_flag, job.spec.name.to_string());
    flag("--r1", job.r1.to_string());
    flag("--r2", job.r2.to_string());
    flag("--runs", job.runs.to_string());
    flag("--seed", job.seed.to_string());
    flag("--k", job.k.to_string());
    let ml = &job.spec.ml;
    let defaults = MultilevelConfig::default();
    if *ml != defaults {
        flag("--ml-coarsest", ml.coarsest_nodes.to_string());
        flag("--ml-starts", ml.coarsest_starts.to_string());
        flag("--ml-max-net", ml.max_match_net.to_string());
        flag("--ml-refine-passes", ml.refine_passes.to_string());
        flag("--ml-polish", ml.polish_passes.to_string());
        if ml.flow.enabled {
            flag("--ml-flow-corridor", ml.flow.corridor_nodes.to_string());
        }
    }
    if let Some(budgets) = &job.budgets {
        let list: Vec<String> = budgets.iter().map(f64::to_string).collect();
        flag("--budgets", list.join(","));
    }
    args
}

/// The job each surface parses back.
fn through_every_surface(job: &Job) -> [Job; 3] {
    let from_argv = |command| match parse_args(&argv(command, job)).unwrap() {
        Command::Partition { job, .. } | Command::Submit { job, .. } => job,
        other => panic!("expected a job command, got {other:?}"),
    };
    let line = SubmitRequest {
        job: job.clone(),
        circuit_id: "c".into(),
        ..SubmitRequest::default()
    }
    .render();
    let Ok(Request::Submit(wire)) = wire::parse_request(&line) else {
        panic!("{line} does not parse back")
    };
    [from_argv("partition"), from_argv("submit"), wire.job]
}

#[test]
fn one_job_parses_identically_on_every_surface() {
    let job = Job {
        spec: EngineSpec {
            name: EngineName::Ml,
            ml: MultilevelConfig {
                coarsest_nodes: 64,
                coarsest_starts: 4,
                max_match_net: 12,
                refine_passes: 2,
                polish_passes: 0,
                flow: FlowConfig {
                    enabled: true,
                    corridor_nodes: 500,
                },
                ..MultilevelConfig::default()
            },
        },
        k: 3,
        budgets: Some(vec![120.0, 60.5, 40.0]),
        r1: 0.4,
        r2: 0.6,
        runs: 7,
        seed: 11,
    };
    job.validate().unwrap();
    for (surface, parsed) in ["partition", "submit", "wire"]
        .iter()
        .zip(through_every_surface(&job))
    {
        assert_eq!(parsed, job, "{surface}");
    }

    // What a batch can say of it: one engine, one window, runs and seed.
    let plain = Job {
        spec: EngineSpec::new(job.spec.name),
        k: 2,
        budgets: None,
        ..job.clone()
    };
    let spec = BatchRequest {
        circuit_id: "c".into(),
        engines: vec![plain.spec.name],
        eps: vec![(plain.r1, plain.r2)],
        runs: plain.runs,
        seed: plain.seed,
        chunk: plain.runs,
        ..BatchRequest::default()
    };
    let line = spec.render();
    let Ok(Request::Batch(parsed_spec)) = wire::parse_request(&line) else {
        panic!("{line} does not parse back")
    };
    assert_eq!(parsed_spec, spec);
    let [sub_job] = parsed_spec
        .expand()
        .try_into()
        .expect("one chunk, one sub-job");
    let Ok(Request::Submit(shipped)) = wire::parse_request(&sub_job.request.render()) else {
        panic!("the sub-job's submit line does not parse back")
    };
    assert_eq!(shipped.job, plain, "batch");
    for (surface, parsed) in ["partition", "submit", "wire"]
        .iter()
        .zip(through_every_surface(&plain))
    {
        assert_eq!(parsed, plain, "{surface}");
    }
}
