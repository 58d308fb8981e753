#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint. Run from the repo root.
#
#   scripts/check.sh                # tier-1 gates only (build, every
#                                   # workspace crate's tests,
#                                   # clippy over every
#                                   # target (tests included), and a build
#                                   # of benchmark/ and benchmark/trace/
#                                   # plus bench's own unit tests)
#   scripts/check.sh --audit        # also run the debug-audit (oracle) gates
#   scripts/check.sh --bench-smoke  # also run the quick benchmark gate:
#                                   # oracle recounts every reported cut and
#                                   # the run fails on a >2x secs_per_run
#                                   # regression (or a changed best_cut at
#                                   # matching run counts) vs the committed
#                                   # BENCH_prop.json
#   scripts/check.sh --serve        # also run the daemon smoke gate: build
#                                   # the prop-serve loopback benchmark,
#                                   # drive it under a 30s budget, and fail
#                                   # on any contained worker panic in the
#                                   # daemon's output; then submit each
#                                   # engine the registry newly serves
#                                   # (prop-paper, fm-tree, la2, la3, kl,
#                                   # sa) on struct to a live daemon and
#                                   # fail unless its cut equals
#                                   # `prop partition --method <e>` at the
#                                   # same seed and runs
#   scripts/check.sh --ml           # also run the multilevel smoke gate:
#                                   # one ml-only quick benchmark pass whose
#                                   # cuts the oracle recounts, the ml CLI
#                                   # path at --threads 1 and 2, which
#                                   # must print identical results,
#                                   # and one golem3 V-cycle (--runs 1
#                                   # --seed 0) whose result line and
#                                   # --assign cksum must equal pinned
#                                   # values: the only gate that folds a
#                                   # coarse level (above refine_skip_nodes)
#                                   # at default settings; plus the prof
#                                   # test that discarded V-cycles are
#                                   # counted
#   scripts/check.sh --par          # also run the parallel-run determinism
#                                   # gate: ml at --threads 1 vs --threads 2
#                                   # must agree on the result line AND the
#                                   # full node assignment (diffed file)
#   scripts/check.sh --flow         # also run the flow refinement gate:
#                                   # the Dinic-vs-reference proptests, the
#                                   # flow crate's own tests, and a CLI
#                                   # bench asserting cut(ml --ml-flow) <=
#                                   # cut(ml) on every suite circuit
#   scripts/check.sh --kway         # also run the recursive k-way gate:
#                                   # the k-way oracle + e2e test file
#                                   # (plus its prof-counter test), a
#                                   # CLI k=4 sweep over the suite whose
#                                   # parts/weights are sanity-checked and
#                                   # whose budgeted rerun must respect the
#                                   # caps, a p2 k=8 --assign file that
#                                   # must be byte-identical at the
#                                   # default and --threads 1, the 2-way
#                                   # default-vs-sequential check (p2
#                                   # --runs 4 --assign files of prop, fm
#                                   # and ml byte-identical at the default
#                                   # and --threads 1), and a
#                                   # daemon round-trip whose
#                                   # k=4 submit twice in a row must be
#                                   # bit-identical (cut + connectivity +
#                                   # part_weights + assignment_hash)
#   scripts/check.sh --cluster      # also run the cluster gate: two worker
#                                   # daemons plus a coordinator, a golem3
#                                   # seed-sweep batch with one worker
#                                   # SIGKILLed mid-batch, and the final
#                                   # (cut, run_cuts, assignment_hash) must
#                                   # be bit-identical to the same sweep run
#                                   # sequentially on one daemon
#   scripts/check.sh --paper        # also run the paper-claims gate on
#                                   # the full 16-circuit suite: PROP's
#                                   # Table 2 and Table 3 totals must be
#                                   # below every compared method's and
#                                   # within their pinned ceilings (the
#                                   # quick suite runs in tier-1)
#   scripts/check.sh --io           # also run the .hgb snapshot gate:
#                                   # round-trip + adversarial loader
#                                   # fuzzing tests, convert/stats/partition
#                                   # on .hgb through the CLI, the >=10x
#                                   # loader benchmark (golem tier), one
#                                   # million-node ml run through the CLI
#                                   # and through the daemon's circuit
#                                   # store, and submit-by-circuit-id vs
#                                   # inline bit-identity
set -euo pipefail
cd "$(dirname "$0")/.."

audit=0
bench_smoke=0
serve=0
ml=0
par=0
flow=0
io=0
cluster=0
kway=0
paper=0
for arg in "$@"; do
  case "$arg" in
    --audit) audit=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --serve) serve=1 ;;
    --ml) ml=1 ;;
    --par) par=1 ;;
    --flow) flow=1 ;;
    --io) io=1 ;;
    --cluster) cluster=1 ;;
    --kway) kway=1 ;;
    --paper) paper=1 ;;
    *) echo "check.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

cargo build --release
# Every crate's tests: the root package's integration tests plus each
# member crate's unit, integration and doc tests (the PROP engine, the
# containers' model tests, the reference mirror, the CLI's closed-stdout
# test that spawns the built `prop`, the .hgb loader and its fuzzer, the
# daemon's circuit store).
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark is two workspaces of its own with path dependencies on
# crates/: build both and run bench's unit tests, so an API or CLI change
# that breaks the benchmark fails here rather than in a benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo build --release --offline --manifest-path benchmark/trace/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

if [[ "$audit" -eq 1 ]]; then
  # Audited pass: every engine reports into the thread-local auditor slot
  # and the oracle auditors recheck each move against from-scratch
  # recomputation (see DESIGN.md §9).
  cargo test -q --features debug-audit
  cargo test -q -p prop-verify --features debug-audit
  cargo clippy -p prop-verify --features debug-audit -- -D warnings
  cargo clippy --workspace --features debug-audit -- -D warnings
fi

if [[ "$paper" -eq 1 ]]; then
  # The full-suite arm of tests/paper_claims.rs (about 90 s in
  # release); tier-1 above already ran its quick arm.
  cargo test --release -q --test paper_claims -- --ignored
fi

if [[ "$bench_smoke" -eq 1 ]]; then
  # Benchmark smoke gate: --quick keeps it to a few seconds; --compare
  # makes bench_snapshot a read-only regression check instead of a
  # snapshot writer. Quick mode runs fewer best-of iterations than the
  # committed rows, so only the >2x timing regression arm of the gate
  # applies; full-run best_cut equality is re-pinned whenever the
  # snapshot itself is regenerated.
  cargo run --release -q -p prop-experiments --bin bench_snapshot -- \
    --quick --compare BENCH_prop.json
fi

if [[ "$serve" -eq 1 ]]; then
  # Daemon smoke gate: an in-process loopback daemon serves the quick
  # benchmark (overhead + throughput, bit-identity asserted inside) under
  # a 30-second budget. bench_serve already exits non-zero on any
  # divergence; on top of that, any contained worker panic in the output
  # fails the gate even though the daemon survived it.
  cargo build --release -q -p prop-experiments --bin bench_serve
  serve_log="$(mktemp)"
  trap 'rm -f "$serve_log"' EXIT
  timeout 30s ./target/release/bench_serve --quick --jobs 8 2>&1 | tee "$serve_log"
  if grep -qi "panicked" "$serve_log"; then
    echo "check.sh: worker panic detected in the serve smoke log" >&2
    exit 1
  fi

  # Every engine the registry newly serves, over a live socket: the
  # daemon's cut must equal the direct CLI run at the same seed and runs.
  cargo build --release -q -p prop-cli
  serve_dir="$(mktemp -d)"
  serve_addr="127.0.0.1:7477"
  ./target/release/prop serve --addr "$serve_addr" --workers 2 --queue-cap 8 \
    --store-dir "$serve_dir/store" > "$serve_dir/serve.log" 2>&1 &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_dir" "$serve_log"' EXIT
  for _ in $(seq 1 50); do
    ./target/release/prop ctl ping --addr "$serve_addr" >/dev/null 2>&1 && break
    sleep 0.2
  done
  ./target/release/prop generate --circuit struct --out "$serve_dir/struct.hgr" >/dev/null
  for e in prop-paper fm-tree la2 la3 kl sa; do
    direct="$(./target/release/prop partition "$serve_dir/struct.hgr" --method "$e" \
      --runs 2 --seed 3)"
    served="$(./target/release/prop submit "$serve_dir/struct.hgr" --engine "$e" \
      --runs 2 --seed 3 --addr "$serve_addr")"
    direct_cut="$(sed -n 's/.*cut=\([0-9.eE+-]*\).*/\1/p' <<<"$direct")"
    served_cut="$(sed -n 's/.*"cut":\([0-9.eE+-]*\).*/\1/p' <<<"$served")"
    if [[ -z "$direct_cut" || "$direct_cut" != "$served_cut" ]]; then
      echo "check.sh: daemon diverged from the CLI for engine $e" >&2
      echo "  partition: $direct" >&2
      echo "  submit:    $served" >&2
      exit 1
    fi
    echo "check.sh: $e cut=$direct_cut through the daemon and the CLI"
  done
  ./target/release/prop ctl shutdown --addr "$serve_addr" >/dev/null
  wait "$serve_pid" 2>/dev/null || true
fi

if [[ "$ml" -eq 1 ]]; then
  # Multilevel smoke gate. First an ml-only quick benchmark pass: the
  # oracle recounts every reported cut, and --compare trips on a >2x
  # secs_per_run regression against the committed ML rows.
  cargo run --release -q -p prop-experiments --bin bench_snapshot -- \
    --quick --method ML --compare BENCH_prop.json
  # Then the CLI path: the best-of-R V-cycles fanned out over 1 and 2
  # threads must print the identical result line.
  ml_dir="$(mktemp -d)"
  trap 'rm -rf "$ml_dir"' EXIT
  ./target/release/prop generate --circuit struct --out "$ml_dir/struct.hgr" >/dev/null
  one_line="$(./target/release/prop partition "$ml_dir/struct.hgr" --method ml --runs 4 --threads 1)"
  two_line="$(./target/release/prop partition "$ml_dir/struct.hgr" --method ml --runs 4 --threads 2)"
  echo "$one_line"
  if [[ "$one_line" != "$two_line" ]]; then
    echo "check.sh: ml CLI diverged across thread counts" >&2
    echo "  threads=1: $one_line" >&2
    echo "  threads=2: $two_line" >&2
    exit 1
  fi
  # One default golem3 V-cycle: its first coarse level is weighted and
  # above refine_skip_nodes, so coarsening folds it away, and its large
  # levels are where FM passes stop on a stall. The line and the
  # assignment are pinned.
  ./target/release/prop generate --circuit golem3 --out "$ml_dir/golem3.hgb" >/dev/null
  golem_line="$(./target/release/prop partition "$ml_dir/golem3.hgb" --method ml --runs 1 \
    --seed 0 --assign "$ml_dir/golem3.assign" | grep "^method=")"
  golem_sum="$(cksum < "$ml_dir/golem3.assign")"
  echo "$golem_line (assign cksum $golem_sum)"
  if [[ "$golem_line" != "method=ml cut=1323 sides=51585A/51463B passes=44" \
    || "$golem_sum" != "4028526417 816322" ]]; then
    echo "check.sh: golem3 ml V-cycle moved off its pinned result" >&2
    exit 1
  fi
  # A V-cycle result the run discards is counted in ml_rejected.
  cargo test -q --features prof --test multilevel_vcycle discarded_vcycles_are_counted
fi

if [[ "$par" -eq 1 ]]; then
  # Parallel-run determinism gate: the ml engine's best-of-R runs on 1 vs
  # 2 threads on a generated circuit must agree on the printed cut line
  # and on every node's side (the --assign files are diffed
  # byte-for-byte, a stronger check than the cut alone).
  par_dir="$(mktemp -d)"
  trap 'rm -rf "$par_dir"' EXIT
  ./target/release/prop generate --circuit struct --out "$par_dir/struct.hgr" >/dev/null
  t1_out="$(./target/release/prop partition "$par_dir/struct.hgr" --method ml --runs 5 \
    --threads 1 --assign "$par_dir/assign_t1.txt")"
  t2_out="$(./target/release/prop partition "$par_dir/struct.hgr" --method ml --runs 5 \
    --threads 2 --assign "$par_dir/assign_t2.txt")"
  t1_line="${t1_out%%$'\n'*}"
  t2_line="${t2_out%%$'\n'*}"
  echo "$t1_line"
  if [[ "$t1_line" != "$t2_line" ]]; then
    echo "check.sh: parallel ml runs diverged in the cut across thread counts" >&2
    echo "  threads=1: $t1_line" >&2
    echo "  threads=2: $t2_line" >&2
    exit 1
  fi
  if ! diff -q "$par_dir/assign_t1.txt" "$par_dir/assign_t2.txt" >/dev/null; then
    echo "check.sh: parallel ml runs diverged in the assignment across thread counts" >&2
    diff "$par_dir/assign_t1.txt" "$par_dir/assign_t2.txt" | head -n 5 >&2
    exit 1
  fi
  echo "check.sh: parallel-run determinism gate passed (cut + assignment identical)"
fi

if [[ "$flow" -eq 1 ]]; then
  # Flow refinement gate. The kernel first: the flow crate's unit and
  # adversarial tests, then the differential proptests (Dinic vs the
  # naive Edmonds-Karp reference, plus the independent certificate
  # checker) in prop-verify.
  cargo test -q -p prop-flow
  cargo test -q -p prop-verify --test proptest_flow
  # Then the quality contract end-to-end through the CLI: on every suite
  # circuit, the flow-enabled ml engine must cut no more than the plain
  # ml engine at the same seed and run count.
  flow_dir="$(mktemp -d)"
  trap 'rm -rf "$flow_dir"' EXIT
  for circuit in balu struct p2; do
    ./target/release/prop generate --circuit "$circuit" --out "$flow_dir/$circuit.hgr" >/dev/null
    base_line="$(./target/release/prop partition "$flow_dir/$circuit.hgr" --method ml --runs 4)"
    flow_line="$(./target/release/prop partition "$flow_dir/$circuit.hgr" --method ml --runs 4 --ml-flow)"
    base_cut="$(sed -n 's/.*cut=\([0-9.]*\).*/\1/p' <<<"$base_line")"
    flow_cut="$(sed -n 's/.*cut=\([0-9.]*\).*/\1/p' <<<"$flow_line")"
    if [[ -z "$base_cut" || -z "$flow_cut" ]]; then
      echo "check.sh: could not parse a cut from the ml result lines" >&2
      echo "  ml:        $base_line" >&2
      echo "  ml+flow:   $flow_line" >&2
      exit 1
    fi
    if ! awk -v f="$flow_cut" -v b="$base_cut" 'BEGIN { exit !(f <= b) }'; then
      echo "check.sh: flow refinement worsened $circuit: cut $flow_cut > $base_cut" >&2
      exit 1
    fi
    echo "check.sh: $circuit ml=$base_cut ml+flow=$flow_cut"
  done
  echo "check.sh: flow gate passed (kernel proptests + cut(ml+flow) <= cut(ml) on the suite)"
fi

if [[ "$io" -eq 1 ]]; then
  # .hgb snapshot gate. The loader's test surface first: canonical
  # round-trips (including mmap-vs-buffered identity and the cut recount
  # oracle) and the adversarial fuzzer (truncations, corrupt headers,
  # section-table attacks, payload bit flips — typed errors, no panics).
  cargo test -q --test formats_roundtrip
  cargo test -q -p prop-netlist --test hgb_adversarial

  io_dir="$(mktemp -d)"
  trap 'rm -rf "$io_dir"' EXIT
  # The CLI surface: convert text -> snapshot, O(header) stats, and a
  # partition run that must print the identical result line from either
  # representation of the same circuit.
  for circuit in balu struct p2; do
    ./target/release/prop generate --circuit "$circuit" --out "$io_dir/$circuit.hgr" >/dev/null
    ./target/release/prop convert "$io_dir/$circuit.hgr" "$io_dir/$circuit.hgb" >/dev/null
    ./target/release/prop stats "$io_dir/$circuit.hgb" >/dev/null
    text_line="$(./target/release/prop partition "$io_dir/$circuit.hgr" --method prop --runs 3)"
    hgb_line="$(./target/release/prop partition "$io_dir/$circuit.hgb" --method prop --runs 3)"
    if [[ "$text_line" != "$hgb_line" ]]; then
      echo "check.sh: $circuit partitions differently from .hgr vs .hgb" >&2
      echo "  hgr: $text_line" >&2
      echo "  hgb: $hgb_line" >&2
      exit 1
    fi
    echo "check.sh: $circuit .hgr == .hgb ($hgb_line)"
  done

  # The performance contract: on the golem tier the mmap load (open +
  # structural parse + deep validation, zero-copy view ready) must beat
  # text parse+build by >=10x; the binary enforces the floor and exits
  # non-zero on a violation. Run from the scratch dir so the committed
  # BENCH_prop.json is not rewritten by the gate.
  cargo build --release -q -p prop-experiments --bin bench_snapshot
  bench="$PWD/target/release/bench_snapshot"
  (cd "$io_dir" && "$bench" --io --large)

  # Million-node end-to-end, CLI first: generate golem4 straight to a
  # snapshot (no 50 MB text intermediate) and run the multilevel engine.
  ./target/release/prop generate --circuit golem4 --out "$io_dir/golem4.hgb" >/dev/null
  golem_cli="$(./target/release/prop partition "$io_dir/golem4.hgb" --method ml --runs 1)"
  echo "check.sh: golem4 CLI $golem_cli"

  # ... then through the daemon's circuit store: a --by-path upload (the
  # 49 MB snapshot never crosses the wire), an O(header) listing, and the
  # same million-node ml job resolved by circuit id.
  io_addr="127.0.0.1:7177"
  ./target/release/prop serve --addr "$io_addr" --workers 1 --queue-cap 8 \
    --store-dir "$io_dir/store" > "$io_dir/serve.log" 2>&1 &
  io_serve_pid=$!
  # From here the trap must also reap the daemon, or an early exit
  # orphans it (and its inherited stdout keeps the caller's pipe open).
  trap 'kill "$io_serve_pid" 2>/dev/null || true; rm -rf "$io_dir"' EXIT
  for _ in $(seq 1 50); do
    ./target/release/prop ctl ping --addr "$io_addr" >/dev/null 2>&1 && break
    sleep 0.2
  done
  ./target/release/prop upload "$io_dir/golem4.hgb" --id golem4 --by-path --addr "$io_addr"
  ./target/release/prop ctl circuits --addr "$io_addr"
  golem_daemon="$(./target/release/prop submit --circuit-id golem4 --engine ml --runs 1 \
    --addr "$io_addr")"
  echo "check.sh: golem4 daemon $golem_daemon"
  if [[ "$golem_daemon" != *'"status":"completed"'* ]]; then
    echo "check.sh: golem4 job did not complete through the daemon" >&2
    exit 1
  fi

  # Bit-identity: a job submitted by circuit id must match the same job
  # submitted inline — cut, full per-run cut trajectory, and the
  # assignment hash (a circuit small enough for the inline request cap).
  ./target/release/prop upload "$io_dir/struct.hgb" --id struct --addr "$io_addr"
  inline="$(./target/release/prop submit "$io_dir/struct.hgr" --engine prop --runs 4 \
    --addr "$io_addr")"
  stored="$(./target/release/prop submit --circuit-id struct --engine prop --runs 4 \
    --addr "$io_addr")"
  extract() { sed -n "s/.*\"$2\":\($3\).*/\1/p" <<<"$1"; }
  for field_pat in 'cut [0-9.eE+-]*' 'run_cuts \[[^]]*\]' 'assignment_hash "[0-9a-f]*"'; do
    field="${field_pat%% *}"
    pat="${field_pat#* }"
    inline_v="$(extract "$inline" "$field" "$pat")"
    stored_v="$(extract "$stored" "$field" "$pat")"
    if [[ -z "$inline_v" || "$inline_v" != "$stored_v" ]]; then
      echo "check.sh: submit-by-id diverged from inline submit on $field" >&2
      echo "  inline: $inline" >&2
      echo "  stored: $stored" >&2
      exit 1
    fi
  done
  echo "check.sh: submit --circuit-id is bit-identical to inline (cut + run_cuts + assignment_hash)"
  ./target/release/prop ctl evict --circuit struct --addr "$io_addr" >/dev/null
  ./target/release/prop ctl shutdown --addr "$io_addr" >/dev/null
  wait "$io_serve_pid"
  echo "check.sh: io gate passed (round-trip + fuzz + 10x loader + million-node CLI/daemon)"
fi

if [[ "$kway" -eq 1 ]]; then
  # Recursive k-way gate. The oracle-first test surface: the verify
  # crate's k-way oracles, then the full e2e file (oracle exactness for
  # k in {2,3,4,8}, budget respect, thread-count bit-identity,
  # cancellation totality, typed infeasibility).
  cargo test -q -p prop-verify kway
  cargo test -q --test kway
  # Worker threads' prof counters fold back into the caller.
  cargo test -q --features prof --test kway prof
  # The CLI gates below drive the release binary, which the root build
  # above does not produce.
  cargo build --release -q -p prop-cli

  kway_dir="$(mktemp -d)"
  trap 'rm -rf "$kway_dir"' EXIT
  # The CLI surface: a uniform k=4 sweep over the suite. The result line
  # must report k=4, four part sizes, and the budgeted rerun (every cap
  # at 30% of the node count, feasible but tight) must keep every part
  # weight inside its budget.
  for circuit in balu struct p2; do
    ./target/release/prop generate --circuit "$circuit" --out "$kway_dir/$circuit.hgr" >/dev/null
    line="$(./target/release/prop partition "$kway_dir/$circuit.hgr" --method ml --k 4 --runs 2)"
    echo "check.sh: $circuit $line"
    if [[ "$line" != *"k=4"* || "$line" != *"connectivity="* ]]; then
      echo "check.sh: malformed k-way result line for $circuit: $line" >&2
      exit 1
    fi
    parts="$(sed -n 's|.*parts=\([0-9/]*\).*|\1|p' <<<"$line")"
    if [[ "$(tr '/' '\n' <<<"$parts" | wc -l)" -ne 4 ]]; then
      echo "check.sh: expected 4 parts for $circuit, got parts=$parts" >&2
      exit 1
    fi
    nodes="$(./target/release/prop stats "$kway_dir/$circuit.hgr" | sed -n 's/^n=\([0-9]*\).*/\1/p')"
    cap="$(awk -v n="$nodes" 'BEGIN { printf "%.1f", n * 0.3 }')"
    budget_line="$(./target/release/prop partition "$kway_dir/$circuit.hgr" --method ml --k 4       --runs 2 --budgets "$cap,$cap,$cap,$cap")"
    weights="$(sed -n 's/.*weights=\([0-9.,]*\).*/\1/p' <<<"$budget_line")"
    if ! awk -v w="$weights" -v c="$cap" 'BEGIN {
        n = split(w, a, ","); if (n != 4) exit 1;
        for (i = 1; i <= n; i++) if (a[i] > c + 1e-9) exit 1; }'; then
      echo "check.sh: budgeted k-way violated its caps on $circuit" >&2
      echo "  $budget_line (cap $cap)" >&2
      exit 1
    fi
    echo "check.sh: $circuit budgeted weights=$weights inside cap=$cap"
  done

  # Concurrent subtrees: the default (every CPU) and --threads 1 (one
  # subtree at a time) must write byte-identical assignments.
  ./target/release/prop partition "$kway_dir/p2.hgr" --method prop --k 8 --runs 2 --assign "$kway_dir/p2.auto.part" >/dev/null
  ./target/release/prop partition "$kway_dir/p2.hgr" --method prop --k 8 --runs 2 --threads 1 --assign "$kway_dir/p2.t1.part" >/dev/null
  if ! cmp -s "$kway_dir/p2.auto.part" "$kway_dir/p2.t1.part"; then
    echo "check.sh: k=8 assignment differs between the default and --threads 1" >&2
    exit 1
  fi
  echo "check.sh: p2 k=8 assignment identical at the default and --threads 1"

  # The 2-way default: best-of-R runs on every CPU must write the same
  # assignment as one run at a time, for every engine kind.
  for method in prop fm ml; do
    ./target/release/prop partition "$kway_dir/p2.hgr" --method "$method" --runs 4 --assign "$kway_dir/p2.$method.auto" >/dev/null
    ./target/release/prop partition "$kway_dir/p2.hgr" --method "$method" --runs 4 --threads 1 --assign "$kway_dir/p2.$method.t1" >/dev/null
    if ! cmp -s "$kway_dir/p2.$method.auto" "$kway_dir/p2.$method.t1"; then
      echo "check.sh: 2-way $method assignment differs between the default and --threads 1" >&2
      exit 1
    fi
  done
  echo "check.sh: p2 2-way assignments identical at the default and --threads 1 (prop, fm, ml)"

  # The daemon surface: the same k=4 job submitted twice over the wire
  # must be bit-identical in every k-way result field.
  kway_addr="127.0.0.1:7377"
  ./target/release/prop serve --addr "$kway_addr" --workers 2 --queue-cap 8     > "$kway_dir/serve.log" 2>&1 &
  kway_serve_pid=$!
  trap 'kill "$kway_serve_pid" 2>/dev/null || true; rm -rf "$kway_dir"' EXIT
  for _ in $(seq 1 50); do
    ./target/release/prop ctl ping --addr "$kway_addr" >/dev/null 2>&1 && break
    sleep 0.2
  done
  first="$(./target/release/prop submit "$kway_dir/struct.hgr" --engine ml --runs 2 --k 4     --addr "$kway_addr")"
  second="$(./target/release/prop submit "$kway_dir/struct.hgr" --engine ml --runs 2 --k 4     --addr "$kway_addr")"
  extract() { sed -n "s/.*\"$2\":\($3\).*/\1/p" <<<"$1"; }
  for field_pat in 'cut [0-9.eE+-]*' 'connectivity [0-9.eE+-]*' 'k [0-9]*'                    'part_weights \[[^]]*\]' 'assignment_hash "[0-9a-f]*"'; do
    field="${field_pat%% *}"
    pat="${field_pat#* }"
    first_v="$(extract "$first" "$field" "$pat")"
    second_v="$(extract "$second" "$field" "$pat")"
    if [[ -z "$first_v" || "$first_v" != "$second_v" ]]; then
      echo "check.sh: repeated k-way submits diverged on $field" >&2
      echo "  first:  $first" >&2
      echo "  second: $second" >&2
      exit 1
    fi
  done
  echo "check.sh: daemon k-way submit is deterministic (cut + connectivity + part_weights + hash)"
  ./target/release/prop ctl shutdown --addr "$kway_addr" >/dev/null
  wait "$kway_serve_pid" 2>/dev/null || true
  echo "check.sh: kway gate passed (oracles + e2e + CLI budgets + daemon round-trip)"
fi

if [[ "$cluster" -eq 1 ]]; then
  # Cluster gate: two worker daemons plus a coordinator sharding a golem3
  # seed sweep across them, with one worker SIGKILLed mid-batch. The
  # coordinator must reschedule the lost worker's sub-jobs onto the
  # survivor and still produce a result bit-identical to the same sweep
  # run sequentially as one daemon job — cut, full per-run cut
  # trajectory, and assignment hash.
  cluster_dir="$(mktemp -d)"
  w1_addr="127.0.0.1:7277"
  w2_addr="127.0.0.1:7278"
  co_addr="127.0.0.1:7279"
  ./target/release/prop serve --addr "$w1_addr" --workers 1 --queue-cap 16 \
    --store-dir "$cluster_dir/w1" > "$cluster_dir/w1.log" 2>&1 &
  w1_pid=$!
  ./target/release/prop serve --addr "$w2_addr" --workers 1 --queue-cap 16 \
    --store-dir "$cluster_dir/w2" > "$cluster_dir/w2.log" 2>&1 &
  w2_pid=$!
  ./target/release/prop serve --addr "$co_addr" --workers 1 --queue-cap 16 \
    --store-dir "$cluster_dir/co" --coordinator "$w1_addr,$w2_addr" \
    --heartbeat-ms 50 --retries 10 > "$cluster_dir/co.log" 2>&1 &
  co_pid=$!
  # The trap must reap every daemon we spawned, or an early exit orphans
  # them and their ports stay bound for the next run.
  trap 'kill "$w1_pid" "$w2_pid" "$co_pid" 2>/dev/null || true; rm -rf "$cluster_dir"' EXIT
  for addr in "$w1_addr" "$w2_addr" "$co_addr"; do
    for _ in $(seq 1 50); do
      ./target/release/prop ctl ping --addr "$addr" >/dev/null 2>&1 && break
      sleep 0.2
    done
  done

  ./target/release/prop generate --circuit golem3 --out "$cluster_dir/golem3.hgb" >/dev/null
  ./target/release/prop upload "$cluster_dir/golem3.hgb" --id golem3 --by-path --addr "$co_addr"

  # An 8-run fm seed sweep in single-run chunks: enough sub-jobs that
  # both workers hold work when worker 2 dies ~1.5s in.
  ./target/release/prop batch --circuit-id golem3 --engines fm --runs 8 --seed 7 \
    --chunk 1 --addr "$co_addr" > "$cluster_dir/batch.log" 2>&1 &
  batch_pid=$!
  sleep 1.5
  kill -9 "$w2_pid"
  echo "check.sh: SIGKILLed worker 2 mid-batch"
  if ! wait "$batch_pid"; then
    echo "check.sh: cluster batch failed after the worker kill" >&2
    cat "$cluster_dir/batch.log" >&2
    exit 1
  fi
  done_line="$(tail -n 1 "$cluster_dir/batch.log")"
  if [[ "$done_line" != *'"status":"completed"'* ]]; then
    echo "check.sh: cluster batch did not complete: $done_line" >&2
    exit 1
  fi
  echo "check.sh: batch done $(sed -n 's/.*\("rescheduled":[0-9]*\).*/\1/p' <<<"$done_line")"

  # The sequential reference: the identical sweep as one plain daemon job
  # on the coordinator (it executes submits locally like any daemon).
  seq_line="$(./target/release/prop submit --circuit-id golem3 --engine fm --runs 8 \
    --seed 7 --addr "$co_addr")"
  extract() { sed -n "s/.*\"$2\":\($3\).*/\1/p" <<<"$1"; }
  for field_pat in 'cut [0-9.eE+-]*' 'run_cuts \[[^]]*\]' 'assignment_hash "[0-9a-f]*"'; do
    field="${field_pat%% *}"
    pat="${field_pat#* }"
    batch_v="$(extract "$done_line" "$field" "$pat")"
    seq_v="$(extract "$seq_line" "$field" "$pat")"
    if [[ -z "$batch_v" || "$batch_v" != "$seq_v" ]]; then
      echo "check.sh: cluster batch diverged from the sequential sweep on $field" >&2
      echo "  batch:      $done_line" >&2
      echo "  sequential: $seq_line" >&2
      exit 1
    fi
  done
  echo "check.sh: batch result is bit-identical to the sequential sweep (cut + run_cuts + assignment_hash)"
  ./target/release/prop ctl shutdown --addr "$co_addr" >/dev/null
  ./target/release/prop ctl shutdown --addr "$w1_addr" >/dev/null
  wait "$co_pid" "$w1_pid" 2>/dev/null || true
  echo "check.sh: cluster gate passed (2 workers, mid-batch SIGKILL, deterministic merge)"
fi

gates="build+test+clippy"
[[ "$audit" -eq 1 ]] && gates="$gates audit"
[[ "$bench_smoke" -eq 1 ]] && gates="$gates bench-smoke"
[[ "$serve" -eq 1 ]] && gates="$gates serve"
[[ "$ml" -eq 1 ]] && gates="$gates ml"
[[ "$par" -eq 1 ]] && gates="$gates par"
[[ "$flow" -eq 1 ]] && gates="$gates flow"
[[ "$io" -eq 1 ]] && gates="$gates io"
[[ "$cluster" -eq 1 ]] && gates="$gates cluster"
[[ "$kway" -eq 1 ]] && gates="$gates kway"
[[ "$paper" -eq 1 ]] && gates="$gates paper"
echo "check.sh: all gates passed ($gates)"
