#!/usr/bin/env bash
# Full verification gate: formatting, lints, release build, tier-1 tests,
# every workspace and benchmark-harness test, then the smoke gates.
# Run from the repository root. CI and pre-merge checks should pass this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# One hash: FNV-1a lives in crates/tensor/src/record.rs. Its offset basis
# or prime written as a literal anywhere else under crates/ is a second
# copy of the hash.
if grep -rniE '0xcbf29ce484222325|0x100000001b3' crates --include='*.rs' \
    | grep -v '^crates/tensor/src/record\.rs:'; then
  echo "FAIL: FNV constants outside crates/tensor/src/record.rs (use eos_tensor::record)" >&2
  exit 1
fi

cargo clippy --workspace -- -D warnings
cargo build --release
cargo test -q

# Every member crate's suites — the bit-identity suites (blocked_kernel,
# conv_batched_bits, unfold_bits, packed_gemm_bits, patch_packer_tests,
# trace_counters) and eos-serve's differential and batcher suites among
# them — and the benchmark harness's own tests.
cargo test --workspace -q
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The smoke gates run from a throwaway working directory: every binary
# writes its records under the working directory's results/ (and the
# trace gates read them back from there), so a passing run leaves the
# tracked results/ untouched. To re-record one, run the binary from the
# repository root.
cargo build --release -q -p eos-bench --bin bench_gemm --bin train_step \
  --bin check_numerics --bin trace_train --bin serve_bench --bin table2 --bin suite
bin_dir="$PWD/target/release"
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT

# Perf/bit-identity smoke gates: bench_gemm exits non-zero if the packed
# GEMM differs from the seed kernel by a bit; train_step exits non-zero
# if a steady-state training step heap-allocates.
( cd "$gate_dir" && "$bin_dir/bench_gemm" --smoke )
( cd "$gate_dir" && "$bin_dir/train_step" --smoke )

# Numerical correctness gate: gradchecks every Layer and every loss,
# spot-checks the gap/metric formulas, and pins a golden-determinism
# digest of a training step across thread counts and kernel dispatch.
( cd "$gate_dir" && "$bin_dir/check_numerics" --smoke )

# Observability gate: a traced three-phase training run must emit
# results/TRACE_train.json with three well-nested phase spans, GEMM
# dispatch counters that sum, worker-pool utilisation, and byte-valid
# JSON/JSONL. (train_step above already audits that tracing, disabled,
# adds no allocations to the steady-state step.)
( cd "$gate_dir" && "$bin_dir/trace_train" --smoke )

# Cache-equivalence gate: a warm rerun of a table binary must train zero
# backbones (everything served from the artifact cache) and still produce
# a byte-identical CSV. Runs in the throwaway working dir with its own
# cache dir so it cannot disturb a developer's real cache.
table2_bin="$bin_dir/table2"
(
  cd "$gate_dir"
  export EOS_CACHE_DIR="$gate_dir/cache"
  "$table2_bin" --scale smoke --seed 42 --datasets celeba \
    > cold.out 2> cold.err
  cp results/table2.csv cold.csv
  "$table2_bin" --scale smoke --seed 42 --datasets celeba \
    > warm.out 2> warm.err
  grep -q 'backbones trained: 0,' warm.err || {
    echo "FAIL: warm rerun retrained backbones:" >&2
    grep '\[exp:table2\]' warm.err >&2
    exit 1
  }
  cmp cold.csv results/table2.csv || {
    echo "FAIL: warm-cache CSV differs from cold-run CSV" >&2
    exit 1
  }
  cmp cold.out warm.out || {
    echo "FAIL: warm-cache stdout differs from cold-run stdout" >&2
    exit 1
  }
)
echo "cache-equivalence gate: warm rerun trained 0 backbones, output byte-identical"

# Parallelism gate: the smoke suite at --jobs 4 must be byte-identical to
# --jobs 1 — same stdout, same CSVs, same number of backbones trained —
# with each run on its own cold cache so the parallel pass cannot ride on
# the serial pass's artifacts. (The speedup itself is hardware-dependent
# and recorded by `suite --bench` into results/BENCH_suite.json; this
# gate pins the determinism contract.)
suite_bin="$bin_dir/suite"
(
  cd "$gate_dir"
  rm -rf serial parallel
  mkdir -p serial parallel
  (
    cd serial
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime --jobs 1 > suite.out 2> suite.err
  )
  (
    cd parallel
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime --jobs 4 > suite.out 2> suite.err
  )
  cmp serial/suite.out parallel/suite.out || {
    echo "FAIL: suite stdout differs between --jobs 1 and --jobs 4" >&2
    exit 1
  }
  for csv in serial/results/*.csv; do
    cmp "$csv" "parallel/results/$(basename "$csv")" || {
      echo "FAIL: $(basename "$csv") differs between --jobs 1 and --jobs 4" >&2
      exit 1
    }
  done
  serial_trained="$(grep -o 'backbones trained: [0-9]*' serial/suite.err)"
  parallel_trained="$(grep -o 'backbones trained: [0-9]*' parallel/suite.err)"
  [ -n "$serial_trained" ] && [ "$serial_trained" = "$parallel_trained" ] || {
    echo "FAIL: trained-backbone counts differ: '$serial_trained' vs '$parallel_trained'" >&2
    exit 1
  }
)
echo "parallelism gate: --jobs 4 byte-identical to --jobs 1 (stdout, CSVs, backbones trained)"

# Scheduler bench smoke: both passes (serial + parallel, cold private
# caches) must agree byte-for-byte on every CSV; the binary exits
# non-zero on divergence and records the wall-clock split.
( cd "$gate_dir" && "$suite_bin" --scale smoke --seed 42 --datasets celeba \
    --jobs 4 --bench > bench.out 2> bench.err )
echo "suite bench gate: serial and parallel passes byte-identical"

# Crash-resume gate: a suite run killed mid-stream (deterministic
# process abort at the 4th experiment cell) must resume on rerun —
# replaying the cells journaled before the kill, training zero backbones
# — and end byte-identical to an uninterrupted run. A second rerun then
# replays every cell without computing anything.
(
  cd "$gate_dir"
  rm -rf resume && mkdir -p resume/ref resume/crash
  (
    cd resume/ref
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime > suite.out 2> suite.err
  )
  (
    cd resume/crash
    if EOS_FAULTS='cell:4:abort' EOS_CACHE_DIR="$PWD/cache" "$suite_bin" \
        --scale smoke --seed 42 --datasets celeba --skip-runtime \
        > crash.out 2> crash.err; then
      echo "FAIL: aborted suite run exited zero" >&2
      exit 1
    fi
    grep -q 'aborting process at cell' crash.err || {
      echo "FAIL: the abort fault never fired" >&2
      exit 1
    }
    # Resume on the same cache + journal — with a transient-fault storm
    # still active: journaled cells replay, the rest compute, injected
    # IO errors are absorbed by the retry policy. Every *prewarmed*
    # backbone comes from the cache; only the derived backbones of
    # never-run cells may train, so the resumed count must be strictly
    # below the uninterrupted run's.
    EOS_FAULTS='cache.read:2:io' EOS_CACHE_DIR="$PWD/cache" "$suite_bin" \
      --scale smoke --seed 42 --datasets celeba --skip-runtime \
      > suite.out 2> suite.err
    ref_trained="$(grep -o 'backbones trained: [0-9]*' ../ref/suite.err | grep -o '[0-9]*$')"
    res_trained="$(grep -o 'backbones trained: [0-9]*' suite.err | grep -o '[0-9]*$')"
    [ -n "$ref_trained" ] && [ -n "$res_trained" ] \
      && [ "$res_trained" -lt "$ref_trained" ] || {
      echo "FAIL: resume saved no trainings ($res_trained vs $ref_trained uninterrupted)" >&2
      exit 1
    }
    if grep -q 'faults injected: 0,' suite.err; then
      echo "FAIL: the resume-time storm injected nothing" >&2
      exit 1
    fi
    if grep -q 'replayed: 0,' suite.err; then
      echo "FAIL: resumed suite replayed no journaled cells" >&2
      exit 1
    fi
    if grep -q 'cells computed: 0,' suite.err; then
      echo "FAIL: resume had nothing left to compute (abort fired too late?)" >&2
      exit 1
    fi
    # Second rerun: the journal is complete, every cell replays.
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime > replay.out 2> replay.err
    grep -q 'cells computed: 0,' replay.err || {
      echo "FAIL: full-replay rerun still computed cells" >&2
      exit 1
    }
    cmp suite.out replay.out || {
      echo "FAIL: full-replay stdout differs from the resumed run" >&2
      exit 1
    }
  )
  cmp resume/ref/suite.out resume/crash/suite.out || {
    echo "FAIL: resumed suite stdout differs from the uninterrupted run" >&2
    exit 1
  }
  for csv in resume/ref/results/*.csv; do
    cmp "$csv" "resume/crash/results/$(basename "$csv")" || {
      echo "FAIL: $(basename "$csv") differs after crash-resume" >&2
      exit 1
    }
  done
)
echo "crash-resume gate: aborted suite resumed byte-identically (journal replayed, trainings saved)"

# Mid-training-kill gate: a suite run killed *inside* a backbone training
# (deterministic process abort at the 2nd train.epoch boundary, fired
# right after that epoch's EOST checkpoint hit the disk) must resume on
# rerun — loading the checkpoint instead of restarting the training, so
# strictly fewer epochs are retrained than the uninterrupted run paid —
# and still end byte-identical on stdout and every CSV.
(
  cd "$gate_dir"
  rm -rf ckpt && mkdir -p ckpt/ref ckpt/kill
  (
    cd ckpt/ref
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime > suite.out 2> suite.err
  )
  (
    cd ckpt/kill
    if EOS_FAULTS='train.epoch:2:abort' EOS_CACHE_DIR="$PWD/cache" "$suite_bin" \
        --scale smoke --seed 42 --datasets celeba --skip-runtime \
        > crash.out 2> crash.err; then
      echo "FAIL: the mid-training abort exited zero" >&2
      exit 1
    fi
    grep -q 'aborting process at train.epoch' crash.err || {
      echo "FAIL: the train.epoch abort never fired" >&2
      exit 1
    }
    # Resume on the same cache: the killed training restarts from its
    # epoch-2 checkpoint, not from scratch.
    EOS_CACHE_DIR="$PWD/cache" "$suite_bin" --scale smoke --seed 42 \
      --datasets celeba --skip-runtime > suite.out 2> suite.err
    loaded="$(grep -o 'checkpoints saved: [0-9]*, loaded: [0-9]*' suite.err | grep -o '[0-9]*$')"
    [ -n "$loaded" ] && [ "$loaded" -ge 1 ] || {
      echo "FAIL: resumed suite loaded no training checkpoint" >&2
      exit 1
    }
    ref_epochs="$(grep -o 'epochs trained: [0-9]*' ../ref/suite.err | grep -o '[0-9]*$')"
    res_epochs="$(grep -o 'epochs trained: [0-9]*' suite.err | grep -o '[0-9]*$')"
    [ -n "$ref_epochs" ] && [ -n "$res_epochs" ] \
      && [ "$res_epochs" -lt "$ref_epochs" ] || {
      echo "FAIL: resume retrained every epoch ($res_epochs vs $ref_epochs uninterrupted)" >&2
      exit 1
    }
  )
  cmp ckpt/ref/suite.out ckpt/kill/suite.out || {
    echo "FAIL: mid-training-resumed suite stdout differs from the uninterrupted run" >&2
    exit 1
  }
  for csv in ckpt/ref/results/*.csv; do
    cmp "$csv" "ckpt/kill/results/$(basename "$csv")" || {
      echo "FAIL: $(basename "$csv") differs after a mid-training kill + resume" >&2
      exit 1
    }
  done
)
echo "mid-training-kill gate: epoch-boundary abort resumed from its checkpoint byte-identically"

# Fault-storm gates: (a) a storm of deterministic single-shot transient
# faults — cache read, write and claim each failing once — is absorbed
# by the bounded retry policy with byte-identical output; (b) a
# persistent cell panic fails the table with a typed FAILURE REPORT and
# a nonzero exit, and a clean rerun heals byte-identically.
(
  cd "$gate_dir"
  rm -rf faults && mkdir -p faults/clean faults/storm faults/broken
  (
    cd faults/clean
    EOS_CACHE_DIR="$PWD/cache" "$table2_bin" --scale smoke --seed 42 \
      --datasets celeba > table2.out 2> table2.err
  )
  (
    cd faults/storm
    EOS_FAULTS='cache.read:2:io,cache.write:1:io,cache.claim:1:io' \
      EOS_CACHE_DIR="$PWD/cache" "$table2_bin" --scale smoke --seed 42 \
      --datasets celeba > table2.out 2> table2.err
    if grep -q 'faults injected: 0,' table2.err; then
      echo "FAIL: the fault storm injected nothing" >&2
      exit 1
    fi
    if grep -q 'io retries: 0,' table2.err; then
      echo "FAIL: the fault storm exercised no retries" >&2
      exit 1
    fi
  )
  cmp faults/clean/table2.out faults/storm/table2.out || {
    echo "FAIL: stdout differs under an absorbed fault storm" >&2
    exit 1
  }
  cmp faults/clean/results/table2.csv faults/storm/results/table2.csv || {
    echo "FAIL: table2.csv differs under an absorbed fault storm" >&2
    exit 1
  }
  (
    cd faults/broken
    if EOS_FAULTS='cell:table2:panic' EOS_CACHE_DIR="$PWD/cache" "$table2_bin" \
        --scale smoke --seed 42 --datasets celeba > broken.out 2> broken.err; then
      echo "FAIL: a persistently panicking table exited zero" >&2
      exit 1
    fi
    grep -q 'FAILURE REPORT' broken.err || {
      echo "FAIL: no structured failure report on stderr" >&2
      exit 1
    }
    grep -q 'task-panic' broken.err || {
      echo "FAIL: the panic did not surface as a typed task-panic" >&2
      exit 1
    }
    # The storm gone, the same cache dir heals to a clean run.
    EOS_CACHE_DIR="$PWD/cache" "$table2_bin" --scale smoke --seed 42 \
      --datasets celeba > table2.out 2> table2.err
  )
  cmp faults/clean/table2.out faults/broken/table2.out || {
    echo "FAIL: stdout differs after healing a panicking table" >&2
    exit 1
  }
  cmp faults/clean/results/table2.csv faults/broken/results/table2.csv || {
    echo "FAIL: table2.csv differs after healing a panicking table" >&2
    exit 1
  }
)
echo "fault-storm gate: transient storm absorbed, panic storm reported + healed byte-identically"

# Serving gate: the batched inference engine (whose differential and
# micro-batcher suites ran with the workspace tests above) must at least
# double single-request throughput at batch 32 on the 4-thread budget —
# serve_bench exits non-zero otherwise, and also self-validates that its
# results/TRACE_serve.json{,l} artifacts are byte-valid RFC 8259 JSON.
( cd "$gate_dir" && "$bin_dir/serve_bench" --smoke )
echo "serving gate: batching speedup >= 2x, trace JSON valid"
