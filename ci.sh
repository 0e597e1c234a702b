#!/usr/bin/env bash
# The conformance gates every PR must pass, runnable locally.
#
#   ./ci.sh [gate|analysis|all]   (default: gate)
#
#   gate     — formatting, release build, full test suite (which drives
#              the shipped `polinv` binary end to end over real sockets:
#              crates/bench/tests/polinv_cli.rs, and runs the
#              fault-injected chaos suites: test builds compile the
#              failpoints in), a check that the release `polinv` carries
#              no failpoint, xtask lint, the workspace's deny-level
#              clippy lints, rustdoc with its warnings denied, the
#              quickstart example README.md quotes, the two wire
#              examples (decode_nmea, pol-ais' wire_throughput), pol-stream's
#              recovery_phases (a crash recovered to byte identity),
#              pol-serve's heavy_frame (ns per child of a heavy frame), the paper's
#              experiments (`polinv repro all`: every claim checked, the
#              committed figures/ regenerated byte for byte) and the
#              repository's benchmark as a smoke on all four workloads.
#              Tier-1: must pass on stable, fully offline.
#   analysis — the dynamic checkers: loom model checking of the serve
#              primitives, Miri on the codec property tests, ASan on
#              the mmap suite, the CRC-64 kernels and the columnar
#              codec (the snapshot encoder's helper threads), TSan on
#              the loopback server tests, the journal's recovery suite
#              (the writer's I/O thread) and the columnar codec.
#              Checkers whose toolchain components are unavailable in
#              this container skip LOUDLY with the reason; the pinned
#              CI job runs them for real. See analysis/README.md.
#
# See DESIGN.md §6 "Correctness tooling" for what each layer proves.
set -euo pipefail
cd "$(dirname "$0")"

# The nightly toolchain used by Miri and the sanitizers. CI pins an
# exact date via POL_NIGHTLY so sanitizer behaviour cannot drift.
NIGHTLY="${POL_NIGHTLY:-nightly}"

# One metric's value out of polbench's result line (empty when absent).
bench_row() {
  grep -oE "\"$1\": \{\"value\": [0-9.e-]+" <<<"$bench_result" | sed 's/.*: //' || true
}

# The repository's benchmark as a gate, not as a measurement: two traced
# seconds of one workload on a seed the committed numbers do not use.
# The last line polbench prints is the machine-readable result; every
# further argument is a fragment it must contain, after the two every
# workload owes: all outputs checked correct, no operation failed.
bench_smoke() {
  local workload="$1" want
  shift
  bench_result=$(bash benchmark/run.sh --workload "$workload" --seed 2 --seconds 2 --trace 1 | tail -n 1)
  # Echoed before the checks: a stolen CPU tells a throttled box from a
  # real failure when the stage goes red.
  echo "bench-smoke: $workload proc.steal_share=$(bench_row proc.steal_share)"
  for want in '"correct": true,' '"failed": 0,' "$@"; do
    if ! grep -qF -- "$want" <<<"$bench_result"; then
      echo "ci: bench-smoke $workload result lacks $want" >&2
      exit 1
    fi
  done
  echo "bench-smoke: $workload $(grep -oE '"attempted": [0-9]+' <<<"$bench_result") checks passed"
}

run_gate() {
  echo "==> cargo fmt --all --check"
  cargo fmt --all --check

  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test --workspace -q"
  cargo test --workspace -q

  # Only dev-dependencies turn on `pol-chaos/failpoints`, so the release
  # `polinv` must hold none of the registry's strings (a failpoint name,
  # a Kill's panic message). The `polinv` the tests built must hold
  # both, or this check could no longer see a failpoint.
  echo "==> the release polinv carries no failpoint"
  local target="${CARGO_TARGET_DIR:-target}" needle
  for needle in 'codec.save.write' 'killed this worker'; do
    if grep -qaF -- "$needle" "$target/release/polinv"; then
      echo "ci: $target/release/polinv contains \"$needle\": a failpoint reached the release build" >&2
      exit 1
    fi
    if ! grep -qaF -- "$needle" "$target/debug/polinv"; then
      echo "ci: $target/debug/polinv lacks \"$needle\": the failpoint check can no longer tell" >&2
      exit 1
    fi
  done

  echo "==> cargo run -p xtask -- lint"
  cargo run -q -p xtask -- lint

  # The clippy lints `[workspace.lints.clippy]` denies (todo,
  # unimplemented, dbg_macro, mem_forget, exit). No `-D warnings`: the
  # stage fails on exactly those. The vendored loom, a path dependency,
  # is linted with the crates that use it.
  echo "==> cargo clippy (the workspace's deny-level lints)"
  cargo clippy --workspace --all-targets --exclude loom --exclude proptest

  # A deleted or private item must not leave a dangling intra-doc link.
  echo "==> cargo doc (rustdoc warnings denied)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude loom --exclude proptest

  # cargo test compiles the examples but never runs them; README.md
  # quotes this one's output.
  echo "==> cargo run --release --example quickstart"
  cargo run -q --release --example quickstart

  # Likewise run, not only compiled: the wire walk-through (a documented
  # sentence, a round trip, a type 5 reassembled) and the wire front's
  # ns per line for parse, assemble and decode.
  echo "==> cargo run --release --example decode_nmea"
  cargo run -q --release --example decode_nmea
  echo "==> cargo run --release -p pol-ais --example wire_throughput"
  cargo run -q --release -p pol-ais --example wire_throughput
  # A crash at 62.5 % of polbench's feed, recovered: prints where the
  # recovery's time went and asserts the recovered run closes to an
  # uninterrupted run's bytes. No time is checked.
  echo "==> cargo run --release -p pol-stream --example recovery_phases"
  cargo run -q --release -p pol-stream --example recovery_phases
  # What each child of a serve_heavy frame costs the worker, in process,
  # off a mapped fleetsim snapshot. No time is checked.
  echo "==> cargo run --release -p pol-serve --example heavy_frame"
  cargo run -q --release -p pol-serve --example heavy_frame

  echo "==> polinv repro all (every paper claim holds; figures/ regenerates unchanged)"
  cargo run -q --release -p pol-bench --bin polinv -- repro all --out figures
  git diff --exit-code -- figures/

  echo "==> bench-smoke (polbench, traced, every output byte-checked against the Inventory oracle)"
  # Wire bytes in to first answer served; no line fails to decode. The
  # build's decisions at polbench's scale, from decoded wire bytes: the
  # records that survive cleaning, the points of the trips extracted and
  # the snapshot's bytes. Counts of a deterministic build, pinned where
  # the per-record fast paths were added: a fast path that decided one
  # report otherwise than the general path moves one of them.
  bench_smoke batch_build '"ais.decode_failures": {"value": 0,' \
    '"core.records_cleaned": {"value": 359022,' \
    '"core.trip_points": {"value": 38579,' \
    '"codec.snapshot_bytes": {"value": 2484898,'
  # Bytes allocated per record built, over the traced repetitions: a
  # summary is allocated once and then moved as a pointer, holds inline
  # only its common case, and a record is enriched where it was decoded
  # (1 367 when every layer of the build moved its 2 KB by value, 345
  # after, 284 with the split encode, 165 with the 800-byte summary and
  # the in-place scan; the bound is 2x that). A byte count: it does not
  # depend on the box's mood.
  bench_alloc=$(bench_row proc.alloc_bytes_per_op)
  if ! awk -v b="${bench_alloc:-330}" 'BEGIN { exit !(b < 330) }'; then
    echo "ci: bench-smoke proc.alloc_bytes_per_op=${bench_alloc:-missing}, want < 330" >&2
    exit 1
  fi
  # Snapshot bytes per entry: DESIGN §7 "What a POLINV4 entry holds"
  # tables 207.1 B on this image; more than 2 % over it means a field
  # grew. A byte count of a deterministic build.
  bench_entry=$(bench_row codec.bytes_per_entry)
  if ! awk -v b="${bench_entry:-1e9}" 'BEGIN { exit !(b <= 207.1 * 1.02) }'; then
    echo "ci: bench-smoke codec.bytes_per_entry=${bench_entry:-missing}, want <= 211.2 (DESIGN §7 table + 2 %)" >&2
    exit 1
  fi
  # The write side as one process-level pass: WAL, checkpoints, window
  # cuts, hot reload, crash image, recovery, and byte identity with the
  # batch oracle are each one of the checks counted in "attempted".
  # The checkpoint file is the head alone — scalars and reorder buffers;
  # what grows with the state is appended to the log beside it. A byte
  # count: it does not depend on the box's mood.
  bench_smoke stream_ingest
  bench_head=$(bench_row stream.checkpoint_bytes)
  if ! awk -v b="${bench_head:-262144}" 'BEGIN { exit !(b < 262144) }'; then
    echo "ci: bench-smoke stream.checkpoint_bytes=${bench_head:-missing}, want < 262144" >&2
    exit 1
  fi
  # Every checkpoint deletes the journal segments it covers, so what the
  # pass leaves is the tail recovery reads: one whole 8 MiB segment over
  # the feed's 359 k records would be 23.4 B a record (51.0 when nothing
  # was purged, 4.3 measured since). A byte count: it does not depend
  # on the box's mood.
  bench_wal=$(bench_row stream.wal_bytes_per_record)
  if ! awk -v b="${bench_wal:-25}" 'BEGIN { exit !(b < 25) }'; then
    echo "ci: bench-smoke stream.wal_bytes_per_record=${bench_wal:-missing}, want < 25" >&2
    exit 1
  fi
  # The server child answers point, segment and route summaries on its
  # event loop: nothing is shed and next to no request wakes the loop
  # through the eventfd. The wakeup row is a ratio of two STATS
  # counters: it does not depend on the box's mood.
  bench_smoke serve_lookup '"serve.busy": {"value": 0,' '"serve.shed_at_loop": {"value": 0,'
  bench_wakeups=$(bench_row serve.wakeups_per_request)
  if ! awk -v w="${bench_wakeups:-1}" 'BEGIN { exit !(w < 0.05) }'; then
    echo "ci: bench-smoke serve.wakeups_per_request=${bench_wakeups:-missing}, want < 0.05" >&2
    exit 1
  fi
  # BATCHx32 frames of scans, ETA and prediction through the worker
  # pool: a scan is written from where it was sorted, and an ETA or a
  # prediction reads its fields off the mapped bytes, ranks in place and
  # writes its reply where it goes, so a frame allocates for decoding its
  # request and little else (473 allocations a frame when every lookup
  # decoded a whole summary and every scan went through four lists and a
  # cache, 119 when the estimators still built sketches and vectors, 16
  # since). A count: it does not depend on the box's mood.
  bench_smoke serve_heavy
  bench_allocs=$(bench_row proc.allocs_per_kop)
  if ! awk -v a="${bench_allocs:-25000}" 'BEGIN { exit !(a < 25000) }'; then
    echo "ci: bench-smoke proc.allocs_per_kop=${bench_allocs:-missing}, want < 25000" >&2
    exit 1
  fi

  echo "ci: gate passed"
}

# Prints a loud, documented skip. Every skip names its checker, the
# missing prerequisite, and where the checker does run for real — a
# silent skip is indistinguishable from a pass, so none are allowed.
skip() {
  local checker="$1" reason="$2"
  echo "ci: SKIP $checker — $reason" >&2
  echo "ci: SKIP $checker — runs in the pinned CI analysis job; see analysis/README.md" >&2
}

run_analysis() {
  echo "==> loom self-tests (the checker must catch planted bugs)"
  cargo test -q -p loom

  echo "==> loom models of the serve primitives (RUSTFLAGS=--cfg loom)"
  RUSTFLAGS="--cfg loom" cargo test -q -p pol-serve --test loom_models

  echo "==> Miri on the codec property tests (PROPTEST_CASES=4)"
  if cargo "+$NIGHTLY" miri --version >/dev/null 2>&1; then
    # Shrunk case counts: Miri executes ~100x slower than native, and
    # the UB surface does not grow with the number of random inputs.
    # Miri reports one CPU unless told otherwise, and `to_bytes` cuts
    # a section of 2 048 entries or more into one piece per CPU at most:
    # four CPUs give the suite's 2 053-entry section a helper thread.
    PROPTEST_CASES=4 MIRIFLAGS="-Zmiri-num-cpus=4" cargo "+$NIGHTLY" miri test -q \
      -p pol-core --test codec_columnar
    # wire_canonical holds the word-at-a-time varint kernels (unaligned
    # word loads off a byte slice) to the byte loop.
    PROPTEST_CASES=4 cargo "+$NIGHTLY" miri test -q \
      -p pol-sketch --test wire_canonical --test merge_laws
  else
    skip "miri" "the miri component is not installed for $NIGHTLY (offline container)"
  fi

  host=$(rustc "+$NIGHTLY" -vV 2>/dev/null | sed -n 's/^host: //p' || true)
  if [ -z "$host" ]; then
    skip "asan" "no $NIGHTLY toolchain available"
    skip "tsan" "no $NIGHTLY toolchain available"
  else
    echo "==> AddressSanitizer on the mmap test suite, the CRC-64 kernels and the columnar codec ($host)"
    # --target keeps build scripts and proc macros uninstrumented; the
    # suppression file is policy-empty (see analysis/README.md). The CRC
    # suite drives the carry-less kernel's unaligned 16-byte loads at
    # every start alignment and every length up to 1 100 bytes; the
    # codec suite runs `to_bytes`' helper threads, each encoding its
    # piece of a section into a buffer of its own.
    RUSTFLAGS="-Zsanitizer=address" \
    ASAN_OPTIONS="suppressions=$PWD/analysis/asan.supp" \
    LSAN_OPTIONS="suppressions=$PWD/analysis/asan.supp" \
      cargo "+$NIGHTLY" test -q -p pol-serve --test mapped \
      -p pol-sketch --test crc64_reference \
      -p pol-core --test codec_columnar --target "$host"

    echo "==> ThreadSanitizer on the serve loopback tests, the journal recovery suite and the columnar codec"
    if rustup component list --toolchain "$NIGHTLY" 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
      # -Zbuild-std instruments std itself; without it TSan reports
      # false races against std's futex internals (analysis/README.md,
      # skip condition 2) so we refuse to run that configuration.
      RUSTFLAGS="-Zsanitizer=thread" \
      TSAN_OPTIONS="suppressions=$PWD/analysis/tsan.supp" \
        cargo "+$NIGHTLY" test -q -Zbuild-std \
        -p pol-serve --test loopback --target "$host"
      # pol-stream's one thread: the journal writer's I/O thread, under
      # the kill-point sweep and the cadence permutations.
      RUSTFLAGS="-Zsanitizer=thread" \
      TSAN_OPTIONS="suppressions=$PWD/analysis/tsan.supp" \
        cargo "+$NIGHTLY" test -q -Zbuild-std \
        -p pol-stream --test recovery --target "$host"
      # The snapshot encoder's scoped helper threads, which read the
      # shared summaries while the calling thread encodes beside them.
      RUSTFLAGS="-Zsanitizer=thread" \
      TSAN_OPTIONS="suppressions=$PWD/analysis/tsan.supp" \
        cargo "+$NIGHTLY" test -q -Zbuild-std \
        -p pol-core --test codec_columnar --target "$host"
    else
      skip "tsan" "the rust-src component is not installed for $NIGHTLY (needed for -Zbuild-std; offline container)"
    fi
  fi

  echo "ci: analysis passed (skips, if any, are listed above)"
}

stage="${1:-gate}"
case "$stage" in
  gate) run_gate ;;
  analysis) run_analysis ;;
  all)
    run_gate
    run_analysis
    ;;
  *)
    echo "usage: ./ci.sh [gate|analysis|all]" >&2
    exit 2
    ;;
esac

echo "ci: all requested stages passed"
