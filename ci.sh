#!/usr/bin/env bash
# Tier-1 verification: lint, then build + full test suite in five configs —
# plain Release, AddressSanitizer + UBSan (PMEMCPY_SANITIZE), the
# persistency-order checker build (PMEMCPY_PERSIST_CHECK, with violations
# fatal so any unconsumed finding fails the suite), the tracing build
# (PMEMCPY_TRACE, every test with the observability layer recording), and
# the fault config (the self-healing sweeps under all three instrumentation
# layers at once, DESIGN.md §10) — plus a ThreadSanitizer config over the
# rank-threaded tests that are race-free today.
#
#   ./ci.sh            # all configs
#   ./ci.sh release    # release only
#   ./ci.sh sanitize   # sanitizers only
#   ./ci.sh checker    # persist-checker config only
#   ./ci.sh trace      # tracing-enabled config only
#   ./ci.sh fault      # fault-injection sweep config only
#   ./ci.sh tsan       # ThreadSanitizer config only
set -euo pipefail
cd "$(dirname "$0")"

# Library line counts (scripts/loc.sh), measured once and written next to
# each config's audit artifacts as BENCH_loc.json.
LOC_JSON="$(scripts/loc.sh)"

run_config() {
  local name="$1"
  shift
  local dir="build-ci-${name}"
  echo "==== [${name}] lint ===="
  # pmemlint gates every config before the build; the JSON report is the
  # config's lint artifact.  Any non-baselined finding fails the run.
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "${LOC_JSON}" > "${dir}/BENCH_loc.json"
  echo "==== [${name}] configure ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j"$(nproc)"
  echo "==== [${name}] test ===="
  # CTEST_ENV: extra KEY=VAL pairs exported into the test processes.  The
  # full suite is the tier1 label (every test carries it; crash/fault/
  # property sub-labels select subsets, see tests/CMakeLists.txt).
  env ${CTEST_ENV:-} ctest --test-dir "${dir}" --output-on-failure \
    -j"$(nproc)" -L tier1
  echo "==== [${name}] flush audit ===="
  # Deterministic flush/fence counts; fails if any phase's CLWB or SFENCE
  # traffic regressed past the checked-in baseline (see bench/flush_audit.cpp).
  "${dir}/bench/flush_audit" --json "${dir}/BENCH_flush_audit.json" \
    --baseline bench/flush_audit_baseline.json
  echo "==== [${name}] copy audit ===="
  # Zero-copy gate (DESIGN.md §12): pMEMCPY puts must stage zero DRAM bytes
  # while the staging ablation and the miniio baselines must report their
  # staging passes; the baseline catches copy.staged growth anywhere.
  "${dir}/bench/copy_audit" --json "${dir}/BENCH_copy_audit.json" \
    --baseline bench/copy_audit_baseline.json
  echo "==== [${name}] alloc audit ===="
  # Allocator hot-path gate (DESIGN.md §14): magazines + metadata stripes
  # must keep pool lane acquisitions and queue charges per put at least 4x
  # below the classic serialized path at 24 ranks; the baseline catches any
  # regrowth of lock traffic or metadata persists.
  "${dir}/bench/alloc_audit" --json "${dir}/BENCH_alloc_audit.json" \
    --baseline bench/alloc_audit_baseline.json
}

run_checker_config() {
  CTEST_ENV="PMEMCPY_PERSIST_CHECK=1 PMEMCPY_PERSIST_CHECK_FATAL=1" \
    run_config checker -DCMAKE_BUILD_TYPE=Release -DPMEMCPY_PERSIST_CHECK=ON
}

run_trace_config() {
  # Spans are pure observers of the simulated clock, so this config also
  # proves that recording changes no timing, flush or fence number: the
  # flush-audit baseline gate inside run_config runs with tracing live.
  CTEST_ENV="PMEMCPY_TRACE=1" \
    run_config trace -DCMAKE_BUILD_TYPE=Release -DPMEMCPY_TRACE=ON
}

run_fault_config() {
  # Self-healing data path (DESIGN.md §10): the fault-matrix + scrub-corpus
  # sweeps under every instrumentation layer at once — ASan/UBSan catch any
  # unwinding bug in the retry/rollback paths, the persistency-order checker
  # proves zero violations while faults fire, tracing records the ft.*
  # counters the tests assert on.  The suites arm their own seeded fault
  # plans; the env-armed smoke then exercises the PMEMCPY_FAULT_* path with
  # transient-only faults that the default retry budget must heal invisibly
  # under an unmodified example.
  local dir="build-ci-fault"
  echo "==== [fault] lint ===="
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "${LOC_JSON}" > "${dir}/BENCH_loc.json"
  echo "==== [fault] configure ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPMEMCPY_SANITIZE=ON -DPMEMCPY_PERSIST_CHECK=ON -DPMEMCPY_TRACE=ON
  echo "==== [fault] build ===="
  cmake --build "${dir}" -j"$(nproc)"
  echo "==== [fault] fault-matrix + scrub-corpus sweep ===="
  # Selected by ctest label (tests/CMakeLists.txt tags fault_matrix_test and
  # scrub_corpus_test with "fault"), so new fault suites join the sweep by
  # adding the label instead of editing this regex.
  env PMEMCPY_PERSIST_CHECK=1 PMEMCPY_TRACE=1 \
    ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)" \
    -L fault
  echo "==== [fault] env-armed smoke ===="
  env PMEMCPY_FAULT_RATE=0.001 PMEMCPY_FAULT_SEED=7 \
    "${dir}/examples/quickstart" >/dev/null
  echo "==== [fault] flush audit (injection disabled) ===="
  # The baseline gate stays env-free: with injection disabled the build must
  # be flush-for-flush identical to an uninstrumented one.
  "${dir}/bench/flush_audit" --json "${dir}/BENCH_flush_audit.json" \
    --baseline bench/flush_audit_baseline.json
  echo "==== [fault] copy audit (injection disabled) ===="
  "${dir}/bench/copy_audit" --json "${dir}/BENCH_copy_audit.json" \
    --baseline bench/copy_audit_baseline.json
  echo "==== [fault] alloc audit (injection disabled) ===="
  "${dir}/bench/alloc_audit" --json "${dir}/BENCH_alloc_audit.json" \
    --baseline bench/alloc_audit_baseline.json
}

# Tests that run under ThreadSanitizer.  Left out until their races are
# fixed (ROADMAP item 3): core_property_test, hashtable_test, pmemobj_test,
# stress_test.
TSAN_TESTS=(par_test engine_property_test fault_matrix_test
  persist_checker_test pmemdev_test)

run_tsan_config() {
  # No CMake option: the flags ride in the compiler and linker flags.
  local dir="build-ci-tsan"
  local flags="-fsanitize=thread -fno-omit-frame-pointer"
  echo "==== [tsan] lint ===="
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "${LOC_JSON}" > "${dir}/BENCH_loc.json"
  echo "==== [tsan] configure ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_C_FLAGS="${flags}" -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
  echo "==== [tsan] build ===="
  cmake --build "${dir}" -j"$(nproc)" --target "${TSAN_TESTS[@]}"
  echo "==== [tsan] test ===="
  # detect_deadlocks=0: publish_group and HashTable::for_each hold more than
  # 64 mutexes at once, past the deadlock detector's limit.  Any race
  # report makes the test exit nonzero.
  local regex
  regex="^($(IFS='|'; echo "${TSAN_TESTS[*]}"))\$"
  env TSAN_OPTIONS="detect_deadlocks=0" \
    ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)" -R "${regex}"
}

what="${1:-all}"

case "${what}" in
  release)
    run_config release -DCMAKE_BUILD_TYPE=Release
    ;;
  sanitize)
    run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMEMCPY_SANITIZE=ON
    ;;
  checker)
    run_checker_config
    ;;
  trace)
    run_trace_config
    ;;
  fault)
    run_fault_config
    ;;
  tsan)
    run_tsan_config
    ;;
  all)
    run_config release -DCMAKE_BUILD_TYPE=Release
    run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMEMCPY_SANITIZE=ON
    run_checker_config
    run_trace_config
    run_fault_config
    run_tsan_config
    ;;
  *)
    echo "usage: $0 [release|sanitize|checker|trace|fault|tsan|all]" >&2
    exit 2
    ;;
esac

echo "==== all configs green ===="
