#!/usr/bin/env bash
#
# run_analysis.sh - the correctness-tooling gauntlet.
#
# Runs the source lint (tools/fp_lint.py and its self-tests), the Clang
# thread-safety analysis build (-Werror=thread-safety over the
# common/sync.h annotations, see docs/thread_safety.md), builds the
# simulator under AddressSanitizer and UndefinedBehaviorSanitizer (with
# FP_CHECK invariants and -Werror enabled), runs the tier-1 test suite
# under each, runs the concurrency tests (`ctest -L threadsafe`) under
# ThreadSanitizer, replays example traces through `fptrace racecheck`
# (same-tick race detection + schedule-perturbation digest diff, see
# docs/determinism.md), and finishes with a clang-tidy sweep over src/.
# Any failure fails the script.
#
# Usage:
#   tools/run_analysis.sh              # full gauntlet
#   tools/run_analysis.sh --fast       # lint + thread-safety + ASan
#   FP_ANALYSIS_JOBS=4 tools/run_analysis.sh
#
# The clang-based stages (thread-safety build, clang-tidy) are skipped
# with a warning when the binaries are absent (the sanitizer stages
# still gate) -- unless FP_ANALYSIS_REQUIRE_TIDY=1, which CI sets to
# make a missing clang-tidy a hard failure instead of silent coverage
# loss.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="${FP_ANALYSIS_JOBS:-2}"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

bold() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }

run_sanitizer_stage() {
    local preset="$1"
    local build_dir="build-${preset}"

    bold "configure + build: ${preset} (FP_CHECK=ON, FP_WERROR=ON)"
    cmake --preset "${preset}"
    cmake --build "${build_dir}" -j "${jobs}"

    bold "tier-1 tests under ${preset}"
    # halt_on_error: make UBSan findings fail the test run rather than
    # scroll past; ASan aborts on error by default.
    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
        ctest --test-dir "${build_dir}" -L tier1 -j "${jobs}" \
              --output-on-failure
}

bold "determinism + thread-safety lint (tools/fp_lint.py)"
python3 tools/fp_lint.py --root "${repo_root}"

bold "lint self-tests (fp_lint_test.py)"
python3 tools/fp_lint_test.py

# Clang thread-safety analysis: the whole tree under
# -Wthread-safety -Werror=thread-safety (the thread-safety preset sets
# clang++; CMakeLists adds the flags for any Clang). Runs in --fast
# too: it is a compile-only gate and the cheapest way to catch an
# unlocked FP_GUARDED_BY access.
bold "clang thread-safety analysis build"
if command -v clang++ >/dev/null 2>&1; then
    cmake --preset thread-safety
    cmake --build build-thread-safety -j "${jobs}"
else
    echo "warning: clang++ not installed; skipping thread-safety" >&2
    echo "         analysis build (CI runs it; see ci.yml)" >&2
fi

run_sanitizer_stage asan
if [[ "${fast}" -eq 0 ]]; then
    run_sanitizer_stage ubsan

    bold "configure + build: tsan"
    cmake --preset tsan
    cmake --build build-tsan -j "${jobs}"

    bold "concurrency tests under ThreadSanitizer (-L threadsafe)"
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan -L threadsafe -j "${jobs}" \
              --output-on-failure

    # Racecheck under the ASan binary: the detector watches every run
    # and the perturbed schedules double as sanitizer coverage of the
    # tie-break machinery. Small scales keep the 4x replay cheap.
    bold "schedule racecheck on example traces (ASan build)"
    fptrace="build-asan/tools/fptrace"
    racecheck_dir="$(mktemp -d)"
    trap 'rm -rf "${racecheck_dir}"' EXIT
    for workload in jacobi sssp; do
        "${fptrace}" generate "${workload}" \
            "${racecheck_dir}/${workload}.fpt" --scale 0.05
        for paradigm in finepack write-combine; do
            "${fptrace}" racecheck "${racecheck_dir}/${workload}.fpt" \
                --paradigm "${paradigm}" --seeds 4
        done
    done
fi

if [[ "${fast}" -eq 1 ]]; then
    bold "fast mode: skipping UBSan, TSan, racecheck, and clang-tidy"
    exit 0
fi

bold "clang-tidy over src/ and tools/"
if ! command -v clang-tidy >/dev/null 2>&1; then
    if [[ "${FP_ANALYSIS_REQUIRE_TIDY:-0}" == "1" ]]; then
        echo "error: clang-tidy not installed but" >&2
        echo "       FP_ANALYSIS_REQUIRE_TIDY=1 (CI requires the" >&2
        echo "       stage; install clang-tidy)" >&2
        exit 1
    fi
    echo "warning: clang-tidy not installed; skipping lint stage" >&2
    echo "         (sanitizer stages above still gate;" >&2
    echo "         set FP_ANALYSIS_REQUIRE_TIDY=1 to hard-fail)" >&2
    exit 0
fi

# clang-tidy needs a compilation database; reuse the default build tree.
tidy_dir="build"
if [[ ! -f "${tidy_dir}/compile_commands.json" ]]; then
    cmake -B "${tidy_dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
fi

mapfile -t sources < <(find src tools -name '*.cc' -o -name '*.cpp' | sort)
clang-tidy -p "${tidy_dir}" --quiet --warnings-as-errors='' \
    "${sources[@]}"

bold "analysis gauntlet passed"
