#!/usr/bin/env bash
# The repo's static-analysis gate, in one entry point:
#
#   1. nmc_lint        — determinism/hygiene invariants (tools/nmc_lint)
#   2. clang-format    — check-only, via scripts/check_format.sh
#   3. clang-tidy      — curated .clang-tidy over every built TU
#   4. -Werror build   — strengthened warning set (NMC_WERROR=ON)
#   5. sanitizer matrix — full ctest under address, undefined, thread
#
# Usage: scripts/run_static_analysis.sh [--skip-sanitizers] [--jobs=N]
#   --skip-sanitizers  stop after stage 4 (the three sanitizer builds are
#                      the expensive part; CI runs them as separate jobs)
#   --jobs=N           parallel build/test jobs (default: nproc)
#
# Stages that need a missing tool (clang-format, clang-tidy) are SKIPPED
# with a note — a missing binary is an environment property, not a lint
# failure. Everything else is a hard gate.
#
# Exit codes (first failing stage wins):
#   0  every stage passed or was skipped for a missing tool
#   1  nmc_lint findings
#   2  usage error / build of the lint tool itself failed
#   3  clang-format differences
#   4  clang-tidy findings
#   5  -Werror build failed (new warnings)
#   6  a sanitizer build or its ctest run failed
#   7  (retired; the numbers after it keep their meaning)
#   8  the full-repo lint took longer than the 30 s budget — the lint is
#      meant to be cheap enough to run on every commit; a blowup here is a
#      performance regression in the linter
#   9  the nmc_race model-check gate failed: a litmus test found a
#      reachable violation / lost a pinned outcome, the exploration
#      budget ran out, or a weakened memory order survived the mutation
#      matrix (the failing run prints a `repro:` replay command)

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

JOBS="$(nproc)"
SKIP_SANITIZERS=0
for arg in "$@"; do
  case "${arg}" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== stage 1: nmc_lint =="
cmake -B build -S . > /dev/null || exit 2
cmake --build build -j "${JOBS}" --target nmc_lint > /dev/null || exit 2
# One text pass under a wall-clock budget: the lint must stay fast enough
# for pre-commit.
LINT_BUDGET_SECONDS=30
lint_start="$(date +%s)"
./build/tools/nmc_lint/nmc_lint --root="${REPO_ROOT}" \
    --compile-commands=build/compile_commands.json || exit 1
lint_elapsed="$(( $(date +%s) - lint_start ))"
echo "nmc_lint took ${lint_elapsed}s"
if [[ "${lint_elapsed}" -gt "${LINT_BUDGET_SECONDS}" ]]; then
  echo "nmc_lint: full-repo lint took ${lint_elapsed}s" \
       "(budget ${LINT_BUDGET_SECONDS}s)" >&2
  exit 8
fi

echo "== stage 1b: nmc_race (deterministic model check) =="
# The litmus suite pins exact outcome sets over the lock-free primitives;
# the mutation matrix weakens every named memory order in turn and
# requires a replay-confirmed kill. Both are exhaustive, bounded searches
# — deterministic, so a failure here always comes with a replayable
# schedule (DESIGN.md §13).
cmake --build build -j "${JOBS}" --target nmc_race > /dev/null || exit 2
./build/tools/nmc_race/nmc_race --test=all || exit 9
./build/tools/nmc_race/nmc_race --mutate=all || exit 9

echo "== stage 2: clang-format (check only) =="
scripts/check_format.sh || exit 3

echo "== stage 3: clang-tidy =="
if command -v clang-tidy > /dev/null 2>&1; then
  mapfile -t tus < <(git ls-files 'src/**' 'bench/**' 'tests/**' 'tools/**' \
                     | grep -E '\.(cc|cpp)$' | grep -v '/testdata/')
  if command -v run-clang-tidy > /dev/null 2>&1; then
    run-clang-tidy -p build -quiet "${tus[@]}" || exit 4
  else
    clang-tidy -p build --quiet "${tus[@]}" || exit 4
  fi
else
  echo "clang-tidy: SKIP (not installed)" >&2
fi

echo "== stage 4: -Werror build (strengthened warning set) =="
cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release -DNMC_WERROR=ON \
    > /dev/null || exit 5
cmake --build build-werror -j "${JOBS}" || exit 5

if [[ "${SKIP_SANITIZERS}" -eq 1 ]]; then
  echo "== sanitizer matrix skipped (--skip-sanitizers) =="
  echo "static analysis: all enabled stages clean"
  exit 0
fi

echo "== stage 5: sanitizer matrix (full ctest) =="
for sanitizer in address undefined thread; do
  echo "-- NMC_SANITIZE=${sanitizer} --"
  case "${sanitizer}" in
    address) dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread) dir=build-tsan ;;  # PR 1 naming
  esac
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DNMC_SANITIZE="${sanitizer}" > /dev/null || exit 6
  cmake --build "${dir}" -j "${JOBS}" > /dev/null || exit 6
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}") || exit 6
done

echo "static analysis: all stages clean"
exit 0
