#!/usr/bin/env bash
# Fast pre-commit gate: nmc_lint over the whole repo plus the clang-format
# check over the files staged for commit. Install with
#
#   ln -s ../../scripts/pre-commit.sh .git/hooks/pre-commit
#
# or run it by hand before committing. The lint is one repo run: every rule
# (the token-pattern rules, the atomics discipline, the mutable-state
# rule, the include-graph layering) over every file, which covers the
# staged files and is sub-second, well inside the 30 s budget
# run_static_analysis.sh enforces.
#
# Exit codes: 0 = clean (or nothing staged), 1 = findings or format diffs,
#             2 = the lint tool would not build.

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

mapfile -t staged < <(git diff --cached --name-only --diff-filter=ACMR \
                      | grep -E '\.(h|hpp|cc|cpp)$' | grep -v '/testdata/' \
                      || true)
if [[ "${#staged[@]}" -eq 0 ]]; then
  echo "pre-commit: no staged C++ files"
  exit 0
fi

cmake -B build -S . > /dev/null || exit 2
cmake --build build -j "$(nproc)" --target nmc_lint > /dev/null || exit 2

status=0
./build/tools/nmc_lint/nmc_lint --root="${REPO_ROOT}" || status=1
scripts/check_format.sh "${staged[@]}" || status=1
exit "${status}"
