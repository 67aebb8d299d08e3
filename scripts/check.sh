#!/usr/bin/env bash
# One-command pre-merge gate, four tiers:
#
#   1. default  — -Werror build + full test suite (includes the lint
#                 self-tests and the tree-is-lint-clean gate)
#   2. lint     — llm4d_lint over src/ bench/ examples/ tests/ tools/
#                 (determinism rules + layer-DAG / include-cycle / RNG
#                 stream registry passes, with a per-rule summary
#                 table), plus clang-tidy over the compile database
#                 when clang-tidy is installed (skipped with a note
#                 otherwise)
#   3. sanitize — ASan + UBSan + float-divide-by-zero build, all tests
#   4. audit    — runtime invariant auditor build (-DLLM4D_AUDIT=ON),
#                 all tests + the audit death tests
#
#   ./scripts/check.sh          # all four tiers
#   ./scripts/check.sh --fast   # tier 1 + lint only
#   ./scripts/check.sh --lint   # lint only (assumes an existing build/)
#   ./scripts/check.sh --golden # bench and example stdout (and the two
#                               # goodput benches' --smoke output) vs the
#                               # bench/golden/ and examples/golden/ captures
#   ./scripts/check.sh --perfbench # perfbench/ build, unit tests, and a
#                               # 0.1 s correctness run per workload
#
# Suites also carry ctest labels for targeted runs from build/:
#   ctest -L plan | -L fault | -L sim | -L net    # one subsystem's suite
#
# Exits non-zero on the first failing build, test, or lint finding.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
lint_only=0
golden_only=0
perfbench_only=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    --lint) lint_only=1 ;;
    --golden) golden_only=1 ;;
    --perfbench) perfbench_only=1 ;;
    *)
        echo "usage: $0 [--fast|--lint|--golden|--perfbench]" >&2
        exit 2
        ;;
    esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

run_lint() {
    echo "== lint: llm4d_lint (determinism + architecture rules) =="
    if [[ ! -x build/tools/lint/llm4d_lint ]]; then
        cmake --preset default -DLLM4D_WERROR=ON
        cmake --build --preset default -j "${jobs}" --target llm4d_lint
    fi
    # --summary prints the per-rule violation-count table at the end.
    ./build/tools/lint/llm4d_lint --root . --summary

    if command -v clang-tidy > /dev/null 2>&1; then
        echo "== lint: clang-tidy (.clang-tidy profile) =="
        # The compile database is exported by every configure; lint the
        # library and tool sources (tests inherit the same headers).
        find src tools -name '*.cc' -print0 |
            xargs -0 -P "${jobs}" -n 8 clang-tidy -p build --quiet
    else
        echo "== lint: clang-tidy not installed; skipping tidy pass =="
    fi
}

# The deterministic benches: their stdout must match the checked-in
# captures byte for byte, so a refactor that claims bit-identical output
# is checked mechanically. All run in under a second except
# bench_goodput (~1 s) and bench_goodput_planner (~2.5 s), the only two
# that run TrainRunSim. Regenerate a capture only with a change that is
# meant to move the numbers, and say why.
golden_benches=(
    bench_fig3_nc_sweep bench_fig4_grad_memory bench_fig9_pp_schedules
    bench_fig10_balanced_pp bench_fig11_cp_hfu bench_fig13_cp_vs_ring
    bench_fig14_imbalance bench_sec52_ordering bench_table2_planner
    bench_tp_ablation bench_section8_hw bench_multimodal_encoder
    bench_e2e_throughput bench_goodput bench_goodput_planner
)
# The examples diffed against examples/golden/*.txt the same way: the
# two that drive the fault stack, fault_tolerance (instant) and
# capacity_planner (~5 s), the only caller of tryBestGoodputPlan; and
# schedule_explorer (instant), the only caller of renderTimeline.
golden_examples=(fault_tolerance capacity_planner schedule_explorer)
# The two goodput benches also run with --smoke (the placement cells and
# the correlated-straggler CRN pair), diffed against <bench>_smoke.txt.
golden_smokes=(bench_goodput bench_goodput_planner)

# check_golden <capture> <dir>/<binary> [args]: diff the run's stdout.
check_golden() {
    local capture="$1"
    shift
    if diff -u "${capture}" <("./build/$1" "${@:2}"); then
        echo "ok   $*"
    else
        echo "FAIL $*: stdout differs from ${capture}"
        return 1
    fi
}

run_golden() {
    echo "== golden: bench and example stdout vs their golden/ captures =="
    cmake --preset default
    cmake --build --preset default -j "${jobs}" \
        --target "${golden_benches[@]}" "${golden_examples[@]}"
    local failed=0 target
    for target in "${golden_benches[@]/#/bench/}" \
        "${golden_examples[@]/#/examples/}"; do
        check_golden "${target%%/*}/golden/${target#*/}.txt" "${target}" ||
            failed=1
    done
    for target in "${golden_smokes[@]}"; do
        check_golden "bench/golden/${target}_smoke.txt" "bench/${target}" \
            --smoke || failed=1
    done
    return "${failed}"
}

# The host-time benchmark (perfbench/, a standalone CMake package that
# compiles ../src in Release): its unit tests, then one short untraced
# run of every workload. The binary exits 0 even when ops fail or
# digests diverge, so the verdict is read from its result line.
run_perfbench() {
    echo "== perfbench: build + unit tests + short runs =="
    cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
    cmake --build .bench_build/perfbench -j "${jobs}"
    ctest --test-dir .bench_build/perfbench --output-on-failure
    local failed=0 result
    for workload in step_sweep plan_worn run_long; do
        result=$(./.bench_build/perfbench/llm4d_perfbench \
            --workload "${workload}" --seed 1 --seconds 0.1 --trace 0 |
            tail -n 1)
        if [[ "${result}" == *'"correct": true'* ]]; then
            echo "ok   ${workload}"
        else
            echo "FAIL ${workload}: ${result}"
            failed=1
        fi
    done
    return "${failed}"
}

if [[ "${perfbench_only}" -eq 1 ]]; then
    run_perfbench
    echo "Perfbench runs are correct."
    exit 0
fi

if [[ "${golden_only}" -eq 1 ]]; then
    run_golden
    echo "Golden bench output matches."
    exit 0
fi

if [[ "${lint_only}" -eq 1 ]]; then
    run_lint
    echo "Lint passed."
    exit 0
fi

echo "== tier 1: default -Werror build + full test suite =="
cmake --preset default -DLLM4D_WERROR=ON
cmake --build --preset default -j "${jobs}"
ctest --preset default

run_lint

if [[ "${fast}" -eq 1 ]]; then
    echo "Tier 1 + lint passed (--fast: sanitize and audit tiers skipped)."
    exit 0
fi

echo "== tier 2: ASan + UBSan build + sanitize-labeled tests =="
cmake --preset sanitize -DLLM4D_WERROR=ON
cmake --build --preset sanitize -j "${jobs}"
ctest --preset sanitize

echo "== tier 3: runtime invariant auditor build + audit-labeled tests =="
cmake --preset audit -DLLM4D_WERROR=ON
cmake --build --preset audit -j "${jobs}"
ctest --preset audit

echo "All checks passed."
