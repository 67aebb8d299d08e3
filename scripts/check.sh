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
#   ./scripts/check.sh --golden # bench stdout vs bench/golden/*.txt
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
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    --lint) lint_only=1 ;;
    --golden) golden_only=1 ;;
    *)
        echo "usage: $0 [--fast|--lint|--golden]" >&2
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

run_golden() {
    echo "== golden: bench stdout vs bench/golden/ =="
    cmake --preset default
    cmake --build --preset default -j "${jobs}" --target "${golden_benches[@]}"
    local failed=0
    for bench in "${golden_benches[@]}"; do
        if diff -u "bench/golden/${bench}.txt" <("./build/bench/${bench}"); then
            echo "ok   ${bench}"
        else
            echo "FAIL ${bench}: stdout differs from bench/golden/${bench}.txt"
            failed=1
        fi
    done
    return "${failed}"
}

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
