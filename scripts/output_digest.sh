#!/usr/bin/env bash
# Prints one line per CLI output: command, n, method, exit code, and the
# sha256 of its stdout, its stderr and its vector file ("-" where the
# command writes none). The commands are `spectrum`, `analytic --vectors`,
# and `bands --vectors` and `verify --vectors` with the refine method and,
# at n <= 13, the combination method; alpha = 1.3, t = -0.7, one BLAS
# thread. The sizes are n = 3 4 5 6 8 12 13 21 22 30 31, or those given as
# arguments. Two checkouts whose outputs agree byte for byte print the same
# lines, so diffing the two listings checks a change for byte identity, e.g.
#   PYTHONPATH=src bash scripts/output_digest.sh > after.txt
# Run from the repository root with the package importable.
set -u
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
sizes=("$@")
[ ${#sizes[@]} -gt 0 ] || sizes=(3 4 5 6 8 12 13 21 22 30 31)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
digest() { sha256sum < "$1" | cut -d' ' -f1; }
# run <command> <n> <method or -> [flags...]: one output's line.
run() {
    local command=$1 n=$2 method=$3
    shift 3
    rm -f "$work/vectors.csv"
    python -m tbbands "$command" --n "$n" --alpha 1.3 --t -0.7 "$@" \
        > "$work/stdout" 2> "$work/stderr"
    local code=$? vectors=-
    [ -e "$work/vectors.csv" ] && vectors=$(digest "$work/vectors.csv")
    echo "$command n=$n method=$method exit=$code stdout=$(digest "$work/stdout")" \
        "stderr=$(digest "$work/stderr") vectors=$vectors"
}
for n in "${sizes[@]}"; do
    run spectrum "$n" -
    run analytic "$n" - --vectors "$work/vectors.csv"
    methods=(refine)
    [ "$n" -le 13 ] && methods+=(combination)
    for method in "${methods[@]}"; do
        for command in bands verify; do
            run "$command" "$n" "$method" --method "$method" --vectors "$work/vectors.csv"
        done
    done
done
