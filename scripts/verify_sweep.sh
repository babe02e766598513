#!/usr/bin/env bash
# Runs `tbbands verify` at every n from 3 to 90 with one BLAS thread,
# alpha = 1.3 and t = -0.7, and stops at the first n whose metrics breach
# verify's bounds (or whose solve fails), naming it; exits 0 only if every n
# passes. The refine basis depends on n alone, so one (alpha, t) per n covers
# every vector metric. Run from the repository root with the package
# importable, e.g. `PYTHONPATH=src bash scripts/verify_sweep.sh`; n = 90
# peaks at about 2.5 GiB.
set -u
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
for n in $(seq 3 90); do
    if ! report=$(python -m tbbands verify --n "$n" --alpha 1.3 --t -0.7 2>&1); then
        echo "$report"
        echo "verify failed at n = $n" >&2
        exit 1
    fi
    echo "n = $n: ok"
done
