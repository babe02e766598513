#!/usr/bin/env bash
# Runs `tbbands verify` at every n from 3 to 90 with one BLAS thread,
# alpha = 1.3 and t = -0.7, and stops at the first n whose metrics breach
# verify's bounds (or whose solve fails), naming it; exits 0 only if every n
# passes. For each passing n it prints the worst metric as a share of its
# bound in `tbbands.cli.VERIFY_THRESHOLDS`, and at the end the sweep's worst.
# The refine basis depends on n alone, so one (alpha, t) per n covers every
# vector metric. Run from the repository root with the package importable,
# e.g. `PYTHONPATH=src bash scripts/verify_sweep.sh`; n = 90 peaks at about
# 2.5 GiB.
set -u
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
# Reads verify's key=value lines and prints "<share> <metric>" for the metric
# of the largest value / bound.
share_of_bound='
import sys
from tbbands.cli import VERIFY_THRESHOLDS
shares = {}
for line in sys.stdin:
    key, _, value = line.strip().partition("=")
    if key in VERIFY_THRESHOLDS:
        shares[key] = float(value) / VERIFY_THRESHOLDS[key]
key = max(shares, key=shares.get)
print(f"{shares[key]:.3g} {key}")
'
shares=""
for n in $(seq 3 90); do
    if ! report=$(python -m tbbands verify --n "$n" --alpha 1.3 --t -0.7 2>&1); then
        echo "$report"
        echo "verify failed at n = $n" >&2
        exit 1
    fi
    share=$(printf '%s\n' "$report" | python -c "$share_of_bound")
    echo "n = $n: ok, worst ${share#* } at ${share%% *} of its bound"
    shares+="$share $n"$'\n'
done
read -r share metric n <<< "$(printf '%s' "$shares" | sort -g | tail -n 1)"
echo "worst over the sweep: $metric at $share of its bound (n = $n)"
