#!/bin/bash
# Regenerates every figure and table of the paper. Measured: 12 min 18 s
# pinned to one core (taskset -c 1) of a 2-vCPU Intel Xeon host.
set -u
cd "$(dirname "$0")"
mkdir -p results
for exp in fig07_static fig08_ac3 fig09_reservation fig10_test_trace \
           fig11_phd_trace fig12_comparison fig13_ncalc \
           table2_cell_status table3_one_direction fig14_time_varying \
           ablation_route_aware ablation_backbone ablation_wired comparison_ns; do
  echo "=== running $exp ($(date +%H:%M:%S)) ==="
  ./target/release/$exp "$@" > results/$exp.txt 2>&1 || echo "$exp FAILED"
done
echo "ALL_EXPERIMENTS_DONE $(date +%H:%M:%S)"
