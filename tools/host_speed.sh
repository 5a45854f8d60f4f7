#!/usr/bin/env bash
# Simulator-speed ceiling for one perfbench result.
#
# Reads the last (JSON) line of a traced perfbench run on stdin and
# compares its engine.advance_ns_per_event (host time per simulated
# event of the traced run) with the median committed for the same
# workload in perfbench/baseline_layers.json. The speed ratio,
# baseline ns / measured ns, warns below 0.5 and fails (exit 1) below
# 0.35. Hosts vary, so the thresholds are generous: a quadratic
# queue scan lands far under them, host jitter does not.
#
# Usage:
#   python3 perfbench/run.py --workload fleet-sessions --seed 1 \
#       --seconds 1 --trace 1 | tail -n 1 | tools/host_speed.sh fleet-sessions
set -eo pipefail

workload=$1
baseline=$(dirname "$0")/../perfbench/baseline_layers.json
base=$(jq -e --arg w "$workload" \
         '.workloads[$w]["engine.advance_ns_per_event"].median | select(. > 0)' \
         "$baseline") \
  || { echo "host-speed: no baseline median for '$workload'"; exit 1; }
ns=$(jq -e '.metrics["engine.advance_ns_per_event"].value | select(. > 0)') \
  || { echo "host-speed: no engine.advance_ns_per_event (a --trace 1 run reports it)"; exit 1; }
ratio=$(jq -n --argjson b "$base" --argjson ns "$ns" '$b / $ns')
line=$(printf 'perfbench %s: %.0f ns/event, %.2fx the speed of the baseline median (%.0f ns)' \
         "$workload" "$ns" "$ratio" "$base")
echo "$line"
if jq -en --argjson r "$ratio" '$r < 0.35' > /dev/null; then
  echo "::error title=host-speed::$line; the floor is 0.35x"
  exit 1
elif jq -en --argjson r "$ratio" '$r < 0.5' > /dev/null; then
  echo "::warning title=host-speed::$line; below 0.5x"
fi
