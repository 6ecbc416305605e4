#!/bin/sh
# Runs every benchmark binary (paper figures, ablations, microbenches).
#
# Each bench runs with the persistency-order checker attached
# (PMEMCPY_PERSIST_CHECK=1) and tracing on (PMEMCPY_TRACE=<bench>.trace.json):
# it writes a Chrome trace_event JSON next to its binary plus
# <bench>.trace.json.stats.json, whose counters (store/flush/fence traffic,
# the checker's clean/duplicate-flush and empty-fence lints, device bytes)
# use the same schema as `flush_audit --json`.  The stats are echoed after
# the bench output, so redundant CLWB/SFENCE traffic shows up next to the
# timing numbers it explains.
PMEMCPY_PERSIST_CHECK=1
export PMEMCPY_PERSIST_CHECK
for b in build/bench/*; do
  [ -x "$b" ] || continue
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  PMEMCPY_TRACE="$b.trace.json" "$b" || echo "BENCH FAILED: $b"
  if [ -f "$b.trace.json.stats.json" ]; then
    echo "-- trace stats ($b.trace.json.stats.json)"
    cat "$b.trace.json.stats.json"
    echo
  fi
  echo
done
