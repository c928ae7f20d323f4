#!/usr/bin/env bash
# Layering lint: everything below the experiment layer must depend only on
# the narrow sim::Clock interface (simcore/clock.hpp), never on the concrete
# simulation engine. Only the experiment/session layer (metrics/, live/
# session wiring, examples, tests, benches) may include simulation.hpp.
#
# Fails with the offending include lines if src/sched/, src/virt/, or
# src/cloud/ reach into the concrete engine header.
#
# Also fails if std::function appears on the lease path (the provider and
# the migration engine): leases reach their owner through the typed
# cloud::LeaseOwner interface and a tag, never through a stored closure.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for layer in src/sched src/virt src/cloud; do
  if matches=$(grep -rn --include='*.hpp' --include='*.cpp' -E \
      '^[[:space:]]*#include.*simcore/simulation\.hpp' \
      "$layer" 2>/dev/null); then
    echo "LAYERING VIOLATION: $layer must depend on sim::Clock, not the" \
         "concrete engine:"
    echo "$matches"
    status=1
  fi
done

lease_path=(src/cloud/provider.hpp src/cloud/provider.cpp
            src/sched/migration_engine.hpp src/sched/migration_engine.cpp)
if matches=$(grep -n 'std::function' "${lease_path[@]}" 2>/dev/null); then
  echo "LEASE PATH VIOLATION: no std::function in the provider or the" \
       "migration engine (use cloud::LeaseOwner and a tag):"
  echo "$matches"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "layering OK: src/sched, src/virt, src/cloud depend only on sim::Clock;" \
       "the lease path holds no std::function"
fi
exit "$status"
