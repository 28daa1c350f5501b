#!/bin/sh
# Check that every metric name registered in lib/ appears in the
# section "The `metrics` object" of docs/SCHEMA.md, in its counter
# table or its gauge and histogram lists.  A name is the string
# literal passed to Obs.Metrics.counter, gauge or histogram; a name
# built by concatenation (cache.<table>.hits) is documented as a
# pattern and not checked here.  Exits 1 listing every missing name
# (used by the CI docs job).
set -u
cd "$(dirname "$0")/.."

names=$(find lib -name '*.ml' | sort | while IFS= read -r f; do
  tr '\n' ' ' <"$f"
  echo
done | grep -o 'Metrics\.\(counter\|gauge\|histogram\)[[:space:]]*"[^"]*"' \
  | sed 's/.*"\([^"]*\)"$/\1/' | sort -u)

if [ -z "$names" ]; then
  echo "FAIL: found no metric names under lib/" >&2
  exit 1
fi

# Every backquoted name in the metrics section.
documented=$(awk '/^### The `metrics` object/ { on = 1; next } on && /^#/ { on = 0 } on' docs/SCHEMA.md \
  | grep -o '`[^`]*`' | tr -d '`' | sort -u)

missing=0
for n in $names; do
  if ! printf '%s\n' "$documented" | grep -qxF "$n"; then
    echo "docs/SCHEMA.md: metrics section lacks $n" >&2
    missing=1
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "FAIL: metric names registered in lib/ missing from docs/SCHEMA.md" >&2
  exit 1
fi
echo "ok: every metric name registered in lib/ is in docs/SCHEMA.md"
