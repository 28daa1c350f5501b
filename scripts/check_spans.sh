#!/bin/sh
# Check that every span name opened in lib/ appears in the span table
# of docs/SCHEMA.md (the section "The `spans` field").  A name is the
# string literal passed to Obs.Trace.with_span, after its ~args list
# if it has one.  Exits 1 listing every missing name (used by the CI
# docs job).
set -u
cd "$(dirname "$0")/.."

names=$(find lib -name '*.ml' | sort | while IFS= read -r f; do
  tr '\n' ' ' <"$f"
  echo
done | grep -o 'with_span[[:space:]]*\(~args:\[[^]]*\][[:space:]]*\)\{0,1\}"[^"]*"' \
  | sed 's/.*"\([^"]*\)"$/\1/' | sort -u)

if [ -z "$names" ]; then
  echo "FAIL: found no span names under lib/" >&2
  exit 1
fi

# The first cell of every table row in the spans section.
table=$(awk '/^### The `spans` field/ { on = 1; next } on && /^#/ { on = 0 } on && /^\|/' docs/SCHEMA.md \
  | awk -F'|' '{ print $2 }' | grep -o '`[^`]*`' | tr -d '`' | sort -u)

missing=0
for n in $names; do
  if ! printf '%s\n' "$table" | grep -qxF "$n"; then
    echo "docs/SCHEMA.md: span table lacks $n" >&2
    missing=1
  fi
done

if [ "$missing" -ne 0 ]; then
  echo "FAIL: span names opened in lib/ missing from docs/SCHEMA.md" >&2
  exit 1
fi
echo "ok: every span name opened in lib/ is in docs/SCHEMA.md"
