#!/usr/bin/env bash
# Line counts of the library sources (.cpp/.hpp/.h under src/ and include/)
# as one JSON object, for the code-size trajectory (ROADMAP.md):
#
#   scripts/loc.sh                 # {"src": N, "include": M, "total": N+M}
#   scripts/loc.sh > loc.json
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -type f \( -name '*.cpp' -o -name '*.hpp' -o -name '*.h' \) \
    -print0 | xargs -0 cat | wc -l | tr -d ' '
}

src=$(count src)
inc=$(count include)
printf '{"src": %d, "include": %d, "total": %d}\n' "${src}" "${inc}" \
  "$((src + inc))"
