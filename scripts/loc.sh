#!/usr/bin/env bash
# scripts/loc.sh — the line counts a simplicity PR reports: non-test Go
# outside bench/ (the number the ROADMAP tracks), then test Go and bench/
# on their own. It counts the .go files of the checkout it is run in that
# git tracks or would track, so one command serves parent and change.
set -euo pipefail
cd "$(dirname "$0")/.."

files() { git ls-files -co --exclude-standard -- '*.go'; }
lines() { xargs -r cat | wc -l | awk -v label="$1" '{printf "%-28s %6d\n", label, $1}'; }

files | grep -v -e '^bench/' -e '_test\.go$' | lines "non-test Go outside bench/"
files | grep -v '^bench/' | grep '_test\.go$' | lines "test Go outside bench/"
files | grep '^bench/' | lines "bench/ (its tests included)"
