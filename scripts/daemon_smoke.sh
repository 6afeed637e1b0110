#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end smoke test of cmd/astrasimd.
#
# Boots the daemon on a private port and drives its /v1 API with curl:
#
#   1. submits a small all-reduce on the fast backend and asserts the
#      duration matches a direct cmd/collectives run of the same config
#      (the service is a transport, not a different simulator);
#   2. resubmits the identical body and asserts the second response is
#      served from the cache (X-Astrasim-Cache: hit, byte-identical
#      result, run counter unchanged);
#   3. sends a malformed submission, asserts a 4xx, and asserts the
#      process is still alive and serving afterwards;
#   4. submits a topology whose NPU count overflows int, asserts a 4xx
#      naming the topology, and asserts the daemon is still healthy.
#
# Requires: go, curl. No other dependencies.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18080"
BASE="http://$ADDR/v1"
TMP="$(mktemp -d)"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "daemon_smoke: FAIL: $*" >&2
  [ -f "$TMP/daemon.log" ] && sed 's/^/daemon_smoke: daemon: /' "$TMP/daemon.log" >&2
  exit 1
}

echo "daemon_smoke: building astrasimd and collectives"
go build -o "$TMP/astrasimd" ./cmd/astrasimd
go build -o "$TMP/collectives" ./cmd/collectives

"$TMP/astrasimd" -addr "$ADDR" >"$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!

# Wait for the listener (up to ~5s).
for _ in $(seq 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited during startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "daemon never became healthy on $ADDR"
echo "daemon_smoke: daemon up (pid $DAEMON_PID)"

SUBMISSION='{"topology": "4x4x4", "backend": "fast", "collective": {"op": "allreduce", "bytes": 4194304}}'

# 1. First submission: a fresh run whose result matches the CLI.
curl -s -D "$TMP/h1" -o "$TMP/r1" "$BASE/jobs" -d "$SUBMISSION" || fail "first submission failed"
grep -qi '^X-Astrasim-Cache: miss' "$TMP/h1" || fail "first submission not marked a cache miss"
daemon_cycles=$(sed -n 's/.*"duration_cycles":\([0-9]*\).*/\1/p' "$TMP/r1")
[ -n "$daemon_cycles" ] || fail "no duration_cycles in response: $(cat "$TMP/r1")"

cli_cycles=$("$TMP/collectives" -op allreduce -topology 4x4x4 -size 4MB -backend fast |
  awk '/cycles/ { for (i = 1; i <= NF; i++) if ($i ~ /^[0-9]+$/) { print $i; exit } }')
[ -n "$cli_cycles" ] || fail "could not extract cycles from cmd/collectives output"
[ "$daemon_cycles" = "$cli_cycles" ] ||
  fail "daemon ($daemon_cycles cycles) and cmd/collectives ($cli_cycles cycles) disagree"
echo "daemon_smoke: daemon matches cmd/collectives ($daemon_cycles cycles)"

# 2. Identical resubmission: must be a cache hit with a byte-identical result.
curl -s -D "$TMP/h2" -o "$TMP/r2" "$BASE/jobs" -d "$SUBMISSION" || fail "second submission failed"
grep -qi '^X-Astrasim-Cache: hit' "$TMP/h2" || fail "second submission not served from cache"
grep -q '"cached":true' "$TMP/r2" || fail "second response missing cached:true"
r1_result=$(sed -n 's/.*"result":\({[^}]*}\).*/\1/p' "$TMP/r1")
r2_result=$(sed -n 's/.*"result":\({[^}]*}\).*/\1/p' "$TMP/r2")
[ -n "$r1_result" ] && [ "$r1_result" = "$r2_result" ] ||
  fail "cached result not byte-identical: '$r1_result' vs '$r2_result'"
runs=$(curl -s "$BASE/stats" | sed -n 's/.*"runs":\([0-9]*\).*/\1/p')
[ "$runs" = "1" ] || fail "expected exactly 1 simulation run after a hit, got $runs"
echo "daemon_smoke: identical resubmission served from cache, runs=1"

# 3. Malformed submission: 4xx, and the process survives.
code=$(curl -s -o "$TMP/r3" -w '%{http_code}' "$BASE/jobs" \
  -d '{"topology": "not-a-topology", "collective": {"op": "allreduce", "bytes": 1024}}')
case "$code" in 4??) ;; *) fail "malformed submission returned $code, want 4xx" ;; esac
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on malformed submission"
curl -sf "$BASE/healthz" >/dev/null || fail "daemon unhealthy after malformed submission"
curl -s -D "$TMP/h4" -o /dev/null "$BASE/jobs" -d "$SUBMISSION"
grep -qi '^X-Astrasim-Cache: hit' "$TMP/h4" || fail "daemon not serving cache hits after malformed submission"
echo "daemon_smoke: malformed submission rejected ($code), daemon still serving"

# 4. Overflowing NPU count: a 4xx naming the topology, and the daemon
#    stays healthy.
code=$(curl -s -o "$TMP/r5" -w '%{http_code}' "$BASE/jobs" \
  -d '{"topology": "hier:ring4294967296,ring4294967296", "collective": {"op": "allreduce", "bytes": 1024}}')
case "$code" in 4??) ;; *) fail "overflowing topology returned $code, want 4xx: $(cat "$TMP/r5")" ;; esac
grep -q 'ring4294967296+ring4294967296 hier' "$TMP/r5" ||
  fail "overflow rejection does not name the topology: $(cat "$TMP/r5")"
curl -sf "$BASE/healthz" >/dev/null || fail "daemon unhealthy after overflowing topology"
echo "daemon_smoke: overflowing topology rejected ($code), daemon still healthy"

echo "daemon_smoke: PASS"
