#!/bin/sh
# Smoke-test the fsdep serve daemon end to end:
#   1. start `fsdep serve` on a private socket,
#   2. issue `fsdep query` requests (ping and all four analysis types:
#      extract, docck, depgraph, blame),
#   3. compare every analysis answer byte-for-byte with the one-shot CLI
#      command that answers it (extract, docck, graph, explain),
#   4. check a warm repeat is served from the memo,
#   5. check an option the command does not take exits 2,
#   6. check the daemon's own numbers: the `stats` answer counts every
#      request sent (one memo hit among them), and after shutdown the
#      report's serve_requests equals the serve.requests series of the
#      metrics file,
#   7. shut the daemon down cleanly and verify the socket is gone.
# Usage: scripts/serve_smoke.sh <fsdep-binary> [workdir]
set -eu

FSDEP=${1:?usage: serve_smoke.sh <fsdep-binary> [workdir]}
WORK=${2:-"$(mktemp -d /tmp/fsdep-serve-smoke.XXXXXX)"}
mkdir -p "$WORK"
SOCKET="$WORK/fsdep.sock"

cleanup() {
  # Best-effort: if the daemon is still up, ask it to stop.
  if [ -S "$SOCKET" ]; then
    "$FSDEP" query --socket "$SOCKET" --raw '{"type":"shutdown"}' >/dev/null 2>&1 || true
  fi
  [ -n "${SERVE_PID:-}" ] && wait "$SERVE_PID" 2>/dev/null || true
}
trap cleanup EXIT

rm -f "$SOCKET" "$WORK/metrics.json" "$WORK/report.json"
"$FSDEP" serve --socket "$SOCKET" --metrics "$WORK/metrics.json" --report "$WORK/report.json" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
SENT=0  # requests that reached the daemon

# Wait for the socket to appear (daemon startup is fast, but not instant).
tries=0
while [ ! -S "$SOCKET" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "serve_smoke: daemon never created $SOCKET" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

echo "== ping =="
PONG=$("$FSDEP" query --socket "$SOCKET" --type ping)
SENT=$((SENT + 1))
[ "$PONG" = "pong" ] || { echo "serve_smoke: expected pong, got '$PONG'" >&2; exit 1; }

echo "== extract: daemon answer must match the one-shot CLI byte-for-byte =="
"$FSDEP" extract --scenario s1 > "$WORK/oneshot.txt"
"$FSDEP" query --socket "$SOCKET" --scenario s1 > "$WORK/served-cold.txt"
SENT=$((SENT + 1))
cmp "$WORK/oneshot.txt" "$WORK/served-cold.txt"

echo "== warm repeat: memoized, still identical =="
"$FSDEP" query --socket "$SOCKET" --scenario s1 --timing > "$WORK/served-warm.txt" 2> "$WORK/warm-timing.txt"
SENT=$((SENT + 1))
cmp "$WORK/oneshot.txt" "$WORK/served-warm.txt"
grep -q "query: cached" "$WORK/warm-timing.txt" || {
  echo "serve_smoke: warm query was not served from the memo" >&2
  cat "$WORK/warm-timing.txt" >&2
  exit 1
}

echo "== docck over the daemon =="
"$FSDEP" query --socket "$SOCKET" --type docck > "$WORK/docck.txt"
"$FSDEP" docck > "$WORK/docck-oneshot.txt"
SENT=$((SENT + 1))
cmp "$WORK/docck.txt" "$WORK/docck-oneshot.txt"

echo "== depgraph over the daemon: same spec and bytes as graph =="
"$FSDEP" query --socket "$SOCKET" --type depgraph --self-deps --inter > "$WORK/depgraph.txt"
"$FSDEP" graph --self-deps --inter > "$WORK/graph-oneshot.txt"
SENT=$((SENT + 1))
cmp "$WORK/depgraph.txt" "$WORK/graph-oneshot.txt"

echo "== blame over the daemon: same spec and bytes as explain =="
"$FSDEP" query --socket "$SOCKET" --type blame --param mke2fs.sparse_super2 > "$WORK/blame.txt"
"$FSDEP" explain mke2fs.sparse_super2 > "$WORK/explain-oneshot.txt"
SENT=$((SENT + 1))
cmp "$WORK/blame.txt" "$WORK/explain-oneshot.txt"

echo "== an option docck does not take fails loudly =="
status=0
"$FSDEP" query --socket "$SOCKET" --type docck --scenario s1 > "$WORK/bad.txt" 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "serve_smoke: query --type docck --scenario s1 exited $status, expected 2" >&2
  cat "$WORK/bad.txt" >&2
  exit 1
}

# Prints the number after "KEY": in compact JSON FILE (the first match).
number_of() {
  grep -o "\"$1\":[0-9]*" "$2" | head -n 1 | sed 's/.*://'
}

echo "== stats: the daemon counts every request it was sent =="
"$FSDEP" query --socket "$SOCKET" --type stats > "$WORK/stats.json"
SENT=$((SENT + 1))  # the answer counts the stats request itself
REQUESTS=$(number_of requests "$WORK/stats.json")
[ "$REQUESTS" = "$SENT" ] || {
  echo "serve_smoke: stats says $REQUESTS request(s), the script sent $SENT" >&2
  cat "$WORK/stats.json" >&2
  exit 1
}
MEMO_HITS=$(number_of memo_hits "$WORK/stats.json")
[ "$MEMO_HITS" = "1" ] || {
  echo "serve_smoke: stats says $MEMO_HITS memo hit(s), expected the one warm repeat" >&2
  exit 1
}

echo "== clean shutdown =="
"$FSDEP" query --socket "$SOCKET" --raw '{"type":"shutdown"}' > /dev/null
SENT=$((SENT + 1))
wait "$SERVE_PID"
SERVE_PID=""
if [ -S "$SOCKET" ]; then
  echo "serve_smoke: socket file survived shutdown" >&2
  exit 1
fi

echo "== the report and the metrics file agree, shutdown included =="
REPORTED=$(number_of serve_requests "$WORK/report.json")
SERIES=0
for value in $(grep -o '"name":"serve.requests","labels":{[^}]*},"value":[0-9]*' \
                  "$WORK/metrics.json" | sed 's/.*"value"://'); do
  SERIES=$((SERIES + value))
done
[ "$REPORTED" = "$SENT" ] && [ "$SERIES" = "$SENT" ] || {
  echo "serve_smoke: report says $REPORTED request(s), serve.requests sums to $SERIES," \
    "the script sent $SENT" >&2
  exit 1
}

echo "serve_smoke: all checks passed"
