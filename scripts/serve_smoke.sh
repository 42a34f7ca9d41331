#!/bin/sh
# Smoke-test the fsdep serve daemon end to end:
#   1. start `fsdep serve` on a private socket,
#   2. issue `fsdep query` requests (ping and all four analysis types:
#      extract, docck, depgraph, blame),
#   3. compare every analysis answer byte-for-byte with the one-shot CLI
#      command that answers it (extract, docck, graph, explain),
#   4. check a warm repeat is served from the memo,
#   5. check an option the command does not take exits 2,
#   6. shut the daemon down cleanly and verify the socket is gone.
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

rm -f "$SOCKET"
"$FSDEP" serve --socket "$SOCKET" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

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
[ "$PONG" = "pong" ] || { echo "serve_smoke: expected pong, got '$PONG'" >&2; exit 1; }

echo "== extract: daemon answer must match the one-shot CLI byte-for-byte =="
"$FSDEP" extract --scenario s1 > "$WORK/oneshot.txt"
"$FSDEP" query --socket "$SOCKET" --scenario s1 > "$WORK/served-cold.txt"
cmp "$WORK/oneshot.txt" "$WORK/served-cold.txt"

echo "== warm repeat: memoized, still identical =="
"$FSDEP" query --socket "$SOCKET" --scenario s1 --timing > "$WORK/served-warm.txt" 2> "$WORK/warm-timing.txt"
cmp "$WORK/oneshot.txt" "$WORK/served-warm.txt"
grep -q "query: cached" "$WORK/warm-timing.txt" || {
  echo "serve_smoke: warm query was not served from the memo" >&2
  cat "$WORK/warm-timing.txt" >&2
  exit 1
}

echo "== docck over the daemon =="
"$FSDEP" query --socket "$SOCKET" --type docck > "$WORK/docck.txt"
"$FSDEP" docck > "$WORK/docck-oneshot.txt"
cmp "$WORK/docck.txt" "$WORK/docck-oneshot.txt"

echo "== depgraph over the daemon: same spec and bytes as graph =="
"$FSDEP" query --socket "$SOCKET" --type depgraph --self-deps --inter > "$WORK/depgraph.txt"
"$FSDEP" graph --self-deps --inter > "$WORK/graph-oneshot.txt"
cmp "$WORK/depgraph.txt" "$WORK/graph-oneshot.txt"

echo "== blame over the daemon: same spec and bytes as explain =="
"$FSDEP" query --socket "$SOCKET" --type blame --param mke2fs.sparse_super2 > "$WORK/blame.txt"
"$FSDEP" explain mke2fs.sparse_super2 > "$WORK/explain-oneshot.txt"
cmp "$WORK/blame.txt" "$WORK/explain-oneshot.txt"

echo "== an option docck does not take fails loudly =="
status=0
"$FSDEP" query --socket "$SOCKET" --type docck --scenario s1 > "$WORK/bad.txt" 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "serve_smoke: query --type docck --scenario s1 exited $status, expected 2" >&2
  cat "$WORK/bad.txt" >&2
  exit 1
}

echo "== clean shutdown =="
"$FSDEP" query --socket "$SOCKET" --raw '{"type":"shutdown"}' > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
if [ -S "$SOCKET" ]; then
  echo "serve_smoke: socket file survived shutdown" >&2
  exit 1
fi

echo "serve_smoke: all checks passed"
