#!/usr/bin/env bash
# Loopback-TCP smoke: a deployment spanning two real dgsd processes
# serves one query per algorithm through dgsrun -connect. This is the
# CI-enforced form of the README's two-terminal quickstart.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${DGS_SMOKE_PORT1:-17431}
PORT2=${DGS_SMOKE_PORT2:-17432}
BIN=bin

mkdir -p "$BIN"
go build -o "$BIN/dgsd" ./cmd/dgsd
go build -o "$BIN/dgsrun" ./cmd/dgsrun

"$BIN/dgsd" -listen "127.0.0.1:$PORT1" &
D1=$!
"$BIN/dgsd" -listen "127.0.0.1:$PORT2" &
D2=$!
trap 'kill $D1 $D2 2>/dev/null || true' EXIT

# Wait for both listeners.
for i in $(seq 1 50); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT1") 2>/dev/null && (exec 3<>"/dev/tcp/127.0.0.1/$PORT2") 2>/dev/null; then
    break
  fi
  sleep 0.1
done

CONNECT="127.0.0.1:$PORT1,127.0.0.1:$PORT2"

run() {
  echo "== dgsrun $* -connect $CONNECT"
  "$BIN/dgsrun" "$@" -connect "$CONNECT"
  echo
}

# One query per algorithm, each on the generator/partition its
# preconditions want (mirrors the conformance matrix).
run -algo dgpm     -gen web      -nodes 8000 -edges 32000 -frags 6
run -algo dgpmnopt -gen web      -nodes 4000 -edges 12000 -frags 4
run -algo dgpmd    -gen citation -nodes 6000 -edges 14000 -frags 6 -qdiam 3
run -algo dgpmt    -gen tree     -nodes 6000 -frags 6
run -algo match    -gen web      -nodes 3000 -edges  9000 -frags 4
run -algo dishhk   -gen web      -nodes 3000 -edges  9000 -frags 4
run -algo dmes     -gen web      -nodes 3000 -edges  9000 -frags 4

# Coalescing smoke: on a 2-daemon loopback run, strictly fewer frames
# must leave the driver than messages were handed to the transport.
echo "== coalescing reduces frames (2-daemon loopback)"
go test ./internal/transport/tcpnet -run '^TestCoalescingReducesFrames$' -count=1 -v

echo "tcp smoke: all algorithms served over 2 dgsd processes, coalescing verified"
