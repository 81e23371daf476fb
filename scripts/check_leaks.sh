#!/usr/bin/env bash
# Post-pytest leak check for the multiproc/net/chaos CI jobs: fails
# when a dtm-shard-* worker process or a /dev/shm segment created
# during the job survived it (a runner's waves/x0/states/ctrl segments
# and its per-shard dtm*-specN payload segments alike).
#
# Usage: check_leaks.sh SHM_BEFORE
#   SHM_BEFORE — sorted `ls -A /dev/shm` taken before the tests ran
set -uo pipefail

before="${1:?usage: $0 SHM_BEFORE}"
status=0

# dtm-shard-N is the multiprocessing name, which argv does not carry;
# what argv does carry is the spawn bootstrap every shard worker is
# started through, and once pytest has exited none may be left
workers="$(pgrep -af 'multiprocessing\.spawn import spawn_main' || true)"
if [ -n "$workers" ]; then
    echo "leaked dtm-shard worker processes:" >&2
    echo "$workers" >&2
    status=1
fi

leaked="$(ls -A /dev/shm | sort | comm -13 "$before" -)"
if [ -n "$leaked" ]; then
    echo "leaked /dev/shm segments:" >&2
    echo "$leaked" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "no leaked worker processes or shm segments"
exit "$status"
