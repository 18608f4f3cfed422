#!/usr/bin/env bash
# Tiered local CI gate. Run from the repo root.
#
#   ci.sh quick   fmt + clippy + pl-lint (workspace static analysis:
#                 wire invariants, panic paths, atomics orderings,
#                 metric/experiment doc drift) + shellcheck +
#                 offline-dep check + a compile check of the
#                 benchmark in loadbench/ + unit tests (the fast
#                 pre-push loop; targets < 2 minutes warm)
#   ci.sh full    quick tier + release build + workspace tests + the
#                 encode/query, observability, chaos, cluster, router
#                 front-end, distributed-tracing, and live-reconfiguration
#                 smokes + one short verified run of each loadbench
#                 workload
#   ci.sh bench   release build + cut-down e17/e23 runs, gated
#                 against the committed quick-mode baselines in
#                 bench/baselines/ (fails on >20% qps regression or >5%
#                 tracing overhead); reports land in results/
#   ci.sh soak    a sustained chaos soak: verified load against a
#                 fault-injecting server for CI_SOAK_SECS (default 60)
#                 seconds — every pass must exit 0 with zero mismatches
#
# No argument means `full` (the historical behaviour). Every step is
# wall-clock timed; a summary table prints at the end (and is written to
# $CI_SUMMARY_FILE when that is set), and the script exits non-zero if
# any step failed. Steps run fail-fast: the first failure skips the rest
# but still prints the table. All smokes bind port 0 and parse the bound
# address from the server's own output, so parallel CI runs never race
# on a port.
set -uo pipefail
cd "$(dirname "$0")"

TIER="${1:-full}"
case "$TIER" in
    quick|full|bench|soak) ;;
    *) echo "usage: ci.sh [quick|full|bench|soak]" >&2; exit 2 ;;
esac

smoke_dir="$(mktemp -d)"
# Every process a smoke starts in the background is recorded in this
# file, one PID a line. Steps run in subshells, so a shell array would
# never reach the EXIT trap; the file does.
pid_file="$smoke_dir/pids"
track() { echo "$1" >> "$pid_file"; }

# kill_smokes: kills every tracked process and its children (a
# launcher's backends, the load loop's current loadgen), plus every
# backend a launcher reported in its log (a launcher that died first
# leaves its backends orphaned), then waits up to ~5s for them to exit.
kill_smokes() {
    local pids try
    mapfile -t pids < <(cat "$pid_file" 2> /dev/null)
    [ "${#pids[@]}" -gt 0 ] || return 0
    # Children first: once a parent is gone they cannot be found by it.
    pkill -P "$(IFS=,; echo "${pids[*]}")" 2> /dev/null || true
    mapfile -t -O "${#pids[@]}" pids < <(sed -n 's/^backend [0-9]*: pid \([0-9]*\).*/\1/p' \
        "$smoke_dir"/*launch.log 2> /dev/null)
    kill "${pids[@]}" 2> /dev/null || true
    # Reaps those that are this shell's own children, which would
    # otherwise stay visible to `kill -0` as zombies.
    wait "${pids[@]}" 2> /dev/null || true
    for try in $(seq 1 50); do
        kill -0 "${pids[@]}" 2> /dev/null || return 0
        sleep 0.1
    done
}

cleanup() {
    kill_smokes
    rm -rf "$smoke_dir"
}
trap cleanup EXIT

STEP_NAMES=()
STEP_TIMES=()
STEP_STATUS=()

print_summary() {
    {
        echo
        printf '%-34s %8s  %s\n' "step" "time" "status"
        printf '%-34s %8s  %s\n' "----" "----" "------"
        local i
        for i in "${!STEP_NAMES[@]}"; do
            printf '%-34s %7ss  %s\n' \
                "${STEP_NAMES[$i]}" "${STEP_TIMES[$i]}" "${STEP_STATUS[$i]}"
        done
    } | tee "${CI_SUMMARY_FILE:-/dev/null}"
}

# run_step NAME CMD...: times CMD (a command or shell function, run in a
# `set -e` subshell so internal failures propagate) and records the
# outcome. On failure, prints the summary and exits 1 immediately.
run_step() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS status=ok
    # Not `if (…)` or `(…) ||`: bash ignores `set -e` in either context.
    (set -e; "$@")
    local rc=$?
    [ "$rc" -eq 0 ] || status=FAIL
    STEP_NAMES+=("$name")
    STEP_TIMES+=($((SECONDS - t0)))
    STEP_STATUS+=("$status")
    if [ "$status" = FAIL ]; then
        echo "ci: step '$name' failed" >&2
        print_summary
        exit 1
    fi
}

# wait_addr LOG SED_EXPR: polls LOG (up to ~10s) until SED_EXPR captures
# a host:port from it, then prints that address. The servers all print
# their bound address once up, so this doubles as the readiness wait.
wait_addr() {
    local log="$1" expr="$2" try addr
    for try in $(seq 1 100); do
        addr="$(sed -n "$expr" "$log" 2> /dev/null | head -n 1)"
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "ci: no address matched '$expr' in $log after 10s" >&2
    return 1
}

serve_addr_expr='s/^listening on \(.*\)$/\1/p'
router_addr_expr='s/^router listening on \([^ ]*\) .*/\1/p'
prom_addr_expr='s#^prometheus metrics on http://\([^/]*\)/metrics$#\1#p'

# scrape ADDR: fetch http://ADDR/metrics, with a raw /dev/tcp fallback
# for hosts without curl.
scrape() {
    local addr="$1"
    if command -v curl > /dev/null; then
        curl -sf "http://$addr/metrics"
    else
        exec 3<> "/dev/tcp/${addr%:*}/${addr##*:}"
        printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
        cat <&3
        exec 3>&-
    fi
}

# Every dependency must resolve inside the workspace (path deps only):
# this repo builds offline, and a stray source of any kind in the
# lockfile would break that silently until the next cold machine. Path
# dependencies carry no `source` line at all, so *any* `source =` entry
# — registry, git, or anything cargo grows next — is a violation.
offline_deps() {
    if grep -En '^source = ' Cargo.lock; then
        echo "ci: Cargo.lock contains a non-path dependency source" >&2
        return 1
    fi
}

# Lint this script itself when shellcheck is available; CI images that
# lack it skip the step rather than failing the tier.
shellcheck_self() {
    if command -v shellcheck > /dev/null; then
        shellcheck ci.sh
    else
        echo "shellcheck not installed; skipping"
    fi
}

encode_query_smoke() {
    local plab=target/release/plab
    "$plab" gen --model chung-lu --n 2000 --alpha 2.5 --avg-degree 5 --seed 7 \
        --out "$smoke_dir/g.el"
    "$plab" encode --scheme powerlaw --alpha 2.5 --threads 4 "$smoke_dir/g.el" \
        --out "$smoke_dir/g.plab"
    "$plab" encode --scheme powerlaw --alpha 2.5 "$smoke_dir/g.el" \
        --out "$smoke_dir/g1.plab"
    cmp "$smoke_dir/g.plab" "$smoke_dir/g1.plab" \
        || { echo "ci: --threads 4 encode is not bit-identical to single-threaded" >&2; return 1; }
    printf '0 1\n1 0\n0 1999\n' | "$plab" query "$smoke_dir/g.plab" --stdin \
        > "$smoke_dir/answers"
    [ "$(wc -l < "$smoke_dir/answers")" -eq 3 ] \
        || { echo "ci: query --stdin answered wrong line count" >&2; return 1; }
    if grep -Evq '^(true|false)$' "$smoke_dir/answers"; then
        echo "ci: query --stdin produced a non-boolean answer" >&2
        return 1
    fi
}

observability_smoke() {
    local plab=target/release/plab
    # Encode with tracing: the JSONL must carry the encode-phase spans.
    "$plab" encode --scheme powerlaw --alpha 2.5 "$smoke_dir/g.el" \
        --out "$smoke_dir/g2.plab" --trace "$smoke_dir/encode_trace.jsonl"
    grep -q '"name":"encode.fat_thin_encode"' "$smoke_dir/encode_trace.jsonl" \
        || { echo "ci: encode trace JSONL lacks the fat/thin encode span" >&2; return 1; }
    grep -q '"name":"encode.arena_pack"' "$smoke_dir/encode_trace.jsonl" \
        || { echo "ci: encode trace JSONL lacks the arena pack span" >&2; return 1; }

    # Serve with the Prometheus sidecar, drive a little load, scrape, drain.
    "$plab" serve "$smoke_dir/g.plab" --addr 127.0.0.1:0 \
        --prom 127.0.0.1:0 --trace --slow-us 1 --duration 12 \
        2> "$smoke_dir/serve.log" &
    track $!
    local serve_pid=$!
    local addr prom
    addr="$(wait_addr "$smoke_dir/serve.log" "$serve_addr_expr")" || return 1
    prom="$(wait_addr "$smoke_dir/serve.log" "$prom_addr_expr")" || return 1
    "$plab" loadgen "$addr" --connections 2 --requests 2000 --batch 50 \
        --skew zipf:1.2 > "$smoke_dir/loadgen.out"
    scrape "$prom" > "$smoke_dir/metrics.prom"
    local metric
    for metric in plserve_adj_queries_total plserve_query_latency_ns \
                  plserve_slow_queries_total; do
        grep -q "$metric" "$smoke_dir/metrics.prom" \
            || { echo "ci: scrape is missing $metric" >&2; return 1; }
    done
    "$plab" stats "$addr" --prom | grep -q '^plserve_qps ' \
        || { echo "ci: plab stats --prom lacks plserve_qps" >&2; return 1; }
    "$plab" trace "$addr" --out "$smoke_dir/serve_trace.jsonl"
    grep -q '"name":"serve.slow_query"' "$smoke_dir/serve_trace.jsonl" \
        || { echo "ci: serve trace JSONL lacks slow-query events" >&2; return 1; }
    wait "$serve_pid"
}

# Chaos smoke: a fixed-seed fault plan injects dropped/truncated/flipped
# reply frames and simulated store errors; the retrying loadgen must
# finish with exit 0 and zero wrong answers (--verify checks every
# adjacency answer against the graph), and the server must report the
# injected faults over STATS.
chaos_smoke() {
    local plab=target/release/plab
    "$plab" gen --model chung-lu --n 2000 --alpha 2.5 --avg-degree 5 --seed 11 \
        --out "$smoke_dir/c.el"
    "$plab" encode --scheme tau:8 "$smoke_dir/c.el" --out "$smoke_dir/c.plab"
    "$plab" serve "$smoke_dir/c.plab" --addr 127.0.0.1:0 --duration 18 \
        --fault-plan "seed=7,flip=0.04,truncate=0.03,drop=0.02,store_err=0.03,delay_ms=1" \
        2> "$smoke_dir/chaos_serve.log" &
    track $!
    local chaos_pid=$!
    local addr
    addr="$(wait_addr "$smoke_dir/chaos_serve.log" "$serve_addr_expr")" || return 1
    "$plab" health "$addr" > "$smoke_dir/chaos_health.out" \
        || { echo "ci: plab health failed against the chaos server" >&2; return 1; }
    grep -q '^healthy' "$smoke_dir/chaos_health.out" \
        || { echo "ci: chaos server did not report healthy" >&2; return 1; }
    # Exit 0 here is the correctness assert: --verify makes loadgen exit
    # nonzero if any retried answer disagrees with the graph.
    "$plab" loadgen "$addr" --connections 2 --requests 2000 --batch 32 \
        --skew zipf:1.2 --retries 3 --deadline-ms 200 --verify "$smoke_dir/c.el" \
        > "$smoke_dir/chaos_loadgen.out" \
        || { echo "ci: chaos loadgen failed (wrong answers or unrecovered faults)" >&2; return 1; }
    grep -q 'verified against reference graph: 0 mismatches' "$smoke_dir/chaos_loadgen.out" \
        || { echo "ci: chaos loadgen did not report zero mismatches" >&2; return 1; }
    # The stats fetch itself can draw an injected fault; retry a few times.
    local try
    for try in $(seq 1 20); do
        if "$plab" stats "$addr" --prom > "$smoke_dir/chaos.prom" 2> /dev/null; then
            break
        fi
        sleep 0.1
    done
    grep '^plserve_faults_injected_total' "$smoke_dir/chaos.prom" \
        | awk '{ exit !($2 > 0) }' \
        || { echo "ci: chaos server reported no injected faults" >&2; return 1; }
    wait "$chaos_pid"
}

# Cluster smoke: a 3-backend / 2-replica local cluster behind the
# scatter-gather router; the verifying loadgen runs against the router
# while one backend is SIGKILLed mid-run. Replication must absorb the
# loss: exit 0, zero mismatches, and a failover counter that moved.
cluster_smoke() {
    local plab=target/release/plab
    "$plab" gen --model chung-lu --n 2000 --alpha 2.5 --avg-degree 5 --seed 13 \
        --out "$smoke_dir/k.el"
    "$plab" encode --scheme tau:8 "$smoke_dir/k.el" --out "$smoke_dir/k.plab"
    "$plab" cluster launch "$smoke_dir/k.plab" --backends 3 --replicas 2 --seed 13 \
        --addr 127.0.0.1:0 --prom 127.0.0.1:0 --duration 30 \
        --dir "$smoke_dir/cluster" 2> "$smoke_dir/cluster_launch.log" &
    track $!
    local launch_pid=$!
    local router prom
    router="$(wait_addr "$smoke_dir/cluster_launch.log" "$router_addr_expr")" \
        || { echo "ci: cluster router never came up" >&2; return 1; }
    prom="$(wait_addr "$smoke_dir/cluster_launch.log" "$prom_addr_expr")" || return 1
    # First pass: all three backends alive.
    "$plab" loadgen "$router" --connections 2 --requests 1500 --batch 32 \
        --skew zipf:1.2 --retries 3 --deadline-ms 400 --verify "$smoke_dir/k.el" \
        > "$smoke_dir/cluster_loadgen1.out" \
        || { echo "ci: cluster loadgen failed with all backends alive" >&2; return 1; }
    grep -q 'verified against reference graph: 0 mismatches' "$smoke_dir/cluster_loadgen1.out" \
        || { echo "ci: cluster loadgen (pre-kill) reported mismatches" >&2; return 1; }
    # SIGKILL one backend (pid printed by the launcher), then verify again:
    # the surviving replica of every vertex must keep answers exact.
    local victim
    victim="$(sed -n 's/^backend 0: pid \([0-9]*\) .*/\1/p' "$smoke_dir/cluster_launch.log")"
    [ -n "$victim" ] \
        || { echo "ci: could not find backend 0's pid in the launch log" >&2; return 1; }
    kill -9 "$victim"
    "$plab" loadgen "$router" --connections 2 --requests 1500 --batch 32 \
        --skew zipf:1.2 --retries 3 --deadline-ms 400 --verify "$smoke_dir/k.el" \
        > "$smoke_dir/cluster_loadgen2.out" \
        || { echo "ci: cluster loadgen failed after killing a backend" >&2; return 1; }
    grep -q 'verified against reference graph: 0 mismatches' "$smoke_dir/cluster_loadgen2.out" \
        || { echo "ci: cluster loadgen (post-kill) reported mismatches" >&2; return 1; }
    # The router's scrape surface must show the failover machinery moved.
    scrape "$prom" > "$smoke_dir/cluster.prom" \
        || { echo "ci: could not scrape the router" >&2; return 1; }
    grep '^plcluster_failover_total' "$smoke_dir/cluster.prom" \
        | awk '{ s += $2 } END { exit !(s > 0) }' \
        || { echo "ci: router reported no failovers despite a dead backend" >&2; return 1; }
    grep -q '^plcluster_fanout_total' "$smoke_dir/cluster.prom" \
        || { echo "ci: router scrape lacks plcluster_fanout_total" >&2; return 1; }
    wait "$launch_pid"
}

# Router front-end smoke: the router serves through the shared pl-wire
# front-end, so `--max-conns` and `--fault-plan` must work on it exactly
# as on `plab serve`. Two held raw connections fill a cap of 2, a third
# must be shed at accept, and router-side injected faults must be
# absorbed by the retrying loadgen — both counters visible over the
# router's own STATS.
router_front_smoke() {
    local plab=target/release/plab
    "$plab" cluster launch "$smoke_dir/k.plab" --backends 2 --replicas 2 --seed 17 \
        --addr 127.0.0.1:0 --duration 30 --max-conns 2 \
        --fault-plan "seed=7,flip=0.02" \
        --dir "$smoke_dir/cluster_front" 2> "$smoke_dir/front_launch.log" &
    track $!
    local front_pid=$!
    local router host port
    router="$(wait_addr "$smoke_dir/front_launch.log" "$router_addr_expr")" \
        || { echo "ci: front-end cluster router never came up" >&2; return 1; }
    host="${router%:*}"
    port="${router##*:}"
    # Claim both slots with idle connections, then poke a third: the
    # router must shed it at accept (slot claimed before handshake).
    exec 8<> "/dev/tcp/$host/$port"
    exec 9<> "/dev/tcp/$host/$port"
    (exec 7<> "/dev/tcp/$host/$port") 2> /dev/null
    sleep 0.5
    exec 8>&- 8<&- 9>&- 9<&-
    # With the slots free again, verified load through the faulty router
    # must still end with zero mismatches (retries absorb the flips).
    "$plab" loadgen "$router" --connections 2 --requests 1000 --batch 32 \
        --skew zipf:1.2 --retries 5 --deadline-ms 400 --verify "$smoke_dir/k.el" \
        > "$smoke_dir/front_loadgen.out" \
        || { echo "ci: loadgen failed against the capped+faulty router" >&2; return 1; }
    grep -q 'verified against reference graph: 0 mismatches' "$smoke_dir/front_loadgen.out" \
        || { echo "ci: front-end loadgen reported mismatches" >&2; return 1; }
    # The stats fetch can itself draw an injected fault; retry a few times.
    local try
    for try in $(seq 1 20); do
        if "$plab" stats "$router" --prom > "$smoke_dir/front.prom" 2> /dev/null; then
            break
        fi
        sleep 0.1
    done
    grep '^plserve_shed_total' "$smoke_dir/front.prom" \
        | awk '{ exit !($2 > 0) }' \
        || { echo "ci: router shed counter did not move under --max-conns 2" >&2; return 1; }
    grep '^plserve_faults_injected_total' "$smoke_dir/front.prom" \
        | awk '{ exit !($2 > 0) }' \
        || { echo "ci: router fault counter did not move under --fault-plan" >&2; return 1; }
    wait "$front_pid"
}

# Tracing smoke: a 3×2 cluster launched with --trace, one traced probe
# batch through the router over protocol v5, then the router's merged
# cluster-wide TRACE_DUMP. The probe's trace id must appear both on a
# router-origin line and on at least one backend-origin line — that is
# wire propagation across real process boundaries, which the in-process
# tests cannot see — and --explain must render the per-hop breakdown.
tracing_smoke() {
    local plab=target/release/plab
    "$plab" cluster launch "$smoke_dir/k.plab" --backends 3 --replicas 2 --seed 19 \
        --addr 127.0.0.1:0 --duration 30 --trace \
        --dir "$smoke_dir/cluster_trace" 2> "$smoke_dir/trace_launch.log" &
    track $!
    local trace_pid=$!
    local router
    router="$(wait_addr "$smoke_dir/trace_launch.log" "$router_addr_expr")" \
        || { echo "ci: tracing cluster router never came up" >&2; return 1; }
    # One command: traced probe batch, merged cluster drain, explain.
    "$plab" trace --cluster "$router" --probe --explain probe \
        --out "$smoke_dir/merged_trace.jsonl" \
        > "$smoke_dir/trace_explain.out" 2> "$smoke_dir/trace_probe.log" \
        || { echo "ci: traced probe through the router failed" >&2
             cat "$smoke_dir/trace_probe.log" >&2; return 1; }
    local hex
    hex="$(sed -n 's/^probe trace id: \([0-9a-f]*\)$/\1/p' "$smoke_dir/trace_probe.log")"
    [ -n "$hex" ] || { echo "ci: probe did not print a trace id" >&2; return 1; }
    grep "\"trace\":\"$hex\"" "$smoke_dir/merged_trace.jsonl" \
        | grep -q '"origin":"router"' \
        || { echo "ci: merged trace lacks a router-origin span for probe $hex" >&2; return 1; }
    grep "\"trace\":\"$hex\"" "$smoke_dir/merged_trace.jsonl" \
        | grep -q '"origin":"b' \
        || { echo "ci: merged trace lacks a backend-origin span for probe $hex" >&2; return 1; }
    grep -q 'router.scatter' "$smoke_dir/trace_explain.out" \
        || { echo "ci: --explain output lacks the router.scatter hop" >&2; return 1; }
    grep -q 'per-hop decomposition' "$smoke_dir/trace_explain.out" \
        || { echo "ci: --explain output lacks the per-hop decomposition" >&2; return 1; }
    wait "$trace_pid"
}

# Reconfiguration smoke: a 3×2 cluster scales out to a stub-booted
# fourth backend and then retires backend 0 — epoch 1 → 2 → 3 — while a
# looping verified workload runs throughout. Every loadgen pass must
# exit 0 with zero mismatches, both rebalances must report the epoch
# they reached, and the router's scrape must show two committed epochs
# and a nonzero migrated-vertex count.
reconfig_smoke() {
    local plab=target/release/plab
    "$plab" cluster launch "$smoke_dir/k.plab" --backends 3 --replicas 2 --seed 23 \
        --addr 127.0.0.1:0 --prom 127.0.0.1:0 --duration 120 \
        --dir "$smoke_dir/cluster_reconfig" 2> "$smoke_dir/reconfig_launch.log" &
    track $!
    local router prom
    router="$(wait_addr "$smoke_dir/reconfig_launch.log" "$router_addr_expr")" \
        || { echo "ci: reconfig cluster router never came up" >&2; return 1; }
    prom="$(wait_addr "$smoke_dir/reconfig_launch.log" "$prom_addr_expr")" || return 1

    # The joiner: the full labeling reduced to prelude stubs, served as
    # a partial store — it answers nothing until the rebalance streams
    # its share of real labels over.
    "$plab" cluster stub "$smoke_dir/k.plab" --out "$smoke_dir/k_stub.plab"
    "$plab" serve "$smoke_dir/k_stub.plab" --partial --addr 127.0.0.1:0 --duration 120 \
        2> "$smoke_dir/joiner.log" &
    track $!
    local joiner
    joiner="$(wait_addr "$smoke_dir/joiner.log" "$serve_addr_expr")" || return 1

    # Continuous verified load for the whole double-rollout: loop
    # loadgen passes until told to stop, fail-fast on any bad pass.
    : > "$smoke_dir/reconfig_loadgen.out"
    (
        while [ ! -f "$smoke_dir/load_stop" ]; do
            "$plab" loadgen "$router" --connections 2 --requests 1000 --batch 32 \
                --skew zipf:1.2 --retries 3 --deadline-ms 400 --verify "$smoke_dir/k.el" \
                >> "$smoke_dir/reconfig_loadgen.out" 2>&1 \
                || { touch "$smoke_dir/load_failed"; break; }
        done
    ) &
    local load_pid=$!
    track "$load_pid"

    "$plab" cluster rebalance "$smoke_dir/k.plab" --router "$router" --add "$joiner" \
        > "$smoke_dir/rebalance_add.out" \
        || { echo "ci: rebalance --add failed" >&2; return 1; }
    grep -q 'rebalanced epoch 1 -> 2' "$smoke_dir/rebalance_add.out" \
        || { echo "ci: scale-out did not reach epoch 2" >&2; return 1; }
    "$plab" cluster rebalance "$smoke_dir/k.plab" --router "$router" --remove 0 \
        > "$smoke_dir/rebalance_remove.out" \
        || { echo "ci: rebalance --remove failed" >&2; return 1; }
    grep -q 'rebalanced epoch 2 -> 3' "$smoke_dir/rebalance_remove.out" \
        || { echo "ci: scale-in did not reach epoch 3" >&2; return 1; }

    touch "$smoke_dir/load_stop"
    wait "$load_pid"
    [ ! -f "$smoke_dir/load_failed" ] \
        || { echo "ci: verified loadgen failed during reconfiguration" >&2
             tail -n 5 "$smoke_dir/reconfig_loadgen.out" >&2; return 1; }
    local passes
    passes="$(grep -c 'verified against reference graph: 0 mismatches' \
        "$smoke_dir/reconfig_loadgen.out" || true)"
    [ "$passes" -ge 1 ] \
        || { echo "ci: no verified loadgen pass completed during reconfiguration" >&2; return 1; }
    if grep -q 'mismatches' "$smoke_dir/reconfig_loadgen.out" \
        && grep 'verified against reference graph' "$smoke_dir/reconfig_loadgen.out" \
            | grep -vq ' 0 mismatches'; then
        echo "ci: reconfiguration loadgen reported mismatches" >&2
        return 1
    fi

    # The router's counters must record both rollouts and a real move.
    scrape "$prom" > "$smoke_dir/reconfig.prom" \
        || { echo "ci: could not scrape the reconfigured router" >&2; return 1; }
    grep '^plcluster_reconfig_epochs_total' "$smoke_dir/reconfig.prom" \
        | awk '{ exit !($2 == 2) }' \
        || { echo "ci: router did not count exactly 2 committed epochs" >&2; return 1; }
    grep '^plcluster_reconfig_vertices_moved_total' "$smoke_dir/reconfig.prom" \
        | awk '{ exit !($2 > 0) }' \
        || { echo "ci: router counted no migrated vertices" >&2; return 1; }
    grep '^plcluster_reconfig_rollbacks_total' "$smoke_dir/reconfig.prom" \
        | awk '{ exit !($2 == 0) }' \
        || { echo "ci: a healthy rollout recorded a rollback" >&2; return 1; }

    # The cluster stays up (duration 120) — tear it down explicitly
    # rather than idling CI: launcher, its backends, and the joiner.
    kill_smokes
    return 0
}

# Loadbench verified smoke: one short run of each benchmark workload
# in BENCHMARK.json. loadbench checks every answer against
# Graph::has_edge and exits 1 when any disagrees (or none was
# answered), so the step fails on a wrong answer; it gates no timing.
loadbench_smoke() {
    local workload
    for workload in serve-zipf-b64 serve-uniform-b1 cluster-zipf-b32; do
        cargo run --release --offline --quiet --manifest-path loadbench/Cargo.toml -- \
            --workload "$workload" --seconds 3 --trace 0 --seed 1 \
            > "$smoke_dir/loadbench_$workload.json" \
            || { echo "ci: loadbench $workload failed (see its JSON line):" >&2
                 tail -n 1 "$smoke_dir/loadbench_$workload.json" >&2; return 1; }
    done
}

# Leftover-process check: once the tracked processes are killed, no
# process may still name this run's $smoke_dir in its arguments. A
# survivor is one a smoke started without tracking it, which a failed
# run would leak.
no_leftovers() {
    kill_smokes
    local try
    for try in $(seq 1 30); do
        pgrep -f "$smoke_dir" > /dev/null || return 0
        sleep 0.1
    done
    echo "ci: processes started by this run are still alive:" >&2
    pgrep -af "$smoke_dir" >&2
    return 1
}

# Chaos soak: verified load against a fault-injecting server, looped for
# CI_SOAK_SECS seconds. Nightly CI runs this after the full tier; every
# pass must exit 0 (retries absorb the faults) with zero mismatches.
soak_chaos() {
    local plab=target/release/plab
    local secs="${CI_SOAK_SECS:-60}"
    "$plab" gen --model chung-lu --n 2000 --alpha 2.5 --avg-degree 5 --seed 29 \
        --out "$smoke_dir/s.el"
    "$plab" encode --scheme tau:8 "$smoke_dir/s.el" --out "$smoke_dir/s.plab"
    "$plab" serve "$smoke_dir/s.plab" --addr 127.0.0.1:0 --duration $((secs + 60)) \
        --fault-plan "seed=7,flip=0.04,truncate=0.03,drop=0.02,store_err=0.03,delay_ms=1" \
        2> "$smoke_dir/soak_serve.log" &
    track $!
    local soak_pid=$!
    local addr
    addr="$(wait_addr "$smoke_dir/soak_serve.log" "$serve_addr_expr")" || return 1
    local t0=$SECONDS passes=0
    while [ $((SECONDS - t0)) -lt "$secs" ]; do
        "$plab" loadgen "$addr" --connections 2 --requests 2000 --batch 32 \
            --skew zipf:1.2 --retries 3 --deadline-ms 200 --verify "$smoke_dir/s.el" \
            > "$smoke_dir/soak_loadgen.out" \
            || { echo "ci: soak loadgen failed on pass $((passes + 1))" >&2; return 1; }
        grep -q 'verified against reference graph: 0 mismatches' "$smoke_dir/soak_loadgen.out" \
            || { echo "ci: soak pass $((passes + 1)) reported mismatches" >&2; return 1; }
        passes=$((passes + 1))
    done
    echo "soak: $passes verified passes in ${secs}s, all clean"
    kill "$soak_pid" 2> /dev/null
    wait "$soak_pid" 2> /dev/null || true
}

# Bench-regression gate: cut-down (--quick) runs of the serving and
# tracing benches, compared against the committed
# quick-mode baselines. bench_gate fails on a >20% qps drop or >5%
# absolute tracing overhead on gated rows.
bench_e17() { target/release/e17_serving --quick --out results/BENCH_serve.json; }
bench_e23() { target/release/e23_tracing --quick --out results/BENCH_trace.json; }
gate_serve() {
    target/release/bench_gate bench/baselines/BENCH_serve.json results/BENCH_serve.json
}
gate_trace() {
    target/release/bench_gate bench/baselines/BENCH_trace.json results/BENCH_trace.json
}

# Dep hygiene: the cluster crate must take its transport from pl-wire —
# never from pl-serve's internals (serve's protocol/fault/metrics
# modules are compatibility re-export shims over pl-wire, not a layer
# other crates may build on).
dep_hygiene() {
    cargo tree -p pl-cluster --edges normal | grep -q 'pl-wire' \
        || { echo "ci: pl-cluster lost its pl-wire dependency" >&2; return 1; }
    if grep -rEn 'pl_serve::(protocol|fault|metrics|server)\b' crates/cluster/src; then
        echo "ci: pl-cluster reaches pl-serve transport shims instead of pl-wire" >&2
        return 1
    fi
}

case "$TIER" in
quick|full)
    run_step "cargo fmt --check"      cargo fmt --all --check
    run_step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings
    run_step "pl-lint"                cargo run -q -p pl-lint --release -- --workspace
    run_step "shellcheck ci.sh"       shellcheck_self
    run_step "offline dep check"      offline_deps
    run_step "dep hygiene"            dep_hygiene
    # loadbench/ is its own workspace, so nothing above compiles it; an
    # API change that breaks the benchmark must fail here, not later.
    run_step "loadbench compiles"     cargo check --offline --manifest-path loadbench/Cargo.toml
    run_step "unit tests"             cargo test -q
    if [ "$TIER" = full ]; then
        run_step "release build"          cargo build --release
        run_step "workspace tests"        cargo test --workspace -q
        run_step "encode/query smoke"     encode_query_smoke
        run_step "observability smoke"    observability_smoke
        run_step "chaos smoke"            chaos_smoke
        run_step "cluster smoke"          cluster_smoke
        run_step "router front-end smoke" router_front_smoke
        run_step "tracing smoke"          tracing_smoke
        run_step "reconfiguration smoke"  reconfig_smoke
        run_step "loadbench verified smoke" loadbench_smoke
        run_step "no leftover processes"  no_leftovers
    fi
    ;;
bench)
    mkdir -p results
    run_step "release build (bench)"  cargo build --release -p pl-bench --bins
    run_step "bench e17 serving"      bench_e17
    run_step "bench e23 tracing"      bench_e23
    run_step "gate e17 vs baseline"   gate_serve
    run_step "gate e23 vs baseline"   gate_trace
    ;;
soak)
    run_step "release build (plab)"   cargo build --release --bin plab
    run_step "chaos soak"             soak_chaos
    ;;
esac

print_summary
echo "ci ($TIER): all green"
