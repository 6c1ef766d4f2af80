#!/usr/bin/env bash
# Full verification gate: release build, test suite, lint-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

# Property-test effort is dialable for CI; default keeps the full gate
# under a couple of minutes while still exercising every property.
export PARTIX_PROPTEST_CASES="${PARTIX_PROPTEST_CASES:-32}"

# --offline: the workspace is fully self-contained (path deps only)
cargo build --release --workspace --offline
cargo test -q --workspace --offline

# fault-tolerance gate, run explicitly so a filtered/partial test
# invocation can never silently skip it: the differential oracle suite
# (centralized vs every fragmentation design, with and without injected
# faults) and the chaos suites (seeded fault schedules, property tests,
# flapping-node concurrency).
cargo test -q --test differential --offline
cargo test -q --test properties --offline
cargo test -q --test concurrency --offline chaos
cargo test -q -p partix-bench --offline chaos

# concurrency gate: one layer. By name, so that renaming or filtering them
# away fails the gate: a gather runs every attempt on the calling thread or
# on its own node's workers (one on the caller without a deadline, none
# with one); a fatal task fails the query without waiting for a sibling's
# slow attempt; the pool's slots — a caller never overtakes a queued job
# or a busy slot, and a job queued behind a caller's slot runs once it is
# freed — with DRR fairness unchanged.
for named in \
    "concurrency attempts_run_on_the_caller_or_on_their_own_nodes_workers" \
    "concurrency a_fatal_task_fails_the_query_without_waiting_for_its_siblings" \
    "lib runtime::tests::run_here_refuses_while_a_job_is_queued_or_every_slot_is_busy" \
    "lib runtime::tests::a_job_queued_behind_a_callers_slot_runs_once_the_caller_releases_it" \
    "lib runtime::tests::interactive_backlog_cannot_starve_batch"; do
    read -r suite name <<< "$named"
    if [ "$suite" = lib ]; then where=(-p partix-engine --lib); else where=(--test "$suite"); fi
    if ! cargo test -q "${where[@]}" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
cargo test -q -p partix-engine --offline faults

# observability gate: span/metrics units, stage-breakdown consistency
# (fault-free and under a seeded fault plan), panic containment.
cargo test -q -p partix-engine --offline trace
cargo test -q -p partix-engine --offline metrics
cargo test -q --test observability --offline

# network gate: the wire protocol's property tests (round-trips plus
# hostile frames), the local-vs-remote differential suite over loopback
# TCP, the listener kill/restart chaos test, and — by name, so that
# renaming or filtering it away fails the gate — the vertical kill
# matrix (every node killed in turn under every QV query: the healthy
# answer or a typed error, never a reconstruction over a missing
# fragment), bare and through a forwarding driver decorator.
cargo test -q -p partix-net --offline
cargo test -q --test remote_differential --offline
cargo test -q --test concurrency --offline remote_chaos
if ! cargo test -q --test remote_differential --offline vertical_kill_matrix \
    | grep -q "test result: ok. 2 passed"; then
    echo "verify: FAIL — the vertical kill matrix did not run and pass" >&2
    exit 1
fi

# wire gate: the frame layer's speed rests on two things that tests pin
# and nothing else would notice breaking. By name, so that renaming or
# filtering them away fails the gate: the one CRC-32 kernel (four sliced
# lanes per 4 KiB block) against the bytewise reference (every length up
# to two blocks and a word, every misalignment around each block boundary,
# answer-sized buffers, the IEEE vectors, the lane join, a flipped byte in
# each lane) and, over the wire, a large frame with one flipped byte in any
# lane refused at `read_frame`; the golden `ItemChunk` frame written by the
# encoder this one replaced (the coordinator wire is byte-identical, so an
# older client still interoperates) and the golden `Reply` frame (that
# encoder's node answer behind a stream id), and the page writer against
# the format spelled out field by field.
for named in \
    "partix-storage crc::tests::crc32_sliced_equals_bytewise_reference" \
    "partix-storage crc::tests::crc32_known_vectors" \
    "partix-storage crc::tests::shift_is_one_lane_of_zero_bytes" \
    "partix-storage crc::tests::a_flipped_byte_in_any_lane_changes_the_value" \
    "partix-net frame::tests::a_flipped_byte_in_any_lane_of_a_large_frame_fails_checksum" \
    "partix-net golden::reply_frame_is_reproduced_bit_for_bit" \
    "partix-net golden::item_chunk_frame_is_reproduced_bit_for_bit"; do
    read -r package name <<< "$named"
    if ! cargo test -q -p "$package" --lib --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
if ! cargo test -q -p partix-xml --test arena_page_props --offline \
    encode_into_writes_the_reference_page | grep -q "test result: ok. 1 passed"; then
    echo "verify: FAIL — encode_into_writes_the_reference_page did not run and pass" >&2
    exit 1
fi

# reconstruction gate: a multi-fragment vertical query reads only what it
# reads, and an aggregate that distributes over the pieces reads nothing
# rebuilt. By name, so that renaming or filtering them away fails the gate:
# the property that pruned + filtered fetches and per-fragment sums answer
# as fetching everything does and as the centralized run (random vertical
# designs, collections with articles lacking a part, random queries) and
# the check that its generator keeps reaching pruned and filtered plans,
# and `//` aggregates on both sides of the rule; the planner unit tests
# (which fragments QV4 / QV7 / QV8 contact, which conjuncts travel, that a
# negation, a self-join and a `let`-aliased scan push nothing, which cuts
# are read with their holder's other cuts, that a pruned fragment is not
# contacted and the evaluation error is the coordinator's own, that QV10
# is counted per fragment and that a straddling, positional or split path,
# `max`, a bare path and a hybrid design still rebuild); the composition
# of `min` / `max` partials (strings by string, a numeric / string mix a
# typed error); and the XML nesting-depth regression (deep text is a typed
# error on a 2 MiB thread, where it used to abort the process).
for named in \
    "partix properties pruned_filtered_reconstruction_equals_fetch_everything_and_centralized" \
    "partix properties vertical_generator_reaches_pruned_and_filtered_reconstructions" \
    "partix-xml depth deep_documents_are_a_typed_error_on_a_2mib_thread" \
    "partix-xml depth the_deepest_accepted_document_parses_serialises_and_drops_on_a_2mib_thread"; do
    read -r package suite name <<< "$named"
    if ! cargo test -q -p "$package" --test "$suite" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
for name in reconstruction_fetches_what_the_query_reads \
    negations_cross_fragment_disjunctions_and_self_joins_push_no_filter \
    pruned_fragments_of_a_reconstruction_are_not_contacted \
    evaluation_failure_over_rebuilt_documents_is_a_reconstruction_error \
    positional_cuts_read_their_siblings_and_take_no_unpinned_test \
    cuts_below_their_holders_root_are_read_with_all_of_the_holders_cuts \
    descendant_aggregates_decompose_per_fragment \
    straddling_or_split_paths_still_reconstruct; do
    if ! cargo test -q -p partix-engine --lib --offline "service::tests::$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
for named in "lib compose::tests::min_max_of_strings_by_string_and_a_mix_is_an_error" \
    "differential horizontal_min_max_of_strings_match_oracle"; do
    read -r suite name <<< "$named"
    if [ "$suite" = lib ]; then where=(-p partix-engine --lib); else where=(--test "$suite"); fi
    if ! cargo test -q "${where[@]}" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done

# streaming gate: the streamed-vs-buffered differential (every query
# family, plans parsed and plans cached, seeded faults, coordinator killed
# mid-stream), the coordinator-replication failover differential (three
# coordinators, one killed mid-workload, epoch convergence after a
# rebalance), and the slow-reader backpressure suite (a reader that
# stopped stalls only its own connection). The frame/assembler property
# tests run inside `-p partix-net` above.
cargo test -q --test streaming_differential --offline
cargo test -q --test coordinator_failover --offline
cargo test -q -p partix-net --test backpressure --offline

# rebalance gate: the advisor/rebalancer unit suites and the migration
# differential suite (before/during/after answers vs the centralized
# oracle — in-process, over TCP, and under seeded query-path faults).
cargo test -q -p partix-advisor --offline
cargo test -q --test rebalance_differential --offline
# and by name, so that renaming or filtering them away fails the gate: one
# way through a rebalance. A node's first call is held on a gate while a
# rebalance moves its fragment away; when the answer lands, the sub-query
# re-runs on the current replica (a buffered count, a stream, a
# reconstruction fetch). A rebalance over an unreadable source fails typed
# and retires nothing.
for named in \
    "concurrency an_answer_read_under_a_retired_placement_reruns_on_the_current_replica" \
    "concurrency a_stream_finishes_across_a_live_rebalance" \
    "concurrency a_reconstruction_fetch_landing_after_the_retire_is_refetched" \
    "rebalance_differential an_unreadable_source_fails_the_rebalance_and_retires_nothing"; do
    read -r suite name <<< "$named"
    if ! cargo test -q --test "$suite" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done

# write gate: the WAL crash-recovery unit suite (torn tails at every
# offset, double-replay idempotence, checkpoint equivalence) and the
# write differential suite (coordinator-routed writes vs the
# centralized oracle across seeded kill-points, interleaved schedules,
# in-process and over loopback TCP).
cargo test -q -p partix-storage --offline wal
# and by name: a log sealed by the retired bit-at-a-time checksum (written
# at the parent commit) replays record for record and is rewritten bit for
# bit; hostile bytes (noise, bit flips, truncations, spliced records) over
# logs whose large records run the kernel's lanes replay exactly a prefix;
# a damaged payload under a valid checksum decodes or ends the replay
for name in a_log_sealed_by_the_retired_bit_loop_replays_record_for_record \
    hostile_bytes_replay_a_prefix_and_never_panic \
    a_resealed_hostile_payload_is_a_value_or_the_end_never_a_panic; do
    if ! cargo test -q -p partix-storage --lib --offline "wal::tests::$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
cargo test -q --test write_differential --offline

# multi-tenant gate: the tenant-layer unit suites (registry, quotas,
# DRR scheduler, admission controller), the multitenant differential
# suite (admitted answers vs the centralized oracle under floods and
# seeded faults, typed rejections with retry hints and an oracle answer
# after them — in-process and at both endpoints of the wire), and the
# warehouse→advisor suite (frequency mining over the star-query log
# feeding re-split candidates that pass the formal
# completeness/disjointness check and migrate live).
cargo test -q -p partix-tenant --offline
cargo test -q --test multitenant_differential --offline
cargo test -q --test warehouse_advisor --offline

# scan gate: one scan per sub-query, whole, on the thread that runs it.
# By name, so that renaming or filtering them away fails the gate: every
# query family answers exactly as the evaluator does, hot, cold-indexed
# and cold-scan; a fragmented cluster answers as the centralized run; a
# failing query fails with the evaluator's error whatever the host's core
# count; and a save beside a concurrent drop does not panic.
for named in \
    "test storage_differential every_family_matches_the_evaluator_hot_and_cold" \
    "test storage_differential distributed_matches_centralized_oracle" \
    "lib partix-storage exec::tests::error_order_matches_the_evaluator" \
    "lib partix-storage persist::tests::save_beside_a_concurrent_drop_and_recreate"; do
    read -r kind where name <<< "$named"
    if [ "$kind" = lib ]; then args=(-p "$where" --lib); else args=(--test "$where"); fi
    if ! cargo test -q "${args[@]}" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done

# query gate: there is one evaluator, and these hold it in place. By
# name, so that renaming or filtering them away fails the gate: the
# lowered evaluator against the reference interpreter (random queries
# over every Expr variant, arena- and page-backed, every driving scan
# lent its collection and narrowed by its pushed-down predicate — and the
# generator check that keeps those shares from drying up), the
# nesting-depth regression
# (deep texts are a typed error on a 2 MiB thread — in the parsers and
# at both endpoints of the wire — where they used to abort the process), and
# the allocation guard (a document the where clause rejects costs no
# heap allocation; its own binary, the counter is process-wide). The
# hostile-input suite for the XQuery lexer and parser runs beside them.
cargo test -q -p partix-query --test parser_hostile --offline
for named in \
    "partix-query differential lowered_evaluator_agrees_with_the_reference" \
    "partix-query differential generator_reaches_ordered_narrowed_and_failing_queries" \
    "partix-query depth deep_queries_are_a_typed_error_on_a_2mib_thread" \
    "partix-query depth the_deepest_accepted_queries_evaluate_on_a_2mib_thread" \
    "partix-net deep_queries coordinator_answers_deep_texts_with_an_error_and_keeps_serving" \
    "partix-net deep_queries node_server_refuses_deep_query_frames_and_keeps_serving" \
    "partix-storage alloc_guard rejected_documents_cost_no_allocation"; do
    read -r package suite name <<< "$named"
    if ! cargo test -q -p "$package" --test "$suite" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done
# the index prefilter reaches queries that run whole, and narrows their
# driving scan only (a join answers the same with the indexes on or off)
if ! cargo test -q -p partix-storage --lib --offline exec::tests::prefilter_ \
    | grep -q "test result: ok. 2 passed"; then
    echo "verify: FAIL — the prefilter tests did not run and pass" >&2
    exit 1
fi

# storage gate: the arena/page property suite (random documents with
# attributes, mixed content, deep nesting, empty elements — the arena
# and the page-backed form must agree on every read with Dewey ids
# intact, the first write copies, hostile pages give a typed error or a
# document every reader terminates on) and the write-path regressions
# (name-map scale churn, tombstone compaction, value-index soundness).
# By name, so that renaming or filtering them away fails the gate: the
# link-cycle regression and "a cold read converts nothing".
cargo test -q -p partix-xml --test arena_page_props --offline
cargo test -q -p partix-storage --test write_path --offline
for named in "partix-xml arena_page_props link_cycle_is_rejected" \
    "partix-storage cold_reads cold_reads_never_convert"; do
    read -r package suite name <<< "$named"
    if ! cargo test -q -p "$package" --test "$suite" --offline "$name" \
        | grep -q "test result: ok. 1 passed"; then
        echo "verify: FAIL — $name did not run and pass" >&2
        exit 1
    fi
done

# any clippy warning fails the gate
cargo clippy --workspace --offline -- -D warnings

# one query path: inside the query service only the dispatch module may
# call into a node (execute or fetch), and the per-call-thread dispatch
# mode stays deleted.
non_test() { sed '/^#\[cfg(test)\]/,$d' "$@"; }
SERVICE=crates/core/src/service
if grep -nE 'fetch_docs\(|try_fetch_collection\(|\.execute_query\(' \
    $(ls "$SERVICE"/*.rs | grep -vE '/(dispatch|tests)\.rs$'); then
    echo "verify: FAIL — a node call outside $SERVICE/dispatch.rs" >&2
    exit 1
fi
# one concurrency layer: the gathering thread drives every retry loop and
# waits on one channel, so dispatch spawns no thread and never sleeps.
if non_test "$SERVICE"/dispatch.rs | grep -nE 'thread::(scope|spawn|sleep)|crossbeam'; then
    echo "verify: FAIL — a thread, a sleep or crossbeam reappeared in $SERVICE/dispatch.rs" >&2
    exit 1
fi
# one reconstruction path, and it builds no database: the rebuilt
# documents are evaluated as a slice, index-free.
if grep -nE 'Database::new\(\)|store_all_shared' "$SERVICE"/assemble.rs; then
    echo "verify: FAIL — a scratch database reappeared in $SERVICE/assemble.rs" >&2
    exit 1
fi
if grep -rn 'DispatchMode::Threads' crates src tests examples; then
    echo "verify: FAIL — DispatchMode::Threads reappeared" >&2
    exit 1
fi
# every sub-query reaches its node: the sub-query result cache, the write
# epochs that existed only to invalidate it, and both cache switches stay
# deleted (the parsed-plan cache is the coordinator's one cache).
if grep -rnE 'ResultCache|ResultKey|CachedSite|CacheStats|result_cache|from_cache|collection_epoch|bump_epoch|plan_cache_enabled|clear_caches|notify_meta_of_write' \
    crates src tests examples; then
    echo "verify: FAIL — the result cache or its write epochs reappeared" >&2
    exit 1
fi

# one document type: storage holds `Arc<Document>`s and never decodes —
# the per-access materialization stays deleted.
if grep -rnE 'DocHandle|fn materialize|to_document\(' crates/storage/src; then
    echo "verify: FAIL — a decode step reappeared under crates/storage/src" >&2
    exit 1
fi

# one evaluator: the AST interpreter and its per-tuple environment maps
# stay deleted from the library (the copy the differential suite compares
# against lives under crates/query/tests/reference/), and so do the two
# provider views and the trait method they made redundant.
if grep -rnE 'fn eval_expr|HashMap<String, Sequence>' crates/query/src; then
    echo "verify: FAIL — the AST interpreter reappeared under crates/query/src" >&2
    exit 1
fi
if grep -rnE 'FilteredView|MorselView|fn collection_filtered' crates/*/src; then
    echo "verify: FAIL — a provider view reappeared under crates/*/src" >&2
    exit 1
fi

# one scan per sub-query: the morsel pool, its knobs and the query split
# that only it needed stay deleted outside test modules, one function
# evaluates an ordered FLWOR, and the query and storage crates stay within
# their line budget.
src_code() {
    for file in $(find crates/*/src -name '*.rs'); do
        non_test "$file" | sed "s|^|$file:|"
    done
}
if src_code | grep -E 'MorselPartial|run_morsel|scan_morsels|flwor_keyed|PARTIX_MORSEL|morsel-workers|MAX_MORSEL_WORKERS'; then
    echo "verify: FAIL — the morsel split reappeared under crates/*/src" >&2
    exit 1
fi
# one way through a rebalance: the per-query replan loop, the stream's
# catalog-swap error, their counters and the second fault-injecting driver
# stay deleted, and the engine crate stays within its line budget.
if src_code | grep -E 'CatalogSwapped|MAX_REPLANS|partix\.replans|catalog_swaps|InstrumentedDriver'; then
    echo "verify: FAIL — the replan loop, CatalogSwapped or InstrumentedDriver reappeared under crates/*/src" >&2
    exit 1
fi
CORE_LINES="$(for file in $(find crates/core/src -name '*.rs' | grep -v '/service/tests\.rs$'); do
    non_test "$file"; done | wc -l)"
if [ "$CORE_LINES" -gt 4898 ]; then
    echo "verify: FAIL — crates/core/src is $CORE_LINES lines outside tests (budget 4898)" >&2
    exit 1
fi
if [ "$(src_code | grep -E 'fn flwor' | grep -vc '/parser\.rs:')" -ne 1 ]; then
    echo "verify: FAIL — crates/*/src has not exactly one FLWOR evaluation function" >&2
    exit 1
fi
QS_LINES="$(for file in crates/query/src/*.rs crates/storage/src/*.rs; do non_test "$file"; done | wc -l)"
if [ "$QS_LINES" -gt 5350 ]; then
    echo "verify: FAIL — crates/query/src + crates/storage/src is $QS_LINES lines outside tests (budget 5350)" >&2
    exit 1
fi

# one transport. Over crates/net/src outside test modules:
# the retired protocol, the queue, the worker pool and the demux thread
# stay deleted (no PXN1 in code but the magic `frame.rs` refuses by name;
# no condvar, no channel, no sleep, no timed wait, no nonblocking socket),
# there is one listener, one accept loop and one dial site (the other
# `connect_timeout` is the server waking its own `accept` at shutdown),
# and the crate stays within its line budget.
net_code() {
    for file in crates/net/src/*.rs; do
        non_test "$file" | sed "s|^|$file:|"
    done | grep -vE '^[^:]+:[[:space:]]*//'
}
if net_code | grep 'PXN1' | grep -vE 'RETIRED_MAGIC|protocol is retired'; then
    echo "verify: FAIL — PXN1 reappeared in crates/net/src" >&2
    exit 1
fi
if net_code | grep -E 'Condvar|crossbeam::channel|thread::sleep|wait_timeout|set_nonblocking'; then
    echo "verify: FAIL — a queue, a sleep or a timed poll reappeared in crates/net/src" >&2
    exit 1
fi
for once in 'TcpListener::bind\(' '\.accept\(\)'; do
    if [ "$(net_code | grep -cE "$once")" -ne 1 ]; then
        echo "verify: FAIL — crates/net/src has not exactly one $once" >&2
        exit 1
    fi
done
DIALS="$(net_code | grep 'connect_timeout(' | cut -d: -f1 | sort | tr '\n' ' ')"
if [ "$DIALS" != "crates/net/src/client.rs crates/net/src/server.rs " ]; then
    echo "verify: FAIL — connect_timeout( outside the client's dial and the server's shutdown: $DIALS" >&2
    exit 1
fi
NET_LINES="$(for file in crates/net/src/*.rs; do non_test "$file"; done | wc -l)"
if [ "$NET_LINES" -gt 3500 ]; then
    echo "verify: FAIL — crates/net/src is $NET_LINES lines outside tests (budget 3500)" >&2
    exit 1
fi
# one checksum: exactly one `fn crc32(` outside test modules in every
# crate's source (the kernel in `crates/storage/src/crc.rs`; the wire
# re-exports it).
CRC_IMPLS="$(find crates/*/src -name '*.rs' | while read -r file; do non_test "$file"; done \
    | grep -c 'fn crc32(' || true)"
if [ "$CRC_IMPLS" -ne 1 ]; then
    echo "verify: FAIL — crates/*/src has $CRC_IMPLS crc32 implementations outside tests (want 1)" >&2
    exit 1
fi

# one page format: the PXB1 encoder / decoder stay deleted.
if grep -rnE 'encode_v1|decode_v1|MAGIC_V1' crates src tests examples; then
    echo "verify: FAIL — PXB1 code reappeared" >&2
    exit 1
fi

# one measuring stick: the harnesses the frozen benchmark replaced and the
# Criterion stand-in stay deleted, and what is left of crates/bench (the
# paper-figure harness, one scenario runner, the test fixture) stays small.
if grep -n 'criterion' Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml; then
    echo "verify: FAIL — criterion reappeared in a Cargo.toml" >&2
    exit 1
fi
if grep -nE 'mod (throughput|morsel|storage);' crates/bench/src/lib.rs; then
    echo "verify: FAIL — a retired harness reappeared in crates/bench" >&2
    exit 1
fi
if [ "$(grep -rn 'fn canonical' crates tests | wc -l)" -ne 1 ]; then
    echo "verify: FAIL — the canonical answer form has more than one definition" >&2
    exit 1
fi
BENCH_LINES="$(find crates/bench -name '*.rs' -print0 | xargs -0 cat | wc -l)"
if [ "$BENCH_LINES" -gt 3000 ]; then
    echo "verify: FAIL — crates/bench is $BENCH_LINES lines (budget 3000)" >&2
    exit 1
fi

# the frozen benchmark package (benchmark/, BENCHMARK.json) compiles
# against the product crates: a change that breaks it must fail here,
# not in the pipeline. --check validates the manifest, --quick runs all
# four workloads on ~100 KB with every answer checked.
bash benchmark/run.sh --check > /dev/null
bash benchmark/run.sh --quick > /dev/null

# everything below writes its scratch files here; one trap removes the
# directory and stops any server still running
SCRATCH="$(mktemp -d)"
trap 'kill "${SERVE_PID1:-}" "${SERVE_PID2:-}" "${MT_PID:-}" 2>/dev/null || true; rm -rf "$SCRATCH"' EXIT

# serve/ping smoke test: two node servers on ephemeral loopback ports
# must come up, answer a health ping each, and die cleanly.
./target/release/partix serve --node 0 --addr 127.0.0.1:0 > "$SCRATCH/serve1.log" &
SERVE_PID1=$!
./target/release/partix serve --node 1 --addr 127.0.0.1:0 > "$SCRATCH/serve2.log" &
SERVE_PID2=$!
for log in "$SCRATCH/serve1.log" "$SCRATCH/serve2.log"; do
    for _ in $(seq 50); do
        grep -q "listening on" "$log" && break
        sleep 0.1
    done
    addr="$(sed -n 's/.*listening on //p' "$log" | head -n1)"
    if [ -z "$addr" ]; then
        echo "verify: FAIL — node server never reported its address" >&2
        exit 1
    fi
    ./target/release/partix ping "$addr" > /dev/null
done
kill "$SERVE_PID1" "$SERVE_PID2"
wait "$SERVE_PID1" "$SERVE_PID2" 2>/dev/null || true

# advisor determinism: the advise demo's output is timing-free by
# construction, so two runs with the same seed must be byte-identical.
./target/release/partix advise 7 > "$SCRATCH/advise-a.txt"
./target/release/partix advise 7 > "$SCRATCH/advise-b.txt"
if ! diff -q "$SCRATCH/advise-a.txt" "$SCRATCH/advise-b.txt" > /dev/null; then
    echo "verify: FAIL — partix advise is not deterministic under a seed" >&2
    diff "$SCRATCH/advise-a.txt" "$SCRATCH/advise-b.txt" >&2 || true
    exit 1
fi

# The scenario gates: one runner (crates/bench/src/scenario.rs), five
# definitions, each gated on its correctness fields and never on timing.
# Every record carries the shared header.
require_fields() {
    local json="$1" what="$2"
    shift 2
    for field in experiment host_cores git_rev dataset_bytes "$@"; do
        if ! grep -q "\"$field\":" "$json"; then
            echo "verify: FAIL — $field missing from $what JSON" >&2
            exit 1
        fi
    done
}

# the rebalance scenario must move real bytes, pass its own
# completeness/disjointness re-validation and keep every mid-migration
# probe answer correct. Whether p99 improved is in the JSON as data
# (`p99_improved`), not a gate: it is timing.
REBALANCE_JSON="$SCRATCH/rebalance.json"
./target/release/harness rebalance --clients 8 --queries 30 \
    --out "$REBALANCE_JSON" > /dev/null
require_fields "$REBALANCE_JSON" rebalance before_p99_ms after_p99_ms \
    before_qps after_qps migrated_fragments migrated_bytes rebalance_s \
    during_queries
if ! grep -Eq '"migrated_bytes":[1-9][0-9]*' "$REBALANCE_JSON"; then
    echo "verify: FAIL — rebalance migrated zero bytes" >&2
    exit 1
fi
if ! grep -q '"verified":true' "$REBALANCE_JSON"; then
    echo "verify: FAIL — rebalance verification did not pass" >&2
    exit 1
fi
if ! grep -q '"during_errors":0' "$REBALANCE_JSON"; then
    echo "verify: FAIL — queries diverged during the live migration" >&2
    exit 1
fi

# the writes scenario must push a mixed read/write workload through
# the WAL-backed nodes, fsync every append, and leave a final state
# byte-identical to the centralized oracle at every write ratio.
WRITES_JSON="$SCRATCH/writes.json"
./target/release/harness writes --queries 20 --out "$WRITES_JSON" > /dev/null
require_fields "$WRITES_JSON" writes write_ratio qps read_p99_ms \
    write_p99_ms wal_appends wal_fsyncs
if grep -q '"verified":false' "$WRITES_JSON"; then
    echo "verify: FAIL — a writes run diverged from the oracle" >&2
    exit 1
fi
if ! grep -q '"verified":true' "$WRITES_JSON"; then
    echo "verify: FAIL — no verified writes run in the JSON" >&2
    exit 1
fi
if ! grep -Eq '"wal_fsyncs":[1-9][0-9]*' "$WRITES_JSON"; then
    echo "verify: FAIL — writes run recorded zero WAL fsyncs" >&2
    exit 1
fi

# the scale-out scenario must sweep coordinator counts in both
# transport modes with every answer oracle-verified. The scratch run is
# deliberately small, so only shape and correctness gate here — the
# committed BENCH_scaleout.json carries the full-scale scaling gates.
SCALEOUT_JSON="$SCRATCH/scaleout.json"
./target/release/harness scaleout --sizes 1 --scale 0.1 --clients 8 \
    --queries 4 --out "$SCALEOUT_JSON" > /dev/null
require_fields "$SCALEOUT_JSON" scaleout coordinators mode qps p50_ms \
    p99_ms failovers repeats qps_scales streamed_p99_le_buffered
if grep -q '"verified":false' "$SCALEOUT_JSON"; then
    echo "verify: FAIL — a scaleout run diverged from the oracle" >&2
    exit 1
fi
if ! grep -q '"mode":"streamed"' "$SCALEOUT_JSON"; then
    echo "verify: FAIL — scaleout never ran the streamed transport" >&2
    exit 1
fi

# the multitenant scenario gates on its correctness fields, never on
# timing: every admitted answer must match the centralized oracle
# ("verified":true with zero mismatches) and the isolation bound must
# hold. The scratch run is tiny; the committed BENCH_multitenant.json
# carries the full-scale isolation numbers and must gate too.
MT_JSON="$SCRATCH/multitenant.json"
./target/release/harness multitenant --clients 2 --queries 10 \
    --out "$MT_JSON" > /dev/null
require_fields "$MT_JSON" multitenant p99_alone_ms p99_contended_ms \
    isolation_factor oracle_checks oracle_mismatches
for json in "$MT_JSON" BENCH_multitenant.json; do
    if ! grep -q '"isolation_held":true' "$json"; then
        echo "verify: FAIL — tenant isolation bound not held in $json" >&2
        exit 1
    fi
    if ! grep -q '"verified":true' "$json"; then
        echo "verify: FAIL — multitenant answers diverged from oracle in $json" >&2
        exit 1
    fi
    if ! grep -q '"oracle_mismatches":0' "$json"; then
        echo "verify: FAIL — multitenant oracle mismatches in $json" >&2
        exit 1
    fi
done

# two-tenant serve smoke: a node server with a generous tenant and a
# quota-zero tenant must serve the former and reject the latter with a
# typed admission error on the wire.
MT_LOG="$SCRATCH/mtserve.log"
MT_ERR="$SCRATCH/mtserve-err.log"
./target/release/partix serve --node 0 --addr 127.0.0.1:0 \
    --tenant frontend:interactive:8 --tenant suspended:batch:0:0 \
    > "$MT_LOG" &
MT_PID=$!
for _ in $(seq 50); do
    grep -q "listening on" "$MT_LOG" && break
    sleep 0.1
done
mt_addr="$(sed -n 's/.*listening on //p' "$MT_LOG" | head -n1)"
if [ -z "$mt_addr" ]; then
    echo "verify: FAIL — tenant-gated server never reported its address" >&2
    exit 1
fi
./target/release/partix exec "$mt_addr" 'count(collection("items")/Item)' \
    --tenant frontend > /dev/null
if ./target/release/partix exec "$mt_addr" 'count(collection("items")/Item)' \
    --tenant suspended > /dev/null 2> "$MT_ERR"; then
    echo "verify: FAIL — quota-zero tenant was admitted" >&2
    exit 1
fi
if ! grep -q "AdmissionRejected" "$MT_ERR"; then
    echo "verify: FAIL — quota rejection was not a typed admission error" >&2
    cat "$MT_ERR" >&2
    exit 1
fi
kill "$MT_PID"
wait "$MT_PID" 2>/dev/null || true

echo "verify: OK"
