# Tier-1 verification gate (referenced from ROADMAP.md): gofmt
# cleanliness, vet, build, and the full test suite under the race
# detector. CI and pre-merge checks run `make verify`. The nested
# fleetbench module is vetted and tested too — the root ./... does not
# enter it, and an API break there must fail here, not at benchmark time.
.PHONY: verify fmtcheck build test race bench cover fuzz-smoke serve snapshot snapshot-smoke shard-smoke journal-smoke rebalance-smoke load-smoke write-smoke replica-smoke trace-smoke slo-check fleetbench compact rebalance

verify: fmtcheck
	go vet ./...
	go build ./...
	go test -race ./...
	cd fleetbench && go vet ./... && go test ./...

# Coverage floor: internal/core + internal/snapshot + internal/journal +
# internal/fleet own the correctness contracts (byte-identical serving,
# typed corruption errors, crash-safe replay, fleet convergence), so
# their combined statement coverage must stay at or above 75%.
COVER_FLOOR := 75
cover:
	go test -coverprofile=cover.out ./internal/core ./internal/snapshot ./internal/journal ./internal/fleet
	@go tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_FLOOR)) { printf "coverage %.1f%% is below the %d%% floor\n", $$3, $(COVER_FLOOR); exit 1 } \
		else { printf "coverage %.1f%% (floor $(COVER_FLOOR)%%)\n", $$3 } }'

# Short coverage-guided fuzz smoke over each fuzz target (CI runs this;
# longer local runs: go test -fuzz=FuzzParseQuery -fuzztime 5m ...).
FUZZTIME := 10s
fuzz-smoke:
	go test -run xxx -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/sqlparse
	go test -run xxx -fuzz FuzzSnapshotLoad -fuzztime $(FUZZTIME) ./internal/snapshot
	go test -run xxx -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/journal

# gofmt cleanliness: fail listing any file that gofmt would rewrite.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Performance trajectory: every table/figure benchmark plus the
# concurrency, build, and snapshot persistence benchmarks.
bench:
	go test -bench . -benchmem -run xxx .

# Run the HTTP serving daemon on a small corpus (in-process build).
serve:
	go run ./cmd/opinedbd -small -addr :8080

# Build-once / serve-many: write a snapshot artifact, then serve it.
#   make snapshot && go run ./cmd/opinedbd -snapshot opinedb.snap
snapshot:
	go run ./cmd/opinedbb -o opinedb.snap

# End-to-end smoke tests: each target runs one entry of the scenario
# table (internal/harness/scenario.go), which owns the entry's fleet
# shape, faults, traffic and gates, and exits non-zero unless every gate
# passes. Every fingerprint gate compares the full 948-entry query set
# byte for byte against the monolith the deployment was built from.

# Snapshot: build a small corpus, save, reload, and check the loaded
# database answers byte-identically (plus one live query).
snapshot-smoke:
	go run ./cmd/opinedbb -scenario snapshot

# Sharding: partition into 4 per-shard snapshots + manifest, reload the
# fleet behind the router, and check it answers like the monolith.
shard-smoke:
	go run ./cmd/opinedbb -scenario shard

# Journal crash recovery: snapshot, ingest review deltas from a child
# process, SIGKILL it after 40 acks, then require every ack recovered as
# a contiguous prefix, replay identical to direct application, and
# compaction to an empty journal with the same answers.
journal-smoke:
	go run ./cmd/opinedbb -scenario journal

# Rebalancing: route 24 journaled writes through a 4-shard fleet (every
# ack whole and durable), rebalance to 2 and then to 8 shards without a
# rebuild, and check each fleet against the enriched monolith.
rebalance-smoke:
	go run ./cmd/opinedbb -scenario rebalance

# Mixed-traffic load: a journaled 4-shard fleet behind a loopback
# listener, 5s of the default mix over real TCP at concurrency 8. Fails
# on any request error, a weighted op kind with no measured p99, or a
# non-durable write ack; then a repair pass and owner-order journal
# replay must reproduce the fleet's answers.
load-smoke:
	go run ./cmd/opinedbb -scenario load

# Write-heavy group commit: the same front door at concurrency 16 with
# mix query=1,topk=1,interpret=1,reviews=6 — zero errors, every ack
# durable, at least every acked write replayed, and concurrency changed
# scheduling, not state.
write-smoke:
	go run ./cmd/opinedbb -scenario write

# Replication: an R=2 fleet under the default mix; mid-load a third
# replica JOINs the hot range (admitted with the byte-identity proof)
# and an original replica is KILLED. Fails unless every request served
# through both transitions, the joiner's journal is hash-identical to a
# survivor's, and the fleet matches the enriched monolith.
replica-smoke:
	go run ./cmd/opinedbb -scenario replica

# Tracing: an R=2 fleet with one replica slowed by 25ms, the default mix
# over TCP, every trace kept. Fails unless the trace store holds a
# hedge-won request whose scatter legs carry shard/replica attribution
# and whose server-side spans joined the same trace; the load and
# fingerprint gates prove tracing perturbed nothing.
trace-smoke:
	go run ./cmd/opinedbb -scenario trace

# Advisory SLO gate: rerun the quick load experiment and compare its
# per-op p95s and throughput against the committed baseline. Warn-only —
# shared CI runners are too noisy for a hard latency gate; a human reads
# the warnings next to the diff that caused them.
slo-check:
	go run ./cmd/benchall -quick -baseline BENCH_baseline.json \
		-skip table3,table4,table5,table6,table7,table8,figure7,figure8,appendixB,appendixC,concurrency,persistence,sharding,rebalance,replication,replicaops

# Fleet benchmark: one BENCHMARK.json workload, built from this checkout
# and run open-loop against an in-process fleet (see fleetbench/README.md):
#   make fleetbench W=write_mix SEED=2
W := read_hot
SEED := 1
fleetbench:
	bash fleetbench/run.sh --workload $(W) --seed $(SEED) --seconds 24

# Fold a served snapshot's review journal back into a fresh artifact:
#   make compact SNAP=opinedb.snap     (or SNAP=hotel.manifest.json)
SNAP := opinedb.snap
compact:
	go run ./cmd/opinedbb -compact $(SNAP)

# Re-partition a stopped fleet to N shards without a rebuild:
#   make rebalance MANIFEST=hotel.manifest.json SHARDS=8
MANIFEST := opinedb.manifest.json
SHARDS := 2
rebalance:
	go run ./cmd/opinedbb -rebalance $(SHARDS) -manifest $(MANIFEST)
