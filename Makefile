# Convenience targets for the PMSB reproduction.

GO ?= go

.PHONY: all build vet test test-short benchmark benchmark-compare bench-all ci reproduce quick-reproduce clean

all: build vet test

# Everything .github/workflows/ci.yml runs, in the same order. The
# trace-codec fuzz passes are fail-soft: ten seconds of coverage-guided
# decoding catches framing bugs early (and holds pmsbstat's streamed
# decoder to ReadBinary's decisions), but a fuzz-capable toolchain is
# not required to pass CI; the runtime dump pmsbstat -runtime parses,
# the two text grammars users hand the CLI (the replay trace CSV, flow's
# -groups list) and the calendar queue's pop order against the reference
# heap get the same treatment.
ci:
	# First, and in seconds: benchmark/ is its own module compiled against
	# internal/*, so a deletion that breaks its compile surface fails here
	# rather than after the race legs.
	cd benchmark && $(GO) build -o /dev/null ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	# -timeout: internal/experiment's golden gate runs every experiment,
	# which under the race detector nears go test's 10-minute default.
	# The mechanism-reach gate re-runs the golden set under coverage in a
	# child go test, so it gets its own step below instead.
	$(GO) test -race -timeout 30m -skip '^TestEveryMechanismReached$$' ./...
	# Mechanism reach: every constructor and plug-in type of the model
	# packages is executed by a golden-pinned experiment; surface reach:
	# every exported name and *Config field in internal/ has a non-test
	# caller or an exportedForTests row.
	$(GO) test -count=1 -run '^TestEvery(MechanismReached|ExportReferenced)$$' ./internal/experiment/
	# The repository benchmark is its own module, so ./... above skips
	# its contract, replay and non-perturbation tests.
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -run TestJobsDeterminism -count=1 ./cmd/pmsbsim
	# Determinism over the whole quick registry: -jobs 1 and -jobs 2
	# print the same bytes once the summary's wall times are off.
	$(GO) build -o ci_pmsbsim ./cmd/pmsbsim
	./ci_pmsbsim -all -quick -summary=false -jobs 1 > ci_jobs1.tsv
	./ci_pmsbsim -all -quick -summary=false -jobs 2 > ci_jobs2.tsv
	cmp ci_jobs1.tsv ci_jobs2.tsv
	@rm -f ci_pmsbsim ci_jobs1.tsv ci_jobs2.tsv
	-$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 10s ./internal/obs/
	-$(GO) test -run '^$$' -fuzz FuzzStreamReduce -fuzztime 10s ./internal/obs/
	-$(GO) test -run '^$$' -fuzz FuzzParseDump -fuzztime 10s ./internal/obs/runtime/
	-$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime 10s ./internal/workload/
	-$(GO) test -run '^$$' -fuzz FuzzParseGroups -fuzztime 10s ./cmd/pmsbsim/
	-$(GO) test -run '^$$' -fuzz FuzzCalendarMatchesHeap -fuzztime 10s ./internal/sim/
	-$(GO) test -run '^$$' -fuzz FuzzWaterfillMatchesReference -fuzztime 10s ./internal/flowsim/
	# Runtime-introspection smoke: a sharded run with live progress and a
	# self-profile dump, rendered back through pmsbstat -runtime.
	$(GO) run ./cmd/pmsbsim -experiment fattree-incast -quick -shards 4 \
		-progress=100ms -runtimestats ci_runtime.rtstats > /dev/null
	$(GO) run ./cmd/pmsbstat -runtime ci_runtime.rtstats > /dev/null
	@rm -f ci_runtime.rtstats
	# Option refusal smoke: a lone fig8 (dumbbell) or fct-dwrr
	# (leaf-spine) -shards 2 fails with no table printed;
	# scenario-fattree's fat-tree reports running on 2 shards.
	@for e in fig8 fct-dwrr; do \
		if $(GO) run ./cmd/pmsbsim -experiment $$e -quick -shards 2 > ci_refused.tsv; then \
			echo "$$e -shards 2 was not refused"; exit 1; fi; \
		test ! -s ci_refused.tsv || { echo "a refused $$e run printed a table"; exit 1; }; \
	done; \
	rm -f ci_refused.tsv
	$(GO) run ./cmd/pmsbsim -experiment scenario-fattree -quick -shards 2 > ci_sharded.tsv
	grep -qE '^# scenario-fattree[[:space:]].*[[:space:]]packet[[:space:]]2$$' ci_sharded.tsv
	@rm -f ci_sharded.tsv
	# Ad-hoc smoke: generate a trace, replay it traced, read the trace. A
	# negative -since is a usage error: exit 1 with a message, not a Go
	# panic's exit 2 (read from a built binary: go run folds both into 1).
	$(GO) run ./cmd/pmsbsim replay -gen 50 > ci_replay.csv
	$(GO) run ./cmd/pmsbsim replay -trace ci_replay.csv -marker pmsb -tracefile ci_replay.trace.bin > /dev/null
	$(GO) build -o ci_pmsbstat ./cmd/pmsbstat
	./ci_pmsbstat ci_replay.trace.bin > /dev/null
	@status=0; ./ci_pmsbstat -since -1ms ci_replay.trace.bin > /dev/null 2> ci_since.err || status=$$?; \
	cat ci_since.err; \
	test "$$status" = 1 || { echo "pmsbstat -since -1ms exited $$status, want 1"; exit 1; }; \
	grep -q '^pmsbstat: -since -1ms: ' ci_since.err || { echo "pmsbstat -since -1ms printed no error message"; exit 1; }
	@rm -f ci_replay.csv ci_replay.trace.bin ci_pmsbstat ci_since.err
	# Multi-file smoke: a two-shard trace reads back as one trace, the
	# merged export prints exactly as many events as the report counts,
	# and the per-queue tx_pkts column sums to the dequeue count.
	$(GO) run ./cmd/pmsbsim -experiment fattree -quick -shards 2 -tracefile ci_ft.bin > /dev/null
	$(GO) run ./cmd/pmsbstat ci_ft.shard0.bin ci_ft.shard1.bin > ci_ft.report
	@head=$$(sed -n 1p ci_ft.report); \
	n=$$($(GO) run ./cmd/pmsbstat -export ci_ft.shard0.bin ci_ft.shard1.bin | wc -l | tr -d ' '); \
	echo "$$head; export: $$n lines"; \
	case "$$head" in "# trace: $$n events,"*) ;; *) echo "pmsbstat: export and report disagree"; exit 1;; esac
	@deq=$$(awk '$$1 == "dequeue" { print $$2 }' ci_ft.report); \
	tx=$$(awk '/^## queue depth/ { on = 1; getline; next } on && NF == 0 { on = 0 } on { s += $$10 } END { print s + 0 }' ci_ft.report); \
	echo "dequeue events: $$deq; per-queue tx_pkts: $$tx"; \
	test -n "$$deq" && test "$$deq" -gt 0 && test "$$tx" = "$$deq" || { echo "pmsbstat: per-queue tx_pkts and dequeue count disagree"; exit 1; }
	@rm -f ci_ft.shard0.bin ci_ft.shard1.bin ci_ft.report
	# k=32 smoke: the arena-backed 49k-port fabric builds with zero slab
	# overflow, wires correctly, and a short sharded horizon stays
	# byte-identical to the serial run.
	$(GO) test -race -count=1 -run 'TestFatTree32' ./internal/topo/
	$(GO) test -race -count=1 -run TestDifferentialFatTree32ShortHorizon .
	# Coordinator on seeded random shard graphs (2-8 shards, random cut
	# edges and local work) must match the serial engine, race-checked.
	$(GO) test -race -count=1 -run TestCoordinatorRandomPartitionsMatchSerial ./internal/sim/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The repository benchmark (contract: BENCHMARK.json; method and
# workloads: benchmark/README.md): every workload, plain and traced,
# with machine provenance, into one report. benchmark-compare measures
# the working tree the same way and compares it against a report taken
# earlier (typically on the parent commit); it exits non-zero on a
# regression beyond a metric's bound and refuses reports from a
# different machine.
BENCH_REPORT ?= .bench_build/report.json

benchmark:
	sh benchmark/run.sh run -out $(BENCH_REPORT) -trace

benchmark-compare:
	@test -n "$(BASE)" || { echo "usage: make benchmark-compare BASE=base-report.json"; exit 1; }
	$(MAKE) benchmark
	sh benchmark/run.sh compare $(BASE) $(BENCH_REPORT)

# Every go-test benchmark (one per paper table/figure plus per-decision
# and per-packet micro-benches).
bench-all:
	$(GO) test -bench . -benchmem .

# Regenerate every table and figure at full fidelity (~10 minutes).
reproduce:
	$(GO) run ./cmd/pmsbsim -all

# The same sweep with reduced durations (~1 minute).
quick-reproduce:
	$(GO) run ./cmd/pmsbsim -all -quick

clean:
	$(GO) clean ./...
