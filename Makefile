GO ?= go

.PHONY: all build test fuzz-smoke race race-runner lint gates pins modelpin-diff determinism bench-smoke bench-gate bench-baseline profile-sweep flaky figures-gate goldens

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Twelve seconds of native fuzzing, split over the eleven targets: the event
# queue's fire order against a sorted reference and Env.Rand's stream
# against math/rand's under any seed and draw program (internal/sim
# FuzzFireOrder, FuzzRandStream), the two on-disk decoders against hostile
# pages and record streams, each differentially against the copying decoder
# it replaced (minidb FuzzLeafCodec, kvstore FuzzDecodeRecords), the
# target controller's PRP-list fetch against a one-shot walk over resident
# memory, on valid and corrupted PRP chains (internal/nvmet FuzzPRPFetch),
# the CID leaf table against the Go map it replaced under any program of
# put/get/delete/iterate, leaves accounted for (internal/nvme FuzzCIDTable),
# the initiator's reap against a device that writes any sixteen bytes
# anywhere in a CQ ring and interrupts when it likes — differentially against
# a reference reaper, then through the driver's CID accounting on top of it
# (internal/host FuzzInitiatorReap), and the two offline-viewer loaders
# against any bytes: a crash-sweep or fleet export either fails to load or
# renders, re-encodes and re-loads to the same value (internal/crash
# FuzzLoadSweeps, internal/fleet FuzzFleetLoad; their seeds are whole real
# exports, so minimisation is capped to keep the second fuzzing), and the
# SSD's block store under any program of aligned, torn, unaligned and partial
# writes and range zeroes, every read path against a flat reference and the
# whole-block exchange by pointer (internal/ssd FuzzBlockStore), and host
# memory under any program of writes, reads and words across short pieces'
# ends and page edges and loans of a lendable range, every read path against
# a flat reference and each page short exactly when everything written to it
# lies in its first 256 bytes (internal/hostmem FuzzMemory).
# The committed corpora under testdata/fuzz already run as part of
# `make test`; this looks for new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFireOrder$$' -fuzztime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRandStream$$' -fuzztime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzLeafCodec$$' -fuzztime 1s ./internal/apps/minidb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecords$$' -fuzztime 1s ./internal/apps/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzPRPFetch$$' -fuzztime 1s ./internal/nvmet
	$(GO) test -run '^$$' -fuzz '^FuzzCIDTable$$' -fuzztime 1s ./internal/nvme
	$(GO) test -run '^$$' -fuzz '^FuzzInitiatorReap$$' -fuzztime 2s ./internal/host
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSweeps$$' -fuzztime 1s -fuzzminimizetime 100x ./internal/crash
	$(GO) test -run '^$$' -fuzz '^FuzzFleetLoad$$' -fuzztime 1s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzBlockStore$$' -fuzztime 1s ./internal/ssd
	$(GO) test -run '^$$' -fuzz '^FuzzMemory$$' -fuzztime 1s ./internal/hostmem

# Race job runs the short suite: long soak tests carry testing.Short()
# guards so the race detector's ~10x slowdown stays within CI budget.
race:
	$(GO) test -race -short ./...

# The parallel fan-out path under the race detector, uncached: the worker
# pool's claiming/panic plumbing, the serial-vs-parallel equivalence sweeps
# and the crash sweep's serial-vs-parallel check, which run real rigs (chaos
# and crash-recovery ones among them) on concurrent goroutines.
race-runner:
	$(GO) test -race -count=1 -run 'Pool|Harness|SerialParallel|SetDigest|CrashSweepDeterminism' ./internal/experiments/ ./internal/trace/

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs the pinned version)"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "lint: shellcheck not installed; skipping (CI runs it)"; \
	fi
	@# A rig without a tracer pays one compare per trace site only while
	@# (*Tracer).Emit, the nil check in front of the digest fold, inlines.
	@$(GO) build -gcflags=-m ./internal/trace 2>&1 | grep -q 'can inline (\*Tracer).Emit' || \
		{ echo "lint: (*trace.Tracer).Emit no longer inlines"; exit 1; }

# The determinism gate: every replay scenario twice with the same seed,
# asserting bit-identical trace digests (see internal/trace/replay_test.go).
determinism:
	$(GO) test -run Determinism -count=1 ./...

# The cross-commit pins: what traced rigs emit at which virtual nanosecond
# (TestModelledBehaviourPinned), how many kernel events a command costs
# (TestEventBudgetPerCommand) and what the observers export for a rig
# (TestObserverExportsPinned), each against constants taken at an earlier
# commit, and how many coroutine resumes the I/O path costs (TestResumeBudget:
# none per fio or fleet-tenant I/O, one per ReadAt). A few seconds.
pins:
	$(GO) test -run 'TestModelledBehaviourPinned|TestEventBudgetPerCommand|TestObserverExportsPinned|TestResumeBudget' -count=1 .

# "Every pinned digest is unchanged": the replay suite, the cross-commit pins
# and the five smoke gates of cmd/bmsctl/gate_test.go. With figures-gate and
# bench-gate, no change to the data path moved a virtual nanosecond or alloc.
gates: determinism pins
	$(GO) test -count=1 -v -run '^TestGate(Fault|Chaos|Timeline|Fleet|Crash)$$' ./cmd/bmsctl

# Neutrality against another commit, beyond what pinned seeds and goldens
# see: both pin tests' rigs at seeds 1..SEEDS on this tree and on REF
# (unpacked into a temporary directory), every logged line compared —
# TestModelledBehaviourPinned's records:hash (no modelled time moved) and
# TestObserverExportsPinned's export:sha256 (the observers report the same
# bytes); non-zero exit on any difference. ~0.1 s per rig and side — a few
# minutes at the default 400 seeds. Run it before claiming that a change to
# the kernel, the data path or the observers is neutral.
SEEDS ?= 400
modelpin-diff:
	@test -n "$(REF)" || { echo "usage: make modelpin-diff REF=<commit> [SEEDS=400]"; exit 2; }
	bash scripts/modelpin_diff.sh "$(REF)" "$(SEEDS)"

# One iteration of every benchmark — catches bit-rot in benchmark code and
# gives a cheap overhead spot-check without a full measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Alloc-regression gate: the kernel throughput benchmarks, the end-to-end
# I/O path benchmarks, the application round and a 4-SSD rig's construction
# must stay at the committed allocs/op baseline
# (scripts/bench_allocs_baseline.txt).
bench-gate:
	bash scripts/check_bench_allocs.sh

# Re-bless the alloc baselines after an intentional allocation change; the
# commit diff is the written justification the baseline header asks for.
bench-baseline:
	bash scripts/bless_bench_allocs.sh

# CPU and heap profile of the serial fast sweep plus pprof -top summaries;
# artifacts land in PROFILE_OUT (default /tmp/bmstore-profile).
PROFILE_OUT ?= /tmp/bmstore-profile
profile-sweep:
	mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/bmsctl sweep -scale fast -parallel 1 \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/mem.pprof \
		> $(PROFILE_OUT)/bench_tables.txt
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_OUT)/cpu.pprof
	$(GO) tool pprof -top -nodecount=25 -sample_index=alloc_objects $(PROFILE_OUT)/mem.pprof

# Paper-fidelity gate (TestGateFigures): the fast sweep against the goldens,
# the shape rules and bench_tables.txt; artifacts land in $$FIGURES_OUT.
figures-gate:
	$(GO) test -count=1 -run '^TestGateFigures$$' ./cmd/bmsctl

# Bless the current fast-sweep numbers: rewrite goldens/*.json and
# bench_tables.txt in one run. Refused if the fresh results violate any
# paper-shape rule — recalibration may move numbers, never the story.
goldens:
	$(GO) run ./cmd/bmsctl sweep -scale fast -trace-digest -write-goldens goldens > bench_tables.txt

# Flakiness sweep: the full suite twice, fresh processes, no test cache.
flaky:
	$(GO) test -count=2 ./...
