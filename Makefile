# Developer and CI entry points. `make ci` is the tier-1 gate.

GO ?= go

.PHONY: all build test test-cpu test-purego fuzz-smoke vet lint deadcode race race-train race-parallel bench-smoke examples-smoke smoke-campaign smoke-train smoke-serve smoke-dist docs fmt-check verify-style ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-cpu reruns the kernel determinism and property tests of the
# packages whose loops sit directly on internal/parallel's worker team
# (gather/deposit, binning, the kick's chunked sums, the row-parallel
# GEMMs), internal/pic's whole-step bit-identity check, and
# internal/nn's optimizer-step check against the serial element loops,
# with the process started at 1, 2 and 4 processors, so the team's size
# at start-up varies as well as the GOMAXPROCS the tests switch to
# themselves.
test-cpu:
	$(GO) test -cpu 1,2,4 ./internal/interp ./internal/phasespace ./internal/mover ./internal/pic ./internal/tensor
	$(GO) test -cpu 1,2,4 -run 'OptimizerStep' ./internal/nn

# test-purego runs the GEMM, training and golden-hash suites with the
# purego build tag, which replaces internal/tensor's AVX row update with
# its Go loops: the pinned hashes must hold on both paths.
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn .

# fuzz-smoke runs the repository's fuzz target, FuzzAxpy (the AVX GEMM
# row update against its Go loops, bit for bit), for a bounded 10 s.
# Minimizing each new-coverage input is capped at 0.5 s: uncapped, the
# engine spends most of the 10 s minimizing inputs that reach new
# coverage in the instrumented Go loops instead of fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAxpy -fuzztime 10s -fuzzminimizetime 0.5s ./internal/tensor

vet:
	$(GO) vet ./...

# lint runs the repo's own determinism/serialization static analyzers
# (tools/determlint): nondeterministic inputs in internal packages,
# map-order leaks into ordered sinks, raw concurrency outside the
# sanctioned packages, order-dependent float folds, and unpinned
# gob-serialized types. Suppressions need an in-source
# `//determlint:ignore <analyzer> <reason>` directive.
lint:
	$(GO) run ./tools/determlint ./...

# deadcode fails on any function of the root package or under internal/
# that no binary of the repository links (tools/deadcode): it builds
# every main package, tools/bench's included, with inlining off and
# reads the linked symbols.
# An exception needs an in-source `//deadcode:keep <item or test>`
# directive naming what calls it; a keep on a function some binary
# reaches is a finding too, so exceptions cannot go stale.
deadcode:
	$(GO) run ./tools/deadcode

# race runs every internal package that defines raw concurrency or
# transitively imports one (the sweep, campaign and kernel packages)
# under the race detector. The list is derived by determlint's
# raw-concurrency classifier, not hand-maintained; internal/nn is
# excluded because its concurrent shard workers are covered by the
# focused race-train target below (the full nn suite is too slow under
# -race).
race:
	pkgs="$$($(GO) run ./tools/determlint -race-packages -race-exclude internal/nn ./...)" && \
		$(GO) test -race $$pkgs

# race-train runs the training-engine determinism property tests under
# the race detector (the full nn suite is too slow under -race; these
# are the tests that exercise the concurrent shard workers, including
# checkpoint/resume of the sharded trainer at Workers=1,2,4,8).
race-train:
	$(GO) test -race -run 'BitIdentical|Sharded|TailBatch|ShardEngine|ForwardShard|Checkpoint|Resume' ./internal/nn/

# race-parallel repeats internal/parallel's own suite under the race
# detector at 1, 2 and 4 processors. `make race` runs it once; the worker
# team's park/wake handshake is a timing window, and it takes repetition
# at several team sizes to land in it.
race-parallel:
	$(GO) test -race -count=20 -cpu 1,2,4 ./internal/parallel

# bench-smoke keeps the repository benchmark building and passing its
# own checks. tools/bench is its own module, so `make ci` never compiles
# it and a kernel signature change would break it unnoticed: vet and
# test the module, then run every workload once at smoke sizes with
# tracing on — which also runs the shadow-step bit-identity check
# against interp/mover/phasespace/nn. The numbers it prints mean nothing.
bench-smoke:
	$(GO) vet -C tools/bench ./...
	$(GO) test -C tools/bench ./...
	$(GO) run -C tools/bench dlpic/tools/bench -quick -workload all -trace 1

# examples-smoke builds and runs each program under examples/ and fails
# on the first non-zero exit; what they print is not checked. The six
# take about 5 s together on 2 vCPUs (training and vlasov ~2 s each).
examples-smoke:
	for e in examples/*/; do echo "== $$e"; $(GO) run "./$$e" || exit 1; done

# smoke-campaign is the CI interrupt/resume check: run a tiny
# multi-method campaign with a journal, truncate the journal to its
# first two cells (exactly what a kill leaves behind), resume, and
# require the bit-exact campaign digest to match the uninterrupted run.
SMOKE_FLAGS = -scan -methods traditional,oracle -scan-v0s 0.2 -scan-vths 0,0.01 \
	-scan-ppc 40 -steps 40 -workers 4
SC_DIR ?= /tmp/dlpic-smoke-campaign
smoke-campaign:
	mkdir -p $(SC_DIR)
	rm -f $(SC_DIR)/full.jsonl $(SC_DIR)/part.jsonl
	$(GO) build -o $(SC_DIR)/exp ./cmd/experiments
	$(SC_DIR)/exp $(SMOKE_FLAGS) -journal $(SC_DIR)/full.jsonl > $(SC_DIR)/full.out
	head -n 2 $(SC_DIR)/full.jsonl > $(SC_DIR)/part.jsonl
	$(SC_DIR)/exp $(SMOKE_FLAGS) -resume $(SC_DIR)/part.jsonl > $(SC_DIR)/resumed.out
	grep '^campaign digest:' $(SC_DIR)/full.out > $(SC_DIR)/digest-full
	grep '^campaign digest:' $(SC_DIR)/resumed.out > $(SC_DIR)/digest-resumed
	cat $(SC_DIR)/digest-full
	diff $(SC_DIR)/digest-full $(SC_DIR)/digest-resumed

# smoke-train is the CI kill/resume gate for *training*, mirroring
# smoke-campaign one layer down. Part 1 (cmd/train): start a fit with
# -checkpoint, kill -9 it the instant the mid-fit checkpoint lands
# (~half the epochs), resume to the full budget, and require the final
# model bundle to be byte-identical to an uninterrupted run's. Part 2
# (cmd/experiments): kill a DL campaign mid-training the same way,
# resume it (the log shows training picked up from the epoch
# checkpoint or, if the kill raced past training, from the persisted
# bundle) and require the bit-exact campaign digest; then resume the
# now-complete campaign once more and require ZERO training epochs in
# its log — the persisted bundle makes retraining unnecessary.
ST_DIR = /tmp/dlpic-smoke-train
ST_FIT = -data $(ST_DIR)/corpus.ds -arch mlp -hidden 512 -batch 16 -epochs 10
ST_SCAN = -scan -methods mlp -scan-v0s 0.2 -scan-vths 0.01 -steps 30 -workers 2
smoke-train:
	$(GO) build -o $(ST_DIR)/train ./cmd/train
	$(GO) build -o $(ST_DIR)/datagen ./cmd/datagen
	$(GO) build -o $(ST_DIR)/exp ./cmd/experiments
	rm -rf $(ST_DIR)/work && mkdir -p $(ST_DIR)/work
	$(ST_DIR)/datagen -out $(ST_DIR)/corpus.ds -v0s 0.15,0.2 -vths 0 -repeats 1 -steps 60 -every 1 -ppc 30
	# --- part 1: kill cmd/train mid-fit, resume, byte-diff the bundles
	$(ST_DIR)/train $(ST_FIT) -out $(ST_DIR)/work/ref.dlpic 2> $(ST_DIR)/work/ref.log
	$(ST_DIR)/train $(ST_FIT) -out $(ST_DIR)/work/killed.dlpic \
		-checkpoint $(ST_DIR)/work/kill.ckpt -checkpoint-every 5 2> $(ST_DIR)/work/kill.log & \
	pid=$$!; i=0; while [ ! -f $(ST_DIR)/work/kill.ckpt ] && [ $$i -lt 6000 ]; do i=$$((i+1)); sleep 0.01; done; \
	kill -9 $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true
	test ! -f $(ST_DIR)/work/killed.dlpic # the kill must land before the fit finishes
	$(ST_DIR)/train $(ST_FIT) -out $(ST_DIR)/work/resumed.dlpic \
		-checkpoint $(ST_DIR)/work/kill.ckpt -checkpoint-every 5 -resume 2> $(ST_DIR)/work/resume.log
	grep -q 'resumed training' $(ST_DIR)/work/resume.log # mid-fit resume, or 0-epoch restore if the kill raced past the last epoch
	cmp $(ST_DIR)/work/ref.dlpic $(ST_DIR)/work/resumed.dlpic
	# --- part 2: kill a DL campaign mid-training, resume bit-identically
	$(ST_DIR)/exp $(ST_SCAN) -journal $(ST_DIR)/work/full.jsonl > $(ST_DIR)/work/full.out 2> $(ST_DIR)/work/full.log
	$(ST_DIR)/exp $(ST_SCAN) -journal $(ST_DIR)/work/kill.jsonl > $(ST_DIR)/work/killc.out 2> $(ST_DIR)/work/killc.log & \
	pid=$$!; i=0; while ! ls $(ST_DIR)/work/kill.jsonl.artifacts/*.ckpt >/dev/null 2>&1 && [ $$i -lt 6000 ]; do i=$$((i+1)); sleep 0.01; done; \
	kill -9 $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true
	$(ST_DIR)/exp $(ST_SCAN) -resume $(ST_DIR)/work/kill.jsonl > $(ST_DIR)/work/res.out 2> $(ST_DIR)/work/res.log
	grep -Eq 'resumed training|reusing persisted bundle' $(ST_DIR)/work/res.log
	# --- part 3: resume the completed campaign — zero training epochs
	$(ST_DIR)/exp $(ST_SCAN) -resume $(ST_DIR)/work/kill.jsonl > $(ST_DIR)/work/res2.out 2> $(ST_DIR)/work/res2.log
	test "$$(grep -cE '^epoch ' $(ST_DIR)/work/res2.log)" = 0
	grep '^campaign digest:' $(ST_DIR)/work/full.out > $(ST_DIR)/work/digest-full
	grep '^campaign digest:' $(ST_DIR)/work/res.out > $(ST_DIR)/work/digest-res
	grep '^campaign digest:' $(ST_DIR)/work/res2.out > $(ST_DIR)/work/digest-res2
	cat $(ST_DIR)/work/digest-full
	diff $(ST_DIR)/work/digest-full $(ST_DIR)/work/digest-res
	diff $(ST_DIR)/work/digest-full $(ST_DIR)/work/digest-res2

# smoke-serve is the CI lifecycle gate for the dlpicd campaign daemon
# (tools/smoke-serve.sh): run A checks submit/dedup/poll/drain over
# HTTP and records the campaign digest; run B SIGKILLs the daemon mid-
# training and requires a restarted daemon over the same data directory
# to resume the job unprompted to the bit-exact same digest, with
# byte-identical persisted model bundles across the two runs.
smoke-serve:
	GO="$(GO)" sh ./tools/smoke-serve.sh

# smoke-dist is the CI chaos gate for distributed campaign execution
# (tools/smoke-dist.sh): a coordinator-mode dlpicd with a 1s lease TTL
# and real dlpicworker processes — one kill -9'd mid-cell, one
# SIGSTOPped past its lease TTL, one injecting deterministic RPC
# faults, plus a kill -9 and restart of the coordinator daemon itself —
# must finish the campaign to the bit-exact serial digest, with each
# cell journaled exactly once and no cell over its retry budget.
smoke-dist:
	GO="$(GO)" sh ./tools/smoke-dist.sh

# docs fails when an exported identifier lacks a doc comment, keeping
# `go doc` usable as the API reference.
docs: vet
	$(GO) run ./tools/lintdoc .

# fmt-check fails (listing offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# verify-style is the one style gate, identical for developers and CI:
# gofmt cleanliness plus doc-comment coverage (which runs vet first).
verify-style: fmt-check docs

ci: build vet test
