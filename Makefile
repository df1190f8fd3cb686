# Developer entry points. `make tier1` is the gate every change must pass:
# full build, vet, and the race-enabled test suite.

GO ?= go

.PHONY: tier1 build vet test race race-hot chaos e2e loadgen-smoke fuzz-smoke benchmark-module bench-reopen bench-stateroot

tier1: build vet benchmark-module race-hot chaos loadgen-smoke e2e fuzz-smoke race

build:
	$(GO) build ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchmark/ is a module of its own that imports repro/internal/...: vet
# and short-test it here, so a root-module API change that breaks it
# fails tier1 instead of the next benchmark run.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Fast-failing race pass over the concurrency-heavy packages (shared
# instrument handles, blob retrieval) before the full suite runs.
race-hot:
	$(GO) test -race -count=1 ./internal/telemetry/... ./internal/blobstore/... ./internal/ledger ./internal/consensus ./internal/simnet ./internal/chaos ./internal/transport/... ./internal/admission ./internal/ingest ./internal/search ./internal/contract ./internal/store ./internal/merkle

# Open-loop load generator smoke: a short low-rate run against an
# in-process node with admission control on must finish with zero
# failed, shed, or client-dropped requests.
loadgen-smoke:
	$(GO) test -count=1 -run TestLoadgenSmoke ./internal/loadgen

# Every Fuzz* target in the module, FUZZTIME each: the decoders of bytes
# from the wire and the disk (blocks, txs, frames, logs, segments, the
# checkpoint's search snapshot) meet fresh inputs on every run, not only
# their seeds. `go test -fuzz` takes one target per run. A failure leaves
# its input under the package's testdata/fuzz/.
FUZZTIME ?= 3s
fuzz-smoke:
	@set -e; for dir in $$(grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for fn in $$($(GO) test -list '^Fuzz' $$dir | grep '^Fuzz'); do \
			echo "fuzz $$dir $$fn"; \
			$(GO) test -run NONE -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -parallel 2 $$dir; \
		done; \
	done

# Multi-process cluster test: builds the daemon, boots 4 validators over
# loopback TCP, drives transactions through the HTTP API, and kill -9s a
# node to check WAL recovery + consensus sync (bounded ~30s).
e2e:
	$(GO) test -count=1 -timeout 240s ./internal/e2e

# The in-process cluster and its deterministic chaos scenarios (fixed
# seeds baked into the tests): convergence, crash/restart recovery,
# rolling restarts, partition+heal, crash-during-commit, corrupt links,
# churn, and the determinism fingerprint itself (`go test -v -run
# TestChaosDeterministicFingerprint ./internal/chaos` prints it).
chaos:
	$(GO) test -count=1 ./internal/chaos

# Reopen cost: full replay vs checkpoint restore (EXPERIMENTS.md E15b),
# then a daemon's two other boot costs: the search index's checkpoint blob
# (8 000 articles) and the classifier's training (E32).
bench-reopen:
	$(GO) test -run NONE -bench 'BenchmarkOpen(Replay|Checkpoint)' -benchtime 5x ./internal/platform
	$(GO) test -run NONE -bench 'BenchmarkIndexSnapshot' -benchmem ./internal/search
	$(GO) test -run NONE -bench 'BenchmarkLogisticRegressionTrain' -benchmem ./internal/aidetect

# State-root cost against state size and the rebuild-from-nothing path
# (EXPERIMENTS.md E24). The 1M-key cases need about 2 GB and a minute.
bench-stateroot:
	$(GO) test -run NONE -bench 'BenchmarkStateRoot' -benchmem ./internal/contract
	$(GO) test -run NONE -bench 'BenchmarkTrieRebuild' -benchmem -benchtime 3x ./internal/merkle
