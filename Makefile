# Development entry points. `make check` runs scripts/check.sh, the full
# CI gate; the individual targets exist for fast local iteration.

GO ?= go

.PHONY: all build vet lint test race bench check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# voltvet is the repo's own stdlib-only analyzer suite (cmd/voltvet):
# determinism boundary, map-order hazards, hot-path allocation hygiene,
# service-layer lock discipline, dropped errors. Exits non-zero on any
# finding; accepted exceptions carry an inline //voltvet:ignore reason.
lint:
	$(GO) run ./cmd/voltvet ./...

test:
	$(GO) test ./...

# The race target is where the parallel experiment runner earns its
# keep: the determinism tests raise GOMAXPROCS and fan Table 1, the
# retention sweep and the defense survey across workers under the race
# detector. -short skips only the heavyweight repeats (Table 4, CaSE,
# the doubled Countermeasures run).
race:
	$(GO) test -race -short ./...

# Full measurement run (slow): every table and figure as a benchmark.
bench:
	$(GO) test -bench . -benchmem ./...

check:
	sh scripts/check.sh
