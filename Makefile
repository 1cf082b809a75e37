GO ?= go

.PHONY: check build test race vet bench

check: ## vet + build + full tests + race pass over the whole module
	sh scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race: ## the whole module under the race detector, short workloads
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...
