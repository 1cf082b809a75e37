GO ?= go

.PHONY: check build test race vet bench

check: ## vet + build + full tests + race pass on the storage stack
	sh scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race: ## the race step of CI's race job: the whole module, short workloads
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...
