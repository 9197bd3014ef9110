GO ?= go

.PHONY: all build vet lint lint-deprecated test race bench loc scenario-smoke examples-smoke fuzz-smoke cover verify-figs api-check api-update ci

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint fails on any file gofmt would change, then runs staticcheck when it
# is installed, and falls back to go vet otherwise so the target works
# offline and in minimal containers.
lint: lint-deprecated
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "not gofmt-formatted (run gofmt -w):"; echo "$$bad"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Grep gate for retired APIs: a name that a change deleted, or folded into
# another, must not come back. Each grep lists retired identifiers, scans
# every Go file unless it names a narrower set, and prints what replaced
# them.
lint-deprecated:
	@bad=$$(grep -rn '\.Clone()\|ErrInvalidProof\|ErrDuplicatePacket' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired API call sites (Clone() -> Snapshot/At/Release; use ErrProofVerification / ErrPacketAlreadyDelivered):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'NewPair\|PairRelayer\|WithPairTelemetry\|LinkRelayer' --include='*.go' . | grep -v 'LinkRelayerNode'); \
	if [ -n "$$bad" ]; then \
		echo "retired relayer API (there is one relayer: relayer.New over two ends):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'RunMesh\|RunLoad\|RunMiddleware\|RunMultiChannel\|RunAdaptiveRouting\|MeshResult\|LoadResult\|MiddlewareResult' --include='*.go' . | grep -v '^./benchmark/'); \
	if [ -n "$$bad" ]; then \
		echo "retired scenario drivers (a scenario is a Scenario literal: experiments.Lookup + Scenario.Run):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'RunOutage\|RunRecover\|OutageResult\|RecoverResult\|UnmarshalTrie' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired drivers and serialiser (outage and recover are registry scenarios; trie nodes persist through nodecodec.go):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'KindUpdateClient\|KindRecvPacket\|KindAckPacket\|KindTimeoutPacket' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired call kinds (a cosmos end submits transactions: netsim.KindTx carrying MsgUpdateClient/MsgRecvPacket/MsgAckPacket/MsgTimeoutPacket):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'WithTransport\|FlowProfile\|ChannelMix\|PrewarmTop\|MintBatch\|RelayerConfig\|WithNodeStore\|CPNodeStore\|OpLatency' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired settings (DESIGN.md lists the configuration surface that remains; daemons take the network as a constructor argument):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'UpdateRecord\|RecvRecord\|recordSeries\|seriesSet\|TimeoutsRun' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired relayer records (read the relayer.* histograms and counters and the tracer's spans):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'decodeEnd\|expectedConnectionBytes\|expectedChannelBytes\|DelayPeriod' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired end encoding (ends go through internal/ibc/ends_wire.go, one encoder for stored and expected ends):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn '\.PowerOf(' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired power lookup (a commit lists its signers in set order; verifyCommit walks the set by position):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'ackPacket\|timeoutPacket\|recvJob\|UnmarshalAckPayload\|UnmarshalTimeoutPayload\|RecvBudgeter\|RecvBudget\|recvBatchLen\|chargeRecv' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired single-item datagrams (ends take batches: ackPackets/timeoutPackets; decode with UnmarshalAckPayloads/UnmarshalTimeoutPayloads; declare hook budgets with ibc.HookBudgeter):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'SetQuorumObserver\|BusStats\|WithFeesTelemetry\|net_attempts\|update_verify_s\|sign_latency_s\|transfer\.WithTelemetry\|transfer\.WithMetricsNamespace\|fisherman\.WithTelemetry' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired unread telemetry (a key stays only with a reader; see TestEveryMetricHasAReader in internal/core):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'UpdateClientPayload\|MarshalUpdateClientPayload\|UnmarshalUpdateClientPayload' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired update-client payload (the staging buffer is tendermint.Update.Marshal's bytes; stage it with TxBuilder.BeginUpdateClient/UpdateClientTxs):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'settleRecvs\|\.enqueue(' --include='*.go' internal/relayer); \
	if [ -n "$$bad" ]; then \
		echo "retired guest job completions (every guest-bound job is a settledJob, pushed onto its pacer):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'unpackPath|appendPacked|commonPrefixLen|descentPath|pathScratch|reverseItems' --include='*.go' internal/trie); \
	if [ -n "$$bad" ]; then \
		echo "retired bit-per-byte path helpers (a trie path is the packed form: matchLen, slice, concat and bit on internal/trie's path):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'deliverEntry|relayAcks|ackBacklog' --include='*.go' internal/relayer); \
	if [ -n "$$bad" ]; then \
		echo "retired guest-source delivery (a landed guest header queues its block's work on the shards and flushes; see guestEnd.landed):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnwE 'Event(CreateClient|UpdateClient|ConnOpen(Init|Try|Ack|Confirm)|ChanOpen(Init|Try|Ack|Confirm)|ChanClose(Init|Confirm)|ChannelClosed|RecvPacket|PacketQueued|Signed|Staked|Unstaked|Withdrawn|EmergencyRelease|ValidatorSlashed)' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired unread event kinds (a kind stays only with a reader; see TestEveryEventHasAReader in internal/core):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'preVerifyShardedLocked\|preVerifyShards\|preVerified\|VerifySignature\|CUPerEd25519Verify\|updateClientPresigned' --include='*.go' --exclude='*_test.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired signature paths (a transaction's precompile batch is verified when executeLocked runs it; cryptoutil.BatchVerifier is the one pool and cache):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'AscentItem\|AscentKind\|ownPaths\|LeafPathLen\|ExtPathLen' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired proof struct (a trie.Proof is its encoding: Prove writes it into one buffer, the verifiers read it in place):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'valueRev\|writeLog\|pruneValuesLocked\|trimHistoryLocked\|ErrValueMismatch\|errOutOfSync\|ValueAt' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired value history (a trie leaf holds its value: trie.Put/Value; the backend stores it under its hash: ValuePut/ValueGet):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'SetBlockRetention\|BlocksSince\|BlockAt' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired block retention (a host block lives until its slowest reader passes it: pull through host.Chain.NewReader):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnwE 'pruneSnapshots|evictColdSnapshots|versionRefs|oldestSnapshot|coldCursor' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired per-chain snapshot windows (the ibc.Store indexes versions by height: CommitAt/ShareAt, SetProvableHeights/SetHotHeights, AtHeight):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$( { grep -rnw 'SubmitMisbehaviour\|ErrFrozen\|SetPayee' --include='*.go' .; grep -rn 'Frozen()' --include='*.go' .; grep -rnE 'func \([a-z]* \*Validator\) (Stop|Resume)\(' --include='*.go' .; } ); \
	if [ -n "$$bad" ]; then \
		echo "retired second paths (misbehaviour: guest.Contract OpSubmitMisbehaviour via the fisherman; outages: netsim Network.Crash/Heal or a CrashWindow; fee payee: Fees.SetPayeeResolver):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'HashFromHex\|VerifyHash' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired test-only cryptoutil names (verify a digest with cryptoutil.Verify(pub, h[:], sig)):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'NewTxBuilderForProfile\|ResizeStateAccount\|MempoolFree\|VersionRoot\|ConsensusRoot\|RecoveredHeight' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired test-only names (guest.NewTxBuilder sizes for the contract's host; ibc.Store.AtHeight serves recovered heights; see TestEveryExportHasAReader):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnw 'ErrDeadLetter\|MaxAttempts\|DeadLetters\|ReorderDelay' --include='*.go' .); \
	if [ -n "$$bad" ]; then \
		echo "retired dead-letter mode (netsim.ReliableCall retries until answered; a relayer job is given up only when the host refuses a transaction; a reordered message is held 500ms):"; \
		echo "$$bad"; exit 1; \
	fi

# Tier-1 gate: everything must compile, vet clean, pass the test suite, and
# the concurrency-heavy packages must be race-clean — telemetry (shared
# mutable state everywhere), relayer and core now that the relayer runs
# per-channel shards on the scheduler, and trie and ibc, whose Views and
# read-only stores read the trie's published page tables and cells while
# the writer reuses freed cells, and cryptoutil, the light clients and the
# counterparty, whose commits are signed and verified on cryptoutil's
# worker goroutines. Full -race stays in `make ci`.
test: build vet
	$(GO) test ./...
	$(GO) test -race ./internal/telemetry/... ./internal/relayer/... ./internal/core/... ./internal/trie/... ./internal/ibc/... ./internal/cryptoutil/... ./internal/lightclient/... ./internal/counterparty/...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Code size per internal package and of cmd/guestsim, then their total:
# non-test Go lines that are neither blank nor comment-only.
# Simplification PRs quote their line deltas from this. (The repo
# benchmark is not a make target: see benchmark/README.md.)
loc:
	@total=0; for d in internal/*/ cmd/guestsim/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | grep -v '^\s*$$' | grep -vc '^\s*//'); \
		printf '%6d %s\n' $$n $${d%/}; total=$$((total + n)); \
	done; printf '%6d total\n' $$total

# Scenario smoke gate: the acceptance scenarios no Go test already runs
# at full size, each through the one runner and ledger. The mesh line and
# diamond under per-link chaos must deliver every routed transfer with
# exact escrow/voucher conservation at every hop; the middleware chain
# under drop/duplicate chaos must forward, settle fees and dispatch
# callbacks exactly once; the degraded diamond must migrate >= 90% of
# post-grace flows to the healthy arm and beat the same-seed static
# control's p99 while the relayer race delivers exactly once; the §V-C
# outage must stall finalisation for the 9.5 h the pivotal validator is
# dark and still deliver and acknowledge every transfer sent across it;
# and a disk-backed guest power-cut mid-stall must recover exactly the
# last finalised root with byte-identical proofs. guestsim exits non-zero
# on any ledger violation or failed verdict line, so this is pass/fail.
scenario-smoke:
	@for s in mesh-line mesh-diamond middleware-chaos adaptive outage recover; do \
		echo "guestsim -scenario $$s"; $(GO) run ./cmd/guestsim -scenario $$s >/dev/null || exit 1; \
	done
	@echo "scenario smoke: mesh, middleware, adaptive routing, outage and recovery hold"

# Examples smoke gate: nothing else runs the five example programs (each
# well under a second), and they are the only callers that wire a channel
# after the deployment is up or read the first client update's shape. One
# success line apiece.
examples-smoke:
	@out=$$($(GO) run ./examples/governance) || exit 1; \
		echo "$$out" | grep -q 'votes received by the DAO: 4' && echo "$$out" | grep -q 'PASSES' || { echo "examples/governance:"; echo "$$out"; exit 1; }
	@out=$$($(GO) run ./examples/tokentransfer) || exit 1; \
		echo "$$out" | grep -q '999 refunded: true' || { echo "examples/tokentransfer:"; echo "$$out"; exit 1; }
	@out=$$($(GO) run ./examples/fisherman) || exit 1; \
		echo "$$out" | grep -q 'rewards for 4 reports' || { echo "examples/fisherman:"; echo "$$out"; exit 1; }
	@out=$$($(GO) run ./examples/quickstart) || exit 1; \
		echo "$$out" | grep -q 'first light-client update:' || { echo "examples/quickstart:"; echo "$$out"; exit 1; }
	@out=$$($(GO) run ./examples/hostprofiles) || exit 1; \
		echo "$$out" | grep -q 'only engages where the transaction size limit demands it' || { echo "examples/hostprofiles:"; echo "$$out"; exit 1; }
	@echo "examples smoke: governance, tokentransfer, fisherman, quickstart and hostprofiles report success"

# Fuzz smoke gate: every native fuzz target runs for five seconds beyond its
# seed corpus (which plain `go test` already replays) — the recv staging
# buffer, the staged ack and timeout batches (shared proof tails, heap-
# charged decode) and update-client buffer, the persisted
# trie node format, the trie proof decoder, WAL recovery from an arbitrary
# segment, the ICS-24 key derivation, the channel and connection end
# decoders, the forward-memo parse, the two light-client update
# decoders (Tendermint update, guest signed block), the transfer
# packet data encoder (FuzzPacketDataMarshal: Marshal never panics and
# round-trips), the success-ack check against the JSON rule it shortcuts
# (FuzzSuccessAck), the packed trie path operations against the bit-per-byte
# model (FuzzPathOps), and the sealable trie against a map model
# (FuzzTrieDifferential: Set/Delete/Seal/Get under an ErrFull arena cap,
# the root equal to a trie built from scratch, every node encoding and
# decoding under its own hash), and the disk-backed ibc.Store against a
# per-version map model (FuzzStoreVersions: Set/Delete/receipt seals,
# commits, releases, evictions, syncs, power cuts and reopens; every
# retained version's reads and proofs checked after each step).
# One target per invocation: `go test -fuzz` takes a single match. A
# failure leaves the input under the package's testdata/fuzz/ to commit
# with the fix. WAL recovery opens a directory twice per input and the
# store model opens one per input, so their minimisation of a new input is
# capped at 100 runs, or they would spend the five seconds there.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRecvBatchDecode$$' -fuzztime=5s ./internal/guest
	$(GO) test -run='^$$' -fuzz='^FuzzCommitPayloadDecode$$' -fuzztime=5s ./internal/guest
	$(GO) test -run='^$$' -fuzz='^FuzzNodeCodecDecode$$' -fuzztime=5s ./internal/trie
	$(GO) test -run='^$$' -fuzz='^FuzzProofDecode$$' -fuzztime=5s ./internal/trie
	$(GO) test -run='^$$' -fuzz='^FuzzTrieDifferential$$' -fuzztime=5s ./internal/trie
	$(GO) test -run='^$$' -fuzz='^FuzzPathOps$$' -fuzztime=5s ./internal/trie
	$(GO) test -run='^$$' -fuzz='^FuzzDiskRecover$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/nodestore
	$(GO) test -run='^$$' -fuzz='^FuzzPathToKey$$' -fuzztime=5s ./internal/ibc
	$(GO) test -run='^$$' -fuzz='^FuzzEndDecode$$' -fuzztime=5s ./internal/ibc
	$(GO) test -run='^$$' -fuzz='^FuzzStoreVersions$$' -fuzztime=5s -fuzzminimizetime=100x ./internal/ibc
	$(GO) test -run='^$$' -fuzz='^FuzzForwardMemo$$' -fuzztime=5s ./internal/middleware
	$(GO) test -run='^$$' -fuzz='^FuzzPacketDataMarshal$$' -fuzztime=5s ./internal/transfer
	$(GO) test -run='^$$' -fuzz='^FuzzSuccessAck$$' -fuzztime=5s ./internal/transfer
	$(GO) test -run='^$$' -fuzz='^FuzzUpdateDecode$$' -fuzztime=5s ./internal/lightclient/tendermint
	$(GO) test -run='^$$' -fuzz='^FuzzSignedBlockDecode$$' -fuzztime=5s ./internal/guestblock

# Coverage across every package, with the combined profile left in
# cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# Regenerate the reference figures and fail on any drift: the default
# single-channel topology must reproduce bench_figs_28d.txt byte for byte.
verify-figs:
	$(GO) run ./cmd/benchfigs 2>/dev/null > bench_figs_28d.txt.new
	@if ! diff -u bench_figs_28d.txt bench_figs_28d.txt.new; then \
		echo "figure drift: bench_figs_28d.txt no longer reproduces"; \
		rm -f bench_figs_28d.txt.new; exit 1; \
	fi
	@rm -f bench_figs_28d.txt.new
	@echo "bench_figs_28d.txt reproduces byte-identically"

# API-stability gate: the exported surface of the packet-pipeline and
# persistence packages (internal/ibc, internal/middleware,
# internal/routing, internal/nodestore) must match the committed
# api/ibc.txt. Regenerate deliberately with `make api-update` when an API
# change is intended.
api-check:
	@$(GO) run ./cmd/apidump internal/ibc internal/middleware internal/routing internal/nodestore > api/ibc.txt.new
	@if ! diff -u api/ibc.txt api/ibc.txt.new; then \
		echo "exported API drift: run 'make api-update' if the change is intended"; \
		rm -f api/ibc.txt.new; exit 1; \
	fi
	@rm -f api/ibc.txt.new
	@echo "exported API surface matches api/ibc.txt"

api-update:
	$(GO) run ./cmd/apidump internal/ibc internal/middleware internal/routing internal/nodestore > api/ibc.txt

# The pre-merge gate: vet + lint (gofmt, the retired-API grep), the
# whole suite under the race detector (the reader gates among it:
# TestEveryMetricHasAReader, TestEveryEventHasAReader and
# TestEveryExportHasAReader), the coverage summary, the
# figure-drift check, the exported-API stability check, the scenario and
# example smoke runs, and five seconds of each of the fifteen fuzz targets.
ci: vet lint race cover verify-figs api-check scenario-smoke examples-smoke fuzz-smoke
