#!/usr/bin/env bash
# Repo verification: the tier-1 lane (build + vet + tests), the
# perfbench build lane (perfbench is its own module, so the root build
# never compiles it; this lane makes a deleted export it calls fail),
# the race lane added with the parallel execution layer, the allocation
# lanes, the benchmark smoke lane, and the HTTP serving smoke lane. Everything
# the worker pool touches (CV folds, dataset run groups, experiment
# sweeps) runs under the race detector; -count=1 defeats the test cache
# so data races cannot hide behind cached passes. The allocation lanes
# re-run the testing.AllocsPerRun budgets on the columnar frame ops
# (zero-copy views must stay view-header-only; column access must stay
# allocation-free), on the tree builders (the arena must keep tree
# growth free of per-node allocations), and on the simulator hot loop
# (CPU arbitration, the engine tick arena, and frame-native metric
# collection must all stay allocation-free at steady state) outside the
# race detector, whose instrumentation would distort the counts. The
# dataset golden lane proves the allocation work never changed a bit of
# output: generated frames must hash to the recorded fixture at several
# worker counts. The benchmark smoke lane
# runs the tree/forest fit and predict benchmarks once (-benchtime=1x):
# not a timing gate on the 1-core CI box, but it keeps the benchmarks
# compiling and executing so a perf regression can always be measured.
# The smoke lane launches the real cmd/serve binary on a loopback port,
# streams observations over HTTP, asserts predictions plus non-zero
# /metrics counters, and requires a clean SIGTERM drain.
# The serving-scale lanes added with the sharded plane: the sharded
# ingest/scrape race tests under -race, the steady-state ingest
# allocation budget, a short FuzzWireDecode run over the checked-in
# corpus plus fresh mutations, and a loadgen smoke that drives 1k
# simulated instances for 10 ticks of binary batch frames against the
# real serve binary and requires non-zero throughput plus a clean drain.
# The lifecycle lanes added with the model lifecycle plane: concurrent
# ingest + drift harvest + observability reads + warm hot swaps under
# -race (the swap-locking proof), and the swap-churn allocation lane,
# which holds the per-sample ingest budget while hot swaps land between
# batches — a swap must never deoptimize the steady-state path.
# The out-of-core lanes added with the chunked data plane: the spill lane
# re-runs the byte-identity goldens (dataset frame bytes, Table 2 parity)
# with MONITORLESS_FORCE_SPILL routing generation and training through
# disk-backed chunks; the no-mmap lane re-runs the frame store tests with
# the pread fallback forced; and the ooc_bench lane generates + trains on
# a corpus 4x a capped GOMEMLIMIT and fails if peak RSS shows any stage
# materialized the corpus.
# The quantized-inference lanes added with the compiled predict plane:
# the parity lane re-runs the bit-identity suite (unit columns plus the
# engineered Table 2 corpus at parallelism 1/4/8) with -count=1; the
# predict allocation lane holds the zero-allocs/op budget on the batch
# path for the float, quant-serial and quant-sharded regimes; and the
# bench-regression lane runs scripts/predbench fresh, gates the quant
# speedup over the float walk on identical trees, then diffs against the
# committed BENCH_predict.json with scripts/benchdiff normalized by the
# float-walk benchmark (-ratio-of), failing any >15% relative regression
# — the ratio gate is invariant to the host's absolute speed drifting
# between runs; the tiny 32-row shard micro-benchmark is reported but
# skipped from the gate as known-noisy.
# The columnar-ingest lanes added with the vectorized ingest plane: the
# equivalence lane re-runs the batch-vs-serial bit-identity suite (the
# liveness-plan masking must never change an output bit), a short
# FuzzStepBatchVsSerial run, the worker/shard-count invariance of the
# fused feature→bin-code route, the mid-batch rejection consistency
# test, and the step-batch/ingest allocation budgets; the ingestbench
# lane runs scripts/ingestbench fresh, gates the columnar batch feature
# step at >=1.5x over per-sample StepInto+SetRow, then diffs against the
# committed BENCH_ingest.json with scripts/benchdiff normalized by the
# serial feature stage (-ratio-of), failing any >15% relative regression;
# the two ~500ns/row predict micro-stages are reported but skipped from
# the gate as known-noisy (the predict plane has its own predbench gate).
#
# Usage: scripts/verify.sh [-short]
set -euo pipefail
cd "$(dirname "$0")/.."

short=""
if [[ "${1:-}" == "-short" ]]; then
    short="-short"
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> perfbench build lane (the benchmark module must compile against this tree)"
(cd perfbench && GOPROXY=off go build -o /dev/null .)

echo "==> go test ./..."
go test $short ./...

echo "==> go test -race -count=1 ./... (race lane)"
go test -race -count=1 $short ./...

echo "==> go test -race -count=1 ./internal/cluster/ ./internal/apps/ ./internal/pcp/ (simulator race lane)"
go test -race -count=1 ./internal/cluster/ ./internal/apps/ ./internal/pcp/

echo "==> go test -run TestFrameOpAllocations -count=1 ./internal/frame/ (allocation-regression lane)"
go test -run TestFrameOpAllocations -count=1 -v ./internal/frame/

echo "==> go test -run TestTreeBuilderAllocations -count=1 ./internal/ml/tree/ (tree-arena allocation lane)"
go test -run TestTreeBuilderAllocations -count=1 -v ./internal/ml/tree/

echo "==> simulator allocation lane (arbitration, tick arena, frame-native collection must stay allocation-free)"
go test -run TestArbitrateAllocations -count=1 -v ./internal/cluster/
go test -run 'TestEngineTickAllocations' -count=1 -v ./internal/apps/
go test -run 'TestObserveTickAllocations' -count=1 -v ./internal/pcp/

echo "==> go test -run TestGenerateGoldenFrameBytes -count=1 ./internal/dataset/ (byte-identical dataset golden)"
go test -run TestGenerateGoldenFrameBytes -count=1 -v ./internal/dataset/

echo "==> benchmark smoke lane (-benchtime=1x)"
go test -run '^$' -bench 'BenchmarkTreeFit' -benchtime=1x ./internal/ml/tree/
go test -run '^$' -bench 'BenchmarkForest' -benchtime=1x ./internal/ml/forest/
go test -run '^$' -bench 'BenchmarkEngineTick' -benchtime=1x ./internal/apps/
go test -run '^$' -bench 'BenchmarkAgentObserveTick' -benchtime=1x ./internal/pcp/

echo "==> go test -race -count=1 -run 'TestShardedIngestRace|TestScrapeDuringIngestRace' ./internal/serving/ (sharded serving race lane)"
go test -race -count=1 -run 'TestShardedIngestRace|TestScrapeDuringIngestRace' -v ./internal/serving/

echo "==> go test -run TestIngestAllocations -count=1 ./internal/serving/ (ingest allocation lane)"
go test -run TestIngestAllocations -count=1 -v ./internal/serving/

echo "==> go test -race -count=1 -run 'TestLifecycleSwapRace|TestLifecycleEndToEndDriftRetrainSwap' ./internal/serving/ (lifecycle race lane)"
go test -race -count=1 -run 'TestLifecycleSwapRace|TestLifecycleEndToEndDriftRetrainSwap' -v ./internal/serving/

echo "==> go test -run 'TestSwapChurnAllocations|TestCellObserveAllocs|TestReservoirAddAllocs' -count=1 (lifecycle allocation lanes)"
go test -run TestSwapChurnAllocations -count=1 -v ./internal/serving/
go test -run 'TestCellObserveAllocs|TestReservoirAddAllocs' -count=1 -v ./internal/lifecycle/

echo "==> go test -fuzz FuzzWireDecode -fuzztime=5s ./internal/serving/ (wire decoder fuzz smoke)"
go test -run '^FuzzWireDecode$' -fuzz '^FuzzWireDecode$' -fuzztime=5s ./internal/serving/

echo "==> MONITORLESS_FORCE_SPILL=1 golden + parity (out-of-core byte-identity lane)"
MONITORLESS_FORCE_SPILL=1 go test -count=1 -run 'Golden|Parity' ./internal/frame/ ./internal/dataset/ ./internal/experiments/

echo "==> MONITORLESS_NO_MMAP=1 frame store tests (pread fallback lane)"
MONITORLESS_NO_MMAP=1 go test -count=1 ./internal/frame/

echo "==> go run ./scripts/ooc_bench -ratio 4 (out-of-core memory-flatness lane)"
go run ./scripts/ooc_bench -ratio 4 -memlimit-mb 48 -out /tmp/monitorless-ooc-bench.json

echo "==> quantized predict parity lane (bit-identity at workers 1/4/8)"
go test -count=1 -run 'TestQuant|TestHistForestCompilesFullyQuantized|TestExactForestPartialQuant' -v ./internal/ml/forest/
go test -count=1 -run TestTable2QuantBitIdentity $short ./internal/experiments/

echo "==> go test -run TestForestBatchPredictAllocations -count=1 ./internal/ml/forest/ (batch-predict allocation lane)"
go test -run TestForestBatchPredictAllocations -count=1 -v ./internal/ml/forest/

echo "==> columnar ingest equivalence lane (batch-vs-serial bit-identity, fused invariance, mid-batch rejection)"
go test -count=1 -run 'TestStepBatch|TestStateSlab|TestBatchPlan|TestStreamerMatchesBatch' ./internal/features/
go test -count=1 -run 'TestFusedIngestShardWorkerInvariance|TestMidBatchRejectionConsistency|TestInstanceStateBytesGauge|TestIngestFallbackCounter' ./internal/serving/

echo "==> go test -fuzz FuzzStepBatchVsSerial -fuzztime=5s ./internal/features/ (batch step fuzz smoke)"
go test -run '^FuzzStepBatchVsSerial$' -fuzz '^FuzzStepBatchVsSerial$' -fuzztime=5s ./internal/features/

echo "==> go test -run TestStepBatchAllocations -count=1 ./internal/features/ (step-batch allocation lane)"
go test -run TestStepBatchAllocations -count=1 -v ./internal/features/

echo "==> ingestbench + benchdiff (columnar ingest bench-regression lane, ratio-normalized)"
go run ./scripts/ingestbench -out /tmp/monitorless-ingestbench.json -min-speedup 1.5
go run ./scripts/benchdiff -old BENCH_ingest.json -new /tmp/monitorless-ingestbench.json \
    -max-regress 15 -ratio-of IngestFeatureSerial -skip IngestPredict

echo "==> predbench + benchdiff (quantized bench-regression lane, ratio-normalized)"
go run ./scripts/predbench -out /tmp/monitorless-predbench.json -min-speedup 1.5
go run ./scripts/benchdiff -old BENCH_predict.json -new /tmp/monitorless-predbench.json \
    -max-regress 15 -ratio-of PredictBatchDenseFloatHist -skip PredictShardQuant

echo "==> go run ./scripts/smoke (HTTP serving smoke lane)"
go run ./scripts/smoke

echo "==> go run ./cmd/loadgen (serving-scale smoke: 1k instances × 10 ticks of binary frames)"
go run ./cmd/loadgen -instances 1000 -ticks 10 -warmup 1 -batch 500 -out /tmp/monitorless-loadgen-smoke.json

echo "verify: all lanes green"
