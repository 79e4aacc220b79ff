# Verification tiers for the perfpred reproduction.
#
#   make test      — tier 1, and every gate: build everything and run the
#                    full test suite (determinism across shard and worker
#                    counts, zero-allocation hot paths, the experiment and
#                    study goldens, the predserve end-to-end smoke).
#   make race      — the concurrent Suite, worker pool, event core,
#                    multi-shard fleet, service and scenario paths under
#                    the race detector (short); the window barrier and
#                    everything above it at 1, 2 and 4 processors.
#   make race-list — every go test line of `make race` and `make bench`
#                    selects something: per package, the line's -bench
#                    (else -run) pattern lists at least one test,
#                    benchmark or fuzz target, and so does each of its
#                    |-alternatives over the line's packages. A pattern
#                    that matches nothing would otherwise pass silently.
#   make benchmark — the repo's one benchmark (BENCHMARK.json): five
#                    end-to-end workloads and the per-layer metrics, every
#                    host timing the repo reports. See benchmark/README.md.
#   make bench     — go test -bench micro-benchmarks for measuring while
#                    you work: barrier hand-off floor, event core and
#                    calendar queue, shard window,
#                    simulator sweep and request loop, fleet routing
#                    decision, LQN solver, hybrid build. Allocation
#                    counts are machine-independent.
#   make fuzz      — each native fuzz target for 10 s:
#                    the scenario, LQN-model and history-store parsers,
#                    the predserve query handlers, the fleet router's
#                    tree picks against the full scan and the
#                    processor-sharing station against its three-pass
#                    reference.
#   make examples  — run each program under examples/ to completion; one
#                    that exits non-zero fails the target (a few seconds in all).
#
# Result tables come from cmd/experiments (-list names them).

GO ?= go

.PHONY: test race race-list benchmark bench fuzz examples

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race -cpu 1,2,4 ./internal/parallel
	$(GO) test -race -run 'TestSuiteConcurrent|TestSuiteParallelHybrid|TestFigure2ShapeHolds|TestWorkerCountInvariance' ./internal/bench
	$(GO) test -race -run 'TestEngine|TestStation|TestCalendar|TestReschedule|TestMeasureCurve' ./internal/sim ./internal/trade
	$(GO) test -race -cpu 1,2,4 -run 'TestCoordinator|TestSharded' ./internal/sim ./internal/trade
	$(GO) test -race -cpu 1,2,4 -run 'TestFleet|TestRoute|TestOriginState|FuzzPickMatchesScan' ./internal/fleet
	$(GO) test -race -run 'TestConcurrentServing|TestColdStampedeBuildsOnce|TestOverloadShedsNotCollapses|TestGracefulShutdownDrains|TestBuildWorkersBoundAllMethods|TestJoinerKeepsItsOwnDeadline|TestRebuildRunsNoSimulation|TestSolveDeadlineCountedOnce|TestSolveAdmissionSheds|TestPercentileCalibrationAdmission' ./internal/serve
	$(GO) test -race ./internal/scenario
	$(GO) test -race -run 'TestScenario|TestFleetScenario' ./internal/trade ./internal/fleet
	$(GO) test -race -run 'TestTrainDeterministicAcrossWorkers|TestTrainEqualsFitOverMeasuredSamples' ./internal/regress

race-list:
	@$(MAKE) -s -n race bench | grep ' test ' | { \
	fail=0; \
	while read -r line; do \
		eval "set -- $$line"; \
		run=.; bench=; pkgs=; \
		while [ $$# -gt 0 ]; do \
			case "$$1" in \
			-run) run=$$2; shift ;; \
			-bench) bench=$$2; shift ;; \
			./*) pkgs="$$pkgs $$1" ;; \
			esac; \
			shift; \
		done; \
		pat=$${bench:-$$run}; \
		for pkg in $$pkgs; do \
			n=$$($(GO) test -list "$$pat" $$pkg | grep -cE '^(Test|Benchmark|Fuzz|Example)') || true; \
			printf '%4d  %s  %s\n' "$$n" "$$pkg" "$$pat"; \
			[ "$$n" -gt 0 ] || { echo "    ^ matches nothing"; fail=1; }; \
		done; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			n=$$($(GO) test -list "$$alt" $$pkgs | grep -cE '^(Test|Benchmark|Fuzz|Example)') || true; \
			[ "$$n" -gt 0 ] || { echo "    alternative $$alt matches nothing in$$pkgs"; fail=1; }; \
		done; \
	done; \
	exit $$fail; }

benchmark:
	$(GO) run ./benchmark -workload all

bench:
	$(GO) test -run '^$$' -bench BenchmarkPoolRun -benchmem ./internal/parallel
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule|BenchmarkRunDrain|BenchmarkStation|BenchmarkCalendar|BenchmarkShard' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench BenchmarkMeasureCurve -benchtime 2x ./internal/trade
	$(GO) test -run '^$$' -bench 'BenchmarkRequestLoop|BenchmarkCollect|BenchmarkWindows|BenchmarkRunBackend|BenchmarkShardedBuild' -benchmem ./internal/trade
	$(GO) test -run '^$$' -bench BenchmarkRoute -benchmem ./internal/fleet
	$(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchmem ./internal/lqn
	$(GO) test -run '^$$' -bench 'BenchmarkHybridBuild|BenchmarkBuildRelationship3' -benchmem ./internal/hybrid

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzReadModel -fuzztime 10s ./internal/lqn
	$(GO) test -run '^$$' -fuzz FuzzStoreLoad -fuzztime 10s ./internal/hist
	$(GO) test -run '^$$' -fuzz FuzzQueryHandlers -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzPickMatchesScan -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzStationMatchesReference -fuzztime 10s ./internal/sim

examples:
	for e in quickstart capacityplan cluster cachestudy slatuning; do \
		$(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e failed"; exit 1; }; \
	done
