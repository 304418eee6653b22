GO ?= go

.PHONY: all build fmt test vet race race-hot fuzz check chaos bench bench-e2e bench-compare bench-pairs trace telemetry telemetry-cost churn doctor self-heal loc door observers tenants reach api state service fields decider goldens

all: check

build:
	$(GO) build ./...

# bin/mccs is the one command-line binary (cmd/mccs); every smoke target
# below calls a subcommand of it. Go's build cache makes the rebuild a
# no-op when nothing changed, so the target is phony.
MCCS := bin/mccs
.PHONY: $(MCCS)
$(MCCS):
	$(GO) build -o $(MCCS) ./cmd/mccs

# fmt fails if any file needs gofmt; CI runs the same check.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot doubles down on the packages with the most schedule-sensitive
# surface — the scheduler core itself (goroutine and stackless
# processes), the transport message path, the collective schedule IR and
# its lowerings, the proxy engine and its control ring (the Park form of
# the reconfiguration barrier), the strategy autotuner, the lifecycle
# orchestrator, the diagnosis engine (whose recorder tap runs inside
# span emission), the policy controller (the recovery moves and the
# route-push order), the fabric (an allocation memo and a flow free list
# sit on its per-message path), gpusim, trace and freelist (device memory,
# recorder chunks and the one free list behind them and the proxy's
# snapshot store, all owned by a deployment's mccsd.Scratch) — running
# them twice under the detector. The chaos checker's producer and verifier
# goroutines read the script and finished device buffers beside the event
# loop, and concurrent chaos runs trade device memory, recorder chunks and
# message snapshots through the one scratch the package keeps; the whole
# chaos package takes minutes a pass under the detector, so only the pinned
# corpus hashes, one self-heal test, the concurrent-runs test and the
# cold/warm test (two runs sharing one scratch) run twice there.
race-hot:
	$(GO) test -race -count=2 ./internal/sim/ ./internal/netsim/ ./internal/transport/ ./internal/collective/ ./internal/proxy/ ./internal/control/ ./internal/tuner/ ./internal/orchestrator/ ./internal/diagnosis/ ./internal/policy/ ./internal/remediation/ ./internal/gpusim/ ./internal/trace/ ./internal/freelist/
	$(GO) test -race -count=2 -run '^(TestCorpusTraceHashPinned|TestSelfHealByteDeterministic|TestConcurrentRunsKeepTheirHashes|TestColdAndWarmRunsAgree)$$' ./internal/chaos/

# fuzz runs the native fuzz targets for 10 s each (their seed corpora also
# run as part of `test`). Schedule IR: random (algorithm, op, ranks, root,
# size, ring orders, channels) are lowered, checked against the program
# invariants and executed against the oracle. Path enumeration: random edge
# lists (parallel links, self-loops, unreachable pairs) must yield the same
# shortest-path lists, order included, as the reference enumerator. The three
# parsers: arbitrary bytes never panic trace.ReadChrome or telemetry.ReadJSONL
# and what they accept round-trips through the writer; a strategy
# spec.Strategy.Validate accepts builds its rings and edges. Locality ring:
# bytes decode to a GPU subset and a rank permutation on the §6.5 Clos, the
# testbed or a fat tree, and policy.LocalityRing must return the same order
# as the map-based reference it replaced. FFA workspace: bytes decode to a
# sequence of communicator sets on the same clusters, and one reused
# policy.Workspace must decide each exactly as policy.FFA and the map-based
# reference FFA do, and policy.PFA as the reference PFA. Cluster run: bytes
# decode to a §6.5-style config (Clos shape, link rates, jobs, placement,
# strategy, seed), and cluster.Run must give every job the same arrival,
# start, finish and AllReduce times, bit for bit, as the blocking reference
# job loop in internal/cluster/reference_test.go. Control ring: a random ring
# size, values, join delays and one to three back-to-back barriers under a
# seeded Picker must gather the same vectors and fire the same (at, seq)
# event stream with step-function ranks on Ring.Begin/Park as with goroutine
# ranks on the blocking oracle in internal/control/control_test.go. Tuner:
# bytes decode to a communicator on the testbed and a strategy (channel
# orders and counts, route pins and overrides, algorithm, tree threshold)
# and a size, and tuner.Predict, one model and workspace reused across
# inputs, must give every op the duration of the map-based referencePredict
# in internal/tuner/reference_test.go.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLowerExecute -fuzztime 10s ./internal/collective/
	$(GO) test -run '^$$' -fuzz FuzzPathsBetween -fuzztime 10s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz FuzzReadChrome -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz FuzzStrategyValidate -fuzztime 10s ./internal/spec/
	$(GO) test -run '^$$' -fuzz FuzzLocalityRing -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzFFAWorkspace -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzClusterRun -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzControlRing -fuzztime 10s ./internal/control/
	$(GO) test -run '^$$' -fuzz FuzzPredict -fuzztime 10s ./internal/tuner/

# check is the CI gate: everything must build, vet clean, reproduce every
# committed result file, and pass the full test suite twice — once plain,
# once under the race detector. The suite holds the architecture gate,
# TestArchitecture (the one door for reconfiguration, the one attach site
# for observers, the one tenant runner, production files that hold only
# what a binary reaches, no free list in a package variable, no goroutine process
# in a service engine, no exported field that nothing reads and one
# policy controller per deployment), so check
# type-checks the repository for it once per pass rather than once per
# rule.
check: build fmt vet goldens test race

# goldens regenerates every result file EXPERIMENTS.md quotes, plus the
# live doctor report and trace summary of CI's doctor smoke run and the
# self-heal smoke's reports (about 10 s of CPU), and fails, naming each
# file that moved, when one differs from the committed copy. A run that
# moves a figure is a modelling change; a doctor or self-heal file that
# moves is a change to what the health planes conclude. The smoke run's
# trace and telemetry (≈ 75 MB) go to a temporary directory.
goldens: $(MCCS)
	$(MCCS) breakdown > results/fig2.txt
	$(MCCS) crossrack > results/fig3.txt
	$(MCCS) bench > results/fig6.txt
	$(MCCS) reconfig > results/fig7.txt
	$(MCCS) multi > results/fig8.txt
	$(MCCS) qos > results/fig9.txt
	$(MCCS) qos -dynamic > results/fig10.txt
	$(MCCS) simcluster -runs 3 > results/fig11.txt
	$(MCCS) churn > results/churn.txt
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(MCCS) reconfig -run 4s -bg 1s -reconfig 2s -trace $$tmp/trace.json -telemetry $$tmp/telemetry.jsonl -doctor results/doctor.txt > /dev/null && \
	$(MCCS) trace summarize $$tmp/trace.json > results/doctor.summary.txt
	$(MCCS) selfheal -seeds 4 -jsonl results/selfheal.jsonl -doctor results/selfheal.doctor.txt > results/selfheal.txt
	git diff --exit-code --stat -- results/

# reach, door, observers, tenants, state, service, fields and decider are the
# eight rules of the architecture gate, TestArchitecture in architecture_test.go: the root
# module and bench/ are type-checked once with go/types (stdlib only; a
# type error or a failed `go list` fails the gate), and each rule is
# applied to what every identifier resolves to, so a method value or an
# aliased import counts like a call. Its one allowlist gives every
# exception its reason.
#   reach: every function or method declared in a non-test file under
#     internal/ is reached from a root: a main or init function, a
#     package-level initialiser (the subcommand table among them) of a
#     package a binary links, the root package's exported API and the
#     methods of the types mccs.go re-exports. A method of a live type also
#     counts when it is called through an interface or satisfies a std
#     interface. Dead code, and what only tests or a dead caller reach, is
#     deleted; a test oracle lives in a test file, or in a test-support
#     package (allocpin, collectivetest) that only test files import: its
#     allowlist row goes stale the day a non-test file imports it.
#   door: only internal/policy decides a communicator's strategy or
#     routes (the Reconfigure and UpdateRoutes methods); internal/mccsd
#     executes, and the chaos reconfig storm in internal/chaos/inject.go is
#     the Fig. 4 adversary, not a decider (paper §4.3).
#   observers: only internal/harness (and the benchmark module, for its
#     traced pass) calls trace.Attach, trace.NewRecorder, telemetry.Attach
#     or diagnosis.Attach: a run's observers are chosen in one place.
#   tenants: only internal/workload joins a communicator (CommInitRank),
#     so the tenant lifecycle changes in one place; the chaos ranks
#     (internal/chaos/runseed.go), bench/ and examples/ are the exceptions.
#   state: no package variable, test files included, is or holds a
#     freelist.List: scratch memory belongs to a deployment
#     (mccsd.Scratch), and only the chaos harness keeps one for the runs
#     it makes in a row (internal/chaos/runseed.go).
#   service: no non-test code in internal/{proxy,mccsd,transport,netsim,
#     gpusim,control} calls sim.Scheduler.Go or GoDaemon: the service's
#     engines are step functions (GoStep), so an op's path through them
#     costs no goroutine switch. No exceptions.
#   fields: every exported field of a struct type declared in a non-test
#     file under internal/ is read by something other than its own
#     package's tests. A composite-literal key, the left side of an
#     assignment and an ++/-- operand write; every other use, &x.F too,
#     reads. A field with a struct tag (encoding/json reads it) and a field
#     of a type mccs.go re-exports are exempt; the allowlist keeps the
#     cluster.JobResult fields the reference run compares bit for bit, the
#     chaos fault ground truth and netsim.Counters.Fills.
#   decider: no non-test code but harness.Env.Controller calls
#     policy.NewController: a deployment has one policy controller, and
#     every decider (the drivers' plans, the orchestrator, remediation,
#     the chaos autotuner) acts through it. No exceptions.
# A reference in the package that declares the target counts too; test
# files may do all but state. CI and `check` (through `test`) run the
# eight together, once.
reach door observers tenants state service fields decider:
	$(GO) test -count=1 -run '^TestArchitecture$$/^$@$$' .

# api is the reach rule's former name, kept for one release.
api:
	@echo "make api: the api rule is now the reach rule; running make reach" >&2
	@$(MAKE) --no-print-directory reach

# chaos runs the seeded chaos sweep on its own (it is also part of
# `test`); useful when iterating on the harness. Beside the sweep it runs
# what pins the Fig. 4 generation check's sensitivity: the weakened
# protocol caught over a seed range and on the pinned seeds, and the
# hand-built ledgers the check must accept or reject.
chaos:
	$(GO) test ./internal/chaos/ -v -run '^(TestChaosSweep|TestChaosCatchesWeakenedProtocol|TestCorpusWeakenedDetection|TestLedgerHoldsChurnCommsToTheirJob)$$'

bench:
	$(GO) test -bench=. -benchtime=1x .

# bench-e2e runs the repository benchmark (bench/README.md): all five
# workloads, untraced and traced, about 3.5 minutes, results in $(OUT).
# results/bench/ is the ledger: a PR that quotes benchmark numbers commits
# its parent's and its own run there as PR<n>.parent.json and PR<n>.json
# (make bench-e2e OUT=results/bench/PR<n>.json), so the tables in DESIGN.md
# §10 can be re-derived; the default file name is git-ignored.
# bench-compare prints the per-workload, per-metric verdicts between two
# such files and fails on any "worse": make bench-compare A=base.json B=new.json
OUT ?= results/bench/local.json
bench-e2e:
	bash bench/run.sh --seed 1 --out $(OUT)

bench-compare:
	bash bench/run.sh --compare $(A) $(B)

# bench-pairs is how a host-speed claim is measured on a host whose speed
# drifts: bench/ built at BASE and at the working tree, run alternately N
# times on workload W, each pair's ratio printed, then each side's median
# and q1..q3 of the end-to-end metrics and whether the gain rule held
# (scripts/bench-pairs.sh), all of it once per seed in SEEDS: a host-time
# claim needs two seeds. Every run is the benchmark's own 10 s run:
# make bench-pairs BASE=HEAD~1 W=ar_large N=10 [SEEDS="1 2"]
BASE ?= HEAD
W ?= ar_large
N ?= 10
SEEDS ?= 1 2
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(W) $(N) $(SEEDS)

# trace records a short Fig. 7 reconfiguration run with the flight
# recorder and prints the bottleneck-attribution summary. The JSON also
# loads in Perfetto (ui.perfetto.dev) for a visual timeline.
trace: $(MCCS)
	$(MCCS) reconfig -run 6s -bg 2s -reconfig 4s -trace reconfig.trace.json
	$(MCCS) trace summarize reconfig.trace.json

# telemetry samples the same run through the live metrics plane and
# renders the operator view: per-tenant goodput, busiest links, SLO
# violations (DESIGN.md §11).
telemetry: $(MCCS)
	$(MCCS) reconfig -run 6s -bg 2s -reconfig 4s -telemetry reconfig.telemetry.jsonl
	$(MCCS) top reconfig.telemetry.jsonl

# telemetry-cost gates what the telemetry plane does to observe the same
# run, in the exported mccs_telemetry_* self-cost counters — counts, so the
# gate reads the same on a slow host. Per emitted sample, the fabric
# collector may run once per instant whose allocation, tenant table or SLO
# window moved (3 687 on this run: a ring AllReduce changes the allocation
# at most instants) and no more, and the sampler may read the registry
# twice (1.4 on this run), where it used to do both at every instant. The
# run is deterministic, so the second export (Prometheus text, which has
# the final counter values on lines of their own) is of the same run.
TELEMETRY_COST_RUN := reconfig -run 6s -bg 2s -reconfig 4s
telemetry-cost: $(MCCS)
	$(MCCS) $(TELEMETRY_COST_RUN) -telemetry telemetry-cost.jsonl > /dev/null
	$(MCCS) $(TELEMETRY_COST_RUN) -telemetry telemetry-cost.prom > /dev/null
	@samples=$$(grep -c '"kind":"sample"' telemetry-cost.jsonl); \
	cols=$$(head -n 1 telemetry-cost.jsonl | grep -o '"name":' | wc -l); \
	runs=$$(awk '$$1 == "mccs_telemetry_collector_runs_total" {print $$2}' telemetry-cost.prom); \
	copied=$$(awk '$$1 == "mccs_telemetry_columns_copied_total" {print $$2}' telemetry-cost.prom); \
	echo "telemetry-cost: $$samples samples of $$cols columns; collector ran $$runs times, captures read $$copied columns"; \
	if [ "$$samples" -lt 1 ] || [ -z "$$runs" ] || [ -z "$$copied" ]; then echo "telemetry-cost: counters missing from the export" >&2; exit 1; fi; \
	if [ "$$runs" -gt $$((3800 * samples)) ]; then echo "telemetry-cost: more than 3800 collector runs per sample" >&2; exit 1; fi; \
	if [ "$$copied" -gt $$((2 * samples * cols)) ]; then echo "telemetry-cost: more than 2 registry reads per sample" >&2; exit 1; fi

# doctor runs the online health-diagnosis smoke (DESIGN.md §14): the
# contended Fig. 7 run with the diagnosis engine attached live, writing
# the incident JSONL CI uploads as an artifact, then replaying the trace
# through `mccs doctor` to print the incident timeline. This run wraps
# the flight-recorder ring, so the replay sees less evidence than the
# live engine did and reports fewer incidents (both reports warn); on a
# run the ring kept whole they agree (TestReplayMatchesLive).
doctor: $(MCCS)
	$(MCCS) reconfig -run 6s -bg 2s -reconfig 4s -trace doctor.trace.json -telemetry doctor.telemetry.jsonl -doctor doctor.incidents.jsonl
	$(MCCS) doctor doctor.trace.json doctor.telemetry.jsonl

# self-heal runs the closed-loop recovery smoke (DESIGN.md §15): the
# chaos self-heal scenario with the diagnosis engine and the remediation
# daemon attached, sweeping a few seeds and writing the deterministic
# remediation event log CI uploads as an artifact.
self-heal: $(MCCS)
	$(MCCS) selfheal -seeds 4 -jsonl selfheal.remediation.jsonl

# churn runs the tenant-lifecycle smoke (DESIGN.md §13): the default
# 8-job seeded arrival stream with churn-triggered reconfiguration,
# printing per-job JCT/queueing delay and writing the sampled telemetry
# series CI uploads as an artifact.
churn: $(MCCS)
	$(MCCS) churn -telemetry churn.telemetry.jsonl
	$(MCCS) top churn.telemetry.jsonl

# loc prints the non-test .go line count of each top-level package and
# their total — the number deletion PRs quote (`wc -l`, comments and blanks
# included, so a reformat cannot fake a reduction). The test-support
# packages, which no non-test file imports (the reach rule certifies
# them), are printed on a line of their own and left out of the total.
loc:
	@imported=$$( { $(GO) list -f '{{join .Imports "\n"}}' ./... && cd bench && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u); \
	total=0; support=0; names=; for d in mccs.go cmd internal/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); d=$${d%/}; \
		case $$d in internal/*) if ! printf '%s\n' "$$imported" | grep -qx "mccs/$$d"; then \
			support=$$((support + n)); names="$$names $${d#internal/}"; continue; fi;; esac; \
		total=$$((total + n)); printf '%6d  %s\n' $$n $$d; \
	done; printf '%6d  total\n' $$total; printf '%6d  test support, not in the total:%s\n' $$support "$$names"
