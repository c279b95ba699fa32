# Tier-1 verification plus the parallel-engine smoke test. `make ci` is
# what .github/workflows/ci.yml runs; keep the two in sync.

.PHONY: all build test differential bench-smoke scenario-smoke metrics-smoke e10-smoke e13-smoke e14-smoke e15-smoke e16-smoke e17-smoke perf-smoke perf-pair trace-sample validate baselines deep-check ci clean

all: build

build:
	dune build @all

test: build
	dune runtest

# The two-substrate gate on its own: registry parity plus the same seeded
# crash storm through the simulated and the native instantiation of the
# shared transcriptions (also part of `make test`; split out so CI reports
# it as a distinct step).
differential: build
	dune exec test/test_differential.exe

# E1 exercises the sweep fan-out, E9 the model checker (its rows fanned
# out), E12 the reduction engine, E13 the incremental-fingerprint hot
# path, all on a 2-worker pool. A safety violation (assert_ok) aborts the
# binary; a failed gate (a clean row reporting a violation, a
# known-negative row failing to find one, or the reduction ratio
# collapsing) is written into the JSON's gates member with its deciding
# rows, and the binary exits non-zero after finishing every experiment.
# The emitted BENCH_E*.json are then schema-checked (a failed verdict is
# a FAIL) AND diffed against the committed
# bench/baselines/ — safety columns byte-exact, other numeric cells
# within a 10% band (all four tables are seeded/DFS-deterministic where
# printed, so any drift means behaviour actually changed; if it changed
# on purpose, `make baselines` regenerates the expectation — say why in
# the PR). The E14-E17 and scenario smokes run from here too, so CI
# runs each of them once, as part of this target.
bench-smoke: build
	dune exec bench/main.exe -- e1 e9 e12 e13 --jobs 2
	dune exec bench/validate.exe -- --baseline bench/baselines \
	  BENCH_E1.json BENCH_E9.json BENCH_E12.json BENCH_E13.json
	$(MAKE) e14-smoke
	$(MAKE) e15-smoke
	$(MAKE) e16-smoke
	$(MAKE) e17-smoke
	$(MAKE) scenario-smoke

# The Scenario-builder gate (DESIGN.md §5.16): a quick storm over every
# registered scenario, then one forced-violation search — the known T1
# CSR counterexample must be found, shrunk, and emitted as a schema-valid
# rme-mc-outcome/1 JSON whose minimized schedule replays the violation
# (--expect-violation inverts the exit code, so a T1 stack that stopped
# violating — or a shrinker that broke — fails this target).
scenario-smoke: build
	dune exec bin/rme_cli.exe -- scenario run rme --stack t3-mcs -n 3 \
	  --passages 5 --seed 7 --crash-mean 300 --out scenario_rme.json
	dune exec bin/rme_cli.exe -- scenario run mutex --stack mcs -n 3 \
	  --passages 5 --seed 7 --out scenario_mutex.json
	dune exec bin/rme_cli.exe -- scenario run barrier -n 3 --seed 7 \
	  --out scenario_barrier.json
	dune exec bin/rme_cli.exe -- scenario run barrier-sub -n 3 --seed 7 \
	  --out scenario_barrier_sub.json
	dune exec bin/rme_cli.exe -- model-check --scenario rme --stack t1-mcs \
	  -n 2 -d 2 -c 1 --expect-violation --out scenario_t1_csr.json
	dune exec bench/validate.exe -- scenario_rme.json scenario_mutex.json \
	  scenario_barrier.json scenario_barrier_sub.json scenario_t1_csr.json

# The CLI's metrics files (DESIGN.md §5.12): a tiny `run`, `native` and
# `service` run each write their --metrics JSON (rme-metrics/1,
# rme-native-metrics/1, rme-service-metrics/1), and validate.exe
# schema-checks all three — any FAIL exits non-zero. The native and
# service runs drive both controllers of the native run kernel: a crash
# storm (a crash every millisecond) and the crash-recovery drill.
metrics-smoke: build
	dune exec bin/rme_cli.exe -- run -s t3-mcs -n 3 -p 20 --crash-mean 200 \
	  --metrics metrics_run.json
	dune exec bin/rme_cli.exe -- native -s t3-mcs -n 2 -p 20000 \
	  --crash-interval 1 --metrics metrics_native.json
	dune exec bin/rme_cli.exe -- service -n 2 --keys 1000 --shards 64 \
	  --per-worker 500 --drill-after 0.05 --metrics metrics_service.json
	dune exec bench/validate.exe -- metrics_run.json metrics_native.json \
	  metrics_service.json

# Refresh the committed expectations after a deliberate behaviour change.
# E14's captured cells are deterministic by design (the machine numbers
# live in its metrics and in its gates member, whose observed values are
# never diffed; the gates table holds only names, thresholds and
# verdicts), so the quick run regenerates the same tables a full run
# would. A failed gate makes main.exe exit non-zero, so no failing
# verdict can become a baseline.
baselines: build
	dune exec bench/main.exe -- e1 e9 e12 e13 e16 e17 --jobs 2
	dune exec bench/main.exe -- e14 --quick
	dune exec bench/main.exe -- e15 --quick
	cp BENCH_E1.json BENCH_E9.json BENCH_E12.json BENCH_E13.json \
	  BENCH_E14.json BENCH_E15.json BENCH_E16.json BENCH_E17.json \
	  bench/baselines/

# The nightly deep model-check: the E9/E12 roster's algorithm stacks at
# larger bounds than CI's smoke run can afford, made tractable by
# --reduce por (and, for the deepest rows, the §5.19 symmetry quotient
# plus diversified bitstate swarm searches — exact sym rows stay
# verdict-authoritative; the swarm rows are coverage, merged
# any-violation-wins). Each search drops a machine-readable outcome
# JSON into deep-check/ (violations included verbatim, swarm members
# recorded next to the merged outcome); the nightly workflow uploads
# that directory as an artifact. Exit is non-zero iff any clean search
# reports a violation. The E13-E17 bench files are copied into
# deep-check/ before their exit codes are acted on, so a failed gate's
# file — with its deciding rows — is part of the uploaded artifact.
deep-check: build
	mkdir -p deep-check
	dune exec bin/rme_cli.exe -- model-check --stack t2-mcs -n 3 -d 2 -c 1 \
	  --reduce por --out deep-check/t2-mcs-n3-d2-c1.json
	dune exec bin/rme_cli.exe -- model-check --stack t3-mcs -n 3 -d 2 -c 1 \
	  --reduce por --out deep-check/t3-mcs-n3-d2-c1.json
	dune exec bin/rme_cli.exe -- model-check --stack t3-mcs --model dsm -n 2 \
	  -d 2 -c 2 --max-runs 1000000 --reduce por \
	  --out deep-check/t3-mcs-dsm-n2-d2-c2.json
	dune exec bin/rme_cli.exe -- model-check --stack t1-mcs -n 3 -d 2 -c 1 \
	  --no-csr --reduce por --out deep-check/t1-mcs-n3-d2-c1.json
	dune exec bin/rme_cli.exe -- model-check --stack rclh-fasas -n 2 -d 2 \
	  --co 2 --reduce por --out deep-check/rclh-fasas-n2-d2-co2.json
	dune exec bin/rme_cli.exe -- model-check --scenario barrier -n 3 -d 3 -c 2 \
	  --reduce por --out deep-check/barrier-n3-d3-c2.json
	dune exec bin/rme_cli.exe -- model-check --scenario barrier-sub -n 3 \
	  --model dsm -d 3 --reduce por --out deep-check/barrier-sub-n3-d3.json
	dune exec bin/rme_cli.exe -- model-check --stack t3-mcs -n 3 -d 2 -c 1 \
	  --reduce sym --out deep-check/t3-mcs-n3-d2-c1-sym.json
	dune exec bin/rme_cli.exe -- model-check --stack rclh-fasas -n 2 -d 2 \
	  --co 1 --reduce sym --swarm 8 --vset-bits 24 \
	  --out deep-check/swarm-rclh-fasas-n2-d2-co1.json
	dune exec bin/rme_cli.exe -- model-check --stack rclh-fasas -n 3 -d 1 \
	  -c 1 --reduce sym --swarm 8 --vset-bits 24 \
	  --out deep-check/swarm-rclh-fasas-n3-d1-c1.json
	dune exec bench/validate.exe -- deep-check/*.json
	dune exec bench/main.exe -- e13 e14 e15 e16 e17; status=$$?; \
	  cp BENCH_E13.json BENCH_E14.json BENCH_E15.json BENCH_E16.json \
	    BENCH_E17.json deep-check/ && \
	  dune exec bench/validate.exe -- --baseline bench/baselines \
	    BENCH_E14.json BENCH_E15.json BENCH_E16.json BENCH_E17.json && \
	  exit $$status

# Standalone schema check over whatever BENCH_E*.json are lying around.
validate: build
	dune exec bench/validate.exe

# E10 across the full native registry at reduced iterations: a monitor
# violation in any native stack fails the run (Workers.check_clean).
e10-smoke: build
	dune exec bench/main.exe -- e10 --quick
	dune exec bench/validate.exe -- BENCH_E10.json

# E13 at reduced budgets (schema check only — the full run inside
# bench-smoke is the baseline-gated one; --quick shrinks the throughput
# probe, so its table differs from the committed expectation by
# design).
e13-smoke: build
	dune exec bench/main.exe -- e13 --quick
	dune exec bench/validate.exe -- BENCH_E13.json

# E14 at reduced windows: the full native-substrate ablation sweep with
# its gates (contended padded+backoff speedup, single-worker parity,
# steady-state allocation audit — a failed gate is recorded in the
# JSON's gates member and exits non-zero), then the schema + baseline
# diff.
# The captured table carries only deterministic cells, so quick and full
# runs gate against the same committed expectation.
e14-smoke: build
	dune exec bench/main.exe -- e14 --quick
	dune exec bench/validate.exe -- --baseline bench/baselines BENCH_E14.json

# E15 at reduced budgets: the sharded service under Zipf traffic with its
# gates (deterministic replay, allocation-free passage path, skew-driven
# batching — a failed gate is recorded in the JSON's gates member and
# exits non-zero), then the schema + baseline diff. Like E14, the captured
# table carries only deterministic cells (E15's rows always generate the
# full-budget traffic and serve a seeded prefix of it), so quick and full
# runs gate against the same committed expectation.
e15-smoke: build
	dune exec bench/main.exe -- e15 --quick
	dune exec bench/validate.exe -- --baseline bench/baselines BENCH_E15.json

# E16, the cross-paper RMR shootout, with its envelope gates (the JJJ
# constant band on both cost models, the logarithmic stacks' growth — a
# failed gate is recorded in the JSON's gates member and exits
# non-zero), then the schema + baseline diff. Every E16 cell is a seeded simulator run, so
# the tables are deterministic and there is nothing for --quick to
# shrink: the smoke run IS the full run and gates against the committed
# baseline byte-for-byte.
e16-smoke: build
	dune exec bench/main.exe -- e16 --jobs 2
	dune exec bench/validate.exe -- --baseline bench/baselines BENCH_E16.json

# E17, the symmetry/sleep/bitstate sweep, with its gates (the >=5x
# sym/por distinct-state quotient on an N>=4 scenario, verdict parity
# across none/dedup/por/sym, the deepened-row bitstate agreement — a
# failed gate is recorded in the JSON's gates member and exits
# non-zero), then the schema + baseline diff. Every cell is a
# sequential, deterministic search, so --quick changes nothing E17
# captures and the smoke run gates against the full-run baseline. The
# swarm invocation then exercises the CLI-level fan-out end to end (4
# diversified bitstate members, any-violation-wins merge) and
# schema-checks its merged outcome. Last, --jobs must never change a
# model-check outcome: a single bitstate search and the swarm each run
# at --jobs 1 and --jobs 2, and their outcome JSONs (which carry no
# timings) must be byte-identical.
# Swarm members vary d/c/co, so a clean-gated swarm row must use a
# stack that tolerates system-wide AND independent crashes — that is
# FASAS-CLH; a GH18 stack would (correctly) deadlock under the co+1
# member, tripping E11's failure-model separation, not a checker bug.
e17-smoke: build
	dune exec bench/main.exe -- e17 --quick
	dune exec bench/validate.exe -- --baseline bench/baselines BENCH_E17.json
	dune exec bin/rme_cli.exe -- model-check --scenario rme \
	  --stack rclh-fasas -n 2 -d 1 --reduce sym --swarm 4 --jobs 2 \
	  --vset-bits 18 --out swarm_smoke.json
	dune exec bench/validate.exe -- swarm_smoke.json
	dune exec bin/rme_cli.exe -- model-check --scenario rme \
	  --stack rclh-fasas -n 2 -d 1 --reduce sym --swarm 4 --jobs 1 \
	  --vset-bits 18 --out jobs_parity_swarm_1.json
	cmp swarm_smoke.json jobs_parity_swarm_1.json
	for j in 1 2; do \
	  dune exec bin/rme_cli.exe -- model-check --stack t2-mcs -n 2 -d 2 \
	    -c 1 --reduce por --vset bitstate --vset-bits 12 --jobs $$j \
	    --out jobs_parity_mc_$$j.json || exit 1; \
	done
	cmp jobs_parity_mc_1.json jobs_parity_mc_2.json

# The end-to-end benchmark's correctness gate (perfbench/WORKLOADS.md):
# one short untraced run of each workload. Each prints a result line,
# and any run whose line lacks "correct":true fails the target: a
# request not served exactly once on svc-*, a search verdict that
# changed on mc-*, or mc-replay's exact 18,046 runs / 916,667 steps
# drifting. Timings are printed, not gated.
PERF_WORKLOADS = svc-hot svc-cold mc-sym mc-replay

perf-smoke: build
	@for w in $(PERF_WORKLOADS); do \
	  line=$$(python3 perfbench/run.py --workload $$w --seed 1 \
	    --seconds 2 --trace 0 | tail -n 1); \
	  echo "$$w $$line"; \
	  case "$$line" in \
	    *'"correct":true'*) ;; \
	    *) echo "perf-smoke: $$w failed its correctness gate" >&2; exit 1 ;; \
	  esac; \
	done

# Paired parent/change timing (bench/perf_pair.py): REF checked out in a
# temporary git worktree, PAIRS alternating perfbench runs of workload W
# against the working tree at the benchmark's run length, each side's
# median and IQR per end-to-end metric, the ratio, the win count and
# a gain / no gain / unresolved / regression verdict per metric.
REF ?= HEAD~1
W ?= mc-replay
PAIRS ?= 10

perf-pair: build
	python3 bench/perf_pair.py --ref $(REF) --workload $(W) --pairs $(PAIRS)

# A small Perfetto-loadable trace of T1(MCS) under a crash storm — CI
# uploads it as an artifact so a run's behaviour can be eyeballed.
trace-sample: build
	dune exec bin/rme_cli.exe -- trace --stack t1-mcs -n 4 --steps 2000 \
	  --crash-every 300 --format chrome --out trace_sample.json

ci: build test differential e13-smoke bench-smoke e10-smoke metrics-smoke perf-smoke \
  trace-sample

clean:
	dune clean
	rm -f BENCH_E*.json trace_sample.json scenario_*.json swarm_smoke.json \
	  jobs_parity_*.json metrics_*.json
	rm -rf deep-check
