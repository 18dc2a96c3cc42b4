.PHONY: all build test check fuzz battery serve bench bench-quick bench-json bench-compare obs-gate fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Short-budget differential fuzz pass (separate from `dune runtest`):
# 200 random bipartite instances x 5 max-matching solvers (the
# engine's CSR Dinic core, legacy Dinic and push-relabel over an
# explicit flow network, slot-expansion Hopcroft-Karp and min-cost
# flow) plus 6 simulated scenarios x 3
# lockstep schedulers.  Every engine failure round's Hall certificate
# (read off the engine's own CSR solve) is checked independently by
# Check.Certificate, not recomputed by a second solver.  Fixed seed, so
# the pass is deterministic and CI-friendly.
# The verdict carries a one-line obs summary of the solver counters
# (vod_obs).
check: build
	dune build @fuzz

fuzz: check

# The curated scenario battery: every (scenario x engine config) cell
# under examples/battery/ must stay inside its declared KPI budgets.
# The ranked vod-scorecard/1 JSONL lands in battery_scorecard.jsonl
# (byte-identical at any --jobs); the ranking table goes to stderr.
# Nonzero exit on any budget breach, so this is a CI gate.
battery: build
	dune exec bin/vodctl.exe -- battery examples/battery --jobs 2 --out battery_scorecard.jsonl

# Service-mode smoke: the storm scenario (flash crowds over a group
# outage) through `vodctl serve` — admission control, backpressure and
# deadline-aware recovery.  Nonzero exit on any stall among admitted
# sessions, a retry storm past the backoff budget, or an SLO breach;
# the vod-serve/1 verdict stream lands in serve_verdicts.jsonl,
# byte-identical at any --jobs.
serve: build
	dune exec bin/vodctl.exe -- serve --scn examples/service_storm.scn --jobs 2 --replications 3 --out serve_verdicts.jsonl

# Extra flags pass through: make bench BENCH_ARGS="--obs"
bench:
	dune exec bench/main.exe -- $(BENCH_ARGS)

# Skip the E1-E20 experiment tables; the matching benches still run.
bench-quick:
	dune exec bench/main.exe -- --quick $(BENCH_ARGS)

# Machine-readable perf trajectory: scratch Dinic / bare CSR Dinic
# records (ns, matched and allocated bytes per round) at n in {256,
# 1024, 4096, 16384}, the whole-instance swarm points at n in {262144,
# 1000000} (full rebuild + solve per round), the kernel micro-records
# and the simulate-round points at the same two sizes (bench_sim.ml),
# written to BENCH_matching.json at the repo root.  The serve loop is
# timed by perfbench's serve-steady/serve-storm workloads, not here.
# The printed output also carries the catalog-scaling sweep (ns/round/n
# across six orders of magnitude — Theorem 1's linear admission cost).
bench-json:
	dune exec bench/main.exe -- --quick --json BENCH_matching.json

# Diff the fresh records against the committed baseline; fails on a
# ns_per_round regression beyond COMPARE_THRESHOLD percent (default
# 25; CI passes a looser value for shared runners), on any
# matched_per_round drift, which no timing budget excuses, and on any
# baseline point missing from the fresh run (a vanished point would
# silently switch the gate off).  `--format json` emits the
# vod-bench-diff/1 verdict document CI uploads as an artifact.
COMPARE_THRESHOLD ?= 25
bench-compare: bench-json
	dune exec bench/compare.exe -- bench/BENCH_matching.baseline.json BENCH_matching.json --threshold $(COMPARE_THRESHOLD)

# Telemetry-overhead gate: one seeded n=16384 engine point run with
# the round observer off and then on (the default rejection/startup SLO
# pair through the feed chaos and serve run), emitted as two
# single-record bench files and diffed with compare.exe.  The ns
# threshold bounds the telemetry overhead; the exact matched_per_round
# gate fails if telemetry perturbed the run at all (the observer is
# observation-only by contract).
obs-gate: build
	dune exec bench/main.exe -- --obs-gate OBS
	dune exec bench/compare.exe -- OBS_off.json OBS_on.json --threshold $(COMPARE_THRESHOLD)

fmt:
	dune build @fmt

clean:
	dune clean
