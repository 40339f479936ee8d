# Tier-1 verification in one command: `make check`.
#
#   build        compile everything (libraries, tools, examples, tests)
#   test         run the full unit/integration suite
#   fmt          check dune-file formatting (no ocamlformat dependency)
#   bench-smoke  reduced-iteration bench (exercises the instrumentation,
#                tracing, profiling, sim-throughput, parallel-parse and
#                served paths; writes *.smoke.json only).  Gates hard:
#                the sim section fails on trace-off/trace-on speedup
#                bars or an engine-differential divergence; the parse
#                section fails below a 1.5x largest-corpus speedup over
#                the sequential reference parser or on any CFG difference;
#                the rewrite-scaling section fails when liveness,
#                Rewriter.plan or Verifier.verify time grows more than
#                1.5x the block ratio between 80- and 320-function
#                corpora; the served section fails on warm < 5x cold, a
#                warm verify payload that differs from the cold one, or
#                a metrics overhead above 10%.  Every speed gate is
#                timed one way (bench/gauge.ml): best of N rounds, in
#                CPU time with the sides taking turns when all run on
#                one domain, in wall-clock time otherwise, measured once
#                more before it fails
#   fuzz-smoke   fixed-seed differential fuzz: rvsim vs the Sail IR in
#                lockstep, the exhaustive RVC decoder sweep, the rewrite
#                round-trip on two mutatees, the superblock-engine vs
#                interpreter differential, and the parallel-parser CFG
#                differential (minicc mutatees vs the sequential
#                reference, adversarial fuzz streams vs domains=1, at
#                1/2/4/8 oversubscribed domains).  Deterministic and
#                fast; every divergence of every leg ends in an
#                `rvcheck replay <case-id>` reproducer line
#   lint-smoke   the rewrite verifier's gate: lint + instrument +
#                rewrite + verify every built-in mutatee (fails on any
#                error-severity diagnostic or unproved site), then
#                require every seeded wrong-rewrite class to pass the
#                structural rules but fail symbolically
#   serve-smoke  end-to-end rvserved/rvq session over a real socket:
#                mixed batch, warm batch must be fully cached and
#                byte-identical, clean shutdown
#   verify-smoke `rvlint verify` on files: prove an on-disk rewrite,
#                exit 1 on a tampered manifest, and pin the exit-2
#                convention for unreadable inputs and for rvcheck's
#                bad arguments
#   check        fmt + build + test + fuzz-smoke + lint-smoke +
#                verify-smoke + serve-smoke + bench-smoke — what CI and
#                the PR driver run
#   bench        regenerate the evaluation tables, BENCH_trace.json,
#                BENCH_prof.json, BENCH_sim.json, BENCH_parse.json and
#                BENCH_served.json.  The parse section gates hard on a
#                2.5x largest-corpus speedup and zero CFG differences;
#                the rewrite-scaling gate runs as in bench-smoke

.PHONY: all build test fmt check bench bench-smoke fuzz-smoke lint-smoke \
	verify-smoke serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

bench-smoke:
	dune exec bench/main.exe -- --smoke

fuzz-smoke:
	dune exec bin/rvcheck.exe -- smoke

lint-smoke:
	dune exec bin/rvlint.exe -- smoke

verify-smoke:
	sh scripts/verify_smoke.sh

serve-smoke:
	sh scripts/serve_smoke.sh

check: fmt build test fuzz-smoke lint-smoke verify-smoke serve-smoke bench-smoke

bench:
	dune exec bench/main.exe

clean:
	dune clean
