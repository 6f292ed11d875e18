# Convenience targets mirroring .github/workflows/ci.yml for
# environments without Actions.

.PHONY: all build test check bench tables faults reliability-smoke \
	verify-fuzz perf-baseline perf-smoke jobs-check journal-smoke \
	netobs-smoke serve-smoke trace-smoke bench-selftest examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# The CI gate: build, tests, and the §4.2 closed-form assertion
# (run_experiments scale exits nonzero if fit checks != n(n+1)/2).
check: build test
	dune exec bin/run_experiments.exe -- scale

# Every table of the paper's evaluation and of our extensions.
tables:
	dune exec bin/run_experiments.exe -- all

# Small fixed-seed fault-injection sweep: flat vs partitioned Table 1
# designs under packet drops.  Deterministic — same output every run.
# A row depends on its own rate only: the 10 % row of a 5 %,10 % sweep
# must read as it does when 10 % runs alone.  A drop rate outside
# [0, 1] is a usage error: exit 124, nothing on stdout.
faults:
	dune exec bin/run_experiments.exe -- faults --trials 3
	dune build bin/paredown.exe
	$(PAREDOWN) faults "Podium Timer 3" --trials 6 --drop 0.05,0.1 \
	  | grep "10 %" > faults-both.txt
	$(PAREDOWN) faults "Podium Timer 3" --trials 6 --drop 0.1 \
	  | grep "10 %" > faults-one.txt
	diff faults-both.txt faults-one.txt
	rm -f faults-both.txt faults-one.txt
	out=$$($(PAREDOWN) faults "Podium Timer 3" --drop=1.5 2>/dev/null); \
	code=$$?; \
	if [ $$code -ne 124 ] || [ -n "$$out" ]; then \
	  echo "faults --drop=1.5: exit $$code, stdout '$$out' (want 124, empty)"; exit 1; \
	fi

# The perf suite (one timed workload per group, min of 3 repeats)
# written to perf-snapshot.json; `paredown perf compare` diffs two.
bench:
	dune exec bin/paredown.exe -- perf record

# Small fixed-seed reliability sweep: the λ grid and Pareto front over
# Table 1 with a reduced trial count (doc/reliability.md).  The flight
# recorder is armed so a simulation event-limit blowup inside the
# Monte-Carlo replays leaves a post-mortem bundle CI uploads as an
# artifact; on success no bundle is written.  Then the CLI's λ,
# deadline, trial-count and pin-count arguments: each gets the rule the
# frame decoder applies to "lambda", "deadline_s" (a finite number
# >= 0), "trials" (a whole number in 1..10000) and "inputs"/"outputs"
# (a whole number >= 1); a fault family's jitter is at most 255 ticks;
# and the block, design and cache counts have a whole-number minimum.
# A bad one is a usage error: exit 124, nothing on stdout.
reliability-smoke:
	dune exec bin/run_experiments.exe -- reliability --trials 8 \
	  --flight-record paredown-postmortem.json
	dune build bin/paredown.exe bin/run_experiments.exe
	for args in "reliability entry_gate --trials 8 --show=-64" \
	  "reliability entry_gate --trials 8 --lambdas=1,nan" \
	  "submit --op weighted --lambda=-64 entry_gate" \
	  "submit -a exhaustive --deadline=-1 entry_gate" \
	  "submit --op weighted --trials 10001 entry_gate" \
	  "faults entry_gate --trials 10001" \
	  "reliability entry_gate --trials 4 --family chaos:0,0,0,256" \
	  "simulate entry_gate --faults chaos:0,0,0,256" \
	  "generate --inner 0" "partition entry_gate --inputs 0" \
	  "synth entry_gate --outputs=0" "serve --capacity 0"; do \
	  out=$$($(PAREDOWN) $$args 2>/dev/null < /dev/null); \
	  code=$$?; \
	  if [ $$code -ne 124 ] || [ -n "$$out" ]; then \
	    echo "$$args: exit $$code, stdout '$$out' (want 124, empty)"; exit 1; \
	  fi; \
	done
	for args in "ablation --inner=0" "ablation --count=-1"; do \
	  out=$$($(RUN_EXPERIMENTS) $$args 2>/dev/null); \
	  code=$$?; \
	  if [ $$code -ne 124 ] || [ -n "$$out" ]; then \
	    echo "run_experiments $$args: exit $$code, stdout '$$out' (want 124, empty)"; exit 1; \
	  fi; \
	done

# Verification fuzzing: every partition of a batch of random designs
# through the three-tier verifier (doc/verification.md); exits nonzero
# on any failed verdict.  The compiled simulation kernel
# (doc/performance.md "Simulator compilation") made settles ~10x
# cheaper, so the gate runs 2000 seeds in the wall time 200 used to
# take.  The second/third lines are the --jobs determinism gate for
# the fuzz sweep itself (smaller batch: it runs the sweep twice).
# The first sweep arms the flight recorder: a failed verdict dumps a
# post-mortem bundle (journal tail + metrics + git rev) that CI uploads
# as an artifact.  On success no bundle is written.
verify-fuzz:
	dune exec bin/run_experiments.exe -- fuzz --seeds 2000 \
	  --flight-record paredown-postmortem.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- fuzz --seeds 200 --jobs 1 > fuzz-j1.txt
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- fuzz --seeds 200 --jobs 2 > fuzz-j2.txt
	diff fuzz-j1.txt fuzz-j2.txt
	rm -f fuzz-j1.txt fuzz-j2.txt

# Re-record the committed perf baseline (bench/baseline.json).  Run on
# a quiet machine after any deliberate perf-relevant change and commit
# the result.
perf-baseline:
	dune exec bin/paredown.exe -- perf record -o bench/baseline.json --repeats 3

# The perf regression gate: record a fresh snapshot and compare it to
# the committed baseline.  Work counters (fit checks, packets, bytes)
# are deterministic and gate at a tight ratio; wall times only gate on
# an order-of-magnitude blowup (--max-ratio 20) because the baseline
# was recorded on different hardware.
perf-smoke: jobs-check
	dune exec bin/paredown.exe -- perf record -o perf-snapshot.json --repeats 3
	dune exec bin/paredown.exe -- perf compare bench/baseline.json perf-snapshot.json \
	  --max-ratio 20 --min-ms 5

# The --jobs determinism gate: a 2-domain sweep must print byte-for-byte
# what the sequential one prints.  PAREDOWN_STABLE_TIMES masks the wall
# clock readings — the one legitimately nondeterministic output (see
# doc/performance.md).  The observe runs cover both halves of the
# blame vector: link strikes (drops and the chaos family's duplicate,
# corrupt and jitter draws on Entry Gate Detector) and node resets
# (brownouts on Podium Timer 3, which degrade it to severity 0.625; the
# --jobs 1 run must print a node blame row, or the diff compares an
# empty table).  The served batch fails on purpose: with a zero
# deadline, the 4 of its 15 exhaustive searches that reach the first
# deadline poll (node 1,024) expire, and the smaller ones finish before
# it; the flight recorder's bundle must hold the same journal at every
# --jobs.
BUNDLE_FIELDS = python3 -c 'import json, sys; b = json.load(open(sys.argv[1])); print(json.dumps([b[k] for k in ("reason", "total", "dropped", "journal")], indent=1))'
jobs-check:
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- scale --jobs 1 > scale-j1.txt
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- scale --jobs 2 > scale-j2.txt
	diff scale-j1.txt scale-j2.txt
	rm -f scale-j1.txt scale-j2.txt
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- reliability --trials 8 --jobs 1 > rel-j1.txt
	PAREDOWN_STABLE_TIMES=1 dune exec bin/run_experiments.exe -- reliability --trials 8 --jobs 2 > rel-j2.txt
	diff rel-j1.txt rel-j2.txt
	rm -f rel-j1.txt rel-j2.txt
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe entry_gate \
	  --faults drop:0.05 --jobs 1 --netobs netobs-jobs.json > observe-j1.txt
	cp netobs-jobs.json netobs-j1.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe entry_gate \
	  --faults drop:0.05 --jobs 2 --netobs netobs-jobs.json > observe-j2.txt
	diff observe-j1.txt observe-j2.txt
	diff netobs-j1.json netobs-jobs.json
	rm -f observe-j1.txt observe-j2.txt netobs-j1.json netobs-jobs.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe "Podium Timer 3" \
	  --faults brownout:0.3@40,110,180 --jobs 1 --netobs netobs-jobs.json > observe-j1.txt
	grep -q '^node [0-9]' observe-j1.txt || \
	  { echo "jobs-check: the brownout observe printed no node blame row"; exit 1; }
	cp netobs-jobs.json netobs-j1.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe "Podium Timer 3" \
	  --faults brownout:0.3@40,110,180 --jobs 2 --netobs netobs-jobs.json > observe-j2.txt
	diff observe-j1.txt observe-j2.txt
	diff netobs-j1.json netobs-jobs.json
	rm -f observe-j1.txt observe-j2.txt netobs-j1.json netobs-jobs.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe entry_gate \
	  --faults chaos:0.02,0.01,0.01,2 --jobs 1 --netobs netobs-jobs.json > observe-j1.txt
	cp netobs-jobs.json netobs-j1.json
	PAREDOWN_STABLE_TIMES=1 dune exec bin/paredown.exe -- observe entry_gate \
	  --faults chaos:0.02,0.01,0.01,2 --jobs 2 --netobs netobs-jobs.json > observe-j2.txt
	diff observe-j1.txt observe-j2.txt
	diff netobs-j1.json netobs-jobs.json
	rm -f observe-j1.txt observe-j2.txt netobs-j1.json netobs-jobs.json
	dune build bin/paredown.exe
	for j in 1 2; do \
	  $(PAREDOWN) submit --table1 -a exhaustive --deadline 0 \
	  | $(PAREDOWN) serve --jobs $$j --flight-record bundle-j$$j.json \
	      > /dev/null || exit 1; \
	  $(BUNDLE_FIELDS) bundle-j$$j.json > bundle-j$$j.txt || exit 1; \
	done
	diff bundle-j1.txt bundle-j2.txt
	rm -f bundle-j1.json bundle-j2.json bundle-j1.txt bundle-j2.txt

# Batch-server smoke (doc/service.md): drain a 105-request mixed batch
# (6x Table 1 under PareDown + 1x under aggregation) through `paredown
# serve` twice against the same cache file.  Gates, in order: the warm
# run is byte-identical to the cold one; the warm run recomputes
# nothing (cache_misses=0); a torn store (the warm store's last line cut
# in half) warns on stderr and still answers as the cold run did, and
# the run after it loads with no warning; responses and the cold store
# are --jobs invariant (the store byte for byte); a store under a
# missing directory exits 2 with nothing on stdout; and piped
# one-request round trips print exactly what the one-shot CLI prints
# (a partition, and a reliability-weighted search against the
# header-to-cost lines of `reliability --show`); a weighted request
# whose lambda is the string "64" is answered rejected, naming lambda;
# and the one-shot exhaustive search finishes, with nothing on stderr,
# at the certified optima of Timed Passage (23 -> 14) and Two-Zone
# Security (19 -> 10) (EXPERIMENTS.md note (b)).  The cache runs arm
# the flight recorder, so a mid-batch failure leaves a post-mortem
# bundle for the CI artifact upload.
# PAREDOWN_STABLE_TIMES masks elapsed_ns, the one
# legitimately nondeterministic response field.  Uses the built binary
# directly: three dune execs sharing a shell pipe would fight over the
# build lock.
serve-smoke: build
	rm -f serve-cache.json
	./_build/default/bin/paredown.exe submit --table1 --repeat 6 > serve-batch.txt
	./_build/default/bin/paredown.exe submit --table1 -a aggregation >> serve-batch.txt
	PAREDOWN_STABLE_TIMES=1 ./_build/default/bin/paredown.exe serve \
	  --cache serve-cache.json --jobs 2 \
	  --flight-record paredown-postmortem.json \
	  < serve-batch.txt > serve-run1.txt
	PAREDOWN_STABLE_TIMES=1 ./_build/default/bin/paredown.exe serve \
	  --cache serve-cache.json --jobs 2 \
	  --flight-record paredown-postmortem.json \
	  < serve-batch.txt > serve-run2.txt
	./_build/default/bin/paredown.exe submit --decode serve-run1.txt > serve-dec1.txt
	./_build/default/bin/paredown.exe submit --decode serve-run2.txt > serve-dec2.txt
	diff serve-dec1.txt serve-dec2.txt
	./_build/default/bin/paredown.exe submit --decode serve-run2.txt --summary \
	  | grep -q "cache_misses=0"
	size=$$(wc -c < serve-cache.json); last=$$(tail -n 1 serve-cache.json | wc -c); \
	head -c $$((size - last / 2)) serve-cache.json > serve-torn.json
	mv serve-torn.json serve-cache.json
	for run in 3 4; do \
	  PAREDOWN_STABLE_TIMES=1 ./_build/default/bin/paredown.exe serve \
	    --cache serve-cache.json --jobs 2 < serve-batch.txt \
	    > serve-run$$run.txt 2> serve-err$$run.txt || exit 1; \
	done
	grep -q "cache: warning" serve-err3.txt || \
	  { echo "serve-smoke: a torn store loaded without a warning"; exit 1; }
	./_build/default/bin/paredown.exe submit --decode serve-run3.txt > serve-dec3.txt
	diff serve-dec1.txt serve-dec3.txt
	! grep "cache: warning" serve-err4.txt || \
	  { echo "serve-smoke: the store still warns after a torn load"; exit 1; }
	rm -f serve-cache.json serve-cache-j1.json serve-cache-j4.json
	PAREDOWN_STABLE_TIMES=1 ./_build/default/bin/paredown.exe serve \
	  --cache serve-cache-j1.json --jobs 1 < serve-batch.txt > serve-j1.txt
	PAREDOWN_STABLE_TIMES=1 ./_build/default/bin/paredown.exe serve \
	  --cache serve-cache-j4.json --jobs 4 < serve-batch.txt > serve-j4.txt
	diff serve-j1.txt serve-j4.txt
	cmp serve-cache-j1.json serve-cache-j4.json
	out=$$(./_build/default/bin/paredown.exe serve \
	  --cache serve-missing-dir/serve-cache.json < serve-batch.txt 2>/dev/null); \
	code=$$?; \
	if [ $$code -ne 2 ] || [ -n "$$out" ]; then \
	  echo "serve --cache under a missing directory: exit $$code, stdout '$$out' (want 2, empty)"; exit 1; \
	fi
	./_build/default/bin/paredown.exe submit "Podium Timer 3" \
	  | ./_build/default/bin/paredown.exe serve \
	  | ./_build/default/bin/paredown.exe submit --decode - > serve-pipe.txt
	./_build/default/bin/paredown.exe partition "Podium Timer 3" > serve-oneshot.txt
	diff serve-pipe.txt serve-oneshot.txt
	./_build/default/bin/paredown.exe submit --op weighted --lambda 64 \
	    --trials 8 "Entry Gate Detector" \
	  | ./_build/default/bin/paredown.exe serve \
	  | ./_build/default/bin/paredown.exe submit --decode - > serve-pipe.txt
	./_build/default/bin/paredown.exe reliability "Entry Gate Detector" \
	    --trials 8 --show 64 \
	  | sed -n '/^weighted solution/,/^network cost/p' > serve-oneshot.txt
	test -s serve-oneshot.txt
	diff serve-pipe.txt serve-oneshot.txt
	req='{"id":"bad","op":"weighted","design":"Entry Gate Detector","lambda":"64","trials":8}'; \
	printf '%s\n%s\n' "$${#req}" "$$req" \
	  | ./_build/default/bin/paredown.exe serve \
	  | ./_build/default/bin/paredown.exe submit --decode - > serve-pipe.txt
	grep -q '^# bad rejected: .*"lambda"' serve-pipe.txt || \
	  { echo "serve-smoke: a string lambda was not rejected by name"; exit 1; }
	for case in "Timed Passage:23 -> 14" "Two-Zone Security:19 -> 10"; do \
	  design=$${case%%:*}; want=$${case#*:}; \
	  ./_build/default/bin/paredown.exe partition "$$design" -a exhaustive \
	    > serve-exh.txt 2> serve-exh-err.txt || exit 1; \
	  grep -q "^inner blocks: $$want " serve-exh.txt || \
	    { echo "serve-smoke: exhaustive $$design is not $$want"; exit 1; }; \
	  test ! -s serve-exh-err.txt || \
	    { echo "serve-smoke: exhaustive $$design wrote to stderr"; \
	      cat serve-exh-err.txt; exit 1; }; \
	done
	rm -f serve-cache.json serve-cache-j1.json serve-cache-j4.json \
	  serve-torn.json serve-batch.txt serve-run1.txt serve-run2.txt \
	  serve-run3.txt serve-run4.txt serve-err3.txt serve-err4.txt \
	  serve-dec1.txt serve-dec2.txt serve-dec3.txt serve-j1.txt \
	  serve-j4.txt serve-pipe.txt serve-oneshot.txt serve-exh.txt \
	  serve-exh-err.txt

# Span-recording smoke (doc/observability.md): traced runs of synth,
# a Monte-Carlo observe and a served Table 1 batch, the last two at
# --jobs 1 and 2.  test/check_trace.py asserts that every file parses,
# that each tid's B/E events balance and nest, and that both job counts
# record the same span-name multiset.  A run that calls exit (submit
# --decode on a corrupt stream exits 1) still writes its trace and
# journal, once each.  Last, a journal to an unwritable path, and a
# flight record under a missing directory (its bundle is only written
# on a failure, so the path is probed up front), must exit 2 before
# doing any work (nothing on stdout), in both executables.  Uses the
# built binaries directly, like serve-smoke.
PAREDOWN = ./_build/default/bin/paredown.exe
RUN_EXPERIMENTS = ./_build/default/bin/run_experiments.exe

trace-smoke: build
	$(PAREDOWN) synth "Podium Timer 3" --trace trace-synth.json --metrics > /dev/null
	python3 test/check_trace.py trace-synth.json
	for j in 1 2; do \
	  $(PAREDOWN) observe "Two-Zone Security" --faults drop:0.05 --trials 64 \
	    --jobs $$j --trace trace-observe-j$$j.json > /dev/null || exit 1; \
	done
	python3 test/check_trace.py trace-observe-j1.json trace-observe-j2.json
	$(PAREDOWN) submit --table1 --repeat 2 > trace-batch.txt
	for j in 1 2; do \
	  $(PAREDOWN) serve --jobs $$j --trace trace-serve-j$$j.json \
	    < trace-batch.txt > /dev/null || exit 1; \
	done
	python3 test/check_trace.py trace-serve-j1.json trace-serve-j2.json
	printf 'x\n' | $(PAREDOWN) submit --decode - --journal trace-exit.jsonl \
	  --trace trace-exit.json > /dev/null 2> trace-bad.txt; test $$? -eq 1
	test $$(grep -c 'events written to trace-exit' trace-bad.txt) -eq 2
	grep -q '"total":0' trace-exit.jsonl
	python3 test/check_trace.py trace-exit.json
	$(PAREDOWN) partition "Podium Timer 3" --journal trace-batch.txt/j.jsonl \
	  > trace-bad.txt 2> /dev/null; test $$? -eq 2
	test ! -s trace-bad.txt
	$(PAREDOWN) submit -a exhaustive --deadline 0 "Two-Zone Security" \
	  | $(PAREDOWN) serve --flight-record trace-missing-dir/pm.json \
	  > trace-bad.txt 2> /dev/null; test $$? -eq 2
	test ! -s trace-bad.txt
	$(RUN_EXPERIMENTS) scale --flight-record trace-missing-dir/pm.json \
	  > trace-bad.txt 2> /dev/null; test $$? -eq 2
	test ! -s trace-bad.txt
	rm -f trace-synth.json trace-observe-j1.json trace-observe-j2.json \
	  trace-batch.txt trace-serve-j1.json trace-serve-j2.json trace-bad.txt \
	  trace-exit.json trace-exit.jsonl

# End-to-end benchmark self-test (bench/e2e/README.md, ~40 s): builds
# the benchmark in its own workspace under .bench_build/, then checks
# that its metric names match BENCHMARK.json, that short runs of every
# workload finish with no failed operations, and that per-key output
# digests are deterministic.
bench-selftest:
	python3 bench/e2e/run.py selftest

# Network-observatory smoke: `paredown observe` on two Table 1 designs,
# Entry Gate Detector under a seeded drop plan and under the chaos
# family, whose jitter spreads each link's latencies over several
# ticks, and Podium Timer 3 under brownouts, which blame node resets
# (utilization tables + paredown-netobs JSON + Chrome timeline,
# uploaded as CI artifacts), then the flat-vs-partitioned
# link-utilization comparison with the disabled-telemetry overhead
# bound asserted (exits nonzero above 1%%; see
# doc/network-telemetry.md).  Every link's latency quantiles in the
# chaos report must be whole ticks, ordered between min and max.  A
# zero trial count, a negative script length and a jitter past 255
# ticks are usage errors: exit 124, nothing on stdout.
LATENCY_TICKS = python3 -c 'import json, sys; \
  links = json.load(open(sys.argv[1]))["links"]; \
  bad = [l["link"] for l in links if not ( \
    all(type(l["latency_ticks"][k]) is int for k in ("p50", "p90", "p99")) \
    and l["latency_ticks"]["min"] <= l["latency_ticks"]["p50"] \
    <= l["latency_ticks"]["p90"] <= l["latency_ticks"]["p99"] \
    <= l["latency_ticks"]["max"])]; \
  sys.exit("latency quantiles not whole ordered ticks: %s" % bad \
           if bad or not links else 0)'
netobs-smoke:
	dune exec bin/paredown.exe -- observe "Entry Gate Detector" \
	  --faults drop:0.05 --netobs netobs-entry-gate.json \
	  --timeline netobs-entry-gate-timeline.json
	dune exec bin/paredown.exe -- observe entry_gate \
	  --faults chaos:0.02,0.01,0.01,2 --netobs netobs-entry-gate-chaos.json
	$(LATENCY_TICKS) netobs-entry-gate-chaos.json
	dune exec bin/paredown.exe -- observe "Podium Timer 3" \
	  --faults brownout:0.3@40,110,180 --netobs netobs-podium-timer-3.json
	dune exec bin/run_experiments.exe -- netobs --trials 3 --overhead
	dune build bin/paredown.exe
	for flag in --trials=0 --steps=-1 --faults=chaos:0,0,0,256; do \
	  out=$$($(PAREDOWN) observe entry_gate $$flag 2>/dev/null); \
	  code=$$?; \
	  if [ $$code -ne 124 ] || [ -n "$$out" ]; then \
	    echo "observe $$flag: exit $$code, stdout '$$out' (want 124, empty)"; exit 1; \
	  fi; \
	done

# Provenance-journal smoke: journal a library-design partition, then
# run every explain query over the file (doc/provenance.md).  explain
# summary must end with the same fit-check total the run's
# core.paredown.fit_checks counter reports.  The same journal with its
# header's version rewritten to 1.5 must not load (explain exits 2): a
# version is exactly an integer.  Then Figure 5 from the
# CLI: partition --explain prints the journal of the run, whose first
# border ranks are the paper's, while --journal still gets the whole
# run (five ranked events, one per removal).  Last, run_experiments
# takes the same flag: a small Table 2 journals the same decisions at
# --jobs 1 and 2, its fit-check total is the table's
# core.paredown.fit_checks reading, and a journal under a missing
# directory exits 2 with nothing on stdout.
journal-smoke:
	dune exec bin/paredown.exe -- partition "Podium Timer 3" \
	  --journal table1-journal.jsonl --metrics
	dune exec bin/paredown.exe -- explain summary table1-journal.jsonl
	dune exec bin/paredown.exe -- explain why 5 table1-journal.jsonl
	dune exec bin/paredown.exe -- explain diff table1-journal.jsonl table1-journal.jsonl
	dune build bin/paredown.exe
	sed '1s/"version":1,/"version":1.5,/' table1-journal.jsonl > version-journal.jsonl
	grep -q '"version":1.5,' version-journal.jsonl
	$(PAREDOWN) explain summary version-journal.jsonl > /dev/null 2>&1; \
	  code=$$?; test $$code -eq 2 || \
	  { echo "journal-smoke: a version 1.5 header loaded (exit $$code)"; exit 1; }
	rm -f table1-journal.jsonl version-journal.jsonl
	$(PAREDOWN) partition "Podium Timer 3" --explain \
	  --journal explain-journal.jsonl > explain-out.txt
	grep -qx 'border ranks 2:+1, 8:+1, 9:+0' explain-out.txt
	$(PAREDOWN) explain summary explain-journal.jsonl \
	  | grep -Eq '^paredown +ranked +5$$'
	rm -f explain-journal.jsonl explain-out.txt
	dune build bin/run_experiments.exe
	for j in 1 2; do \
	  $(RUN_EXPERIMENTS) table2 --scale 0.01 --exhaustive-cutoff 0 \
	    --jobs $$j --journal table2-j$$j.jsonl > table2-j$$j.txt || exit 1; \
	done
	$(PAREDOWN) explain diff table2-j1.jsonl table2-j2.jsonl \
	  | grep -q '^identical'
	checks=$$(sed -n 's/^core\.paredown\.fit_checks *\([0-9]*\) .*/\1/p' table2-j1.txt); \
	test -n "$$checks" && \
	  $(PAREDOWN) explain summary table2-j1.jsonl \
	  | grep -qx "paredown fit checks: $$checks" || \
	  { echo "journal-smoke: table2 journal and metrics disagree on fit checks"; exit 1; }
	out=$$($(RUN_EXPERIMENTS) table2 --scale 0.01 --exhaustive-cutoff 0 \
	  --journal table2-missing-dir/j.jsonl 2>/dev/null); \
	code=$$?; \
	if [ $$code -ne 2 ] || [ -n "$$out" ]; then \
	  echo "run_experiments --journal under a missing directory: exit $$code, stdout '$$out' (want 2, empty)"; exit 1; \
	fi
	rm -f table2-j1.jsonl table2-j2.jsonl table2-j1.txt table2-j2.txt

# Run every example; each exits nonzero when one of its assertions
# breaks (podium_timer.exe pins Figure 5 on the journal's events).
examples:
	dune build @examples/all
	for e in _build/default/examples/*.exe; do \
	  echo "== $$e"; $$e > /dev/null || exit 1; \
	done

clean:
	dune clean
