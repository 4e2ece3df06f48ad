# Convenience targets for the fedcons reproduction.

.PHONY: install test bench experiments quick-experiments examples profile profile-admit loc clean

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.experiments.runner --all --seed 1 --out results/

quick-experiments:
	python -m repro.experiments.runner --all --quick --samples 10

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

# Profile a representative sweep and print the hottest 25 frames; the full
# stats land in profile.pstats for pstats/snakeviz-style drilldown.
profile:
	python -m repro.experiments.runner --experiment EXP-A --quick --profile profile.pstats
	python -c "import pstats; pstats.Stats('profile.pstats').sort_stats('cumulative').print_stats(25)"

# Profile the online admission hot path: generate a dense arrival/departure
# trace, replay it under cProfile, and print the hottest 25 frames.
profile-admit:
	python -m repro.online.cli generate /tmp/admit_trace.jsonl --events 2000 -m 64 --seed 0
	python -m repro.online.cli replay /tmp/admit_trace.jsonl -m 64 --profile profile_admit.pstats
	python -c "import pstats; pstats.Stats('profile_admit.pstats').sort_stats('cumulative').print_stats(25)"

# Net size of the package: total lines of Python under src/.
loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
