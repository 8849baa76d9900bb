# Convenience targets.  `install` uses the legacy editable path because
# this environment is offline and has no `wheel` package (PEP-517
# editable builds need it); with wheel available, `pip install -e .`
# works too.

.PHONY: install test bench figures trace-demo trace-fig5-demo import-time reach knobs all

install:
	python setup.py develop

test:
	python -m pytest tests/

bench:
	python -m pytest benchmarks/ --benchmark-only

figures:
	python -m repro.experiments all --plot

# Record the request lifecycle of a small fig2 run and validate the
# emitted Chrome-trace JSON (load it in chrome://tracing or Perfetto).
trace-demo:
	python -m repro.experiments --trace fig2-trace.json fig2 --sizes 200
	python -c "import json; from repro.tools import validate_chrome_trace; \
	n = validate_chrome_trace(json.load(open('fig2-trace.json')), \
	require_phases=('marshal', 'send', 'wait', 'unmarshal', 'dispatch', \
	'recv_args', 'compute', 'reply', 'transport')); \
	print(f'fig2-trace.json: {n} events, schema ok')"

# Distributed-tracing demo: run the Fig-5 three-world pipeline with
# tracing + metrics on, print the stitched causal trees, and validate
# that the Chrome trace carries cross-world flow arrows.
trace-fig5-demo:
	python -m repro.experiments --trace fig5-trace.json --trace-tree \
	--metrics fig5-metrics.json fig5 --procs 2 --steps 10
	python -c "import json; from repro.tools import validate_chrome_trace; \
	n = validate_chrome_trace(json.load(open('fig5-trace.json')), \
	require_flow_events=1); \
	print(f'fig5-trace.json: {n} events, cross-world flows ok')"

# Where `import repro` spends its time: the 25 slowest modules, by
# cumulative microseconds, that the set-up probe's imports load
# (perfbench/run.py --setup-probe).  numpy is imported before the marker,
# as the probe imports it before its clock starts; the first import only
# warms the bytecode cache.
import-time:
	python -c "import repro.core, repro.idl, repro.netsim, repro.services"
	@echo "  self [us] | cumulative [us] | module"
	@python -X importtime -c "import sys, numpy; print('--', file=sys.stderr); \
	import repro.core, repro.idl, repro.netsim, repro.services" 2>&1 >/dev/null \
	| sed '1,/^--$$/d; s/^import time://' | sort -t'|' -k2 -n -r | head -n 25

# Which src functions no experiment, CLI trace, perfbench batch or example
# calls, module by module, with their line counts (benchmarks/reach.py).
reach:
	python benchmarks/reach.py

# Which defaulted parameters of src constructors and public functions no
# call in src, examples, benchmarks or perfbench sets, marking the ones
# that tests set (benchmarks/knobs.py).
knobs:
	python benchmarks/knobs.py

all: install test bench
