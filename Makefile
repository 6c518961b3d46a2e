.PHONY: install test test-fast bench bench-full examples clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# edit-loop tier: every test not marked slow (under a minute on 2 vCPUs)
test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_SCALE=full pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/kernel_transformations.py
	python examples/inference_serving.py
	python examples/multi_tenant_packing.py
	python examples/custom_workload.py
	python examples/trace_colocation.py

clean:
	rm -rf results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
