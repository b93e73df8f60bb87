"""The benchmark's clock and table timers wrap library functions by name.

``perfbench/tracer.py`` skips a site that no longer resolves, so renaming a
wrapped function would silently stop the reference clock's ticks there, empty
the table timings or drop a layer's trace span.  This reads the tracer's site
lists, without patching anything, and checks that each live site still names
a callable.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# (module, attribute path) of every tick and table site that must stay live
LIVE_SITES = {
    ("unionsub.datasets", "parse_graph"),
    ("unionsub.descriptors", "wasserstein_discrete"),
    ("unionsub.neural", "_batched_forward"),
    ("unionsub.neural", "_batched_backward"),
    ("unionsub.neural", "Adam.step"),
    ("unionsub.descriptors", "coefficient_table"),
    ("unionsub.neural", "coefficient_table"),
}
# the cycle layer's trace spans: cycle_count calls the search through the
# descriptors module's name, the cycle-pair sampler through the graphs module's
CYCLE_SPAN_SITES = {
    ("unionsub.descriptors", "count_simple_cycles"),
    ("unionsub.graphs", "count_simple_cycles"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def check_sites(listed, required):
    assert required <= {(module, path) for _, module, path, _ in listed}
    for module, path in sorted(required):
        assert callable(resolve(module, path)), f"{module}.{path}"


def test_live_tick_and_table_sites_resolve():
    tracer = load_tracer()
    check_sites(tracer.TICK_SITES + tracer.TABLE_SITES, LIVE_SITES)


def test_no_dead_tick_site_resolves():
    # a new helper named like a dead tick site would start the reference
    # clock there and shift every timing the benchmark reports
    ticks = {(module, path) for _, module, path, _ in load_tracer().TICK_SITES}
    live = {(module, path) for module, path in ticks if callable(resolve(module, path))}
    assert live == LIVE_SITES & ticks


def test_cycle_span_sites_resolve():
    check_sites(load_tracer().SITES, CYCLE_SPAN_SITES)
