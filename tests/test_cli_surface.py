"""The ``repro`` command-line surface, pinned option by option.

The test walks :func:`repro.cli.build_parser` over every subcommand path
(``topk``, ``query ping``, ``cluster serve``, ``cache stats``, ...) and
describes each option by its option strings (the dest for a
positional), ``dest``, action class, default, type, ``nargs``,
``choices`` and ``required``. Attributes left at argparse's defaults are
not spelled out. ``SURFACE`` holds the expected descriptions: a change
to the parser changes a flag that scripts use, so it must change this
table with it. Help prose and metavars are not pinned, and neither is
the order of the optionals. The order of the positionals is pinned,
because it decides how arguments parse. The help option argparse adds
to every parser is left out. Every subcommand's ``--help`` text must
still render.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser


def walk(parser, path=()):
    """Yield ``(path, parser)`` for the parser and every subcommand."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from walk(sub, (*path, name))


def describe(action):
    parts = [" ".join(action.option_strings) or action.dest,
             f"dest={action.dest}"]
    kind = type(action).__name__.strip("_").removesuffix("Action")
    if kind != "Store":
        parts.append(f"action={kind}")
    if action.default is not None:
        parts.append(f"default={action.default!r}")
    if action.type is not None:
        parts.append(f"type={action.type.__name__}")
    if action.nargs is not None:
        parts.append(f"nargs={action.nargs!r}")
    if action.choices is not None:
        choices = (sorted(action.choices) if isinstance(action.choices, dict)
                   else list(action.choices))
        parts.append(f"choices={choices!r}")
    if action.required:
        parts.append("required")
    return " ".join(parts)


def surface(parser):
    """The positionals in order, then the optionals sorted."""
    actions = [action for action in parser._actions
               if not isinstance(action, argparse._HelpAction)]
    return [
        *(describe(action) for action in actions if not action.option_strings),
        *sorted(describe(action) for action in actions if action.option_strings),
    ]


SURFACE = {
    "": [
        "command dest=command action=SubParsers nargs='A...' choices=['cache', 'cluster', "
        "'estimate', 'experiment', 'lint', 'maxchange', 'percent-change', 'query', "
        "'serve', 'store', 'topk', 'traffic'] required",
    ],
    "topk": [
        "--checkpoint-every dest=checkpoint_every type=int",
        "--depth dest=depth default=5 type=int",
        "--input dest=input required",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--k dest=k default=10 type=int",
        "--metrics-format dest=metrics_format choices=['json', 'prometheus']",
        "--metrics-out dest=metrics_out",
        "--resume dest=resume",
        "--save-state dest=save_state",
        "--seed dest=seed default=0 type=int",
        "--width dest=width default=512 type=int",
    ],
    "estimate": [
        "items dest=items nargs='+' required",
        "--checkpoint-every dest=checkpoint_every type=int",
        "--depth dest=depth default=5 type=int",
        "--input dest=input",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--metrics-format dest=metrics_format choices=['json', 'prometheus']",
        "--metrics-out dest=metrics_out",
        "--resume dest=resume",
        "--save-state dest=save_state",
        "--seed dest=seed default=0 type=int",
        "--sketch dest=sketch",
        "--width dest=width default=512 type=int",
    ],
    "maxchange": [
        "--after dest=after required",
        "--before dest=before required",
        "--depth dest=depth default=5 type=int",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--k dest=k default=10 type=int",
        "--l dest=l default=40 type=int",
        "--metrics-format dest=metrics_format choices=['json', 'prometheus']",
        "--metrics-out dest=metrics_out",
        "--seed dest=seed default=0 type=int",
        "--width dest=width default=512 type=int",
    ],
    "percent-change": [
        "--after dest=after required",
        "--before dest=before required",
        "--depth dest=depth default=5 type=int",
        "--floor dest=floor default=8.0 type=float",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--k dest=k default=10 type=int",
        "--l dest=l default=40 type=int",
        "--min-after dest=min_after default=0 type=int",
        "--seed dest=seed default=0 type=int",
        "--width dest=width default=512 type=int",
    ],
    "experiment": [
        "name dest=name choices=['table1', 'error_vs_b', 'failure_vs_t', "
        "'approxtop_quality', 'zipf_space_scaling', 'sampling_space', "
        "'maxchange_experiment', 'space_accounting', 'ablation_estimator', "
        "'ablation_sign_hash', 'ablation_heap_counts', 'ablation_hash_family', "
        "'hierarchical_maxchange', 'autoconfig', 'windowed_accuracy', "
        "'relative_change_floor', 'throughput', 'run_all'] required",
    ],
    "store": [
        "store_command dest=store_command action=SubParsers nargs='A...' choices=['diff', "
        "'inspect', 'merge'] required",
    ],
    "store inspect": [
        "paths dest=paths nargs='+' required",
    ],
    "store merge": [
        "inputs dest=inputs nargs='+' required",
        "--out dest=out required",
    ],
    "store diff": [
        "before dest=before required",
        "after dest=after required",
        "--archive dest=archive",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--items dest=items default=[] nargs='*'",
        "--k dest=k default=10 type=int",
    ],
    "serve": [
        "--checkpoint-dir dest=checkpoint_dir",
        "--checkpoint-every dest=checkpoint_every type=int",
        "--checkpoint-every-seconds dest=checkpoint_every_seconds type=float",
        "--fair-quantum dest=fair_quantum type=int",
        "--host dest=host default='127.0.0.1'",
        "--ingest-burst dest=ingest_burst type=int",
        "--ingest-rate dest=ingest_rate type=float",
        "--max-batch dest=max_batch default=64 type=int",
        "--max-connections dest=max_connections type=int",
        "--metrics-format dest=metrics_format choices=['json', 'prometheus']",
        "--metrics-out dest=metrics_out",
        "--port dest=port default=9431 type=int",
        "--query-burst dest=query_burst type=int",
        "--query-rate dest=query_rate type=float",
        "--queue-capacity dest=queue_capacity default=256 type=int",
        "--table dest=table action=Append default=[]",
        "--table-weight dest=table_weight action=Append default=[]",
    ],
    "query": [
        "query_command dest=query_command action=SubParsers nargs='A...' "
        "choices=['checkpoint', 'create', 'estimate', 'ingest', 'metrics', 'ping', "
        "'shutdown', 'stats', 'topk'] required",
    ],
    "query ping": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--port dest=port default=9431 type=int",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query create": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--port dest=port default=9431 type=int",
        "--table dest=table required",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query ingest": [
        "--batch-size dest=batch_size default=1000 type=int",
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--input dest=input required",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--port dest=port default=9431 type=int",
        "--skip dest=skip default=0 type=int",
        "--table dest=table required",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query estimate": [
        "items dest=items nargs='+' required",
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--port dest=port default=9431 type=int",
        "--table dest=table required",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query topk": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--k dest=k type=int",
        "--port dest=port default=9431 type=int",
        "--table dest=table required",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query stats": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--port dest=port default=9431 type=int",
        "--table dest=table",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query metrics": [
        "--cluster dest=cluster",
        "--format dest=format default='prometheus' choices=['prometheus', 'json']",
        "--host dest=host default='127.0.0.1'",
        "--out dest=out",
        "--port dest=port default=9431 type=int",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query checkpoint": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--port dest=port default=9431 type=int",
        "--table dest=table",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "query shutdown": [
        "--cluster dest=cluster",
        "--host dest=host default='127.0.0.1'",
        "--port dest=port default=9431 type=int",
        "--timeout dest=timeout default=30.0 type=float",
    ],
    "cluster": [
        "cluster_command dest=cluster_command action=SubParsers nargs='A...' "
        "choices=['rebalance', 'serve'] required",
    ],
    "cluster serve": [
        "--checkpoint-dir dest=checkpoint_dir",
        "--checkpoint-every dest=checkpoint_every type=int",
        "--checkpoint-every-seconds dest=checkpoint_every_seconds type=float",
        "--host dest=host default='127.0.0.1'",
        "--max-batch dest=max_batch default=64 type=int",
        "--queue-capacity dest=queue_capacity default=256 type=int",
        "--shards dest=shards default=2 type=int",
        "--spec-out dest=spec_out default='cluster.json'",
        "--table dest=table action=Append default=[]",
    ],
    "cluster rebalance": [
        "--out dest=out required",
        "--shards dest=shards type=int required",
        "--src dest=src required",
    ],
    "traffic": [
        "--arrival dest=arrival default='closed' choices=['closed', 'poisson', 'burst']",
        "--batch-size dest=batch_size default=32 type=int",
        "--burst-factor dest=burst_factor default=4.0 type=float",
        "--burst-period dest=burst_period default=1.0 type=float",
        "--clients dest=clients default=4 type=int",
        "--cluster dest=cluster",
        "--depth dest=depth default=5 type=int",
        "--duration dest=duration default=5.0 type=float",
        "--host dest=host default='127.0.0.1'",
        "--json dest=json action=StoreTrue default=False nargs=0",
        "--keys-per-tenant dest=keys_per_tenant default=512 type=int",
        "--max-inflight dest=max_inflight default=64 type=int",
        "--no-probe dest=no_probe action=StoreTrue default=False nargs=0",
        "--no-setup dest=no_setup action=StoreTrue default=False nargs=0",
        "--no-verify dest=no_verify action=StoreTrue default=False nargs=0",
        "--port dest=port default=9431 type=int",
        "--query-fraction dest=query_fraction default=0.2 type=float",
        "--query-items dest=query_items default=8 type=int",
        "--rate dest=rate default=0.0 type=float",
        "--seed dest=seed default=0 type=int",
        "--table-kind dest=table_kind default='sketch' choices=['sketch', 'vectorized', "
        "'topk', 'window']",
        "--table-prefix dest=table_prefix default='tenant'",
        "--tenants dest=tenants default=4 type=int",
        "--width dest=width default=256 type=int",
        "--zipf-key dest=zipf_key default=1.1 type=float",
        "--zipf-tenant dest=zipf_tenant default=0.0 type=float",
    ],
    "cache": [
        "cache_command dest=cache_command action=SubParsers nargs='A...' "
        "choices=['simulate', 'stats'] required",
    ],
    "cache simulate": [
        "--capacity dest=capacity action=Append default=[] type=int",
        "--keys dest=keys default=50000 type=int",
        "--load-sketch dest=load_sketch",
        "--phases dest=phases default=5 type=int",
        "--policy dest=policy action=Append default=[] choices=['lru', 'lfu', 'tinylfu']",
        "--requests dest=requests default=100000 type=int",
        "--save-sketch dest=save_sketch",
        "--seed dest=seed default=0 type=int",
        "--trace dest=trace default='zipf' choices=['zipf', 'shifting']",
        "--zipf dest=zipf default=1.1 type=float",
    ],
    "cache stats": [
        "items dest=items nargs='*' required",
        "--int-keys dest=int_keys action=StoreTrue default=False nargs=0",
        "--sketch dest=sketch required",
    ],
    "lint": [
        "paths dest=paths default=[] nargs='*'",
        "--baseline dest=baseline",
        "--format dest=format default='human' choices=['human', 'json']",
        "--ignore dest=ignore",
        "--include-fixtures dest=include_fixtures action=StoreTrue default=False nargs=0",
        "--list-rules dest=list_rules action=StoreTrue default=False nargs=0",
        "--select dest=select",
    ],
}

PARSERS = dict(walk(build_parser()))


def test_every_subcommand_path_is_pinned():
    assert list(PARSERS) == list(SURFACE)


@pytest.mark.parametrize("path", list(SURFACE), ids=lambda path: path or "repro")
def test_options_are_pinned(path):
    assert surface(PARSERS[path]) == SURFACE[path]


@pytest.mark.parametrize("path", list(SURFACE), ids=lambda path: path or "repro")
def test_help_renders(path):
    text = PARSERS[path].format_help()
    assert text.startswith(f"usage: {' '.join(['repro', *path.split()])}")
    assert "-h, --help" in text
