"""Command-line interface.

Surfaces the paper's workflows without writing Python::

    python -m repro list                       # workload inventory
    python -m repro characterize SS KM         # metric vectors (or all)
    python -m repro analyze                    # PCA + clusters + reps
    python -m repro subspace "branch divergence"
    python -m repro stress                     # functional-block rankings
    python -m repro evaluate --subset-k 8      # design-space evaluation
    python -m repro dse sweep                  # Pareto frontier + sensitivity
    python -m repro dse compare                # roofline-vs-cycle rank agreement
    python -m repro dse fidelity               # subset fidelity across k
    python -m repro profile-cache              # inspect the profile cache
    python -m repro verify --quick             # invariants + engine parity
    python -m repro telemetry run.json         # summarize a telemetry trace

All commands share the sharded on-disk profile cache, so only the first
invocation simulates the suite — and ``--jobs N`` (or ``REPRO_JOBS``) fans
that first simulation out over N worker processes.

Telemetry: ``--trace-out PATH`` (or ``REPRO_TRACE=PATH``) records spans and
counters for the whole invocation and writes them on exit as Chrome
trace-event JSON, whatever the file's extension.  Summarize the trace with
``python -m repro telemetry PATH``.

Exit codes are uniform across subcommands: 0 success, 1 operation failure
(workload characterization failed, a verify property was violated), 2 usage
error (unknown workload/metric/pass, conflicting flags, bad ``REPRO_JOBS``,
``--sample-blocks``, ``verify --budget`` or ``--top`` below 1, ``--subset-k``
outside ``[1, workloads]``, ``analyze`` of fewer than two workloads, a trace
file that is missing or not Chrome trace-event JSON).

``--json`` on ``list``, ``characterize``, ``stress``, ``evaluate`` and the
``dse`` subcommands emits machine-readable output on stdout; each document
carries a ``schema`` key (``repro.workloads/v1``, ``repro.feature-matrix/v1``,
``repro.stress/v1``, ``repro.evaluate/v1``, ``repro.dse-sweep/v1``,
``repro.dse-compare/v1``, ``repro.dse-fidelity/v1``).

``evaluate`` and the ``dse`` commands take ``--model roofline|cycle`` to pick
the registered timing model; ``dse`` also takes ``--design-space PATH`` to
sweep a ``repro.design-space/v1`` spec instead of the built-in space.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

#: Uniform exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _usage_error(message) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.report import ascii_table
    from repro.workloads import registry

    workloads = registry.all_workloads()
    if args.json:
        doc = {
            "schema": "repro.workloads/v1",
            "workloads": [
                {
                    "suite": cls.suite,
                    "abbrev": cls.abbrev,
                    "name": cls.name,
                    "description": cls.description,
                }
                for cls in workloads
            ],
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    rows = [[cls.suite, cls.abbrev, cls.name, cls.description] for cls in workloads]
    print(ascii_table(["suite", "abbrev", "name", "description"], rows))
    return EXIT_OK


def _csv_names(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _pass_selection(args: argparse.Namespace):
    """Resolve ``--passes``/``--metrics`` into a canonical pass tuple.

    The two flags compose: the result is the union of the explicitly named
    passes and every pass the named metrics require.  ``None`` (neither flag
    given) means collect everything.
    """
    passes = _csv_names(getattr(args, "passes", None))
    metric_names = _csv_names(getattr(args, "metrics", None))
    if passes is None and metric_names is None:
        return None
    from repro.core import metrics
    from repro.trace.profile import canonical_passes

    selected = set(passes or ())
    if metric_names:
        for name in metric_names:
            if name not in metrics.metric_names():
                raise ValueError(f"unknown metric {name!r}")
        selected |= set(metrics.passes_for_metrics(metric_names))
    return canonical_passes(selected)


def _profiles(args: argparse.Namespace):
    from repro.api import CharacterizationConfig, characterize

    try:
        config = CharacterizationConfig(
            abbrevs=getattr(args, "workloads", None) or None,
            sample_blocks=args.sample_blocks,
            use_cache=not args.no_cache,
            jobs=args.jobs,
            passes=_pass_selection(args),
        )
        progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
        result = characterize(config, progress, strict=False)
    except (KeyError, ValueError) as exc:
        # Unknown workload abbrev, pass or metric name, a bad REPRO_JOBS or
        # a --sample-blocks below 1.
        raise _usage_error(exc.args[0] if exc.args else exc)
    if result.failures:
        for failure in result.failures:
            print(
                f"error: {failure.workload} failed after {failure.attempts} "
                f"attempt(s): {failure.error}",
                file=sys.stderr,
            )
        raise SystemExit(EXIT_FAILURE)
    return result.profiles


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.core import metrics
    from repro.core.featurespace import FeatureMatrix
    from repro.report import ascii_table, csv_lines

    if args.json and args.csv:
        raise _usage_error("--json and --csv are mutually exclusive")
    try:
        selected = _csv_names(args.metrics)
        if selected is not None:
            for name in selected:
                if name not in metrics.metric_names():
                    raise ValueError(f"unknown metric {name!r}")
    except ValueError as exc:
        raise _usage_error(exc)
    # Without --metrics the matrix defaults to whatever the collected
    # passes support (everything, unless --passes narrowed the run).
    profiles = _profiles(args)
    fm = FeatureMatrix.from_profiles(profiles, metric_names=selected)
    if args.json:
        # Aggregate engine counters (batches, largest batch, event-buffer
        # bytes, ...) ride along per workload when the run produced them.
        stats_by_workload = {
            p.workload: getattr(p, "engine_stats", None) for p in profiles
        }
        doc = {
            "schema": "repro.feature-matrix/v1",
            "metrics": list(fm.metric_names),
            "workloads": [
                {
                    "workload": w,
                    "suite": s,
                    "values": {n: float(v) for n, v in zip(fm.metric_names, row)},
                    "engine_stats": stats_by_workload.get(w),
                }
                for w, s, row in zip(fm.workloads, fm.suites, fm.values)
            ],
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    if args.csv:
        text = csv_lines(
            ["workload", "suite"] + fm.metric_names,
            [[w, s] + list(v) for w, s, v in zip(fm.workloads, fm.suites, fm.values)],
        )
        with open(args.csv, "w") as f:
            f.write(text)
        print(f"wrote {fm.n_workloads}x{fm.n_metrics} feature matrix to {args.csv}")
        return EXIT_OK
    # Terminal-friendly: one table per metric group.
    column = {name: i for i, name in enumerate(fm.metric_names)}
    for group in metrics.metric_groups():
        names = [s.name for s in metrics.all_metrics() if s.group == group and s.name in column]
        if not names:
            continue
        rows = [
            [w] + [fm.values[i, column[n]] for n in names]
            for i, w in enumerate(fm.workloads)
        ]
        print(ascii_table(["workload"] + names, rows, title=group))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import analyze
    from repro.core.analysis.diversity import outlier_ranking
    from repro.report import ascii_table, text_dendrogram, text_scatter

    profiles = _profiles(args)
    try:
        result = analyze(
            profiles, variance_target=args.variance_target, linkage_method=args.linkage
        )
    except ValueError as exc:
        raise _usage_error(exc)
    pca = result.pca
    print(
        f"{len(result.standardized.metric_names)} characteristics -> "
        f"{pca.n_components} PCs ({pca.retained:.0%} variance)\n"
    )
    if pca.n_components >= 2:
        print(text_scatter(pca.scores[:, 0], pca.scores[:, 1], result.workloads))
    print(text_dendrogram(result.dendrogram))
    print(f"BIC-optimal K = {result.kmeans_best_k}")
    rows = [
        [r.cluster, r.workload, r.cluster_size, f"{r.weight:.2f}", " ".join(r.members)]
        for r in result.representatives
    ]
    print(ascii_table(["cluster", "representative", "size", "weight", "members"], rows))
    print("top diversity outliers:")
    for workload, dist in outlier_ranking(pca.scores, result.workloads)[:8]:
        print(f"  {workload:6s} {dist:.2f}")
    return EXIT_OK


def _cmd_subspace(args: argparse.Namespace) -> int:
    from repro.core import metrics
    from repro.core.analysis.subspace import analyze_subspace, kernel_heterogeneity
    from repro.core.featurespace import FeatureMatrix
    from repro.report import ascii_table, text_scatter

    if args.name not in metrics.SUBSPACES:
        print(
            f"unknown subspace {args.name!r}; options: {sorted(metrics.SUBSPACES)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    profiles = _profiles(args)
    fm = FeatureMatrix.from_profiles(profiles)
    dims = metrics.SUBSPACES[args.name]
    sub = analyze_subspace(fm, dims, args.name)
    het = kernel_heterogeneity(profiles, list(dims))
    het_by = dict(zip(sub.workloads, het))
    if sub.pca.n_components >= 2:
        print(text_scatter(sub.pca.scores[:, 0], sub.pca.scores[:, 1], sub.workloads))
    rows = [[w, v, het_by[w]] for w, v in sub.ranking()]
    print(
        ascii_table(
            ["workload", "variation", "kernel heterogeneity"],
            rows,
            title=f"{args.name} subspace ({len(dims)} characteristics)",
        )
    )
    return EXIT_OK


def _check_top(top: int) -> None:
    if top < 1:
        raise _usage_error(f"--top must be at least 1, got {top}")


def _cmd_stress(args: argparse.Namespace) -> int:
    from repro.core.evaluation import STRESS_PROFILES, stress_ranking
    from repro.core.featurespace import FeatureMatrix
    from repro.report import ascii_table

    _check_top(args.top)
    blocks = [args.block] if args.block else list(STRESS_PROFILES)
    for block in blocks:
        if block not in STRESS_PROFILES:
            print(
                f"unknown block {block!r}; options: {sorted(STRESS_PROFILES)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    fm = FeatureMatrix.from_profiles(_profiles(args))
    if args.json:
        doc = {
            "schema": "repro.stress/v1",
            "top": args.top,
            "blocks": {
                block: [
                    {"workload": w, "score": float(score)}
                    for w, score in stress_ranking(fm, block, args.top)
                ]
                for block in blocks
            },
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    for block in blocks:
        print(ascii_table(["workload", "stress score"], stress_ranking(fm, block, args.top), title=block))
    return EXIT_OK


def _check_model(name: str) -> str:
    from repro.uarch import model_names

    if name not in model_names():
        raise _usage_error(
            f"unknown timing model {name!r}; choose from {', '.join(model_names())}"
        )
    return name


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.api import evaluate
    from repro.report import ascii_table

    model = _check_model(args.model)
    profiles = _profiles(args)
    try:
        result = evaluate(profiles, subset_k=args.subset_k, model=model, jobs=args.jobs)
    except ValueError as exc:
        raise _usage_error(exc)
    ev = result.subset
    if args.json:
        doc = {
            "schema": "repro.evaluate/v1",
            "subset_k": args.subset_k,
            "model": model,
            "representatives": [
                {"workload": w, "weight": float(wt)}
                for w, wt in zip(result.representatives, result.weights)
            ],
            "designs": [
                {
                    "name": name,
                    "full_speedup": float(full),
                    "subset_speedup": float(sub),
                    "relative_error": float(err),
                }
                for name, full, sub, err in zip(
                    ev.design_names,
                    ev.full_speedups,
                    ev.subset_speedups,
                    ev.relative_errors,
                )
            ],
            "mean_error": float(ev.mean_error),
            "max_error": float(ev.max_error),
            "kendall_tau": float(ev.kendall_tau),
            "same_winner": bool(ev.same_winner),
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    rows = [
        [name, full, sub, f"{err * 100:+.1f}%"]
        for name, full, sub, err in zip(
            ev.design_names, ev.full_speedups, ev.subset_speedups, ev.relative_errors
        )
    ]
    print(
        ascii_table(
            ["design", "full suite", "subset", "error"],
            rows,
            title=f"representatives ({model} model): {', '.join(result.representatives)}",
        )
    )
    print(
        f"mean |error| {ev.mean_error:.1%}  max {ev.max_error:.1%}  "
        f"tau {ev.kendall_tau:.2f}  same winner: {ev.same_winner}"
    )
    return EXIT_OK


#: Quick DSE basket: one streaming, one divergent, one compute workload —
#: small enough for a CI smoke sweep, varied enough to exercise every axis.
DSE_QUICK_BASKET = ("VA", "BS", "NN")


def _dse_workloads(args: argparse.Namespace) -> None:
    """Apply ``--quick`` to the positional workload selection, in place."""
    if args.quick:
        if args.workloads:
            raise _usage_error("--quick and explicit workloads are mutually exclusive")
        args.workloads = list(DSE_QUICK_BASKET)


def _dse_space(args: argparse.Namespace):
    from repro.uarch import DesignSpaceError, load_space

    try:
        return load_space(args.design_space)
    except DesignSpaceError as exc:
        raise _usage_error(exc)
    except OSError as exc:
        raise _usage_error(f"cannot read design space {args.design_space}: {exc}")


def _cmd_dse_sweep(args: argparse.Namespace) -> int:
    from repro.core.evaluation import geomean
    from repro.report import ascii_table
    from repro.uarch import (
        axis_sensitivity,
        design_cost,
        pareto_frontier,
        run_sweep,
    )

    model = _check_model(args.model)
    space = _dse_space(args)
    _dse_workloads(args)
    configs = space.configs()
    profiles = _profiles(args)
    sweep = run_sweep(
        profiles,
        configs=configs,
        models=(model,),
        jobs=args.jobs,
        use_cache=not args.no_cache,
        progress=(lambda msg: print(msg, file=sys.stderr)) if args.verbose else None,
    )
    speedups = sweep.speedups(model)
    per_design = [geomean(speedups[:, j]) for j in range(len(configs))]
    costs = [design_cost(c, space.baseline) for c in configs]
    frontier = set(pareto_frontier(costs, per_design))
    sensitivity = axis_sensitivity(configs, space.baseline, per_design)
    if args.json:
        doc = {
            "schema": "repro.dse-sweep/v1",
            "space": space.name,
            "sweep": space.sweep,
            "model": model,
            "workloads": sweep.workloads,
            "designs": [
                {
                    "name": c.name,
                    "cost": float(cost),
                    "speedup": float(sp),
                    "pareto": j in frontier,
                }
                for j, (c, cost, sp) in enumerate(zip(configs, costs, per_design))
            ],
            "sensitivity": sensitivity,
            "cache": {"hits": sweep.cache_hits, "misses": sweep.cache_misses},
            "wall_seconds": sweep.wall_seconds,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    rows = [
        [c.name, f"{cost:.2f}", f"{sp:.3f}x", "*" if j in frontier else ""]
        for j, (c, cost, sp) in enumerate(zip(configs, costs, per_design))
    ]
    print(
        ascii_table(
            ["design", "cost", "geomean speedup", "pareto"],
            rows,
            title=(
                f"{space.name} space ({len(configs)} designs, {model} model, "
                f"{len(profiles)} workloads)"
            ),
        )
    )
    if sensitivity:
        sens_rows = [
            [
                rec["field"],
                f"{rec['spread']:.3f}",
                " ".join(f"{p['name']}={p['speedup']:.2f}x" for p in rec["points"]),
            ]
            for rec in sensitivity
        ]
        print(ascii_table(["axis", "spread", "points"], sens_rows, title="per-axis sensitivity"))
    print(f"cache: {sweep.cache_hits} hits, {sweep.cache_misses} misses")
    return EXIT_OK


def _cmd_dse_compare(args: argparse.Namespace) -> int:
    from repro.core.evaluation import geomean, kendall_tau
    from repro.report import ascii_table
    from repro.uarch import run_sweep

    models = _csv_names(args.models) or []
    if len(models) < 2:
        raise _usage_error("--models needs at least two comma-separated model names")
    for name in models:
        _check_model(name)
    space = _dse_space(args)
    _dse_workloads(args)
    configs = space.configs()
    profiles = _profiles(args)
    sweep = run_sweep(
        profiles,
        configs=configs,
        models=models,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    per_model = {
        m: [geomean(sweep.speedups(m)[:, j]) for j in range(len(configs))]
        for m in sweep.models
    }
    agreement = [
        {
            "models": [a, b],
            "kendall_tau": float(kendall_tau(per_model[a], per_model[b])),
        }
        for i, a in enumerate(sweep.models)
        for b in sweep.models[i + 1 :]
    ]
    if args.json:
        doc = {
            "schema": "repro.dse-compare/v1",
            "space": space.name,
            "models": list(sweep.models),
            "workloads": sweep.workloads,
            "designs": [
                {"name": c.name, **{m: float(per_model[m][j]) for m in sweep.models}}
                for j, c in enumerate(configs)
            ],
            "rank_agreement": agreement,
            "cache": {"hits": sweep.cache_hits, "misses": sweep.cache_misses},
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    rows = [
        [c.name] + [f"{per_model[m][j]:.3f}x" for m in sweep.models]
        for j, c in enumerate(configs)
    ]
    print(
        ascii_table(
            ["design"] + [f"{m} speedup" for m in sweep.models],
            rows,
            title=f"{space.name} space: geomean speedups by model",
        )
    )
    for rec in agreement:
        a, b = rec["models"]
        print(f"rank agreement {a} vs {b}: kendall tau {rec['kendall_tau']:.3f}")
    return EXIT_OK


def _cmd_dse_fidelity(args: argparse.Namespace) -> int:
    from repro import api
    from repro.report import ascii_table

    model = _check_model(args.model)
    try:
        subset_ks = [int(tok) for tok in (_csv_names(args.subset_k) or [])]
    except ValueError:
        raise _usage_error(f"--subset-k must be comma-separated integers, got {args.subset_k!r}")
    if not subset_ks or any(k < 1 for k in subset_ks):
        raise _usage_error("--subset-k needs at least one positive integer")
    space = _dse_space(args)
    profiles = _profiles(args)
    if max(subset_ks) > len(profiles):
        raise _usage_error(
            f"--subset-k {max(subset_ks)} exceeds the {len(profiles)} selected workloads"
        )
    analysis = api.analyze(profiles)
    records = []
    for k in subset_ks:
        ev = api.evaluate(
            profiles,
            subset_k=k,
            analysis=analysis,
            seed=args.seed,
            model=model,
            configs=space.configs(),
            jobs=args.jobs,
        )
        records.append(
            {
                "subset_k": k,
                "representatives": ev.representatives,
                "mean_error": float(ev.subset.mean_error),
                "max_error": float(ev.subset.max_error),
                "kendall_tau": float(ev.kendall_tau),
                "same_winner": bool(ev.same_winner),
            }
        )
    if args.json:
        doc = {
            "schema": "repro.dse-fidelity/v1",
            "model": model,
            "seed": args.seed,
            "workloads": [p.workload for p in profiles],
            "points": records,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    rows = [
        [
            rec["subset_k"],
            f"{rec['mean_error']:.1%}",
            f"{rec['max_error']:.1%}",
            f"{rec['kendall_tau']:.2f}",
            "yes" if rec["same_winner"] else "no",
            " ".join(rec["representatives"]),
        ]
        for rec in records
    ]
    print(
        ascii_table(
            ["k", "mean |err|", "max |err|", "tau", "same winner", "representatives"],
            rows,
            title=f"subset fidelity vs full suite ({model} model)",
        )
    )
    return EXIT_OK


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.simt import Device, Executor, disassemble, static_stats
    from repro.report import ascii_table
    from repro.workloads import registry
    from repro.workloads.base import RunContext

    try:
        cls = registry.get(args.workload)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE

    # Capture the kernels the workload actually launches by intercepting
    # the executor (no trace sinks; functional execution only).
    device = Device()
    executor = Executor(device)
    seen = {}
    original = executor.launch

    def capture(kernel, grid, block, kargs=None):
        seen.setdefault(kernel.name, kernel)
        return original(kernel, grid, block, kargs)

    executor.launch = capture  # type: ignore[method-assign]
    ctx = RunContext(device, executor)
    cls().run(ctx)

    rows = []
    for name, kernel in seen.items():
        stats = static_stats(kernel)
        rows.append(
            [name, stats.static_instructions, stats.branches, stats.loops,
             stats.barriers, stats.register_pressure, stats.shared_bytes]
        )
        if args.full:
            print(disassemble(kernel))
    print(ascii_table(
        ["kernel", "static instrs", "ifs", "loops", "barriers", "reg pressure", "shared B"],
        rows,
        title=f"{cls.abbrev}: {len(seen)} distinct kernels",
    ))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.api import analyze
    from repro.report.markdown import render_analysis_report

    result = analyze(_profiles(args))
    text = render_analysis_report(result)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_profile_cache(args: argparse.Namespace) -> int:
    import time

    from repro.core.runtime import ProfileCache
    from repro.report import ascii_table
    from repro.uarch.sweep import SweepCache

    cache = ProfileCache()
    if args.clear:
        profiles = len(cache.purge(stale_only=False))
        timings = len(SweepCache(cache.cache_dir).clear())
        print(
            f"removed {profiles + timings} shard(s) ({profiles} profile, "
            f"{timings} timing) from {cache.cache_dir}"
        )
        return EXIT_OK
    if args.purge:
        removed = cache.purge(stale_only=True)
        print(f"removed {len(removed)} stale/orphan shard(s) from {cache.cache_dir}")
        return EXIT_OK
    entries = cache.entries()
    if not entries:
        print(f"profile cache at {cache.cache_dir} is empty")
        return EXIT_OK
    if args.stats:
        total = sum(e.size_bytes for e in entries)
        per_pass: Dict[str, int] = {}
        for e in entries:
            for name in e.passes:
                per_pass[name] = per_pass.get(name, 0) + 1
        print(f"{len(entries)} shard(s), {total / 1024:.0f}K total in {cache.cache_dir}")
        rows = [
            [name, count, f"{count / len(entries):.0%}"]
            for name, count in sorted(per_pass.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        print(
            ascii_table(
                ["pass", "shards carrying sections", "coverage"],
                rows,
                title="per-pass carried sections",
            )
        )
        return EXIT_OK
    now = time.time()
    rows = [
        [
            e.workload,
            "all" if e.sample_blocks is None else e.sample_blocks,
            e.digest,
            e.status,
            f"{e.size_bytes / 1024:.0f}K",
            f"{e.wall_seconds:.2f}s",
            f"{max(now - e.created, 0) / 60:.0f}m" if e.created else "?",
        ]
        for e in entries
    ]
    print(
        ascii_table(
            ["workload", "sample", "digest", "status", "size", "sim time", "age"],
            rows,
            title=f"{len(entries)} shard(s) in {cache.cache_dir}",
        )
    )
    stale = sum(e.status != "fresh" for e in entries)
    if stale:
        print(f"{stale} stale/orphan shard(s); `python -m repro profile-cache --purge` removes them")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        VerifyContext,
        all_properties,
        format_report,
        run_selftest,
        run_verify,
        select_properties,
    )

    if args.list:
        for prop in all_properties():
            gen = " [generator-backed]" if prop.generator_backed else ""
            print(f"{prop.name:<40} {prop.layer:<9}{gen}")
            print(f"    {prop.invariant}")
        return EXIT_OK

    try:
        select_properties(args.only or None)
        VerifyContext(seed=args.seed, budget=args.budget)
    except (KeyError, ValueError) as exc:
        raise _usage_error(exc.args[0])
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    if args.self_test:
        report = run_selftest(
            seed=args.seed, quick=args.quick, only=args.only or None, progress=progress
        )
    else:
        report = run_verify(
            seed=args.seed,
            quick=args.quick,
            budget=args.budget,
            only=args.only or None,
            progress=progress,
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
        print(f"wrote verify report to {args.json_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(format_report(report))
    return EXIT_OK if report.ok else EXIT_FAILURE


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import format_summary, load_trace

    _check_top(args.top)
    try:
        data = load_trace(args.trace)
    except FileNotFoundError:
        raise _usage_error(f"no such trace file: {args.trace}")
    except ValueError as exc:
        raise _usage_error(f"could not parse {args.trace}: {exc}")
    print(format_summary(data, top=args.top))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPGPU workload characterization toolkit (IISWC 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workloads: bool = True) -> None:
        if workloads:
            p.add_argument("workloads", nargs="*", help="workload abbrevs (default: all)")
        p.add_argument("--sample-blocks", type=int, default=48, help="profiled blocks per launch")
        p.add_argument("--no-cache", action="store_true", help="ignore the profile cache")
        p.add_argument(
            "--passes",
            default=None,
            help="comma-separated analysis passes to collect "
            "(mix,ilp,branch,coalescing,shared,reuse,texture; default: all)",
        )
        p.add_argument(
            "--metrics",
            default=None,
            help="comma-separated metric names; collection is restricted to "
            "the passes those metrics need",
        )
        p.add_argument(
            "-j",
            "--jobs",
            type=int,
            default=None,
            help="parallel worker processes (default: $REPRO_JOBS, then 1; 0 = all cores)",
        )
        p.add_argument("-v", "--verbose", action="store_true", help="progress to stderr")
        p.add_argument(
            "--trace-out",
            default=None,
            help="record telemetry for this invocation and write it here as "
            "Chrome trace-event JSON (default: $REPRO_TRACE)",
        )

    p = sub.add_parser("list", help="list the registered workloads")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("characterize", help="print/export the characteristic vectors")
    common(p)
    p.add_argument("--csv", help="write the feature matrix to this CSV file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("analyze", help="PCA + clustering + representatives")
    common(p)
    p.add_argument("--variance-target", type=float, default=0.9)
    p.add_argument("--linkage", default="average", choices=["single", "complete", "average", "ward"])
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("subspace", help="analyze one workload subspace")
    p.add_argument("name", help='e.g. "branch divergence" or "memory coalescing"')
    common(p, workloads=False)
    p.set_defaults(fn=_cmd_subspace)

    p = sub.add_parser("stress", help="functional-block stress rankings")
    p.add_argument("--block", help="one block only (default: all)")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    common(p, workloads=False)
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("disasm", help="disassemble a workload's kernels")
    p.add_argument("workload", help="workload abbrev (see `repro list`)")
    p.add_argument("--full", action="store_true", help="print full disassembly, not just stats")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("report", help="render the full analysis as Markdown")
    common(p, workloads=False)
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("evaluate", help="design-space evaluation with representatives")
    common(p, workloads=False)
    p.add_argument("--subset-k", type=int, default=8)
    p.add_argument(
        "--model",
        default="roofline",
        help="timing model (see `repro dse` — roofline or cycle)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("dse", help="design-space exploration (sweep/compare/fidelity)")
    dse_sub = p.add_subparsers(dest="dse_command", required=True)

    def dse_common(p: argparse.ArgumentParser, quick: bool = True) -> None:
        common(p)
        p.add_argument(
            "--design-space",
            default=None,
            metavar="PATH",
            help="repro.design-space/v1 spec file (default: built-in 16-point space)",
        )
        if quick:
            p.add_argument(
                "--quick",
                action="store_true",
                help=f"CI smoke basket ({', '.join(DSE_QUICK_BASKET)}) instead of all workloads",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p2 = dse_sub.add_parser(
        "sweep", help="sweep the design space: Pareto frontier + per-axis sensitivity"
    )
    dse_common(p2)
    p2.add_argument(
        "--model",
        default="roofline",
        help="timing model (roofline or cycle)",
    )
    p2.set_defaults(fn=_cmd_dse_sweep)

    p2 = dse_sub.add_parser(
        "compare", help="compare timing models: per-design speedups + rank agreement"
    )
    dse_common(p2)
    p2.add_argument(
        "--models",
        default="roofline,cycle",
        help="comma-separated timing models to compare (default: roofline,cycle)",
    )
    p2.set_defaults(fn=_cmd_dse_compare)

    p2 = dse_sub.add_parser(
        "fidelity", help="sweep subset size k: subset-vs-full-suite ranking fidelity"
    )
    dse_common(p2, quick=False)
    p2.add_argument(
        "--subset-k",
        default="2,4,6,8",
        help="comma-separated subset sizes to evaluate (default: 2,4,6,8)",
    )
    p2.add_argument(
        "--model",
        default="roofline",
        help="timing model (roofline or cycle)",
    )
    p2.add_argument("--seed", type=int, default=0, help="k-means seed (default: 0)")
    p2.set_defaults(fn=_cmd_dse_fidelity)

    p = sub.add_parser("verify", help="run the metamorphic invariant-verification suite")
    p.add_argument("--seed", type=int, default=0, help="run seed (default: 0)")
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI budget: fewer generated inputs, quick-basket ranking check",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the per-property input count (generated cases/trials)",
    )
    p.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="PROP",
        help="restrict to matching properties (exact name, name prefix, or "
        "layer: simt/trace/analysis/uarch); repeatable",
    )
    p.add_argument(
        "--self-test",
        action="store_true",
        help="plant one violation per property and require each to be detected",
    )
    p.add_argument("--list", action="store_true", help="list registered properties")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the JSON report here (CI artifact)",
    )
    p.add_argument("-v", "--verbose", action="store_true", help="progress to stderr")
    p.add_argument(
        "--trace-out",
        default=None,
        help="record telemetry for this invocation and write it here as "
        "Chrome trace-event JSON (default: $REPRO_TRACE)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("profile-cache", help="inspect the sharded profile cache")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--purge", action="store_true", help="delete stale/orphan shards")
    action.add_argument(
        "--clear", action="store_true", help="delete every profile and timing shard"
    )
    action.add_argument(
        "--stats",
        action="store_true",
        help="summary only: shard count, total bytes, per-pass section coverage",
    )
    p.set_defaults(fn=_cmd_profile_cache)

    p = sub.add_parser("telemetry", help="summarize a recorded telemetry trace")
    p.add_argument("trace", help="Chrome trace-event JSON file from --trace-out / REPRO_TRACE")
    p.add_argument("--top", type=int, default=15, help="rows in the top-spans table")
    p.set_defaults(fn=_cmd_telemetry)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None) or os.environ.get("REPRO_TRACE") or None
    if trace_out is None or args.command == "telemetry":
        return args.fn(args)
    # Record the whole invocation; write the trace even when the command
    # exits non-zero — a failed run is exactly the one worth inspecting.
    from repro.telemetry import get_telemetry, write_trace

    tele = get_telemetry()
    tele.enable(reset=True)
    try:
        return args.fn(args)
    finally:
        tele.disable()
        write_trace(tele, trace_out)
        print(f"wrote telemetry trace to {trace_out}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
