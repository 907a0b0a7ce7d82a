"""Where the traced run wraps the program, and the per-layer metrics it reads.

Call sites are listed by the module attribute the caller looks the function
up through.  Functions with no metric of their own are still wrapped when
they are called from `cli`, so that `cli.self_ms` is only argparse,
printing and writing model JSON.
"""

from __future__ import annotations

import json

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("formula.parse.calls", "count", "lower"),
    ("formula.parse.self_ms", "ms", "lower"),
    ("saturation.family.calls", "count", "lower"),
    ("saturation.family.self_ms", "ms", "lower"),
    ("saturation.family.yield", "count", "lower"),
    ("saturation.family.repeat_ratio", "ratio", "lower"),
    ("saturation.is_saturation_of.calls", "count", "lower"),
    ("saturation.is_saturation_of.self_ms", "ms", "lower"),
    ("saturation.is_saturation_of.accept_ratio", "ratio", "higher"),
    ("windows.initial.calls", "count", "lower"),
    ("windows.initial.self_ms", "ms", "lower"),
    ("windows.initial.yield", "count", "lower"),
    ("windows.continuations.calls", "count", "lower"),
    ("windows.continuations.self_ms", "ms", "lower"),
    ("windows.continuations.yield", "count", "lower"),
    ("kdeab.ops", "count", "higher"),
    ("kdeab.sat_set.calls", "count", "lower"),
    ("kdeab.sat_set.self_ms", "ms", "lower"),
    ("kdeab.stats.saturations", "count", "lower"),
    ("kdeab.stats.windows", "count", "lower"),
    ("kdeab.stats.max_depth", "count", "lower"),
    ("kdeab.extract_model.self_ms", "ms", "lower"),
    ("kdeab.witness_worlds", "count", "lower"),
    ("kdeab.witness_check_ms", "ms", "lower"),
    ("kde.ops", "count", "higher"),
    ("kde.fixpoint.calls", "count", "lower"),
    ("kde.initial_frame.self_ms", "ms", "lower"),
    ("kde.initial_frame.edges", "count", "lower"),
    ("kde.refine_frame.calls", "count", "lower"),
    ("kde.refine_frame.self_ms", "ms", "lower"),
    ("kde.edge_survival_ratio", "ratio", "higher"),
    ("kde.profiles.final", "count", "lower"),
    ("kde.frame_model.self_ms", "ms", "lower"),
    ("kde.witness_check_ms", "ms", "lower"),
    ("oracle.bounded_search.calls", "count", "lower"),
    ("oracle.bounded_search.self_ms", "ms", "lower"),
    ("oracle.bounded_search.found_ratio", "ratio", "higher"),
    ("oracle.model_check.calls", "count", "lower"),
    ("oracle.model_check.self_ms", "ms", "lower"),
    ("oracle.k_valid.calls", "count", "lower"),
    ("oracle.k_valid.self_ms", "ms", "lower"),
    ("translate.relativize.calls", "count", "lower"),
    ("translate.relativize.self_ms", "ms", "lower"),
    ("translate.size_ratio", "ratio", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _family(tracer, args, result) -> None:
    tracer.counts["saturation.family.yield"] += len(result)
    seed = args[0]
    if seed in tracer.seen_seeds:
        tracer.counts["saturation.family.repeats"] += 1
    else:
        tracer.seen_seeds.add(seed)


def _accept(tracer, args, result) -> None:
    tracer.counts["saturation.is_saturation_of.accepted"] += bool(result)


def _found(tracer, args, result) -> None:
    tracer.counts["oracle.bounded_search.found"] += result is not None


def _initial(tracer, args, result) -> None:
    tracer.counts["kde.initial_frame.edges"] += len(result.rel)


def _fixpoint(tracer, args, result) -> None:
    frame, _ = result
    tracer.counts["kde.fixpoint.edges"] += len(frame.rel)
    tracer.counts["kde.profiles.final"] += len(frame.profiles)


def install(tracer, prog, checker) -> None:
    """Wrap every call site the CLI path and the checks go through."""
    cli, kde, kdeab, windows = prog.cli, prog.kde, prog.kdeab, prog.windows
    size = prog.formula.size

    def _relativized(tracer, args, result) -> None:
        tracer.counts["translate.size_in"] += size(args[1])
        tracer.counts["translate.size_out"] += size(result)

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(cli, "parse", "formula.parse")
    wrap(cli, "render", "formula.render")
    wrap(cli, "build_index", "kde.build_index")
    wrap(cli, "fixpoint", "kde.fixpoint", _fixpoint)
    wrap(cli, "kde_sat", "kde.kde_sat")
    wrap(cli, "counter_model", "kde.counter_model")
    wrap(cli, "model_check", "oracle.model_check", total="kde.witness_check_ms")
    wrap(cli, "is_dense", "oracle.is_dense", total="kde.witness_check_ms")
    wrap(cli, "sat_set", "kdeab.sat_set")
    wrap(cli, "bounded_search", "oracle.bounded_search", _found)
    wrap(cli, "relativize", "translate.relativize", _relativized)
    wrap(cli, "fresh_atom", "translate.fresh_atom")
    wrap(kde, "build_index", "kde.build_index")
    wrap(kde, "fixpoint", "kde.fixpoint", _fixpoint)
    wrap(kde, "initial_frame", "kde.initial_frame", _initial)
    wrap(kde, "refine_frame", "kde.refine_frame")
    wrap(kde, "frame_model", "kde.frame_model")
    wrap(kdeab, "saturation_family", "saturation.family", _family)
    wrap(kdeab, "extract_model", "kdeab.extract_model")
    wrap(kdeab, "model_check", "oracle.model_check", total="kdeab.witness_check_ms")
    wrap(kdeab, "is_weakly_dense", "oracle.is_weakly_dense", total="kdeab.witness_check_ms")
    wrap(windows, "saturation_family", "saturation.family", _family)
    wrap(windows, "is_saturation_of", "saturation.is_saturation_of", _accept)
    tracer.wrap_generator(windows, "initial_windows", "windows.initial")
    tracer.wrap_generator(windows, "continuations", "windows.continuations")
    wrap(checker, "model_check", "oracle.model_check")
    wrap(checker, "is_dense", "oracle.is_dense")
    wrap(checker, "is_weakly_dense", "oracle.is_weakly_dense")
    wrap(checker, "bounded_search", "oracle.bounded_search", _found)
    wrap(checker, "k_valid", "oracle.k_valid")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, outcomes, overhead_ratio: float) -> dict:
    """Every per-layer metric, from the spans and the traced pass's outputs."""
    c = tracer.counts
    own = tracer.self_ms()
    stats = {"saturations": 0, "windows": 0, "max_depth": 0}
    ops = {"kde": 0, "kdeab": 0}
    worlds = 0
    for outcome in outcomes:
        for call in outcome.calls:
            if call.argv[0] != "solve":
                continue
            logic = call.argv[call.argv.index("--logic") + 1]
            ops[logic] += 1
            if logic != "kdeab":
                continue
            lines = call.out.splitlines()
            if "--stats" in call.argv and len(lines) > 1:
                reported = json.loads(lines[1])
                for key in stats:
                    stats[key] += reported.get(key, 0)
            if call.model is not None:
                worlds += len(json.loads(call.model)["worlds"])
    values = {
        "formula.parse.calls": c["formula.parse.calls"],
        "formula.parse.self_ms": own.get("formula.parse", 0.0),
        "saturation.family.calls": c["saturation.family.calls"],
        "saturation.family.self_ms": own.get("saturation.family", 0.0),
        "saturation.family.yield": c["saturation.family.yield"],
        "saturation.family.repeat_ratio": _ratio(c["saturation.family.repeats"], c["saturation.family.calls"]),
        "saturation.is_saturation_of.calls": c["saturation.is_saturation_of.calls"],
        "saturation.is_saturation_of.self_ms": own.get("saturation.is_saturation_of", 0.0),
        "saturation.is_saturation_of.accept_ratio": _ratio(
            c["saturation.is_saturation_of.accepted"], c["saturation.is_saturation_of.calls"]
        ),
        "windows.initial.calls": c["windows.initial.calls"],
        "windows.initial.self_ms": own.get("windows.initial", 0.0),
        "windows.initial.yield": c["windows.initial.yield"],
        "windows.continuations.calls": c["windows.continuations.calls"],
        "windows.continuations.self_ms": own.get("windows.continuations", 0.0),
        "windows.continuations.yield": c["windows.continuations.yield"],
        "kdeab.ops": ops["kdeab"],
        "kdeab.sat_set.calls": c["kdeab.sat_set.calls"],
        "kdeab.sat_set.self_ms": own.get("kdeab.sat_set", 0.0),
        "kdeab.stats.saturations": stats["saturations"],
        "kdeab.stats.windows": stats["windows"],
        "kdeab.stats.max_depth": stats["max_depth"],
        "kdeab.extract_model.self_ms": own.get("kdeab.extract_model", 0.0),
        "kdeab.witness_worlds": worlds,
        "kdeab.witness_check_ms": tracer.totals["kdeab.witness_check_ms"],
        "kde.ops": ops["kde"],
        "kde.fixpoint.calls": c["kde.fixpoint.calls"],
        "kde.initial_frame.self_ms": own.get("kde.initial_frame", 0.0),
        "kde.initial_frame.edges": c["kde.initial_frame.edges"],
        "kde.refine_frame.calls": c["kde.refine_frame.calls"],
        "kde.refine_frame.self_ms": own.get("kde.refine_frame", 0.0),
        "kde.edge_survival_ratio": _ratio(c["kde.fixpoint.edges"], c["kde.initial_frame.edges"]),
        "kde.profiles.final": c["kde.profiles.final"],
        "kde.frame_model.self_ms": own.get("kde.frame_model", 0.0),
        "kde.witness_check_ms": tracer.totals["kde.witness_check_ms"],
        "oracle.bounded_search.calls": c["oracle.bounded_search.calls"],
        "oracle.bounded_search.self_ms": own.get("oracle.bounded_search", 0.0),
        "oracle.bounded_search.found_ratio": _ratio(
            c["oracle.bounded_search.found"], c["oracle.bounded_search.calls"]
        ),
        "oracle.model_check.calls": c["oracle.model_check.calls"],
        "oracle.model_check.self_ms": own.get("oracle.model_check", 0.0),
        "oracle.k_valid.calls": c["oracle.k_valid.calls"],
        "oracle.k_valid.self_ms": own.get("oracle.k_valid", 0.0),
        "translate.relativize.calls": c["translate.relativize.calls"],
        "translate.relativize.self_ms": own.get("translate.relativize", 0.0),
        "translate.size_ratio": _ratio(c["translate.size_out"], c["translate.size_in"]),
        "cli.self_ms": own.get("cli.main", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
