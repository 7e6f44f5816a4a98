"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import bandres  # noqa: E402
from perfbench import run, tracing, workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    ops = workloads.generate(workload, 7, 30)
    assert ops == workloads.generate(workload, 7, 30)
    assert json.loads(json.dumps(ops)) == ops
    assert [op["id"] for op in ops] == list(range(len(ops)))
    if workload != "verify_all":   # verify_all draws only the order
        assert ops != workloads.generate(workload, 8, 30)


def test_bands_cold_draws():
    ops = workloads.generate("bands_cold", 3, 30)
    fixed = [op for op in ops if op.get("fixed")]
    assert fixed == [dict(workloads.MATHIEU_CEILING, id=fixed[0]["id"])]
    drawn = [op for op in ops if not op.get("fixed")]
    assert sorted(len(op["cos"]) for op in drawn) == [1, 1, 2, 3]
    assert sorted(op["e_max"] for op in drawn) == [45.0, 85.0, 125.0, 165.0]
    for op in drawn:
        for a, b in zip(op["cos"], op["sin"]):
            assert 0.0 <= math.hypot(a, b) <= 3.0


def test_bands_cold_mode_count_meets_every_stratum():
    top = set()
    for seed in range(40):
        drawn = [op for op in workloads.generate("bands_cold", seed, 30)
                 if not op.get("fixed")]
        top.add(len(max(drawn, key=lambda op: op["e_max"])["cos"]))
    assert top == {1, 2, 3}


def test_ladder_sweep_draws():
    ops = workloads.generate("ladder_sweep", 3, 30)
    kinds = [op["kind"] for op in ops]
    assert kinds.count("ladder") == kinds.count("portrait") == 5 * kinds.count("table") // 4
    for op in ops:
        if op["kind"] == "ladder":
            assert 0.06 <= op["epsilon"] <= 0.12
            assert 0.0 <= op["zeta"] < op["epsilon"]


def test_verify_all_op_is_one_pass_in_seeded_order():
    ops = workloads.generate("verify_all", 3, 40)
    assert [op["kind"] for op in ops] == ["verify"]
    assert sorted(ops[0]["configs"]) == sorted(workloads.CONFIGS)
    orders = {tuple(workloads.generate("verify_all", seed, 40)[0]["configs"])
              for seed in range(10)}
    assert len(orders) > 1


def test_verify_reports_match_to_their_last_printed_digit():
    same = workloads._same_report
    report = ("  count  PASS  solver 2 vs oracle 2\n"
              "  width-fit  PASS  slope -1.39031: deviation 6.2% (<= 15%)\n"
              "overall PASS\n")

    def edit(old, new):
        return 0, report.replace(old, new)

    assert same((0, report), edit("-1.39031", "-1.39030"))
    assert not same((0, report), edit("-1.39031", "-1.39028"))
    assert not same((0, report), edit("oracle 2", "oracle 3"))
    assert not same((0, report), edit("overall PASS", "overall FAIL"))
    assert not same((0, report), (1, report))


def test_self_time_subtracts_child_coverage_once():
    spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["c", 1.0, 3.0, 0, 0],
        ["c", 2.0, 5.0, 0, 0],      # overlaps the first child
        ["g", 2.5, 2.7, 2, 0],      # grandchild: not subtracted from p
        ["c", 8.0, 12.0, 0, 0],     # clipped to the parent's end
    ]
    self_s = tracing.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert self_s[2] == pytest.approx(3.0 - 0.2)
    assert self_s[1] == pytest.approx(2.0)


def test_entry_spans_skip_nested_same_layer():
    spans = [["actions.compute_action_data", 0.0, 4.0, -1, 0],
             ["actions.phase_integral", 0.5, 1.0, 0, 0],
             ["hill.fast", 0.6, 0.7, 1, 0],
             ["actions.well_phase", 5.0, 6.0, -1, 1]]
    in_actions = lambda name: name.startswith("actions.")  # noqa: E731
    assert tracing.entry_spans(spans, in_actions) == [0, 3]
    assert tracing.total_time(spans, in_actions) == pytest.approx(5.0)


def _hooked_attributes():
    out = {}
    for module, attr, _, _ in tracing.HOOKS:
        mod = sys.modules[module]
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(mod, cls)
            out[(module, attr)] = owner.__dict__[meth]
        for name, m in list(sys.modules.items()):
            if name.startswith("bandres") and m is not None and "." not in attr \
                    and attr in m.__dict__:
                out[(name, attr)] = m.__dict__[attr]
    return out


def test_hooks_record_and_restore(tmp_path):
    import bandres.cli  # noqa: F401
    before = _hooked_attributes()
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        assert bandres.discriminant is not before[("bandres", "discriminant")]
        bandres.discriminant(bandres.PeriodicPotential(0.0, (2.0,)), 3.0)
        bandres.load_configuration(str(ROOT / "configs" / "bound_well.json"))
    assert _hooked_attributes() == before
    assert tracer.counts["hill.propagations"] == 1
    assert tracer.counts["hill.energies"] == 1
    assert tracer.counts["hill.rhs_evals"] > 0
    # load_configuration calls RunConfiguration.load: nested, timed once
    assert [(s[0], s[3]) for s in tracer.spans] == [("config.load", -1), ("config.load", 0)]
    outer = tracer.spans[0]
    assert tracing.layer_metrics(tracer)["config.load.s"] == outer[2] - outer[1]

    with pytest.raises(RuntimeError):
        with tracing.Hooks(tracing.Tracer()):
            raise RuntimeError("inside")
    assert _hooked_attributes() == before


def test_closed_gap_warning_counted_and_passed_on():
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer), pytest.warns(UserWarning, match="closed within tolerance"):
        bandres.band_edges(bandres.PeriodicPotential.free(), 12.0)
    assert tracer.counts["hill.closed_gap_warnings"] == 1
    assert [s[0] for s in tracer.spans] == ["hill.band_edges"]


def test_layer_metrics_attribute_phase_calls_to_the_solver():
    tracer = tracing.Tracer()
    tracer.spans = [["solver.locate_resonances", 0.0, 1.0, -1, 0],
                    ["actions.well_phase", 0.1, 0.2, 0, 0],
                    ["actions.well_phase", 0.3, 0.4, 0, 0],
                    ["actions.well_phase_derivative", 0.5, 0.6, 0, 0],
                    ["actions.well_phase", 2.0, 2.1, -1, 1]]
    tracer.counts["solver.levels"] = 1
    m = tracing.layer_metrics(tracer)
    assert m["solver.phase_calls"] == 2
    assert m["solver.deriv_calls"] == 1
    assert m["solver.levels_per_phase_call"] == 0.5
    assert m["solver.self_s"] == pytest.approx(0.7)
    assert m["actions.calls"] == 4
    assert m["actions.s"] == pytest.approx(0.4)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(x) for x in range(11)]) == (9, 0.0, 11)
    assert run.tail(list(range(1, 101))) == (90, 90, 100)
    for n in range(11, 400):
        pct, value, count = run.tail(list(range(1, n + 1)))
        assert count == n and n - value >= 10
        next_rank = -(-(pct + 1) * n // 100)
        assert n - next_rank < 10


# Mathieu 2cos(2 pi x): Hill-matrix edges (M = 64), and band_edges(pot, 165)
# with its next band start appended; gap 4 (edges 8, 9) is 9.03e-7 wide and
# merged into one double edge.
MATHIEU_REF = [-0.0506038421, 8.8570989513, 10.8567782023, 39.4699745487,
               39.5205774878, 88.8326124694, 88.8329332170, 157.9170474086,
               157.9170483115, 246.7422208993]
MATHIEU_EDGES = [-0.0506038420, 8.8570989514, 10.8567782023, 39.4699745485,
                 39.5205774878, 88.8326124754, 88.8329332089, 157.9170478601,
                 157.9170478601]
GAP4_CLOSED = [True, True, True, False]


def _found(problems):
    return [(p[0], p[1], workloads.is_known(p)) for p in problems]


def test_merged_open_gap_is_the_known_defect():
    problems, dev = workloads.compare_edges(MATHIEU_EDGES, GAP4_CLOSED,
                                            MATHIEU_REF, 165.0)
    assert _found(problems) == [("open_flag", 4, True)]
    assert dev < workloads.EDGE_RTOL
    # a wider merged gap: its two edges fail too, by the same defect
    ref = MATHIEU_REF[:7] + [157.9, 157.9001, 246.7]
    edges = MATHIEU_EDGES[:7] + [157.90005] * 2
    problems, _ = workloads.compare_edges(edges, GAP4_CLOSED, ref, 165.0)
    assert _found(problems) == [("open_flag", 4, True), ("edge", 8, True),
                                ("edge", 9, True)]


def test_other_edge_failures_are_not_known():
    merged = MATHIEU_EDGES[:7] + [157.90005] * 2
    # merged outside the reference gap, or across a gap too wide to hide
    for gap in ([157.91, 157.911], [157.0, 159.0]):
        ref = MATHIEU_REF[:7] + gap + [246.7]
        problems, _ = workloads.compare_edges(merged, GAP4_CLOSED, ref, 165.0)
        assert problems and not any(workloads.is_known(p) for p in problems)
    # an open gap reported closed without a merge
    problems, _ = workloads.compare_edges(MATHIEU_REF[:9], GAP4_CLOSED,
                                          MATHIEU_REF, 165.0)
    assert _found(problems) == [("open_flag", 4, False)]
    # a moved edge; a missing band
    moved = MATHIEU_REF[:4] + [MATHIEU_REF[4] + 1e-6] + MATHIEU_REF[5:9]
    problems, _ = workloads.compare_edges(moved, [True] * 4, MATHIEU_REF, 165.0)
    assert _found(problems) == [("edge", 5, False)]
    problems, _ = workloads.compare_edges(MATHIEU_REF[:7], [True] * 3,
                                          MATHIEU_REF, 165.0)
    assert _found(problems) == [("edge_count", 0, False)]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bands_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
