import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecokit import kernel, series
from ecokit.catalog import get_entry
from ecokit.classify import factorial_form
from ecokit.engine import iter_levels, total_series
from ecokit.kernel import (
    KernelError,
    WalkForm,
    build_kernel,
    closed_form_check,
    closed_form_series,
    gf_report,
    kernel_gfs,
)
from ecokit.dsl import parse_spec
from ecokit.qpoly import QPoly
from ecokit.series import TruncSeries, UPoly, hensel_small_factor, newton_series_root

KERNEL_SYSTEMS = (
    "catalan",
    "motzkin",
    "schroeder",
    "fan",
    "ternary",
    "quaternary",
    "quinary",
    "walk_notch1",
)


def form_of(name):
    return factorial_form(get_entry(name).spec())


class TestBuildKernel:
    def test_catalan_shape(self):
        kp = build_kernel(form_of("catalan"), 10)
        assert (kp.a, kp.b) == (1, 0)
        assert kp.p_a == 1
        assert kp.K.degree_u == kp.a + kp.b + 1
        assert kp.K.z_slice(0) == QPoly([1, -1])  # u^b (1 - u)

    def test_notched_walk_has_boundary_width(self):
        kp = build_kernel(form_of("walk_notch1"), 10)
        assert (kp.a, kp.b) == (1, 1)
        assert kp.K.z_slice(0) == QPoly([0, 1, -1])

    def test_quinary_top_jump(self):
        kp = build_kernel(form_of("quinary"), 10)
        assert (kp.a, kp.b) == (4, 0)
        assert kp.jumps == (0, 1, 2, 3, 4)

    def test_low_exclusions_unsupported(self):
        with pytest.raises(KernelError):
            build_kernel(form_of("walk_skip_low1"), 10)

    def test_raised_start_unsupported(self):
        spec = parse_spec(
            "system t { mode walk; axiom 2;"
            " rule always: interval(0, k-1), (k+1) x 1; }"
        )
        with pytest.raises(KernelError):
            build_kernel(factorial_form(spec), 10)

    def test_no_forward_jump_is_degenerate(self):
        spec = parse_spec(
            "system t { mode walk; axiom 0;"
            " rule always: interval(0, k-1), (k) x 1; }"
        )
        with pytest.raises(KernelError):
            build_kernel(factorial_form(spec), 10)


class TestKernelGFs:
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_f1_matches_engine(self, name):
        spec = get_entry(name).spec()
        gf = kernel_gfs(build_kernel(form_of(name), 21), 21)
        assert gf.F1.as_ints() == total_series(spec, 20)

    @pytest.mark.parametrize("name", ["catalan", "motzkin", "walk_notch1"])
    def test_columns_match_engine_table(self, name):
        spec = get_entry(name).spec()
        form = form_of(name)
        gf = kernel_gfs(build_kernel(form, 13), 13, window=13)
        levels = list(iter_levels(spec, 12))
        for k, col in enumerate(gf.Fu):
            ints = col.as_ints()
            for n in range(min(12, len(ints) - 1) + 1):
                assert ints[n] == levels[n].get(form.base + k, 0)

    def test_excursions_are_base_column(self):
        spec = get_entry("motzkin").spec()
        gf = kernel_gfs(build_kernel(form_of("motzkin"), 16), 16)
        levels = list(iter_levels(spec, 15))
        assert gf.F0.as_ints()[:16] == [levels[n].get(1, 0) for n in range(16)]

    def test_excursion_variant_depends_on_boundary(self):
        flat = kernel_gfs(build_kernel(form_of("catalan"), 12), 12)
        notched = kernel_gfs(build_kernel(form_of("walk_notch1"), 12), 12)
        assert flat.excursion_variant == "-S(z,0)/(1+(1-p0)z)"
        assert notched.excursion_variant == "-S(z,0)/z"


def newton_small_factor(K, order):
    """u - U(z) for the root U(0) = 1 of K: the small factor when b = 0."""
    return UPoly([-newton_series_root(K, 1, order), TruncSeries.one(order)])


class TestSmallFactorLift:
    """At b = 0 the Hensel lift kernel_gfs runs must give the factor u - U
    that Newton iteration on the unit branch gives, an independent route."""

    @pytest.mark.parametrize("order", [2, 31, 120])
    @pytest.mark.parametrize("name", [n for n in KERNEL_SYSTEMS if n != "walk_notch1"])
    def test_lift_is_newton_on_catalog_kernels(self, name, order):
        kp = build_kernel(form_of(name), order)
        assert kp.b == 0
        small, _ = hensel_small_factor(kp.K, 0, order)
        assert small.coeffs == newton_small_factor(kp.K, order).coeffs

    @settings(max_examples=60, deadline=None)
    @given(
        jumps=st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(lambda j: max(j) >= 1),
        order=st.integers(2, 30),
    )
    def test_lift_is_newton_on_generated_walks(self, jumps, order):
        form = WalkForm(
            base=0,
            jumps=tuple(sorted(jumps)),
            removed_offsets=frozenset(),
            removed_low=frozenset(),
            start_height=0,
        )
        kp = build_kernel(form, order)
        small, _ = hensel_small_factor(kp.K, 0, order)
        assert small.coeffs == newton_small_factor(kp.K, order).coeffs

    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    def test_kernel_gfs_runs_without_newton(self, name, monkeypatch):
        def no_newton(*args):
            raise AssertionError("kernel_gfs called Newton")

        monkeypatch.setattr(series, "newton_series_root", no_newton)
        monkeypatch.setattr(kernel, "newton_series_root", no_newton, raising=False)
        gf = kernel_gfs(build_kernel(form_of(name), 21), 21)
        assert gf.F1.as_ints() == total_series(get_entry(name).spec(), 20)


class TestClosedForms:
    def test_sqrt_series_prefixes(self):
        assert closed_form_series(get_entry("catalan").form, 6).as_ints() == [1, 2, 5, 14, 42, 132]
        assert closed_form_series(get_entry("motzkin").form, 6).as_ints() == [1, 1, 2, 4, 9, 21]
        assert closed_form_series(get_entry("schroeder").form, 5).as_ints() == [1, 3, 11, 45, 197]
        assert closed_form_series(get_entry("fan").form, 5).as_ints() == [1, 4, 19, 100, 562]

    def test_unregistered_name_raises(self):
        with pytest.raises(KernelError):
            closed_form_series(get_entry("bell").form, 5)

    def test_check_passes_on_engine_series(self):
        f1 = TruncSeries(total_series(get_entry("ternary").spec(), 20))
        verdict = closed_form_check(get_entry("ternary").form, f1)
        assert verdict["match"] and verdict["form"] == "F = (1+zF)^3"

    def test_check_reports_first_mismatch(self):
        wrong = list(total_series(get_entry("catalan").spec(), 20))
        wrong[7] += 1
        verdict = closed_form_check(get_entry("catalan").form, TruncSeries(wrong))
        assert not verdict["match"]
        assert verdict["first_mismatch"] == 7


class TestReport:
    def test_report_is_json_ready(self):
        report = gf_report(
            "catalan", form_of("catalan"), order=12, window=4, closed=get_entry("catalan").form
        )
        blob = json.loads(json.dumps(report))
        assert blob["F1"][:5] == [1, 2, 5, 14, 42]
        assert blob["closed_form"]["match"] is True
        assert blob["kernel"]["a"] == 1
