import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sisfit.discrete import DiscreteDataset, DiscretePartition, fit_discrete
from sisfit.errors import ValidationError
from sisfit.extra import fit_extra_invariant
from sisfit.lattice import make_dual_lattice
from sisfit.multitile import fit_multitile
from sisfit.sis import FittedModel, fit_sis
from sisfit.storage import save_model
from sisfit.verify import (MAX_REPORTED_VIOLATIONS, VerificationReport, Violation, _misnumbered,
                           verify_extra_invariance, verify_model)

from conftest import random_dataset
from oracles import misnumbered_by_sorting

README = Path(__file__).resolve().parents[1] / "README.md"


def test_violations_are_kept_per_check():
    report = VerificationReport(checks=["a", "b"])
    for g in range(MAX_REPORTED_VIOLATIONS + 6):
        report.add("a", "bad", cell=g)
    report.add("b", "worse", generator=3)
    assert report.n_violations == MAX_REPORTED_VIOLATIONS + 7
    assert len(report.violations_of("a")) == MAX_REPORTED_VIOLATIONS
    assert [str(v) for v in report.violations_of("b")] == ["[b] generator 3: worse"]
    assert report.failed == ["a", "b"] and not report.passed
    assert str(report).endswith("... and 6 more")


def test_violation_text_leaves_out_missing_location():
    assert str(Violation("c", "x", cell=2, generator=0)) == "[c] cell 2, generator 0: x"
    assert str(Violation("c", "x", cell=2)) == "[c] cell 2: x"
    assert str(Violation("c", "x")) == "[c] x"


@given(st.data())
def test_misnumbered_equals_the_sorted_pairs_rule(data):
    n_blocks = data.draw(st.integers(1, 3))
    slots = data.draw(st.integers(0, 5))
    block, rank = np.full((2, data.draw(st.integers(1, 4)), slots), -1, dtype=np.int64)
    for row in range(block.shape[0]):
        # a correct numbering: each block's slots ranked by a random permutation
        block[row] = data.draw(st.lists(st.integers(-1, n_blocks - 1), min_size=slots, max_size=slots))
        for b in range(n_blocks):
            at = np.flatnonzero(block[row] == b)
            rank[row, at] = data.draw(st.permutations(range(at.size)))
        # then, for some rows, one entry anywhere in -2..n_blocks or -2..slots
        if slots and data.draw(st.booleans()):
            table, top = data.draw(st.sampled_from([(block, n_blocks), (rank, slots)]))
            table[row, data.draw(st.integers(0, slots - 1))] = data.draw(st.integers(-2, top))
    want = [misnumbered_by_sorting(b, r, n_blocks) for b, r in zip(block, rank)]
    assert _misnumbered(block, rank, n_blocks).tolist() == want


def _readme_checks() -> dict:
    """The check list of each regime in the README's "Verification"
    section: a ``- `regime`:`` bullet with one ``  - `check`:`` bullet per
    check, after the list of the regime it names as "the `x` checks"."""
    section = README.read_text(encoding="utf-8").split("\n## Verification\n", 1)[1].split("\n## ", 1)[0]
    checks, regime = {}, None
    for line in section.splitlines():
        top, sub = re.match(r"- `(\w+)`:(.*)", line), re.match(r"  - `([\w-]+)`:", line)
        if top:
            regime = top.group(1)
            inherit = re.search(r"the `(\w+)` checks", top.group(2))
            checks[regime] = list(checks[inherit.group(1)]) if inherit else []
        elif sub and regime:
            checks[regime].append(sub.group(1))
        elif not line.startswith(" "):
            regime = None
    return checks


def test_readme_lists_the_checks_each_regime_runs(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=2)
    seqs = DiscreteDataset(dim=1, support=np.arange(6)[:, None],
                           values=rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
    part = DiscretePartition.from_lattice(make_dual_lattice([[2]]))
    ran = {
        "sis": verify_model(fit_sis(ds, 2), ds).checks,
        "extra": verify_model(fit_extra_invariant(ds, make_dual_lattice([[2]]), 2), ds).checks,
        "pw": verify_model(fit_multitile(ds, 2, 1), ds).checks,
        "discrete": verify_model(fit_discrete(seqs, part, 2), seqs, part).checks,
    }
    assert _readme_checks() == ran


def test_non_finite_generator_fails_checks_and_never_raises(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=2)
    lat = make_dual_lattice([[2]])
    fit = fit_extra_invariant(ds, lat, 2)
    # the same generators without their home-coset table: a plain model,
    # whose coset checks go through the stacked SVD
    plain = FittedModel(grid=fit.grid, rank=2, eigenvalues=fit.eigenvalues, spectra=fit.spectra.copy(),
                        residuals=fit.residuals, error=fit.error)
    assert verify_model(plain, ds).passed and verify_extra_invariance(plain, lat).passed
    plain.spectra[0, 1, np.flatnonzero(plain.spectra[0, 1])[0]] = np.nan
    report = verify_model(plain, ds)
    assert report.failed == ["parseval", "residual-identity", "cell-residuals", "eigencurves"]
    assert {v.cell for v in report.violations} == {1, None}
    report = verify_extra_invariance(plain, lat)
    assert report.failed == ["coset-span"]
    assert [(v.cell, v.generator) for v in report.violations] == [(1, 0)]


def test_non_finite_sample_in_a_home_coset_fails_coset_support(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=2)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 2)
    assert verify_extra_invariance(model, lat).passed
    # a nonzero sample of generator 0 at cell 1 lies in its home coset
    k = np.flatnonzero(model.spectra[0, 1])[0]
    model.spectra[0, 1, k] = np.nan
    report = verify_extra_invariance(model, lat)
    assert report.failed == ["coset-support"]
    assert [(v.cell, v.generator) for v in report.violations] == [(1, 0)]
    assert report.violations[0].detail == f"non-finite sample (nan+0j) at translation ({k - 2},)"


def test_infinite_generator_sample_fails_without_a_warning(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=2)
    lat = make_dual_lattice([[2]])
    for fit in (fit_sis(ds, 2), fit_extra_invariant(ds, lat, 2)):
        plain = FittedModel(grid=fit.grid, rank=2, eigenvalues=fit.eigenvalues, spectra=fit.spectra.copy(),
                            residuals=fit.residuals, error=fit.error)
        plain.spectra[0, 1, np.flatnonzero(plain.spectra[0, 1])[0]] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_model(plain, ds)
            coset_report = verify_extra_invariance(plain, lat)
        assert report.failed == ["parseval", "residual-identity", "cell-residuals", "eigencurves"]
        assert {v.cell for v in report.violations} == {1, None}
        assert 1 in {v.cell for v in coset_report.violations}


def test_each_kept_eigenvalue_is_checked_and_each_cell_descends(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=2)
    fit = fit_sis(ds, 2)

    def with_records(eigenvalues, spectra):
        return FittedModel(grid=fit.grid, rank=spectra.shape[0], eigenvalues=eigenvalues, spectra=spectra,
                           residuals=fit.residuals, error=fit.error)

    # the two records swapped together: each value is still its generator's
    # energy, and only the order fails
    report = verify_model(with_records(fit.eigenvalues[:, ::-1].copy(), fit.spectra[::-1].copy()), ds)
    assert report.failed == ["eigencurves"]
    assert [(v.cell, v.generator) for v in report.violations] == [(g, 1) for g in range(4)]
    assert re.fullmatch(r"eigenvalue \S+ exceeds the one before, \S+", report.violations[0].detail)
    with pytest.raises(ValidationError, match=r"^eigenvalue table shape \(4, 1\) does not match the generator array$"):
        verify_model(with_records(fit.eigenvalues[:, :1].copy(), fit.spectra), ds)


def test_coset_span_memory_does_not_grow_with_the_lattice_index(rng):
    # 4 cells of the translations -1, 0, 1, which lie in 3 of the 2^16
    # cosets: 65535, 0 and 1
    model = fit_sis(random_dataset(rng, cells=4, trunc=1, m=1), 1)
    lat = make_dual_lattice([[2**16]])
    verify_extra_invariance(model, lat)
    tracemalloc.start()
    try:
        report = verify_extra_invariance(model, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # every violation names the real coset label, cosets in ascending order
    assert [v.detail for v in report.violations_of("coset-support")] == ["support touches cosets [0, 1, 65535]"] * 4
    span = [v.detail.split(" cut")[0] for v in report.violations_of("coset-span") if v.cell == 0]
    assert span == ["coset 0", "coset 1", "coset 65535"]


def _discrete_fit():
    ds = DiscreteDataset.from_sequences(1, [{(0,): 1.0}, {(1,): 2.0}])
    return fit_discrete(ds, DiscretePartition.from_mapping(1, {0: "a", 1: "b"}), 1), ds


@pytest.mark.parametrize("call,message", [
    (lambda d: verify_model(*_discrete_fit()), "verifying a discrete model needs its partition"),
    (lambda d: save_model(object(), d), "cannot serialize object of type object"),
], ids=["verify-discrete-without-partition", "save-unknown-model"])
def test_library_calls_without_what_they_need_are_refused(tmp_path, call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


@pytest.mark.parametrize("regime", ["sis", "pw", "discrete"])
def test_verify_model_refuses_data_whose_energy_overflows(rng, regime):
    # the check forms the squares once, and refuses them before any use
    # (a sample of 1e160 squares beyond float64)
    if regime == "discrete":
        ds = DiscreteDataset.from_sequences(1, [{(0,): 1.0, (1,): 0.5}])
        part = DiscretePartition.from_lattice(make_dual_lattice([[2]]))
        model, huge = fit_discrete(ds, part, 1), DiscreteDataset.from_sequences(1, [{(0,): 1e160, (1,): 0.5}])
    else:
        ds, part = random_dataset(rng, cells=4, trunc=1, m=2), None
        model = fit_sis(ds, 1) if regime == "sis" else fit_multitile(ds, 1, 1)
        samples = ds.samples.copy()
        samples[0, 0, 0] = 1e160
        huge = type(ds)(grid=ds.grid, samples=samples)
    assert verify_model(model, ds, part).passed
    with pytest.raises(ValidationError, match="^the energy of the samples overflows float64$"):
        verify_model(model, huge, part)
