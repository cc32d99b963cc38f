"""The interior point's finish at its optimal face: once an iterate is
within the KKT tolerance, train snaps it, settles its free multipliers
on their kernel values and keeps it if the KKT conditions hold on exact
kernel values, the one verdict; otherwise the iterations resume."""

import numpy as np
import pytest

from dosegate import crossval, svm
from dosegate.cli import main
from dosegate.kernels import KernelSpec
from dosegate.svm import IPM_TOLERANCE, train

POLYNOMIAL = KernelSpec(variant="polynomial", degree=2, offset=1.0)


def test_a_fold_at_c_100_converges(tmp_path, capsys):
    # its fit ran on past the optimal face to exact KKT 6.3e-3, which
    # dropped C=100 from the selection
    assert main(["synth", "--n", "1000", "--seed", "1000", "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["train", "--input", str(tmp_path / "s" / "cohort.tsv"), "--out-dir",
                 str(tmp_path / "run"), "--seed", "5", "--cv-k", "3"]) == 0
    capsys.readouterr()
    report = (tmp_path / "run" / "train_report.txt").read_text().splitlines()
    assert "c 100 mean_accuracy 0.604081 std 0.036112 converged_folds 3/3" in report


@pytest.fixture(scope="module")
def fold_fits(tmp_path_factory):
    """The (x, labels, config, factor) of the 3 folds x 4 C that `train
    --seed 1 --cv-k 3` fits on `synth --n 1000 --seed 1000`, the bench's
    cv_train cohort at seed 1."""
    fits = []

    def recording(x, labels, kernel, config, factor):
        fits.append((x, labels, config, factor))
        return train(x, labels, kernel, config, factor)

    work = tmp_path_factory.mktemp("cv_train")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crossval, "train", recording)
        patch.setattr(crossval, "_available_cpus", lambda: 1)
        assert main(["synth", "--n", "1000", "--seed", "1000", "--out-dir", str(work / "s")]) == 0
        assert main(["train", "--input", str(work / "s" / "cohort.tsv"), "--out-dir",
                     str(work / "run"), "--seed", "1", "--cv-k", "3"]) == 0
    assert len(fits) == 12
    return fits


def test_the_finish_keeps_the_interior_points_answer(monkeypatch, fold_fits):
    finished = [train(x, labels, POLYNOMIAL, config, factor)
                for x, labels, config, factor in fold_fits]
    # train sees only the last candidate, so the interior point runs to
    # its own tolerance
    real = svm._interior_point
    monkeypatch.setattr(svm, "_interior_point", lambda *args: [list(real(*args))[-1]])
    for model, (x, labels, config, factor) in zip(finished, fold_fits):
        full = train(x, labels, POLYNOMIAL, config, factor)
        assert np.array_equal(model.support_vectors, full.support_vectors)
        assert np.array_equal(model.sv_labels, full.sv_labels)
        assert model.dual_objective == pytest.approx(full.dual_objective, rel=1e-12)
        assert model.max_kkt_violation <= IPM_TOLERANCE
        assert full.max_kkt_violation <= IPM_TOLERANCE
        assert model.converged and full.converged


def test_a_finish_that_misses_on_exact_values_resumes(monkeypatch, fold_fits):
    x, labels, config, (factor, _) = fold_fits[3]  # the first fold at C=1
    # a factor short of half its columns solves another problem, whose
    # candidates miss on the kernel
    truncated = factor[:, :factor.shape[1] // 2]
    events = []

    def spy(name, real):
        def recorded(*args):
            events.append(name)
            return real(*args)
        return recorded

    monkeypatch.setattr(svm, "kernel_matrix", spy("exact", svm.kernel_matrix))
    monkeypatch.setattr(svm, "_newton_step", spy("step", svm._newton_step))
    model = train(x, labels, POLYNOMIAL, config, factor=(truncated, False))
    # the first exact finish ran, missed, and the iterations went on
    assert "step" in events[events.index("exact") + 1:]
    assert model.max_kkt_violation > IPM_TOLERANCE
