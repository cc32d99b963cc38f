"""Golden digests of a small end-to-end run.

synth -> ingest -> train -> evaluate -> gate --jsonl on a fixed 120-row
cohort, compared with digests recorded when the batch commands still
built one record object per patient, so a rewrite of the batch path has
to reproduce every byte. Only artifacts that do not depend on BLAS
summation order are compared: the model bytes follow the BLAS thread
count, so model.txt and the lines of train_report.txt after the feature
list stay out; of the gate output, the ids and doses are compared.
A second train on the same cohort runs 3-fold cross-validation over
three C values; its report lines from cv_folds through selected_c are
compared too, and read the same at one BLAS thread and at several.
"""

import hashlib
import json
from pathlib import Path

from dosegate.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN = {
    "synth/cohort.tsv": "2b39f3df2131970a437e3cd50af8e857bf923e5bc3b2fa271a71462f8b6d60c7",
    "synth/config.txt": "6511c577690105c12280a8eef48fff57c953c88310071ffe4967c7931bcbe9eb",
    "ingest/cohort.tsv": "2b39f3df2131970a437e3cd50af8e857bf923e5bc3b2fa271a71462f8b6d60c7",
    "ingest/exclusions.txt": "5cbcf7d8fa5be30ecb95fbb9bb52e1047d1bc0b5121686b9a01bf3ac4ae2184d",
    "ingest/removed_variables.txt":
        "c7099720ab7a279291f5a72f24a4a6962d6b766ceaadf6632a379fe42fb0a3d6",
    "ingest/config.txt": "502179657d45e09166bc07c19592cb7f3b84e4542568a2fa73f9428379a16019",
    "run/plan.txt": "0bebcdcceb0fc4503401124585cc374413ae0251fcf347d2a84a9152bdeae489",
    "run/test.tsv": "0b061ea20e14fce3f3912c67f42dfa52e584258a40d008c151080fd18f19b468",
    "train_report head": "f8e5ed62a083016c52cfe250c6413d0c732beb3842839530d1b97eb3474b67af",
    "gate id/dose": "04e9669be849224b04a6d46aa39506a010ae5a7c6d576684adc236ef73fd7718",
    "cv train_report cv lines":
        "46754e70c94a9762d0a5248a38be156451924fe2093a67de266239f3b8cfbb5a",
}
# `synth --n 4237 --seed 7`: the paper-scale cohort the benchmark builds on
PAPER_SYNTH_COHORT = "efa09c1cd2693f007a196a9afcd3fcf8a19417de4b0e5e0d60aab1d2eaaf95f1"
RMSE_ORIGINAL = 11.835422901985957
MAE_ORIGINAL = 9.298193793290823


def test_end_to_end_artifacts_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the echoed configs fixed
    assert main(["synth", "--n", "120", "--seed", "3", "--out-dir", "synth"]) == 0
    assert main(["ingest", "--input", "synth/cohort.tsv", "--out-dir", "ingest"]) == 0
    assert main(["train", "--input", "ingest/cohort.tsv", "--out-dir", "run",
                 "--seed", "3", "--c-grid", "0.1"]) == 0
    assert main(["evaluate", "--run-dir", "run"]) == 0
    capsys.readouterr()
    assert main(["gate", "--run-dir", "run", "--jsonl"]) == 0
    gate_lines = capsys.readouterr().out.splitlines()
    assert main(["train", "--input", "ingest/cohort.tsv", "--out-dir", "cv",
                 "--seed", "3", "--c-grid", "0.1,1,10", "--cv-k", "3"]) == 0

    digests = {name: _sha(Path(name).read_bytes())
               for name in GOLDEN if "/" in name and " " not in name}
    report = Path("run/train_report.txt").read_text().splitlines()
    digests["train_report head"] = _sha("\n".join(report[:5]).encode())
    cv_report = Path("cv/train_report.txt").read_text().splitlines()
    first = cv_report.index("cv_folds 3")
    last = next(i for i, line in enumerate(cv_report) if line.startswith("selected_c "))
    digests["cv train_report cv lines"] = _sha("\n".join(cv_report[first:last + 1]).encode())
    payloads = [json.loads(line) for line in gate_lines]
    digests["gate id/dose"] = _sha("\n".join(
        f"{p['id']} {p['predicted_dose_mg_week']!r}" for p in payloads).encode())
    assert digests == GOLDEN

    evaluation = json.loads(Path("run/evaluation.json").read_text())
    assert (evaluation["rmse_original"], evaluation["mae_original"]) == (
        RMSE_ORIGINAL, MAE_ORIGINAL)


def test_paper_scale_synth_matches_golden_digest(tmp_path):
    assert main(["synth", "--n", "4237", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    assert _sha((tmp_path / "cohort.tsv").read_bytes()) == PAPER_SYNTH_COHORT
