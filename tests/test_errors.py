"""The package's exception types."""

import inspect
import pickle

import pytest

from dosegate import errors
from dosegate.errors import DegenerateGateError, DosegateError, UnimputableVariableError
from dosegate.metrics import ConfusionMatrix

# one instance of every DosegateError subclass, built as the package builds it
ERROR_TYPES = sorted((cls for cls in vars(errors).values()
                      if inspect.isclass(cls) and issubclass(cls, DosegateError)),
                     key=lambda cls: cls.__name__)


def _instance(cls):
    if cls is UnimputableVariableError:
        return cls("height_cm")
    if cls is DegenerateGateError:
        return cls("gate classified every test patient HighRisk", report={
            "rmse_original": 1.5, "mae_original": 1.25,
            "confusion": ConfusionMatrix(tp=2, fp=1, tn=0, fn=0)})
    return cls(f"{cls.__name__} message")


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # a fit that raises in a cross-validation worker comes back this way
    error = _instance(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)  # variable, report
    assert copy.args == error.args

