import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from crossrec import train  # noqa: E402


@pytest.fixture
def iteration_reports(monkeypatch):
    """The report of each training iteration that ``crossrec.train`` runs from
    now on, by step: "joint", "rescaled" and "uniform" (rescale off)."""
    reports = {"joint": [], "rescaled": [], "uniform": []}

    def capture(name, kind):
        step = getattr(train, name)

        def wrapped(*args, **kwargs):
            new, report = step(*args, **kwargs)
            reports[kind(kwargs)].append(report)
            return new, report

        monkeypatch.setattr(train, name, wrapped)

    capture("joint_train_iteration", lambda kwargs: "joint")
    capture("train_iteration",
            lambda kwargs: "rescaled" if kwargs.get("rescale", True) else "uniform")
    return reports
