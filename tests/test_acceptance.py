"""Acceptance criteria: one test per check of the battery in :mod:`tdk.selftest`.

The checks live in ``tdk.selftest.CHECKS``, which ``tdk selftest`` runs as
well; this module holds no check logic.  Criterion NN is the NN-th check,
and its test is named after it.  Run with ``pytest -s`` to see each check's
detail line.
"""

from tdk.selftest import CHECKS


def _criterion(number, name, check):
    def test():
        detail = check()  # a wrong answer raises CheckFailure
        print(f"[PASS] criterion {number} ({name}): {detail}")

    test.__name__ = f"test_criterion_{number:02d}_{name.replace('-', '_')}"
    return test


for _number, (_name, _check) in enumerate(CHECKS, 1):
    _test = _criterion(_number, _name, _check)
    globals()[_test.__name__] = _test
