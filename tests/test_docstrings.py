"""The documentation gate: public names in the documented packages
must carry docstrings.

The gate is lint rule RL008 (``repro.lint.checkers.docstrings``); CI
runs it inside ``coserve-lint``.  This test runs the same rule
in-process under the tier-1 suite so the gate also bites locally,
before push.  The rule scopes itself to the surfaces ``docs/`` leans on
most (``GATED_PREFIXES``): the sweep subsystem, the surrogate, the
simulation session API and the analyzer itself.  The flagging of a
missing docstring is pinned in ``tests/test_lint.py``.
"""

import os
import textwrap

from repro.lint import FileContext, LintRunner, default_checkers
from repro.lint.checkers.docstrings import check_tree

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gated_packages_have_full_public_docstrings():
    report = LintRunner(default_checkers(["RL008"])).run([os.path.join(REPO_ROOT, "src")])
    problems = [f"{d.path}:{d.line}: {d.message}" for d in report.diagnostics]
    assert report.ok, (
        "public names without docstrings (see docs/README.md for the "
        "documentation contract):\n" + "\n".join(problems + report.errors)
    )


def test_checker_ignores_private_names():
    source = textwrap.dedent(
        '''
        """Module docstring present."""

        def _helper():
            pass

        class _Internal:
            def method(self):
                pass
        '''
    )
    assert list(check_tree(FileContext("src/repro/sweeps/private.py", source))) == []
