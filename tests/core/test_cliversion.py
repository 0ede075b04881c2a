"""All five CLI entry points report the same package version."""

import pytest

from repro.core.cliversion import repro_version

MAINS = [
    ("repro-figures", "repro.core.figures"),
    ("repro-report", "repro.core.report"),
    ("repro-scenario", "repro.core.scenario.cli"),
    ("repro-topology", "repro.core.topology.cli"),
    ("repro-serve", "repro.live.cli"),
]


def test_version_is_a_nonempty_string():
    version = repro_version()
    assert isinstance(version, str) and version
    assert version != "unknown"


@pytest.mark.parametrize("prog,module", MAINS, ids=[m[0] for m in MAINS])
def test_cli_reports_version(prog, module, capsys):
    import importlib

    main = importlib.import_module(module).main
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code in (0, None)
    out = capsys.readouterr().out.strip()
    assert out == f"{prog} {repro_version()}"
