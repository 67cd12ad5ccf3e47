"""The benchmark calls into the program by name: its tracer swaps program
attributes, and its decoder check calls the decoder's ``Gf2Vector``
functions.  A rename or a broken call must fail here rather than break
``perfbench/run.py``."""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = _load("tracing")
    assert tracing.TRACED
    for _, owner, attr in tracing.TRACED:
        # the tracer reads the attribute from the owner's own namespace
        assert attr in vars(tracing._resolve(owner)), f"{owner}.{attr}"


def test_decoder_check_passes():
    workloads = _load("workloads")
    decodes = workloads.check_decoder(("fig4_shor", "toric(3,3)"), seed=1,
                                      patterns=3, exhaustive=True)
    # 3 patterns per code, and the weight-0 and weight-1 errors of each
    # side: 2 * (1 + 9) on fig4_shor and 2 * (1 + 18) on toric(3,3)
    assert decodes == 2 * 3 + 20 + 38


def test_traced_pass_sees_the_distance_search(capsys):
    from cellqec import cli

    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["code", "params", "toric(3,3)"]) == 0
    assert '"parameters":[18,2,3,3]' in capsys.readouterr().out
    spans = tracer.summary()
    assert spans["stabilizer.build_code"]["calls"] >= 1
    assert spans["stabilizer.min_weight_logical"]["calls"] >= 1
    # the originals are back once the tracer is removed
    assert cli.main.__module__ == "cellqec.cli"
    assert not hasattr(cli.main, "__wrapped__")


def test_traced_sweep_runs_monte_carlo_once(capsys):
    # one call per decode sweep, for all its --p points
    from cellqec import cli

    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["decode", "sweep", "fig4_shor", "--p",
                         "0.02,0.05,0.1", "--trials", "5", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4
    assert tracer.summary()["decoder.monte_carlo"]["calls"] == 1
