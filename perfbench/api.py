"""The one place where the benchmark reaches into fstack.

fstack is imported from ``src/`` of the checkout this file sits in, never
from an installed copy, so the benchmark always measures the tree it
ships with.  Every fstack name the benchmark uses is listed below, and
only names without a leading underscore appear: a later change may move
the ``build_*`` helpers out of ``fstack.cli`` or delete ``fftcore``
internals without editing the benchmark.  A name that has left its
module is looked up in every other fstack module before it counts as
missing.
"""

import functools
import importlib
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> module where it lives today
NAMES = {
    "load_config": "config",
    "StackingInputs": "stacking",
    "plan_stacking": "stacking",
    "FirPrototype": "filter_design",
    "estimate_fir_length": "filter_design",
    "fir_candidate_cost": "complexity",
    "iir_candidate_cost": "complexity",
    "generate_subband_signal": "frontend",
    "ChanneliserConfig": "channelizer",
    "end_to_end": "channelizer",
    "awgn_sweep": "channelizer",
    "fine_analyze": "channelizer",
    "fine_synthesize": "channelizer",
    "aligned_mse": "channelizer",
    "matched_cascade_delay": "polyphase",
    "build_channel_plan": "cli",
    "build_coarse_prototype": "cli",
    "build_fine_prototype": "cli",
    "build_stimulus": "cli",
}

# "module.attribute" (or "module.Class.method") entry points the traced
# run wraps; one that no longer exists is reported as an absent layer
TRACED = (
    "stacking.plan_stacking",
    "filter_design.design_iir_nthband_alp",
    "filter_design.verify_allpass",
    "filter_design.design_fir_equiripple",
    "frontend.generate_subband_signal",
    "frontend.stack_baseband_equivalent",
    "frontend.add_awgn",
    "channelizer.end_to_end",
    "channelizer.awgn_sweep",
    "channelizer.coarse_analyze",
    "channelizer.coarse_synthesize",
    "channelizer.fine_analyze",
    "channelizer.fine_synthesize",
    "channelizer.find_delay",
    "channelizer.aligned_mse",
    "polyphase.AnalysisBank.process_block",
    "polyphase.SynthesisBank.process_block",
    "fftcore.transform_many",
)


class MissingSource(RuntimeError):
    """The checkout holds no fstack sources to measure."""


def load():
    """Import fstack from the checkout's ``src/`` and return the package."""
    if not (SRC / "fstack" / "__init__.py").is_file():
        raise MissingSource(f"no fstack package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fstack

    if Path(fstack.__file__).resolve().parent != SRC / "fstack":
        raise MissingSource(f"fstack imported from {fstack.__file__}, not {SRC}")
    return fstack


@functools.cache
def modules():
    """Every importable fstack submodule, keyed by its short name."""
    import fstack

    found = {}
    for info in pkgutil.iter_modules(fstack.__path__):
        found[info.name] = importlib.import_module(f"fstack.{info.name}")
    return found


def resolve(name):
    """The fstack object behind a NAMES entry, wherever it lives now."""
    mods = modules()
    home = mods.get(NAMES[name])
    if home is not None and hasattr(home, name):
        return getattr(home, name)
    for mod in mods.values():
        if hasattr(mod, name):
            return getattr(mod, name)
    raise AttributeError(f"fstack has no public {name!r} (expected in fstack.{NAMES[name]})")


class Fstack:
    """Attribute access to the resolved NAMES, so call sites read as usual.

    Nothing is cached: a name looked up after the traced run has wrapped
    it resolves to the wrapper.
    """

    def __getattr__(self, name):
        if name not in NAMES:
            raise AttributeError(f"{name!r} is not listed in perfbench.api.NAMES")
        return resolve(name)


def lookup_traced(target):
    """(owner, attribute, current value) of a TRACED entry, or a reason it is absent."""
    mod_name, _, rest = target.partition(".")
    owner = modules().get(mod_name)
    if owner is None:
        return None, f"module fstack.{mod_name} no longer exists"
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, f"fstack.{mod_name}.{'.'.join(path)} no longer exists"
    if not hasattr(owner, attr):
        return None, f"fstack.{target} no longer exists"
    return (owner, attr, getattr(owner, attr)), None


def rebind(original, replacement):
    """Point every fstack module global bound to ``original`` at ``replacement``.

    Modules import functions by name from each other, so wrapping only the
    defining module would miss calls that go through those copies.
    """
    for mod in modules().values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
