"""Run configuration: flat INI file, validated up front.

Sections and keys:

    [plan]   fs_hz, fo_hz, fc_hz, nyquist_zone, bandwidth_hz, num_coarse_channels
    [coarse] prototype (fir|iir), stopband_db, passband_ripple_db,
             fir_stopband_db
    [fine]   standard (gmr1|gmr2|custom), granularity_hz, guardband_fraction
    [sim]    seed, num_samples, adc_bits, snr_db, occupied_subbands
    [io]     output_dir

Every key is validated before any work starts, and every number must be
finite; a failure lists all the bad keys at once.  Each key resolves to
the value the pipeline uses: a blank ``fir_stopband_db`` is ``stopband_db``,
gmr1 and gmr2 set ``granularity_hz`` (31.25 and 50 kHz; another value is an
error), ``occupied_subbands = all`` is 1..N_c - 1, and a blank one or a
repeated index is an error.  ``num_samples`` must hold at least one coarse
frame (2 * N_c samples), and ``passband_ripple_db`` must lie below
40*log10(2) dB, where its linear deviation reaches 1.  B must fit one coarse
channel and ``granularity_hz`` split f_s / (2 * N_c) into 2 or more channels.
"""

import configparser
import math
from dataclasses import dataclass

from .channelizer import ChannelPlan
from .errors import ConfigError, InvalidSpecError, PlanningError
from .stacking import StackingInputs

DEFAULTS = {
    "plan": {
        "fs_hz": "1280e6",
        "fo_hz": "10e6",
        "fc_hz": "1650.75e6",
        "nyquist_zone": "2",
        "bandwidth_hz": "48.5e6",
        "num_coarse_channels": "10",
    },
    "coarse": {
        "prototype": "iir",
        # pipeline defaults are sized for end-to-end transparency, not
        # the minimum that merely meets the reference stopband spec
        # (see README); reconstruction error scales like N * ripple^2
        "stopband_db": "66.5",
        "passband_ripple_db": "0.005",
        # FIR-candidate stopband (blank: stopband_db): the comparison wants
        # the two candidates at matched end-to-end floors (their error
        # mechanisms differ, phase vs magnitude, so the dB targets differ slightly)
        "fir_stopband_db": "67.6",
    },
    "fine": {
        "standard": "custom",
        "granularity_hz": "1e6",
        "guardband_fraction": "0.1",
    },
    "sim": {
        "seed": "1234",
        # multiple of N * N_f so both stages see whole frames; at least N
        "num_samples": "983040",
        "adc_bits": "",
        "snr_db": "",
        # "all" fills every plannable sub-band; otherwise a whitespace/comma
        # separated list of distinct indices in 1..N_c - 1
        "occupied_subbands": "all",
    },
    "io": {"output_dir": "out"},
}

# fine.standard -> granularity_hz of the real GMR grids
GMR_GRANULARITY_HZ = {"gmr1": 31.25e3, "gmr2": 50.0e3}

# a peak-to-peak passband ripple of 40*log10(2) dB or more has a linear
# peak deviation 10^(pp/40) - 1 of 1 or more, which no prototype can meet
MAX_PASSBAND_RIPPLE_DB = 40.0 * math.log10(2.0)


@dataclass
class RunConfig:
    """Validated settings; ``num_coarse_channels`` is N/2 (``ChanneliserConfig``'s is N)."""

    fs_hz: float
    fo_hz: float
    fc_hz: float
    nyquist_zone: int
    bandwidth_hz: float
    num_coarse_channels: int
    coarse_kind: str
    stopband_db: float
    passband_ripple_db: float
    fir_stopband_db: float
    granularity_hz: float
    guardband_fraction: float
    seed: int
    num_samples: int
    adc_bits: int | None
    snr_db: float | None
    occupied_subbands: tuple  # non-empty, indices in 1..num_coarse_channels - 1
    output_dir: str


def _merged(parser):
    data = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    for section in parser.sections():
        if section not in data:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if key not in data[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            data[section][key] = val
    return data


def load_config(path=None, overrides=None):
    """Parse and validate a config file; ``overrides`` match section.key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    data = _merged(parser)
    for dotted, val in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in data or key not in data[section]:
            raise ConfigError(f"unknown override {dotted}")
        data[section][key] = str(val)

    errors = []

    def _num(section, key, conv, pred=None, desc=""):
        raw = data[section][key].strip()
        try:
            val = conv(raw)
        except ValueError:
            errors.append(f"{section}.{key}: cannot parse {raw!r}")
            return None
        if not math.isfinite(val):
            errors.append(f"{section}.{key}: {raw!r} is not a finite number")
            return None
        if pred is not None and not pred(val):
            errors.append(f"{section}.{key}: {raw!r} out of range {desc}")
            return None
        return val

    def _opt(section, key, conv, pred=None, desc=""):
        if not data[section][key].strip():
            return None
        return _num(section, key, conv, pred, desc)

    fs = _num("plan", "fs_hz", float, lambda v: v > 0, "(> 0)")
    fo = _num("plan", "fo_hz", float, lambda v: v > 0, "(> 0)")
    fc = _num("plan", "fc_hz", float, lambda v: v > 0, "(> 0)")
    zone = _num("plan", "nyquist_zone", int, lambda v: v >= 1, "(>= 1)")
    bw = _num("plan", "bandwidth_hz", float, lambda v: v > 0, "(> 0)")
    n_c = _num("plan", "num_coarse_channels", int, lambda v: v >= 2, "(>= 2)")

    kind = data["coarse"]["prototype"].strip().lower()
    if kind not in ("fir", "iir"):
        errors.append(f"coarse.prototype: {kind!r} not fir|iir")
    stop_db = _num("coarse", "stopband_db", float, lambda v: v > 0, "(> 0)")
    pass_db = _num("coarse", "passband_ripple_db", float,
                   lambda v: 0 < v < MAX_PASSBAND_RIPPLE_DB, f"(0, {MAX_PASSBAND_RIPPLE_DB:.6g})")
    fir_stop_db = _opt("coarse", "fir_stopband_db", float, lambda v: v > 0, "(> 0)") or stop_db

    standard = data["fine"]["standard"].strip().lower()
    if standard not in ("gmr1", "gmr2", "custom"):
        errors.append(f"fine.standard: {standard!r} not gmr1|gmr2|custom")
    gran = _num("fine", "granularity_hz", float, lambda v: v > 0, "(> 0)")
    if standard in GMR_GRANULARITY_HZ and gran is not None \
            and gran != float(DEFAULTS["fine"]["granularity_hz"]):
        errors.append(f"fine.granularity_hz: {data['fine']['granularity_hz'].strip()!r} would "
                      f"be ignored under fine.standard = {standard}, which fixes its own grid")
    gran = GMR_GRANULARITY_HZ.get(standard, gran)
    guard = _num(
        "fine", "guardband_fraction", float, lambda v: 0 < v <= 0.1, "(0, 0.1]"
    )

    if None not in (fs, fo, fc, zone, bw, n_c, gran):
        try:
            StackingInputs(fs, fo, fc, zone, bw, 2 * n_c)
        except PlanningError as exc:
            errors.append(f"plan.bandwidth_hz: {exc}")
        try:
            ChannelPlan(gran, fs / (2 * n_c))
        except InvalidSpecError as exc:
            errors.append(f"fine.granularity_hz: {exc}")

    seed = _num("sim", "seed", int, lambda v: v >= 0, "(>= 0)")
    frame = 2 * n_c if n_c is not None else 0  # one coarse frame: N = 2 * N_c samples
    num_samples = _num("sim", "num_samples", int, lambda v: v >= frame,
                       f"(>= {frame}, one coarse frame of 2 * num_coarse_channels samples)")
    adc_bits = _opt("sim", "adc_bits", int, lambda v: 4 <= v <= 24, "[4, 24]")
    snr_db = _opt("sim", "snr_db", float)

    raw_occ = data["sim"]["occupied_subbands"].strip()
    tokens = raw_occ.replace(",", " ").split()
    occupied = ()
    if raw_occ.lower() == "all":
        if n_c is not None:
            occupied = tuple(range(1, n_c))
    elif not tokens:
        errors.append(f"sim.occupied_subbands: {raw_occ!r} names no sub-band "
                      f"(\"all\" or indices in 1..num_coarse_channels-1)")
    else:
        try:
            occupied = tuple(int(tok) for tok in tokens)
        except ValueError:
            errors.append(f"sim.occupied_subbands: cannot parse {raw_occ!r}")
        if occupied and n_c is not None:
            outside = sorted({sub for sub in occupied if not 1 <= sub < n_c})
            if outside:
                errors.append(f"sim.occupied_subbands: {' '.join(map(str, outside))} "
                              f"out of range [1, {n_c - 1}]")
        repeated = sorted({sub for sub in occupied if occupied.count(sub) > 1})
        if repeated:
            errors.append(f"sim.occupied_subbands: {' '.join(map(str, repeated))} repeated")

    if errors:
        raise ConfigError("config validation failed: " + "; ".join(errors))

    return RunConfig(
        fs_hz=fs, fo_hz=fo, fc_hz=fc, nyquist_zone=zone, bandwidth_hz=bw,
        num_coarse_channels=n_c,
        coarse_kind=kind, stopband_db=stop_db,
        passband_ripple_db=pass_db,
        fir_stopband_db=fir_stop_db,
        granularity_hz=gran, guardband_fraction=guard,
        seed=seed, num_samples=num_samples, adc_bits=adc_bits, snr_db=snr_db,
        occupied_subbands=occupied,
        output_dir=data["io"]["output_dir"].strip() or "out",
    )
