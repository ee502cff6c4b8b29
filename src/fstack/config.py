"""Run configuration: flat INI file, validated up front.

Sections and keys:

    [plan]   fs_hz, fo_hz, fc_hz, nyquist_zone, bandwidth_hz, num_coarse_channels
    [coarse] prototype (fir|iir), n_fos, stopband_db, passband_ripple_db
    [fine]   standard (gmr1|gmr2|custom), granularity_hz, guardband_fraction
    [sim]    seed, num_samples, adc_bits, snr_db, occupied_subbands
    [io]     output_dir

Every key is validated before any work starts; a failure lists all the
bad keys at once.
"""

import configparser
from dataclasses import dataclass

from .errors import ConfigError

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
        "n_fos": "14",
        "stopband_db": "66.5",
        "passband_ripple_db": "0.005",
        # optional FIR-candidate overrides: the comparison wants the two
        # candidates at matched end-to-end floors (their error mechanisms
        # differ, phase vs magnitude, so the dB targets differ slightly)
        "fir_stopband_db": "67.6",
        "fir_passband_ripple_db": "",
    },
    "fine": {
        "standard": "custom",
        "granularity_hz": "1e6",
        "guardband_fraction": "0.1",
    },
    "sim": {
        "seed": "1234",
        # multiple of N * N_f so both stages see whole frames
        "num_samples": "983040",
        "adc_bits": "",
        "snr_db": "",
        # "all" fills every plannable sub-band; a blank value runs none;
        # otherwise a whitespace/comma separated index list
        "occupied_subbands": "all",
    },
    "io": {"output_dir": "out"},
}


@dataclass
class RunConfig:
    fs_hz: float
    fo_hz: float
    fc_hz: float
    nyquist_zone: int
    bandwidth_hz: float
    num_coarse_channels: int
    coarse_kind: str
    n_fos: int
    stopband_db: float
    passband_ripple_db: float
    fir_stopband_db: float | None
    fir_passband_ripple_db: float | None
    fine_standard: str
    granularity_hz: float
    guardband_fraction: float
    seed: int
    num_samples: int
    adc_bits: int | None
    snr_db: float | None
    occupied_subbands: tuple | None  # None = every plannable sub-band
    output_dir: str
    full_scale_fine: bool = False


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
    n_fos = _num("coarse", "n_fos", int, lambda v: v >= 1, "(>= 1)")
    stop_db = _num("coarse", "stopband_db", float, lambda v: v > 0, "(> 0)")
    pass_db = _num("coarse", "passband_ripple_db", float, lambda v: v > 0, "(> 0)")
    fir_stop_db = _opt("coarse", "fir_stopband_db", float, lambda v: v > 0, "(> 0)")
    fir_pass_db = _opt(
        "coarse", "fir_passband_ripple_db", float, lambda v: v > 0, "(> 0)"
    )

    standard = data["fine"]["standard"].strip().lower()
    if standard not in ("gmr1", "gmr2", "custom"):
        errors.append(f"fine.standard: {standard!r} not gmr1|gmr2|custom")
    gran = _num("fine", "granularity_hz", float, lambda v: v > 0, "(> 0)")
    guard = _num(
        "fine", "guardband_fraction", float, lambda v: 0 < v <= 0.1, "(0, 0.1]"
    )

    seed = _num("sim", "seed", int, lambda v: v >= 0, "(>= 0)")
    num_samples = _num("sim", "num_samples", int, lambda v: v >= 0, "(>= 0)")
    adc_bits = _opt("sim", "adc_bits", int, lambda v: 4 <= v <= 24, "[4, 24]")
    snr_db = _opt("sim", "snr_db", float)

    raw_occ = data["sim"]["occupied_subbands"].strip()
    if raw_occ.lower() == "all":
        occupied = None
    elif not raw_occ:
        occupied = ()
    else:
        try:
            occupied = tuple(int(tok) for tok in raw_occ.replace(",", " ").split())
        except ValueError:
            occupied = None
            errors.append(f"sim.occupied_subbands: cannot parse {raw_occ!r}")

    if errors:
        raise ConfigError("config validation failed: " + "; ".join(errors))

    return RunConfig(
        fs_hz=fs, fo_hz=fo, fc_hz=fc, nyquist_zone=zone, bandwidth_hz=bw,
        num_coarse_channels=n_c,
        coarse_kind=kind, n_fos=n_fos, stopband_db=stop_db,
        passband_ripple_db=pass_db,
        fir_stopband_db=fir_stop_db, fir_passband_ripple_db=fir_pass_db,
        fine_standard=standard, granularity_hz=gran, guardband_fraction=guard,
        seed=seed, num_samples=num_samples, adc_bits=adc_bits, snr_db=snr_db,
        occupied_subbands=occupied,
        output_dir=data["io"]["output_dir"].strip() or "out",
    )
