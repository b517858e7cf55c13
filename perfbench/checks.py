"""Output checks for each workload.

Every check compares the program's output against a computation made
apart from the program, or against a property the method must have; none
compares against a stored copy of earlier output.  A check takes the
workload, its pass outputs and its command-line outputs (``None`` for a
command that failed), and returns one message per violation.
"""

from __future__ import annotations

import configparser
import importlib.util
import math
import random
import re
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

CHI_E_RTOL = 1e-9
CLASSICAL_RTOL = 1e-12
THERMAL_RTOL = 1e-12
ORACLE_RTOL = 0.10
ORACLE_SPOTS = 8
ORACLE_STEP_KM = 0.05  # path-length spacing of the benchmark's own trapezoid
MPMATH_BITS = 200

# The paper's maximum secure altitudes (km) per block size, and the window
# the ladders must fall in.  They are stated here, apart from the program,
# so that the check does not move with the calibration script's targets.
PAPER_DV_LADDER_KM = {1e9: 305.0, 1e10: 467.0, 1e11: 542.0, math.inf: 583.0}
PAPER_CV_LADDER_KM = {1e9: 276.0, 1e10: 392.0, 1e11: 452.0, math.inf: 487.0}
LADDER_WINDOW = 0.20


class Table:
    """A CSV table as the CLI writes it: '#' header, column line, rows."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.meta = {}
        i = 0
        while lines[i].startswith("# "):
            key, _, value = lines[i][2:].partition(" = ")
            self.meta[key] = value
            i += 1
        self.columns = lines[i].split(",")
        self.rows = [tuple(float(v) for v in line.split(",")) for line in lines[i + 1 :]]

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def records(self) -> list[dict[str, float]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _curves(table: Table, key: str) -> dict[float, list[tuple[float, float]]]:
    """(altitude, key) pairs per block size, in altitude order."""
    curves: dict[float, list[tuple[float, float]]] = {}
    for rec in table.records():
        curves.setdefault(rec["block_size"], []).append((rec["altitude_km"], rec[key]))
    return {n: sorted(points) for n, points in curves.items()}


def _mp():
    import mpmath

    mpmath.mp.prec = MPMATH_BITS
    return mpmath


def _config_from_header(table: Table):
    """Rebuild the run's config from the resolved values in the CSV header."""
    from qlinksim.config import load_config

    overrides = [f"{key}={value}" for key, value in table.meta.items() if key != "scenario"]
    return load_config(None, overrides)


# ---------------------------------------------------------------------------
# rate-sweeps
# ---------------------------------------------------------------------------


def holevo_trusted_homodyne(tau: float, meta: dict[str, str]):
    """chi_E by the closed-form trusted-homodyne bound, in mpmath.

    Lodewyck et al., PRA 76, 042305 (2007): symplectic eigenvalues
    lambda_1,2 of the channel-output state and lambda_3,4 of the state
    conditioned on Bob's homodyne outcome (lambda_5 = 1), with the receiver
    efficiency and electronic noise trusted.  The line noise is
    chi_line = (1 - tau)/tau (2 n + 1) + eps_in, where eps_in is the
    phase-correction residual referred to the channel input, as the
    program's model defines it.
    """
    mp = _mp()
    f = lambda key: mp.mpf(meta[key])  # noqa: E731
    v_mod, v_el, n_bg = f("cv.v_mod"), f("cv.v_el"), f("cv.n_bg")
    eta = f("cv.eta_det") * f("cv.eta_lo")
    t = mp.mpf(tau)
    amp = mp.sqrt(2) * mp.erfinv(1 - 2 * f("cv.ber_target"))
    leak = f("cv.eps_classical") * amp**2
    background = eta * (1 - t) * 2 * n_bg
    sigma_bit_sq = (1 + v_el + t * eta * v_mod + background) / (1 - leak)
    eps_in = leak * sigma_bit_sq / (t * eta)

    v = v_mod + 1
    chi_line = (1 - t) / t * (2 * n_bg + 1) + eps_in
    chi_hom = (1 - eta) / eta + v_el / eta
    chi_tot = chi_line + chi_hom / t
    a = v**2 * (1 - 2 * t) + 2 * t + t**2 * (v + chi_line) ** 2
    b = t**2 * (v * chi_line + 1) ** 2
    c = (a * chi_hom + v * mp.sqrt(b) + t * (v + chi_line)) / (t * (v + chi_tot))
    d = mp.sqrt(b) * (v + mp.sqrt(b) * chi_hom) / (t * (v + chi_tot))

    def pair(s, p):
        root = mp.sqrt(s * s - 4 * p)
        return mp.sqrt((s + root) / 2), mp.sqrt((s - root) / 2)

    def g(nu):
        if nu <= 1:
            return mp.mpf(0)
        up, dn = (nu + 1) / 2, (nu - 1) / 2
        return up * mp.log(up, 2) - dn * mp.log(dn, 2)

    l1, l2 = pair(a, b)
    l3, l4 = pair(c, d)
    return g(l1) + g(l2) - g(l3) - g(l4)


def check_chi_e_closed_form(wl, out, cli):
    table = Table(out["cv-sweep"])
    channel = _config_from_header(table).channel
    bad = []
    for rec in table.records():
        tau = channel.at_altitude(rec["altitude_km"]).transmissivity
        want = holevo_trusted_homodyne(tau, table.meta)
        if abs(rec["chi_e"] - want) > CHI_E_RTOL * abs(want):
            bad.append(
                f"chi_e at {rec['altitude_km']} km, N={rec['block_size']:g}: "
                f"{rec['chi_e']!r} vs closed form {float(want)!r}"
            )
    return bad


def check_classical_rate(wl, out, cli):
    table = Table(out["cv-sweep"])
    beta = float(table.meta["cv.beta"])
    bad = []
    for rec in table.records():
        want = beta * 0.5 * math.log2(1.0 + rec["snr"])
        if abs(rec["classical_rate_bits_per_use"] - want) > CLASSICAL_RTOL * want:
            bad.append(
                f"classical rate at {rec['altitude_km']} km, N={rec['block_size']:g}: "
                f"{rec['classical_rate_bits_per_use']!r} vs beta/2 log2(1+snr) {want!r}"
            )
    return bad


def check_key_rate_non_increasing(wl, out, cli):
    bad = []
    for name in ("dv-sweep", "cv-sweep"):
        for n, curve in _curves(Table(out[name]), "key_rate_bits_per_use").items():
            for (h0, r0), (h1, r1) in zip(curve, curve[1:]):
                if r1 > r0:
                    bad.append(f"{name} N={n:g}: key rate rises from {r0!r} at {h0} km to {r1!r} at {h1} km")
    return bad


def check_finite_below_asymptotic(wl, out, cli):
    bad = []
    for name in ("dv-sweep", "cv-sweep"):
        curves = _curves(Table(out[name]), "key_rate_bits_per_use")
        limit = dict(curves[math.inf])
        for n, curve in curves.items():
            for h, rate in curve:
                if rate > limit[h]:
                    bad.append(f"{name} N={n:g} at {h} km: {rate!r} above the asymptotic {limit[h]!r}")
    return bad


def check_ladders(wl, out, cli):
    bad = []
    for name, refs in (("max-altitude.dv", PAPER_DV_LADDER_KM), ("max-altitude.cv", PAPER_CV_LADDER_KM)):
        table = Table(out[name])
        ladder = sorted(zip(table.column("block_size"), table.column("max_secure_altitude_km")))
        if [n for n, _ in ladder] != sorted(refs):
            bad.append(f"{name}: block sizes {[n for n, _ in ladder]} differ from {sorted(refs)}")
            continue
        for n, alt in ladder:
            if abs(alt - refs[n]) > LADDER_WINDOW * refs[n]:
                bad.append(f"{name} N={n:g}: {alt} km outside +/-20% of {refs[n]} km")
        for (n0, a0), (n1, a1) in zip(ladder, ladder[1:]):
            if not a0 < a1:
                bad.append(f"{name}: N={n0:g} reaches {a0} km, not below N={n1:g} at {a1} km")
        if any(table.column("unbounded")):
            bad.append(f"{name}: a bisection hit the top of its bracket")
    return bad


# ---------------------------------------------------------------------------
# shared by the workloads with pooled command lines
# ---------------------------------------------------------------------------


def check_workers_identical(wl, out, cli):
    bad = []
    for cmd in wl.commands:
        if cmd.name.endswith(".w2"):
            pooled, single = cli.get(cmd.name), cli.get(cmd.name[:-3] + ".w1")
            if pooled is None or pooled != single:
                bad.append(f"{cmd.name} output differs from the --workers 1 output")
    return bad


def check_cli_matches_pass(wl, out, cli):
    return [
        f"{cmd.name} output differs from the in-process pass"
        for cmd in wl.commands
        if cmd.output is not None and cli.get(cmd.name) != out[cmd.output]
    ]


# ---------------------------------------------------------------------------
# calibration-scan
# ---------------------------------------------------------------------------


def _key_rate(cfg, protocol: str, n: float, altitude_km: float) -> float:
    from qlinksim.cvqkd import ThermalLossChannel, composable_key_rate
    from qlinksim.dvqkd import finite_key_rate

    tau = cfg.channel.at_altitude(altitude_km).transmissivity
    if protocol == "dv":
        return finite_key_rate(tau * cfg.dv.eta_receiver, cfg.dv, cfg.dv_fs(n)).key_rate
    ch = ThermalLossChannel(tau=tau, n_thermal=cfg.cv.n_bg)
    return composable_key_rate(ch, cfg.cv, cfg.cv_noise, block_size_n=n).key_rate


def _ceilings(out, protocol: str):
    """(jitter, leak, block size, ceiling km) of every bisection the scan reported.

    A point the script's ``evaluate`` gave up on (some curve never crossed
    zero) reports no ceilings.
    """
    for (jitter, leak), scored in out["points"].items():
        if scored is None:
            continue
        for key, alt in scored[2].items():  # detail: 'dv_alt_1e+09' -> km, ...
            kind, _, n = key.rpartition("_")
            if kind == f"{protocol}_alt":
                yield jitter, leak, float(n), alt


def check_bisections_bracket(wl, out, cli):
    from qlinksim.sweeps import ALTITUDE_TOL_KM

    cfg_with = workloads.load_script().cfg_with
    bad = []
    for protocol in ("dv", "cv"):
        for jitter, leak, n, alt in _ceilings(out, protocol):
            cfg = cfg_with(jitter, leak)
            below = _key_rate(cfg, protocol, n, alt)
            above = _key_rate(cfg, protocol, n, alt + ALTITUDE_TOL_KM)
            if not (below > 0.0 and above <= 0.0):
                bad.append(
                    f"jitter={jitter} leak={leak} {protocol} N={n:g}: rate {below!r} at "
                    f"{alt} km and {above!r} at {alt + ALTITUDE_TOL_KM} km do not bracket a root"
                )
    return bad


def _non_increasing(out, protocol: str, along: str) -> list[str]:
    series: dict[tuple, list[tuple[float, float]]] = {}
    for jitter, leak, n, alt in _ceilings(out, protocol):
        fixed, moving = ((leak, jitter) if along == "jitter" else (jitter, leak))
        series.setdefault((n, fixed), []).append((moving, alt))
    bad = []
    for (n, fixed), points in series.items():
        points.sort()
        for (x0, a0), (x1, a1) in zip(points, points[1:]):
            if a1 > a0:
                bad.append(f"{protocol} N={n:g}: ceiling rises from {a0} to {a1} km as {along} goes {x0} -> {x1}")
    return bad


def check_ceiling_vs_jitter(wl, out, cli):
    return _non_increasing(out, "dv", "jitter") + _non_increasing(out, "cv", "jitter")


def check_cv_ceiling_vs_leak(wl, out, cli):
    return _non_increasing(out, "cv", "leak")


def shipped_defaults() -> tuple[float, float]:
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(ROOT / "configs" / "default.ini", encoding="utf-8")
    return float(ini["channel"]["jitter_urad"]), float(ini["cv"]["eps_classical"])


def printed_pair(text: str) -> tuple[float, float] | None:
    """The (jitter, leak) pair the calibration script printed, if any."""
    jitter = re.search(r"^calibrated pointing jitter : (\S+) urad$", text, re.M)
    leak = re.search(r"^calibrated leak fraction\s+: (\S+)$", text, re.M)
    return (float(jitter.group(1)), float(leak.group(1))) if jitter and leak else None


def check_scan_selects_defaults(wl, out, cli):
    want = shipped_defaults()
    got = printed_pair(out["calibrate_defaults"])
    if out["exit"] != 0 or got != want:
        return [f"the scan returns {out['exit']} and prints {got}; configs/default.ini ships {want}"]
    return []


# ---------------------------------------------------------------------------
# gas-spectrum
# ---------------------------------------------------------------------------


def check_thermal_mpmath(wl, out, cli):
    mp = _mp()
    h, k = mp.mpf("6.62607015e-34"), mp.mpf("1.380649e-23")  # exact in the 2019 SI
    bad = []
    for rec in Table(out["thermal-grid"]).records():
        f, t = rec["frequency_hz"], rec["temperature_k"]
        want = 1 / mp.expm1(h * mp.mpf(f) / (k * mp.mpf(t)))
        if abs(rec["mean_photons"] - want) > THERMAL_RTOL * want:
            bad.append(f"occupancy at {f!r} Hz, {t} K: {rec['mean_photons']!r} vs {mp.nstr(want, 17)}")
    return bad


def _attenuation(out) -> dict[tuple[float, float], float]:
    return {
        (rec["frequency_ghz"], rec["slant_km"]): rec["attenuation_db"]
        for rec in Table(out["atmos-grid"]).records()
    }


def check_attenuation_grows_with_slant(wl, out, cli):
    per_freq: dict[float, list[tuple[float, float]]] = {}
    for (f, s), a in _attenuation(out).items():
        per_freq.setdefault(f, []).append((s, a))
    bad = []
    for f, points in per_freq.items():
        points.sort()
        for (s0, a0), (s1, a1) in zip(points, points[1:]):
            if a1 < a0:
                bad.append(f"{f} GHz: {a0!r} dB at {s0} km but {a1!r} dB at {s1} km")
    return bad


def check_attenuation_landmarks(wl, out, cli):
    att = _attenuation(out)
    bad = []
    low, high = att.get((10.0, 28.0)), att.get((988.0, 1.0))
    if low is None or not 0.0 < low < 1.0:
        bad.append(f"28 km slant at 10 GHz: {low!r} dB, want in (0, 1)")
    if high is None or not high > 100.0:
        bad.append(f"1 km slant at 988 GHz: {high!r} dB, want > 100")
    return bad


def _oracle():
    spec = importlib.util.spec_from_file_location("oracle_p676", ROOT / "tests" / "oracle_p676.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_slant_db(f_ghz: float, slant_km: float, elevation_deg: float) -> float:
    """Trapezoid rule over the scalar P.676 transcription on a uniform path grid.

    States come from the package's reference profile (P.835); the line
    data and line shapes come from tests/oracle_p676.py only.
    """
    from qlinksim.atmosphere import TOP_ALTITUDE_KM, default_profile

    import numpy as np

    oracle = _oracle()
    steps = max(1, math.ceil(slant_km / ORACLE_STEP_KM))
    s = [slant_km * i / steps for i in range(steps + 1)]
    sin_el = math.sin(math.radians(elevation_deg))
    t, p, rho = default_profile().states_at(np.clip(np.array(s) * sin_el, 0.0, TOP_ALTITUDE_KM))
    gamma = [
        oracle.specific_attenuation_db_km(f_ghz, float(ti), float(pi), float(ri))
        for ti, pi, ri in zip(t, p, rho)
    ]
    return sum((s[i + 1] - s[i]) * (gamma[i] + gamma[i + 1]) / 2.0 for i in range(steps))


def check_attenuation_oracle(wl, out, cli):
    table = Table(out["atmos-grid"])
    elevation = float(table.meta["sweep.elevation_deg"])
    spots = random.Random(wl.seed).sample(table.records(), ORACLE_SPOTS)
    bad = []
    for rec in spots:
        want = oracle_slant_db(rec["frequency_ghz"], rec["slant_km"], elevation)
        if abs(rec["attenuation_db"] - want) > ORACLE_RTOL * want:
            bad.append(
                f"{rec['frequency_ghz']} GHz over {rec['slant_km']} km: "
                f"{rec['attenuation_db']!r} dB vs oracle {want!r} dB"
            )
    return bad


CHECKS = {
    "rate-sweeps": (
        check_chi_e_closed_form,
        check_classical_rate,
        check_key_rate_non_increasing,
        check_finite_below_asymptotic,
        check_ladders,
        check_workers_identical,
        check_cli_matches_pass,
    ),
    "calibration-scan": (
        check_bisections_bracket,
        check_ceiling_vs_jitter,
        check_cv_ceiling_vs_leak,
        check_scan_selects_defaults,
        check_cli_matches_pass,
    ),
    "gas-spectrum": (
        check_thermal_mpmath,
        check_attenuation_grows_with_slant,
        check_attenuation_landmarks,
        check_attenuation_oracle,
        check_workers_identical,
        check_cli_matches_pass,
    ),
}


def run(workload, out: dict, cli: dict) -> list[str]:
    """Every violation of every check of the workload, as 'check: message'."""
    failures = []
    for check in CHECKS[workload.name]:
        try:
            found = check(workload, out, cli)
        except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
            found = [f"could not be evaluated: {type(exc).__name__}: {exc}"]
        failures += [f"{check.__name__}: {msg}" for msg in found]
    return failures
