"""Calibrate the two free model defaults against the published envelope.

Every other default in the package is a stated link-budget or protocol
number.  Two knobs are not stated anywhere and have to be fitted:

* the rms pointing jitter (FsoChannelParams.jitter_urad), which shifts
  every maximum-secure-altitude curve up or down at once, and
* the phase-correction leak fraction (PhaseEncodingNoise.eps_classical),
  which sets the residual excess noise and with it the asymptotic
  reach of the continuous-variable protocol and its classical rate.

This script grid-scans both, scores each pair against the full set of
published operating points (altitude windows at +/-20%, strict block-size
orderings, classical rates within a factor of two and increasing, payload
rates inside their order-of-magnitude envelope), and prints the pair with
the smallest worst-case window deviation.  Copy the printed values into
the two defaults named above and into configs/default.ini.

Run from the repository root:

    python3 scripts/calibrate_defaults.py

Takes under 0.1 s end to end (min 67 ms, median 75 ms of 9 runs on a
2-core Xeon KVM host, interpreter start and compiling the package from
source included, numpy never imported); one main() in a warm process
takes about 10 ms (best of 40).  Each grid point needs eight
ceilings, one per protocol and block size, each max_secure_altitude's
closed-form altitude of a secure threshold tau*, and reads the payload
and classical rates from the one rate probe it makes there.  The DV
threshold depends on neither knob and the CV threshold only on the leak,
so the 60 grid points need only 40 threshold solves: 4 for DV and 4 for
each of the 9 distinct leaks.  The first ceiling of each threshold
solves it, and every later one is handed the tau* that first result
carries.  Only the first solve of each protocol starts at tau = 1, and
takes 11 rate probes.  Every other solve is seeded (near=), which gives
the same tau* as an unseeded solve: the first at each larger block size
with the threshold of the block size before it, as max_altitude_table
seeds its ladder, in 6-9 probes, and each later one, at a new leak, with
the last threshold solved for that protocol and block size, in 5-7:
262 threshold probes in all, against 499 unseeded.  A DV ceiling
depends on the jitter alone and a CV ceiling on the pair, so a run
solves 280 ceilings, not 480: 4 DV ones for each of the 11 distinct
jitters and 4 CV ones for each of the 59 distinct pairs (the fine grid's
centre is a coarse point).  Each ceiling, threshold and the default
config is worked out once per run of main().
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qlinksim.config import load_config
from qlinksim.sweeps import max_secure_altitude

# Published maximum secure altitudes (km) per block size.
DV_ALT_KM = {1e9: 305.0, 1e10: 467.0, 1e11: 542.0, math.inf: 583.0}
CV_ALT_KM = {1e9: 276.0, 1e10: 392.0, 1e11: 452.0, math.inf: 487.0}
# Published classical bit rates (bits/use) at the CV operating points.
CLS_RATE = {1e9: 1.08e-1, 1e10: 7.8e-2, 1e11: 6.8e-2, math.inf: 6.3e-2}
# Payload-rate envelope (bits/use) at the DV operating points.
PAYLOAD_BAND = (2e-4, 4e-3)

ALT_WINDOW = 0.20
CLS_FACTOR = 2.0

# The report labels of each block size: DV ceiling, payload, CV ceiling
# and classical rate.
LABELS = {n: (f"dv_alt_{n:g}", f"payload_{n:g}", f"cv_alt_{n:g}", f"cls_{n:g}") for n in DV_ALT_KM}

# What one run of main() has worked out, emptied when the run ends so that
# no result outlives the run that needed it; kept in the script, not in
# qlinksim.  cfg_with changes only the two knobs, so a result is keyed by
# the protocol, the block size and the knobs it depends on, as plain
# floats: THRESHOLDS holds the secure thresholds tau*, keyed (protocol, n)
# for DV, which depends on neither knob, and (protocol, n, leak) for CV;
# CEILINGS the max_secure_altitude results, keyed the same plus the
# jitter; DEFAULT_CONFIG the one load of the default config.
THRESHOLDS = {}
CEILINGS = {}
DEFAULT_CONFIG = {}


def cfg_with(jitter_urad: float, eps_classical: float):
    if not DEFAULT_CONFIG:
        DEFAULT_CONFIG["cfg"] = load_config()
    cfg = DEFAULT_CONFIG["cfg"]
    return cfg.replace(
        channel=cfg.channel.replace(jitter_urad=jitter_urad),
        cv_noise=cfg.cv_noise.replace(eps_classical=eps_classical),
    )


def ceiling(protocol: str, n: float, cfg):
    """max_secure_altitude, with each threshold and each ceiling solved once per run.

    A DV ceiling depends on the jitter but not the leak, so it is reused
    across the leaks scanned at one jitter; a CV threshold depends on the
    leak but not the jitter, so a CV ceiling at a new jitter is handed the
    threshold of the first ceiling at its leak and skips the solve.  A
    solve is seeded (near=) with the last threshold solved for the same
    protocol and block size (for CV, the threshold at the previous leak),
    else for the same protocol at another block size.
    """
    key = (protocol, n) if protocol == "dv" else (protocol, n, cfg.cv_noise.eps_classical)
    ceiling_key = (*key, cfg.channel.jitter_urad)
    res = CEILINGS.get(ceiling_key)
    if res is None:
        threshold, near = THRESHOLDS.get(key), None
        if threshold is None:
            # the last threshold of this protocol and block size, else of this protocol
            seeds = [t for k, t in THRESHOLDS.items() if k[:2] == key[:2]] or [
                t for k, t in THRESHOLDS.items() if k[0] == protocol
            ]
            near = seeds[-1] if seeds else None
        res = CEILINGS[ceiling_key] = max_secure_altitude(protocol, n, cfg, threshold, near=near)
        THRESHOLDS.setdefault(key, res.threshold)
    return res


def evaluate(jitter_urad: float, eps_classical: float):
    """Score one (jitter, leak) pair.

    Returns (ok, worst_deviation, detail, reasons) where detail maps
    labels to numbers for the report and reasons lists the failed
    criteria (empty when ok), or None when some curve never crosses zero
    inside the altitude bracket.
    """
    cfg = cfg_with(jitter_urad, eps_classical)
    deviations = []
    reasons = []
    detail = {}

    dv_alt = {}
    payload = {}
    for n, target in DV_ALT_KM.items():
        res = ceiling("dv", n, cfg)
        if res.unbounded:
            return None
        dv_alt[n] = res.max_secure_altitude_km
        deviations.append((res.max_secure_altitude_km - target) / target)
        payload[n] = res.rate.throughput
        alt_label, payload_label, _, _ = LABELS[n]
        detail[alt_label] = res.max_secure_altitude_km
        detail[payload_label] = payload[n]
        if not PAYLOAD_BAND[0] <= payload[n] <= PAYLOAD_BAND[1]:
            reasons.append(f"payload[{n:g}]")

    cv_alt = {}
    cls = {}
    for n, target in CV_ALT_KM.items():
        res = ceiling("cv", n, cfg)
        if res.unbounded:
            return None
        cv_alt[n] = res.max_secure_altitude_km
        deviations.append((res.max_secure_altitude_km - target) / target)
        cls[n] = res.rate.throughput
        _, _, alt_label, cls_label = LABELS[n]
        detail[alt_label] = res.max_secure_altitude_km
        detail[cls_label] = cls[n]

    for n, target in DV_ALT_KM.items():
        if abs(dv_alt[n] - target) / target > ALT_WINDOW:
            reasons.append(f"dv_alt[{n:g}]")
    for n, target in CV_ALT_KM.items():
        if abs(cv_alt[n] - target) / target > ALT_WINDOW:
            reasons.append(f"cv_alt[{n:g}]")
    for n, target in CLS_RATE.items():
        if not target / CLS_FACTOR <= cls[n] <= target * CLS_FACTOR:
            reasons.append(f"cls[{n:g}]")

    # Larger blocks must reach strictly higher; smaller blocks must pay a
    # strictly higher classical rate (they operate deeper in the link).
    sizes = sorted(DV_ALT_KM)
    for a, b in zip(sizes, sizes[1:]):
        if not (dv_alt[a] < dv_alt[b] and cv_alt[a] < cv_alt[b]):
            reasons.append("altitude ordering")
        if not cls[a] > cls[b]:
            reasons.append("classical ordering")
        if not payload[a] > payload[b]:
            reasons.append("payload ordering")

    worst = max(abs(d) for d in deviations)
    return not reasons, worst, detail, reasons


def scan(sigmas, epses):
    best = None
    for sj in sigmas:
        for ec in epses:
            scored = evaluate(sj, ec)
            if scored is None:
                print(f"  sigma={sj:.3f} eps={ec:.3e}  (some curve never crosses zero)")
                continue
            ok, worst, detail, reasons = scored
            sizes = sorted(DV_ALT_KM)
            dv = " ".join(f"{detail[LABELS[n][0]]:5.0f}" for n in sizes)
            cv = " ".join(f"{detail[LABELS[n][2]]:5.0f}" for n in sizes)
            flag = "ok" if ok else "--(" + ",".join(reasons) + ")"
            print(
                f"  sigma={sj:.3f} eps={ec:.3e}  worst={worst * 100:5.1f}%  "
                f"DV[{dv}]  CV[{cv}]  {flag}"
            )
            if ok and (best is None or worst < best[0]):
                best = (worst, sj, ec, detail)
    return best


def main() -> int:
    try:
        return calibrate()
    finally:
        # each run does its own work and leaves none behind, so that runs
        # in one process do not share it
        THRESHOLDS.clear()
        CEILINGS.clear()
        DEFAULT_CONFIG.clear()


def calibrate() -> int:
    print("coarse scan")
    best = scan(
        sigmas=(2.7, 2.8, 2.9, 3.0, 3.1),
        epses=(3.0e-5, 3.5e-5, 4.0e-5, 4.5e-5, 5.0e-5),
    )
    if best is None:
        print("no admissible pair on the coarse grid")
        return 1
    _, sj0, ec0, _ = best
    print(f"fine scan around sigma={sj0:.2f}, eps={ec0:.2e}")
    best = scan(
        sigmas=tuple(round(sj0 + d, 3) for d in (-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03)),
        epses=tuple(round(ec0 + d, 8) for d in (-1e-6, -5e-7, 0.0, 5e-7, 1e-6)),
    )
    if best is None:
        print("no admissible pair on the fine grid")
        return 1
    worst, sj, ec, detail = best
    print()
    print(f"calibrated pointing jitter : {sj} urad")
    print(f"calibrated leak fraction   : {ec}")
    print(f"worst window deviation     : {worst * 100:.1f}%")
    sizes = sorted(DV_ALT_KM)
    for n in sizes:
        dv_alt, payload, cv_alt, cls = (detail[label] for label in LABELS[n])
        print(
            f"  N={n:g}: dv_alt={dv_alt:.1f} km  payload={payload:.3e}"
            f"  cv_alt={cv_alt:.1f} km  classical={cls:.4f}"
        )
    print()
    print("copy the jitter into FsoChannelParams.jitter_urad and the")
    print("leak fraction into PhaseEncodingNoise.eps_classical, and both into")
    print("configs/default.ini.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
