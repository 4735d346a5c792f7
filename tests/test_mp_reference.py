"""The mpmath reference against the closed forms of ``ms`` and the cycles."""

import os
import subprocess
import sys

import mpmath
import pytest

import qwscatter
from mp_reference import mp_resonances, mp_sigma
from qwscatter.models import cycle_family, matrix_schrodinger_family

DIGITS = 50
REFERENCE_TOL = mpmath.mpf("1e-30")
EPS = [1e-8, 1e-6, 1e-4, 1e-3]
Z = [mpmath.expjpi(mpmath.mpf("0.1")), mpmath.expjpi(mpmath.mpf("0.7")), mpmath.mpc("0.6", "-0.5")]
# strengths whose squares are exact in double, as the cycle coins print them
CYCLES = {3: [1.0, 0.5, 0.75], 4: [1.0] * 4, 5: [0.5, 1.0, 1.5, 0.25, 1.0]}


def closed_form_ms(eps, z):
    """``closed_form_sigma_ms``, written out in mp, and its poles."""
    e2 = eps * eps
    den = z * (z * z + 1 - 2 * e2)
    diag, off = (1 - e2) * (z * z + 1) / den, e2 * (z * z - 1) / den
    pole = mpmath.sqrt(1 - 2 * e2)
    return mpmath.matrix([[diag, off], [off, diag]]), [1j * pole, -1j * pole]


def closed_form_cycle(c, eps, z):
    """``closed_form_sigma_cycle``, written out in mp, and its poles."""
    n = len(c)
    rot = [mpmath.sqrt(1 - (ck * eps) ** 2) for ck in c]
    taus = [mpmath.mpf(1)]
    for s in rot:
        taus.append(taus[-1] * s)
    zn = z**n
    den = zn - taus[n]
    sigma = mpmath.matrix(n, n)
    for col in range(1, n + 1):
        for row in range(1, n + 1):
            if row == col:
                sigma[row - 1, col - 1] = (rot[col - 1] ** 2 * zn - taus[n]) / (rot[col - 1] * den)
            else:
                power = col - row if row < col else n + col - row
                lead = taus[n] if row < col else 1
                sigma[row - 1, col - 1] = (-c[col - 1] * c[row - 1] * eps**2 * taus[row - 1] * lead
                                           * z**power / (taus[col] * den))
    root = mpmath.root(taus[n], n)
    return sigma, [root * mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]


CASES = {"ms": (matrix_schrodinger_family(), closed_form_ms)}
for size, strengths in CYCLES.items():
    CASES[f"cycle{size}"] = (
        cycle_family(size, strengths),
        lambda eps, z, c=strengths: closed_form_cycle([mpmath.mpf(x) for x in c], eps, z),
    )


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_mp_reference_reproduces_the_closed_forms(case, eps):
    # every Σ entry to 1e-30 at 50 digits, and every closed-form pole is an
    # eigenvalue of the interior to 1e-30, though 1 - |λ| falls to ~1e-16
    family, closed_form = CASES[case]
    with mpmath.workdps(DIGITS):
        at = mpmath.mpf(eps)
        for z in Z:
            got, (want, poles) = mp_sigma(family, eps, z), closed_form(at, z)
            assert mpmath.mnorm(got - want, 1) <= REFERENCE_TOL, z
        values = mp_resonances(family, eps)
        for pole in poles:
            assert min(abs(value - pole) for value in values) <= REFERENCE_TOL, pole


def test_import_does_not_load_mpmath():
    # mpmath is a test reference, never a dependency of the package
    src = os.path.dirname(os.path.dirname(qwscatter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qwscatter; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
