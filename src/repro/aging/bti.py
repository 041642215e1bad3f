"""Long-term BTI (bias temperature instability) aging model.

Aging shifts the threshold voltage of stressed transistors. Following the
paper's first-order treatment (its Eq. 1, based on the BSIM alpha-power
current model), we model:

* the threshold-voltage shift of a transistor stressed with duty factor
  ``S`` for ``t`` years as a power law in time with a square-root stress
  dependence (the standard long-term reaction-diffusion form with
  recovery folded into the stress factor)::

      dVth(S, t) = A * S**0.5 * t_seconds**(1/6)

* the resulting gate-delay scaling via the alpha-power law with
  ``alpha = 2``::

      m(dVth) = ((Vdd - Vth) / (Vdd - Vth - dVth))**2

The prefactor ``A`` is calibrated so that a fully stressed (S = 100%)
transistor slows a typical gate by about 16% after 10 years — matching
the paper's component characterization (its Fig. 4 adder needs roughly a
15-18% guardband after 10 years of worst-case stress).

pMOS devices suffer NBTI while their gate input is low (transistor on),
nMOS devices suffer PBTI while the input is high; the per-network delay
contributions are combined with the cell's ``(wp, wn)`` weights.

Every model method is **ndarray-native**: scalar inputs take the
original scalar code path (bit-identical to previous releases — the
memoized delay pipeline in :mod:`repro.aging.delay` depends on that),
while array inputs broadcast through the same formulas in vectorized
NumPy, which is what lets the batched STA engine evaluate a whole
``(gates, corners, samples)`` Monte Carlo tensor without a per-gate
Python loop (:mod:`repro.mc`). Validation is broadcast-safe: any
out-of-range *element* raises the same :class:`ValueError` the scalar
path raises for the same value.
"""

import math
from dataclasses import dataclass

import numpy as np

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


@dataclass(frozen=True)
class BTIModel:
    """Parametric BTI aging model.

    Attributes
    ----------
    prefactor_v:
        ``A`` in volts per second**time_exponent at S = 1.
    time_exponent:
        Power-law time exponent ``n`` (classic reaction-diffusion: 1/6).
    stress_exponent:
        Exponent on the stress duty factor S.
    vdd:
        Supply voltage in volts.
    vth:
        Fresh threshold voltage in volts.
    alpha:
        Alpha-power exponent of the drain-current/delay law.
    """

    prefactor_v: float = 1.8e-3
    time_exponent: float = 1.0 / 6.0
    stress_exponent: float = 0.5
    vdd: float = 1.1
    vth: float = 0.45
    alpha: float = 2.0
    #: Junction temperature the prefactor is calibrated at (85 C, the
    #: usual stress corner).
    temperature_k: float = 358.0
    #: Arrhenius activation energy of the BTI reaction (eV).
    activation_energy_ev: float = 0.15

    @property
    def overdrive(self):
        """Fresh gate overdrive voltage ``Vdd - Vth`` in volts."""
        return self.vdd - self.vth

    def delta_vth(self, stress, years):
        """Threshold-voltage shift in volts.

        Parameters
        ----------
        stress:
            Stress duty factor in [0, 1] (fraction of lifetime under
            stress; recovery happens in the remainder). Scalar or
            ndarray (broadcast against *years*).
        years:
            Operational lifetime in years (>= 0). Scalar or ndarray.
        """
        if np.ndim(stress) == 0 and np.ndim(years) == 0:
            stress, years = float(stress), float(years)
            if not 0.0 <= stress <= 1.0:
                raise ValueError(
                    "stress factor must be in [0, 1], got %r" % stress)
            if years < 0:
                raise ValueError(
                    "lifetime must be non-negative, got %r" % years)
            if years == 0 or stress == 0:
                return 0.0
            t_seconds = years * SECONDS_PER_YEAR
            return (self.prefactor_v
                    * stress ** self.stress_exponent
                    * t_seconds ** self.time_exponent)
        stress = np.asarray(stress, dtype=np.float64)
        years = np.asarray(years, dtype=np.float64)
        if np.any((stress < 0.0) | (stress > 1.0)):
            bad = stress[(stress < 0.0) | (stress > 1.0)].flat[0]
            raise ValueError(
                "stress factor must be in [0, 1], got %r" % float(bad))
        if np.any(years < 0.0):
            bad = years[years < 0.0].flat[0]
            raise ValueError(
                "lifetime must be non-negative, got %r" % float(bad))
        t_seconds = years * SECONDS_PER_YEAR
        shift = (self.prefactor_v
                 * stress ** self.stress_exponent
                 * t_seconds ** self.time_exponent)
        # The scalar path short-circuits zero stress/lifetime to exactly
        # 0.0 before exponentiating; mirror that (0**exponent is 1.0
        # for a zero exponent, so the formula alone would not).
        return np.where((stress == 0.0) | (t_seconds == 0.0), 0.0, shift)

    def delay_multiplier_from_dvth(self, dvth, allow_speedup=False):
        """Delay scaling factor (>= 1) for a transistor shifted by *dvth*.

        *dvth* may be a scalar or an ndarray. *allow_speedup* permits
        negative shifts (multiplier < 1) — process-variation draws can
        land a gate *faster* than nominal, which deterministic aging
        never does; the Monte Carlo path opts in explicitly.
        """
        if np.ndim(dvth) == 0:
            dvth = float(dvth)
            if dvth < 0 and not allow_speedup:
                raise ValueError("dVth must be non-negative, got %r" % dvth)
            headroom = self.overdrive - dvth
            if headroom <= 0:
                raise ValueError(
                    "dVth %.3f V exceeds the gate overdrive %.3f V; the "
                    "device no longer switches" % (dvth, self.overdrive))
            return (self.overdrive / headroom) ** self.alpha
        dvth = np.asarray(dvth, dtype=np.float64)
        if not allow_speedup and np.any(dvth < 0):
            bad = dvth[dvth < 0].flat[0]
            raise ValueError(
                "dVth must be non-negative, got %r" % float(bad))
        headroom = self.overdrive - dvth
        if np.any(headroom <= 0):
            bad = dvth[headroom <= 0].flat[0]
            raise ValueError(
                "dVth %.3f V exceeds the gate overdrive %.3f V; the device "
                "no longer switches" % (float(bad), self.overdrive))
        np.divide(self.overdrive, headroom, out=headroom)
        headroom **= self.alpha
        return headroom

    def transistor_multiplier(self, stress, years):
        """Delay multiplier of one transistor network under *stress*."""
        return self.delay_multiplier_from_dvth(self.delta_vth(stress, years))

    def cell_multiplier(self, sp, sn, years, wp=0.5, wn=0.5):
        """Delay multiplier of a whole cell.

        Combines pMOS (NBTI, stress ``sp``) and nMOS (PBTI, stress ``sn``)
        degradation with the cell's network weights::

            m = 1 + wp*(m_p - 1) + wn*(m_n - 1)

        All stress/lifetime parameters may be ndarrays (broadcast
        together); scalars keep the historical scalar code path.
        """
        mp = self.transistor_multiplier(sp, years)
        mn = self.transistor_multiplier(sn, years)
        return 1.0 + wp * (mp - 1.0) + wn * (mn - 1.0)

    def guardband_fraction(self, stress, years):
        """Fractional delay guardband needed by a typical (wp=wn=0.5) cell."""
        return self.cell_multiplier(stress, stress, years) - 1.0

    def at_temperature(self, temperature_k):
        """Derive a model recalibrated for another junction temperature.

        BTI is thermally activated (Arrhenius): the ΔVth prefactor
        scales by ``exp(Ea/k * (1/T_ref - 1/T))``, so cooler parts age
        more slowly. Everything else is carried over.
        """
        if temperature_k <= 0:
            raise ValueError("temperature must be positive kelvin")
        boltzmann_ev = 8.617333262e-5
        factor = math.exp(self.activation_energy_ev / boltzmann_ev
                          * (1.0 / self.temperature_k
                             - 1.0 / temperature_k))
        return BTIModel(
            prefactor_v=self.prefactor_v * factor,
            time_exponent=self.time_exponent,
            stress_exponent=self.stress_exponent,
            vdd=self.vdd, vth=self.vth, alpha=self.alpha,
            temperature_k=temperature_k,
            activation_energy_ev=self.activation_energy_ev)

    def years_until_dvth(self, stress, dvth):
        """Invert the model: lifetime (years) to accumulate *dvth* volts."""
        if dvth <= 0:
            return 0.0
        if stress <= 0:
            return math.inf
        t_seconds = (dvth / (self.prefactor_v
                             * stress ** self.stress_exponent)
                     ) ** (1.0 / self.time_exponent)
        return t_seconds / SECONDS_PER_YEAR


#: Model instance used throughout the reproduction unless overridden.
DEFAULT_BTI = BTIModel()
