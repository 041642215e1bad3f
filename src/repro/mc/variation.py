"""Reproducible per-gate threshold-voltage variation draws.

Process variation scatters each gate's threshold voltage around the
design value; aging then shifts the scattered value. We model the
scatter as one zero-mean Gaussian ΔVth per gate — shared by the p- and
n-networks (within-gate variation is dominated by common effects such
as gate-length and oxide-thickness deviations), independent from gate
to gate — truncated at ``clip_sigmas`` standard deviations so a draw
can never consume the whole gate overdrive.

Draw streams are the fault masks' Philox streams
(:mod:`repro.core.streams`) under a domain tag, so variation draws and
fault masks derived from one campaign seed are independent: one stream
per ``(seed, gate uid, sample chunk)``, keyed by
``SeedSequence([seed, uid, chunk, domain]).generate_state(2,
np.uint64)``. :meth:`VariationModel.gate_dvth` derives the keys of all
gates of a chunk at once (the same numbers ``SeedSequence`` returns)
and re-keys one ``Philox`` generator per gate, so every draw equals the
per-gate ``Philox(SeedSequence(...))`` stream's. The properties that
make Monte Carlo results bit-reproducible across ``--jobs N``, worker
pools and the served path:

* **partition independence** — the draw for sample ``s`` of gate ``g``
  depends only on ``(seed, g.uid, s)``, never on which process asks or
  how the sample axis is chunked into propagation blocks;
* **prefix stability** — extending a run to more samples reproduces
  every earlier draw (chunks are indexed by absolute sample position);
* **domain separation** — the trailing domain tag keeps these streams
  disjoint from any other Philox consumer keyed by the same
  ``(seed, uid)``.

Propagation block sizes (:data:`repro.mc.engine.DEFAULT_BLOCK`) that
divide :data:`SAMPLE_CHUNK` avoid re-generating chunk tails; any block
size yields the same numbers.
"""

from dataclasses import dataclass

import numpy as np

from ..core.streams import philox_stream, rekey, stream_keys

#: Standard-normal draws generated per (seed, gate, chunk) stream.
#: Absolute-indexed: sample ``s`` lives in chunk ``s // SAMPLE_CHUNK``
#: at offset ``s % SAMPLE_CHUNK`` regardless of propagation block size.
SAMPLE_CHUNK = 256

#: Truncation of the standard-normal draws, in standard deviations.
DEFAULT_CLIP_SIGMAS = 6.0

#: Domain tag appended to the SeedSequence key so variation streams are
#: independent of fault-mask streams sharing a campaign seed.
_MC_DOMAIN = 0x6D63  # "mc"


def gate_stream(seed, gate_uid, chunk):
    """The Philox generator of one ``(seed, gate, chunk)`` draw stream."""
    return philox_stream(seed, gate_uid, chunk, _MC_DOMAIN)


def _normals(seed, gate_uids, start, count):
    """Standard normals ``(len(gate_uids), count)``: row ``i`` holds
    draws ``start .. start+count`` of gate ``gate_uids[i]``.

    Per chunk, derives every gate's stream key at once and draws the
    whole chunk of each gate from one re-keyed generator; absolute
    chunk indexing makes any partition of the sample axis reproduce
    the same values (see module doc).
    """
    if count < 0 or start < 0:
        raise ValueError("draw range must be non-negative, got start=%r "
                         "count=%r" % (start, count))
    out = np.empty((len(gate_uids), count), dtype=np.float64)
    if not count or not len(gate_uids):
        return out
    gen = np.random.Generator(np.random.Philox(0))  # re-keyed per stream
    for chunk in range(start // SAMPLE_CHUNK,
                       (start + count - 1) // SAMPLE_CHUNK + 1):
        base = chunk * SAMPLE_CHUNK
        lo, hi = max(start, base), min(start + count, base + SAMPLE_CHUNK)
        keys = stream_keys(seed, gate_uids, chunk, _MC_DOMAIN)
        whole = hi - lo == SAMPLE_CHUNK
        dest = out[:, lo - start:hi - start] if whole \
            else np.empty((len(keys), SAMPLE_CHUNK), dtype=np.float64)
        for row, key in zip(dest, keys):
            rekey(gen, key).standard_normal(out=row)
        if not whole:
            out[:, lo - start:hi - start] = dest[:, lo - base:hi - base]
    return out


def standard_draws(seed, gate_uid, start, count):
    """Standard-normal draws ``start .. start+count`` of one gate.

    Slices absolute-indexed chunks, so any partition of the sample axis
    reproduces the same values (see module doc).
    """
    return _normals(seed, (gate_uid,), start, count)[0]


@dataclass(frozen=True)
class VariationModel:
    """Per-gate Vth variation: sigma, seed and truncation.

    ``sigma_mv`` is the standard deviation of the per-gate threshold
    scatter in millivolts (``0`` disables variation entirely — the
    engine then routes through the deterministic memoized path, exactly
    reproducing :func:`repro.sta.engine.analyze_batch`).
    """

    sigma_mv: float = 30.0
    seed: int = 20170618
    clip_sigmas: float = DEFAULT_CLIP_SIGMAS

    @property
    def sigma_v(self):
        """Scatter standard deviation in volts."""
        return float(self.sigma_mv) * 1e-3

    @property
    def is_zero(self):
        return float(self.sigma_mv) == 0.0

    def gate_dvth(self, gate_uids, start, count):
        """ΔVth draws in volts: ``(len(gate_uids), count)`` float64.

        Row ``i`` holds samples ``start .. start+count`` of gate
        ``gate_uids[i]`` — clipped standard normals scaled by
        ``sigma_v``. Deterministic in ``(seed, uid, sample index)``
        only.
        """
        if self.is_zero:
            return np.zeros((len(gate_uids), count), dtype=np.float64)
        draws = _normals(self.seed, gate_uids, start, count)
        np.clip(draws, -self.clip_sigmas, self.clip_sigmas, out=draws)
        draws *= self.sigma_v
        return draws
