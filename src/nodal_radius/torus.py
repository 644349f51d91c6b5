"""Sparse real trigonometric polynomials on the d-torus.

A polynomial is a finite Hermitian-symmetric table of complex amplitudes
over integer frequency vectors (the zero frequency excluded, so the mean
vanishes). The module provides evaluation, the frequency-shell structure,
the shell-counting and per-term zero-radius bounds, and the ball-indicator
smoothing operator that exactly annihilates the top frequency shell.

Frequencies are plain tuples of ints; shell membership is decided on the
exact integer squared norm, never on floating-point norms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .specfun import ball_volume, bessel_first_zero, bessel_j

_HERMITIAN_TOL = 1e-12


def _as_key(k) -> tuple:
    key = tuple(int(c) for c in k)
    if any(c != float(orig) for c, orig in zip(key, k)):
        raise ValueError(f"frequency vector must have integer components, got {k!r}")
    return key


def _neg(k: tuple) -> tuple:
    return tuple(-c for c in k)


def _cosine_grid(axes, ks, coefs) -> np.ndarray:
    """Re sum_w c_w prod_i exp(i k_{w,i} x_i) on the product grid of ``axes``.

    ``ks`` is a (W, d) array of angular frequencies and ``coefs`` holds the
    W complex coefficients; the result has shape (len(axes[0]), ...,
    len(axes[-1])). Each axis gets a (W, n_i) table of exp(i k_{w,i} x_i);
    the leading axes' tables are multiplied out, coefficient first, into
    (W, n_0 ... n_{d-2}) products, and one real matrix product with the
    last axis's table sums over w.
    """
    ks = np.asarray(ks, dtype=float)
    tables = [np.exp(1j * np.multiply.outer(ks[:, i], x)) for i, x in enumerate(axes)]
    lead = np.asarray(coefs, dtype=complex)[:, None]
    for tab in tables[:-1]:
        lead = (lead[:, :, None] * tab[:, None, :]).reshape(len(lead), -1)
    last = tables[-1]
    out = lead.real.T @ last.real - lead.imag.T @ last.imag
    return out.reshape([len(x) for x in axes])


class TrigPoly:
    """Real-valued trigonometric polynomial sum_k a_k exp(2 pi i <k, x>).

    The coefficient table must be Hermitian (a_{-k} = conj(a_k), both keys
    stored), must not contain the zero frequency, and must be nonempty.
    Instances are immutable.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        table = {}
        for k, a in dict(coeffs).items():
            key = _as_key(k)
            if len(key) != dim:
                raise ValueError(f"frequency {key} does not match dim={dim}")
            table[key] = complex(a)
        if not table:
            raise ValueError("coefficient table must be nonempty")
        if (0,) * dim in table:
            raise ValueError("zero frequency not allowed (mean value must be 0)")
        scale = max(abs(a) for a in table.values())
        for k, a in table.items():
            mate = table.get(_neg(k))
            if mate is None:
                raise ValueError(f"missing conjugate partner for frequency {k}")
            if abs(mate - a.conjugate()) > _HERMITIAN_TOL * scale:
                raise ValueError(f"Hermitian symmetry violated at frequency {k}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "coeffs", MappingProxyType(table))

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, terms={len(self.coeffs)})"

    @classmethod
    def from_cosines(cls, dim: int, terms) -> "TrigPoly":
        """Build from (k, amplitude, phase) triples: sum amp*cos(2 pi <k,x> + phase)."""
        table: dict = {}
        for k, amp, phase in terms:
            key = _as_key(k)
            half = 0.5 * amp * complex(math.cos(phase), math.sin(phase))
            table[key] = table.get(key, 0j) + half
            table[_neg(key)] = table.get(_neg(key), 0j) + half.conjugate()
        return cls(dim, table)

    def eval(self, x) -> float:
        """Value at a point of the torus (coordinates taken mod 1 implicitly)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        total = 0j
        for k, a in self.coeffs.items():
            total += a * np.exp(2j * np.pi * float(np.dot(k, x)))
        return float(total.real)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, dim) array of points."""
        pts = np.asarray(pts, dtype=float)
        keys = np.array(list(self.coeffs.keys()), dtype=float)
        amps = np.array(list(self.coeffs.values()))
        phases = pts @ keys.T  # (N, nkeys)
        return (np.exp(2j * np.pi * phases) @ amps).real

    def eval_grid(self, resolution: int) -> np.ndarray:
        """Values on the uniform grid (i_1/N, ..., i_d/N), shape (N,)*dim.

        Sampled by the separable kernel ``_cosine_grid`` with one term per
        +-k pair: the representative k at angular frequency 2 pi k with
        coefficient a_k + conj(a_{-k}), whose real part is that of the pair
        even where the table is Hermitian only to within ``_HERMITIAN_TOL``.
        """
        n = int(resolution)
        reps = [k for k in self.coeffs if _is_representative(k)]
        coefs = [self.coeffs[k] + self.coeffs[_neg(k)].conjugate() for k in reps]
        return _cosine_grid([np.arange(n) / n] * self.dim, 2.0 * np.pi * np.array(reps), coefs)

    def shells(self) -> "ShellSet":
        return shells(self)


@dataclass(frozen=True)
class ShellSet:
    """Distinct Euclidean norms of the stored frequencies, ascending."""

    norms: tuple
    norms_sq: tuple  # exact integer squared norms, same order

    def __len__(self):
        return len(self.norms)

    @property
    def top(self) -> float:
        return self.norms[-1]

    @property
    def top_sq(self) -> int:
        return self.norms_sq[-1]


def shells(f: TrigPoly) -> ShellSet:
    """Frequency shells of f; norms equal within float tolerance merge exactly
    because membership is decided on the integer squared norm."""
    sq = sorted({sum(c * c for c in k) for k in f.coeffs})
    return ShellSet(norms=tuple(math.sqrt(s) for s in sq), norms_sq=tuple(sq))


def bound_theorem1(f: TrigPoly) -> float:
    """Zero-radius bound d^(3/2) * sum over shells of 1/lambda."""
    return f.dim ** 1.5 * sum(1.0 / lam for lam in shells(f).norms)


def bound_kozma(f: TrigPoly) -> float:
    """Zero-radius bound (1/4) * sum over all stored frequencies of 1/||k||.

    The sum runs over the full symmetric frequency set, counting k and -k
    separately, following the statement it implements literally.
    """
    return 0.25 * sum(1.0 / math.sqrt(sum(c * c for c in k)) for k in f.coeffs)


def ball_multiplier(delta: float, k, d: int) -> float:
    """Fourier coefficient of the indicator of the ball B(0, delta) in R^d.

    For k != 0 this is delta^(d/2) ||k||^(-d/2) J_{d/2}(2 pi ||k|| delta);
    the d-dependent constant is exactly 1 in this normalization, which is
    pinned by the k -> 0 limit equalling the ball mass omega_d delta^d and
    validated against direct quadrature oracles in the tests.
    """
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError(f"ball radius must be positive, got {delta!r}")
    knorm = math.sqrt(sum(float(c) ** 2 for c in np.atleast_1d(k)))
    if knorm == 0.0:
        return ball_volume(d) * delta**d
    return delta ** (d / 2.0) * knorm ** (-d / 2.0) * bessel_j(d / 2.0, 2.0 * math.pi * knorm * delta)


def delta_star(f: TrigPoly) -> float:
    """Smoothing radius j_{d/2,1} / (2 pi lambda_n) for the top shell lambda_n."""
    return bessel_first_zero(f.dim / 2.0) / (2.0 * math.pi * shells(f).top)


def smooth_top_shell(f: TrigPoly) -> TrigPoly:
    """Convolve f with the periodized ball indicator of radius delta_star.

    On the Fourier side every coefficient is multiplied by the indicator
    transform; coefficients on the top shell are exactly zeroed (their
    multiplier vanishes analytically), so the shell count drops by one.
    Requires at least two shells, and a top shell fine enough that
    delta_star < 1/2.
    """
    sh = shells(f)
    if len(sh) < 2:
        raise ValueError(
            "smooth_top_shell needs at least 2 shells; a single-shell polynomial "
            "is already an eigenfunction"
        )
    ds = delta_star(f)
    if not ds < 0.5:
        raise ValueError(
            f"delta_star = {ds:.4f} >= 1/2: top shell lambda_n = {sh.top:.4f} is too "
            "coarse for the periodized ball smoothing"
        )
    top_sq = sh.top_sq
    new_coeffs = {}
    for k, a in f.coeffs.items():
        if sum(c * c for c in k) == top_sq:
            continue  # analytically zero; hard-drop to avoid 1e-17 residue
        new_coeffs[k] = a * ball_multiplier(ds, k, f.dim)
    return TrigPoly(f.dim, new_coeffs)


# ----------------------------------------------------------------------
# JSON serialization: one representative per +-k pair
# ----------------------------------------------------------------------


def _is_representative(k: tuple) -> bool:
    for c in k:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def to_json(f: TrigPoly) -> str:
    terms = []
    for k, a in sorted(f.coeffs.items()):
        if _is_representative(k):
            terms.append({"k": list(k), "re": a.real, "im": a.imag})
    return json.dumps({"dim": f.dim, "terms": terms})


def from_json(text: str) -> TrigPoly:
    """Load a TrigPoly; the conjugate partner of each stored term is synthesized."""
    data = json.loads(text)
    return from_dict(data)


def from_dict(data) -> TrigPoly:
    if not isinstance(data, dict):
        raise ValueError("TrigPoly JSON must be an object")
    if "dim" not in data:
        raise ValueError("TrigPoly JSON missing field 'dim'")
    if "terms" not in data or not isinstance(data["terms"], list):
        raise ValueError("TrigPoly JSON missing field 'terms' (a list)")
    dim = data["dim"]
    table: dict = {}
    for i, term in enumerate(data["terms"]):
        for field in ("k", "re", "im"):
            if field not in term:
                raise ValueError(f"terms[{i}] missing field {field!r}")
        key = _as_key(term["k"])
        a = complex(float(term["re"]), float(term["im"]))
        table[key] = table.get(key, 0j) + a
        table[_neg(key)] = table.get(_neg(key), 0j) + a.conjugate()
    return TrigPoly(dim, table)
