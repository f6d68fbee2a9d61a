"""Optional compiled fast path for the CSR hot loops.

The O(nnz) inner loops of the solver step — the exact neighbor filter
and the Density / IADVelocityDivCurl / MomentumEnergy per-entry kernels
— are also implemented as a small C library, compiled on demand with the
host toolchain (``cc``/``gcc``/``clang``) and loaded through
:mod:`ctypes`.  No third-party package is involved: when no compiler is
available (or ``REPRO_SPH_CFAST=0``), every caller silently uses the
pure-NumPy implementations, which remain the reference path.

Numerical contract
------------------
The C code mirrors the NumPy implementations operation for operation
(same expressions, same association, compiled with ``-ffp-contract=off``
so no fused multiply-adds change the rounding):

* the *neighbor filter* is bitwise identical to the NumPy filter — it
  performs the identical IEEE-754 double operations in the identical
  order, so enabling it cannot change any committed artifact;
* the *physics kernels* accumulate per CSR segment in entry order
  (matching ``np.add.reduceat``) and agree with the NumPy path to the
  1e-12 oracle tolerance (tiny 3-term dot products may associate
  differently than ``np.einsum``), which ``tests/test_csolver.py``
  asserts.  They are therefore opt-in per propagator (``accel=``), not
  ambient.

The compiled library is cached in the system temp directory keyed by a
hash of the C source, so each source revision compiles exactly once per
machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_ENV_GATE = "REPRO_SPH_CFAST"

_C_SOURCE = r"""
#define _GNU_SOURCE
#include <math.h>

/* Branchless cubic spline with the constants 1/h and sigma/h^3 hoisted
   into per-particle tables, mirroring CsrStepContext._kernel_value:
   w(q) = [0.25 max(2-q,0)^3 - max(1-q,0)^3] * sigma / h^3.  The tables
   turn ~2 divisions per candidate into loads; the r*inv_h form differs
   from r/h by one rounding, inside the 1e-12 physics oracle.          */
static double w_cubic_hoisted(double r, double inv_h, double sig_h3)
{
    double q = r * inv_h;
    double t1 = 1.0 - q;
    if (t1 < 0.0) t1 = 0.0;
    t1 = t1 * (t1 * t1);
    double t2 = 2.0 - q;
    if (t2 < 0.0) t2 = 0.0;
    t2 = t2 * (t2 * t2);
    t2 *= 0.25;
    return (t2 - t1) * sig_h3;
}

/* Exact union-cutoff candidate filter; mirrors _filter_candidates
   (same subtraction order, same minimum-image expression, same strict
   r2 < (support*max(h))^2 comparison) entry for entry.  Writes the
   compacted survivors to out_* (aliasing row/cand is safe: the write
   cursor never passes the read index) and per-label counts to counts
   (indexed by count_idx when non-NULL, by row otherwise).  ``label``,
   when non-NULL, maps the stored build labels to current particle
   indices on the fly (the Verlet cache's relabeling map), replacing
   the two O(nnz) gather passes the NumPy path materializes.           */
long long csr_filter(long long nnz, const double *pos, const double *h,
                     double length, int periodic, double support,
                     const int *row, const int *cand, const int *label,
                     const int *count_idx, int exclude_self,
                     int want_geometry, long long *counts, int *out_row,
                     int *out_cand, double *out_dx, double *out_r)
{
    double inv_len = 1.0 / length;
    double neg_len = -length;
    long long cur = 0;
    for (long long k = 0; k < nnz; k++) {
        int a = label ? label[row[k]] : row[k];
        int b = label ? label[cand[k]] : cand[k];
        double d0 = pos[3 * a] - pos[3 * b];
        double d1 = pos[3 * a + 1] - pos[3 * b + 1];
        double d2 = pos[3 * a + 2] - pos[3 * b + 2];
        if (periodic) {
            d0 += neg_len * nearbyint(d0 * inv_len);
            d1 += neg_len * nearbyint(d1 * inv_len);
            d2 += neg_len * nearbyint(d2 * inv_len);
        }
        double r2 = 0.0;
        r2 += d0 * d0;
        r2 += d1 * d1;
        r2 += d2 * d2;
        double hm = h[a] > h[b] ? h[a] : h[b];
        hm *= support;
        hm *= hm;
        if (r2 < hm && !(exclude_self && a == b)) {
            counts[count_idx ? count_idx[k] : a] += 1;
            out_row[cur] = a;
            out_cand[cur] = b;
            if (want_geometry) {
                out_dx[3 * cur] = d0;
                out_dx[3 * cur + 1] = d1;
                out_dx[3 * cur + 2] = d2;
                out_r[cur] = sqrt(r2);
            }
            cur++;
        }
    }
    return cur;
}

/* Stencil offsets along one axis, mirroring _axis_offsets (periodic
   grids of one or two cells deduplicate aliased neighbors).           */
static int axis_offsets(long long nc, int periodic, int *offs)
{
    if (periodic && nc == 1) { offs[0] = 0; return 1; }
    if (periodic && nc == 2) { offs[0] = 0; offs[1] = 1; return 2; }
    offs[0] = -1; offs[1] = 0; offs[2] = 1;
    return 3;
}

/* Fused cell-stencil candidate generation + exact cutoff filter: for
   each particle, walk the occupants of its 27-stencil cells (offsets
   nested x/y/z, occupants in cell-sorted order — the exact emission
   order of _csr_candidates) and keep survivors of the same IEEE keep
   test as csr_filter, so the output is bitwise identical to running
   the NumPy generation + filter while never materializing the raw
   O(27 nnz) candidate arrays.  Walks particles [i0, i1) only, so the
   caller can bound out_* by one block of raw candidates; counts (when
   non-NULL, indexed by particle) receives the surviving counts.       */
long long cell_filter(long long i0, long long i1, const double *pos,
                      const double *h, double length, int periodic,
                      double support,
                      long long nc0, long long nc1, long long nc2,
                      const long long *flat, const int *order,
                      const long long *cellstart, const long long *occ,
                      int exclude_self, int want_geometry,
                      long long *counts, int *out_row, int *out_cand,
                      double *out_dx, double *out_r)
{
    double inv_len = 1.0 / length;
    double neg_len = -length;
    int offs0[3], offs1[3], offs2[3];
    int m0 = axis_offsets(nc0, periodic, offs0);
    int m1 = axis_offsets(nc1, periodic, offs1);
    int m2 = axis_offsets(nc2, periodic, offs2);
    long long cur = 0;
    for (long long i = i0; i < i1; i++) {
        long long f = flat[i];
        long long cz = f % nc2;
        long long cy = (f / nc2) % nc1;
        long long cx = f / (nc2 * nc1);
        double p0 = pos[3 * i], p1 = pos[3 * i + 1], p2 = pos[3 * i + 2];
        double ha = h[i];
        long long cnt = 0;
        for (int a = 0; a < m0; a++) {
            long long nx = cx + offs0[a];
            if (periodic) nx = (nx + nc0) % nc0;
            else if (nx < 0 || nx >= nc0) continue;
            for (int b = 0; b < m1; b++) {
                long long ny = cy + offs1[b];
                if (periodic) ny = (ny + nc1) % nc1;
                else if (ny < 0 || ny >= nc1) continue;
                for (int c = 0; c < m2; c++) {
                    long long nz = cz + offs2[c];
                    if (periodic) nz = (nz + nc2) % nc2;
                    else if (nz < 0 || nz >= nc2) continue;
                    long long cell = (nx * nc1 + ny) * nc2 + nz;
                    long long s = cellstart[cell], e = s + occ[cell];
                    for (long long k = s; k < e; k++) {
                        int j = order[k];
                        if (exclude_self && j == (int) i) continue;
                        double d0 = p0 - pos[3 * j];
                        double d1 = p1 - pos[3 * j + 1];
                        double d2 = p2 - pos[3 * j + 2];
                        if (periodic) {
                            d0 += neg_len * nearbyint(d0 * inv_len);
                            d1 += neg_len * nearbyint(d1 * inv_len);
                            d2 += neg_len * nearbyint(d2 * inv_len);
                        }
                        double r2 = 0.0;
                        r2 += d0 * d0;
                        r2 += d1 * d1;
                        r2 += d2 * d2;
                        double hm = ha > h[j] ? ha : h[j];
                        hm *= support;
                        hm *= hm;
                        if (r2 < hm) {
                            cnt++;
                            out_row[cur] = (int) i;
                            out_cand[cur] = j;
                            if (want_geometry) {
                                out_dx[3 * cur] = d0;
                                out_dx[3 * cur + 1] = d1;
                                out_dx[3 * cur + 2] = d2;
                                out_r[cur] = sqrt(r2);
                            }
                            cur++;
                        }
                    }
                }
            }
        }
        if (counts) counts[i] = cnt;
    }
    return cur;
}

/* Density: rho[t] = sum_j m_j W(r, h_t) per segment (self term added by
   the caller).  Accumulation is sequential in entry order, matching
   np.add.reduceat.                                                    */
void csr_density(long long nseg, const long long *off, const int *row,
                 const int *cand, const double *r, const double *h,
                 const double *mass, double sigma, double *out)
{
    for (long long s = 0; s < nseg; s++) {
        long long a = off[s], b = off[s + 1];
        if (a == b) continue;
        int t = row[a];
        double ht = h[t];
        double inv_h = 1.0 / ht;
        double sig_h3 = sigma / (ht * (ht * ht));
        double acc = 0.0;
        for (long long k = a; k < b; k++)
            acc += mass[cand[k]] * w_cubic_hoisted(r[k], inv_h, sig_h3);
        out[t] = acc;
    }
}

/* The six unique tau entries per particle (IAD moment matrix), with
   d = x_col - x_row = -dx and the volume-weighted own-h kernel value. */
void csr_tau(long long nseg, const long long *off, const int *row,
             const int *cand, const double *dx, const double *r,
             const double *h, const double *mass, const double *rho,
             double sigma, double *out6)
{
    for (long long s = 0; s < nseg; s++) {
        long long a = off[s], b = off[s + 1];
        if (a == b) continue;
        int t = row[a];
        double ht = h[t];
        double inv_h = 1.0 / ht;
        double sig_h3 = sigma / (ht * (ht * ht));
        double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0, t4 = 0.0, t5 = 0.0;
        for (long long k = a; k < b; k++) {
            int c = cand[k];
            double vw = mass[c];
            vw /= rho[c];
            vw *= w_cubic_hoisted(r[k], inv_h, sig_h3);
            double d0 = -dx[3 * k];
            double d1 = -dx[3 * k + 1];
            double d2 = -dx[3 * k + 2];
            t0 += (d0 * d0) * vw;
            t1 += (d0 * d1) * vw;
            t2 += (d0 * d2) * vw;
            t3 += (d1 * d1) * vw;
            t4 += (d1 * d2) * vw;
            t5 += (d2 * d2) * vw;
        }
        out6[6 * t] = t0;
        out6[6 * t + 1] = t1;
        out6[6 * t + 2] = t2;
        out6[6 * t + 3] = t3;
        out6[6 * t + 4] = t4;
        out6[6 * t + 5] = t5;
    }
}

/* Velocity divergence and curl with the IAD-corrected gradients
   A_own = (C_row d) W(r, h_row), d = x_col - x_row.                   */
void csr_divcurl(long long nseg, const long long *off, const int *row,
                 const int *cand, const double *dx, const double *r,
                 const double *h, const double *mass, const double *rho,
                 const double *vel, const double *ciad, double sigma,
                 double *div_out, double *curl_out)
{
    for (long long s = 0; s < nseg; s++) {
        long long a = off[s], b = off[s + 1];
        if (a == b) continue;
        int t = row[a];
        double ht = h[t];
        double inv_h = 1.0 / ht;
        double sig_h3 = sigma / (ht * (ht * ht));
        double rho_t = rho[t];
        const double *C = ciad + 9 * (long long) t;
        double v0 = vel[3 * t], v1 = vel[3 * t + 1], v2 = vel[3 * t + 2];
        double dv = 0.0, c0 = 0.0, c1 = 0.0, c2 = 0.0;
        for (long long k = a; k < b; k++) {
            int c = cand[k];
            double d0 = -dx[3 * k];
            double d1 = -dx[3 * k + 1];
            double d2 = -dx[3 * k + 2];
            double w = w_cubic_hoisted(r[k], inv_h, sig_h3);
            double a0 = (C[0] * d0 + C[1] * d1 + C[2] * d2) * w;
            double a1 = (C[3] * d0 + C[4] * d1 + C[5] * d2) * w;
            double a2 = (C[6] * d0 + C[7] * d1 + C[8] * d2) * w;
            double vj0 = vel[3 * c] - v0;
            double vj1 = vel[3 * c + 1] - v1;
            double vj2 = vel[3 * c + 2] - v2;
            double mor = mass[c] / rho_t;
            dv += (vj0 * a0 + vj1 * a1 + vj2 * a2) * mor;
            c0 += (vj1 * a2 - vj2 * a1) * mor;
            c1 += (vj2 * a0 - vj0 * a2) * mor;
            c2 += (vj0 * a1 - vj1 * a0) * mor;
        }
        div_out[t] = dv;
        curl_out[3 * t] = c0;
        curl_out[3 * t + 1] = c1;
        curl_out[3 * t + 2] = c2;
    }
}

/* Momentum + energy + signal velocity, one fused pass.  pr is the
   per-particle P/(Omega rho^2); bal the Balsara factors (NULL when the
   switch is off); v_sig_out receives the per-segment maximum (caller
   combines with the particle's own sound speed).                      */
void csr_momentum(long long nseg, const long long *off, const int *row,
                  const int *cand, const double *dx, const double *r,
                  const double *inv_hs, const double *sig_h3s,
                  const double *mass, const double *rho,
                  const double *pr, const double *snd, const double *bal,
                  const double *vel, const double *ciad,
                  double av_alpha, double *acc_out, double *du_out,
                  double *vsig_out)
{
    double neg_half_alpha = -0.5 * av_alpha;
    for (long long s = 0; s < nseg; s++) {
        long long a = off[s], b = off[s + 1];
        if (a == b) continue;
        int t = row[a];
        double inv_h = inv_hs[t];
        double sig_h3 = sig_h3s[t];
        double pr_t = pr[t];
        double c_t = snd[t];
        double rho_t = rho[t];
        double bal_t = bal ? bal[t] : 0.0;
        const double *Ct = ciad + 9 * (long long) t;
        double v0 = vel[3 * t], v1 = vel[3 * t + 1], v2 = vel[3 * t + 2];
        double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0;
        double du = 0.0, vs_max = 0.0;
        for (long long k = a; k < b; k++) {
            int c = cand[k];
            double x0 = dx[3 * k];
            double x1 = dx[3 * k + 1];
            double x2 = dx[3 * k + 2];
            double d0 = -x0, d1 = -x1, d2 = -x2;
            double rk = r[k];
            double w_own = w_cubic_hoisted(rk, inv_h, sig_h3);
            double w_oth = w_cubic_hoisted(rk, inv_hs[c], sig_h3s[c]);
            const double *Cc = ciad + 9 * (long long) c;
            double ao0 = (Ct[0] * d0 + Ct[1] * d1 + Ct[2] * d2) * w_own;
            double ao1 = (Ct[3] * d0 + Ct[4] * d1 + Ct[5] * d2) * w_own;
            double ao2 = (Ct[6] * d0 + Ct[7] * d1 + Ct[8] * d2) * w_own;
            double ac0 = (Cc[0] * d0 + Cc[1] * d1 + Cc[2] * d2) * w_oth;
            double ac1 = (Cc[3] * d0 + Cc[4] * d1 + Cc[5] * d2) * w_oth;
            double ac2 = (Cc[6] * d0 + Cc[7] * d1 + Cc[8] * d2) * w_oth;
            double ab0 = 0.5 * (ao0 + ac0);
            double ab1 = 0.5 * (ao1 + ac1);
            double ab2 = 0.5 * (ao2 + ac2);
            double vi0 = v0 - vel[3 * c];
            double vi1 = v1 - vel[3 * c + 1];
            double vi2 = v2 - vel[3 * c + 2];
            double rs = rk > 1e-300 ? rk : 1e-300;
            double w_pair = (vi0 * x0 + vi1 * x1 + vi2 * x2) / rs;
            double v_sig = c_t + snd[c] - 3.0 * w_pair;
            double rho_bar = 0.5 * (rho_t + rho[c]);
            double visc = v_sig * w_pair;
            visc *= neg_half_alpha;
            if (bal) {
                double xi = 0.5 * (bal_t + bal[c]);
                visc *= xi;
            }
            visc /= rho_bar;
            if (w_pair >= 0.0) visc = 0.0;
            double pr_c = pr[c];
            double t0 = pr_t * ao0 + pr_c * ac0 + visc * ab0;
            double t1 = pr_t * ao1 + pr_c * ac1 + visc * ab1;
            double t2 = pr_t * ao2 + pr_c * ac2 + visc * ab2;
            double m_c = mass[c];
            acc0 -= m_c * t0;
            acc1 -= m_c * t1;
            acc2 -= m_c * t2;
            double gdo = vi0 * ao0 + vi1 * ao1 + vi2 * ao2;
            double gdb = vi0 * ab0 + vi1 * ab1 + vi2 * ab2;
            gdb *= visc;
            gdb *= 0.5;
            double du_k = gdo * pr_t;
            du_k += gdb;
            du += du_k * m_c;
            if (k == a || v_sig > vs_max) vs_max = v_sig;
        }
        acc_out[3 * t] = acc0;
        acc_out[3 * t + 1] = acc1;
        acc_out[3 * t + 2] = acc2;
        du_out[t] = du;
        vsig_out[t] = vs_max;
    }
}

/* Regularized symmetric 3x3 inversion of the tau moment matrices,
   mirroring _invert_tau: a near-singular matrix (|det| below
   1e-10 scale^3, scale = max(trace/3, 1e-30)) gets 1e-6 scale added
   to its diagonal, then the closed-form adjugate inverse.  Agrees
   with np.linalg.inv to LU-vs-adjugate round-off.                     */
void tau_invert(long long n, const double *e6, double *out9)
{
    for (long long i = 0; i < n; i++) {
        const double *t = e6 + 6 * i;
        double a = t[0], b = t[1], c = t[2];
        double d = t[3], e = t[4], f = t[5];
        double trace = a + d + f;
        double scale = trace / 3.0;
        if (scale < 1e-30) scale = 1e-30;
        double c00 = d * f - e * e;
        double c01 = c * e - b * f;
        double c02 = b * e - c * d;
        double det = a * c00 + b * c01 + c * c02;
        double s3 = scale * (scale * scale);
        if (fabs(det) < 1e-10 * s3) {
            double reg = 1e-6 * scale;
            a += reg; d += reg; f += reg;
            c00 = d * f - e * e;
            c01 = c * e - b * f;
            c02 = b * e - c * d;
            det = a * c00 + b * c01 + c * c02;
        }
        double inv_det = 1.0 / det;
        double i00 = c00 * inv_det;
        double i01 = c01 * inv_det;
        double i02 = c02 * inv_det;
        double i11 = (a * f - c * c) * inv_det;
        double i12 = (b * c - a * e) * inv_det;
        double i22 = (a * d - b * b) * inv_det;
        double *o = out9 + 9 * i;
        o[0] = i00; o[1] = i01; o[2] = i02;
        o[3] = i01; o[4] = i11; o[5] = i12;
        o[6] = i02; o[7] = i12; o[8] = i22;
    }
}
"""

_I64 = ctypes.c_longlong
_F64 = ctypes.c_double
_P = ctypes.c_void_p

_SIGNATURES = {
    "csr_filter": (
        _I64,
        [_I64, _P, _P, _F64, ctypes.c_int, _F64, _P, _P, _P, _P,
         ctypes.c_int, ctypes.c_int, _P, _P, _P, _P, _P],
    ),
    "cell_filter": (
        _I64,
        [_I64, _I64, _P, _P, _F64, ctypes.c_int, _F64, _I64, _I64, _I64,
         _P, _P, _P, _P, ctypes.c_int, ctypes.c_int, _P, _P, _P, _P, _P],
    ),
    "tau_invert": (None, [_I64, _P, _P]),
    "csr_density": (None, [_I64, _P, _P, _P, _P, _P, _P, _F64, _P]),
    "csr_tau": (None, [_I64, _P, _P, _P, _P, _P, _P, _P, _P, _F64, _P]),
    "csr_divcurl": (
        None, [_I64, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _F64, _P, _P],
    ),
    "csr_momentum": (
        None,
        [_I64, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P,
         _F64, _P, _P, _P],
    ),
}

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"]

#: Preferred extra flags, dropped if the toolchain rejects them.  On
#: baseline x86-64 (SSE2) ``nearbyint`` is a libm call per component in
#: the filter's min-image wrap; ``-march=native`` lets the compiler
#: inline it as a single round instruction.  Bitwise-safe alongside
#: ``-ffp-contract=off``: IEEE add/mul/div/sqrt and round-to-nearest are
#: exact regardless of instruction selection, and contraction stays off.
_CFLAGS_OPT = ["-march=native"]

_lib: ctypes.CDLL | None = None
_load_attempted = False


def _find_compiler() -> str | None:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def _compile() -> ctypes.CDLL | None:
    cc = _find_compiler()
    if cc is None:
        return None
    tag = _C_SOURCE + "\x00" + " ".join(_CFLAGS + _CFLAGS_OPT)
    digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
    cache = Path(tempfile.gettempdir()) / f"repro-csolver-{digest}"
    so_path = cache / "libcsolver.so"
    if not so_path.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            src = cache / "csolver.c"
            src.write_text(_C_SOURCE)
            tmp_so = cache / f"libcsolver-{os.getpid()}.so"
            try:
                subprocess.run(
                    [cc, *_CFLAGS, *_CFLAGS_OPT, str(src), "-o",
                     str(tmp_so), "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
            except subprocess.SubprocessError:
                subprocess.run(
                    [cc, *_CFLAGS, str(src), "-o", str(tmp_so), "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
            os.replace(tmp_so, so_path)  # atomic under concurrent builds
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def load() -> ctypes.CDLL | None:
    """The compiled library, or ``None`` when unavailable/disabled."""
    global _lib, _load_attempted
    if os.environ.get(_ENV_GATE, "1") in ("0", "never", "off"):
        return None
    if not _load_attempted:
        _load_attempted = True
        _lib = _compile()
    return _lib


def resolve(accel: str):
    """Map a propagator ``accel`` mode to a library handle (or ``None``).

    ``"numpy"`` never compiles; ``"auto"`` uses the library when it is
    available; ``"c"`` demands it (raises when it cannot be built).
    """
    from repro.errors import SimulationError

    if accel == "numpy":
        return None
    if accel not in ("auto", "c"):
        raise SimulationError(
            f"accel must be 'numpy', 'auto' or 'c', got {accel!r}"
        )
    lib = load()
    if lib is None and accel == "c":
        raise SimulationError(
            "accel='c' requested but no C toolchain is available "
            "(install cc/gcc, or use accel='auto' to fall back)"
        )
    return lib


def _ptr(arr: np.ndarray | None):
    if arr is None:
        return None
    return arr.ctypes.data


def _c64(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 view/copy (no-op for conforming arrays).

    Callers must keep the returned array referenced until after the
    foreign call: passing ``_ptr(_c64(x))`` inline would free a copy
    before C reads through the pointer.
    """
    return np.ascontiguousarray(arr, dtype=np.float64)


def filter_candidates(
    lib,
    pos: np.ndarray,
    h: np.ndarray,
    length: float,
    periodic: bool,
    support: float,
    row: np.ndarray,
    cand: np.ndarray,
    counts: np.ndarray,
    out_row: np.ndarray,
    out_cand: np.ndarray,
    out_dx: np.ndarray | None,
    out_r: np.ndarray | None,
    count_idx: np.ndarray | None,
    exclude_self: bool,
    label: np.ndarray | None = None,
) -> int:
    """Run the compiled exact filter; returns the surviving entry count.

    ``label``, when given, maps the build-time labels in ``row``/``cand``
    to current particle indices inside the loop, replacing the NumPy
    path's two materialized ``np.take`` translation passes.
    """
    return lib.csr_filter(
        len(cand), _ptr(pos), _ptr(h), length, int(periodic), support,
        _ptr(row), _ptr(cand), _ptr(label), _ptr(count_idx),
        int(exclude_self), int(out_dx is not None), _ptr(counts),
        _ptr(out_row), _ptr(out_cand), _ptr(out_dx), _ptr(out_r),
    )


def cell_filter(
    lib,
    start: int,
    stop: int,
    pos: np.ndarray,
    h: np.ndarray,
    length: float,
    periodic: bool,
    support: float,
    ncell: np.ndarray,
    flat: np.ndarray,
    order: np.ndarray,
    cellstart: np.ndarray,
    occ: np.ndarray,
    counts: np.ndarray | None,
    out_row: np.ndarray,
    out_cand: np.ndarray,
    out_dx: np.ndarray | None,
    out_r: np.ndarray | None,
    exclude_self: bool,
) -> int:
    """The fused stencil walk + exact filter of particles ``[start, stop)``.

    Survivors are written from the start of ``out_*``; returns their count.
    """
    return lib.cell_filter(
        start, stop, _ptr(pos), _ptr(h), length, int(periodic), support,
        int(ncell[0]), int(ncell[1]), int(ncell[2]),
        _ptr(flat), _ptr(order), _ptr(cellstart), _ptr(occ),
        int(exclude_self), int(out_dx is not None), _ptr(counts),
        _ptr(out_row), _ptr(out_cand), _ptr(out_dx), _ptr(out_r),
    )


def tau_invert(lib, entries: np.ndarray) -> np.ndarray:
    """Regularized inverses of the six-entry symmetric tau matrices."""
    n = len(entries)
    out = np.empty((n, 3, 3))
    entries_c = _c64(entries)
    lib.tau_invert(n, _ptr(entries_c), _ptr(out))
    return out


def density(lib, ctx, mass: np.ndarray, sigma: float) -> np.ndarray:
    csr = ctx.csr
    out = np.zeros(ctx.n_particles)
    h_c, mass_c = _c64(ctx.h), _c64(mass)
    lib.csr_density(
        len(csr.offsets) - 1, _ptr(csr.offsets), _ptr(csr.row),
        _ptr(csr.indices), _ptr(csr.r), _ptr(h_c), _ptr(mass_c),
        sigma, _ptr(out),
    )
    return out


def tau(lib, ctx, mass, rho, sigma: float) -> np.ndarray:
    csr = ctx.csr
    out = np.zeros((ctx.n_particles, 6))
    h_c, mass_c, rho_c = _c64(ctx.h), _c64(mass), _c64(rho)
    lib.csr_tau(
        len(csr.offsets) - 1, _ptr(csr.offsets), _ptr(csr.row),
        _ptr(csr.indices), _ptr(csr.dx), _ptr(csr.r), _ptr(h_c),
        _ptr(mass_c), _ptr(rho_c), sigma, _ptr(out),
    )
    return out


def divcurl(
    lib, ctx, mass, rho, vel, c_iad, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    csr = ctx.csr
    div_out = np.zeros(ctx.n_particles)
    curl_out = np.zeros((ctx.n_particles, 3))
    h_c, mass_c, rho_c = _c64(ctx.h), _c64(mass), _c64(rho)
    vel_c, ciad_c = _c64(vel), _c64(c_iad)
    lib.csr_divcurl(
        len(csr.offsets) - 1, _ptr(csr.offsets), _ptr(csr.row),
        _ptr(csr.indices), _ptr(csr.dx), _ptr(csr.r), _ptr(h_c),
        _ptr(mass_c), _ptr(rho_c), _ptr(vel_c),
        _ptr(ciad_c), sigma, _ptr(div_out), _ptr(curl_out),
    )
    return div_out, curl_out


def momentum(
    lib, ctx, mass, rho, pr, snd, bal, vel, c_iad, sigma: float,
    av_alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    csr = ctx.csr
    acc_out = np.zeros((ctx.n_particles, 3))
    du_out = np.zeros(ctx.n_particles)
    vsig_out = np.zeros(ctx.n_particles)
    h_c, mass_c, rho_c = _c64(ctx.h), _c64(mass), _c64(rho)
    pr_c, snd_c, vel_c, ciad_c = _c64(pr), _c64(snd), _c64(vel), _c64(c_iad)
    bal_c = _c64(bal) if bal is not None else None
    # Hoisted spline tables: 1/h and sigma/h^3 per particle (both sides
    # of every pair read them, so the kernel's inner loop is division
    # free for the spline).
    inv_hs = _c64(1.0 / h_c)
    sig_h3s = _c64(sigma / (h_c * (h_c * h_c)))
    lib.csr_momentum(
        len(csr.offsets) - 1, _ptr(csr.offsets), _ptr(csr.row),
        _ptr(csr.indices), _ptr(csr.dx), _ptr(csr.r),
        _ptr(inv_hs), _ptr(sig_h3s),
        _ptr(mass_c), _ptr(rho_c), _ptr(pr_c), _ptr(snd_c),
        _ptr(bal_c), _ptr(vel_c),
        _ptr(ciad_c), av_alpha, _ptr(acc_out), _ptr(du_out),
        _ptr(vsig_out),
    )
    return acc_out, du_out, vsig_out
