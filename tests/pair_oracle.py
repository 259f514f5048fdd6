"""Reference oracle for the pole-separation certificate of ``multiplicity``:
``pole_conflicts`` as it was before its pairs were screened, kept verbatim.
It runs the exact per-pair test on every pair of a row block of about
``POLE_PAIRS`` pairs; the screened kernel must give the same degree arrays.
"""

import numpy as np

from cylpack.multiplicity import _U

POLE_PAIRS = 1 << 15  # pairs per row block of pole levels and disk distances


def pole_conflicts(poles: np.ndarray, cos_a: np.ndarray, sin_a: np.ndarray,
                   antipodal: np.ndarray) -> np.ndarray:
    """Conflict degree of each pole: the other poles not certified to lie
    farther than a_i + a_j from it (from its line, when either is antipodal).

    cos a and sin a come rounded in the sound direction.  A pair is cleared
    when the level of the normalized poles lies below cos(a_i + a_j) =
    cos a_i cos a_j - sin a_i sin a_j by more than 64 d 2**-53, which exceeds
    the rounding of the normalization, of the level's dot product and of the
    threshold's products.  Levels are formed in row blocks of about
    POLE_PAIRS pairs, so memory stays flat in the number of poles.
    """
    p = poles / np.linalg.norm(poles, axis=1)[:, None]
    margin = 64.0 * p.shape[1] * _U
    degree = np.zeros(len(p), dtype=np.int64)
    step = max(1, POLE_PAIRS // len(p))
    for lo in range(0, len(p), step):
        rows = slice(lo, lo + step)
        level = p[rows] @ p.T
        np.abs(level, out=level, where=antipodal[rows, None] | antipodal[None, :])
        level -= np.outer(cos_a[rows], cos_a) - np.outer(sin_a[rows], sin_a) - margin
        hit = ~(level < 0.0)  # nan conflicts
        np.fill_diagonal(hit[:, lo:], False)
        degree[rows] = np.count_nonzero(hit, axis=1)
    return degree
