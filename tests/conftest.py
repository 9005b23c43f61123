import itertools

import numpy as np


def loop_contract(a, b):
    """Last axis of ``a`` against the first axis of ``b``, by nested loops.

    A reference written independently of the kernel: every output entry is
    the explicit sum over the paired index.
    """
    out = np.zeros(a.shape[:-1] + b.shape[1:])
    for fa in itertools.product(*(range(k) for k in a.shape[:-1])):
        for fb in itertools.product(*(range(k) for k in b.shape[1:])):
            total = 0.0
            for k in range(b.shape[0]):
                total += a[fa + (k,)] * b[(k,) + fb]
            out[fa + fb] = total
    return out
