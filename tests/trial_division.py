"""Trial-division oracles shared by the tests: each value is computed from
the factorisation of one integer, independent of the sieve and of the
library's own per-integer helpers."""

import math


def trial_factorize(n):
    """[(p, e), ...] with ascending p, for n >= 1 (empty at n = 1)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_von_mangoldt(n):
    """log p if n = p^k with k >= 1, else 0.0."""
    fac = trial_factorize(n) if n >= 1 else []
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def trial_kappa(n):
    """The square-free kernel: the product of the primes dividing n."""
    return math.prod(p for p, _ in trial_factorize(n))


def trial_phi(n):
    """Euler phi from the factorisation."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in trial_factorize(n))
