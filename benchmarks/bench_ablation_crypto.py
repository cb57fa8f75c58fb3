"""Ablation: CRT-accelerated crypto and the omega choice of Section 6.

Three design decisions get quantified here:

1. eps_1 decryption runs through a CRT fast path (half-size exponents and
   moduli per prime factor) — the classic Paillier optimization; the
   generic Damgård–Jurik recursion stays as the reference.
2. The coordinator holds the secret key, so it encrypts its indicators on
   the owner path: each nonce factor ``r^{N^s}`` is built per prime in two
   short stages (a Fermat-reduced power modulo the prime, then the
   Teichmüller lift: one ``(p - 1)`` power modulo ``p^{s+1}`` and a
   binomial series) and joined by Garner.  The public path stays the
   reference; both must give the same ciphertexts from the same rng state
   at every level measured (s = 1, 2, 3).
3. PPGNN-OPT's block count omega: the exact integer optimum of the byte
   model vs the paper's closed form sqrt(delta'/2), swept over omega to
   show the cost curve is convex with the chosen minimum.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.opt import optimal_omega, paper_omega
from repro.crypto.paillier import generate_keypair


def test_ablation_crt_decryption(settings, recorder, benchmark):
    sk, pk = generate_keypair(settings.keysize, seed=settings.seed)
    rng = random.Random(1)
    ciphertexts = [pk.encrypt(rng.randrange(pk.n), rng=rng) for _ in range(60)]

    start = time.perf_counter()
    generic = [sk.decrypt(c, use_crt=False) for c in ciphertexts]
    generic_time = time.perf_counter() - start

    start = time.perf_counter()
    crt = [sk.decrypt(c, use_crt=True) for c in ciphertexts]
    crt_time = time.perf_counter() - start

    assert generic == crt
    recorder.record(
        "ablation_crypto",
        f"Ablation: eps_1 decryption path ({settings.keysize}-bit keys, 60 ops)",
        "path",
        ["generic DJ", "CRT"],
        {
            "time": [f"{generic_time * 1000:.1f} ms", f"{crt_time * 1000:.1f} ms"],
        },
        notes=f"speedup {generic_time / crt_time:.2f}x, outputs identical",
    )
    assert crt_time < generic_time

    benchmark.pedantic(
        lambda: [sk.decrypt(c) for c in ciphertexts[:10]], rounds=3, iterations=1
    )


def test_ablation_encryption_path(settings, recorder, benchmark):
    """Public vs key-owner encryption; times are recorded, not gated."""
    sk, pk = generate_keypair(settings.keysize, seed=settings.seed)
    count = 40
    times = {"public": [], "owner": []}
    notes = []
    for s in (1, 2, 3):
        values = {}
        for name, key in (("public", pk), ("owner", sk)):
            rng = random.Random(s)
            start = time.perf_counter()
            values[name] = [key.encrypt(i % 2, s, rng).value for i in range(count)]
            times[name].append(time.perf_counter() - start)
        assert values["owner"] == values["public"]
        notes.append(f"s={s} speedup {times['public'][-1] / times['owner'][-1]:.2f}x")
    recorder.record(
        "ablation_crypto",
        f"Ablation: encryption path ({settings.keysize}-bit keys, {count} ops per level)",
        "level",
        ["s=1", "s=2", "s=3"],
        {
            path: [f"{t * 1000:.1f} ms" for t in series]
            for path, series in times.items()
        },
        notes=", ".join(notes) + "; ciphertexts identical",
    )

    benchmark.pedantic(
        lambda: [sk.encrypt(0, 1, random.Random(i)) for i in range(10)],
        rounds=3,
        iterations=1,
    )


def test_ablation_omega_sweep(settings, recorder, benchmark):
    """The byte cost over omega is minimized at optimal_omega (Eqn 18)."""
    delta_prime = 101  # the paper-default delta' (n=8, d=25, delta=100)
    m = 3

    def cost_units(omega: int) -> int:
        return 2 * math.ceil(delta_prime / omega) + 3 * omega + 3 * m

    omegas = [1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 64, 101]
    costs = [cost_units(w) for w in omegas]
    best = optimal_omega(delta_prime)
    recorder.record(
        "ablation_crypto",
        f"Ablation: omega sweep at delta'={delta_prime} (cost in keysize/2 units)",
        "omega",
        omegas,
        {"cost": [str(c) for c in costs]},
        notes=(
            f"exact optimum omega={best} (cost {cost_units(best)}); "
            f"paper closed form sqrt(delta'/2) -> {paper_omega(delta_prime)}"
        ),
    )
    assert all(cost_units(best) <= c for c in costs)
    # The paper's approximation lands within a few units of the optimum.
    assert cost_units(paper_omega(delta_prime)) <= cost_units(best) + 6

    benchmark.pedantic(lambda: optimal_omega(delta_prime), rounds=3, iterations=1)
