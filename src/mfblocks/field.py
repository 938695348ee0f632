"""Exact arithmetic in the finite field F_{ell^d}.

Elements are plain ints in [0, ell^d): the base-ell packed little-endian
digit vector of the polynomial representative of degree < d.  `digits` and
`undigits` are the one array codec of that layout (the D-vectors of `groups`
are base-ell digit vectors too, and use it).  All arithmetic
is exact; the modulus and the multiplicative generator are chosen
deterministically so every downstream value is reproducible bit for bit.

Callers choose the degree for the roots of unity a layer needs: the label
field F_ell(zeta_r) for the label model, and F_{ell^d}, which also holds
zeta_p, for the group algebra.
"""

from __future__ import annotations

import numpy as np

# Fields up to this many elements multiply through exp/log tables; the
# vector kernels of larger ones run the table-free product, which also
# builds the tables in log2(q) doublings.
_TABLE_LIMIT = 1 << 18


def _reduce(x: np.ndarray, ell: int) -> None:
    """x mod ell in place; floor division runs vectorized where the
    remainder ufunc does not."""
    x -= (x // ell) * ell


def digits(x, ell: int, n: int, axis: int = -1,
           dtype=np.int64) -> np.ndarray:
    """The n little-endian base-ell digits of the non-negative ints
    x < ell^n, along a new axis at position axis.

    One pass: the quotient is carried in the narrowest signed type that
    holds ell^n and each digit is written in place into one output.
    """
    x = np.asarray(x)
    axis = axis % (x.ndim + 1)
    out = np.empty(x.shape[:axis] + (n,) + x.shape[axis:], dtype=dtype)
    planes = np.moveaxis(out, axis, 0)
    rest = x.astype(np.min_scalar_type(-(ell ** n)))
    for s in range(n - 1):
        high = rest // ell
        rest -= high * ell
        planes[s] = rest
        rest = high
    planes[n - 1] = rest
    return out


def digit_sum(a, b, ell: int, n: int) -> np.ndarray:
    """a + b digit by digit mod ell, with no carry, for packed base-ell
    ints below ell^n that broadcast: XOR at ell = 2.  The digit axis
    leads, so operands of unequal rank are first broadcast in full."""
    if ell == 2:
        return a ^ b
    if np.ndim(a) != np.ndim(b):
        a, b = np.broadcast_arrays(a, b)
    dtype = np.min_scalar_type(2 * ell)
    s = digits(a, ell, n, 0, dtype) + digits(b, ell, n, 0, dtype)
    # unsigned, s - ell wraps above s exactly where s < ell
    return undigits(np.minimum(s, s - ell), ell, axis=0)


def undigits(D, ell: int, axis: int = -1) -> np.ndarray:
    """The int64 packing of base-ell digits in [0, ell) along axis, the
    inverse of digits."""
    D = np.moveaxis(np.asarray(D), axis, 0)
    out = D[-1].astype(np.int64)
    for s in range(len(D) - 2, -1, -1):
        out *= ell
        out += D[s]
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays <= 3^24 here)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _poly_divmod(num: list[int], den: list[int], ell: int) -> tuple[list[int], list[int]]:
    """Divide digit-coefficient polynomials over F_ell (little-endian lists)."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, ell)
    quo = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - dd - 1, -1, -1):
        c = (num[k + dd] * inv_lead) % ell
        if c:
            quo[k] = c
            for i, dc in enumerate(den):
                num[k + i] = (num[k + i] - c * dc) % ell
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quo, num


def _poly_mulmod(a: list[int], b: list[int], f: list[int],
                 ell: int) -> list[int]:
    """a b mod f over F_ell (little-endian lists)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % ell
    return _poly_divmod(prod, f, ell)[1]


def _poly_is_irreducible(coeffs: list[int], ell: int) -> bool:
    """Ben-Or's form of Rabin's test: a monic f of degree d is
    irreducible iff gcd(x^(ell^i) - x mod f, f) = 1 for every i <= d/2,
    since a reducible f has an irreducible factor of degree i <= d/2,
    and that factor divides x^(ell^i) - x."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    if d == 1:
        return True
    if coeffs[0] == 0:
        return False
    h = [0, 1]
    for _ in range(d // 2):
        # h = x^(ell^i) mod f, one ell-th power a step
        acc = [1]
        for _ in range(ell):
            acc = _poly_mulmod(acc, h, coeffs, ell)
        h = acc
        # Euclid on f and h - x; a remainder comes back trimmed
        g, rem = list(coeffs), h + [0] * (2 - len(h))
        rem[1] = (rem[1] - 1) % ell
        while any(rem):
            while rem[-1] == 0:
                rem.pop()
            g, rem = rem, _poly_divmod(g, rem, ell)[1]
        if len(g) > 1:
            return False
    return True


class FieldContext:
    """Immutable context for F_{ell^d}: modulus, generator, lookup tables."""

    def __init__(self, ell: int, d: int, modulus: tuple[int, ...], generator: int,
                 build_tables: bool = True):
        self.ell = ell
        self.d = d
        self.order = ell**d
        self.modulus = modulus  # length d+1, little-endian, monic
        self.generator = generator
        self.zero = 0
        self.one = 1 % self.order
        # the digits of x^d = -(modulus below degree d)
        self._fold = [(-c) % ell for c in modulus[:d]]
        # at ell = 2, x^d and its fold as one word: the packed modulus
        self._fold_word = self.order | int(undigits(self._fold, ell))
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        if build_tables and self.order <= _TABLE_LIMIT:
            self._build_tables()

    # -- packing ------------------------------------------------------------

    def to_coeffs(self, x: int) -> list[int]:
        """Little-endian coefficient list of length d (the JSON form)."""
        out = []
        for _ in range(self.d):
            out.append(x % self.ell)
            x //= self.ell
        return out

    def from_int(self, n: int) -> int:
        """Embed a prime-field residue (constant polynomial)."""
        return n % self.ell

    # -- scalar arithmetic ----------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        ell = self.ell
        if ell == 2:
            acc = 0
            bb = b
            sh = 0
            while bb:
                if bb & 1:
                    acc ^= a << sh
                bb >>= 1
                sh += 1
            # reduce degree-by-degree with the packed modulus
            deg = acc.bit_length() - 1
            while deg >= self.d:
                acc ^= self._fold_word << (deg - self.d)
                deg = acc.bit_length() - 1
            return acc
        return int(undigits(_poly_mulmod(self.to_coeffs(a), self.to_coeffs(b),
                                         list(self.modulus), ell), ell))

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            q1 = self.order - 1
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % q1])
        return self._raw_mul(a, b)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_{ell^d}")
        if self._exp is not None:
            q1 = self.order - 1
            return int(self._exp[(q1 - int(self._log[a])) % q1])
        return self.pow(a, self.order - 2)

    # -- tables and vector kernels -------------------------------------------

    def _build_tables(self):
        q1 = self.order - 1
        # g^n .. g^(2n-1) is g^0 .. g^(n-1) times g^n
        exp = np.ones(2 * q1 + 1, dtype=np.int64)
        n, gn = 1, self.generator
        while n < q1:
            m = min(n, q1 - n)
            exp[n:n + m] = self._product(np.int64(gn), exp[:m])
            n, gn = n + m, self._raw_mul(gn, gn)
        # g generates F_q^x when it is nonzero and g^((q-1)/f) != 1 for
        # every prime f of q - 1
        if not 0 < self.generator < self.order \
                or any(exp[q1 // f] == 1 for f in factorize(q1)):
            raise RuntimeError(f"generator {self.generator} does not have"
                               f" order {q1}")
        # log holds the sentinel 2(q-1) at 0 and exp a zero there: a log
        # sum with a zero operand reaches it or more, and a clipped
        # gather lands on it
        exp[q1:2 * q1] = exp[:q1]
        exp[2 * q1] = 0
        log = np.full(self.order, 2 * q1, dtype=np.int32)
        log[exp[:q1]] = np.arange(q1, dtype=np.int32)
        self._exp = exp
        self._log = log

    def times_x(self, digits: np.ndarray, axis: int = 0) -> np.ndarray:
        """Base-ell digits of x b from those of b along axis: the digits
        move up one place and the top one comes back as
        top x^d = -top (modulus below degree d)."""
        digits = np.moveaxis(digits, axis, 0)
        out = np.empty_like(digits)
        out[1:] = digits[:-1]
        out[0] = 0
        fold = np.array(self._fold, dtype=out.dtype)
        out += digits[-1] * fold.reshape((-1,) + (1,) * (out.ndim - 1))
        _reduce(out, self.ell)
        return np.moveaxis(out, 0, axis)

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a b without tables: the sum of a_s (x^s b) over the digits a_s
        of a.  At ell = 2 it runs on packed words, where x b is a shift
        and a masked XOR of the folded modulus; otherwise on the digit
        planes of b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        d, ell = self.d, self.ell
        shape = np.broadcast_shapes(a.shape, b.shape)
        if ell == 2:
            acc = np.zeros(shape, dtype=np.int64)
            for s in range(d):
                acc ^= ((a >> s) & 1) * b
                if s + 1 < d:
                    b = (b << 1) ^ (b >> (d - 1)) * self._fold_word
            return acc
        # the sums stay below d (ell - 1)^2 before the one reduction
        dtype = np.min_scalar_type(-(d * (ell - 1) ** 2 + 1))
        b = b.reshape((1,) * (len(shape) - b.ndim) + b.shape)
        planes = digits(b, ell, d, axis=0, dtype=dtype)
        a = digits(a, ell, d, axis=0, dtype=dtype)
        acc = np.zeros((d,) + shape, dtype=dtype)
        for s in range(d):
            acc += a[s] * planes
            if s + 1 < d:
                planes = self.times_x(planes)
        return self.pack_planes(acc)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._exp is None:
            return self._product(a, b)
        return np.take(self._exp, self._log[a] + self._log[b], mode="clip")

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        return self.vmul(np.int64(c), a)

    def _planes(self, a: np.ndarray) -> np.ndarray:
        """The digit planes of a, axis 0, in a type that holds 2 ell."""
        return digits(a, self.ell, self.d, axis=0,
                      dtype=np.min_scalar_type(-2 * self.ell))

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return digit_sum(a, b, self.ell, self.d)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.ell == 2:
            return a.copy()
        return undigits(-self._planes(a) % self.ell, self.ell, axis=0)

    def vfrob(self, a: np.ndarray) -> np.ndarray:
        """a^ell, as ell - 1 products."""
        out = a
        for _ in range(self.ell - 1):
            out = self.vmul(out, a)
        return out

    def digit_plane(self, a: np.ndarray, k: int) -> np.ndarray:
        """k-th base-ell digit of every packed element."""
        return digits(a, self.ell, self.d, axis=0)[k]

    def pack_planes(self, planes) -> np.ndarray:
        """The packed elements of digit planes, each taken mod ell."""
        return undigits(np.asarray(planes) % self.ell, self.ell, axis=0)

    def bin_sum(self, bins: np.ndarray, size: int,
                coeffs: np.ndarray) -> np.ndarray:
        """Field sums of coeffs binned by bins into size slots.

        At ell = 2 addition is XOR.  Otherwise each digit plane is
        summed by one bincount, an exact float64 integer sum, and the
        sums are reduced mod ell once and packed.  The sums are held in
        the narrowest type that fits len(coeffs) (ell - 1) and ell: with
        few coefficients and many slots, the reduction is the cost.
        """
        if self.ell == 2:
            out = np.zeros(size, dtype=np.int64)
            np.bitwise_xor.at(out, bins, coeffs)
            return out
        top = max(len(coeffs), 1) * self.ell
        sums = np.empty((self.d, size), dtype=np.min_scalar_type(-top))
        for k, plane in enumerate(self._planes(coeffs)):
            sums[k] = np.bincount(bins, weights=plane, minlength=size)
        _reduce(sums, self.ell)
        return undigits(sums, self.ell, axis=0)

    def __repr__(self):
        return f"FieldContext(ell={self.ell}, d={self.d}, modulus={self.modulus})"


def field_refusal(ell: int, d: int, name: str = "d") -> str:
    """Why field_make refuses F_{ell^d}, naming d as name; "" if not."""
    if not 1 <= d <= 24:
        return f"extension degree {name} = {d} outside [1, 24]"
    if ell**d - 1 >= 2**63:
        return (f"field order {ell}^{d} = {ell**d} ({name} = {d}) has"
                f" elements past the int64 bound 2^63")
    return ""


def field_make(ell: int, d: int) -> FieldContext:
    """Deterministic F_{ell^d}: smallest irreducible modulus, then smallest
    generator (both in packed-integer order)."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if field_refusal(ell, d):
        raise ValueError(field_refusal(ell, d))
    modulus = None
    for low in range(ell**d):
        cand = digits(low, ell, d).tolist() + [1]
        if _poly_is_irreducible(cand, ell):
            modulus = tuple(cand)
            break
    if modulus is None:
        raise RuntimeError(f"no irreducible modulus of degree {d} over"
                           f" F_{ell}")
    ctx = FieldContext(ell, d, modulus, generator=1, build_tables=False)
    q1 = ctx.order - 1
    fac = factorize(q1) if q1 > 1 else {}
    gen = None
    for g in range(1, ctx.order):
        if all(ctx.pow(g, q1 // q) != ctx.one for q in fac) and ctx.pow(g, q1) == ctx.one:
            gen = g
            break
    if gen is None:
        raise RuntimeError(f"no generator of F_{ell}^{d} found")
    out = FieldContext(ell, d, modulus, gen)
    return out


def root_of_unity(ctx: FieldContext, m: int) -> int:
    """The fixed primitive m-th root of unity: generator^((q-1)/m)."""
    if m <= 0:
        raise ValueError("m must be positive")
    q1 = ctx.order - 1
    if m == 1:
        return ctx.one
    if q1 % m != 0:
        raise ValueError(f"{m} does not divide {q1}: F_{{{ctx.ell}^{ctx.d}}}"
                         f" is not a splitting field for C_{m}")
    return ctx.pow(ctx.generator, q1 // m)
