"""Registry of integer sequences that tail-set descriptions refer to.

A registered sequence must be strictly increasing in absolute value, so
membership tests have an index cutoff.  An optional certificate sharpens
what can be concluded about tails: ``tail_divisor(t)`` is an integer
provably dividing every x_k with k >= t (1 when nothing better is known);
sums of tail elements inherit it, which is what makes exclusion proofs over
tails exact.

The registry is write-once: names cannot be rebound after registration.
Registering the same prefix under the same name again returns the entry
already there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

_SCAN_CAP = 10_000  # hard stop for index scans; generous for desk scale


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerSequence:
    name: str
    _value: Callable[[int], int]
    _tail_divisor: Optional[Callable[[int], int]] = None
    length: Optional[int] = None  # None = unbounded

    def value(self, k: int) -> int:
        if k < 0:
            raise SequenceError(f"{self.name}: negative index {k}")
        if self.length is not None and k >= self.length:
            raise SequenceError(f"{self.name}: index {k} beyond prefix length")
        return self._value(k)

    def in_range(self, k: int) -> bool:
        return k >= 0 and (self.length is None or k < self.length)

    def tail_divisor(self, start: int) -> int:
        """Integer dividing every value at index >= start (1 if unknown)."""
        if self._tail_divisor is None:
            return 1
        return max(1, self._tail_divisor(start))

    def indices_with_abs_at_most(self, start: int, bound: int) -> list:
        """All indices k >= start with |x_k| <= bound (finite by growth)."""
        out = []
        k = start
        while self.in_range(k):
            if k - start > _SCAN_CAP:
                raise SequenceError(f"{self.name}: scan cap exceeded")
            v = self.value(k)
            if abs(v) > bound:
                break
            out.append(k)
            k += 1
        return out

    def index_of_value(self, target: int, start: int) -> Optional[int]:
        """Index k >= start with x_k == target, if any."""
        for k in self.indices_with_abs_at_most(start, abs(target)):
            if self.value(k) == target:
                return k
        return None


_REGISTRY: dict = {}


def register(seq: IntegerSequence, validate_depth: int = 12) -> IntegerSequence:
    if seq.name in _REGISTRY:
        raise SequenceError(f"sequence {seq.name!r} already registered")
    _spot_check(seq, validate_depth)
    _REGISTRY[seq.name] = seq
    return seq


def _spot_check(seq: IntegerSequence, depth: int) -> None:
    last = None
    top = depth if seq.length is None else min(depth, seq.length)
    for k in range(top):
        v = seq.value(k)
        if last is not None and abs(v) <= abs(last):
            raise SequenceError(
                f"{seq.name}: |x_{k}| must exceed |x_{k - 1}|"
            )
        last = v
    if seq._tail_divisor is not None:
        for t in range(min(6, top)):
            d = seq.tail_divisor(t)
            for k in range(t, top):
                if seq.value(k) % d != 0:
                    raise SequenceError(
                        f"{seq.name}: tail divisor {d} fails at index {k}"
                    )


def register_prefix_sequence(name: str, values: list) -> IntegerSequence:
    """Register a user-supplied finite sequence prefix.

    The tail divisor is the gcd of the stored tail, which is sound because
    the prefix is the whole sequence.  Re-registering identical values
    returns the existing entry; different values under the name raise.
    """
    vals = tuple(int(v) for v in values)
    if not vals:
        raise SequenceError("empty prefix")
    existing = _REGISTRY.get(name)
    if existing is not None and existing.length == len(vals) and \
            all(existing.value(k) == v for k, v in enumerate(vals)):
        return existing

    def tail_div(start: int) -> int:
        tail = vals[start:]
        return math.gcd(*tail) if tail else 1

    seq = IntegerSequence(
        name=name,
        _value=lambda k: vals[k],
        _tail_divisor=tail_div,
        length=len(vals),
    )
    return register(seq, validate_depth=len(vals))


def _make_powers(base: int) -> IntegerSequence:
    if base < 2:
        raise SequenceError("power base must be >= 2")
    return IntegerSequence(
        name=f"powers{base}",
        _value=lambda k: base ** k,
        _tail_divisor=lambda t: base ** t,
    )


def _fib_value(k: int) -> int:
    # 1, 2, 3, 5, 8, ...: strictly increasing slice of the Fibonacci numbers.
    a, b = 1, 2
    for _ in range(k):
        a, b = b, a + b
    return a


def _factorial_value(k: int) -> int:
    return math.factorial(k + 1)


def get_sequence(name: str) -> IntegerSequence:
    """Look up a registered sequence; powers<base> are created on demand."""
    if name not in _REGISTRY:
        m = re.fullmatch(r"powers(\d+)", name)
        if m:
            register(_make_powers(int(m.group(1))))
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SequenceError(f"unknown sequence {name!r}") from None


register(IntegerSequence(name="fibonacci", _value=_fib_value))
register(IntegerSequence(
    name="factorial",
    _value=_factorial_value,
    _tail_divisor=lambda t: math.factorial(t + 1),
))
