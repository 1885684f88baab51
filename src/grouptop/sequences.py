"""Integer sequences that tail-set descriptions are drawn from.

A sequence must be strictly increasing in absolute value, so membership
tests have an index cutoff.  An optional certificate sharpens what can be
concluded about tails: ``tail_divisor(t)`` is an integer provably dividing
every x_k with k >= t (1 when nothing better is known); sums of tail
elements inherit it, which is what makes exclusion proofs over tails exact.

Tails are read through ``terms`` (each term computed once) and
``divisor_index`` (the first tail divisor in a window that passes a test);
both keep what they read in a list the caller passes, which is how a
command's ``setspec.FoldTable`` reads each tail once.

Sequences are values.  The built-ins (``fibonacci``, ``factorial`` and
``powers<b>`` for b >= 2) resolve by name; a user sequence is a finite
prefix carried in full by every description that uses it, so two prefixes
under one name never meet in shared state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

_SCAN_CAP = 10_000  # hard stop for index scans; generous for desk scale


class SequenceError(ValueError):
    pass


def hash_once(cls):
    """Keep a frozen dataclass's hash on each instance once computed.

    Values like sequences and set descriptions key every table of a
    command, and the generated hash builds and hashes the field tuple
    again on every call.  The kept hash is the generated one, so equal
    values still hash alike."""
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        found = getattr(self, "_hash", None)
        if found is None:
            found = fields_hash(self)
            object.__setattr__(self, "_hash", found)
        return found

    cls.__hash__ = __hash__
    return cls


@hash_once
@dataclass(frozen=True)
class IntegerSequence:
    name: str
    _value: Callable[[int], int] = field(compare=False)
    _tail_divisor: Optional[Callable[[int], int]] = field(default=None,
                                                          compare=False)
    length: Optional[int] = None  # None = unbounded
    prefix: Optional[tuple] = None  # the terms of a user sequence

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

    def terms(self, start: int, bound: int,
              known: Optional[list] = None) -> list:
        """(k, x_k) for each index k >= start with |x_k| <= bound, in index
        order (finite by growth); each term is computed once.  ``known``,
        when given, holds the terms from start computed so far and keeps
        the ones this read computes, so a later read computes only terms
        past them."""
        if known is None:
            known = []
        for i, (_, v) in enumerate(known):
            if abs(v) > bound:
                return known[:i]
        k = start + len(known)
        while self.in_range(k):
            if k - start > _SCAN_CAP:
                raise SequenceError(f"{self.name}: scan cap exceeded")
            known.append((k, self._value(k)))
            if abs(known[-1][1]) > bound:
                return known[:-1]
            k += 1
        return known[:]

    def divisor_index(self, start: int, scan: int, above: int = 0,
                      multiple_of: int = 1,
                      window: Optional[list] = None) -> Optional[tuple]:
        """(t, d) for the first index t in the sequence with start <= t <=
        start + scan whose tail divisor d exceeds ``above`` and is a
        multiple of ``multiple_of``.  None when no index qualifies, and at
        once when the sequence has no divisor certificate.  ``window``,
        when given, holds tail_divisor(start + i) at i for the indices read
        so far and keeps the ones this scan reads."""
        if self._tail_divisor is None:
            return None
        if window is None:
            window = []
        t = start
        while self.in_range(t) and t <= start + scan:
            if t - start == len(window):
                window.append(self.tail_divisor(t))
            d = window[t - start]
            if d > above and d % multiple_of == 0:
                return t, d
            t += 1
        return None


def _spot_check(seq: IntegerSequence, depth: int = 12) -> IntegerSequence:
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
    return seq


def prefix_sequence(name: str, values: list) -> IntegerSequence:
    """A user-supplied finite sequence; the prefix is the whole sequence.

    The tail divisor is the gcd of the stored tail, which is sound because
    no term lies past the prefix.  Built-in names are refused, so a name
    in a description never means two sequences.
    """
    if name in _NAMED or _POWERS.fullmatch(name):
        raise SequenceError(f"{name!r} names a built-in sequence")
    if not isinstance(values, (list, tuple)) or \
            any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise SequenceError(f"{name}: prefix must be a list of integers")
    vals = tuple(values)
    if not vals:
        raise SequenceError("empty prefix")

    def tail_div(start: int) -> int:
        tail = vals[start:]
        return math.gcd(*tail) if tail else 1

    return _spot_check(IntegerSequence(
        name=name,
        _value=lambda k: vals[k],
        _tail_divisor=tail_div,
        length=len(vals),
        prefix=vals,
    ), len(vals))


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


_POWERS = re.compile(r"powers([1-9]\d*)")

_NAMED = {seq.name: _spot_check(seq) for seq in (
    IntegerSequence(name="fibonacci", _value=_fib_value),
    IntegerSequence(
        name="factorial",
        _value=_factorial_value,
        _tail_divisor=lambda t: math.factorial(t + 1),
    ),
)}


def get_sequence(name: str) -> IntegerSequence:
    """Resolve a built-in sequence by name."""
    if name in _NAMED:
        return _NAMED[name]
    m = _POWERS.fullmatch(name)
    if m:
        return _make_powers(int(m.group(1)))
    raise SequenceError(f"unknown sequence {name!r}")


def sequence_to_json(seq: IntegerSequence) -> dict:
    """The keys a description uses to name its sequence."""
    if seq.prefix is None:
        return {"sequence": seq.name}
    return {"sequence": seq.name, "prefix": list(seq.prefix)}


def sequence_from_json(doc: dict) -> IntegerSequence:
    """Inverse of ``sequence_to_json``, read from a description's keys."""
    name = doc["sequence"]
    if not isinstance(name, str):
        raise SequenceError(f"sequence name must be a string, got {name!r}")
    if "prefix" in doc:
        return prefix_sequence(name, doc["prefix"])
    return get_sequence(name)
