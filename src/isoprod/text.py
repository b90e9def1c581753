"""Rationals as text and reports as JSON text, with no isoprod import but ``errors``.

Rationals travel as strings "p/q" (or "p" for integers) everywhere, so reports
and fixtures are bit-stable across platforms and locales.  A verb that reads no
file needs only this module to parse its arguments and to render its report;
``fileio`` imports these names back for the file formats.
"""

import json
import sys
from fractions import Fraction

from .errors import LoadError


def format_rational(value: Fraction) -> str:
    if not isinstance(value, (Fraction, int)):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(value) -> Fraction:
    """An int, a Fraction or a Fraction string, as an exact Fraction.

    Refuses a value whose numerator or denominator has more digits than
    the interpreter converts to text (``sys.get_int_max_str_digits()``);
    a string whose exponent is beyond that limit is refused unexpanded.
    A plain "p" or "p/q" of ASCII digits skips the Fraction string parser.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:
                # int() and Fraction() raise here what Fraction(value) would raise
                return Fraction(int(num), int(den) if slash else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise LoadError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, bool):
        raise LoadError(f"expected a rational, got boolean {value}")
    if not isinstance(value, (int, str)):
        if isinstance(value, Fraction):
            return value
        raise LoadError(f"expected a rational string, got {value!r}")
    limit = sys.get_int_max_str_digits()
    # Fraction refuses a longer digit string itself; an int, an exponent or
    # a decimal point can make a longer numerator or denominator
    unbounded = limit and (isinstance(value, int) or "." in value or "e" in value or "E" in value)
    if unbounded and isinstance(value, str):
        digits = value.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
            raise LoadError(f"bad rational {value!r}: exponent beyond {limit}")
    try:
        result = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise LoadError(f"bad rational {value!r}: {exc}") from None
    if unbounded:
        big = max(abs(result.numerator), result.denominator)
        # below 2 ** (3 * limit) < 10 ** limit, big has at most limit digits
        if big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise LoadError(f"bad rational: more than {limit} digits")
    return result


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def indented_json(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, or the exception it raises, written by C calls: json's
    C encoder runs only without an indent.  Open containers sit on a stack, not in a recursion; each
    item is written with the separator after it, which the closing text of its container replaces on
    the last one.  A list of strings (a matrix row) is one join over json's C quote function, a list
    of floats one ``json.dumps``, a string, int, boolean or None is written by its class, and any
    other value by ``json.dumps``.  A container met inside itself raises ValueError, as in json.
    """
    out, open_ids, stack = [], set(), [(iter([obj]), False, "", "", None)]
    while stack:
        items, keyed, sep, close, mark = stack[-1]
        for value in items:
            key = ""
            if keyed:
                key, value = value
                key = (_quote(key) if key.__class__ is str else json.dumps({key: 0})[1:-4]) + ": "
            write = _SCALARS.get(value.__class__)
            if write is not None or not isinstance(value, (list, tuple, dict)) or not value:
                out.append(f"{key}{(write or json.dumps)(value)}{sep}")
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            inner = "\n" + "  " * len(stack)
            if not isinstance(value, dict):
                try:  # every item a string: one C-level join
                    out.append(f"{key}[{inner}{(',' + inner).join(map(_quote, value))}{inner[:-2]}]{sep}")
                    continue
                except TypeError:  # every item a float: one dumps, split at ", ", which no float's text holds
                    if value[0].__class__ is float and all(v.__class__ is float for v in value):
                        floats = json.dumps(value)[1:-1].split(", ")
                        out.append(f"{key}[{inner}{(',' + inner).join(floats)}{inner[:-2]}]{sep}")
                        continue
            pair, keyed = ("{}", True) if isinstance(value, dict) else ("[]", False)
            out.append(key + pair[0] + inner)
            stack.append((iter(value.items() if keyed else value), keyed, "," + inner, inner[:-2] + pair[1], id(value)))
            open_ids.add(id(value))
            break
        else:
            stack.pop()
            out[-1] = out[-1][:len(out[-1]) - len(sep)] + close
            open_ids.discard(mark)
            if stack:  # the separator after this container in the one that holds it
                out.append(stack[-1][2])
    return "".join(out)
